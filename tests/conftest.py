from fractions import Fraction

from hypothesis import strategies as st

from htoeplitz import Coeff, GaussianRational, Poly, RadialFunction, RationalFn

small_ints = st.integers(-9, 9)
pos_ints = st.integers(1, 6)


@st.composite
def fractions(draw):
    return Fraction(draw(small_ints), draw(pos_ints))


@st.composite
def gaussians(draw, nonzero=False):
    g = GaussianRational(draw(fractions()), draw(fractions()))
    if nonzero and g == GaussianRational(0):
        g = GaussianRational(1, draw(fractions()))
    return g


@st.composite
def scalar_coeffs(draw, nonzero=False):
    return Coeff.const(draw(gaussians(nonzero=nonzero)))


indet_names = st.sampled_from(
    ["C0", "C1", "C2", "C3", "Cm1", "Cm2", "abar1", "abar2", "abar3"]
)


@st.composite
def coeffs(draw):
    out = Coeff.const(0)
    for _ in range(draw(st.integers(1, 3))):
        term = Coeff.const(draw(gaussians()))
        for name in draw(st.lists(indet_names, max_size=2)):
            term = term * Coeff.indet(name)
        out = out + term
    return out


@st.composite
def radial_functions(draw, a_min=-6, a_max=8, b_max=3, scalar=True):
    phi = RadialFunction.zero
    for _ in range(draw(st.integers(1, 4))):
        a = draw(st.integers(a_min, a_max))
        b = draw(st.integers(0, b_max))
        c = draw(scalar_coeffs(nonzero=True) if scalar else coeffs())
        phi = phi + RadialFunction.term(c, a, b)
    return phi


pole_values = st.sampled_from([Fraction(q) for q in range(-12, 13, 2)])


@st.composite
def rational_functions(draw, with_poly_part=True):
    """A random rational function assembled from partial-fraction pieces."""
    out = RationalFn.zero
    if with_poly_part and draw(st.booleans()):
        out = out + RationalFn.quotient(Poly({i: draw(scalar_coeffs()) for i in range(draw(st.integers(1, 3)))}))
    for _ in range(draw(st.integers(1, 4))):
        q = draw(pole_values)
        j = draw(st.integers(1, 3))
        c = draw(scalar_coeffs(nonzero=True))
        out = out + RationalFn.fraction(c, q, j)
    return out
