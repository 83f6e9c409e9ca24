import math
from fractions import Fraction

from hypothesis import strategies as st

from htoeplitz import (ANALYTIC, Coeff, GaussianRational, HarmonicVector, PoleError,
                       RadialFunction, RationalFn, Symbol, constraint_at_offset,
                       solve_telescoping, u_symbol)
from htoeplitz.exactalg import _mono_mul
from htoeplitz.toeplitz import _pieces

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


def basis(m: int, c=1) -> HarmonicVector:
    """c e_m, with c a scalar or a Coeff."""
    return HarmonicVector({m: Coeff.coerce(c)})


def commute_with_Tz_solve(p: int) -> RadialFunction:
    """The radial phi with [T_{e^{ip theta} phi}, T_z] = 0: phi = C r^p.

    This is the analytic stage of degree p for u = z with nothing known,
    an equation with an empty right side.
    """
    return solve_telescoping(constraint_at_offset(u_symbol(0), Symbol(), p, ANALYTIC))[1]


def monomial_z(n: int, coeff=1) -> Symbol:
    """z^n (n >= 0) or zbar^{-n} (n < 0) as a symbol."""
    return Symbol({n: RadialFunction.term(coeff, abs(n))})


def quotient(num, den=None) -> RationalFn:
    """num / prod (z+q)^m over den[q] = m >= 1, reduced to partial fractions."""
    out = RationalFn.coerce(num)
    for q, m in (den or {}).items():
        out = out * RationalFn.fraction(1, q, m)
    return out


pole_values = st.sampled_from([Fraction(q) for q in range(-12, 13, 2)])


@st.composite
def rational_functions(draw, with_poly_part=True):
    """A random rational function assembled from partial-fraction pieces."""
    out = RationalFn.zero
    if with_poly_part and draw(st.booleans()):
        out = out + RationalFn.poly({i: draw(scalar_coeffs()) for i in range(draw(st.integers(1, 3)))})
    for _ in range(draw(st.integers(1, 4))):
        q = draw(pole_values)
        j = draw(st.integers(1, 3))
        c = draw(scalar_coeffs(nonzero=True))
        out = out + RationalFn.fraction(c, q, j)
    return out


def bind_eval(fn: RationalFn, z: complex, bindings=None) -> complex:
    """fn at the complex point z with every indeterminate bound to a complex
    value: a floating reference for checks against the quadrature oracle."""
    bindings = bindings or {}
    out = 0j
    for key, c in fn.terms.items():
        if type(key) is int:
            out += c.bind(bindings) * z ** key
        else:
            out += c.bind(bindings) / (z + float(key[0])) ** key[1]
    return out


# ---------------------------------------------------------------------------
# Fraction references for the integer column kernel (toeplitz._Entries, _residual)


def mellin_term(a: Fraction, b: int, s) -> Fraction:
    """(-1)^b b! / (s+a)^{b+1}, the transform of r^a (ln r)^b at s; PoleError at s = -a.

    With s + a = p/q in lowest terms the value is (-1)^b b! q^{b+1} / p^{b+1},
    built as one Fraction."""
    d = s + a
    if not d:
        raise PoleError(-a)
    return Fraction((-1) ** b * math.factorial(b) * d.denominator ** (b + 1), d.numerator ** (b + 1))


class FractionEntries(dict):
    """F(m) of one piece (k, terms) over Fractions, each computed on first use:
    2(j+1) sum c mellin_term(a, b, s) with j = |m+k| and s = |m|+j+2."""

    def __init__(self, k: int, terms: list):
        self.k, self.terms = k, terms

    def __missing__(self, m: int):
        j = abs(m + self.k)
        s = abs(m) + j + 2
        self[m] = x = 2 * (j + 1) * sum(c * mellin_term(a, b, s) for a, b, c in self.terms)
        return x


def residual_reference(f: Symbol, u: Symbol, m: int) -> HarmonicVector:
    """[T_f, T_u] e_m by the Fraction loop: each pair of pieces puts
    mu_f mu_u (F(m+k_u) U(m) - U(m+k_f) F(m)) at e_{m+k_f+k_u}."""
    up = [(mu, ku, FractionEntries(ku, terms)) for mu, ku, terms in _pieces(u)]
    pairs = [(FractionEntries(kf, terms), kf, U, ku, _mono_mul(mf, mu))
             for mf, kf, terms in _pieces(f) for mu, ku, U in up]
    acc: dict = {}
    for F, kf, U, ku, mono in pairs:
        x = F[m + ku] * U[m] - U[m + kf] * F[m]
        if x:
            out = acc.setdefault(m + kf + ku, {})
            out[mono] = out[mono] + x if mono in out else x
    return HarmonicVector({i: Coeff({mono: GaussianRational.coerce(x) for mono, x in c.items()})
                           for i, c in acc.items()})
