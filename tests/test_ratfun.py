from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from htoeplitz import ANALYTIC, Coeff, PoleError, RationalFn
from htoeplitz.toeplitz import branch_z

from .conftest import bind_eval, coeffs, pole_values, quotient, rational_functions, scalar_coeffs


def test_poly_basics():
    p = RationalFn.linear(2)  # z + 2
    assert p.degree() == 1
    assert (p * p).degree() == 2
    assert p.evaluate_at(-2) == Coeff.const(0)
    assert (p * p * p).terms[0] == Coeff.const(8)


def test_poly_shift():
    p = RationalFn.poly({2: 1})
    assert p.shift(1) == RationalFn.poly({0: 1, 1: 2, 2: 1})  # (z+1)^2


def test_pole_cancellation():
    # (z+4)/(z+4) reduces to 1
    f = quotient(RationalFn.linear(4), {Fraction(4): 1})
    assert f == RationalFn.one
    # (z+4)^2/(z+4) reduces to z+4
    g = quotient(RationalFn.linear(4) * RationalFn.linear(4), {Fraction(4): 1})
    assert g == RationalFn.linear(4)


def test_pole_free_scalar_function_renders():
    # a scalar-valued function with no poles renders and serializes as its Coeff lift does
    f = branch_z(ANALYTIC, 1, 1, 0)
    assert f.den == {}
    lifted = f.scale(Coeff.const(1))
    assert str(f) == str(lifted) == "1"
    assert f.to_json() == lifted.to_json()
    # and with a pole: 2 + 3/(z+1)^2, whose numerator is lifted to Coeffs too
    g = RationalFn({(1, 2): 3, 0: 2})
    assert str(g) == str(g.scale(Coeff.const(1))) == "(2*z^2 + 4*z + 5)/(z+1)^2"


def test_operands_are_rational_functions():
    # a constant enters as RationalFn.const(c); a bare scalar or Coeff is refused
    f = RationalFn.fraction(1, 4)
    assert f * RationalFn.const(2) == RationalFn.fraction(2, 4)
    for c in (2, Coeff.const(2)):
        for bad in (lambda: f * c, lambda: c * f, lambda: f / c):
            with pytest.raises(TypeError):
                bad()


def test_fraction_constructor():
    f = RationalFn.fraction(1, 4, 2)
    assert f.render() == "1/(z+4)^2"


def test_add_merges_poles():
    f = RationalFn.fraction(1, 2) + RationalFn.fraction(1, 4)
    assert f.render() == "(2*z + 6)/((z+2)*(z+4))"


def test_division_linear_factors():
    num = RationalFn.linear(2) * RationalFn.linear(4)
    out = num / RationalFn.linear(2)
    assert out == RationalFn.linear(4)


def test_division_requires_rational_roots():
    irreducible = RationalFn.poly({0: 1, 2: 1})  # z^2 + 1
    with pytest.raises(ValueError):
        RationalFn.one / irreducible
    # but a scalar multiple of linear factors divides fine
    from htoeplitz import GaussianRational

    g = RationalFn.linear(11).scale(GaussianRational(0, 1))
    assert (g / g) == RationalFn.one


def test_evaluate_at():
    f = RationalFn.fraction(1, 4)
    assert f.evaluate_at(0) == Coeff.const(Fraction(1, 4))
    with pytest.raises(PoleError):
        f.evaluate_at(-4)
    # scalar-valued functions too: 1/(z+3) + 1 at z = 4
    assert branch_z(ANALYTIC, 1, 0, 0).evaluate_at(4) == Coeff.const(Fraction(8, 7))


def test_affine_substitute():
    # f(z) = 1/(z+4); f(2n+2) = 1/(2n+6) = (1/2)/(n+3)
    f = RationalFn.fraction(1, 4)
    g = f.affine_substitute(2, 2)
    assert g == RationalFn.fraction(Fraction(1, 2), 3)
    with pytest.raises(ValueError, match="alpha must be nonzero"):
        f.affine_substitute(0, 1)


def test_shift():
    f = RationalFn.fraction(1, 4)
    assert f.shift(2) == RationalFn.fraction(1, 6)


def test_bind_eval():
    f = RationalFn.fraction(Coeff.indet("abar1"), 2)
    val = bind_eval(f, 2.0, {"abar1": 3.0})
    assert abs(val - 0.75) < 1e-15


@st.composite
def scalar_rational_functions(draw):
    """A rational function whose values are exact scalars: a Fraction when real,
    else a GaussianRational."""
    fn = draw(rational_functions())
    return RationalFn({k: c.scalar() if c.scalar().im else c.scalar().re
                       for k, c in fn.terms.items()})


@given(scalar_rational_functions(), scalar_rational_functions(), coeffs(), coeffs(),
       st.integers(-4, 4))
@settings(deadline=None, max_examples=60)
def test_scalar_product_lifted_equals_coeff_product(a, b, ca, cb, beta):
    # the values' Coeff factors are common to every term, so a product over
    # scalars lifted by scale is the product over Coeff
    lifted = (a * b.shift(beta)).scale(ca * cb)
    assert lifted == a.scale(ca) * b.scale(cb).shift(beta)
    assert all(isinstance(c, Coeff) for c in lifted.terms.values())
    assert a.scale(Coeff.const(1)) == RationalFn({k: Coeff.const(c) for k, c in a.terms.items()})


def _den_poly(den) -> RationalFn:
    """The monic polynomial prod (z+q)^m over den[q] = m, built by RationalFn products."""
    out = RationalFn.one
    for q, m in den.items():
        for _ in range(m):
            out = out * RationalFn.linear(q)
    return out


@given(st.one_of(rational_functions(), scalar_rational_functions()), coeffs(), pole_values,
       st.integers(1, 3))
@settings(deadline=None, max_examples=60)
def test_num_from_cofactors_equals_the_product_with_den(fn, c, q, j):
    # num is built from dense cofactors; the reference is the RationalFn product with den.
    # A product keeps the value kind, and the factor makes q a repeated pole.
    for g in (fn, fn.scale(c), fn * RationalFn({(q, j): 1, (q, j + 1): 2})):
        num = g.num
        assert num == (g * _den_poly(g.den)).poly_part
        assert all(isinstance(v, Coeff) for v in num.terms.values())


def test_partial_fractions_simple():
    f = RationalFn.fraction(1, 2) + RationalFn.fraction(-2, 4, 2)
    pf = f.partial_fractions()
    assert pf.poly_part.is_zero()
    assert pf.fractions[(Fraction(2), 1)] == Coeff.const(1)
    assert pf.fractions[(Fraction(4), 2)] == Coeff.const(-2)


def test_partial_fractions_improper():
    f = quotient(RationalFn.poly({2: 1}), {Fraction(2): 1})  # z^2/(z+2)
    pf = f.partial_fractions()
    assert pf.poly_part == RationalFn.poly({0: -2, 1: 1})
    assert pf.fractions[(Fraction(2), 1)] == Coeff.const(4)


@given(rational_functions())
@settings(deadline=None)
def test_partial_fractions_recombine(f):
    assert quotient(f.num, f.den) == f


@st.composite
def invertible_rationals(draw):
    """Divisors of the shape the engine supports: scalar * prod(z+q) over poles."""
    num = RationalFn.const(draw(scalar_coeffs(nonzero=True)))
    for _ in range(draw(st.integers(0, 3))):
        num = num * RationalFn.linear(Fraction(draw(st.integers(-8, 8))))
    den = {}
    for _ in range(draw(st.integers(0, 2))):
        q = Fraction(draw(st.integers(-8, 8)))
        den[q] = den.get(q, 0) + 1
    return quotient(num, den)


@given(rational_functions(), rational_functions())
@settings(deadline=None)
def test_ring_laws(f, g):
    assert f + g == g + f
    assert f * g == g * f
    assert f - f == RationalFn.zero


@given(rational_functions(), invertible_rationals())
@settings(deadline=None)
def test_division_round_trip(f, g):
    if g.is_zero():
        return
    assert (f * g) / g == f


@given(rational_functions(), st.integers(-4, 4))
@settings(deadline=None)
def test_shift_inverts(f, b):
    assert f.shift(b).shift(-b) == f


@given(rational_functions(), rational_functions())
@settings(deadline=None)
def test_structural_eq_agrees_with_difference(a, b):
    assert (a == b) == (a - b).is_zero()
    assert (a + b) - b == a
    assert a.shift(2).shift(-2) == a


@given(rational_functions(), coeffs(), pole_values)
@settings(deadline=None)
def test_structural_eq_after_cancellation(a, c, q):
    # a common factor (z+q) put into both parts is cancelled on construction
    a = a.scale(c)
    den = dict(a.den)
    den[q] = den.get(q, 0) + 1
    b = quotient(a.num * RationalFn.linear(q), den)
    assert b == a and hash(b) == hash(a)


def test_render():
    f = RationalFn.fraction(1, 6) - quotient(RationalFn.poly({1: 1}), {Fraction(4): 1})
    assert "z" in f.render()
    # the shape that shows up in the induction step
    g = quotient(RationalFn.linear(6), {Fraction(10): 1})
    assert g.render() == "(z + 6)/(z+10)"

