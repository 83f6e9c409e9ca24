from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from htoeplitz import Coeff, Poly, PoleError, RationalFn

from .conftest import coeffs, pole_values, rational_functions, scalar_coeffs


def test_poly_basics():
    p = Poly.linear(2)  # z + 2
    assert p.degree() == 1
    assert (p * p).degree() == 2
    assert p.evaluate(-2) == Coeff.const(0)
    assert (p**3).terms[0] == Coeff.const(8)


def test_poly_shift():
    p = Poly.variable() ** 2
    assert p.shift(1) == Poly({0: 1, 1: 2, 2: 1})  # (z+1)^2


def test_pole_cancellation():
    # (z+4)/(z+4) reduces to 1
    f = RationalFn.quotient(Poly.linear(4), {Fraction(4): 1})
    assert f == RationalFn.one
    # (z+4)^2/(z+4) reduces to z+4
    g = RationalFn.quotient(Poly.linear(4) ** 2, {Fraction(4): 1})
    assert g == RationalFn.quotient(Poly.linear(4))


def test_fraction_constructor():
    f = RationalFn.fraction(1, 4, 2)
    assert f.render() == "1/(z+4)^2"


def test_add_merges_poles():
    f = RationalFn.fraction(1, 2) + RationalFn.fraction(1, 4)
    assert f.render() == "(2*z + 6)/((z+2)*(z+4))"


def test_division_linear_factors():
    num = RationalFn.quotient(Poly.linear(2) * Poly.linear(4))
    out = num / RationalFn.quotient(Poly.linear(2))
    assert out == RationalFn.quotient(Poly.linear(4))


def test_division_requires_rational_roots():
    irreducible = RationalFn.quotient(Poly({0: 1, 2: 1}))  # z^2 + 1
    with pytest.raises(ValueError):
        RationalFn.one / irreducible
    # but a scalar multiple of linear factors divides fine
    from htoeplitz import GaussianRational

    g = RationalFn.quotient(Poly.linear(11).scale(GaussianRational(0, 1)))
    assert (g / g) == RationalFn.one


def test_evaluate_at():
    f = RationalFn.fraction(1, 4)
    assert f.evaluate_at(0) == Coeff.const(Fraction(1, 4))
    with pytest.raises(PoleError):
        f.evaluate_at(-4)


def test_affine_substitute():
    # f(z) = 1/(z+4); f(2n+2) = 1/(2n+6) = (1/2)/(n+3)
    f = RationalFn.fraction(1, 4)
    g = f.affine_substitute(2, 2)
    assert g == RationalFn.fraction(Fraction(1, 2), 3)


def test_shift():
    f = RationalFn.fraction(1, 4)
    assert f.shift(2) == RationalFn.fraction(1, 6)


def test_bind_eval():
    f = RationalFn.fraction(Coeff.indet("abar1"), 2)
    val = f.bind_eval(2.0, {"abar1": 3.0})
    assert abs(val - 0.75) < 1e-15


def test_partial_fractions_simple():
    f = RationalFn.fraction(1, 2) + RationalFn.fraction(-2, 4, 2)
    pf = f.partial_fractions()
    assert pf.poly_part.is_zero()
    assert pf.fractions[(Fraction(2), 1)] == Coeff.const(1)
    assert pf.fractions[(Fraction(4), 2)] == Coeff.const(-2)


def test_partial_fractions_improper():
    f = RationalFn.quotient(Poly({2: 1}), {Fraction(2): 1})  # z^2/(z+2)
    pf = f.partial_fractions()
    assert pf.poly_part == Poly({0: -2, 1: 1})
    assert pf.fractions[(Fraction(2), 1)] == Coeff.const(4)


@given(rational_functions())
@settings(deadline=None)
def test_partial_fractions_recombine(f):
    assert RationalFn.quotient(f.num, f.den) == f


@st.composite
def invertible_rationals(draw):
    """Divisors of the shape the engine supports: scalar * prod(z+q) over poles."""
    num = Poly.const(draw(scalar_coeffs(nonzero=True)))
    for _ in range(draw(st.integers(0, 3))):
        num = num * Poly.linear(Fraction(draw(st.integers(-8, 8))))
    den = {}
    for _ in range(draw(st.integers(0, 2))):
        q = Fraction(draw(st.integers(-8, 8)))
        den[q] = den.get(q, 0) + 1
    return RationalFn.quotient(num, den)


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
    b = RationalFn.quotient(a.num * Poly.linear(q), den)
    assert b == a and hash(b) == hash(a)


def test_render():
    f = RationalFn.fraction(1, 6) - RationalFn.quotient(Poly({1: 1}), {Fraction(4): 1})
    assert "z" in f.render()
    # the shape that shows up in the induction step
    g = RationalFn.quotient(Poly.linear(6), {Fraction(10): 1})
    assert g.render() == "(z + 6)/(z+10)"

