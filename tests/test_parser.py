from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from htoeplitz import (
    ParseError,
    RadialFunction,
    Symbol,
    abar,
    parse_basis_vector,
    parse_radial_expr,
    parse_rational_expr,
    parse_symbol_expr,
)
from htoeplitz.ratfun import RationalFn

from .conftest import radial_functions


def test_monomials():
    assert parse_symbol_expr("z^3") == Symbol({3: RadialFunction.term(1, 3)})
    assert parse_symbol_expr("z3") == Symbol({3: RadialFunction.term(1, 3)})
    assert parse_symbol_expr("r2") == parse_symbol_expr("r^2")
    assert parse_symbol_expr("conj(z)^2") == Symbol({-2: RadialFunction.term(1, 2)})
    assert parse_symbol_expr("e(-2)") == Symbol({-2: RadialFunction.const(1)})


def test_truncated_u():
    u = parse_symbol_expr("z + abar1*conj(z) + abar2*conj(z)^2")
    assert set(u.terms) == {1, -1, -2}
    assert u.terms[-2] == RadialFunction.term(abar(2), 2)


def test_quasihomogeneous_factor():
    s = parse_symbol_expr("e(-2)*(r^-2 - r^2)")
    assert set(s.terms) == {-2}
    assert s.terms[-2] == RadialFunction.term(1, -2) - RadialFunction.term(1, 2)


def test_radial_vocabulary():
    phi = parse_radial_expr("r^4*ln(r) - 2*r^(1/2)")
    expect = RadialFunction.term(1, 4, 1) - RadialFunction.term(2, Fraction(1, 2))
    assert phi == expect


def test_radial_rejects_angular():
    with pytest.raises(ParseError):
        parse_radial_expr("z^2")


def test_like_components_merge():
    s = parse_symbol_expr("z + e(1)*r")
    assert s == Symbol({1: RadialFunction.term(2, 1)})


def test_distribution():
    s = parse_symbol_expr("(z + conj(z))*(z + conj(z))")
    assert set(s.terms) == {2, 0, -2}
    assert s.terms[0] == RadialFunction.term(2, 2)


def test_basis_vectors():
    assert parse_basis_vector("1") == 0
    assert parse_basis_vector("z^3") == 3
    assert parse_basis_vector("zbar") == -1


def test_rational_expressions():
    f = parse_rational_expr("-1/(z+4)^2")
    assert f == RationalFn.fraction(-1, 4, 2)
    assert parse_rational_expr("(z+1)^-2") == RationalFn.fraction(1, 1, 2)
    assert parse_rational_expr("z3") == parse_rational_expr("z^3")
    g = parse_rational_expr("(z+6)/(z+10) - z/(z+4)")
    assert g == (RationalFn.linear(6) / RationalFn.linear(10)
                 - RationalFn.poly({1: 1}) / RationalFn.linear(4))


def test_error_positions():
    # C01, C00, Cm0 and abar01 are not spellings of C1, C0 and abar1
    # only r takes a negative or fractional power, and an exponent is not spaced
    for bad in ("z^", "e(2", "2 +* 3", "q7", "r^^2", "C01", "C00*z", "z + Cm0", "abar01",
                "z^-1", "z^(1/2)", "(2*r)^(1/2)", "ln(r)^-1", "z 3"):
        with pytest.raises(ParseError) as exc:
            parse_symbol_expr(bad)
        assert "column" in str(exc.value)
    # an unexpected character is placed at its own column, not at the spaces before it
    for bad, column in (("z .", 3), ("z+  $", 5)):
        with pytest.raises(ParseError) as exc:
            parse_symbol_expr(bad)
        assert str(exc.value).endswith(f"(column {column})")


def test_leading_plus_and_trailing_space():
    assert parse_symbol_expr("+z") == parse_symbol_expr("z ") == parse_symbol_expr("z")


@given(radial_functions(scalar=False))
@settings(deadline=None, max_examples=100)
def test_radial_round_trip(phi):
    assert parse_radial_expr(str(phi)) == phi


@given(st.dictionaries(st.integers(-4, 4), radial_functions(scalar=False),
                       min_size=1, max_size=3))
@settings(deadline=None, max_examples=100)
def test_symbol_round_trip(comps):
    s = Symbol(comps)
    assert parse_symbol_expr(str(s)) == s


# the one power rule: x^n is the product of n factors x, and only r takes other powers
POWER_BASES = ["z", "conj(z)", "e(2)", "r", "ln(r)", "abar1", "(z+1)", "2", "i"]


@pytest.mark.parametrize("base", POWER_BASES)
def test_power_is_repeated_product(base):
    x = parse_symbol_expr(base)
    product = parse_symbol_expr("1")
    for n in range(4):
        assert parse_symbol_expr(f"{base}^{n}") == product, (base, n)
        product = product * x


@pytest.mark.parametrize("text, a", [
    ("r^-1", Fraction(-1)), ("r^(1/2)", Fraction(1, 2)), ("r^-3/2", Fraction(-3, 2)),
    ("r^(-3/2)", Fraction(-3, 2)), ("r^3/2", Fraction(3, 2)), ("r^(3/2)", Fraction(3, 2)),
    ("(r)^(1/2)", Fraction(1, 2)),
])
def test_only_r_takes_rational_powers(text, a):
    assert parse_radial_expr(text) == RadialFunction.term(1, a)
