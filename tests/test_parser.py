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
from htoeplitz.ratfun import Poly, RationalFn

from .conftest import radial_functions


def test_monomials():
    assert parse_symbol_expr("z^3") == Symbol({3: RadialFunction.term(1, 3)})
    assert parse_symbol_expr("z3") == Symbol({3: RadialFunction.term(1, 3)})
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
    g = parse_rational_expr("(z+6)/(z+10) - z/(z+4)")
    assert g == (RationalFn.quotient(Poly.linear(6)) / RationalFn.quotient(Poly.linear(10))
                 - RationalFn.quotient(Poly({1: 1})) / RationalFn.quotient(Poly.linear(4)))


def test_error_positions():
    # C01, C00, Cm0 and abar01 are not spellings of C1, C0 and abar1
    for bad in ("z^", "e(2", "2 +* 3", "q7", "r^^2", "C01", "C00*z", "z + Cm0", "abar01"):
        with pytest.raises(ParseError) as exc:
            parse_symbol_expr(bad)
        assert "column" in str(exc.value)


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
