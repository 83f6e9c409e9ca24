from fractions import Fraction

import pytest
from hypothesis import assume, given, settings

from htoeplitz import (
    Coeff,
    MellinInversionError,
    PoleError,
    RadialFunction,
    RationalFn,
    inverse_mellin,
    mellin,
)
from .conftest import fractions, mellin_term, radial_functions


def test_power_table():
    # r^a has transform 1/(z+a)
    for a in (-1, 0, 2, 5):
        assert mellin(RadialFunction.term(1, a)) == RationalFn.fraction(1, a)


def test_log_table():
    # r^a (ln r)^b transforms to (-1)^b b! / (z+a)^{b+1}
    assert mellin(RadialFunction.term(1, 4, 1)) == RationalFn.fraction(-1, 4, 2)
    assert mellin(RadialFunction.term(1, 0, 2)) == RationalFn.fraction(2, 0, 3)
    assert mellin(RadialFunction.term(1, 2, 3)) == RationalFn.fraction(-6, 2, 4)


def test_linearity():
    f = RadialFunction.term(3, 1) - RadialFunction.term(1, -1, 1)
    assert mellin(f) == RationalFn.fraction(3, 1) - RationalFn.fraction(-1, -1, 2)


def test_inverse_simple():
    assert inverse_mellin(RationalFn.fraction(1, 4)) == RadialFunction.term(1, 4)
    assert inverse_mellin(RationalFn.fraction(-1, 4, 2)) == RadialFunction.term(1, 4, 1)


def test_inverse_rejects_improper():
    with pytest.raises(MellinInversionError):
        inverse_mellin(RationalFn.poly({0: 1, 1: 1}))
    with pytest.raises(MellinInversionError):
        inverse_mellin(RationalFn.one)


def test_fractional_exponent():
    phi = RadialFunction.term(1, Fraction(-1, 2))
    assert mellin(phi) == RationalFn.fraction(1, Fraction(-1, 2))
    assert inverse_mellin(mellin(phi)) == phi


@given(radial_functions(scalar=False))
@settings(deadline=None)
def test_round_trip(phi):
    assert inverse_mellin(mellin(phi)) == phi


@given(radial_functions(scalar=False), fractions())
@settings(deadline=None)
def test_mellin_term_matches_transform(phi, s):
    assume(all(s + a != 0 for a, _ in phi.terms))
    value = sum((c * mellin_term(a, b, s) for (a, b), c in phi.terms.items()), Coeff())
    assert value == mellin(phi).evaluate_at(s)


@given(radial_functions(scalar=False))
@settings(deadline=None)
def test_mellin_term_pole(phi):
    for a, b in phi.terms:
        with pytest.raises(PoleError) as point:
            mellin_term(a, b, -a)
        with pytest.raises(PoleError) as whole:
            mellin(phi).evaluate_at(-a)
        assert point.value.q == whole.value.q == -a
