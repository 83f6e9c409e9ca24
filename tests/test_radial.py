from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from htoeplitz import C, Coeff, RadialFunction, abar

from .conftest import radial_functions


def test_term_algebra():
    r = RadialFunction.term(1, 1)
    r3 = RadialFunction.term(1, 3)
    assert r * r == RadialFunction.term(1, 2)
    assert r * r3 == RadialFunction.term(1, 4)
    assert (r + r3) - r3 == r
    assert (r - r).is_zero()


def test_log_powers_multiply():
    lnr = RadialFunction.term(1, 0, 1)
    assert lnr * lnr == RadialFunction.term(1, 0, 2)
    assert (lnr * RadialFunction.term(1, 2, 1)) == RadialFunction.term(1, 2, 2)


def test_shift():
    phi = RadialFunction.term(1, -2) + RadialFunction.term(2, 0, 1)
    assert phi.shift(3) == RadialFunction.term(1, 1) + RadialFunction.term(2, 3, 1)


def test_integrability_boundary():
    # r^a (ln r)^b is integrable against r dr exactly when a > -2
    assert RadialFunction.term(1, Fraction(-199, 100)).is_integrable()
    assert not RadialFunction.term(1, -2).is_integrable()
    assert not RadialFunction.term(1, -2, 1).is_integrable()
    assert not RadialFunction.term(1, -6).is_integrable()


def test_non_integrable_terms():
    phi = (
        RadialFunction.term(C(2), -2)
        + RadialFunction.term(C(3) * abar(1), -4)
        + RadialFunction.term(1, 1)
    )
    keys = set(phi.non_integrable_terms())
    assert keys == {(Fraction(-2), 0), (Fraction(-4), 0)}


def test_substitute_zero():
    phi = RadialFunction.term(C(2), -2) + RadialFunction.term(C(1), 1)
    out = phi.substitute_zero(["C2"])
    assert out == RadialFunction.term(C(1), 1)
    assert out.is_integrable()


def test_str():
    phi = RadialFunction.term(C(1), 1) + RadialFunction.term(1, -1)
    s = str(phi)
    assert "C1" in s and "r^-1" in s


@given(radial_functions(), radial_functions(), radial_functions())
def test_ring_laws(f, g, h):
    assert f + g == g + f
    assert f * g == g * f
    assert f * (g + h) == f * g + f * h


@given(radial_functions(), st.integers(-3, 3))
def test_shift_is_multiplication(f, j):
    assert f.shift(j) == f * RadialFunction.term(1, j)
