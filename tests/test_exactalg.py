from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from htoeplitz import (
    C,
    Coeff,
    GaussianRational,
    HarmonicVector,
    Poly,
    RadialFunction,
    RationalFn,
    Symbol,
    UnboundIndeterminateError,
    abar,
)
from htoeplitz.exactalg import aname, cname, indet_key, is_constant_name

from .conftest import coeffs, fractions, gaussians


def test_names():
    assert cname(3) == "C3"
    assert cname(-2) == "Cm2"
    assert aname(4) == "abar4"
    assert indet_key("Cm2") == indet_key("Cm2")
    assert [indet_key(n) for n in ("C0", "C10", "Cm1")] == [(0, 0), (0, -10), (0, 1)]
    for bad in ("C01", "C00", "Cm0", "abar01", "abar0"):
        with pytest.raises(ValueError):
            indet_key(bad)
    assert is_constant_name("C1")
    assert is_constant_name("Cm4")
    assert not is_constant_name("abar2")


def test_name_ordering():
    # C's first, by descending index, then the abar's
    names = ["abar2", "C1", "Cm3", "abar1", "C4"]
    assert sorted(names, key=indet_key) == ["C4", "C1", "Cm3", "abar1", "abar2"]


def test_gaussian_str():
    assert str(GaussianRational(Fraction(31, 4))) == "31/4"
    assert str(GaussianRational(0)) == "0"
    assert "i" in str(GaussianRational(1, Fraction(1, 2)))


@given(gaussians(), gaussians(), gaussians())
def test_gaussian_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a - a == GaussianRational(0)


@given(gaussians(nonzero=True))
def test_gaussian_division(a):
    assert a / a == GaussianRational(1)
    assert (GaussianRational(1) / a) * a == GaussianRational(1)


@given(coeffs(), coeffs(), coeffs())
def test_coeff_ring_laws(x, y, z):
    assert x + y == y + x
    assert x * y == y * x
    assert x * (y + z) == x * y + x * z
    assert (x * y) * z == x * (y * z)


def test_coeff_substitute_zero():
    x = C(2) * abar(1) + C(1)
    assert x.substitute_zero(["C2"]) == C(1)
    assert x.substitute_zero(["C1", "C2"]).is_zero()
    assert x.substitute_zero(["abar3"]) == x


def test_coeff_bind():
    x = C(1) * abar(2) + Coeff.const(3)
    val = x.bind({"C1": 2j, "abar2": 0.5})
    assert abs(val - (1j + 3)) < 1e-15
    with pytest.raises(UnboundIndeterminateError):
        x.bind({"C1": 1.0})


def test_coeff_str():
    assert str(C(3) * abar(1) * Coeff.const(Fraction(31, 4))) == "31/4*C3*abar1"
    assert str(Coeff.const(0)) == "0"


def test_constant_names():
    x = C(2) * abar(1) + C(-1) * C(3)
    assert x.constant_names() == {"C2", "Cm1", "C3"}
    assert x.indeterminates() == {"C2", "abar1", "Cm1", "C3"}


def test_coeff_output_independent_of_insertion_order():
    # monomials that differ only in an exponent used to tie in the sort key
    a = C(2) * abar(1) + C(2) * abar(1) * abar(1)
    b = C(2) * abar(1) * abar(1) + C(2) * abar(1)
    assert a == b
    assert str(a) == str(b) == "C2*abar1 + C2*abar1^2"
    assert a.to_json() == b.to_json()


def _sparse_sums(c1, c2):
    """Per Terms subclass: two values a, b built from two Coeffs, and one zero entry."""
    r = RadialFunction.term
    return {
        Coeff: (c1 + 1, c2 * abar(1), ((), GaussianRational(0))),
        RadialFunction: (r(c1, 1) + r(c2, -1, 2), r(c2, 1), ((0, 0), Coeff())),
        HarmonicVector: (HarmonicVector({0: c1, -2: c2}), HarmonicVector({0: c2, 3: c1}),
                         (0, Coeff())),
        Symbol: (Symbol({1: r(c1, 1), -2: r(c2, 0, 1)}), Symbol({1: r(c2, 1)}),
                 (0, RadialFunction.zero)),
        Poly: (Poly({0: c1, 2: c2}), Poly({1: c2}), (3, Coeff())),
        RationalFn: (RationalFn({0: c1, (Fraction(2), 1): c2}),
                     RationalFn({(Fraction(-1), 2): c1, 1: c2}), ((Fraction(1), 1), Coeff())),
    }


@pytest.mark.parametrize("cls", [Coeff, RadialFunction, HarmonicVector, Symbol, Poly, RationalFn],
                         ids=lambda cls: cls.__name__)
@given(coeffs(), coeffs())
def test_sparse_sum_laws(cls, c1, c2):
    # the six sparse sums share one +, -, ==, hash and immutability
    a, b, (key, zero) = _sparse_sums(c1, c2)[cls]
    assert cls({key: zero}).terms == {}
    diff = a - a
    assert type(diff) is cls and diff.is_zero() and not diff
    assert a + b - b == a
    assert -(-a) == a
    assert hash(a + b - b) == hash(a)
    with pytest.raises(AttributeError):
        a.terms = {}
    with pytest.raises(AttributeError):
        setattr(a, "other", 1)


# per sparse sum with a product: the constant with a given Coeff value, and a generator
_RINGS = {
    Coeff: (Coeff.coerce, abar(1)),
    RadialFunction: (RadialFunction.const, RadialFunction.term(1, 1, 1)),
    Poly: (Poly.const, Poly.variable()),
    Symbol: (lambda c: Symbol({0: RadialFunction.const(c)}), Symbol.monomial_z(1)),
    RationalFn: (RationalFn.const, RationalFn.fraction(1, 2) + Poly.variable()),
}


@pytest.mark.parametrize("cls", list(_RINGS), ids=lambda cls: cls.__name__)
@given(coeffs(), coeffs())
def test_product_laws(cls, c1, c2):
    # every product of two sums runs through Terms._product; a and b share two
    # keys, so their product sums two terms at one key
    const, x = _RINGS[cls]
    a, b, c = const(c1) + x + const(1), const(c2) + x + const(2), const(c1 * c2) - x
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    assert not a * cls()


@st.composite
def _real_or_complex(draw, complex_):
    im = draw(fractions().filter(bool)) if complex_ else 0
    return GaussianRational(draw(fractions()), im)


@given(st.sampled_from([(False, False), (False, True), (True, False), (True, True)]), st.data())
def test_gaussian_add_mul_match_four_product_formula(kinds, data):
    # the real-axis fast path must agree with the general formula on every mix
    a = data.draw(_real_or_complex(kinds[0]))
    b = data.draw(_real_or_complex(kinds[1]))
    for got, re, im in (
        (a + b, a.re + b.re, a.im + b.im),
        (a * b, a.re * b.re - a.im * b.im, a.re * b.im + a.im * b.re),
    ):
        assert (got.re, got.im) == (re, im)
        assert type(got.re) is Fraction and type(got.im) is Fraction


def test_gaussian_parts_are_fractions():
    x = Fraction(3, 4)
    g = GaussianRational(x, 2)
    assert g.re is x
    assert type(g.im) is Fraction and g.im == 2
    assert type(GaussianRational(True).re) is Fraction
