from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from htoeplitz import (
    ANALYTIC,
    CONJUGATE,
    Coeff,
    HarmonicVector,
    NonIntegrableSymbolError,
    PoleError,
    RadialFunction,
    Symbol,
    abar,
    apply_quasi,
    apply_symbol,
    basis_label,
    commutator_residual,
    mellin,
    parse_basis_vector,
    u_symbol,
    verify_commute,
)
from htoeplitz.toeplitz import apply_generic, basis_order, compose_generic, generic_residual

from .conftest import coeffs, radial_functions


def test_basis_canonicalization():
    # e_m is its signed index: z^n -> n, zbar^n -> -n, and the constant 1 -> 0 once
    assert parse_basis_vector("zbar^0") == parse_basis_vector("1") == 0
    assert basis_label(0) == "1"
    assert basis_label(-2) == "zbar^2"
    assert sorted([-2, 3, 0, -1, 1], key=basis_order) == [0, 1, 3, -1, -2]


def test_analytic_action():
    # T_{z^3} z = z^4
    out = apply_quasi(3, RadialFunction.term(1, 3), 1)
    assert out == HarmonicVector.basis(4)


def test_mixed_action():
    # T_{zbar} z = Q(r^2) = 1/2
    out = apply_quasi(-1, RadialFunction.term(1, 1), 1)
    assert out == HarmonicVector.basis(0, Fraction(1, 2))


def test_below_threshold_analytic():
    # T_{zbar^3} z lands on the conjugate side
    out = apply_quasi(-3, RadialFunction.term(1, 3), 1)
    assert out == HarmonicVector.basis(-2, Fraction(3, 4))


def test_below_threshold_conjugate():
    # T_{z^3} zbar crosses back to the analytic side
    out = apply_quasi(3, RadialFunction.term(1, 3), -1)
    assert out == HarmonicVector.basis(2, Fraction(3, 4))


def _z(n):
    """The index of z^n."""
    return n


def _zbar(n):
    """The index of zbar^n."""
    return -n


def _apply_quasi_via_transform(k, phi, m):
    """The four branches read from the whole transform: (branch, image)."""
    phat = mellin(phi)
    n = abs(m)
    if m >= 0:   # e_m = z^n
        if n >= -k:
            c = phat.evaluate_at(2 * n + k + 2).scale(2 * (n + k + 1))
            return "analytic", HarmonicVector({_z(n + k): c})
        c = phat.evaluate_at(-k + 2).scale(2 * (-n - k + 1))
        return "analytic below", HarmonicVector({_zbar(-n - k): c})
    if n >= k:   # e_m = zbar^n
        c = phat.evaluate_at(2 * n - k + 2).scale(2 * (n - k + 1))
        return "conjugate", HarmonicVector({_zbar(n - k): c})
    c = phat.evaluate_at(k + 2).scale(2 * (k - n + 1))
    return "conjugate below", HarmonicVector({_z(k - n): c})


def _outcome(fn, *args):
    try:
        return fn(*args)
    except PoleError as e:
        return ("pole", e.q)


@given(radial_functions(scalar=False))
@settings(deadline=None, max_examples=30)
def test_apply_quasi_matches_transform(phi):
    vectors = [_z(n) for n in range(5)] + [_zbar(n) for n in range(1, 5)]
    branches = set()
    for k in range(-3, 4):
        for m in vectors:
            expected = _outcome(_apply_quasi_via_transform, k, phi, m)
            if expected[0] != "pole":
                branches.add(expected[0])
                expected = expected[1]
            assert _outcome(apply_quasi, k, phi, m) == expected
    if not any(a < 0 for a, _ in phi.terms):
        assert len(branches) == 4


def test_constant_symbol_is_identity_scalar():
    one = Symbol({0: RadialFunction.const(1)})
    for m in (_z(0), _z(3), _zbar(2)):
        assert apply_symbol(one, HarmonicVector.basis(m)) == HarmonicVector.basis(m)


def test_u_symbol_shape():
    u = u_symbol(2)
    assert set(u.terms) == {1, -1, -2}
    assert u.terms[1] == RadialFunction.term(1, 1)
    assert u.terms[-2] == RadialFunction.term(abar(2), 2)


def test_commutator_witness():
    # f = z^2 does not commute with T_u once u has a conjugate part
    f = Symbol.monomial_z(2)
    u = u_symbol(1)
    res = commutator_residual(f, u, _z(1))
    assert res == HarmonicVector.basis(_z(2), abar(1).scale(Fraction(-1, 4)))


def test_self_commutation():
    u = u_symbol(3)
    report = verify_commute(u, u, n_max=12)
    assert report.commutes
    assert report.witnesses == []
    assert report.generic_nonzero == []


def test_affine_in_u_commutes():
    u = u_symbol(2)
    f = u.scale(Coeff.indet("C1")) + Symbol({0: RadialFunction.const(Coeff.indet("C0"))})
    assert verify_commute(f, u, n_max=10).commutes


def test_noncommuting_verdict():
    f = Symbol.monomial_z(2)
    u = u_symbol(1)
    report = verify_commute(f, u, n_max=8)
    assert not report.commutes
    assert report.witnesses


@given(radial_functions(a_min=0, a_max=5, b_max=1), st.integers(-3, 3),
       st.integers(0, 8))
@settings(deadline=None, max_examples=60)
def test_generic_matches_concrete(phi, k, n):
    """The rational-in-n action agrees with the branch computation."""
    f = Symbol({k: phi})
    for side, index in ((ANALYTIC, _z), (CONJUGATE, _zbar)):
        ga = apply_generic(f, side)
        for d, (fn, n0) in ga.items():
            if n < n0:
                continue
            out = apply_quasi(k, phi, index(n))
            expect = out.terms.get(index(n + d), Coeff.const(0))
            assert fn.evaluate_at(Fraction(n)) == expect


@given(st.integers(0, 6), st.integers(1, 6))
@settings(deadline=None, max_examples=30)
def test_generic_residual_certifies_self_commutation(n, L):
    u = u_symbol(L)
    for side in (ANALYTIC, CONJUGATE):
        # zero entries are dropped, so a certified self-commutator is empty
        assert generic_residual(u, u, side) == {}


def test_compose_generic_consistency():
    # (T_u T_u) z^n via generic composition vs direct application
    u = u_symbol(2)
    au = apply_generic(u, ANALYTIC)
    comp = compose_generic(au, au, ANALYTIC)
    n = 7
    direct = apply_symbol(u, apply_symbol(u, HarmonicVector.basis(_z(n))))
    for d, (fn, n0) in comp.items():
        if n < n0:
            continue
        expect = direct.terms.get(_z(n + d), Coeff.const(0))
        assert fn.evaluate_at(Fraction(n)) == expect


def test_non_integrable_symbols_are_refused():
    # r^a (ln r)^b with a <= -2 is outside L^1(r dr); the error names the term
    bad = Symbol({0: RadialFunction.term(1, -4)}) + Symbol.monomial_z(1)
    with pytest.raises(NonIntegrableSymbolError) as exc:
        apply_symbol(bad, HarmonicVector.basis(_z(0)))
    assert (exc.value.k, exc.value.a, exc.value.b) == (0, -4, 0)
    assert "r^-4" in str(exc.value)
    log_term = Symbol({-1: RadialFunction.term(abar(1), -2, 1)})
    with pytest.raises(NonIntegrableSymbolError) as exc:
        verify_commute(Symbol.monomial_z(1), u_symbol(1) + log_term, 4)
    assert "e(-1)" in str(exc.value) and "r^-2*ln(r)" in str(exc.value)
    with pytest.raises(NonIntegrableSymbolError):
        verify_commute(bad, u_symbol(1), 4)


def _apply_direct(f, w):
    """T_f w term by term, every column rebuilt: the reference for the memoized path."""
    out = HarmonicVector.zero
    for k, phi in f.terms.items():
        for m, c in w.terms.items():
            out = out + apply_quasi(k, phi, m).scale(c)
    return out


@st.composite
def _symbols_against_u(draw):
    """(f, u) with u = u_symbol(L), L <= 3; f is c1*u + c0 (commuting) or random."""
    L = draw(st.integers(0, 3))
    u = u_symbol(L)
    if draw(st.booleans()):
        c1, c0 = draw(coeffs()), draw(coeffs())
        return u.scale(c1) + Symbol({0: RadialFunction.term(c0, 0)}), u
    comps = {}
    for k in draw(st.lists(st.integers(-3, 3), min_size=1, max_size=3, unique=True)):
        comps[k] = draw(radial_functions(a_min=-1, a_max=4, b_max=1))
    return Symbol(comps), u


@given(_symbols_against_u(), st.integers(0, 4))
@settings(deadline=None, max_examples=40)
def test_verify_commute_witnesses_match_direct_formula(fu, n_max):
    f, u = fu
    report = verify_commute(f, u, n_max)
    top = max(n_max, report.threshold)
    expected = []
    for m in [_z(n) for n in range(top + 1)] + [_zbar(n) for n in range(1, top + 1)]:
        e_m = HarmonicVector.basis(m)
        res = _apply_direct(f, _apply_direct(u, e_m)) - _apply_direct(u, _apply_direct(f, e_m))
        assert commutator_residual(f, u, m) == res
        if not res.is_zero():
            expected.append((m, res))
    assert report.witnesses == expected
