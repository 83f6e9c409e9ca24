from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from htoeplitz import (
    ANALYTIC,
    CONJUGATE,
    Coeff,
    GaussianRational,
    HarmonicVector,
    NonIntegrableSymbolError,
    PoleError,
    RadialFunction,
    RationalFn,
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
from htoeplitz import toeplitz
from htoeplitz.exactalg import Terms
from htoeplitz.toeplitz import basis_order, branch_offset, branch_z, generic_residual

from .conftest import (FractionEntries, basis, coeffs, gaussians, monomial_z, radial_functions,
                       residual_reference)


def test_basis_canonicalization():
    # e_m is its signed index: z^n -> n, zbar^n -> -n, and the constant 1 -> 0 once
    assert parse_basis_vector("zbar^0") == parse_basis_vector("1") == 0
    assert basis_label(0) == "1"
    assert basis_label(-2) == "zbar^2"
    assert sorted([-2, 3, 0, -1, 1], key=basis_order) == [0, 1, 3, -1, -2]


def test_analytic_action():
    # T_{z^3} z = z^4
    out = apply_quasi(3, RadialFunction.term(1, 3), 1)
    assert out == basis(4)


def test_mixed_action():
    # T_{zbar} z = Q(r^2) = 1/2
    out = apply_quasi(-1, RadialFunction.term(1, 1), 1)
    assert out == basis(0, Fraction(1, 2))


def test_below_threshold_analytic():
    # T_{zbar^3} z lands on the conjugate side
    out = apply_quasi(-3, RadialFunction.term(1, 3), 1)
    assert out == basis(-2, Fraction(3, 4))


def test_below_threshold_conjugate():
    # T_{z^3} zbar crosses back to the analytic side
    out = apply_quasi(3, RadialFunction.term(1, 3), -1)
    assert out == basis(2, Fraction(3, 4))


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


@given(radial_functions(scalar=False))
@settings(deadline=None, max_examples=30)
def test_apply_quasi_matches_transform(phi):
    """An integrable phi takes each vector through one of the four branches read
    from the whole transform; any other phi is refused, never continued."""
    vectors = [_z(n) for n in range(5)] + [_zbar(n) for n in range(1, 5)]
    branches = set()
    for k in range(-3, 4):
        for m in vectors:
            if phi.non_integrable_terms():
                with pytest.raises(NonIntegrableSymbolError):
                    apply_quasi(k, phi, m)
                continue
            branch, expected = _apply_quasi_via_transform(k, phi, m)
            branches.add(branch)
            assert apply_quasi(k, phi, m) == expected
    if not phi.non_integrable_terms():
        assert len(branches) == 4


def test_zero_symbol_acts_as_zero():
    for k, m in [(2, _z(3)), (0, _z(0)), (-3, _zbar(1))]:
        assert apply_quasi(k, RadialFunction.zero, m).is_zero()


def test_constant_symbol_is_identity_scalar():
    one = Symbol({0: RadialFunction.const(1)})
    for m in (_z(0), _z(3), _zbar(2)):
        assert apply_symbol(one, m) == basis(m)


def _apply(f, w):
    """T_f w by linearity: the sum over the entries c e_m of w of c T_f e_m."""
    return sum((HarmonicVector({i: c * x for i, x in apply_symbol(f, m).terms.items()})
                for m, c in w.terms.items()), HarmonicVector())


def _const(c) -> Symbol:
    return Symbol({0: RadialFunction.const(c)})


def test_u_symbol_shape():
    u = u_symbol(2)
    assert set(u.terms) == {1, -1, -2}
    assert u.terms[1] == RadialFunction.term(1, 1)
    assert u.terms[-2] == RadialFunction.term(abar(2), 2)


def test_commutator_witness():
    # f = z^2 does not commute with T_u once u has a conjugate part
    f = monomial_z(2)
    u = u_symbol(1)
    res = commutator_residual(f, u, _z(1))
    assert res == basis(_z(2), abar(1).scale(Fraction(-1, 4)))


def test_witnesses_cover_the_range_up_to_the_threshold():
    # n_max = 0 still checks every index up to n0* = 4, where z^2 and
    # z + abar1 zbar fail to commute on each e_m but e_0
    report = verify_commute(monomial_z(2), u_symbol(1), n_max=0)
    assert report.threshold == 4
    assert [m for m, _ in report.witnesses] == [1, 2, 3, 4, -1, -2, -3, -4]


def test_self_commutation():
    u = u_symbol(3)
    report = verify_commute(u, u, n_max=12)
    assert report.commutes
    assert report.witnesses == []
    assert report.generic_nonzero == []


def test_affine_in_u_commutes():
    u = u_symbol(2)
    f = u * _const(Coeff.indet("C1")) + _const(Coeff.indet("C0"))
    assert verify_commute(f, u, n_max=10).commutes


def test_noncommuting_verdict():
    f = monomial_z(2)
    u = u_symbol(1)
    report = verify_commute(f, u, n_max=8)
    assert not report.commutes
    assert report.witnesses


def test_generic_residual_alone_refutes_commutation(monkeypatch):
    # with every concrete residual up to top = n0* = 4 stubbed to zero, no
    # witness is left, and the generic half must still reject z^2 against
    # z + abar1 zbar on its own, from the values past top
    residual, top = toeplitz._residual, 4
    monkeypatch.setattr(toeplitz, "_residual",
                        lambda pairs, m: HarmonicVector() if abs(m) <= top else residual(pairs, m))
    report = verify_commute(monomial_z(2), u_symbol(1), n_max=0)
    assert report.threshold == top
    assert report.witnesses == []
    assert set(report.generic_nonzero) == {(ANALYTIC, 1), (CONJUGATE, -1)}
    assert not report.commutes


A1 = (("abar1", 1),)   # the monomial abar1

# D_{d,mu} per side, by hand from the pole keys.  A term r^a (ln r)^b of a
# piece at offset d has its pole at q = a + d + 2, of order b + 1, or b where
# branch_z's top coefficient 2d + 2 - q is zero (a = d), and none at order 0.
# On the analytic side z^2 (d = 2) and z (d = 1) have no pole and abar1 zbar
# has {2: 1} at d = -1; on the conjugate side z^2 has {2: 1} at d = -2, z
# {2: 1} at d = -1 and abar1 zbar none at d = 1.  B(z) A(z + 2d_B) moves A's
# poles by 2d_B and adds multiplicities, and an entry takes the lcm over its
# products.  So on the analytic side (z^2, z) reaches offset 3 with no pole,
# degree 0, and (z^2, abar1 zbar) offset 1 by {2: 1} and {6: 1}, degree 2; on
# the conjugate side (z^2, z) reaches -3 by {2: 1, 0: 1} and {2: 1, -2: 1},
# degree 3, and (z^2, abar1 zbar) -1 by {4: 1} and {2: 1}, degree 2.  ln r
# has a = d = 0 and b = 1, so {2: 1}: (ln r, z) gives {4: 1} and {2: 1},
# degree 2, and (ln r, abar1 zbar) {2: 1, 0: 1} and {2: 2}, degree 3; the
# conjugate side mirrors it.  u against itself: on each side the pair of the
# pole-free piece with itself has degree 0, the pole-bearing piece with itself
# gives {2: 1, 0: 1} in both orders, degree 2, and the mixed pairs at offset 0
# give {2: 1} and {4: 1}, degree 2.  z ln r (k = 1, a = 1, b = 1) has its top coefficient zero on the
# analytic side, d = 1, so {4: 1}: (z ln r, z) gives {6: 1} and {4: 1},
# degree 2, and (z ln r, abar1 zbar) {2: 2} and {4: 2}, degree 4.  On the
# conjugate side d = -1 and 2d + 2 - q = -2, so it keeps {2: 2}: with z
# ({2: 1}) it gives {2: 1, 0: 2} and {2: 2, 0: 1}, degree 4, and with abar1
# zbar {4: 2} and {2: 2}, degree 4.
DEGREE_BOUNDS = [
    ("z^2", monomial_z(2), u_symbol(1),
     {ANALYTIC: {(3, ()): 0, (1, A1): 2}, CONJUGATE: {(-3, ()): 3, (-1, A1): 2}}),
    ("ln r", Symbol({0: RadialFunction.term(1, 0, 1)}), u_symbol(1),
     {ANALYTIC: {(1, ()): 2, (-1, A1): 3}, CONJUGATE: {(-1, ()): 3, (1, A1): 2}}),
    ("u", u_symbol(1), u_symbol(1),
     {ANALYTIC: {(2, ()): 0, (0, A1): 2, (-2, (("abar1", 2),)): 2},
      CONJUGATE: {(-2, ()): 2, (0, A1): 2, (2, (("abar1", 2),)): 0}}),
    ("z ln r", Symbol({1: RadialFunction.term(1, 1, 1)}), u_symbol(1),
     {ANALYTIC: {(2, ()): 2, (0, A1): 4}, CONJUGATE: {(-2, ()): 4, (0, A1): 4}}),
]


@pytest.mark.parametrize("f, u, expected", [row[1:] for row in DEGREE_BOUNDS],
                         ids=[row[0] for row in DEGREE_BOUNDS])
def test_degree_bounds_by_hand(f, u, expected):
    pairs = toeplitz._pairs(f, u)
    for side in (ANALYTIC, CONJUGATE):
        assert toeplitz._degree_bounds(pairs, side) == expected[side]


def _spy_generic_residual(monkeypatch) -> list:
    """The sides of every generic_residual call that verify_commute makes."""
    calls, original = [], toeplitz.generic_residual
    monkeypatch.setattr(toeplitz, "generic_residual",
                        lambda f, u, side: calls.append(side) or original(f, u, side))
    return calls


def test_certified_report_composes_nothing(monkeypatch):
    calls = _spy_generic_residual(monkeypatch)
    report = verify_commute(u_symbol(1), u_symbol(1), n_max=0)
    assert report.commutes and report.generic_nonzero == []
    assert calls == []


@pytest.mark.parametrize("sign", [1, -1], ids=["analytic", "conjugate"])
def test_value_at_the_last_index_sends_the_report_to_composition(monkeypatch, sign):
    # u against itself has n0* = 3 and max D = 2 on both sides (DEGREE_BOUNDS),
    # so with n_max = 0 the generic half must read the residual at +-5 too
    residual, last = toeplitz._residual, sign * (3 + 2)
    monkeypatch.setattr(toeplitz, "_residual", lambda pairs, m: residual(pairs, m) + (
        basis(last) if m == last else HarmonicVector()))
    calls = _spy_generic_residual(monkeypatch)
    verify_commute(u_symbol(1), u_symbol(1), n_max=0)
    assert calls == [ANALYTIC, CONJUGATE]


@pytest.mark.parametrize("sign", [1, -1], ids=["analytic", "conjugate"])
def test_verdict_is_read_from_the_values_alone(monkeypatch, sign):
    # C1 u + C0 commutes with u = z + abar1 zbar, and n0* = top = 3 with
    # n_max = 0; one nonzero value past top, at +-(n0* + 1), is a counterexample
    # and refutes commutation even when the symbolic residual is stubbed empty
    residual, at = toeplitz._residual, sign * (3 + 1)
    monkeypatch.setattr(toeplitz, "_residual", lambda pairs, m: residual(pairs, m) + (
        basis(at) if m == at else HarmonicVector()))
    monkeypatch.setattr(toeplitz, "generic_residual", lambda f, u, side: Terms())
    u = u_symbol(1)
    f = u * _const(Coeff.indet("C1")) + _const(Coeff.indet("C0"))
    report = verify_commute(f, u, n_max=0)
    assert report.threshold == 3 and report.witnesses == []
    assert not report.commutes


def test_verify_commute_splits_each_symbol_once(monkeypatch):
    # the concrete scan, the degree bounds and the scan past top share one split
    split, pieces = [], toeplitz._pieces
    monkeypatch.setattr(toeplitz, "_pieces", lambda sym: split.append(sym) or pieces(sym))
    u = u_symbol(1)
    f = u * _const(Coeff.indet("C1")) + _const(Coeff.indet("C0"))
    assert verify_commute(f, u, 5).commutes
    assert len(split) == 2 and f in split and u in split


@given(radial_functions(a_min=0, a_max=5, b_max=1), st.integers(-3, 3),
       st.integers(0, 8))
@settings(deadline=None, max_examples=60)
def test_generic_matches_concrete(phi, k, n):
    """The rational-in-n branches, lifted by each radial coefficient, agree
    with the concrete action of e^{ik theta} phi once n >= 1 + |k|."""
    if n < 1 + abs(k):   # n and n + d both index this side
        return
    for side, index in ((ANALYTIC, _z), (CONJUGATE, _zbar)):
        d = branch_offset(side, k)
        fn = sum((branch_z(side, k, a, b).scale(c) for (a, b), c in phi.terms.items()),
                 RationalFn.zero)
        out = apply_quasi(k, phi, index(n))
        assert set(out.terms) <= {index(n + d)}
        assert fn.evaluate_at(Fraction(2 * n)) == out.terms.get(index(n + d), Coeff.const(0))


@given(st.integers(0, 6), st.integers(1, 6))
@settings(deadline=None, max_examples=30)
def test_generic_residual_certifies_self_commutation(n, L):
    u = u_symbol(L)
    for side in (ANALYTIC, CONJUGATE):
        # zero entries are dropped, so a certified self-commutator is empty
        assert generic_residual(u, u, side).terms == {}


@given(st.dictionaries(st.integers(-3, 3), radial_functions(a_min=-1, a_max=4, b_max=1,
                                                           scalar=False), min_size=1, max_size=3),
       st.integers(0, 3))
@settings(deadline=None, max_examples=40)
def test_generic_residual_matches_concrete(comps, L):
    """Each generic entry at offset d, read at n >= n0*, is the coefficient of
    e_{+-(n+d)} in the concrete commutator on e_{+-n}, and there are no others."""
    f, u = Symbol(comps), u_symbol(L)
    n_star = f.max_abs_degree() + u.max_abs_degree() + 1
    for side, index in ((ANALYTIC, _z), (CONJUGATE, _zbar)):
        entries = generic_residual(f, u, side).terms
        for n in range(n_star, n_star + 6):
            expect = HarmonicVector({index(n + d): fn.evaluate_at(n) for d, fn in entries.items()})
            assert commutator_residual(f, u, index(n)) == expect


@given(st.dictionaries(st.integers(-3, 3), radial_functions(a_min=-1, a_max=4, b_max=1,
                                                           scalar=False), min_size=1, max_size=3),
       st.integers(0, 3), st.booleans())
@settings(deadline=None, max_examples=40)
def test_degree_bounds_cover_the_generic_entries(comps, L, commuting):
    """D_{d,mu} bounds the numerator and denominator degree of each symbolic entry
    R_{d,mu}, and the residuals at n0*, ..., n0* + max D vanish on a side exactly
    when its entries do, so the verdict read from values is the symbolic one."""
    u, f = u_symbol(L), Symbol(comps)
    if commuting:   # the commutant of T_u found by derive
        f = u * _const(Coeff.indet("C1")) + _const(Coeff.indet("C0"))
    n_star = f.max_abs_degree() + u.max_abs_degree() + 1
    pairs = toeplitz._pairs(f, u)
    symbolic = {}
    for side, sign in ((ANALYTIC, 1), (CONJUGATE, -1)):
        bounds = toeplitz._degree_bounds(pairs, side)
        symbolic[side] = entries = generic_residual(f, u, side).terms
        for d, fn in entries.items():
            for mu in {mu for c in fn.terms.values() for mu in c.terms}:
                part = RationalFn({key: c.terms[mu] for key, c in fn.terms.items() if mu in c.terms})
                if part:
                    assert bounds[(d, mu)] >= max(part.num.degree(), sum(part.den.values()))
        last = n_star + max(bounds.values(), default=0)
        vanish = all(toeplitz._residual(pairs, sign * n).is_zero() for n in range(n_star, last + 1))
        assert vanish == (not entries)
    report = verify_commute(f, u, 0)
    assert report.commutes == (not any(symbolic.values()) and not report.witnesses)
    assert {side: entries.terms for side, entries in report.generic.items()} == symbolic


@given(st.sampled_from([ANALYTIC, CONJUGATE]), st.integers(-4, 4), st.integers(-1, 5),
       st.integers(0, 2), st.integers(-4, 4), st.integers(-1, 5), st.integers(0, 2), coeffs())
@settings(deadline=None, max_examples=80)
def test_compose_of_one_term_pieces_matches_hand_formulas(side, kf, a, b, j, a_u, b_u, c_u):
    """_compose of the piece of e^{ik_f theta} r^a (ln r)^b and that of one u
    term c_u e^{ij theta} r^a_u (ln r)^b_u, lifted, is c_u A for T_u after T_f
    and c_u B for T_f after T_u, in z = 2n at offset d_f + d_u, where
    A = c_t(z) u_fn(z + 2d_f) and B = u_fn(z) c_t(z + 2d_u)."""
    d_f, d_u = branch_offset(side, kf), branch_offset(side, j)
    c_t, u_fn = branch_z(side, kf, a, b), branch_z(side, j, a_u, b_u)
    ft = [((), d_f, c_t)]
    us = toeplitz._generic_pieces(Symbol({j: RadialFunction.term(c_u, a_u, b_u)}), side)

    def lifted(x, y):
        entries = toeplitz._compose(x, y)
        assert set(entries) <= {d_f + d_u}
        return sum((fn.scale(Coeff({mu: GaussianRational(1)}))
                    for mu, fn in entries.get(d_f + d_u, Terms()).terms.items()), RationalFn.zero)

    assert lifted(us, ft) == (c_t * u_fn.shift(2 * d_f)).scale(c_u)
    assert lifted(ft, us) == (u_fn * c_t.shift(2 * d_u)).scale(c_u)


def test_compose_generic_consistency():
    # [T_f, T_u] z^n via the generic composition vs two direct applications
    u = u_symbol(2)
    f = u * u + monomial_z(1, Coeff.indet("C1"))
    n = 7   # at least 1 + K_f + K_u, so every entry holds
    e_n = basis(_z(n))
    direct = _apply(f, _apply(u, e_n)) - _apply(u, _apply(f, e_n))
    comp = generic_residual(f, u, ANALYTIC).terms
    assert comp
    assert direct == HarmonicVector({_z(n + d): fn.evaluate_at(n) for d, fn in comp.items()})


def test_non_integrable_symbols_are_refused():
    # r^a (ln r)^b with a <= -2 is outside L^1(r dr); the error names the term
    bad = Symbol({0: RadialFunction.term(1, -4)}) + monomial_z(1)
    with pytest.raises(NonIntegrableSymbolError) as exc:
        apply_symbol(bad, _z(0))
    assert (exc.value.k, exc.value.a, exc.value.b) == (0, -4, 0)
    assert "r^-4" in str(exc.value)
    log_term = Symbol({-1: RadialFunction.term(abar(1), -2, 1)})
    with pytest.raises(NonIntegrableSymbolError) as exc:
        verify_commute(monomial_z(1), u_symbol(1) + log_term, 4)
    assert "e(-1)" in str(exc.value) and "r^-2*ln(r)" in str(exc.value)
    with pytest.raises(NonIntegrableSymbolError):
        verify_commute(bad, u_symbol(1), 4)


def _apply_direct(f, w):
    """T_f w term by term from the whole transform of each component: the
    reference for the per-monomial path, sharing no column entry with it."""
    out = HarmonicVector()
    for k, phi in f.terms.items():
        for m, c in w.terms.items():
            _, image = _apply_quasi_via_transform(k, phi, m)
            out = out + HarmonicVector({x: y * c for x, y in image.terms.items()})
    return out


@given(st.dictionaries(st.integers(-3, 3), radial_functions(a_min=-1, a_max=4, b_max=1,
                                                           scalar=False), min_size=1, max_size=3),
       st.dictionaries(st.integers(-4, 4), coeffs(), min_size=1, max_size=3))
@settings(deadline=None, max_examples=40)
def test_apply_symbol_matches_direct_formula(comps, w):
    f, w = Symbol(comps), HarmonicVector(w)
    assert _apply(f, w) == _apply_direct(f, w)


@st.composite
def _symbols_against_u(draw):
    """(f, u) with u = u_symbol(L), L <= 3; f is c1*u + c0 (commuting) or random."""
    L = draw(st.integers(0, 3))
    u = u_symbol(L)
    if draw(st.booleans()):
        c1, c0 = draw(coeffs()), draw(coeffs())
        return u * _const(c1) + _const(c0), u
    # scalar=False draws complex C/abar polynomial coefficients, so that products
    # mu_f mu_u of different piece pairs can meet at one (index, monomial)
    comps = {}
    for k in draw(st.lists(st.integers(-3, 3), min_size=1, max_size=3, unique=True)):
        comps[k] = draw(radial_functions(a_min=-1, a_max=4, b_max=1, scalar=draw(st.booleans())))
    return Symbol(comps), u


@given(_symbols_against_u(), st.integers(0, 4))
@settings(deadline=None, max_examples=40)
def test_verify_commute_witnesses_match_direct_formula(fu, n_max):
    f, u = fu
    report = verify_commute(f, u, n_max)
    top = max(n_max, report.threshold)
    expected = []
    for m in [_z(n) for n in range(top + 1)] + [_zbar(n) for n in range(1, top + 1)]:
        e_m = basis(m)
        res = _apply_direct(f, _apply_direct(u, e_m)) - _apply_direct(u, _apply_direct(f, e_m))
        assert commutator_residual(f, u, m) == res
        if not res.is_zero():
            expected.append((m, res))
    assert report.witnesses == expected


@st.composite
def _integrable_symbols(draw):
    """Symbols with complex coefficients, rational exponents a > -2 (such as
    r^(3/2)), log powers b <= 2 and monomials in C1 and abar_l."""
    comps = {}
    for _ in range(draw(st.integers(1, 4))):
        k = draw(st.integers(-3, 3))
        q = draw(st.integers(1, 3))
        a = Fraction(draw(st.integers(-2 * q + 1, 5 * q)), q)
        c = Coeff.const(draw(gaussians(nonzero=True)))
        for name in draw(st.lists(st.sampled_from(["C1", "abar1", "abar2"]), max_size=2)):
            c = c * Coeff.indet(name)
        term = RadialFunction.term(c, a, draw(st.integers(0, 2)))
        comps[k] = comps.get(k, RadialFunction.zero) + term
    return Symbol(comps)


@given(_integrable_symbols(), st.integers(-12, 12))
@settings(deadline=None, max_examples=80)
def test_integer_entries_match_fraction_reference(f, m):
    # each entry is an integer triple (re, im, den > 0) whose value is the Fraction
    # kernel's, and apply_symbol reads it as that value
    expected = {}
    for mu, k, terms in toeplitz._pieces(f):
        F = toeplitz._Entries(k, terms)
        x = GaussianRational.coerce(FractionEntries(k, terms)[m])
        assert F[m][2] > 0 and toeplitz._value(F[m]) == x
        expected[m + k] = expected.get(m + k, Coeff()) + Coeff({mu: x})
    assert apply_symbol(f, m) == HarmonicVector(expected)


# f = z + 2 r^2 and u = z + r^2 at m = 0: the pairs (z, r^2) and (r^2, z) both put
# a nonzero value at (e_1, monomial 1), so the sum of two triples is exercised
@given(_integrable_symbols(), _integrable_symbols(), st.integers(-12, 12))
@example(Symbol({1: RadialFunction.term(1, 1), 0: RadialFunction.term(2, 2)}),
         Symbol({1: RadialFunction.term(1, 1), 0: RadialFunction.term(1, 2)}), 0)
@settings(deadline=None, max_examples=80)
def test_integer_residual_matches_fraction_reference(f, u, m):
    assert commutator_residual(f, u, m) == residual_reference(f, u, m)
    assert commutator_residual(f, f, m).is_zero()


def test_entry_pole_guard():
    # integrability keeps s + a > 0; past it the kernel refuses the pole as the transform does
    with pytest.raises(PoleError) as point:
        toeplitz._Entries(0, [(Fraction(-2), 1, Fraction(1, 3))])[0]
    with pytest.raises(PoleError) as whole:
        mellin(RadialFunction.term(1, -2, 1)).evaluate_at(2)
    assert point.value.q == whole.value.q == 2
