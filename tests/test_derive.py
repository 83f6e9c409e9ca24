from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from htoeplitz import (
    ANALYTIC,
    CONJUGATE,
    C,
    Coeff,
    FunctionalEquation,
    GaussianRational,
    RadialFunction,
    RationalFn,
    Symbol,
    TelescopeError,
    antidifference,
    constraint_at_offset,
    mellin,
    reproduce_lemma,
    run_pipeline,
    solve_telescoping,
    u_symbol,
)
from htoeplitz import derive, toeplitz
from htoeplitz.derive import _check_u, _find_shift, _force_constants, _satisfies
from htoeplitz.toeplitz import branch_offset, branch_z, generic_residual

from .conftest import commute_with_Tz_solve, rational_functions, scalar_coeffs


@st.composite
def proper_rationals(draw):
    out = RationalFn.zero
    for _ in range(draw(st.integers(1, 3))):
        q = draw(st.sampled_from([Fraction(v) for v in range(-6, 13, 2)]))
        j = draw(st.integers(1, 2))
        out = out + RationalFn.fraction(draw(scalar_coeffs(nonzero=True)), q, j)
    return out


def test_antidifference_single_ladder():
    # 1/(z+2) - 1/(z+4) telescopes to -1/(z+4)
    h = RationalFn.fraction(1, 2) - RationalFn.fraction(1, 4)
    g = antidifference(h)
    assert g.shift(2) - g == h


def test_antidifference_poly_part():
    # a polynomial part has no proper antidifference, and no telescoping equation has one
    h = RationalFn.poly({0: 3, 1: 4}) + RationalFn.fraction(1, 2) - RationalFn.fraction(1, 4)
    with pytest.raises(TelescopeError, match="polynomial part 4"):
        antidifference(h)


def test_antidifference_obstruction():
    # a lone simple pole has no rational antidifference
    with pytest.raises(TelescopeError):
        antidifference(RationalFn.fraction(1, 4))


@given(proper_rationals())
@settings(deadline=None, max_examples=100)
def test_antidifference_solves_constructed_instances(g0):
    h = g0.shift(2) - g0
    g = antidifference(h)
    assert g.shift(2) - g == h


@given(proper_rationals(), st.integers(2, 8), st.integers(0, 6))
@settings(deadline=None, max_examples=100)
def test_solver_soundness(G, c, d):
    """Every successful solve is re-verified as an exact identity."""
    eq = FunctionalEquation(
        c=Fraction(c),
        d=Fraction(d),
        G=G,
        rhs=G.shift(2) - G,
        unknown_name="C9",
    )
    try:
        name, phi = solve_telescoping(eq)
    except TelescopeError:
        return
    assert name == "C9"
    F = RationalFn.linear(eq.c) * mellin(phi).shift(eq.d)
    assert F - RationalFn.const(Coeff.indet("C9")) - G == RationalFn.zero
    assert _satisfies(eq, phi)


def test_solver_rejects_wrong_rhs():
    eq = FunctionalEquation(
        c=Fraction(4),
        d=Fraction(3),
        G=RationalFn.fraction(1, 2),
        rhs=RationalFn.fraction(1, 2),
        unknown_name="C1",
    )
    with pytest.raises(TelescopeError):
        solve_telescoping(eq)


def test_solver_rejects_corrupted_inverse(monkeypatch):
    # a wrong inverse Mellin transform must be caught by the F = C + G check
    real = derive.inverse_mellin
    monkeypatch.setattr(derive, "inverse_mellin", lambda F: real(F) + RadialFunction.term(1, 5))
    eq = FunctionalEquation(
        c=Fraction(4), d=Fraction(3), G=RationalFn.zero, rhs=RationalFn.zero, unknown_name="C1"
    )
    with pytest.raises(TelescopeError, match="soundness"):
        solve_telescoping(eq)


_Z = RadialFunction.term(1, 1)
_G_LINEAR = RationalFn.poly({1: 1})


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: solve_telescoping(FunctionalEquation(
        Fraction(4), Fraction(3), _G_LINEAR, _G_LINEAR.shift(2) - _G_LINEAR, "C1")),
        TelescopeError, "G incompatible with shape", id="G-with-polynomial-part"),
    pytest.param(lambda: _check_u(Symbol({-1: _Z})),
                 TelescopeError, "must have analytic part z", id="u-without-z"),
    pytest.param(lambda: _check_u(Symbol({1: _Z, 2: RadialFunction.term(1, 2)})),
                 TelescopeError, "only add co-analytic terms", id="u-with-z2"),
    pytest.param(lambda: _check_u(Symbol({1: _Z, 0: RadialFunction.term(1, 0)})),
                 TelescopeError, "only add co-analytic terms", id="u-with-constant"),
    pytest.param(lambda: constraint_at_offset(u_symbol(1), Symbol(), 0, CONJUGATE),
                 TelescopeError, "requires negative degree", id="conjugate-side-at-0"),
    pytest.param(lambda: _force_constants(RadialFunction.term(1, -3)),
                 TelescopeError, "has no removable constant", id="force-scalar-r^-3"),
    pytest.param(lambda: _force_constants(RadialFunction.term(C(1) + Coeff.const(1), -3)),
                 TelescopeError, "still non-integrable after forcing", id="force-(C1+1)r^-3"),
    pytest.param(lambda: run_pipeline(u_symbol(1), 1, 3),
                 ValueError, "N_start must be >= 2", id="N_start-1"),
])
def test_derivation_refusals(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_commute_with_Tz():
    for p in range(1, 5):
        phi = commute_with_Tz_solve(p)
        assert phi == RadialFunction.term(Coeff.indet(f"C{p}"), p)


def test_constraint_stage_solves_top_component():
    # the degree-1 unknown of f against u with L=1 comes out as C1 r
    u = u_symbol(1)
    eq = constraint_at_offset(u, Symbol(), 1, ANALYTIC)
    name, phi = solve_telescoping(eq)
    assert phi == RadialFunction.term(Coeff.indet(name), 1)


@st.composite
def coanalytic_us(draw):
    """z plus radial parts at degrees -1..-3, which _check_u accepts."""
    comps = {1: RadialFunction.term(1, 1)}
    for l in draw(st.sets(st.integers(1, 3))):
        terms = draw(st.lists(st.tuples(
            scalar_coeffs(nonzero=True),
            st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2)]),
            st.integers(0, 1)), min_size=1, max_size=2))
        phi = sum((RadialFunction.term(c, l + e, b) for c, e, b in terms), RadialFunction.zero)
        if not phi.is_zero():
            comps[-l] = phi
    return Symbol(comps)


@given(coanalytic_us(), st.integers(2, 6))
@settings(deadline=None, max_examples=30)
def test_top_two_stages_are_commutation_with_Tz(u, N):
    # stage N has nothing known, and stage N-1 would pair C_N r^N with a degree-0 part of u,
    # which u has none of: both right sides are empty
    stages = run_pipeline(u, N, 0).stages
    for rec, p in zip(stages[:2], (N, N - 1)):
        assert rec.method == "Tz-solve"
        assert rec.solved == RadialFunction.term(Coeff.indet(f"C{p}"), p)


def test_pipeline_small():
    report = run_pipeline(u_symbol(1), 3, 4)
    assert report.survivors == ["C1", "C0"]
    assert report.commutes
    assert set(report.forced) == {"C2", "C3", "Cm1", "Cm2", "Cm3", "Cm4"}


def test_pipeline_restart_from_above():
    report = run_pipeline(u_symbol(1), 4, 4)
    assert report.N_effective == 3
    assert "C4" in report.forced
    assert any(s.restarted for s in report.stages)
    assert report.commutes


def test_restart_to_top_degree_one_solves_degree_zero():
    # stage 0 forces C2 here, so the derivation restarts at N = 1; degree 0 is then
    # the second top stage, and the surviving C0 is a component of the symbol
    u = Symbol({
        1: RadialFunction.term(1, 1),
        -1: RadialFunction.term(GaussianRational(Fraction(3, 2), -1), Fraction(3, 2))
        + RadialFunction.term(GaussianRational(Fraction(-2, 3), 2), -1, 1),
    })
    report = run_pipeline(u, 2, 3)
    assert report.N_effective == 1
    assert [(s.degree, s.method) for s in report.stages[3:5]] == [(1, "Tz-solve"), (0, "Tz-solve")]
    assert report.survivors == ["C1", "C0"]
    assert report.components[0] == RadialFunction.term(Coeff.indet("C0"), 0)
    assert report.commutes


def test_reproduce_matching_lemmas():
    for tag in ("4.1", "R4.2", "f0", "f-3", "f-4", "induction(6)"):
        rep = reproduce_lemma(tag)
        assert rep.match, tag
        assert rep.derived_satisfies_equation, tag


def test_reproduce_divergent_lemmas():
    for tag in ("f-1", "f-2"):
        rep = reproduce_lemma(tag)
        assert not rep.match, tag
        assert rep.derived_satisfies_equation, tag
        assert not rep.printed_satisfies_equation, tag
        assert rep.discrepancy is not None


def test_f_minus_4_is_induction_4():
    f4 = reproduce_lemma("f-4").to_json()
    ind4 = reproduce_lemma("induction(4)").to_json()
    assert f4.pop("tag") == "f-4" and ind4.pop("tag") == "induction(4)"
    assert f4 == ind4


def test_unknown_tag():
    with pytest.raises(ValueError):
        reproduce_lemma("nope")


@given(rational_functions(), st.integers(-40, 40))
@settings(deadline=None)
def test_find_shift_reads_poles(B, m):
    # the shift is read off the poles, so it has no search bound
    if B.fractions:
        assert _find_shift({(): B.shift(2 * m)}, {(): B}) == m
        assert _find_shift({(): B.shift(2 * m + 1)}, {(): B}) is None
        assert _find_shift({(): B.shift(2 * m) + RationalFn.fraction(1, 99)}, {(): B}) is None
        # B(z + 2m) has poles exactly when B has, so a pole-free side matches no shift
        assert _find_shift({(): B}, {(): B.poly_part}) is None
        assert _find_shift({(): B.poly_part}, {(): B}) is None
    else:
        assert _find_shift({(): B}, {(): B}) == 0
        assert _find_shift({(): RationalFn.fraction(1, 0)}, {(): B}) is None


def test_find_shift_reads_every_monomial():
    # m is read from the smallest pole over all monomials, and every monomial must match it
    mu = (("abar1", 1),)
    B = {(): RationalFn.fraction(1, 2) + RationalFn.const(1), mu: RationalFn.fraction(3, 0)}
    A = {key: fn.shift(4) for key, fn in B.items()}
    assert _find_shift(A, B) == 2
    # the poles still give m = 2, and the first monomial matches, but mu does not
    assert _find_shift({**A, mu: A[mu] + RationalFn.const(1)}, B) is None
    assert _find_shift({(): A[()]}, B) is None


def test_force_constants_order_is_canonical():
    # C2 is in both coefficients: it is charged to r^-4 whichever term was inserted first
    c1, c2 = Coeff.indet("C1"), Coeff.indet("C2")
    terms = [((Fraction(-3), 0), c1 + c2), ((Fraction(-4), 0), c2), ((Fraction(1), 0), c1)]
    first, second = (_force_constants(RadialFunction(dict(t))) for t in (terms, terms[::-1]))
    assert first == second
    assert first == (RadialFunction.zero, [("C2", (Fraction(-4), 0)), ("C1", (Fraction(-3), 0))])


def _M(g, side):
    """The factor that normalizes a stage's unknown terms to F(z+2) - F(z)."""
    if side == ANALYTIC:
        return RationalFn({0: 1})
    return RationalFn({(Fraction(-2 * g), 1): -2 * g - 2, 0: -1})


def _shift_sum_G(u, known, g, side):
    """G built term by term: each pair with A(z) = B(z + 2m) adds the shift sum
    B(z) + ... + B(z + 2m - 2) (negated, over z + 2m, ..., z - 2, when m < 0),
    and the unmatched pairs add the antidifference of their A - B."""
    M = _M(g, side)
    G = residual = RationalFn.zero
    for kf, phi_f in known.terms.items():
        for j, phi_u in u.terms.items():
            if kf == g or kf + j != g + 1:
                continue
            df, du = 2 * branch_offset(side, kf), 2 * branch_offset(side, j)
            for (a, b), coef in phi_f.terms.items():
                c_t = branch_z(side, kf, a, b)
                A = B = RationalFn.zero
                for (a_u, b_u), c_u in phi_u.terms.items():
                    u_fn = branch_z(side, j, a_u, b_u)
                    A = A + (M * (c_t * u_fn.shift(df))).scale(coef * c_u)
                    B = B + (M * (u_fn * c_t.shift(du))).scale(coef * c_u)
                m = _find_shift({(): A}, {(): B})
                if m is None:
                    residual = residual + (A - B)
                for i in range(m or 0):
                    G = G + B.shift(2 * i)
                for i in range(m or 0, 0):
                    G = G - B.shift(2 * i)
    return G + antidifference(residual)


def _record_stages(monkeypatch):
    """The list that collects (args, equation) of every constraint_at_offset
    call from here on; the final verify_commute of run_pipeline is skipped."""
    stages = []
    real = derive.constraint_at_offset

    def record(*args):
        eq = real(*args)
        stages.append((args, eq))
        return eq

    monkeypatch.setattr(derive, "constraint_at_offset", record)
    monkeypatch.setattr(derive, "verify_commute", lambda f, u, n_max: SimpleNamespace(commutes=True))
    return stages


def test_G_is_the_sum_of_per_term_shift_sums(monkeypatch):
    """antidifference(rhs) plus m B(inf) per matched pair is the G of the shift sums,
    at every stage of derive (L <= 3, N 2..4, K <= 3) and of verify-paper."""
    stages = _record_stages(monkeypatch)
    for L in range(4):
        for N in range(2, 5):
            for K in range(4):
                run_pipeline(u_symbol(L), N, K)
    for tag in derive.ALL_LEMMA_TAGS:
        reproduce_lemma(tag)
    assert any(eq.G.poly_part for _, eq in stages)
    for args, eq in stages:
        assert eq.G == _shift_sum_G(*args), args


def test_each_stage_composition_has_only_the_stage_offset(monkeypatch):
    """constraint_at_offset composes one component of u with one term of a
    known component, so every _compose call returns the one offset
    branch_offset(side, g + 1) of the stage that made it, and nothing else."""
    stage, seen = [], []
    constraint, compose = derive.constraint_at_offset, derive._compose

    def at_stage(u, known, g, side):
        stage[:] = [branch_offset(side, g + 1)]
        return constraint(u, known, g, side)

    def spy(a, b):
        out = compose(a, b)
        seen.append((stage[0], list(out)))
        return out

    monkeypatch.setattr(derive, "constraint_at_offset", at_stage)
    monkeypatch.setattr(derive, "_compose", spy)
    for L, N, K in ((0, 3, 2), (1, 3, 3), (2, 4, 4), (3, 2, 5), (5, 3, 8)):
        run_pipeline(u_symbol(L), N, K)
    for tag in ("4.1", "f0", "f-1", "f-3", "induction(5)"):
        reproduce_lemma(tag)
    assert len(seen) > 100
    for offset, keys in seen:
        assert keys == [offset]


def test_stage_rhs_is_minus_M_times_the_generic_residual(monkeypatch):
    """Every stage's rhs is -M(z) R(z/2), where R(n) is the generic entry of
    [T_known, T_u] at offset branch_offset(side, g + 1), or 0 where there is
    none (derive at L 0..3, N 2..4, K = L + 2)."""
    stages = _record_stages(monkeypatch)
    for L in range(4):
        for N in range(2, 5):
            run_pipeline(u_symbol(L), N, L + 2)
    assert any(eq.rhs for _, eq in stages)
    for (u, known, g, side), eq in stages:
        R = generic_residual(known, u, side).terms.get(branch_offset(side, g + 1), RationalFn.zero)
        assert eq.rhs == -(_M(g, side) * R.affine_substitute(Fraction(1, 2), 0)), (g, side)


def test_generic_half_builds_no_integer_kernel(monkeypatch):
    """A piece is its terms: the stage equations and generic_residual read them
    directly, so no integer kernel (toeplitz._Entries) is built by
    reproduce_lemma, by run_pipeline before its final verify_commute, or by
    generic_residual of a pair that does not commute; apply_symbol builds one."""
    built = []

    class Counting(toeplitz._Entries):
        def __init__(self, k, terms):
            built.append(k)
            super().__init__(k, terms)

    monkeypatch.setattr(toeplitz, "_Entries", Counting)
    for tag in derive.ALL_LEMMA_TAGS:
        reproduce_lemma(tag)
    _record_stages(monkeypatch)
    run_pipeline(u_symbol(10), 3, 12)
    f = Symbol({2: RadialFunction.term(1, 2)})
    for side in (ANALYTIC, CONJUGATE):
        assert generic_residual(f, u_symbol(1), side)
    assert built == []
    toeplitz.apply_symbol(f, 1)
    assert built == [2]


def test_pairs_with_equal_compositions_skip_the_shift_test(monkeypatch):
    """At L = 10 the stages compose 92 pairs (a term of a known component, a
    component of u) in both orders.  A pair whose two compositions are equal
    adds nothing to rhs or to norm, so it never reaches _find_shift; at most 25
    pairs do."""
    composed, shifted = [], []
    compose, find_shift = derive._compose, derive._find_shift
    monkeypatch.setattr(derive, "_compose", lambda a, b: composed.append(compose(a, b)) or composed[-1])
    monkeypatch.setattr(derive, "_find_shift",
                        lambda A, B: shifted.append(len(composed) // 2 - 1) or find_shift(A, B))
    assert run_pipeline(u_symbol(10), 3, 12).commutes
    assert len(composed) == 2 * 92
    assert len(shifted) <= 25
    for i in set(range(92)) - set(shifted):
        assert composed[2 * i] == composed[2 * i + 1], i
