from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from htoeplitz import (
    ANALYTIC,
    Coeff,
    FunctionalEquation,
    RadialFunction,
    RationalFn,
    TelescopeError,
    antidifference,
    commute_with_Tz_solve,
    constraint_at_offset,
    mellin,
    reproduce_lemma,
    run_pipeline,
    solve_telescoping,
    u_symbol,
)
from htoeplitz.derive import _find_shift, _satisfies
from htoeplitz.ratfun import Poly

from .conftest import rational_functions, scalar_coeffs


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
    h = RationalFn.quotient(Poly({0: 3, 1: 4}))  # 4z + 3
    g = antidifference(h)
    assert g.shift(2) - g == h


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
    F = RationalFn.quotient(Poly.linear(eq.c)) * mellin(phi).shift(eq.d)
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


def test_commute_with_Tz():
    for p in range(1, 5):
        phi = commute_with_Tz_solve(p)
        assert phi == RadialFunction.term(Coeff.indet(f"C{p}"), p)


def test_constraint_stage_solves_top_component():
    # the degree-1 unknown of f against u with L=1 comes out as C1 r
    from htoeplitz import Symbol

    u = u_symbol(1)
    eq = constraint_at_offset(u, Symbol(), 1, ANALYTIC)
    name, phi = solve_telescoping(eq)
    assert phi == RadialFunction.term(Coeff.indet(name), 1)


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


def test_unknown_tag():
    with pytest.raises(ValueError):
        reproduce_lemma("nope")


@given(rational_functions(), st.integers(-40, 40))
@settings(deadline=None)
def test_find_shift_reads_poles(B, m):
    # the shift is read off the poles, so it has no search bound
    if B.fractions:
        assert _find_shift(B.shift(2 * m), B) == m
        assert _find_shift(B.shift(2 * m + 1), B) is None
        assert _find_shift(B.shift(2 * m) + RationalFn.fraction(1, 99), B) is None
    else:
        assert _find_shift(B, B) == 0
        assert _find_shift(RationalFn.fraction(1, 0), B) is None
