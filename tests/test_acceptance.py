"""Acceptance suite: one printed pass/fail line per criterion.

The lines are written to the real stdout so they survive pytest's capture
and show up in the terminal and in any teed log.
"""

import contextlib
import os
import random
import sys
from fractions import Fraction

from htoeplitz import (
    ANALYTIC,
    CONJUGATE,
    C,
    Coeff,
    GaussianRational,
    RadialFunction,
    RationalFn,
    Symbol,
    abar,
    apply_numeric,
    apply_quasi,
    commutator_residual,
    compare,
    inverse_mellin,
    mellin,
    mellin_numeric,
    reproduce_lemma,
    run_pipeline,
    solve_telescoping,
    u_symbol,
)
from htoeplitz.derive import FunctionalEquation, TelescopeError, _force_constants

from .conftest import bind_eval, commute_with_Tz_solve, quotient

SEED = int(os.environ.get("HTOEPLITZ_SEED", "0"))


@contextlib.contextmanager
def criterion(num, desc, capfd=None):
    def say(line):
        if capfd is not None:
            with capfd.disabled():
                print(line, flush=True)
        else:
            print(line, file=sys.__stdout__, flush=True)

    try:
        yield
    except BaseException:
        say(f"criterion {num:2d}: FAIL - {desc}")
        raise
    say(f"criterion {num:2d}: PASS - {desc}")


def _random_radial(rng, n_terms=(1, 3), a_range=(-1, 6), b_max=2):
    phi = RadialFunction.zero
    for _ in range(rng.randint(*n_terms)):
        c = GaussianRational(
            Fraction(rng.randint(-8, 8), rng.randint(1, 4)),
            Fraction(rng.randint(-8, 8), rng.randint(1, 4)),
        )
        phi = phi + RadialFunction.term(Coeff.const(c), rng.randint(*a_range), rng.randint(0, b_max))
    return phi


def test_criterion_1_mellin_tables(capfd):
    with criterion(1, "Mellin table r^a(ln r)^b vs quadrature, tol 1e-10", capfd):
        worst = 0.0
        for a in range(-1, 9):
            for b in range(0, 3):
                phi = RadialFunction.term(1, a, b)
                exact = mellin(phi)
                for s in (3.0, 4.0, 5.0, 7.0):
                    diff = abs(bind_eval(exact, s) - mellin_numeric(phi, s))
                    worst = max(worst, diff)
        assert worst < 1e-10, worst


def test_criterion_2_engine_vs_oracle(capfd):
    with criterion(2, "200 randomized operator actions vs oracle, tol 1e-9", capfd):
        rng = random.Random(SEED)
        seen_below = {ANALYTIC: False, CONJUGATE: False}
        for _ in range(200):
            k = rng.randint(-4, 4)
            n = rng.randint(0, 8)
            side = rng.choice([ANALYTIC, CONJUGATE])
            m = n if side == ANALYTIC else -n
            phi = _random_radial(rng)
            sym = apply_quasi(k, phi, m)
            num = apply_numeric(k, phi, m)
            result = compare(sym, num, tol=1e-9)
            assert result["ok"], result
            if m + k < 0 and side == ANALYTIC:
                seen_below[ANALYTIC] = True
            if m + k > 0 and side == CONJUGATE:
                seen_below[CONJUGATE] = True
        # both below-threshold branches must have been exercised
        assert seen_below[ANALYTIC] and seen_below[CONJUGATE]


def test_criterion_3_f1(capfd):
    with criterion(3, "f1 = C1 r + C3 abar1 [r^3 + 3r + 2r ln r - 1/r]", capfd):
        rep = reproduce_lemma("R4.2")
        bracket = (
            RadialFunction.term(1, 3)
            + RadialFunction.term(3, 1)
            + RadialFunction.term(2, 1, 1)
            - RadialFunction.term(1, -1)
        )
        expected = RadialFunction.term(C(1), 1) + bracket * RadialFunction.const(C(3) * abar(1))
        assert rep.match
        assert rep.derived == expected


def test_criterion_4_f0(capfd):
    with criterion(4, "f0 = C0 + C2 abar1 [1 + 2 ln r + r^2] + C3 abar2 [4 ln r + 2r^2 + r^4]", capfd):
        rep = reproduce_lemma("f0")
        b1 = RadialFunction.const(1) + RadialFunction.term(2, 0, 1) + RadialFunction.term(1, 2)
        b2 = RadialFunction.term(4, 0, 1) + RadialFunction.term(2, 2) + RadialFunction.term(1, 4)
        expected = (
            RadialFunction.const(C(0))
            + b1 * RadialFunction.const(C(2) * abar(1))
            + b2 * RadialFunction.const(C(3) * abar(2))
        )
        assert rep.match
        assert rep.derived == expected


def test_criterion_5_f_minus_1(capfd):
    with criterion(5, "f-1: printed match, or mechanized form alone passes the exact identity", capfd):
        rep = reproduce_lemma("f-1")
        ok = rep.match or (
            rep.derived_satisfies_equation and not rep.printed_satisfies_equation
        )
        assert ok, rep.to_json()


def test_criterion_6_f_minus_2(capfd):
    with criterion(6, "f-2 exponents {-6,-4,-2} with logs; forcing {Cm2, C2, C3}", capfd):
        rep = reproduce_lemma("f-2")
        printed = rep.printed
        bad = printed.non_integrable_terms()
        exponents = {a for a, _b in bad}
        assert {Fraction(-6), Fraction(-4), Fraction(-2)} <= exponents
        assert any(b > 0 for _a, b in printed.terms)
        _phi, forced = _force_constants(rep.derived)
        assert {name for name, _key in forced} == {"Cm2", "C2", "C3"}


def test_criterion_7_degree_bound(capfd):
    with criterion(7, "N_start 4 and 5 collapse to N = 3 via r^{2-N}; N_start 3 survives", capfd):
        for n_start in (4, 5):
            report = run_pipeline(u_symbol(1), n_start, 4)
            assert report.N_effective == 3
            top = f"C{n_start}"
            assert top in report.forced
            _stage, (a, _b) = report.forced[top]
            assert a == Fraction(2 - n_start)
            assert any(s.restarted for s in report.stages)
        report = run_pipeline(u_symbol(1), 3, 4)
        assert report.N_effective == 3
        assert not any(s.restarted for s in report.stages)
        assert "C3" in report.survivors or "C3" in report.forced  # C3 dies later, not at D1
        d1 = [s for s in report.stages if s.degree == 3][-1]
        assert d1.integrable and not d1.restarted


def test_criterion_8_conjugate_chain(capfd):
    with criterion(8, "f-3 forces Cm1, f-k = C1 abar_k r^k for k = 3..8", capfd):
        rep3 = reproduce_lemma("f-3")
        assert "Cm1" in rep3.forced
        assert rep3.derived == RadialFunction.term(C(1) * abar(3), 3)
        assert rep3.match
        rep4 = reproduce_lemma("f-4")
        assert rep4.derived == RadialFunction.term(C(1) * abar(4), 4)
        assert rep4.match
        for k in range(5, 9):
            rep = reproduce_lemma(f"induction({k})")
            assert rep.derived == RadialFunction.term(C(1) * abar(k), k)
            assert rep.match


def test_criterion_9_main_theorem(capfd):
    with criterion(9, "L=5, K=8: f = C1 z + C0 + C1 sum abar_l zbar^l, commutes to n = 20", capfd):
        report = run_pipeline(u_symbol(5), 3, 8, n_max=20)
        expected = Symbol(
            {1: RadialFunction.term(C(1), 1), 0: RadialFunction.const(C(0)),
             **{-l: RadialFunction.term(C(1) * abar(l), l) for l in range(1, 6)}}
        )
        assert report.final_symbol == expected
        assert sorted(report.survivors) == ["C0", "C1"]
        assert report.commutes
        ver = report.verification
        assert ver.generic_nonzero == [] and ver.witnesses == []


def test_criterion_10_commute_with_Tz(capfd):
    with criterion(10, "commute_with_Tz_solve(p) = C_p r^p for p = 1..4", capfd):
        for p in range(1, 5):
            assert commute_with_Tz_solve(p) == RadialFunction.term(C(p), p)


def test_criterion_11_property_suites(capfd):
    with criterion(11, "property suites: 500+500 round trips, solver soundness, 50 self-commutators", capfd):
        rng = random.Random(SEED + 1)

        # 500 Mellin round trips
        for _ in range(500):
            phi = _random_radial(rng, a_range=(-6, 8), b_max=3)
            assert inverse_mellin(mellin(phi)) == phi

        # 500 partial-fraction recombinations
        for _ in range(500):
            f = RationalFn.zero
            if rng.random() < 0.5:
                f = f + RationalFn.poly({i: Fraction(rng.randint(-9, 9)) for i in range(rng.randint(1, 3))})
            for _ in range(rng.randint(1, 4)):
                q = Fraction(rng.randrange(-12, 13, 2))
                c = GaussianRational(Fraction(rng.randint(-9, 9)), Fraction(rng.randint(-9, 9)))
                f = f + RationalFn.fraction(c, q, rng.randint(1, 3))
            assert quotient(f.num, f.den) == f

        # telescoping-solver soundness: every successful solve re-verified
        solved = 0
        for _ in range(60):
            G = RationalFn.zero
            for _ in range(rng.randint(1, 3)):
                q = Fraction(rng.randrange(-6, 13, 2))
                G = G + RationalFn.fraction(Fraction(rng.randint(-6, 6)), q, rng.randint(1, 2))
            eq = FunctionalEquation(
                c=Fraction(rng.randint(2, 8)),
                d=Fraction(rng.randint(0, 6)),
                G=G,
                rhs=G.shift(2) - G,
                unknown_name="C9",
            )
            try:
                _, phi = solve_telescoping(eq)
            except TelescopeError:
                continue
            solved += 1
            F = RationalFn.linear(eq.c) * mellin(phi).shift(eq.d)
            assert F - RationalFn.const(Coeff.indet("C9")) - G == RationalFn.zero
        assert solved >= 30

        # 50 random truncated symbols self-commute on all indices <= 10
        for _ in range(50):
            f = Symbol(
                {
                    rng.randint(-3, 3): _random_radial(rng, n_terms=(1, 2), a_range=(0, 5), b_max=1)
                    for _ in range(rng.randint(1, 3))
                }
            )
            for m in range(-10, 11):
                assert commutator_residual(f, f, m).is_zero()
