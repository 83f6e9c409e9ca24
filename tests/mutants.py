"""Mutation check: does Tier-1 fail when the certificate, the solver or the parser is wrong?

Run from anywhere:  python3 tests/mutants.py

Each mutant is one exact-text replacement in one module of src/htoeplitz.
The harness copies the project (src, tests, demos, bench, pyproject.toml,
BENCHMARK.json) to a temporary directory once, checks that Tier-1 passes
there unmutated, then applies each mutant alone to that copy.  A mutant
names the test that killed it in an earlier run; that test runs first, and
only if it passes does the whole Tier-1 suite run, with -x.  A mutant is
killed when a run fails (or hangs past the timeout), and it survives only
when the whole suite passes.  The run exits 1 if a mutant survives without
an argument that it is equivalent to the original, or if a mutant's snippet
no longer occurs exactly once.

The name has no test_ prefix, so pytest does not collect this file.  It
uses the standard library only.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple, Optional

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 300


class Mutant(NamedTuple):
    name: str
    module: str                       # file under src/htoeplitz
    snippet: str                      # must occur exactly once
    replacement: str
    killer: Optional[str] = None      # the test id that killed it last time
    equivalent: Optional[str] = None  # why no test can tell it apart


MUTANTS = [
    # the whole-basis certificate (toeplitz.verify_commute and its parts)
    Mutant("n0* without its +1", "toeplitz.py",
           "n_star = f.max_abs_degree() + u.max_abs_degree() + 1",
           "n_star = f.max_abs_degree() + u.max_abs_degree()",
           killer="tests/test_golden_reports.py::test_golden_report[derive-L1]"),
    Mutant("n0* as a max, not a sum", "toeplitz.py",
           "n_star = f.max_abs_degree() + u.max_abs_degree() + 1",
           "n_star = max(f.max_abs_degree(), u.max_abs_degree()) + 1",
           killer="tests/test_golden_reports.py::test_golden_report[derive-L1]"),
    Mutant("concrete range ends at n_max", "toeplitz.py",
           "top = max(n_max, n_star)", "top = n_max",
           killer="tests/test_toeplitz.py::test_witnesses_cover_the_range_up_to_the_threshold"),
    Mutant("concrete loop starts at -top+1", "toeplitz.py",
           "range(-top, top + 1)", "range(-top + 1, top + 1)",
           killer="tests/test_golden_reports.py::test_golden_report[verify-nonzero]"),
    Mutant("concrete loop starts at 0", "toeplitz.py",
           "range(-top, top + 1)", "range(0, top + 1)",
           killer="tests/test_cli.py::test_verify_failure_seen_only_by_witnesses"),
    Mutant("branch_offset sign flipped", "toeplitz.py",
           "return k if side == ANALYTIC else -k", "return -k if side == ANALYTIC else k",
           killer="tests/test_acceptance.py::test_criterion_3_f1"),
    # the generic half, over scalars (toeplitz.branch_z, _compose, generic_residual)
    Mutant("unit branch has factor 2d+1", "toeplitz.py",
           "c * (2 * d + 2 - q)", "c * (2 * d + 1 - q)",
           killer="tests/test_acceptance.py::test_criterion_3_f1"),
    Mutant("generic pair reads F at z+2d_x, not z+2d_y", "toeplitz.py",
           "B * A.shift(2 * db)", "B * A.shift(2 * da)",
           killer="tests/test_acceptance.py::test_criterion_9_main_theorem"),
    Mutant("generic pair shifts z by d_y, not 2d_y", "toeplitz.py",
           "B * A.shift(2 * db)", "B * A.shift(db)",
           killer="tests/test_acceptance.py::test_criterion_9_main_theorem"),
    Mutant("generic lift uses mu_f, not mu_f mu_u", "toeplitz.py",
           "_mono_mul(ma, mb), B", "ma, B",
           killer="tests/test_acceptance.py::test_criterion_9_main_theorem"),
    Mutant("generic pieces read their terms through a throwaway integer kernel",
           "toeplitz.py", "for a, b, c in terms)", "for a, b, c in _Entries(k, terms).terms)",
           killer="tests/test_derive.py::test_generic_half_builds_no_integer_kernel"),
    Mutant("generic residual left in z = 2n, not mapped to n", "toeplitz.py",
           "fn.affine_substitute(2, 0) for d", "fn for d",
           killer="tests/test_toeplitz.py::test_compose_generic_consistency"),
    # the generic half read from values (toeplitz._degree_bounds, the scan past top)
    Mutant("degree bound one short: the scan past top stops at n0* + D - 1", "toeplitz.py",
           "default=0) + 1))", "default=0)))",
           killer="tests/test_toeplitz.py::"
                  "test_value_at_the_last_index_sends_the_report_to_composition[analytic]"),
    Mutant("degree bound one short: D_{d,mu} = deg Q - 1", "toeplitz.py",
           "return {key: sum(den.values()) for key, den in lcms.items()}",
           "return {key: sum(den.values()) - 1 for key, den in lcms.items()}",
           killer="tests/test_toeplitz.py::test_degree_bounds_by_hand[z^2]"),
    Mutant("pole order b + 1 everywhere, also where the top coefficient is zero",
           "toeplitz.py", "b if a == d else b + 1", "b + 1",
           killer="tests/test_toeplitz.py::test_degree_bounds_by_hand[z^2]"),
    Mutant("pole order b where the top coefficient is nonzero", "toeplitz.py",
           "b if a == d else b + 1", "b if a != d else b + 1",
           killer="tests/test_toeplitz.py::test_degree_bounds_by_hand[z^2]"),
    Mutant("product poles shifted by d_B, not 2d_B", "toeplitz.py",
           "(_product_poles(pu, pf, 2 * du), _product_poles(pf, pu, 2 * df))",
           "(_product_poles(pu, pf, du), _product_poles(pf, pu, df))",
           killer="tests/test_toeplitz.py::test_degree_bounds_by_hand[z ln r]"),
    Mutant("product multiplicities maxed, not added", "toeplitz.py",
           "out[q + shift] = out.get(q + shift, 0) + e",
           "out[q + shift] = max(out.get(q + shift, 0), e)",
           killer="tests/test_toeplitz.py::test_degree_bounds_by_hand[ln r]"),
    Mutant("scan past top on the analytic side only", "toeplitz.py",
           "for side, sign in ((ANALYTIC, 1), (CONJUGATE, -1))",
           "for side, sign in ((ANALYTIC, 1),)",
           killer="tests/test_toeplitz.py::"
                  "test_value_at_the_last_index_sends_the_report_to_composition[conjugate]"),
    Mutant("generic residual composed only on a witness", "toeplitz.py",
           "Terms() if commutes else", "Terms() if not witnesses else",
           killer="tests/test_toeplitz.py::test_generic_residual_alone_refutes_commutation"),
    # the symbol u = z + sum abar_l zbar^l
    Mutant("u_symbol without its abar factor", "toeplitz.py",
           "RadialFunction.term(Coeff.indet(aname(l)), l)", "RadialFunction.term(1, l)",
           killer="tests/test_acceptance.py::test_criterion_3_f1"),
    # the per-monomial concrete residual (toeplitz._Entries and _residual)
    Mutant("entry memo keyed by |m|", "toeplitz.py",
           "self[m] = x = ", "self[abs(m)] = x = ",
           killer="tests/test_acceptance.py::test_criterion_11_property_suites"),
    Mutant("entry weight with j = |m| + k", "toeplitz.py",
           "j = abs(m + self.k)", "j = abs(m) + self.k",
           killer="tests/test_acceptance.py::test_criterion_11_property_suites"),
    Mutant("residual reads F at m + k_f, not m + k_u", "toeplitz.py",
           "= F[m + ku], U[m]", "= F[m + kf], U[m]",
           killer="tests/test_acceptance.py::test_criterion_9_main_theorem"),
    Mutant("residual's cross denominators dropped", "toeplitz.py",
           "re = (ar * br - ai * bi) * d2 - (cr * er - ci * ei) * d1",
           "re = (ar * br - ai * bi) - (cr * er - ci * ei)",
           killer="tests/test_acceptance.py::test_criterion_9_main_theorem"),
    Mutant("imaginary cross term of F(m+k_u) U(m) with its sign flipped", "toeplitz.py",
           "im = (ar * bi + ai * br) * d2", "im = (ar * bi - ai * br) * d2",
           killer="tests/test_toeplitz.py::test_integer_residual_matches_fraction_reference"),
    Mutant("residual sum adds numerators without cross-multiplying", "toeplitz.py",
           "(sr * d + re * sd, si * d + im * sd, sd * d)", "(sr + re, si + im, sd * d)",
           killer="tests/test_toeplitz.py::test_integer_residual_matches_fraction_reference"),
    Mutant("D left out of an entry's denominator", "toeplitz.py",
           "den * self.D)", "den)",
           killer="tests/test_toeplitz.py::test_integer_entries_match_fraction_reference"),
    Mutant("entry weight without q^(b+1)", "toeplitz.py",
           "* a.denominator ** (b + 1)]", "]",
           killer="tests/test_toeplitz.py::test_integer_entries_match_fraction_reference"),
    Mutant("entry pole guard reports +a", "toeplitz.py",
           "raise PoleError(-Fraction(p, q))", "raise PoleError(Fraction(p, q))",
           killer="tests/test_toeplitz.py::test_entry_pole_guard"),
    Mutant("pair monomial reduced to mu_f", "toeplitz.py",
           "_mono_mul(mf, mu)) for", "mf) for",
           killer="tests/test_acceptance.py::test_criterion_9_main_theorem"),
    # one basis vector through T_f (toeplitz.apply_symbol) and the one checked radial term
    Mutant("apply_symbol reads F at m + k, not m", "toeplitz.py",
           "_Entries(k, terms)[m])", "_Entries(k, terms)[m + k])",
           killer="tests/test_toeplitz.py::test_mixed_action"),
    Mutant("apply_symbol drops the piece monomial mu", "toeplitz.py",
           "out.setdefault(m + k, {})[mu]", "out.setdefault(m + k, {})[()]",
           killer="tests/test_toeplitz.py::test_apply_quasi_matches_transform"),
    Mutant("RadialFunction.term without its b >= 0 check", "radial.py",
           "if b < 0:", "if False:",
           killer="tests/test_radial.py::test_term_refuses_negative_log_power"),
    Mutant("num's cofactor keeps one factor (z+q) too many", "ratfun.py",
           "range(m - j if p == q else m)", "range(m - j + 1 if p == q else m)",
           killer="tests/test_ratfun.py::test_num_from_cofactors_equals_the_product_with_den"),
    Mutant("num without the polynomial part's shift by i", "ratfun.py",
           "enumerate(cof, i0)", "enumerate(cof)",
           killer="tests/test_ratfun.py::test_num_from_cofactors_equals_the_product_with_den"),
    Mutant("_split without (-1)^i", "ratfun.py",
           "s = (-1) ** i * comb(", "s = comb(",
           killer="tests/test_acceptance.py::test_criterion_5_f_minus_1"),
    # the verdict, read from the concrete residuals alone (toeplitz.verify_commute)
    Mutant("commutes read from the generic residuals alone", "toeplitz.py",
           "commutes=commutes,",
           "commutes=not any(generic_residual(f, u, s) for s in (ANALYTIC, CONJUGATE)),",
           killer="tests/test_cli.py::test_verify_failure_seen_only_by_witnesses"),
    Mutant("commutes read from the witnesses alone", "toeplitz.py",
           "commutes=commutes,", "commutes=not witnesses,",
           killer="tests/test_toeplitz.py::test_generic_residual_alone_refutes_commutation"),
    Mutant("verdict read from the witnesses alone: the scan past top on neither side",
           "toeplitz.py", "for side, sign in ((ANALYTIC, 1), (CONJUGATE, -1))",
           "for side, sign in ()",
           killer="tests/test_toeplitz.py::test_generic_residual_alone_refutes_commutation"),
    Mutant("verdict read from the scan past top alone", "toeplitz.py",
           "commutes = not witnesses and not any(", "commutes = not any(",
           killer="tests/test_toeplitz.py::test_noncommuting_verdict"),
    Mutant("verdict read from the symbolic residual where a value past top is nonzero",
           "toeplitz.py", "default=0) + 1))",
           "default=0) + 1)) or not witnesses and not any("
           "generic_residual(f, u, s) for s in (ANALYTIC, CONJUGATE))",
           killer="tests/test_toeplitz.py::test_verdict_is_read_from_the_values_alone[analytic]"),
    # the telescoping equations (derive.constraint_at_offset)
    Mutant("M has the sign of its fraction flipped", "derive.py",
           "1): -2 * g - 2, 0: -1}", "1): 2 * g + 2, 0: -1}",
           killer="tests/test_acceptance.py::test_criterion_8_conjugate_chain"),
    Mutant("stage entries read at offset g, not g + 1", "derive.py",
           "offset = branch_offset(side, g + 1)", "offset = branch_offset(side, g)",
           killer="tests/test_acceptance.py::test_criterion_3_f1"),
    Mutant("A and B swapped", "derive.py",
           "for x, y in ((us, ft), (ft, us))", "for x, y in ((ft, us), (us, ft))",
           killer="tests/test_acceptance.py::test_criterion_3_f1"),
    Mutant("stage lift without the u monomial", "derive.py",
           "lifted, s = _mono_mul(mono, mu),", "lifted, s = mono,",
           killer="tests/test_acceptance.py::test_criterion_3_f1"),
    Mutant("pair skipped when the monomial keys of its compositions agree", "derive.py",
           "if a == b:", "if a.terms.keys() == b.terms.keys():",
           killer="tests/test_derive.py::test_pairs_with_equal_compositions_skip_the_shift_test"),
    Mutant("pair skipped when either composition is empty", "derive.py",
           "if a == b:", "if not a or not b:",
           killer="tests/test_derive.py::test_pairs_with_equal_compositions_skip_the_shift_test"),
    Mutant("shift tested on the first monomial only", "derive.py",
           "for mu in A) else None", "for mu in list(A)[:1]) else None",
           killer="tests/test_derive.py::test_find_shift_reads_every_monomial"),
    Mutant("stage lift keeps one monomial of the term's coefficient", "derive.py",
           "for mono, s in coef.terms.items():", "for mono, s in list(coef.terms.items())[:1]:",
           killer="tests/test_derive.py::test_G_is_the_sum_of_per_term_shift_sums"),
    Mutant("G without its normalization constant", "derive.py",
           "G = antidifference(rhs) + norm", "G = antidifference(rhs)",
           killer="tests/test_derive.py::test_G_is_the_sum_of_per_term_shift_sums"),
    Mutant("normalization constant -m B(inf), not m B(inf)", "derive.py",
           "fb.poly_part.scale(m)", "fb.poly_part.scale(-m)",
           killer="tests/test_derive.py::test_G_is_the_sum_of_per_term_shift_sums"),
    Mutant("forced constants in insertion order", "derive.py",
           "sorted(phi.non_integrable_terms().items())", "phi.non_integrable_terms().items()",
           killer="tests/test_derive.py::test_force_constants_order_is_canonical"),
    Mutant("known component paired with u at degree g - k_f", "derive.py",
           "j = g + 1 - kf", "j = g - kf",
           killer="tests/test_golden_reports.py::test_golden_report[derive-L1]"),
    Mutant("_check_u accepts a constant term in u", "derive.py",
           "if k != 1 and k >= 0:", "if k != 1 and k > 0:",
           killer="tests/test_derive.py::test_derivation_refusals[u-with-constant]"),
    Mutant("conjugate side accepts degree 0", "derive.py",
           "if g >= 0:", "if g > 0:",
           killer="tests/test_derive.py::test_derivation_refusals[conjugate-side-at-0]"),
    Mutant("_find_shift without its one-sided check", "derive.py",
           "if not (fa and fb):", "if False:",
           killer="tests/test_derive.py::test_find_shift_reads_poles"),
    Mutant("_force_constants without its final integrability check", "derive.py",
           "if not phi.is_integrable():", "if False:",
           killer="tests/test_derive.py::test_derivation_refusals[force-(C1+1)r^-3]"),
    # the stage loop (derive.run_pipeline)
    Mutant("analytic side stops at degree -1", "derive.py",
           "ANALYTIC if g >= -2 else CONJUGATE", "ANALYTIC if g >= -1 else CONJUGATE",
           killer="tests/test_golden_reports.py::test_golden_report[derive-L1]"),
    Mutant("stage loop ends at -K_max, not min(-2, -K_max)", "derive.py",
           "while g >= min(-2, -K_max):", "while g >= -K_max:",
           killer="tests/test_golden_reports.py::test_golden_report[derive-L1-N6]"),
    Mutant("restart checked at stage N - 3", "derive.py",
           "if g == N_eff - 2 and", "if g == N_eff - 3 and",
           killer="tests/test_golden_reports.py::test_golden_report[derive-L1-N6]"),
    Mutant("Tz-solve label on the top stage only", "derive.py",
           '"Tz-solve" if g >= N_eff - 1 else', '"Tz-solve" if g >= N_eff else',
           killer="tests/test_golden_reports.py::test_golden_report[derive-L1]"),
    # the telescoping solver
    Mutant("solve_telescoping without its G check", "derive.py",
           "if eq.G.shift(2) - eq.G != eq.rhs:", "if False:",
           killer="tests/test_derive.py::test_solver_rejects_wrong_rhs"),
    Mutant("solve's fraction at d - c, not c - d", "derive.py",
           "RationalFn({(eq.c - eq.d, 1): 1})", "RationalFn({(eq.d - eq.c, 1): 1})",
           killer="tests/test_acceptance.py::test_criterion_3_f1"),
    Mutant("solve_telescoping without its _satisfies guard", "derive.py",
           "if not _satisfies(eq, phi):", "if False:",
           killer="tests/test_derive.py::test_solver_rejects_corrupted_inverse"),
    Mutant("antidifference accepts a polynomial part", "derive.py",
           "if h.poly_part:", "if False:",
           killer="tests/test_derive.py::test_antidifference_poly_part"),
    Mutant("antidifference without its shift check", "derive.py",
           "if out.shift(2) - out != h:", "if False:",
           equivalent="h has no polynomial part, and when the ladder loop returns, each "
                      "progression's partial sums d_p give out(z+2) - out(z) = h term by "
                      "term, so the check never fires"),
    # the printed lemma steps
    Mutant("printed step taken as satisfying its equation without a check", "derive.py",
           "shown == phi or _satisfies(eq, shown)", "True",
           killer="tests/test_derive.py::test_reproduce_divergent_lemmas"),
    Mutant("f-4 read as induction(3)", "derive.py",
           'k = 4 if tag == "f-4" else', 'k = 3 if tag == "f-4" else',
           killer="tests/test_acceptance.py::test_criterion_8_conjugate_chain"),
    Mutant("f-2 built without f0 among its known components", "derive.py",
           "{**upper, 0: f0, -1: fm1}", "{**upper, -1: fm1}",
           killer="tests/test_golden_reports.py::test_golden_report[verify-paper]"),
    # exact rational roots of parsed divisors (ratfun._rational_root)
    Mutant("Sturm sequence without its sign flips", "ratfun.py",
           "seq.append([-c for c in a])", "seq.append(a)",
           killer="tests/test_golden_reports.py::test_golden_report[invmellin]"),
    Mutant("bisection counts the right half from mid + 1", "ratfun.py",
           "vmid = variations(mid)", "vmid = variations(mid + 1)",
           killer="tests/test_golden_reports.py::test_golden_report[invmellin]"),
    # the one power rule of the expression grammar (parser._Parser.parse_power)
    Mutant("power loop one factor short: x^3 read as x^2", "parser.py",
           'if bit == "1":', "if False:",
           killer="tests/test_parser.py::test_power_is_repeated_product[z]"),
    Mutant("bare-r exception dropped", "parser.py",
           "if base != Symbol({0: RadialFunction.term(1, 1)}):", "if True:",
           killer="tests/test_parser.py::test_only_r_takes_rational_powers[r^-1-a0]"),
    Mutant("negative rational power multiplied, not divided", "parser.py",
           "_divide(RationalFn.one, self.power(base, -n), pos)", "self.power(base, -n)",
           killer="tests/test_parser.py::test_rational_expressions"),
    Mutant("unexpected character placed at the spaces before it", "parser.py",
           "len(text) - len(stripped))", "pos)",
           killer="tests/test_parser.py::test_error_positions"),
    # the command line: a failed solve is a report with exit 1, not a traceback
    Mutant("TelescopeError dropped from the failure tuple", "cli.py",
           "except (MellinInversionError, NonIntegrableSymbolError, TelescopeError) as e:",
           "except (MellinInversionError, NonIntegrableSymbolError) as e:",
           killer="tests/test_cli.py::test_telescope_error_is_math_failure"),
]


def _copy_project(dest: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache", "out")
    for name in ("src", "tests", "demos", "bench"):
        shutil.copytree(ROOT / name, dest / name, ignore=skip)
    for name in ("pyproject.toml", "BENCHMARK.json"):
        shutil.copy2(ROOT / name, dest / name)


def _run_suite(copy: Path, *tests: str) -> tuple[bool, str]:
    """(passed, first failing test or reason) of Tier-1, or only of the given
    tests, run with -x in the copy."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             "--continue-on-collection-errors", *tests],
            cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return False, f"timeout after {TIMEOUT_S} s"
    if proc.returncode == 0:
        return True, ""
    failed = [line.split(" ", 1)[1].split(" - ")[0]
              for line in proc.stdout.splitlines() if line.startswith(("FAILED ", "ERROR "))]
    return False, failed[0] if failed else f"pytest exit {proc.returncode}"


def main() -> int:
    bad = 0
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="htoeplitz-mutants-") as tmp:
        copy = Path(tmp)
        _copy_project(copy)
        passed, why = _run_suite(copy)
        if not passed:
            print(f"Tier-1 fails on the unmutated copy ({why}); no mutant can be judged")
            return 1
        for mut in MUTANTS:
            path = copy / "src" / "htoeplitz" / mut.module
            original = path.read_text()
            if original.count(mut.snippet) != 1:
                print(f"stale     {mut.name}: snippet occurs {original.count(mut.snippet)} "
                      f"times in {mut.module}")
                bad += 1
                continue
            path.write_text(original.replace(mut.snippet, mut.replacement))
            t0 = time.perf_counter()
            try:
                passed, why = _run_suite(copy, mut.killer) if mut.killer else (True, "")
                if passed:
                    passed, why = _run_suite(copy)
            finally:
                path.write_text(original)
            took = f"{time.perf_counter() - t0:5.1f} s"
            if not passed:
                print(f"killed    {mut.name} ({took}) by {why}")
            elif mut.equivalent:
                print(f"survived  {mut.name} ({took}), equivalent: {mut.equivalent}")
            else:
                print(f"SURVIVED  {mut.name} ({took})")
                bad += 1
            sys.stdout.flush()
    print(f"{len(MUTANTS)} mutants, {bad} unexplained, {time.perf_counter() - start:.0f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
