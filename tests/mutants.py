"""Mutation check: does Tier-1 fail when the certificate or the solver is wrong?

Run from anywhere:  python3 tests/mutants.py

Each mutant is one exact-text replacement in one module of src/htoeplitz.
The harness copies the project (src, tests, demos, bench, pyproject.toml,
BENCHMARK.json) to a temporary directory once, checks that Tier-1 passes
there unmutated, then applies each mutant alone to that copy and runs the
Tier-1 suite there with -x.  A mutant is killed when the suite fails (or
hangs past the timeout) and survives when it passes.  The run exits 1 if a
mutant survives without an argument that it is equivalent to the original,
or if a mutant's snippet no longer occurs exactly once.

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
    equivalent: Optional[str] = None  # why no test can tell it apart


MUTANTS = [
    # the whole-basis certificate (toeplitz.verify_commute and its parts)
    Mutant("n0* without its +1", "toeplitz.py",
           "n_star = f.max_abs_degree() + u.max_abs_degree() + 1",
           "n_star = f.max_abs_degree() + u.max_abs_degree()"),
    Mutant("n0* as a max, not a sum", "toeplitz.py",
           "n_star = f.max_abs_degree() + u.max_abs_degree() + 1",
           "n_star = max(f.max_abs_degree(), u.max_abs_degree()) + 1"),
    Mutant("concrete range ends at n_max", "toeplitz.py",
           "top = max(n_max, n_star)", "top = n_max"),
    Mutant("concrete loop starts at -top+1", "toeplitz.py",
           "range(-top, top + 1)", "range(-top + 1, top + 1)"),
    Mutant("concrete loop starts at 0", "toeplitz.py",
           "range(-top, top + 1)", "range(0, top + 1)"),
    Mutant("branch_offset sign flipped", "toeplitz.py",
           "return k if side == ANALYTIC else -k", "return -k if side == ANALYTIC else k"),
    Mutant("branch_z factor 2d+1", "toeplitz.py",
           "RationalFn.linear(2 * d + 2)", "RationalFn.linear(2 * d + 1)"),
    Mutant("compose_generic shifts by da", "toeplitz.py",
           "fa.affine_substitute(1, db)", "fa.affine_substitute(1, da)"),
    Mutant("apply_quasi with j = |m| + k", "toeplitz.py",
           "j = abs(m + k)", "j = abs(m) + k"),
    # the per-monomial concrete residual (toeplitz._Entries and _residual)
    Mutant("entry memo keyed by |m|", "toeplitz.py",
           "self[m] = x = ", "self[abs(m)] = x = "),
    Mutant("entry weight with j = |m| + k", "toeplitz.py",
           "j = abs(m + self.k)", "j = abs(m) + self.k"),
    Mutant("residual reads F at m + k_f, not m + k_u", "toeplitz.py",
           "F[m + ku] * U[m]", "F[m + kf] * U[m]"),
    Mutant("pair monomial reduced to mu_f", "toeplitz.py",
           "_mono_mul(mf, mu)) for", "mf) for"),
    Mutant("_split without (-1)^i", "ratfun.py",
           "s = (-1) ** i * comb(", "s = comb("),
    Mutant("commutes read from the generic residuals alone", "toeplitz.py",
           "commutes=not any(generic.values()) and not witnesses,",
           "commutes=not any(generic.values()),"),
    Mutant("commutes read from the witnesses alone", "toeplitz.py",
           "commutes=not any(generic.values()) and not witnesses,",
           "commutes=not witnesses,"),
    # the telescoping solver
    Mutant("solve_telescoping without its G check", "derive.py",
           "if eq.G.shift(2) - eq.G != eq.rhs:", "if False:"),
    Mutant("solve_telescoping without its _satisfies guard", "derive.py",
           "if not _satisfies(eq, phi):", "if False:"),
    Mutant("antidifference without its shift check", "derive.py",
           "if out.shift(2) - out != h:", "if False:",
           equivalent="when the ladder loop returns, each progression's partial sums d_p "
                      "give out(z+2) - out(z) = h term by term, so the check never fires"),
    # the printed lemma steps
    Mutant("f-4 read as induction(3)", "derive.py",
           'k = 4 if tag == "f-4" else', 'k = 3 if tag == "f-4" else'),
    Mutant("f-2 built without f0 among its known components", "derive.py",
           "{**upper, 0: f0, -1: fm1}", "{**upper, -1: fm1}"),
]


def _copy_project(dest: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache", "out")
    for name in ("src", "tests", "demos", "bench"):
        shutil.copytree(ROOT / name, dest / name, ignore=skip)
    for name in ("pyproject.toml", "BENCHMARK.json"):
        shutil.copy2(ROOT / name, dest / name)


def _run_suite(copy: Path) -> tuple[bool, str]:
    """(passed, first failing test or reason) of Tier-1 run with -x in the copy."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             "--continue-on-collection-errors"],
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
