"""Report identity: do two checkouts answer the standard requests byte for byte alike?

Run from anywhere:  python3 tests/report_identity.py OLD_ROOT NEW_ROOT

Each root is a checkout of this project (with src/htoeplitz).  For each root
one subprocess imports that root's ``htoeplitz.cli`` and runs ``main`` on
every request of the standard set, recording the exit code, stdout and
stderr of each.  The script prints every argv whose three differ between the
roots and exits 1 if any do, else 0.

The standard set, taken from the checkout that holds this script, without
repeats:
- the argv of every golden report in tests/golden;
- the derive sweep: L 0..4, N 2..6, K 0..6;
- every ``requests`` and ``smoke_requests`` entry of each workload in
  bench/workloads.py at seeds 0, 1, 2 and 7;
- ``derive --L 20 --N 3 --K 22``;
- two ``verify`` requests with ``--nmax 0``, so that top = n0*: C1 u + C0,
  which commutes once the scan goes on past top = 3 to index 5, and z^2,
  which fails with 8 witnesses;
- the parser inputs below: the literal expressions of tests/test_cli_fuzz.py,
  valid and invalid, plus the edges of the power rule, sent as ``apply``
  (symbols and basis vectors), ``mellin`` (radials) and ``invmellin``
  (rational functions), so that exit codes and error messages are compared.

The name has no test_ prefix, so pytest does not collect this file.  It
uses the standard library only.
"""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import List

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (0, 1, 2, 7)

POWER_EDGES = ["(z+1)^2", "e(1)^2", "2^3", "i^2", "(r)^(1/2)", "abar1^0", "C1^0", "z^0",
               "ln(r)^0", "z3", "r2", "r^-1", "r^3/2", "r^(1/2)", "z^2^3", "z^-1", "z^(1/2)",
               "(2*r)^(1/2)", "ln(r)^-1", "abar1^-1", "z 3", "r 2", "conj(z)2"]
SYMBOLS = ["z", "z^2", "conj(z)", "C1*z + C0", "z + abar1*conj(z)", "e(3)*r^3", "e(-1)*r^-1",
           "r^4*ln(r)", "-z", "r^-4", "z + e(1)*r^-2*ln(r)",
           "abar1^0", "ln(r)^-1", "1/0", "r^(1/0)", "z^^2", "conj(", "", "foo", "e(x)"] + POWER_EDGES
RADIALS = ["r^4*ln(r)", "1", "r^-1", "3/2*r^(1/2)*ln(r)^2", "r^-4",
           "z", "r^(1/0)", "ln(r)^-1", "r^", "", "r2", "r 2", "r^3/2", "(r)^(1/2)"]
RATIONALS = ["-1/(z+4)^2", "(z+2)/(z^2+6*z+8)", "z+1", "1/z", "1/(z+10000000000000000)",
             "1/((z+123456789012345678901234567890)*(z+1))",
             "1/(z^2+1)", "1/(z-z)", "1/(abar1*z+1)", "(z^2+1)^-1", "1/0", "", "z^", "((z)",
             "1/(963761198400*z^2+z+963761198400)", "z3", "(z+1)^-2", "1/abar1"]
VECTORS = ["1", "z", "z^3", "zbar^2", "conj(z)", "z^-1", "zbar^0", "x", ""]

# runs in the child: argvs as JSON in argv[1], one record per argv as JSON on stdout
_CHILD = r"""
import contextlib, io, json, sys, traceback
from htoeplitz.cli import main

records = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as e:
            code = e.code
        except Exception:
            code = "raised"
            traceback.print_exc(file=err)
    records.append([code, out.getvalue(), err.getvalue()])
json.dump(records, sys.stdout)
"""


def _workloads():
    spec = importlib.util.spec_from_file_location("_workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # dataclasses look the module up by name
    spec.loader.exec_module(module)
    return module


def standard_requests() -> List[List[str]]:
    argvs = [json.loads(p.read_text())["argv"] for p in sorted((ROOT / "tests" / "golden").glob("*.json"))]
    argvs += [["derive", "--L", str(L), "--N", str(N), "--K", str(K)]
              for L in range(5) for N in range(2, 7) for K in range(7)]
    wl = _workloads()
    for name in wl.WORKLOADS:
        for seed in SEEDS:
            for req in wl.requests(name, seed) + wl.smoke_requests(name, seed):
                argvs.append(list(req.argv))
    argvs.append(["derive", "--L", "20", "--N", "3", "--K", "22"])
    argvs += [["verify", "--f", f, "--u", "z + abar1*conj(z)", "--nmax", "0"]
              for f in ("C1*z + C0 + C1*abar1*conj(z)", "z^2")]
    argvs += [["apply", f"--f={f}", "--v=z"] for f in SYMBOLS]
    argvs += [["apply", "--f=z", f"--v={v}"] for v in VECTORS]
    argvs += [["mellin", "--", phi] for phi in RADIALS]
    argvs += [["invmellin", "--", q] for q in RATIONALS]
    return [list(a) for a in dict.fromkeys(tuple(a) for a in argvs)]


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 tests/report_identity.py OLD_ROOT NEW_ROOT", file=sys.stderr)
        return 2
    roots = [Path(a).resolve() for a in argv]
    requests = standard_requests()
    results = []
    with tempfile.TemporaryFile("w+") as out0, tempfile.TemporaryFile("w+") as out1:
        procs = []
        for root, out in zip(roots, (out0, out1)):   # the two roots run side by side
            env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
            procs.append(subprocess.Popen([sys.executable, "-c", _CHILD, json.dumps(requests)],
                                          cwd=root, env=env, stdout=out, text=True))
        for proc in procs:
            proc.wait()
        for root, proc, out in zip(roots, procs, (out0, out1)):
            if proc.returncode != 0:
                print(f"the run under {root} exited {proc.returncode}", file=sys.stderr)
                return 2
            out.seek(0)
            results.append(json.load(out))
    differ = [req for req, a, b in zip(requests, *results) if a != b]
    for req in differ:
        print("differs:", " ".join(req))
    print(f"{len(requests)} requests, {len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
