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
- ``derive --L 20 --N 3 --K 22``.

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
