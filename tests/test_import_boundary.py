"""The exact engine never imports scipy; only the quadrature oracle does;
the command line starts without dataclasses or inspect; and every public
name the package exports resolves.

Each check runs in a fresh interpreter, so that no earlier test has
already put scipy into ``sys.modules`` or imported a module by itself.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

EXACT_COMMANDS = """
import contextlib, io, json, sys
import htoeplitz, htoeplitz.cli
from htoeplitz.cli import build_parser, main

build_parser()
with contextlib.redirect_stdout(io.StringIO()):
    codes = [
        main(["derive", "--L", "1", "--N", "3", "--K", "4"]),
        main(["verify", "--f", "C1*z + C0", "--u", "z", "--nmax", "4"]),
    ]
print(json.dumps({"codes": codes, "scipy": "scipy" in sys.modules}))
"""

ORACLE_COMMAND = """
import contextlib, io, json, sys
from htoeplitz.cli import main

out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = main(["oracle-check", "--cases", "2"])
report = json.loads(out.getvalue())
print(json.dumps({"code": code, "status": report["status"], "scipy": "scipy" in sys.modules}))
"""

STARTUP = """
import json, sys
import htoeplitz.cli

htoeplitz.cli.build_parser()
print(json.dumps({name: name in sys.modules for name in ("dataclasses", "inspect")}))
"""

STAR_IMPORT = """
import json
import htoeplitz
from htoeplitz import *

print(json.dumps({"missing": [n for n in htoeplitz.__all__ if n not in globals()]}))
"""


def run_fresh(code: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_exact_commands_leave_scipy_unimported():
    out = run_fresh(EXACT_COMMANDS)
    assert out["codes"] == [0, 0]
    assert out["scipy"] is False


def test_oracle_check_loads_scipy_on_demand():
    out = run_fresh(ORACLE_COMMAND)
    assert out == {"code": 0, "status": "ok", "scipy": True}


def test_cli_start_up_loads_neither_dataclasses_nor_inspect():
    # each would load inspect, dis and tokenize, and exec the generated methods
    assert run_fresh(STARTUP) == {"dataclasses": False, "inspect": False}


def test_every_export_resolves_through_star_import():
    # a name left in __all__ after its definition is deleted makes the import raise
    assert run_fresh(STAR_IMPORT) == {"missing": []}
