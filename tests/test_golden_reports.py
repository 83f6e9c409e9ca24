"""Byte-exact CLI reports for a fixed set of requests.

Each file in tests/golden holds the argv, the exit code and the exact stdout
of ``htoeplitz.cli.main`` for one request.  A refactor of the exact layers
must leave all of them unchanged.  To rewrite the files after an intended
output change, run ``PYTHONPATH=src python -m tests.test_golden_reports``.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from htoeplitz.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"

CASES = {
    "verify-paper": ["verify-paper"],
    "verify-paper-induction": ["verify-paper", "--tags", "induction(2)", "induction(9)"],
    "derive-L1": ["derive", "--L", "1", "--N", "3", "--K", "4"],
    "derive-L2": ["derive", "--L", "2", "--N", "3", "--K", "4"],
    "derive-restart": ["derive", "--L", "1", "--N", "5", "--K", "4"],
    "derive-L1-N6": ["derive", "--L", "1", "--N", "6", "--K", "0"],
    "verify-nonzero": ["verify", "--f", "z^2", "--u", "z+abar1*conj(z)", "--nmax", "8"],
    "verify-nonzero-L3": [
        "verify",
        "--f", "2*(z + abar1*conj(z) + abar2*conj(z)^2 + abar3*conj(z)^3) + 1 - 1/2*e(2)*r^3",
        "--u", "z+abar1*conj(z)+abar2*conj(z)^2+abar3*conj(z)^3",
        "--nmax", "20",
    ],
    "mellin": ["mellin", "r^4*ln(r)"],
    "invmellin": ["invmellin", "(z+2)/(z^2+6*z+8)"],
    "apply": ["apply", "--f", "e(3)*r^3", "--v", "z"],
    "commutator": ["commutator", "--f", "z^2", "--u", "z+abar1*conj(z)", "--v", "z"],
    "verify-nonzero-pretty": [
        "--pretty", "verify", "--f", "z^2", "--u", "z+abar1*conj(z)", "--nmax", "4",
    ],
    "apply-zbar": ["apply", "--f", "z^2+abar1*conj(z)", "--v", "zbar^3"],
}


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return {"argv": list(argv), "exit": code, "stdout": out.getvalue()}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_report(name):
    expected = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
    assert expected["argv"] == CASES[name]
    got = run_cli(CASES[name])
    assert got["exit"] == expected["exit"]
    assert got["stdout"] == expected["stdout"]


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        text = json.dumps(run_cli(argv), indent=2) + "\n"
        (GOLDEN_DIR / f"{name}.json").write_text(text)
