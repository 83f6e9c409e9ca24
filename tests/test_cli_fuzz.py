"""Boundary fuzz of the command line, 8 seeded draws per subcommand.

Every argv ends in exit 0, 1 or 2 (argparse usage errors arrive as
SystemExit), no other exception escapes ``cli.main``, and whatever it
writes to stdout is one RunReport that validates against the schema.
"""

import contextlib
import io
import json

import jsonschema
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from htoeplitz.cli import main
from tests.test_cli import SCHEMA

BAD_INTS = ["-1", "x", "", "1.5", "1e3"]


def mixed(good, bad):
    """Three draws in four from the valid values, one from the invalid ones."""
    return st.integers(0, 3).flatmap(lambda i: st.sampled_from(bad if i == 0 else good))


def ints(lo, hi):
    """Valid values lo..hi, or the value just below lo, or an unreadable one."""
    return mixed([str(n) for n in range(lo, hi + 1)], [str(lo - 1)] + BAD_INTS)


TOLS = mixed(["1e-9", "1", "5e-324"], ["0", "-1e-9", "nan", "inf", "x", ""])
TAGS = mixed(
    ["4.1", "R4.2", "f0", "f-1", "f-4", "induction(2)"], ["f-5", "induction(1)", "foo", ""]
)
SYMBOLS = mixed(
    [
        "z", "z^2", "conj(z)", "C1*z + C0", "z + abar1*conj(z)", "e(3)*r^3", "e(-1)*r^-1",
        "r^4*ln(r)", "-z",
        # not integrable: a mathematical failure, exit 1
        "r^-4", "z + e(1)*r^-2*ln(r)",
    ],
    ["abar1^0", "ln(r)^-1", "1/0", "r^(1/0)", "z^^2", "conj(", "", "foo", "e(x)"],
)
RADIALS = mixed(
    ["r^4*ln(r)", "1", "r^-1", "3/2*r^(1/2)*ln(r)^2", "r^-4"],
    ["z", "r^(1/0)", "ln(r)^-1", "r^", ""],
)
RATIONALS = mixed(
    ["-1/(z+4)^2", "(z+2)/(z^2+6*z+8)", "z+1", "1/z", "1/(z+10000000000000000)",
     "1/((z+123456789012345678901234567890)*(z+1))"],
    ["1/(z^2+1)", "1/(z-z)", "1/(abar1*z+1)", "(z^2+1)^-1", "1/0", "", "z^", "((z)",
     "1/(963761198400*z^2+z+963761198400)"],
)
VECTORS = mixed(["1", "z", "z^3", "zbar^2"], ["conj(z)", "z^-1", "zbar^0", "x", ""])
# short random text over the expression alphabet reaches the parsers' error paths
TEXT = st.text(alphabet="zr^()*/+-0123456789e.lnabC", max_size=8)


def _opt(name, values):
    """An optional flag, written "--flag=value" so that "-1" is read as a value."""
    return st.one_of(st.just([]), values.map(lambda v: [f"{name}={v}"]))


def _req(name, values):
    return values.map(lambda v: [f"{name}={v}"])


def _cat(*parts):
    return st.tuples(*parts).map(lambda lists: [tok for part in lists for tok in part])


COMMANDS = {
    "mellin": _cat(st.just(["mellin"]), st.one_of(RADIALS, TEXT).map(lambda e: [e])),
    "invmellin": _cat(st.just(["invmellin"]), st.one_of(RATIONALS, TEXT).map(lambda e: [e])),
    "apply": _cat(st.just(["apply"]), _req("--f", st.one_of(SYMBOLS, TEXT)), _req("--v", VECTORS)),
    "commutator": _cat(
        st.just(["commutator"]), _req("--f", SYMBOLS), _req("--u", SYMBOLS), _req("--v", VECTORS)
    ),
    "verify": _cat(
        st.just(["verify"]), _req("--f", SYMBOLS), _req("--u", SYMBOLS), _opt("--nmax", ints(0, 4))
    ),
    "derive": _cat(
        st.just(["derive"]),
        _req("--L", ints(0, 3)), _req("--N", ints(2, 4)), _req("--K", ints(0, 4)),
        _opt("--nmax", ints(0, 4)),
    ),
    "verify-paper": _cat(
        st.just(["verify-paper"]),
        st.one_of(st.just([]), st.lists(TAGS, max_size=3).map(lambda t: ["--tags"] + t)),
    ),
    "oracle-check": _cat(
        st.just(["oracle-check"]),
        _opt("--cases", ints(1, 3)), _opt("--tol", TOLS), _opt("--seed", ints(0, 3)),
    ),
}


@pytest.mark.parametrize("command", COMMANDS)
@settings(
    derandomize=True, max_examples=8, deadline=None, report_multiple_bugs=False,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_cli_exit_code_and_report_contract(command, data):
    argv = data.draw(COMMANDS[command], label="argv")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    if out.getvalue():
        jsonschema.validate(json.loads(out.getvalue()), SCHEMA)
