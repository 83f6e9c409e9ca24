import json

import jsonschema
import pytest

from htoeplitz.cli import main

try:
    from importlib.resources import files

    SCHEMA = json.loads(
        files("htoeplitz").joinpath("schema/runreport.schema.json").read_text()
    )
except Exception:  # pragma: no cover
    SCHEMA = None


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    report = json.loads(out)
    jsonschema.validate(report, SCHEMA)
    return code, report


def test_mellin(capsys):
    code, report = run_json(capsys, "mellin", "r^4*ln(r)")
    assert code == 0
    assert report["result"]["result"] == "-1/(z+4)^2"
    assert report["status"] == "ok"


def test_invmellin_negative_literal(capsys):
    code, report = run_json(capsys, "invmellin", "-1/(z+4)^2")
    assert code == 0
    assert report["result"]["result"] == "r^4*ln(r)"


def test_invmellin_improper_is_math_failure(capsys):
    code, report = run_json(capsys, "invmellin", "z+1")
    assert code == 1
    assert report["status"] == "fail"


def test_apply(capsys):
    code, report = run_json(capsys, "apply", "--f", "e(3)*r^3", "--v", "z")
    assert code == 0
    assert report["result"]["image"] == {"z^4": "1"}


def test_apply_renders_negative_radial_part_with_minus(capsys):
    code, report = run_json(capsys, "apply", "--f", "z - 1", "--v", "1")
    assert code == 0
    assert report["result"]["f"] == "e(1)*(r) - 1"


def test_commutator_nonzero_exits_1(capsys):
    code, report = run_json(
        capsys, "commutator", "--f", "z^2", "--u", "z + abar1*conj(z)", "--v", "z"
    )
    assert code == 1
    assert report["result"]["residual"] == {"z^2": "-1/4*abar1"}


def test_verify_failure(capsys):
    code, report = run_json(
        capsys, "verify", "--f", "z^2", "--u", "z + abar1*conj(z)", "--nmax", "8"
    )
    assert code == 1
    assert report["result"]["witnesses"]


def test_verify_success(capsys):
    code, report = run_json(
        capsys, "verify",
        "--f", "C1*z + C0 + C1*abar1*conj(z)",
        "--u", "z + abar1*conj(z)",
        "--nmax", "10",
    )
    assert code == 0
    assert report["result"]["commutes"] is True


def test_derive(capsys):
    code, report = run_json(capsys, "derive", "--L", "1", "--N", "3", "--K", "4")
    assert code == 0
    assert report["result"]["survivors"] == ["C1", "C0"]
    assert report["result"]["commutes"] is True


def test_verify_paper_warns_but_passes(capsys):
    code, report = run_json(capsys, "verify-paper", "--tags", "R4.2", "f-1")
    assert code == 0
    assert report["result"]["sound"] is True
    assert any("f-1" in w for w in report["warnings"])


def test_oracle_check(capsys):
    code, report = run_json(
        capsys, "oracle-check", "--cases", "20", "--seed", "3", "--tol", "1e-9"
    )
    assert code == 0
    assert report["result"]["failures"] == []
    assert report["result"]["max_diff"] < 1e-9


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["derive", "--L", "1"])
    assert exc.value.code == 2


def test_parse_error_exit_2(capsys):
    code, out = run(capsys, "mellin", "r^^")
    assert code == 2
    # only the canonical spellings name an indeterminate: C01 is not C1
    for name in ("C01", "C00", "Cm0", "abar01"):
        code, out = run(capsys, "apply", "--f", f"{name}*z + C1*z", "--v", "1")
        assert (code, out) == (2, "")
    code, report = run_json(capsys, "apply", "--f", "C0*C10*Cm1*z", "--v", "1")
    assert code == 0
    assert report["result"]["image"] == {"z": "C10*C0*Cm1"}


def test_pretty_flag_does_not_change_exit_code(capsys):
    code_json, _ = run(capsys, "verify", "--f", "z^2", "--u", "z + abar1*conj(z)")
    code_pretty, out = run(
        capsys, "--pretty", "verify", "--f", "z^2", "--u", "z + abar1*conj(z)"
    )
    assert code_json == code_pretty == 1
    assert "witness" in out


@pytest.mark.parametrize(
    "argv, term",
    [
        (["apply", "--f", "r^-4", "--v", "1"], "r^-4"),
        (["verify", "--f", "r^-10", "--u", "z"], "r^-10"),
        (["verify", "--f", "z", "--u", "z + e(1)*r^-2*ln(r)"], "r^-2*ln(r)"),
        (["commutator", "--f", "r^-3", "--u", "z", "--v", "z"], "r^-3"),
    ],
)
def test_non_integrable_symbol_is_math_failure(capsys, argv, term):
    # r^a (ln r)^b with a <= -2 is not in L^1(r dr): no Toeplitz operator,
    # so no analytically continued Mellin value and no traceback either
    code, report = run_json(capsys, *argv)
    assert code == 1
    assert report["status"] == "fail"
    assert "not integrable" in report["result"]["error"]
    assert f"term {term} " in report["result"]["error"]


def test_integrable_boundary_still_applies(capsys):
    # a = -1 is integrable against r dr: T z = 2(n+1) phihat(2n+2) z = 4 * 1/3 z
    code, report = run_json(capsys, "apply", "--f", "r^-1", "--v", "z")
    assert code == 0
    assert report["result"]["image"] == {"z": "4/3"}


@pytest.mark.parametrize(
    "expr, column",
    [
        ("1/0", 3),              # zero literal denominator
        ("r^(1/0)", 6),          # zero exponent denominator
        ("1/(z-z)", 3),          # divisor that cancels to 0
        ("1/(z^2+1)", 3),        # divisor with no rational root
        ("1/(abar1*z+1)", 3),    # divisor with a symbolic root
        ("(z^2+1)^-1", 1),       # the same through a negative power
    ],
)
def test_bad_divisor_is_usage_error(capsys, expr, column):
    command = "mellin" if expr.startswith("r") else "invmellin"
    code = main([command, expr])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"(column {column})" in captured.err


_RANGE_BASE = {
    "derive": ["derive", "--L", "0", "--N", "2", "--K", "0", "--nmax", "0"],
    "verify": ["verify", "--f", "z", "--u", "z", "--nmax", "0"],
}


@pytest.mark.parametrize(
    "command, flag, bound",
    [
        ("derive", "--L", 0),
        ("derive", "--N", 2),
        ("derive", "--K", 0),
        ("derive", "--nmax", 0),
        ("verify", "--nmax", 0),
    ],
)
def test_out_of_range_flag_is_usage_error(capsys, command, flag, bound):
    def argv_with(value):
        argv = list(_RANGE_BASE[command])
        argv[argv.index(flag) + 1] = str(value)
        return argv

    with pytest.raises(SystemExit) as exc:
        main(argv_with(bound - 1))
    assert exc.value.code == 2
    assert f"argument {flag}: must be >= {bound}, got {bound - 1}" in capsys.readouterr().err
    # the first valid value runs: exit 0 or a mathematical verdict, not a usage error
    assert main(argv_with(bound)) in (0, 1)


@pytest.mark.parametrize("tag", ["foo", "induction(1)", "induction(x)", "induction()", "f-5"])
def test_unknown_lemma_tag_is_usage_error(capsys, tag):
    with pytest.raises(SystemExit) as exc:
        main(["verify-paper", "--tags", "f0", tag])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert f"argument --tags: unknown lemma tag {tag!r}" in captured.err


def test_lowest_induction_tag_runs(capsys):
    code, report = run_json(capsys, "verify-paper", "--tags", "induction(2)")
    assert code == 0
    assert [e["tag"] for e in report["result"]["lemmas"]] == ["induction(2)"]


@pytest.mark.parametrize(
    "flag, bad, message, first_valid",
    [
        ("--cases", "0", "must be >= 1, got 0", "1"),
        ("--cases", "-3", "must be >= 1, got -3", "1"),
        ("--tol", "0", "must be finite and > 0, got 0", "5e-324"),
        ("--tol", "-1e-9", "must be finite and > 0, got -1e-9", "5e-324"),
        ("--tol", "nan", "must be finite and > 0, got nan", "5e-324"),
        ("--tol", "inf", "must be finite and > 0, got inf", "1.7976931348623157e308"),
    ],
)
def test_oracle_check_range_is_usage_error(capsys, flag, bad, message, first_valid):
    def argv_with(value):
        # "--flag=value", so that a negative value is not read as a flag
        opts = {"--cases": "2", "--tol": "1e-9", flag: value}
        return ["oracle-check"] + [f"{k}={v}" for k, v in opts.items()]

    with pytest.raises(SystemExit) as exc:
        main(argv_with(bad))
    assert exc.value.code == 2
    assert f"argument {flag}: {message}" in capsys.readouterr().err
    code, report = run_json(capsys, *argv_with(first_valid))
    assert code in (0, 1)
    assert report["result"][flag[2:]] == float(first_valid)


def test_oracle_check_bind_refuses_unknown_name(capsys):
    for name in ("foo", "C01", "C00", "Cm0", "abar01"):
        with pytest.raises(SystemExit) as exc:
            main(["oracle-check", "--cases", "2", "--bind", f"{name}=1"])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert f"argument --bind: {name!r} is not an indeterminate" in captured.err
    for name in ("C0", "C10", "Cm1"):
        code, report = run_json(capsys, "oracle-check", "--cases", "2", "--bind", f"{name}=1")
        assert code == 0
        assert report["inputs"]["bind"] == {name: [1.0, 0.0]}


def test_oracle_check_bind_warns_when_no_case_uses_it(capsys):
    code, report = run_json(capsys, "oracle-check", "--cases", "2", "--bind", "abar1=0.3")
    assert code == 0
    assert report["inputs"]["bind"] == {"abar1": [0.3, 0.0]}
    assert report["warnings"] == ["--bind abar1: no case uses this indeterminate"]
