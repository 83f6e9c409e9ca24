"""Command-line front end.

Every command writes a RunReport as JSON to stdout (pretty text with
--pretty).  Exit status: 0 on success, 1 on a mathematical failure
(nonzero residual, non-integrable symbol, divergent quadrature, solver
soundness failure, a rational function with no inverse Mellin transform, a
failed telescoping solve), 2 on a usage error.  The report shape is fixed by
schema/runreport.schema.json.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from fractions import Fraction

from .derive import ALL_LEMMA_TAGS, TelescopeError, check_lemma_tag, reproduce_lemma, run_pipeline
from .exactalg import Coeff, GaussianRational
from .mellin import MellinInversionError, inverse_mellin, mellin
from .oracle import QuadratureDivergenceError, apply_numeric, compare
from .parser import (
    ParseError,
    parse_basis_vector,
    parse_radial_expr,
    parse_rational_expr,
    parse_symbol_expr,
)
from .radial import RadialFunction
from .toeplitz import (
    NonIntegrableSymbolError,
    apply_quasi,
    apply_symbol,
    basis_label,
    commutator_residual,
    u_symbol,
    verify_commute,
)

SCHEMA_ID = "htoeplitz/runreport/2"
_PARSER = None   # built by the first call of main, then reused: parse_args keeps no state


def _report(command, inputs, result, warnings=(), ok=True):
    return {
        "schema": SCHEMA_ID,
        "command": command,
        "inputs": inputs,
        "result": result,
        "warnings": list(warnings),
        "status": "ok" if ok else "fail",
    }


def _int_at_least(lo: int):
    """An argparse type: an integer >= lo, else a usage error (exit 2)."""
    def parse(text: str) -> int:
        n = int(text)
        if n < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {n}")
        return n

    parse.__name__ = "int"   # argparse names the type in "invalid int value"
    return parse


def _positive_float(text: str) -> float:
    """An argparse type: a finite float > 0, else a usage error (exit 2)."""
    x = float(text)
    if not (0 < x < math.inf):
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text}")
    return x


_positive_float.__name__ = "float"


def _lemma_tag(text: str) -> str:
    """An argparse type: a tag that reproduce_lemma knows, else a usage error."""
    try:
        return check_lemma_tag(text)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


# ---------------------------------------------------------------------------
# command bodies: each returns (result, warnings, ok, pretty_lines)


def _cmd_mellin(args):
    phi = parse_radial_expr(args.expr)
    a = mellin(phi)
    result = {"input": str(phi), "result": a.render(), "rational": a.to_json()}
    return result, [], True, [f"{phi}  ->  {a.render()}"]


def _cmd_invmellin(args):
    a = parse_rational_expr(args.expr)
    phi = inverse_mellin(a)
    result = {"input": a.render(), "result": str(phi), "radial": phi.to_json()}
    return result, [], True, [f"{a.render()}  ->  {phi}"]


def _cmd_apply(args):
    f = parse_symbol_expr(args.f)
    m = parse_basis_vector(args.v)
    out = apply_symbol(f, m)
    result = {"f": str(f), "v": basis_label(m), "image": out.to_json()}
    return result, [], True, [f"T_f {basis_label(m)} = {out}"]


def _cmd_commutator(args):
    f = parse_symbol_expr(args.f)
    u = parse_symbol_expr(args.u)
    m = parse_basis_vector(args.v)
    res = commutator_residual(f, u, m)
    ok = res.is_zero()
    result = {
        "f": str(f),
        "u": str(u),
        "v": basis_label(m),
        "residual": res.to_json(),
        "zero": ok,
    }
    line = f"[T_f, T_u] {basis_label(m)} = {res}"
    return result, [], ok, [line]


def _cmd_verify(args):
    f = parse_symbol_expr(args.f)
    u = parse_symbol_expr(args.u)
    report = verify_commute(f, u, args.nmax)
    result = report.to_json()
    result["f"] = str(f)
    result["u"] = str(u)
    lines = [f"commutes: {report.commutes} (threshold n0* = {report.threshold})"]
    for m, res in report.witnesses:
        lines.append(f"witness {basis_label(m)}: {res}")
    return result, [], report.commutes, lines


def _cmd_derive(args):
    u = u_symbol(args.L)
    report = run_pipeline(u, args.N, args.K, n_max=args.nmax)
    result = report.to_json()
    warnings = list(report.notes)
    lines = [
        f"u truncated at L = {args.L}; N_start = {args.N}, K_max = {args.K}",
        f"effective top degree: {report.effective_top_degree}",
        f"survivors: {', '.join(report.survivors) or '(none)'}",
        f"f = {report.final_symbol}",
        f"commutes: {report.commutes}",
    ]
    return result, warnings, report.commutes, lines


def _cmd_verify_paper(args):
    tags = args.tags or ALL_LEMMA_TAGS
    entries = []
    warnings = []
    for tag in tags:
        rep = reproduce_lemma(tag)
        entries.append(rep.to_json())
        if not rep.match:
            warnings.append(
                f"{tag}: printed formula differs from the mechanized one; "
                f"printed satisfies the equation: {rep.printed_satisfies_equation}"
            )
    result = {"lemmas": entries, "sound": True}   # a failed solve raised TelescopeError
    lines = []
    for rep in entries:
        verdict = "match" if rep["match"] else "MISMATCH"
        lines.append(f"{rep['tag']}: {verdict}")
    return result, warnings, True, lines


def _random_radial(rng: random.Random) -> RadialFunction:
    phi = RadialFunction.zero
    for _ in range(rng.randint(1, 3)):
        a = rng.randint(-1, 6)
        b = rng.randint(0, 2)
        c = GaussianRational(
            Fraction(rng.randint(-8, 8), rng.randint(1, 4)),
            Fraction(rng.randint(-8, 8), rng.randint(1, 4)),
        )
        phi = phi + RadialFunction.term(Coeff.const(c), a, b)
    return phi


def _cmd_oracle_check(args):
    rng = random.Random(args.seed)
    failures = []
    worst = 0.0
    for case in range(args.cases):
        k = rng.randint(-4, 4)
        phi = _random_radial(rng)
        m = rng.randint(0, 8) * rng.choice((1, -1))   # z^n or zbar^n
        sym = apply_quasi(k, phi, m)
        try:
            num = apply_numeric(k, phi, m)
        except QuadratureDivergenceError as e:
            failures.append({"case": case, "error": str(e)})
            continue
        cmp = compare(sym, num, tol=args.tol)
        worst = max(worst, cmp["max_diff"])
        if not cmp["ok"]:
            failures.append(
                {
                    "case": case,
                    "k": k,
                    "phi": str(phi),
                    "v": basis_label(m),
                    "max_diff": cmp["max_diff"],
                    "worst_entry": cmp["worst_entry"],
                }
            )
    ok = not failures
    result = {
        "cases": args.cases,
        "seed": args.seed,
        "tol": args.tol,
        "max_diff": worst,
        "failures": failures,
    }
    lines = [
        f"{args.cases} randomized cases, seed {args.seed}",
        f"max engine/oracle difference: {worst:.3e} (tolerance {args.tol:g})",
        f"failures: {len(failures)}",
    ]
    return result, [], ok, lines


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="htoeplitz",
        description="Exact Toeplitz-operator calculus on the harmonic Bergman space.",
    )
    parser.add_argument("--pretty", action="store_true", help="human-readable text instead of JSON")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mellin", help="Mellin transform of a radial function")
    p.add_argument("expr", help="radial expression, e.g. 'r^4*ln(r)'")
    p.set_defaults(body=_cmd_mellin)

    p = sub.add_parser("invmellin", help="inverse Mellin transform of a rational function")
    p.add_argument("expr", help="rational expression in z, e.g. '-1/(z+4)^2'")
    p.set_defaults(body=_cmd_invmellin)

    p = sub.add_parser("apply", help="apply a Toeplitz operator to a basis vector")
    p.add_argument("--f", required=True, help="symbol expression")
    p.add_argument("--v", required=True, help="basis vector: 1, z^n or zbar^n")
    p.set_defaults(body=_cmd_apply)

    p = sub.add_parser("commutator", help="commutator residual on one basis vector")
    p.add_argument("--f", required=True)
    p.add_argument("--u", required=True)
    p.add_argument("--v", required=True)
    p.set_defaults(body=_cmd_commutator)

    p = sub.add_parser("verify", help="verify [T_f, T_u] = 0 exactly")
    p.add_argument("--f", required=True)
    p.add_argument("--u", required=True)
    p.add_argument("--nmax", type=_int_at_least(0), default=20)
    p.set_defaults(body=_cmd_verify)

    p = sub.add_parser("derive", help="derive all symbols commuting with T_u")
    p.add_argument("--L", type=_int_at_least(0), required=True, help="truncation degree of u")
    p.add_argument("--N", type=_int_at_least(2), required=True, help="starting top degree of f")
    p.add_argument("--K", type=_int_at_least(0), required=True, help="deepest conjugate degree")
    p.add_argument("--nmax", type=_int_at_least(0), default=20)
    p.set_defaults(body=_cmd_derive)

    p = sub.add_parser("verify-paper", help="re-derive the published formulas and diff")
    p.add_argument("--tags", nargs="*", type=_lemma_tag, help="restrict to these lemma tags")
    p.set_defaults(body=_cmd_verify_paper)

    p = sub.add_parser("oracle-check", help="randomized engine-vs-quadrature battery")
    p.add_argument("--cases", type=_int_at_least(1), default=100)
    p.add_argument("--tol", type=_positive_float, default=1e-9)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(body=_cmd_oracle_check)

    return parser


def _inputs_echo(args) -> dict:
    skip = {"command", "body", "pretty"}
    return {key: val for key, val in vars(args).items() if key not in skip and val is not None}


def _guard_leading_minus(argv):
    """Keep expressions like '-1/(z+4)^2' from being read as flags: glue one
    to its --f or --u ('--f=-z'), or insert '--' before a positional one."""
    out = []
    for tok in argv:
        if out and out[-1] in ("--f", "--u") and tok.startswith("-") and not tok.startswith("--"):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    for i, tok in enumerate(out):
        if tok in ("mellin", "invmellin") and "--" not in out:
            rest = out[i + 1:]
            if any(t.startswith("-") and t not in ("-h", "--help") for t in rest):
                return out[: i + 1] + ["--"] + rest
    return out


def main(argv=None) -> int:
    global _PARSER
    _PARSER = _PARSER or build_parser()
    args = _PARSER.parse_args(_guard_leading_minus(sys.argv[1:] if argv is None else argv))
    try:
        result, warnings, ok, lines = args.body(args)
    except ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (MellinInversionError, NonIntegrableSymbolError, TelescopeError) as e:
        report = _report(args.command, _inputs_echo(args), {"error": str(e)}, [], ok=False)
        print(json.dumps(report, indent=2))
        return 1
    report = _report(args.command, _inputs_echo(args), result, warnings, ok=ok)
    if args.pretty:
        for line in lines:
            print(line)
        for w in warnings:
            print(f"warning: {w}")
        print(f"status: {report['status']}")
    else:
        print(json.dumps(report, indent=2))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
