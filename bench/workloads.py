"""Workloads: the request lists the benchmark sends, and the known answers it checks.

Every request is a `htoeplitz` command line.  The program sees only these
argv strings; the seed reaches it only through them.  Each request carries
the exit code it must return and a check of its parsed JSON report against
an answer the engine under test did not produce: the paper's main theorem
(T_f = C1*T_u + C0*I), a hand-written table of the printed lemmas, or the
label a generator gave the request when it built it.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

# Why each workload is in the benchmark; BENCHMARK.json repeats these lines.
WHY = {
    "derive": "whole derivation pipeline plus verify_commute at the main-theorem (L=5) and large (L=10) cases",
    "paper": "telescoping layers and shift search only; never calls apply_quasi, the control for Toeplitz-action changes",
    "verify": "seeded verify stream over L=1..4; the same radial inputs are Mellin-transformed again and again",
    "oracle": "seeded oracle-check; every Mellin input is fresh and log-bearing, and the scipy oracle runs",
}

LEMMA_TAGS = ["4.1", "R4.2", "f0", "f-1", "f-2", "f-3", "f-4",
              "induction(5)", "induction(6)", "induction(7)", "induction(8)"]
# f-1 and f-2 are the two printed formulas that differ from the mechanized ones.
PAPER_MATCH = {tag: tag not in ("f-1", "f-2") for tag in LEMMA_TAGS}

# requests per truncation degree L in one verify pass; uneven so that the
# median request falls inside the L = 3 group, not on the gap between groups
VERIFY_PER_L = {1: 2, 2: 3, 3: 4, 4: 3}
ORACLE_REQUESTS = 5
ORACLE_CASES = 100
ORACLE_TOL = 1e-9

Check = Callable[[dict], Optional[str]]


@dataclass(frozen=True)
class Request:
    argv: Tuple[str, ...]
    expect_exit: int
    check: Check          # returns None when the report is right, else why not


# ---------------------------------------------------------------------------
# a structural reading of the printed radial functions in derive reports
#
# The parser below is the benchmark's own: it reads the rendering of a
# RadialFunction (e.g. "C1*abar2*r^2", "(C0)", "-1/2*r^-1*ln(r)") into a map
# (monomial in the constants, a, b) -> Gaussian rational, so two answers are
# compared as polynomials, not as strings.

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z]+\d*)|([-+*/^()]))")
Term = Tuple[Tuple[Tuple[str, int], ...], Fraction, int]
Poly = Dict[Term, Tuple[Fraction, Fraction]]


def _tokens(text: str) -> List[str]:
    out, pos = [], 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip():
                raise ValueError(f"unexpected character in {text!r} at {pos}")
            break
        out.append(m.group(m.lastindex))
        pos = m.end()
    return out


def _mul(p: Poly, q: Poly) -> Poly:
    out: Poly = {}
    for (m1, a1, b1), (x1, y1) in p.items():
        for (m2, a2, b2), (x2, y2) in q.items():
            exps = dict(m1)
            for name, e in m2:
                exps[name] = exps.get(name, 0) + e
            key = (tuple(sorted(exps.items())), a1 + a2, b1 + b2)
            re_, im_ = out.get(key, (Fraction(0), Fraction(0)))
            out[key] = (re_ + x1 * x2 - y1 * y2, im_ + x1 * y2 + y1 * x2)
    return {k: v for k, v in out.items() if v != (0, 0)}


def _add(p: Poly, q: Poly, sign: int = 1) -> Poly:
    out = dict(p)
    for k, (x, y) in q.items():
        re_, im_ = out.get(k, (Fraction(0), Fraction(0)))
        out[k] = (re_ + sign * x, im_ + sign * y)
    return {k: v for k, v in out.items() if v != (0, 0)}


def _scalar(x: Fraction, y: Fraction = Fraction(0)) -> Poly:
    return {((), Fraction(0), 0): (x, y)} if (x, y) != (0, 0) else {}


class _RadialReader:
    def __init__(self, text: str):
        self.toks = _tokens(text)
        self.i = 0

    def peek(self) -> str:
        return self.toks[self.i] if self.i < len(self.toks) else ""

    def take(self, want: Optional[str] = None) -> str:
        tok = self.peek()
        if want is not None and tok != want:
            raise ValueError(f"expected {want!r}, found {tok!r}")
        self.i += 1
        return tok

    def read(self) -> Poly:
        out = self.expr()
        if self.peek():
            raise ValueError(f"trailing input {self.peek()!r}")
        return out

    def expr(self) -> Poly:
        sign = -1 if self.peek() == "-" else 1
        if self.peek() in ("+", "-"):
            self.take()
        out = _add({}, self.term(), sign)
        while self.peek() in ("+", "-"):
            sign = -1 if self.take() == "-" else 1
            out = _add(out, self.term(), sign)
        return out

    def term(self) -> Poly:
        out = self.factor()
        while self.peek() == "*":
            self.take()
            out = _mul(out, self.factor())
        return out

    def signed_rat(self) -> Fraction:
        sign = -1 if self.peek() == "-" else 1
        if self.peek() == "-":
            self.take()
        x = Fraction(int(self.take()))
        if self.peek() == "/":
            self.take()
            x /= int(self.take())
        return sign * x

    def factor(self) -> Poly:
        tok = self.take()
        if tok == "(":
            out = self.expr()
            self.take(")")
            return out
        if tok.isdigit():
            x = Fraction(int(tok))
            if self.peek() == "/":
                self.take()
                x /= int(self.take())
            if self.peek() == "i":
                self.take()
                return _scalar(Fraction(0), x)
            return _scalar(x)
        if tok == "i":
            return _scalar(Fraction(0), Fraction(1))
        if tok == "r":
            a = Fraction(1)
            if self.peek() == "^":
                self.take()
                a = self.signed_rat()
            return {((), a, 0): (Fraction(1), Fraction(0))}
        if tok == "ln":
            self.take("(")
            self.take("r")
            self.take(")")
            b = 1
            if self.peek() == "^":
                self.take()
                b = int(self.take())
            return {((), Fraction(0), b): (Fraction(1), Fraction(0))}
        if re.fullmatch(r"(C|Cm|abar)\d+", tok):
            e = 1
            if self.peek() == "^":
                self.take()
                e = int(self.take())
            return {(((tok, e),), Fraction(0), 0): (Fraction(1), Fraction(0))}
        raise ValueError(f"unexpected token {tok!r}")


def read_radial(text: str) -> Poly:
    """The printed radial function as a polynomial map; ValueError if unreadable."""
    return _RadialReader(text).read()


def main_theorem_components(L: int) -> Dict[int, Poly]:
    """The components of C1*u + C0 for u = z + sum_{l<=L} abar_l conj(z)^l."""
    one = (Fraction(1), Fraction(0))
    comps = {1: {((("C1", 1),), Fraction(1), 0): one},
             0: {((("C0", 1),), Fraction(0), 0): one}}
    for l in range(1, L + 1):
        comps[-l] = {((("C1", 1), (f"abar{l}", 1)), Fraction(l), 0): one}
    return comps


# ---------------------------------------------------------------------------
# known-answer checks


def check_derive(L: int) -> Check:
    expected = main_theorem_components(L)

    def check(report: dict) -> Optional[str]:
        res = report["result"]
        if sorted(res["survivors"]) != ["C0", "C1"]:
            return f"survivors {res['survivors']}, expected C1 and C0"
        if res["commutes"] is not True:
            return "derived symbol does not commute"
        try:
            got = {int(k): read_radial(v) for k, v in res["components"].items()}
        except ValueError as exc:
            return f"unreadable component: {exc}"
        if got != expected:
            return f"final symbol {res['final_symbol']} is not C1*u + C0"
        return None

    return check


def check_paper(tags: List[str]) -> Check:
    def check(report: dict) -> Optional[str]:
        res = report["result"]
        if res["sound"] is not True:
            return "verify-paper reports unsound"
        got = [entry["tag"] for entry in res["lemmas"]]
        if got != tags:
            return f"lemma tags {got}, expected {tags}"
        for entry in res["lemmas"]:
            if entry["derived_satisfies_equation"] is not True:
                return f"{entry['tag']}: derived formula fails its equation"
            if entry["match"] is not PAPER_MATCH[entry["tag"]]:
                return f"{entry['tag']}: match {entry['match']}, expected {PAPER_MATCH[entry['tag']]}"
        return None

    return check


def check_verify(commutes: bool) -> Check:
    def check(report: dict) -> Optional[str]:
        if report["result"]["commutes"] is not commutes:
            return f"commutes {report['result']['commutes']}, generator built {commutes}"
        return None

    return check


def check_oracle(cases: int) -> Check:
    def check(report: dict) -> Optional[str]:
        res = report["result"]
        if res["cases"] != cases or res["tol"] != ORACLE_TOL:
            return f"ran {res['cases']} cases at tol {res['tol']}"
        if res["failures"]:
            return f"{len(res['failures'])} oracle disagreements, first {res['failures'][0]}"
        return None

    return check


# ---------------------------------------------------------------------------
# request lists


def _derive(L: int, N: int, K: int) -> Request:
    argv = ("derive", "--L", str(L), "--N", str(N), "--K", str(K))
    return Request(argv, 0, check_derive(L))


def _paper(tags: Optional[List[str]] = None) -> Request:
    argv = ("verify-paper",) if tags is None else ("verify-paper", "--tags", *tags)
    return Request(argv, 0, check_paper(tags or LEMMA_TAGS))


def _rat(rng: random.Random) -> Fraction:
    """A nonzero rational with small numerator and denominator."""
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 4))


def _signed(x: Fraction) -> str:
    return f"- {-x}" if x < 0 else f"+ {x}"


def u_expr(L: int) -> str:
    return " + ".join(["z"] + [f"abar{l}*conj(z)^{l}" for l in range(1, L + 1)])


def verify_request(rng: random.Random, L: int, commutes: bool) -> Request:
    """f = c1*(u) + c0, plus c*e(k)*r^a for a request that must not commute.

    C1*T_u + C0*I commutes with T_u by linearity of f -> T_f; by the main
    theorem nothing else does, so any nonzero c*e(k)*r^a with a >= |k|
    breaks commutation.  (k, a) = (0, 0) is a constant and is excluded.
    """
    u = u_expr(L)
    f = f"{_rat(rng)}*({u}) {_signed(_rat(rng))}"
    if not commutes:
        k = rng.randint(-3, 3)
        a = rng.randint(max(abs(k), 1 if k == 0 else 0), abs(k) + 3)
        f += f" {_signed(_rat(rng))}*e({k})*r^{a}"
    argv = ("verify", "--f", f, "--u", u, "--nmax", "20")
    return Request(argv, 0 if commutes else 1, check_verify(commutes))


def _oracle(seed: int, cases: int) -> Request:
    argv = ("oracle-check", "--cases", str(cases), "--tol", repr(ORACLE_TOL), "--seed", str(seed))
    return Request(argv, 0, check_oracle(cases))


def requests(workload: str, seed: int) -> List[Request]:
    """The fixed request list of one pass over `workload` at `seed`."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "derive":
        return [_derive(5, 3, 8), _derive(10, 3, 12)]
    if workload == "paper":
        return [_paper()]
    if workload == "verify":
        # stratified by L so every seed carries the same mix of sizes; half commute
        sizes = [L for L, n in VERIFY_PER_L.items() for _ in range(n)]
        plan = [(L, j % 2 == 0) for j, L in enumerate(sizes)]
        rng.shuffle(plan)
        return [verify_request(rng, L, commutes) for L, commutes in plan]
    if workload == "oracle":
        return [_oracle(rng.randrange(2**31), ORACLE_CASES) for _ in range(ORACLE_REQUESTS)]
    raise ValueError(f"unknown workload {workload!r}")


def smoke_requests(workload: str, seed: int) -> List[Request]:
    """One small request per workload (two for verify: one of each label)."""
    rng = random.Random(f"{workload}:smoke:{seed}")
    if workload == "derive":
        return [_derive(1, 3, 4)]
    if workload == "paper":
        return [_paper(["4.1", "f-1"])]
    if workload == "verify":
        return [verify_request(rng, 1, True), verify_request(rng, 1, False)]
    if workload == "oracle":
        return [_oracle(rng.randrange(2**31), 10)]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = list(WHY)
