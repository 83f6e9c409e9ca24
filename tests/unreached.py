"""Unreached code: which statements of src/htoeplitz does nothing run?

Run from anywhere:  python3 tests/unreached.py

A ``sys.settrace`` line tracer watches the modules of src/htoeplitz, and
only them, while two runs go in this one process:
1. Tier-1: pytest on tests/, from the project root;
2. the standard requests of tests/report_identity.py through ``cli.main``.
   That set holds every ``requests`` and ``smoke_requests`` entry of each
   workload in bench/workloads.py at seeds 0, 1, 2 and 7.

It then prints each statement that never ran, as ``file:line: source``, and
each function that Tier-1 calls but no request reaches, then the run time.
A statement counts as run when any line of its own (the header of a compound
statement, the whole of a simple one) that carries bytecode ran; lines with
no bytecode, such as a function's docstring, are not statements here.  Code
that only a subprocess runs (the demos, the benchmark smoke run) is not seen.
The tracer is installed before ``htoeplitz`` is first imported, so import-time
statements count.

The list of statements that never ran is information.  The functions that
only Tier-1 reaches are checked against ``TIER1_ONLY``, which names each one
that is kept with its reason.  The script exits 1 when another function is
reached only by Tier-1 (move it to the tests, or delete it), or when a name
in ``TIER1_ONLY`` is stale: a request reaches it, or Tier-1 does not.  It
exits 0 otherwise, and 2 if it could not run.

The name has no test_ prefix, so pytest does not collect this file.  It uses
the standard library and pytest only.
"""

from __future__ import annotations

import ast
import contextlib
import inspect
import io
import os
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PKG = ROOT / "src" / "htoeplitz"

# "file:qualname" of each function that only Tier-1 may reach, and why it stays
TIER1_ONLY = {
    "cli.py:_int_at_least": "builds the flag types of the parser, which Tier-1 builds "
                            "first and main caches for the rest of the process",
    "cli.py:build_parser": "the same cached parser",
    "exactalg.py:GaussianRational.__sub__": "ring arithmetic that the tests use",
    "exactalg.py:GaussianRational.__hash__": "the hash protocol of a value with __eq__",
    "exactalg.py:Terms.__hash__": "the hash protocol of a value with __eq__",
    "exactalg.py:Terms.__setattr__": "the immutability guard",
    "exactalg.py:UnboundIndeterminateError.__init__": "the constructor of a typed error",
    "ratfun.py:PoleError.__init__": "the constructor of a typed error",
    "ratfun.py:RationalFn.evaluate_at": "bench/spans.py reads it by name",
    "ratfun.py:RationalFn.partial_fractions": "bench/spans.py reads it by name",
    "toeplitz.py:Symbol.__repr__": "hypothesis prints the Symbols of an explicit @example",
}


class _Tracer:
    """Lines run and functions called in files under PKG, per phase."""

    def __init__(self):
        self.prefix = str(PKG) + os.sep
        self.lines: set = set()          # (filename, line)
        self.calls: dict = {}            # phase -> {(filename, firstlineno, qualname)}
        self.phase = "tests"

    def _global(self, frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(self.prefix):
            return None
        if code.co_flags & inspect.CO_OPTIMIZED and not code.co_name.startswith("<"):
            self.calls.setdefault(self.phase, set()).add(
                (code.co_filename, code.co_firstlineno, code.co_qualname))
        self.lines.add((code.co_filename, frame.f_lineno))
        return self._local

    def _local(self, frame, event, arg):
        if event == "line":
            self.lines.add((frame.f_code.co_filename, frame.f_lineno))
        return self._local

    def start(self):
        threading.settrace(self._global)
        sys.settrace(self._global)

    def stop(self):
        sys.settrace(None)
        threading.settrace(None)


def _code_lines(code) -> set:
    """Every line that carries bytecode in code and the code objects it nests."""
    out = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if inspect.iscode(const):
            out |= _code_lines(const)
    return out


def _own_lines(node: ast.stmt) -> range:
    """The lines of a statement that are its own: a compound statement's
    header (with its decorators), or the whole of a simple one."""
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
    body = getattr(node, "body", None)
    if isinstance(body, list) and body:
        return range(first, body[0].lineno)
    return range(first, node.end_lineno + 1)


def _unreached(path: Path, ran: set) -> list:
    """(line, source) of each statement of path none of whose own bytecode lines ran."""
    source = path.read_text()
    executable = _code_lines(compile(source, str(path), "exec"))
    lines = source.splitlines()
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt):
            continue
        own = [n for n in _own_lines(node) if n in executable]
        if own and not any((str(path), n) in ran for n in own):
            out.append((own[0], lines[own[0] - 1].strip()))
    return sorted(out)


def _run_requests() -> int:
    sys.path.insert(0, str(ROOT / "tests"))
    from report_identity import standard_requests
    from htoeplitz.cli import main

    requests = standard_requests()
    for argv in requests:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                main(list(argv))
            except SystemExit:
                pass
            except Exception as exc:   # a raw traceback is itself a finding; keep going
                print(f"request raised {type(exc).__name__}: {' '.join(argv)}", file=sys.__stderr__)
    return len(requests)


def main() -> int:
    import pytest

    if "htoeplitz" in sys.modules:
        print("htoeplitz was imported before the tracer", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    tracer = _Tracer()
    tracer.start()
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
                            str(ROOT / "tests")])
        tracer.phase = "requests"
        n = _run_requests()
    finally:
        tracer.stop()
    elapsed = time.perf_counter() - t0
    print(f"\nTier-1 exit code {int(code)}; {n} standard requests through cli.main")
    print("\nstatements that never ran:")
    for path in sorted(PKG.glob("*.py")):
        for line, text in _unreached(path, tracer.lines):
            print(f"{path.relative_to(ROOT)}:{line}: {text}")
    print("\nfunctions that only Tier-1 reaches:")
    only = tracer.calls.get("tests", set()) - tracer.calls.get("requests", set())
    seen = set()
    for filename, line, name in sorted(only):
        key = f"{Path(filename).name}:{name}"
        seen.add(key)
        print(f"{Path(filename).relative_to(ROOT)}:{line}: {name}"
              + ("" if key in TIER1_ONLY else "  NOT ALLOWED"))
    stale = sorted(set(TIER1_ONLY) - seen)
    for key in stale:
        print(f"stale allow-list entry: {key}")
    print(f"\nrun time {elapsed:.0f} s")
    return 1 if stale or seen - set(TIER1_ONLY) else 0


if __name__ == "__main__":
    sys.exit(main())
