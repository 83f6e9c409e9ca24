"""Per-layer tracing from outside the program.

`Tracer.installed()` wraps the public functions of each htoeplitz module
(and a few `RationalFn` / `Coeff` methods) for the duration of a traced
pass, then restores the originals.  Nothing under src/ is changed.  Each
wrapped call records a span (id, parent id, request id, name, start, end);
self time is the span's duration minus the durations of its child spans,
which run one after another in this single-threaded program.  The two
`Coeff` methods are far too hot for spans and only count calls.

A name can be bound in several modules: `cli` imports `run_pipeline` and
`mellin`, `derive` imports `verify_commute`, and the package namespace
re-exports everything (so `htoeplitz.mellin` is the function, not the
module).  Installing therefore replaces the original object in every
loaded htoeplitz module that holds it, looked up through `sys.modules`.
"""

from __future__ import annotations

import contextlib
import itertools
import sys
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

# (layer metric prefix, module, class or None, attribute)
SPAN_TARGETS = [
    ("ratfun.add", "htoeplitz.ratfun", "RationalFn", "__add__"),
    ("ratfun.mul", "htoeplitz.ratfun", "RationalFn", "__mul__"),
    ("ratfun.eq", "htoeplitz.ratfun", "RationalFn", "__eq__"),
    ("ratfun.affine_substitute", "htoeplitz.ratfun", "RationalFn", "affine_substitute"),
    ("ratfun.partial_fractions", "htoeplitz.ratfun", "RationalFn", "partial_fractions"),
    ("ratfun.evaluate_at", "htoeplitz.ratfun", "RationalFn", "evaluate_at"),
    ("mellin.mellin", "htoeplitz.mellin", None, "mellin"),
    ("mellin.inverse_mellin", "htoeplitz.mellin", None, "inverse_mellin"),
    ("toeplitz.apply_quasi", "htoeplitz.toeplitz", None, "apply_quasi"),
    ("toeplitz.commutator_residual", "htoeplitz.toeplitz", None, "commutator_residual"),
    ("toeplitz.generic_residual", "htoeplitz.toeplitz", None, "generic_residual"),
    ("toeplitz.verify_commute", "htoeplitz.toeplitz", None, "verify_commute"),
    ("derive.constraint_at_offset", "htoeplitz.derive", None, "constraint_at_offset"),
    ("derive.solve_telescoping", "htoeplitz.derive", None, "solve_telescoping"),
    ("derive.antidifference", "htoeplitz.derive", None, "antidifference"),
    ("derive.reproduce_lemma", "htoeplitz.derive", None, "reproduce_lemma"),
    ("derive.run_pipeline", "htoeplitz.derive", None, "run_pipeline"),
    ("oracle.mellin_numeric", "htoeplitz.oracle", None, "mellin_numeric"),
    ("oracle.apply_numeric", "htoeplitz.oracle", None, "apply_numeric"),
    ("oracle.compare", "htoeplitz.oracle", None, "compare"),
    ("parser.parse_symbol_expr", "htoeplitz.parser", None, "parse_symbol_expr"),
    ("cli.main", "htoeplitz.cli", None, "main"),
]
COUNT_TARGETS = [
    ("exactalg.coeff_mul", "htoeplitz.exactalg", "Coeff", "__mul__"),
    ("exactalg.coeff_add", "htoeplitz.exactalg", "Coeff", "__add__"),
]
# spans whose calls are not reported (only their self time is)
_SELF_ONLY = {"derive.run_pipeline", "cli.main"}

Span = Tuple[int, Optional[int], int, str, float, float]


def _coeff_bits(c) -> int:
    """Largest numerator or denominator bit length in a Coeff."""
    bits = 0
    for g in c.terms.values():
        for x in (g.re, g.im):
            bits = max(bits, x.numerator.bit_length(), x.denominator.bit_length())
    return bits


class Tracer:
    def __init__(self):
        self.spans: List[Span] = []
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.request_id = 0
        self._stack: List[list] = []      # [span id, child seconds]
        self._depth: Counter = Counter()
        self._ids = itertools.count()
        # sizes and ratios measured where the work happens
        self.mellin_repeats = 0
        self._mellin_seen: set = set()
        self.poles_max = 0
        self.mult_max = 0
        self.shift_eq_calls = 0
        self.shift_eq_hits = 0
        self.coeff_bits_max = 0

    def begin_request(self, request_id: int) -> None:
        self.request_id = request_id
        self._mellin_seen = set()

    # -- hooks for the layers with sizes -----------------------------------

    def _before(self, name: str, args) -> None:
        if name == "mellin.mellin":
            phi = args[0]
            if phi in self._mellin_seen:
                self.mellin_repeats += 1
            else:
                self._mellin_seen.add(phi)

    def _after(self, name: str, result) -> None:
        if name == "mellin.mellin":
            if result.den:
                self.poles_max = max(self.poles_max, len(result.den))
                self.mult_max = max(self.mult_max, max(result.den.values()))
        elif name == "ratfun.eq":
            if self._depth["derive.constraint_at_offset"]:
                self.shift_eq_calls += 1
                self.shift_eq_hits += bool(result)
        elif name == "derive.constraint_at_offset":
            for fn in (result.G, result.rhs):
                for c in fn.num.coeffs:
                    self.coeff_bits_max = max(self.coeff_bits_max, _coeff_bits(c))

    # -- wrappers ----------------------------------------------------------

    def _span_wrapper(self, name: str, fn: Callable) -> Callable:
        stack, spans, depth, ids = self._stack, self.spans, self._depth, self._ids
        clock = time.perf_counter
        hooked = name in ("mellin.mellin", "ratfun.eq", "derive.constraint_at_offset")

        def wrapper(*args, **kwargs):
            # hook time is charged to no layer: it is tracing overhead
            hook = 0.0
            if hooked:
                h0 = clock()
                self._before(name, args)
                hook = clock() - h0
            parent = stack[-1][0] if stack else None
            frame = [next(ids), 0.0]
            stack.append(frame)
            depth[name] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                depth[name] -= 1
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                spans.append((frame[0], parent, self.request_id, name, t0, t1))
                self.calls[name] += 1
                self.self_s[name] += dur - frame[1]
            if hooked:
                h0 = clock()
                self._after(name, result)
                hook += clock() - h0
                if stack:
                    stack[-1][1] += hook
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, name: str, fn: Callable) -> Callable:
        calls = self.calls

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        wrapper.__wrapped__ = fn
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore."""
        patched: List[Tuple[object, str, object]] = []
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "htoeplitz" or n.startswith("htoeplitz."))]
        try:
            for targets, make in ((SPAN_TARGETS, self._span_wrapper),
                                  (COUNT_TARGETS, self._count_wrapper)):
                for name, module, owner, attr in targets:
                    if owner is not None:
                        cls = getattr(sys.modules[module], owner)
                        orig = cls.__dict__[attr]
                        patched.append((cls, attr, orig))
                        setattr(cls, attr, make(name, orig))
                        continue
                    orig = getattr(sys.modules[module], attr)
                    wrapper = make(name, orig)
                    for mod in modules:
                        for key, val in list(vars(mod).items()):
                            if val is orig:
                                patched.append((mod, key, orig))
                                setattr(mod, key, wrapper)
            yield self
        finally:
            for obj, key, orig in reversed(patched):
                setattr(obj, key, orig)

    # -- results -----------------------------------------------------------

    def layer_metrics(self, passes: int) -> Dict[str, float]:
        """Per-pass layer metrics, named as in BENCHMARK.json's per_layer."""
        out: Dict[str, float] = {}
        for name, _, _, _ in COUNT_TARGETS:
            out[f"{name}.calls"] = self.calls[name] / passes
        for name, _, _, _ in SPAN_TARGETS:
            if name not in _SELF_ONLY:
                out[f"{name}.calls"] = self.calls[name] / passes
            out[f"{name}.self_s"] = self.self_s[name] / passes
        mellin_calls = self.calls["mellin.mellin"]
        out["mellin.mellin.repeat_ratio"] = self.mellin_repeats / mellin_calls if mellin_calls else 0.0
        out["mellin.poles_max"] = self.poles_max
        out["mellin.mult_max"] = self.mult_max
        out["derive.shift_hit_ratio"] = (
            self.shift_eq_hits / self.shift_eq_calls if self.shift_eq_calls else 0.0
        )
        out["derive.coeff_bits_max"] = self.coeff_bits_max
        return out

    def ratio_bases(self) -> Dict[str, int]:
        """The denominators of the two ratios, reported next to them."""
        return {
            "mellin.mellin.repeat_ratio": self.calls["mellin.mellin"],
            "derive.shift_hit_ratio": self.shift_eq_calls,
        }

    def nesting_errors(self) -> List[str]:
        """Spans whose parent does not enclose them or belongs to another request."""
        by_id = {s[0]: s for s in self.spans}
        errors = []
        for sid, parent, req, name, t0, t1 in self.spans:
            if not t0 <= t1:
                errors.append(f"span {sid} {name} ends before it starts")
            if parent is None:
                continue
            p = by_id.get(parent)
            if p is None:
                errors.append(f"span {sid} {name} has unknown parent {parent}")
            elif not (p[4] <= t0 and t1 <= p[5] and p[2] == req):
                errors.append(f"span {sid} {name} is not inside its parent {p[3]}")
        return errors
