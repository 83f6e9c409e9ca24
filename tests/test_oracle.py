import math
import random
from fractions import Fraction
from typing import Mapping

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from htoeplitz import (
    QuadratureDivergenceError,
    RadialFunction,
    abar,
    apply_numeric,
    apply_quasi,
    compare,
    mellin,
    mellin_numeric,
)

from .conftest import radial_functions


def eval_numeric(p: RadialFunction, r: float, bindings: Mapping[str, complex] | None = None) -> complex:
    """The value of p at r, the pointwise reference of the quadrature checks."""
    if not (0.0 < r < 1.0):
        raise ValueError("radial evaluation requires 0 < r < 1")
    bindings = bindings or {}
    lr = math.log(r)
    total = 0j
    for (a, b), c in p.terms.items():
        total += c.bind(bindings) * (r ** float(a)) * (lr ** b)
    return total


def test_eval_numeric():
    phi = RadialFunction.term(2, 3) + RadialFunction.term(1, 0, 2)
    r = 0.37
    expected = 2 * r**3 + math.log(r) ** 2
    assert abs(eval_numeric(phi, r) - expected) < 1e-14


def test_eval_numeric_with_bindings():
    phi = RadialFunction.term(abar(1), 2)
    assert abs(eval_numeric(phi, 0.5, {"abar1": 2j}) - 0.5j) < 1e-15


def mellin_numeric_interval(p: RadialFunction, s: float, eps: float, panels: int = 2000) -> complex:
    """Composite Simpson value of int_eps^1 p(r) r^{s-1} dr, independent of quad."""
    h = (1.0 - eps) / panels
    total = 0j
    for i in range(panels + 1):
        r = min(eps + i * h, 1.0 - 1e-15)
        w = 1 if i in (0, panels) else (4 if i % 2 else 2)
        total += w * eval_numeric(p, r, {}) * r ** (s - 1.0)
    return total * h / 3.0


def test_mellin_numeric_matches_table():
    phi = RadialFunction.term(1, 4, 1)
    exact = mellin(phi)
    for s in (3.0, 4.0, 5.0, 7.0):
        assert abs(mellin_numeric(phi, s) - exact.bind_eval(s)) < 1e-10


def test_mellin_numeric_log_squared():
    phi = RadialFunction.term(1, -1, 2)
    exact = mellin(phi)
    assert abs(mellin_numeric(phi, 4.0) - exact.bind_eval(4.0)) < 1e-10


def test_divergence_detected():
    with pytest.raises(QuadratureDivergenceError):
        mellin_numeric(RadialFunction.term(1, -4), 3.0)


def test_interval_quadrature_converges_upward():
    # truncating at eps misses mass near 0; shrinking eps recovers it
    phi = RadialFunction.term(1, -1)
    full = mellin_numeric(phi, 3.0)
    coarse = abs(mellin_numeric_interval(phi, 3.0, eps=1e-2) - full)
    fine = abs(mellin_numeric_interval(phi, 3.0, eps=1e-5) - full)
    assert fine < coarse


def test_apply_numeric_matches_engine():
    phi = RadialFunction.term(Fraction(3, 2), 2) + RadialFunction.term(1, 0, 1)
    # z^3, z and zbar^2, zbar^4: one case per branch of the action
    for k, m in [(2, 3), (-3, 1), (1, -2), (-2, -4)]:
        sym = apply_quasi(k, phi, m)
        num = apply_numeric(k, phi, m)
        result = compare(sym, num, tol=1e-9)
        assert result["ok"], result


def test_compare_flags_disagreement():
    sym = apply_quasi(1, RadialFunction.term(1, 1), 2)
    num = {3: 123.0}
    result = compare(sym, num, tol=1e-9)
    assert not result["ok"]
    assert result["worst_entry"] == "z^3"


@given(radial_functions(a_min=-1, a_max=6, b_max=2), st.integers(-4, 4),
       st.integers(0, 8), st.booleans())
@settings(deadline=None, max_examples=60)
def test_engine_oracle_agreement(phi, k, n, analytic):
    m = n if analytic else -n
    sym = apply_quasi(k, phi, m)
    num = apply_numeric(k, phi, m)
    assert compare(sym, num, tol=1e-9)["ok"]


def test_bindings_flow_through():
    rng = random.Random(5)
    bindings = {"abar1": complex(rng.uniform(-1, 1), rng.uniform(-1, 1))}
    from htoeplitz import abar

    phi = RadialFunction.term(abar(1), 2)
    sym = apply_quasi(1, phi, 1)
    num = apply_numeric(1, phi, 1, bindings)
    assert compare(sym, num, bindings, tol=1e-10)["ok"]
