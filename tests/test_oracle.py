import math
import random
from fractions import Fraction
from typing import Mapping

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from htoeplitz import (
    ANALYTIC,
    CONJUGATE,
    C,
    HarmonicVector,
    QuadratureDivergenceError,
    RadialFunction,
    Symbol,
    abar,
    apply_numeric,
    apply_quasi,
    commutator_residual,
    compare,
    mellin,
    mellin_numeric,
    u_symbol,
)
from htoeplitz import oracle
from htoeplitz.toeplitz import branch_offset, branch_z, generic_residual

from .conftest import bind_eval, radial_functions


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
        assert abs(mellin_numeric(phi, s) - bind_eval(exact, s)) < 1e-10


def test_mellin_numeric_log_squared():
    phi = RadialFunction.term(1, -1, 2)
    exact = mellin(phi)
    assert abs(mellin_numeric(phi, 4.0) - bind_eval(exact, 4.0)) < 1e-10


def test_divergence_detected():
    with pytest.raises(QuadratureDivergenceError):
        mellin_numeric(RadialFunction.term(1, -4), 3.0)


def test_unconverged_quadrature_refused(monkeypatch):
    # an error estimate above QUAD_MAX_ERR is a failure, never a value
    import scipy.integrate
    monkeypatch.setattr(scipy.integrate, "quad", lambda *args, **kw: (0.5, 10 * oracle.QUAD_MAX_ERR))
    with pytest.raises(QuadratureDivergenceError, match="failed to converge"):
        mellin_numeric(RadialFunction.term(1, 2), 3.0)


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


@pytest.mark.parametrize("side", [ANALYTIC, CONJUGATE])
def test_branch_z_against_quadrature(side):
    """Above the threshold, e^{ik theta} r^a (ln r)^b takes e_n (analytic side)
    or e_{-n} (conjugate side) to branch_z at z = 2n times the basis vector
    n + d steps out, for every n >= |k|; quadrature computes the same entry."""
    sign = 1 if side == ANALYTIC else -1
    for k in range(-3, 4):
        for a, b in ((0, 0), (3, 1), (-1, 2), (Fraction(1, 2), 1)):
            fn = branch_z(side, k, a, b)
            for n in range(abs(k), abs(k) + 4):
                [(j, num)] = apply_numeric(k, RadialFunction.term(1, a, b), sign * n).items()
                assert j == sign * (n + branch_offset(side, k))
                assert abs(fn.evaluate_at(2 * n).bind({}) - num) < 1e-9, (k, a, b, n)


def test_bindings_flow_through():
    rng = random.Random(5)
    bindings = {"abar1": complex(rng.uniform(-1, 1), rng.uniform(-1, 1))}
    from htoeplitz import abar

    phi = RadialFunction.term(abar(1), 2)
    sym = apply_quasi(1, phi, 1)
    num = apply_numeric(1, phi, 1, bindings)
    assert compare(sym, num, bindings, tol=1e-10)["ok"]


def _apply_numeric_symbol(f: Symbol, w: Mapping[int, complex], bindings) -> dict:
    """T_f w from quadrature alone, one apply_numeric call per component and index."""
    out: dict = {}
    for k, phi in f.terms.items():
        for m, c in w.items():
            for j, x in apply_numeric(k, phi, m, bindings).items():
                out[j] = out.get(j, 0j) + c * x
    return out


def test_commutator_certificate_against_quadrature():
    """The certificate's entries against T_f T_u - T_u T_f built from quadrature:
    the concrete residual on every index up to n0* + 2, and each generic entry
    read at n in [n0*, n0* + 5], with abar and C bound to random values.  The
    quadrature side spells u out itself, so it does not share u_symbol."""
    rng = random.Random(11)
    bindings = {name: complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                for name in ("abar1", "abar2", "C0", "C1", "C2")}
    u = u_symbol(2)
    u_ref = Symbol({1: RadialFunction.term(1, 1), -1: RadialFunction.term(abar(1), 1),
                    -2: RadialFunction.term(abar(2), 2)})
    f = Symbol({2: RadialFunction.term(C(2), 2) + RadialFunction.term(C(1) * abar(1), 0, 1),
                0: RadialFunction.term(Fraction(1, 2), -1, 1),
                -1: RadialFunction.term(C(0), 1)})
    n_star = f.max_abs_degree() + u.max_abs_degree() + 1

    def numeric(m):
        fu = _apply_numeric_symbol(f, _apply_numeric_symbol(u_ref, {m: 1}, bindings), bindings)
        uf = _apply_numeric_symbol(u_ref, _apply_numeric_symbol(f, {m: 1}, bindings), bindings)
        return {j: fu.get(j, 0j) - uf.get(j, 0j) for j in set(fu) | set(uf)}

    for m in range(-n_star - 2, n_star + 3):
        result = compare(commutator_residual(f, u, m), numeric(m), bindings, tol=1e-9)
        assert result["ok"], (m, result)
    for side, sign in ((ANALYTIC, 1), (CONJUGATE, -1)):
        entries = generic_residual(f, u, side).terms
        assert entries
        for n in range(n_star, n_star + 6):
            sym = HarmonicVector({sign * (n + d): fn.evaluate_at(n) for d, fn in entries.items()})
            result = compare(sym, numeric(sign * n), bindings, tol=1e-9)
            assert result["ok"], (side, n, result)
