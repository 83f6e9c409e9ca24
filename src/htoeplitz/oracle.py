"""Floating-point cross-checks, independent of the exact engine.

Mellin values come from adaptive quadrature after the substitution
t = -ln r, which turns every r^a (ln r)^b factor into a damped exponential
(-t)^b e^{-(s+a)t} on [0, oo) and removes the endpoint singularity
analytically.  Operator actions are computed by projecting onto the
orthogonal basis e_m = r^|m| e^{im theta}: the angular integral is a
Kronecker delta done exactly, the radial integral is quadrature.  Nothing
from the exact Mellin layer is reused.
"""

from __future__ import annotations

import math
from typing import Dict, Mapping

from .radial import RadialFunction
from .toeplitz import HarmonicVector, basis_label


class QuadratureDivergenceError(ArithmeticError):
    pass


QUAD_TOL = 1e-12          # absolute and relative tolerance of each quad call
QUAD_SUBDIVISIONS = 200   # quad's subinterval limit
QUAD_MAX_ERR = 1e-8       # largest error estimate accepted as converged


def mellin_numeric(
    p: RadialFunction,
    s: float,
    bindings: Mapping[str, complex] | None = None,
) -> complex:
    """Quadrature value of int_0^1 p(r) r^{s-1} dr, termwise in t = -ln r."""
    # scipy costs most of a cold start, and only quadrature needs it
    from scipy.integrate import quad

    bindings = bindings or {}
    total = 0j
    for (a, b), c in p.terms.items():
        decay = s + float(a)
        if decay <= 0:
            raise QuadratureDivergenceError(
                f"integral of r^{a}(ln r)^{b} against r^{s-1} diverges at 0"
            )
        sign = (-1.0) ** b
        val, err = quad(
            lambda t: t ** b * math.exp(-decay * t),
            0.0,
            math.inf,
            epsabs=QUAD_TOL,
            epsrel=QUAD_TOL,
            limit=QUAD_SUBDIVISIONS,
        )
        if err > QUAD_MAX_ERR:
            raise QuadratureDivergenceError(
                f"quadrature failed to converge (error estimate {err:g})"
            )
        total += c.bind(bindings) * sign * val
    return total


def apply_numeric(
    k: int,
    phi: RadialFunction,
    m: int,
    bindings: Mapping[str, complex] | None = None,
) -> Dict[int, complex]:
    """Toeplitz action of e^{ik theta} phi on e_m, by basis projection.

    The product symbol times basis vector has angular index j = m + k;
    its projection onto e_j has coefficient 2(|j|+1) int_0^1 phi
    r^{|m|+|j|+1} dr, here a quadrature value.
    """
    j = m + k
    s = abs(m) + abs(j) + 2
    return {j: 2 * (abs(j) + 1) * mellin_numeric(phi, float(s), bindings)}


def compare(
    symbolic: HarmonicVector,
    numeric: Mapping[int, complex],
    bindings: Mapping[str, complex] | None = None,
    tol: float = 1e-9,
) -> dict:
    """Entrywise comparison; missing entries count as zero."""
    bindings = bindings or {}
    keys = set(symbolic.terms) | set(numeric)
    worst_key, worst = None, 0.0
    for m in keys:
        sym = symbolic.terms[m].bind(bindings) if m in symbolic.terms else 0j
        num = numeric.get(m, 0j)
        d = abs(sym - num)
        if d > worst:
            worst_key, worst = m, d
    return {
        "ok": worst <= tol,
        "max_diff": worst,
        "worst_entry": basis_label(worst_key) if worst_key is not None else None,
        "tol": tol,
    }
