"""Symbols, the harmonic basis, Toeplitz application, and commutator checks.

The harmonic Bergman space of the unit disk has orthogonal basis
e_m = r^|m| e^{im theta}, m an integer: 1 = e_0, z^n = e_n, zbar^n = e_{-n}.
A basis vector is its signed index m.  A quasihomogeneous symbol
e^{ik theta} phi(r) maps e_m to a multiple of e_{m+k}, the multiple being one
Mellin value of phi.  ``apply_generic`` gives the "for every n at once" form
of that action on one side, as rational functions of the basis index with
validity thresholds; below-threshold indices are always handled concretely.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Tuple

from .exactalg import Coeff, aname, render_sum, render_term
from .mellin import mellin, mellin_at
from .radial import RadialFunction
from .ratfun import Poly, RationalFn

ANALYTIC = "analytic"
CONJUGATE = "conjugate"


def basis_label(m: int) -> str:
    """Label of e_m: 1 for m = 0, z^m for m > 0, zbar^|m| for m < 0."""
    if m == 0:
        return "1"
    stem = "z" if m > 0 else "zbar"
    return stem if abs(m) == 1 else f"{stem}^{abs(m)}"


def basis_order(m: int):
    """Sort key of the reports: 1, z, z^2, ..., then zbar, zbar^2, ..."""
    return (m < 0, abs(m))


class HarmonicVector:
    """Finite Coeff-linear combination of basis vectors e_m, keyed by m."""

    __slots__ = ("entries",)

    def __init__(self, entries: Mapping[int, Coeff] | None = None):
        clean = {}
        for v, c in (entries or {}).items():
            c = Coeff.coerce(c)
            if not c.is_zero():
                clean[v] = c
        object.__setattr__(self, "entries", clean)

    def __setattr__(self, name, value):
        raise AttributeError("HarmonicVector is immutable")

    @staticmethod
    def basis(m: int, c=1) -> "HarmonicVector":
        return HarmonicVector({m: Coeff.coerce(c)})

    zero: "HarmonicVector"

    def __add__(self, other: "HarmonicVector") -> "HarmonicVector":
        entries = dict(self.entries)
        for v, c in other.entries.items():
            entries[v] = entries.get(v, Coeff()) + c
        return HarmonicVector(entries)

    def __neg__(self):
        return HarmonicVector({v: -c for v, c in self.entries.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "HarmonicVector":
        c = Coeff.coerce(c)
        return HarmonicVector({v: x * c for v, x in self.entries.items()})

    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other):
        if not isinstance(other, HarmonicVector):
            return NotImplemented
        return self.entries == other.entries

    def __str__(self):
        return render_sum(
            render_term(self.entries[m], basis_label(m) if m else "")
            for m in sorted(self.entries, key=basis_order)
        )

    def __repr__(self):
        return f"HarmonicVector<{self}>"

    def to_json(self):
        return {basis_label(m): str(self.entries[m]) for m in sorted(self.entries, key=basis_order)}


HarmonicVector.zero = HarmonicVector()


class Symbol:
    """Polar decomposition: finite map degree k -> radial component f_k."""

    __slots__ = ("components",)

    def __init__(self, components: Mapping[int, RadialFunction] | None = None):
        clean = {}
        if components:
            for k, p in components.items():
                if not p.is_zero():
                    clean[int(k)] = p
        object.__setattr__(self, "components", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Symbol is immutable")

    @staticmethod
    def quasi(k: int, phi: RadialFunction) -> "Symbol":
        return Symbol({k: phi})

    @staticmethod
    def monomial_z(n: int, coeff=1) -> "Symbol":
        """z^n (n >= 0) or zbar^{-n} (n < 0) as a symbol."""
        return Symbol({n: RadialFunction.term(coeff, abs(n))})

    def __add__(self, other: "Symbol") -> "Symbol":
        comps = dict(self.components)
        for k, p in other.components.items():
            comps[k] = comps.get(k, RadialFunction.zero) + p
        return Symbol(comps)

    def __neg__(self):
        return Symbol({k: -p for k, p in self.components.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "Symbol":
        return Symbol({k: p.scale(c) for k, p in self.components.items()})

    def is_zero(self) -> bool:
        return not self.components

    def __eq__(self, other):
        if not isinstance(other, Symbol):
            return NotImplemented
        return self.components == other.components

    def max_abs_degree(self) -> int:
        if not self.components:
            return 0
        return max(abs(k) for k in self.components)

    def __str__(self):
        if not self.components:
            return "0"
        parts = []
        for k in sorted(self.components, reverse=True):
            p = self.components[k]
            if k == 0:
                parts.append(str(p))
            else:
                parts.append(f"e({k})*({p})")
        return " + ".join(parts)

    def __repr__(self):
        return f"Symbol<{self}>"

    def to_json(self):
        return {str(k): self.components[k].to_json() for k in sorted(self.components, reverse=True)}



def u_symbol(L: int) -> Symbol:
    """u = z + sum_{l=1}^{L} abar_l zbar^l with formal abar coefficients."""
    comps = {1: RadialFunction.term(1, 1)}
    for l in range(1, L + 1):
        comps[-l] = RadialFunction.term(Coeff.indet(aname(l)), l)
    return Symbol(comps)


# ---------------------------------------------------------------------------
# concrete application


def apply_quasi(k: int, phi: RadialFunction, m: int) -> HarmonicVector:
    """Action of the Toeplitz operator with symbol e^{ik theta} phi on e_m.

    The product lies in angular degree m + k, and its projection onto
    e_{m+k} is T e_m = 2(|m+k|+1) phihat(|m|+|m+k|+2) e_{m+k}: one Mellin
    value of phi, read pointwise by ``mellin_at`` rather than from the whole
    transform.
    """
    j = abs(m + k)
    return HarmonicVector({m + k: mellin_at(phi, abs(m) + j + 2).scale(2 * (j + 1))})


class NonIntegrableSymbolError(ValueError):
    """A symbol term r^a (ln r)^b with a <= -2, which is not in L^1([0,1), r dr).

    Its Mellin values are analytic continuations of divergent integrals,
    so no Toeplitz operator is defined.
    """

    def __init__(self, k: int, a, b: int):
        self.k, self.a, self.b = k, a, b
        term = RadialFunction.term(1, a, b)
        super().__init__(
            f"symbol is not integrable: component e({k}) has the term {term} "
            "(r^a (ln r)^b needs a > -2)"
        )


def _check_integrable(f: Symbol) -> None:
    """Raise NonIntegrableSymbolError naming the first term of f with a <= -2."""
    for k in sorted(f.components, reverse=True):
        bad = f.components[k].non_integrable_terms()
        if bad:
            a, b = min(bad)
            raise NonIntegrableSymbolError(k, a, b)


def _column(sym: Symbol, memo: dict, m: int) -> HarmonicVector:
    """T_sym e_m, computed once per memo (one memo per symbol)."""
    col = memo.get(m)
    if col is None:
        col = HarmonicVector.zero
        for k, phi in sym.components.items():
            col = col + apply_quasi(k, phi, m)
        memo[m] = col
    return col


def _apply_columns(sym: Symbol, memo: dict, w: HarmonicVector) -> HarmonicVector:
    """T_sym w as the combination sum_m w[m] * T_sym e_m of memoized columns."""
    acc: Dict[int, Coeff] = {}
    for m, c in w.entries.items():
        for x, y in _column(sym, memo, m).entries.items():
            y = y * c
            acc[x] = acc[x] + y if x in acc else y
    return HarmonicVector(acc)


def apply_symbol(f: Symbol, w: HarmonicVector) -> HarmonicVector:
    _check_integrable(f)
    return _apply_columns(f, {}, w)


def _residual(f: Symbol, u: Symbol, f_cols: dict, u_cols: dict, m: int) -> HarmonicVector:
    """[T_f, T_u] e_m = sum_j U[j,m] T_f e_j - sum_j F[j,m] T_u e_j.

    ``f_cols`` and ``u_cols`` memoize the columns of T_f and T_u; residuals
    at neighbouring m share most of them.
    """
    return (_apply_columns(f, f_cols, _column(u, u_cols, m))
            - _apply_columns(u, u_cols, _column(f, f_cols, m)))


def commutator_residual(f: Symbol, u: Symbol, m: int) -> HarmonicVector:
    _check_integrable(u)
    _check_integrable(f)
    return _residual(f, u, {}, {}, m)


# ---------------------------------------------------------------------------
# generic (uniform in n) application


def _side_min(side: str) -> int:
    return 0 if side == ANALYTIC else 1


def branch_offset(side: str, k: int) -> int:
    """Index offset d of e^{ik theta} on one input side above threshold: n -> n + d."""
    return k if side == ANALYTIC else -k


def branch_z(side: str, k: int, phi: RadialFunction) -> RationalFn:
    """Above-threshold coefficient of e^{ik theta} phi on one side, in z = 2n.

    Index n goes to n + d with coefficient 2(n+d+1) phihat(2n+d+2), where
    d = k on z^n and d = -k on zbar^n.
    """
    d = branch_offset(side, k)
    return RationalFn(Poly([2 * d + 2, 1])) * mellin(phi).shift(d + 2)


def _nonzero(entries: dict) -> dict:
    """The entries d -> (fn, n0) of a generic action whose fn is not zero."""
    return {d: (fn, n0) for d, (fn, n0) in entries.items() if not fn.is_zero()}


def apply_generic(f: Symbol, side: str) -> dict:
    """Generic form of T_f on one input side, above-threshold branches only.

    The map offset d -> (coeff_fn(n), n0): basis index n on `side` goes to
    index n + d on the same side with coefficient coeff_fn(n), for every
    n >= n0.  Indices below the threshold must be handled concretely.
    """
    smin = _side_min(side)
    entries: Dict[int, Tuple[RationalFn, int]] = {}
    for k, phi in f.components.items():
        d = branch_offset(side, k)
        # valid while both n and n + d are indices on this side
        entries[d] = (branch_z(side, k, phi).affine_substitute(2, 0), max(smin, smin - d))
    return _nonzero(entries)


def compose_generic(a: dict, b: dict, side: str) -> dict:
    """The generic action of (a after b) on one side: apply b first, then a."""
    smin = _side_min(side)
    entries: Dict[int, Tuple[RationalFn, int]] = {}
    for db, (fb, n0b) in b.items():
        for da, (fa, n0a) in a.items():
            d = da + db
            fn = fb * fa.affine_substitute(1, db)
            n0 = max(n0b, n0a - db, smin - d)
            if d in entries:
                old_fn, old_n0 = entries[d]
                entries[d] = (old_fn + fn, max(old_n0, n0))
            else:
                entries[d] = (fn, n0)
    return _nonzero(entries)


def generic_residual(f: Symbol, u: Symbol, side: str) -> dict:
    """Generic entries of T_f T_u - T_u T_f on one input side."""
    af, au = apply_generic(f, side), apply_generic(u, side)
    fu = compose_generic(af, au, side)   # T_f after T_u
    uf = compose_generic(au, af, side)
    entries: Dict[int, Tuple[RationalFn, int]] = {}
    for d in set(fu) | set(uf):
        f1, n1 = fu.get(d, (RationalFn.zero, 0))
        f2, n2 = uf.get(d, (RationalFn.zero, 0))
        entries[d] = (f1 - f2, max(n1, n2))
    return _nonzero(entries)


@dataclass
class CommutationReport:
    commutes: bool
    threshold: int
    generic: Dict[str, Dict[int, Tuple[RationalFn, int]]]
    generic_nonzero: list
    witnesses: list = field(default_factory=list)

    def to_json(self):
        return {
            "commutes": self.commutes,
            "threshold": self.threshold,
            "generic_residuals": {
                side: {
                    str(d): {"fn": fn.render("n"), "valid_from": n0, "zero": fn.is_zero()}
                    for d, (fn, n0) in sorted(entries.items())
                }
                for side, entries in self.generic.items()
            },
            "generic_nonzero": [
                {"side": side, "offset": d} for side, d in self.generic_nonzero
            ],
            "witnesses": [
                {"vector": basis_label(m), "residual": str(res)} for m, res in self.witnesses
            ],
        }


def verify_commute(f: Symbol, u: Symbol, n_max: int) -> CommutationReport:
    """Certify [T_f, T_u] = 0 on the whole basis.

    Generic residuals (rational in n) cover every index n >= n0*, where
    n0* = K_f + K_u + 1 exceeds any index at which a below-threshold branch
    can contribute to either composition; concrete residuals cover all
    indices up to max(n_max, n0*).  Each column T_f e_m and T_u e_m is
    computed once per call and shared by the residuals that need it.
    """
    _check_integrable(f)
    _check_integrable(u)
    n_star = f.max_abs_degree() + u.max_abs_degree() + 1
    generic = {}
    nonzero = []
    for side in (ANALYTIC, CONJUGATE):
        ga = generic_residual(f, u, side)
        # re-anchor validity at the global threshold
        generic[side] = {d: (fn, max(n0, n_star)) for d, (fn, n0) in ga.items()}
        nonzero.extend((side, d) for d in generic[side])
    top = max(n_max, n_star)
    f_cols: dict = {}
    u_cols: dict = {}
    witnesses = []
    for m in sorted(range(-top, top + 1), key=basis_order):
        res = _residual(f, u, f_cols, u_cols, m)
        if not res.is_zero():
            witnesses.append((m, res))
    return CommutationReport(
        commutes=not nonzero and not witnesses,
        threshold=n_star,
        generic=generic,
        generic_nonzero=nonzero,
        witnesses=witnesses,
    )
