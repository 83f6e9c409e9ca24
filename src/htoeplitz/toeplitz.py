"""Symbols, the harmonic basis, Toeplitz application, and commutator checks.

The harmonic Bergman space of the unit disk has orthogonal basis
{1, z^n, zbar^n}.  A quasihomogeneous symbol e^{ik theta} phi(r) acts on a
basis vector through one of four branches, each a multiple of a Mellin value
of phi.  ``GenericAction`` packages the "for every n at once" form of that
action as rational functions of the basis index, with validity thresholds;
below-threshold indices are always handled concretely.
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


class BasisVector:
    """z^n (analytic, n >= 0) or zbar^n (conjugate, n >= 1); (analytic, 0) is 1."""

    __slots__ = ("side", "n")

    def __init__(self, side: str, n: int):
        if side not in (ANALYTIC, CONJUGATE):
            raise ValueError(f"unknown side {side!r}")
        if n < 0:
            raise ValueError("basis index must be >= 0")
        if side == CONJUGATE and n == 0:
            side = ANALYTIC  # the constant function is stored once
        object.__setattr__(self, "side", side)
        object.__setattr__(self, "n", n)

    def __setattr__(self, name, value):
        raise AttributeError("BasisVector is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, BasisVector)
            and self.side == other.side
            and self.n == other.n
        )

    def __hash__(self):
        return hash((self.side, self.n))

    def label(self) -> str:
        if self.n == 0:
            return "1"
        stem = "z" if self.side == ANALYTIC else "zbar"
        return stem if self.n == 1 else f"{stem}^{self.n}"

    def __repr__(self):
        return f"BasisVector({self.label()})"


def z_vec(n: int) -> BasisVector:
    return BasisVector(ANALYTIC, n)


def zbar_vec(n: int) -> BasisVector:
    return BasisVector(CONJUGATE, n)


class HarmonicVector:
    """Finite Coeff-linear combination of basis vectors."""

    __slots__ = ("entries",)

    def __init__(self, entries: Mapping[BasisVector, Coeff] | None = None):
        clean = {}
        for v, c in (entries or {}).items():
            c = Coeff.coerce(c)
            if not c.is_zero():
                clean[v] = c
        object.__setattr__(self, "entries", clean)

    def __setattr__(self, name, value):
        raise AttributeError("HarmonicVector is immutable")

    @staticmethod
    def basis(v: BasisVector, c=1) -> "HarmonicVector":
        return HarmonicVector({v: Coeff.coerce(c)})

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
        def key(v):
            return (0, v.n) if v.side == ANALYTIC else (1, v.n)
        return render_sum(
            render_term(self.entries[v], v.label() if v.n else "")
            for v in sorted(self.entries, key=key)
        )

    def __repr__(self):
        return f"HarmonicVector<{self}>"

    def to_json(self):
        def key(v):
            return (0, v.n) if v.side == ANALYTIC else (1, v.n)
        return {v.label(): str(self.entries[v]) for v in sorted(self.entries, key=key)}


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


def apply_quasi(k: int, phi: RadialFunction, v: BasisVector) -> HarmonicVector:
    """Action of the Toeplitz operator with symbol e^{ik theta} phi on v.

    Four branches; the two below-threshold branches land on the opposite
    side with a Mellin value at a fixed (n-independent) argument.  Each
    branch needs a single Mellin value of phi, read pointwise by
    ``mellin_at`` rather than from the whole transform.
    """
    n = v.n
    if v.side == ANALYTIC:
        if n >= -k:
            c = mellin_at(phi, 2 * n + k + 2).scale(2 * (n + k + 1))
            return HarmonicVector({z_vec(n + k): c})
        c = mellin_at(phi, -k + 2).scale(2 * (-n - k + 1))
        return HarmonicVector({zbar_vec(-n - k): c})
    if n >= k:
        c = mellin_at(phi, 2 * n - k + 2).scale(2 * (n - k + 1))
        return HarmonicVector({zbar_vec(n - k): c})
    c = mellin_at(phi, k + 2).scale(2 * (k - n + 1))
    return HarmonicVector({z_vec(k - n): c})


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


def _column(sym: Symbol, memo: dict, v: BasisVector) -> HarmonicVector:
    """T_sym e_v, computed once per memo (one memo per symbol)."""
    col = memo.get(v)
    if col is None:
        col = HarmonicVector.zero
        for k, phi in sym.components.items():
            col = col + apply_quasi(k, phi, v)
        memo[v] = col
    return col


def _apply_columns(sym: Symbol, memo: dict, w: HarmonicVector) -> HarmonicVector:
    """T_sym w as the combination sum_v w[v] * T_sym e_v of memoized columns."""
    acc: Dict[BasisVector, Coeff] = {}
    for v, c in w.entries.items():
        for x, y in _column(sym, memo, v).entries.items():
            y = y * c
            acc[x] = acc[x] + y if x in acc else y
    return HarmonicVector(acc)


def apply_symbol(f: Symbol, w: HarmonicVector) -> HarmonicVector:
    _check_integrable(f)
    return _apply_columns(f, {}, w)


def _residual(f: Symbol, u: Symbol, f_cols: dict, u_cols: dict, v: BasisVector) -> HarmonicVector:
    """[T_f, T_u] e_v = sum_m U[m,v] T_f e_m - sum_m F[m,v] T_u e_m.

    ``f_cols`` and ``u_cols`` memoize the columns of T_f and T_u; residuals
    at neighbouring v share most of them.
    """
    return (_apply_columns(f, f_cols, _column(u, u_cols, v))
            - _apply_columns(u, u_cols, _column(f, f_cols, v)))


def commutator_residual(f: Symbol, u: Symbol, v: BasisVector) -> HarmonicVector:
    _check_integrable(u)
    _check_integrable(f)
    return _residual(f, u, {}, {}, v)


# ---------------------------------------------------------------------------
# generic (uniform in n) application


class GenericAction:
    """Map (input side fixed at build time) offset d -> (coeff_fn(n), n0).

    Applying to basis index n on `side` contributes coeff_fn(n) at output
    index n + d on the same side, valid for every n >= n0.  Indices below
    the threshold must be handled concretely.
    """

    __slots__ = ("side", "entries")

    def __init__(self, side: str, entries: Mapping[int, Tuple[RationalFn, int]]):
        clean = {}
        for d, (fn, n0) in entries.items():
            if not fn.is_zero():
                clean[int(d)] = (fn, int(n0))
        object.__setattr__(self, "side", side)
        object.__setattr__(self, "entries", clean)

    def __setattr__(self, name, value):
        raise AttributeError("GenericAction is immutable")

    def __repr__(self):
        items = ", ".join(
            f"d={d}: ({fn.render('n')}, n>={n0})" for d, (fn, n0) in sorted(self.entries.items())
        )
        return f"GenericAction[{self.side}; {items}]"


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


def apply_generic(f: Symbol, side: str) -> GenericAction:
    """Generic form of T_f on one input side, above-threshold branches only."""
    smin = _side_min(side)
    entries: Dict[int, Tuple[RationalFn, int]] = {}
    for k, phi in f.components.items():
        d = branch_offset(side, k)
        # valid while both n and n + d are indices on this side
        entries[d] = (branch_z(side, k, phi).affine_substitute(2, 0), max(smin, smin - d))
    return GenericAction(side, entries)


def compose_generic(a: GenericAction, b: GenericAction) -> GenericAction:
    """The generic action of (a after b): apply b first, then a."""
    if a.side != b.side:
        raise ValueError("generic composition requires a common side")
    smin = _side_min(a.side)
    entries: Dict[int, Tuple[RationalFn, int]] = {}
    for db, (fb, n0b) in b.entries.items():
        for da, (fa, n0a) in a.entries.items():
            d = da + db
            fn = fb * fa.affine_substitute(1, db)
            n0 = max(n0b, n0a - db, smin - d)
            if d in entries:
                old_fn, old_n0 = entries[d]
                entries[d] = (old_fn + fn, max(old_n0, n0))
            else:
                entries[d] = (fn, n0)
    return GenericAction(a.side, entries)


def generic_residual(f: Symbol, u: Symbol, side: str) -> GenericAction:
    """Generic entries of T_f T_u - T_u T_f on one input side."""
    af, au = apply_generic(f, side), apply_generic(u, side)
    fu = compose_generic(af, au)   # T_f after T_u
    uf = compose_generic(au, af)
    entries: Dict[int, Tuple[RationalFn, int]] = {}
    for d in set(fu.entries) | set(uf.entries):
        f1, n1 = fu.entries.get(d, (RationalFn.zero, 0))
        f2, n2 = uf.entries.get(d, (RationalFn.zero, 0))
        diff = f1 - f2
        entries[d] = (diff, max(n1, n2))
    return GenericAction(side, entries)


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
                {"vector": v.label(), "residual": str(res)} for v, res in self.witnesses
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
        generic[side] = {d: (fn, max(n0, n_star)) for d, (fn, n0) in ga.entries.items()}
        for d, (fn, _n0) in generic[side].items():
            if not fn.is_zero():
                nonzero.append((side, d))
    top = max(n_max, n_star)
    f_cols: dict = {}
    u_cols: dict = {}
    witnesses = []
    for v in [z_vec(n) for n in range(0, top + 1)] + [zbar_vec(n) for n in range(1, top + 1)]:
        res = _residual(f, u, f_cols, u_cols, v)
        if not res.is_zero():
            witnesses.append((v, res))
    return CommutationReport(
        commutes=not nonzero and not witnesses,
        threshold=n_star,
        generic=generic,
        generic_nonzero=nonzero,
        witnesses=witnesses,
    )
