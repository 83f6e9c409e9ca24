"""Symbols, the harmonic basis, Toeplitz application, and commutator checks.

The harmonic Bergman space of the unit disk has orthogonal basis
e_m = r^|m| e^{im theta}, m an integer: 1 = e_0, z^n = e_n, zbar^n = e_{-n}.
A basis vector is its signed index m; a ``HarmonicVector`` is a ``Terms``
map m -> Coeff and a ``Symbol`` a ``Terms`` map k -> f_k of its polar
decomposition f = sum_k e^{ik theta} f_k, whose product multiplies term by
term: e^{ik theta} f_k * e^{il theta} g_l = e^{i(k+l) theta} f_k g_l.  A
quasihomogeneous symbol e^{ik theta} phi(r) maps e_m to a multiple of
e_{m+k}, the multiple being one Mellin value of phi.  Both halves of the
commutator check split a symbol into pieces (mu, k, terms), one per monomial
mu of its coefficients and degree k (``_pieces``): the concrete action has
one scalar per column entry, and the generic action (for every n above a
threshold) one scalar rational function of the index per piece, so a
``Coeff`` enters only when a nonzero residual is written back.  ``_Entries``,
a piece's integer kernel, is the one concrete column formula, built only by
its two readers: ``apply_symbol(f, m)``, which is T_f e_m, and ``_pairs``,
for the concrete residual.  Its entries are integer triples (re, im, den),
summed fraction-free; the concrete residual tests a sum for zero by its
numerator and builds a Fraction only for a nonzero one.
``verify_commute`` reads its verdict from concrete residuals alone: each
generic entry is P/Q with deg P <= deg Q = D, Q read from the pieces' pole
keys (``_degree_bounds``), so it is identically zero once it vanishes at the
D + 1 indices from the threshold up.  ``generic_residual`` composes the
entries symbolically, to print a failing report and as the tests' oracle.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial, lcm
from typing import Dict

from .exactalg import (ONE, Coeff, GaussianRational, Rat, Terms, _mono_mul, aname, render_sum,
                       render_term)
from .radial import RadialFunction
from .ratfun import PoleError, RationalFn, _acc

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


class HarmonicVector(Terms):
    """Finite Coeff-linear combination of basis vectors e_m, keyed by m."""

    __slots__ = ()

    def __str__(self):
        return render_sum(
            render_term(self.terms[m], basis_label(m) if m else "")
            for m in sorted(self.terms, key=basis_order)
        )

    def __repr__(self):
        return f"HarmonicVector<{self}>"

    def to_json(self):
        return {basis_label(m): str(self.terms[m]) for m in sorted(self.terms, key=basis_order)}


class Symbol(Terms):
    """Polar decomposition: finite map degree k -> radial component f_k."""

    __slots__ = ()

    def max_abs_degree(self) -> int:
        return max((abs(k) for k in self.terms), default=0)

    def __mul__(self, other):
        other = self.coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Symbol(self._product(other, operator.add))

    def __str__(self):
        return render_sum(
            str(self.terms[k]) if k == 0 else f"e({k})*({self.terms[k]})"
            for k in sorted(self.terms, reverse=True)
        )

    def __repr__(self):
        return f"Symbol<{self}>"


def u_symbol(L: int) -> Symbol:
    """u = z + sum_{l=1}^{L} abar_l zbar^l with formal abar coefficients."""
    comps = {1: RadialFunction.term(1, 1)}
    for l in range(1, L + 1):
        comps[-l] = RadialFunction.term(Coeff.indet(aname(l)), l)
    return Symbol(comps)


# ---------------------------------------------------------------------------
# concrete application


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
    for k in sorted(f.terms, reverse=True):
        bad = f.terms[k].non_integrable_terms()
        if bad:
            a, b = min(bad)
            raise NonIntegrableSymbolError(k, a, b)


class _Entries(dict):
    """The column entries F(m), each computed on first use, of one piece (mu, k, terms),
    built by apply_symbol and _pairs alone: mu F(m) e_{m+k} is its image of e_m, where
    F(m) = 2(j+1) sum c (-1)^b b!/(s+a)^{b+1} over (a, b, c), j = |m+k|, s = |m|+j+2.

    An entry is an integer triple (re, im, den), the value (re + i im)/den.
    The coefficients go over one integer denominator D, and a term with
    a = p/q gets the Gaussian-integer weight w = c D (-1)^b b! q^{b+1}, so
    F(m) = 2(j+1) sum w/(sq+p)^{b+1} / D, summed fraction-free.  An
    integrable term has a > -2 and s >= 2, so s + a > 0 and den > 0."""

    def __init__(self, k: int, terms: list):
        self.k, self.terms = k, terms
        cs = [GaussianRational.coerce(c) for _, _, c in terms]
        self.D = D = lcm(*(x.denominator for c in cs for x in (c.re, c.im)))
        self.weights = [(a.numerator, a.denominator, b + 1,
                         (c.re * D).numerator * w, (c.im * D).numerator * w)
                        for (a, b, _), c in zip(terms, cs)
                        for w in [(-1) ** b * factorial(b) * a.denominator ** (b + 1)]]

    def __missing__(self, m: int):
        j = abs(m + self.k)
        s = abs(m) + j + 2
        re, im, den = 0, 0, 1
        for p, q, e, wr, wi in self.weights:
            d = s * q + p
            if not d:
                raise PoleError(-Fraction(p, q))
            d **= e
            re, im, den = re * d + wr * den, im * d + wi * den, den * d
        self[m] = x = (2 * (j + 1) * re, 2 * (j + 1) * im, den * self.D)
        return x


def _pieces(sym: Symbol) -> list:
    """sym as pieces (mu, k, terms), one per monomial mu and degree k, with c in each term
    (a, b, c) a Fraction, or a GaussianRational when complex; no ``_Entries`` is built."""
    groups: dict = {}
    for k, phi in sym.terms.items():
        for (a, b), coeff in phi.terms.items():
            for mono, g in coeff.terms.items():
                groups.setdefault((mono, k), []).append((a, b, g if g.im else g.re))
    return [(mono, k, terms) for (mono, k), terms in groups.items()]


def _value(x: tuple) -> GaussianRational:
    """The integer triple (re, im, den) as the GaussianRational (re + i im)/den."""
    re, im, den = x
    return GaussianRational(Fraction(re, den), Fraction(im, den))


def apply_quasi(k: int, phi: RadialFunction, m: int) -> HarmonicVector:
    """Action of the Toeplitz operator with symbol e^{ik theta} phi on e_m.

    The product lies in angular degree m + k, and its projection onto
    e_{m+k} is T e_m = 2(|m+k|+1) phihat(|m|+|m+k|+2) e_{m+k}: one Mellin
    value of phi.  It is ``apply_symbol`` on one component, so a term
    r^a (ln r)^b with a <= -2 raises NonIntegrableSymbolError.
    """
    return apply_symbol(Symbol({k: phi}), m)


def apply_symbol(f: Symbol, m: int) -> HarmonicVector:
    """T_f e_m: each piece (mu, k, terms) of f puts mu F(m) at e_{m+k}, F its
    ``_Entries``; pieces are distinct (mu, k) pairs, so no two of them meet."""
    _check_integrable(f)
    out: dict = {}
    for mu, k, terms in _pieces(f):
        out.setdefault(m + k, {})[mu] = _value(_Entries(k, terms)[m])
    return HarmonicVector({i: Coeff(c) for i, c in out.items()})


def _pairs(f: Symbol, u: Symbol) -> list:
    """(F, k_f, U, k_u, mu_f mu_u) per piece pair of f and u; one ``_Entries`` per piece."""
    fp, up = ([(mu, k, _Entries(k, terms)) for mu, k, terms in _pieces(s)] for s in (f, u))
    return [(F, kf, U, ku, _mono_mul(mf, mu)) for mf, kf, F in fp for mu, ku, U in up]


def _residual(pairs: list, m: int) -> HarmonicVector:
    """[T_f, T_u] e_m, summed as one scalar per (output index, monomial).

    Each pair puts mu_f mu_u (F(m+k_u) U(m) - U(m+k_f) F(m)) at e_{m+k_f+k_u}:
    T_f after T_u, minus T_u after T_f.  The entries are integer triples
    (``_Entries``), so the difference and the sums are cross-multiplied
    integer triples, never reduced; the zero test reads the numerator only,
    and a Fraction is built only for a nonzero sum.
    """
    acc: dict = {}
    for F, kf, U, ku, mono in pairs:
        (ar, ai, ad), (br, bi, bd) = F[m + ku], U[m]
        (cr, ci, cd), (er, ei, ed) = U[m + kf], F[m]
        d1, d2 = ad * bd, cd * ed
        re = (ar * br - ai * bi) * d2 - (cr * er - ci * ei) * d1
        im = (ar * bi + ai * br) * d2 - (cr * ei + ci * er) * d1
        if re or im:
            out = acc.setdefault(m + kf + ku, {})
            d, (sr, si, sd) = d1 * d2, out.get(mono, (0, 0, 1))
            out[mono] = (sr * d + re * sd, si * d + im * sd, sd * d)
    return HarmonicVector({i: Coeff({mono: _value(x) for mono, x in c.items() if x[0] or x[1]})
                           for i, c in acc.items()})


def commutator_residual(f: Symbol, u: Symbol, m: int) -> HarmonicVector:
    _check_integrable(u)
    _check_integrable(f)
    return _residual(_pairs(f, u), m)


# ---------------------------------------------------------------------------
# generic (uniform in n) application


def branch_offset(side: str, k: int) -> int:
    """Index offset d of e^{ik theta} on one input side above threshold: n -> n + d."""
    return k if side == ANALYTIC else -k


def branch_z(side: str, k: int, a: Rat, b: int) -> RationalFn:
    """Above-threshold coefficient of e^{ik theta} r^a (ln r)^b on one side, in z = 2n.

    Index n goes to n + d with coefficient 2(n+d+1) phihat(2n+d+2), where
    d = k on z^n and d = -k on zbar^n; phihat(z) = (-1)^b b!/(z+a)^{b+1}, and
    (z+2d+2)/(z+q)^{b+1} = (2d+2-q)/(z+q)^{b+1} + 1/(z+q)^b with q = a+d+2.
    """
    d = branch_offset(side, k)
    q, c = a + d + 2, (-1) ** b * factorial(b)
    return RationalFn({(q, b + 1): c * (2 * d + 2 - q), (q, b) if b else 0: c})


def _generic_pieces(sym: Symbol, side: str) -> list:
    """(mu, d, F) for every piece (mu, k, terms) of sym: above threshold it takes n
    on `side` to n + d with coefficient mu F(2n), F = sum of the terms' branch_z."""
    return [(mono, branch_offset(side, k),
             sum((branch_z(side, k, a, b).scale(c) for a, b, c in terms), RationalFn.zero))
            for mono, k, terms in _pieces(sym)]


def _compose(a: list, b: list) -> dict:
    """The one branch composition, (a after b) on one side: offset -> Terms map
    monomial -> scalar RationalFn in z = 2n, offsets in first-use order; each
    pair puts mu_a mu_b B(z) A(z+2d_b) at d_a+d_b."""
    out: dict = {}
    for mb, db, B in b:
        for ma, da, A in a:
            _acc(out.setdefault(da + db, {}), _mono_mul(ma, mb), B * A.shift(2 * db))
    return {d: t for d, e in out.items() if (t := Terms(e))}


def generic_residual(f: Symbol, u: Symbol, side: str) -> Terms:
    """Generic entries of T_f T_u - T_u T_f on one input side: each piece pair,
    x of f and y of u, adds mu_f mu_u [U_y(n) F_x(n+d_y) - F_x(n) U_y(n+d_x)] at
    offset d_x + d_y, over scalars in z = 2n; a nonzero entry alone is lifted to Coeffs and n."""
    fs, us = _generic_pieces(f, side), _generic_pieces(u, side)
    fu, uf = _compose(fs, us), _compose(us, fs)   # T_f after T_u, T_u after T_f
    out = {}
    for d in sorted(set(fu) | set(uf)):
        diff = fu.get(d, Terms()) - uf.get(d, Terms())
        out[d] = sum((fn.scale(Coeff({mu: ONE})) for mu, fn in diff.terms.items()), RationalFn.zero)
    return Terms({d: fn.affine_substitute(2, 0) for d, fn in out.items() if fn})


def _pole_keys(F: _Entries, k: int, side: str) -> tuple:
    """(d, poles) of one piece: its offset and the poles q -> multiplicity of its
    generic coefficient in z = 2n, each term r^a (ln r)^b putting the pole of its
    own ``branch_z`` at q = a+d+2: of order b+1, or b where the top coefficient
    2d+2-q is zero (a = d), and none when that order is 0.  No RationalFn is
    built; an integral q is an int, which the pair loop adds and hashes faster
    than a Fraction."""
    d, poles = branch_offset(side, k), {}
    for a, b, _ in F.terms:
        q, e = a + d + 2, b if a == d else b + 1
        if e:
            q = q.numerator if q.denominator == 1 else q
            poles[q] = max(poles.get(q, 0), e)
    return d, poles


def _product_poles(b: dict, a: dict, shift: int) -> dict:
    """Poles of B(z) A(z + shift): those of A move by shift, multiplicities add."""
    out = dict(b)
    for q, e in a.items():
        out[q + shift] = out.get(q + shift, 0) + e
    return out


def _degree_bounds(pairs: list, side: str) -> dict:
    """(offset d, monomial mu) -> D_{d,mu}, the degree of the lcm Q of the
    denominators of the products that reach the generic entry R_{d,mu}: both
    compositions of each piece pair (``_pairs``), as in ``_compose``.  Each
    product is bounded at infinity, so R_{d,mu} = P/Q with deg P <= D_{d,mu}."""
    keys: dict = {}   # id of a piece's entries -> its (d, poles), read once
    lcms: dict = {}
    for F, kf, U, ku, mono in pairs:
        for E, k in ((F, kf), (U, ku)):
            if id(E) not in keys:
                keys[id(E)] = _pole_keys(E, k, side)
        (df, pf), (du, pu) = keys[id(F)], keys[id(U)]
        den = lcms.setdefault((df + du, mono), {})
        for poles in (_product_poles(pu, pf, 2 * du), _product_poles(pf, pu, 2 * df)):
            for q, e in poles.items():
                if e > den.get(q, 0):
                    den[q] = e
    return {key: sum(den.values()) for key, den in lcms.items()}


@dataclass
class CommutationReport:
    commutes: bool
    threshold: int
    generic: Dict[str, Terms]        # side -> generic residual from threshold; empty if commutes
    witnesses: list = field(default_factory=list)

    @property
    def generic_nonzero(self) -> list:
        """(side, offset) of every entry of the generic residuals, all nonzero;
        each side's offsets in increasing order."""
        return [(side, d) for side, entries in self.generic.items() for d in entries.terms]

    def to_json(self):
        return {
            "commutes": self.commutes,
            "threshold": self.threshold,
            "generic_residuals": {
                side: {str(d): fn.render("n") for d, fn in sorted(entries.terms.items())}
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
    """Certify [T_f, T_u] = 0 on the whole basis, from concrete residuals alone.

    The residuals are one scalar per (output index, monomial), from column
    entries computed once per call (``_residual``).  Every index up to
    top = max(n_max, n0*) is checked, and a nonzero residual is a witness.
    Above n0* = K_f + K_u + 1 no below-threshold branch can contribute to
    either composition, so the residual on e_{+-n} has the entry R_{d,mu}(2n)
    at e_{+-(n+d)} and monomial mu.  R_{d,mu} = P/Q with
    deg P <= deg Q = D_{d,mu} (``_degree_bounds``).  At z = 2n, n >= n0*, each
    factor z + q of Q is the s + a > 0 of a column entry, so R_{d,mu} is
    identically zero exactly when it vanishes at n0*, ..., n0* + D_{d,mu}:
    D + 1 roots of a polynomial P of degree <= D.  With no witness the scan
    goes on past top to n0* + max D on each side, up to its first nonzero
    value.  ``commutes`` is true exactly when neither scan finds one; n_max
    only sets how far witnesses are listed, never the verdict.  Only a failing
    report composes the generic residuals (``generic_residual``), to print them.
    """
    _check_integrable(f)
    _check_integrable(u)
    n_star = f.max_abs_degree() + u.max_abs_degree() + 1
    top = max(n_max, n_star)
    pairs = _pairs(f, u)
    witnesses = []
    for m in sorted(range(-top, top + 1), key=basis_order):
        res = _residual(pairs, m)
        if not res.is_zero():
            witnesses.append((m, res))
    commutes = not witnesses and not any(
        _residual(pairs, sign * n) for side, sign in ((ANALYTIC, 1), (CONJUGATE, -1))
        for n in range(top + 1, n_star + max(_degree_bounds(pairs, side).values(), default=0) + 1))
    return CommutationReport(
        commutes=commutes,
        threshold=n_star,
        generic={side: Terms() if commutes else generic_residual(f, u, side)
                 for side in (ANALYTIC, CONJUGATE)},
        witnesses=witnesses,
    )
