"""Telescoping functional equations and the mechanized derivation pipeline.

Writing the commutator identity [T_f, T_u] = 0 on basis vectors and looking
at one output offset at a time produces equations of the form

    F(z+2) - F(z) = G(z+2) - G(z),   F(z) = (z+c) phihat(z+d),

with z twice the basis index.  Constancy of periodic functions of bounded
characteristic then gives F = C + G for a fresh constant C, which inverts
to an explicit radial component.  Non-integrable terms force constants to
zero; iterating degree by degree characterizes every commutant symbol.
A pair of one known radial term and one component of u whose compositions
in the two orders are equal adds nothing to an equation, so it is dropped
before any product; the other pairs are summed per monomial over scalars,
and each stage lifts its sums to ``Coeff`` values once.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional, Tuple

from .exactalg import ONE, C as C_, Coeff, Rat, Terms, _mono_mul, abar as abar_, cname
from .mellin import MellinInversionError, inverse_mellin, mellin
from .radial import RadialFunction
from .ratfun import RationalFn, _acc
from .toeplitz import (
    ANALYTIC,
    CONJUGATE,
    Symbol,
    _compose,
    _generic_pieces,
    branch_offset,
    branch_z,
    u_symbol,
    verify_commute,
)

class TelescopeError(ValueError):
    pass


class FunctionalEquation(NamedTuple):
    """F(z+2) - F(z) = rhs(z) with F(z) = (z+c) phihat(z+d) and rhs = G(z+2)-G(z)."""

    c: Rat
    d: Rat
    G: RationalFn
    rhs: RationalFn
    unknown_name: str


def antidifference(h: RationalFn) -> RationalFn:
    """The proper rational g with g(z+2) - g(z) = h(z), for h with no polynomial part.

    Partial-fraction terms are matched along each arithmetic progression of
    poles with step 2 (per multiplicity); the coefficient ladder must sum to
    zero along every progression or no rational solution exists.  A proper
    solution is unique, since a proper rational function of period 2 is zero.
    A polynomial part is refused: no equation of the pipeline produces one.
    """
    if h.poly_part:
        raise TelescopeError(f"no proper antidifference: polynomial part {h.poly_part}")
    # fractions, grouped by (pole residue class mod 2, power)
    groups: Dict[Tuple[Rat, int], Dict[Rat, Coeff]] = {}
    for (q, j), c in h.fractions.items():
        groups.setdefault((q % 2, j), {})[q] = c
    fractions = {}
    for (_res, j), items in groups.items():
        top = max(items)
        bottom = min(items)
        d = Coeff()
        p = top
        while p >= bottom:
            d = d + items.get(p, Coeff())
            if not d.is_zero():
                if p - 2 < bottom:
                    raise TelescopeError(
                        f"no rational antidifference: residue ladder at poles "
                        f"{{z+{bottom}, ..., z+{top}}}^{j} does not cancel"
                    )
                fractions[(p - 2, j)] = d
            p -= 2
    out = RationalFn(fractions)
    # exact verification
    if out.shift(2) - out != h:
        raise TelescopeError("antidifference verification failed")
    return out


def _satisfies(eq: FunctionalEquation, phi: RadialFunction) -> bool:
    """The normalized identity F - G = C with C the stage's own constant.

    This is sharper than F(z+2)-F(z) = rhs alone: the latter cannot see
    kernel terms (multiples of r^{d-c-...} absorbed into the constant), and
    the stage's constant is defined exactly by this normalization.
    """
    F = mellin(phi).shift(eq.d) * RationalFn.linear(eq.c)
    return F - eq.G == RationalFn.const(Coeff.indet(eq.unknown_name))


def solve_telescoping(eq: FunctionalEquation) -> Tuple[str, RadialFunction]:
    """Introduce the fresh constant and invert F = C + G to a radial function.

    Verifies a posteriori, as exact rational-function identities, that the
    rebuilt F satisfies the input equation and that G generates the stored
    right-hand side.
    """
    if eq.G.shift(2) - eq.G != eq.rhs:
        raise TelescopeError("G is not an antidifference of the right-hand side")
    c_term = RationalFn.const(Coeff.indet(eq.unknown_name))
    numerator = c_term + eq.G.shift(-eq.d)
    try:
        phihat = numerator * RationalFn({(eq.c - eq.d, 1): 1})   # numerator / (z + c - d)
        phi = inverse_mellin(phihat)
    except MellinInversionError as exc:
        raise TelescopeError(f"G incompatible with shape: {exc}") from exc
    if not _satisfies(eq, phi):
        raise TelescopeError("solver soundness check failed: F != C + G")
    return eq.unknown_name, phi


# ---------------------------------------------------------------------------
# building the functional equation for one unknown component


def _check_u(u: Symbol) -> None:
    if u.terms.get(1) != RadialFunction.term(1, 1):
        raise TelescopeError("equation not of telescoping form: u must have analytic part z")
    for k in u.terms:
        if k != 1 and k >= 0:
            raise TelescopeError(
                "equation not of telescoping form: u may only add co-analytic terms"
            )


def constraint_at_offset(u: Symbol, known: Symbol, g: int, side: str) -> FunctionalEquation:
    """The telescoping equation isolating the unknown component of degree g.

    On the analytic side the unknown contributes at output offset g+1 (paired
    with the z part of u); on the conjugate side at offset -g-1 (paired with
    the z part acting as a downward shift).  Each radial term of a known
    component, composed with u in both orders by ``toeplitz._compose``, gives
    a map monomial mu of u -> scalar entry at that offset per order.  Where the
    two maps are equal, as when neither branch has a pole and each acts as a
    shift with a constant weight, the pair adds A - B = 0 and its shift is
    m = 0, so it is skipped before any product.  Otherwise each entry times M
    gives A_mu and B_mu, and the pair adds coef * mu (A_mu - B_mu) to the
    right-hand side, summed per monomial over scalars and lifted to ``Coeff``
    values once per stage; G is the proper antidifference of the sum plus the
    normalization constant described below.
    """
    _check_u(u)
    if side == ANALYTIC:
        c, d = 2 * g + 2, g + 2
        M = RationalFn({0: 1})
    else:
        if g >= 0:
            raise TelescopeError("conjugate-side derivation requires negative degree")
        c, d = 0, -g
        # unknown terms: -(z-2g) phihat(z-g+2) + z(z-2g)/(z+2) phihat(z-g);
        # multiplying by M = -(z+2)/(z-2g) normalizes them to F(z+2) - F(z), F = z phihat(z-g)
        M = RationalFn({(-2 * g, 1): -2 * g - 2, 0: -1})
    rhs, norm = {}, {}   # monomial -> scalar RationalFn, lifted once below
    offset = branch_offset(side, g + 1)
    for kf, phi_f in known.terms.items():
        j = g + 1 - kf
        if kf == g or j not in u.terms:
            continue
        us = _generic_pieces(Symbol({j: u.terms[j]}), side)
        for key, coef in phi_f.terms.items():
            ft = [((), branch_offset(side, kf), branch_z(side, kf, *key))]
            # a: T_u after T_f, b: T_f after T_u, each a map monomial mu of u -> scalar entry
            a, b = (_compose(x, y).get(offset, Terms()) for x, y in ((us, ft), (ft, us)))
            if a == b:   # A - B = 0, and m B(inf) adds nothing at m = 0
                continue
            A, B = ({mu: M * fn for mu, fn in t.terms.items()} for t in (a, b))
            m = _find_shift(A, B) or 0
            for mu, fb in B.items():   # both orders compose the same pieces: one key set
                diff, inf = A[mu] - fb, fb.poly_part.scale(m)
                for mono, s in coef.terms.items():   # lifted by coef * mu, one monomial at a time
                    lifted = _mono_mul(mono, mu)
                    _acc(rhs, lifted, diff.scale(s))
                    _acc(norm, lifted, inf.scale(s))
    rhs, norm = (sum((fn.scale(Coeff({mono: ONE})) for mono, fn in t.items()), RationalFn.zero)
                 for t in (rhs, norm))
    # norm sums m B(inf) over the pairs with A(z) = B(z + 2m).  A and B have the
    # same value at infinity, so rhs is proper.  Such a pair's equation is also
    # solved by the shift sum B(z) + ... + B(z + 2m - 2) (negated, over
    # z + 2m, ..., z - 2, when m < 0), whose proper part is the proper
    # antidifference and whose constant is m B(inf).  _force_constants zeroes
    # every constant in a non-integrable coefficient, which is right only with
    # this normalization: without it the main theorem's C1 is forced away at
    # L = 5 and L = 10.
    G = antidifference(rhs) + norm
    return FunctionalEquation(c=c, d=d, G=G, rhs=rhs, unknown_name=cname(g))


def _find_shift(A: dict, B: dict) -> Optional[int]:
    """The m with A_mu(z) = B_mu(z + 2m) for every monomial mu, or None.

    A and B map each monomial mu to a RationalFn.  Each fraction c/(z+q)^j
    of B_mu becomes c/(z+q+2m)^j in B_mu(z + 2m), so m is half the gap
    between the smallest q over all of A and over all of B; one comparison
    per monomial confirms it.  Pole-free pairs try only m = 0.
    """
    m = 0
    fa, fb = ([q for fn in t.values() for q, _ in fn.fractions] for t in (A, B))
    if fa or fb:
        if not (fa and fb):
            return None
        m = Fraction(min(fa) - min(fb), 2)
        if m.denominator != 1:
            return None
        m = m.numerator
    return m if A.keys() == B.keys() and all(
        A[mu] == (B[mu].shift(2 * m) if m else B[mu]) for mu in A) else None


# ---------------------------------------------------------------------------
# pipeline


class StageRecord:
    def __init__(self, degree: int, method: str, introduced: str, solved: RadialFunction,
                 forced: List[Tuple[str, Tuple[Rat, int]]] = None, integrable: bool = True,
                 restarted: bool = False):
        self.degree = degree
        self.method = method              # "Tz-solve" | "analytic" | "conjugate"
        self.introduced = introduced
        self.solved = solved              # as first derived, before forcing
        self.forced = [] if forced is None else forced
        self.integrable = integrable
        self.restarted = restarted

    def to_json(self):
        return {
            "degree": self.degree,
            "method": self.method,
            "introduced": self.introduced,
            "solved": str(self.solved),
            "forced": [
                {"constant": name, "offending_term": {"a": str(a), "b": b}}
                for name, (a, b) in self.forced
            ],
            "integrable": self.integrable,
            "restarted": self.restarted,
        }


class DerivationReport:
    def __init__(self, N_start: int, N_effective: int, effective_top_degree: int,
                 stages: List[StageRecord], components: Dict[int, RadialFunction],
                 final_symbol: Symbol, survivors: List[str],
                 forced: Dict[str, Tuple[int, Tuple[Rat, int]]], commutes: bool,
                 verification=None, notes: List[str] = None):
        self.N_start = N_start
        self.N_effective = N_effective
        self.effective_top_degree = effective_top_degree
        self.stages = stages
        self.components = components
        self.final_symbol = final_symbol
        self.survivors = survivors
        self.forced = forced
        self.commutes = commutes
        self.verification = verification
        self.notes = [] if notes is None else notes

    def to_json(self):
        return {
            "N_start": self.N_start,
            "N_effective": self.N_effective,
            "effective_top_degree": self.effective_top_degree,
            "stages": [s.to_json() for s in self.stages],
            "components": {
                str(k): str(p) for k, p in sorted(self.components.items(), reverse=True)
            },
            "final_symbol": str(self.final_symbol),
            "survivors": self.survivors,
            "forced": {
                name: {"stage": g, "offending_term": {"a": str(a), "b": b}}
                for name, (g, (a, b)) in self.forced.items()
            },
            "commutes": self.commutes,
            "verification": self.verification.to_json() if self.verification else None,
            "notes": self.notes,
        }


def _force_constants(
    phi: RadialFunction,
) -> Tuple[RadialFunction, List[Tuple[str, Tuple[Rat, int]]]]:
    """Zero out every constant appearing in a non-integrable term's coefficient.

    Terms are taken in (a, b) order, so each forced constant is reported with
    its lowest non-integrable term, whatever order phi's terms were built in.
    """
    forced: List[Tuple[str, Tuple[Rat, int]]] = []
    names: set = set()
    for key, coef in sorted(phi.non_integrable_terms().items()):
        hit = coef.constant_names()
        if not hit:
            raise TelescopeError(
                f"non-integrable term r^{key[0]}(ln r)^{key[1]} has no removable constant"
            )
        for name in sorted(hit - names):
            forced.append((name, key))
        names |= hit
    phi = phi.substitute_zero(names)
    if not phi.is_integrable():
        raise TelescopeError("component still non-integrable after forcing")
    return phi, forced


def run_pipeline(u: Symbol, N_start: int, K_max: int, n_max: int = 20) -> DerivationReport:
    """Derive every component of a truncated-above commutant of T_u.

    One telescoping stage per degree g, from the top degree N down to
    min(-2, -K_max): the analytic-side equation for g >= -2 and the
    conjugate-side one below.  The top two stages (labelled "Tz-solve")
    have an empty right side, so they give C_N r^N and C_{N-1} r^{N-1},
    commutation with T_z alone.  Stage N-2 bounds the top degree: when it
    forces C_N to zero, the derivation restarts one degree lower.  The
    assembled symbol is verified to commute on the whole basis before
    reporting.
    """
    _check_u(u)
    if N_start < 2:
        raise ValueError("N_start must be >= 2")
    stages: List[StageRecord] = []
    notes: List[str] = []
    comps: Dict[int, RadialFunction] = {}
    N_eff = g = N_start
    while g >= min(-2, -K_max):
        side = ANALYTIC if g >= -2 else CONJUGATE
        name, phi = solve_telescoping(constraint_at_offset(u, Symbol(comps), g, side))
        rec = StageRecord(g, "Tz-solve" if g >= N_eff - 1 else side, name, phi,
                          integrable=phi.is_integrable())
        stages.append(rec)
        if not rec.integrable:
            phi, rec.forced = _force_constants(phi)
            names = [n for n, _ in rec.forced]
            for k in list(comps):
                comps[k] = comps[k].substitute_zero(names)
                if comps[k].is_zero():
                    del comps[k]
        if g == N_eff - 2 and any(n == cname(N_eff) for n, _ in rec.forced):
            rec.restarted = True
            notes.append(
                f"top degree {N_eff} rejected: derived component of degree {g} "
                f"has a non-integrable term; restarting at {N_eff - 1}"
            )
            N_eff = g = N_eff - 1
            comps.clear()
            continue
        if not phi.is_zero():
            comps[g] = phi
        g -= 1

    forced: Dict[str, Tuple[int, Tuple[Rat, int]]] = {}
    for s in stages:
        for n, key in s.forced:
            forced.setdefault(n, (s.degree, key))
    survivors = [n for n in dict.fromkeys(s.introduced for s in stages) if n not in forced]
    f = Symbol(comps)
    report = verify_commute(f, u, n_max)
    top = max(comps) if comps else 0
    if top < N_eff:
        notes.append(
            f"effective top degree is {top}: the components above it vanished "
            "after forcing, so the ansatz degree is reported separately"
        )
    return DerivationReport(
        N_start=N_start,
        N_effective=N_eff,
        effective_top_degree=top,
        stages=stages,
        components=comps,
        final_symbol=f,
        survivors=survivors,
        forced=forced,
        commutes=report.commutes,
        verification=report,
        notes=notes,
    )


# ---------------------------------------------------------------------------
# reproduction of the individual printed derivations


def _r(coeff, a, b=0) -> RadialFunction:
    return RadialFunction.term(coeff, a, b)


class LemmaReport:
    derived_satisfies_equation = True   # solve_telescoping checked F - G = C, or it raised

    def __init__(self, tag: str, derived: RadialFunction, printed: RadialFunction, match: bool,
                 forced: List[str], printed_satisfies_equation: bool,
                 discrepancy: Optional[RadialFunction] = None):
        self.tag = tag
        self.derived = derived
        self.printed = printed
        self.match = match
        self.forced = forced
        self.printed_satisfies_equation = printed_satisfies_equation
        self.discrepancy = discrepancy

    def to_json(self):
        return {
            "tag": self.tag,
            "derived": str(self.derived),
            "printed": str(self.printed),
            "match": self.match,
            "forced": self.forced,
            "derived_satisfies_equation": self.derived_satisfies_equation,
            "printed_satisfies_equation": self.printed_satisfies_equation,
            "discrepancy": None if self.discrepancy is None else str(self.discrepancy),
        }


PRINTED_LEMMA_TAGS = ("4.1", "R4.2", "f0", "f-1", "f-2", "f-3", "f-4")


def _induction_degree(tag: str) -> Optional[int]:
    """k of a tag 'induction(k)' with an integer k, else None."""
    if tag.startswith("induction(") and tag.endswith(")"):
        try:
            return int(tag[len("induction("):-1])
        except ValueError:
            return None
    return None


def check_lemma_tag(tag: str) -> str:
    """Return tag if ``reproduce_lemma`` knows it, else raise ValueError."""
    k = _induction_degree(tag)
    if tag in PRINTED_LEMMA_TAGS or (k is not None and k >= 2):
        return tag
    raise ValueError(
        f"unknown lemma tag {tag!r}: expected one of {', '.join(PRINTED_LEMMA_TAGS)} "
        "or induction(k) with an integer k >= 2"
    )


def _tops(*ds) -> Dict[int, RadialFunction]:
    """The components C_d r^d solved from commutation with T_z."""
    return {d: _r(C_(d), d) for d in ds}


def _main_theorem(k: int) -> Dict[int, RadialFunction]:
    """The main theorem's components above degree -k: C1 r, C0, C1 abar_l r^l at -l."""
    return {**_tops(1, 0), **{-l: _r(C_(1) * abar_(l), l) for l in range(1, k)}}


def _lemma_step(tag: str):
    """(L, g, side, known, printed, mid) of one printed derivation step.

    The step derives the component of degree g of the commutant of T_u,
    u = u_symbol(L), from the ``known`` components on one side, and the
    paper prints it as ``printed``.  Conjugate-side steps are printed after
    forcing; ``mid`` is their printed pre-forcing form, which the equation
    checks, and is None on the analytic side.  f-4 is induction(4).  The
    analytic steps are built in dependency order, and each returns as soon
    as its own formulas exist.
    """
    check_lemma_tag(tag)
    k = 4 if tag == "f-4" else _induction_degree(tag)
    if k is not None:
        printed = _r(C_(1) * abar_(k), k)
        return k, -k, CONJUGATE, _main_theorem(k), printed, _r(C_(-k), -k) + printed
    if tag == "f-3":
        known = _main_theorem(3)
        known[-1] = _r(C_(-1), -1) + known[-1]   # Cm1 is still free: f-3 forces it
        printed = _r(C_(1) * abar_(3), 3)
        half_cm1a1 = (C_(-1) * abar_(1)).scale(Fraction(-1, 2))
        mid = _r(C_(-3), -3) + printed + _r(half_cm1a1, -3) + _r(half_cm1a1, 1)
        return 3, -3, CONJUGATE, known, printed, mid
    C0, C1, C2, C3, C4 = (C_(d) for d in range(5))
    a1, a2, a3, a4 = (abar_(l) for l in range(1, 5))
    h = Fraction(1, 2)
    if tag == "4.1":
        return 1, 2, ANALYTIC, _tops(4, 3), (
            _r(C2, 2)
            + _r(C4 * a1, 4)
            + _r((C4 * a1).scale(Fraction(9, 2)), 2)
            + _r((C4 * a1).scale(2), 2, 1)
            + _r((C4 * a1).scale(-h), -2)
            + _r(-(C4 * a1), 0)
        ), None
    f1 = (
        _r(C1, 1)
        + _r(C3 * a1, 3)
        + _r((C3 * a1).scale(3), 1)
        + _r((C3 * a1).scale(2), 1, 1)
        + _r(-(C3 * a1), -1)
    )
    if tag == "R4.2":
        return 1, 1, ANALYTIC, _tops(3, 2), f1, None
    upper = {**_tops(3, 2), 1: f1}
    f0 = (
        _r(C0, 0)
        + _r(C2 * a1, 0) + _r((C2 * a1).scale(2), 0, 1) + _r(C2 * a1, 2)
        + _r((C3 * a2).scale(4), 0, 1) + _r((C3 * a2).scale(2), 2) + _r(C3 * a2, 4)
    )
    if tag == "f0":
        return 2, 0, ANALYTIC, upper, f0, None
    fm1 = (
        _r(C_(-1), -1)
        + _r(C1 * a1, 1)
        + _r((C3 * a1 * a1).scale(3), 1) + _r((C3 * a1 * a1).scale(2), 1, 1)
        + _r(C3 * a1 * a1, 3)
        + _r((C2 * a2).scale(2), 1) + _r(-(C2 * a2), -1) + _r(C2 * a2, 3)
        + _r((C3 * a3).scale(3), 1) + _r((C3 * a3).scale(Fraction(-2, 5)), -1)
        + _r((C3 * a3).scale(Fraction(3, 2)), 3) + _r(C3 * a3, 5)
    )
    if tag == "f-1":
        return 3, -1, ANALYTIC, upper, fm1, None
    c3a12 = C3 * a1 * a2
    return 4, -2, ANALYTIC, {**upper, 0: f0, -1: fm1}, (
        _r(C_(-2), -2)
        + _r(-(C2 * a1 * a1), -2) + _r(C2 * a1 * a1, 2)
        + _r(c3a12.scale(Fraction(-31, 4)), -2)
        + _r(c3a12.scale(6), 2) + _r(c3a12.scale(2), 4)
        + _r(c3a12.scale(2), 2, 1)
        + _r(c3a12.scale(Fraction(-1, 4)), -6)
        + _r(c3a12.scale(-h), -4)
        + _r(c3a12, -2, 1)
        + _r(c3a12.scale(h), 0)
        + _r(C1 * a2, 2)
        + _r((C2 * a3).scale(Fraction(-3, 2)), -2) + _r((C2 * a3).scale(Fraction(3, 2)), 2)
        + _r(-(C2 * a3), -2) + _r(C2 * a3, 4)
        + _r((C3 * a4).scale(Fraction(-13, 3)), -2) + _r((C3 * a4).scale(2), 2)
        + _r((C3 * a4).scale(Fraction(4, 3)), 4) + _r(C3 * a4, 6)
    ), None


def reproduce_lemma(tag: str) -> LemmaReport:
    """Re-run one printed derivation in isolation and compare structurally.

    The mechanized radial function satisfies the exact functional-equation
    identity, because the solver checked it or raised; the printed one is
    checked against the same identity here, so on a mismatch the verdict
    does not depend on the printed text; a printed form equal to the solved
    one passes without a second check.  A conjugate-side step is compared
    after forcing, and its printed pre-forcing form is what the equation
    checks.
    """
    L, g, side, known, printed, mid = _lemma_step(tag)
    eq = constraint_at_offset(u_symbol(L), Symbol(known), g, side)
    _, phi = solve_telescoping(eq)
    derived, forced = phi, []
    if mid is not None and not phi.is_integrable():
        derived, items = _force_constants(phi)
        forced = [n for n, _ in items]
    match = derived == printed
    shown = printed if mid is None else mid
    return LemmaReport(
        tag=tag,
        derived=derived,
        printed=printed,
        match=match,
        forced=forced,
        printed_satisfies_equation=shown == phi or _satisfies(eq, shown),
        discrepancy=None if match else derived - printed,
    )


ALL_LEMMA_TAGS = [*PRINTED_LEMMA_TAGS,
                  "induction(5)", "induction(6)", "induction(7)", "induction(8)"]
