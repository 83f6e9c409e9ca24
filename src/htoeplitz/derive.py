"""Telescoping functional equations and the mechanized derivation pipeline.

Writing the commutator identity [T_f, T_u] = 0 on basis vectors and looking
at one output offset at a time produces equations of the form

    F(z+2) - F(z) = G(z+2) - G(z),   F(z) = (z+c) phihat(z+d),

with z twice the basis index.  Constancy of periodic functions of bounded
characteristic then gives F = C + G for a fresh constant C, which inverts
to an explicit radial component.  Non-integrable terms force constants to
zero; iterating degree by degree characterizes every commutant symbol.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .exactalg import C as C_, Coeff, abar as abar_, cname
from .mellin import MellinInversionError, inverse_mellin, mellin
from .radial import RadialFunction
from .ratfun import Poly, RationalFn
from .toeplitz import (
    ANALYTIC,
    CONJUGATE,
    Symbol,
    branch_offset,
    branch_z,
    u_symbol,
    verify_commute,
)

class TelescopeError(ValueError):
    pass


@dataclass(frozen=True)
class FunctionalEquation:
    """F(z+2) - F(z) = rhs(z) with F(z) = (z+c) phihat(z+d) and rhs = G(z+2)-G(z)."""

    c: Fraction
    d: Fraction
    G: RationalFn
    rhs: RationalFn
    unknown_name: str


def antidifference(h: RationalFn) -> RationalFn:
    """A rational g with g(z+2) - g(z) = h(z), or TelescopeError.

    Partial-fraction terms are matched along each arithmetic progression of
    poles with step 2 (per multiplicity); the coefficient ladder must sum to
    zero along every progression or no rational solution exists.  A
    polynomial part is integrated by solving top coefficient first.
    """
    poly = Poly()
    remaining = h.poly_part
    while remaining:
        deg = remaining.degree()
        coef = remaining.leading() / Fraction(2 * (deg + 1))
        term = Poly({deg + 1: coef})
        poly = poly + term
        remaining = remaining - (term.shift(2) - term)
    # fractions, grouped by (pole residue class mod 2, power)
    groups: Dict[Tuple[Fraction, int], Dict[Fraction, Coeff]] = {}
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
    out = RationalFn(fractions) + poly
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
    F = mellin(phi).shift(eq.d) * Poly.linear(eq.c)
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
        phihat = numerator / Poly.linear(eq.c - eq.d)
        phi = inverse_mellin(phihat)
    except MellinInversionError as exc:
        raise TelescopeError(f"G incompatible with shape: {exc}") from exc
    if not _satisfies(eq, phi):
        raise TelescopeError("solver soundness check failed: F != C + G")
    return eq.unknown_name, phi


def commute_with_Tz_solve(p: int) -> RadialFunction:
    """The radial phi with [T_{e^{ip theta} phi}, T_z] = 0: phi = C r^p."""
    if p < 1:
        raise ValueError("degree must be >= 1")
    eq = FunctionalEquation(
        c=Fraction(2 * p + 2),
        d=Fraction(p + 2),
        G=RationalFn.zero,
        rhs=RationalFn.zero,
        unknown_name=cname(p),
    )
    _, phi = solve_telescoping(eq)
    return phi


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
    the z part acting as a downward shift).  All known contributions at that
    offset move to the right-hand side; each radial term of a known component
    is matched as B(z+2m) against its partner and summed into G term by term,
    with any unmatched remainder handled by a proper antidifference.
    """
    _check_u(u)
    if side == ANALYTIC:
        c, d = Fraction(2 * g + 2), Fraction(g + 2)
        M = RationalFn.one
    else:
        if g >= 0:
            raise TelescopeError("conjugate-side derivation requires negative degree")
        c, d = Fraction(0), Fraction(-g)
        # unknown terms: -(z-2g) phihat(z-g+2) + z(z-2g)/(z+2) phihat(z-g);
        # multiplying by M normalizes them to F(z+2) - F(z) with F = z phihat(z-g)
        M = RationalFn.quotient(-Poly.linear(2), {-2 * g: 1})
    G = RationalFn.zero
    rhs = RationalFn.zero
    residual = RationalFn.zero
    for kf, phi_f in known.terms.items():
        if kf == g:
            continue
        for j, phi_u in u.terms.items():
            if kf + j != g + 1:
                continue
            u_fn = branch_z(side, j, phi_u)
            du = 2 * branch_offset(side, j)
            df = 2 * branch_offset(side, kf)
            for key, coef in phi_f.terms.items():
                term = RadialFunction({key: coef})
                c_t = branch_z(side, kf, term)
                s1 = u_fn * c_t.shift(du)          # T_f T_u path (u first)
                s2 = c_t * u_fn.shift(df)          # T_u T_f path (f first)
                A = M * s2
                B = M * s1
                rhs = rhs + (A - B)
                m = _find_shift(A, B)
                if m is None:
                    residual = residual + (A - B)
                elif m > 0:
                    for i in range(m):
                        G = G + B.shift(2 * i)
                elif m < 0:
                    for i in range(m, 0):
                        G = G - B.shift(2 * i)
    if not residual.is_zero():
        G = G + antidifference(residual)
    return FunctionalEquation(c=c, d=d, G=G, rhs=rhs, unknown_name=cname(g))


def _find_shift(A: RationalFn, B: RationalFn) -> Optional[int]:
    """The m with A(z) = B(z + 2m), or None.

    Each fraction c/(z+q)^j of B becomes c/(z+q+2m)^j in B(z + 2m), so m
    is half the gap between the smallest q of A and of B; one comparison
    confirms it.  Pole-free pairs try only m = 0.
    """
    m = 0
    fa, fb = A.fractions, B.fractions
    if fa or fb:
        if not (fa and fb):
            return None
        m = (min(q for q, _ in fa) - min(q for q, _ in fb)) / 2
        if m.denominator != 1:
            return None
    return int(m) if A == (B.shift(2 * m) if m else B) else None


# ---------------------------------------------------------------------------
# pipeline


@dataclass
class StageRecord:
    degree: int
    method: str                      # "Tz-solve" | "analytic" | "conjugate"
    introduced: str
    solved: RadialFunction           # as first derived, before forcing
    forced: List[Tuple[str, Tuple[Fraction, int]]] = field(default_factory=list)
    integrable: bool = True
    restarted: bool = False

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


@dataclass
class DerivationReport:
    N_start: int
    N_effective: int
    effective_top_degree: int
    stages: List[StageRecord]
    components: Dict[int, RadialFunction]
    final_symbol: Symbol
    survivors: List[str]
    forced: Dict[str, Tuple[int, Tuple[Fraction, int]]]
    commutes: bool
    verification: object = None
    notes: List[str] = field(default_factory=list)

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
) -> Tuple[RadialFunction, List[Tuple[str, Tuple[Fraction, int]]]]:
    """Zero out every constant appearing in a non-integrable term's coefficient."""
    forced: List[Tuple[str, Tuple[Fraction, int]]] = []
    names: set = set()
    for key, coef in phi.non_integrable_terms().items():
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

    Top two degrees come from commutation with T_z alone; the next degree is
    the step whose integrability filter bounds the top degree (restarting one
    degree lower whenever the top constant is forced to zero); remaining
    degrees down to -2 use the analytic-side equation and degrees -3 and
    below the conjugate-side equation.  The assembled symbol is verified to
    commute on the whole basis before reporting.
    """
    _check_u(u)
    if N_start < 2:
        raise ValueError("N_start must be >= 2")
    stages: List[StageRecord] = []
    forced_ledger: Dict[str, Tuple[int, Tuple[Fraction, int]]] = {}
    introduced: Dict[str, None] = {}     # ordered set of constant names
    notes: List[str] = []
    comps: Dict[int, RadialFunction] = {}

    def run_stage(g: int, side: str) -> StageRecord:
        eq = constraint_at_offset(u, Symbol(comps), g, side)
        name, phi = solve_telescoping(eq)
        introduced[name] = None
        rec = StageRecord(g, side, name, phi, integrable=phi.is_integrable())
        stages.append(rec)
        if not rec.integrable:
            phi, rec.forced = _force_constants(phi)
            names = [n for n, _ in rec.forced]
            for n, key in rec.forced:
                forced_ledger.setdefault(n, (g, key))
            for k in list(comps):
                comps[k] = comps[k].substitute_zero(names)
                if comps[k].is_zero():
                    del comps[k]
        if not phi.is_zero():
            comps[g] = phi
        return rec

    N_eff = N_start
    while True:
        comps.clear()
        # top two degrees from commutation with T_z
        for g in (N_eff, N_eff - 1):
            if g >= 1:
                comps[g] = commute_with_Tz_solve(g)
                introduced[cname(g)] = None
                stages.append(StageRecord(g, "Tz-solve", cname(g), comps[g]))
        # degree N-2 bounds the top degree: restart lower if it forces C_N
        rec = run_stage(N_eff - 2, ANALYTIC)
        if all(n != cname(N_eff) for n, _ in rec.forced):
            break
        rec.restarted = True
        notes.append(
            f"top degree {N_eff} rejected: derived component of degree {N_eff - 2} "
            f"has a non-integrable term; restarting at {N_eff - 1}"
        )
        N_eff -= 1

    for g in range(N_eff - 3, -3, -1):
        run_stage(g, ANALYTIC)
    for g in range(-3, -K_max - 1, -1):
        run_stage(g, CONJUGATE)

    f = Symbol(comps)
    report = verify_commute(f, u, n_max)
    survivors = [n for n in introduced if n not in forced_ledger]
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
        forced=forced_ledger,
        commutes=report.commutes,
        verification=report,
        notes=notes,
    )


# ---------------------------------------------------------------------------
# reproduction of the individual printed derivations


def _r(coeff, a, b=0) -> RadialFunction:
    return RadialFunction.term(coeff, a, b)


def _printed_formulas() -> Dict[str, RadialFunction]:
    C1, C2, C3, C4 = C_(1), C_(2), C_(3), C_(4)
    C0, Cm1, Cm2, Cm3, Cm4 = C_(0), C_(-1), C_(-2), C_(-3), C_(-4)
    a1, a2, a3, a4 = abar_(1), abar_(2), abar_(3), abar_(4)
    h = Fraction(1, 2)
    out = {}
    out["4.1"] = (
        _r(C2, 2)
        + _r(C4 * a1, 4)
        + _r((C4 * a1).scale(Fraction(9, 2)), 2)
        + _r((C4 * a1).scale(2), 2, 1)
        + _r((C4 * a1).scale(-h), -2)
        + _r(-(C4 * a1), 0)
    )
    out["R4.2"] = (
        _r(C1, 1)
        + _r(C3 * a1, 3)
        + _r((C3 * a1).scale(3), 1)
        + _r((C3 * a1).scale(2), 1, 1)
        + _r(-(C3 * a1), -1)
    )
    out["f0"] = (
        _r(C0, 0)
        + _r(C2 * a1, 0) + _r((C2 * a1).scale(2), 0, 1) + _r(C2 * a1, 2)
        + _r((C3 * a2).scale(4), 0, 1) + _r((C3 * a2).scale(2), 2) + _r(C3 * a2, 4)
    )
    out["f-1"] = (
        _r(Cm1, -1)
        + _r(C1 * a1, 1)
        + _r((C3 * a1 * a1).scale(3), 1) + _r((C3 * a1 * a1).scale(2), 1, 1)
        + _r(C3 * a1 * a1, 3)
        + _r((C2 * a2).scale(2), 1) + _r(-(C2 * a2), -1) + _r(C2 * a2, 3)
        + _r((C3 * a3).scale(3), 1) + _r((C3 * a3).scale(Fraction(-2, 5)), -1)
        + _r((C3 * a3).scale(Fraction(3, 2)), 3) + _r(C3 * a3, 5)
    )
    c3a12 = C3 * a1 * a2
    out["f-2"] = (
        _r(Cm2, -2)
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
    )
    out["f-3-mid"] = (
        _r(Cm3, -3) + _r(C1 * a3, 3)
        + _r((Cm1 * a1).scale(-h), -3) + _r((Cm1 * a1).scale(-h), 1)
    )
    out["f-3"] = _r(C1 * a3, 3)
    out["f-4-mid"] = _r(Cm4, -4) + _r(C1 * a4, 4)
    out["f-4"] = _r(C1 * a4, 4)
    return out


@dataclass
class LemmaReport:
    tag: str
    derived: RadialFunction
    printed: RadialFunction
    match: bool
    forced: List[str]
    derived_satisfies_equation: bool
    printed_satisfies_equation: bool
    discrepancy: Optional[RadialFunction] = None

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


def _lemma_setup(tag: str, printed: Dict[str, RadialFunction]):
    """(L, g, side, known components) of one printed derivation step.

    The analytic-side steps start from the T_z-solved tops C_d r^d and the
    printed components above g; the conjugate-side steps from the main
    theorem's components C1 r, C0 and C1 abar_l r^l at degree -l.
    """
    def tops(*ds):
        return {d: _r(C_(d), d) for d in ds}

    def main_theorem(k):
        return {**tops(1, 0), **{-l: _r(C_(1) * abar_(l), l) for l in range(1, k)}}

    k = _induction_degree(check_lemma_tag(tag))
    if k is not None:
        return k, -k, CONJUGATE, main_theorem(k)
    upper = {**tops(3, 2), 1: printed["R4.2"]}
    f3 = main_theorem(3)
    f3[-1] = _r(C_(-1), -1) + f3[-1]     # Cm1 is still free: f-3 is the step that forces it
    table = {
        "4.1": (1, 2, ANALYTIC, tops(4, 3)),
        "R4.2": (1, 1, ANALYTIC, tops(3, 2)),
        "f0": (2, 0, ANALYTIC, upper),
        "f-1": (3, -1, ANALYTIC, upper),
        "f-2": (4, -2, ANALYTIC, {**upper, 0: printed["f0"], -1: printed["f-1"]}),
        "f-3": (3, -3, CONJUGATE, f3),
        "f-4": (4, -4, CONJUGATE, main_theorem(4)),
    }
    return table[tag]


def reproduce_lemma(tag: str) -> LemmaReport:
    """Re-run one printed derivation in isolation and compare structurally.

    On mismatch, both the mechanized and the printed radial functions are
    checked against the exact functional-equation identity, so the verdict
    does not depend on the printed text.  Conjugate-side steps are printed
    after forcing; their pre-forcing form (``-mid``) is what the equation
    checks, and the derived form is forced before the comparison.
    """
    printed = _printed_formulas()
    L, g, side, known = _lemma_setup(tag, printed)
    if tag not in printed:   # induction(k): the main theorem's C1 abar_k r^k
        printed[tag] = _r(C_(1) * abar_(L), L)
        printed[tag + "-mid"] = _r(C_(-L), -L) + printed[tag]
    eq = constraint_at_offset(u_symbol(L), Symbol(known), g, side)
    _, phi = solve_telescoping(eq)
    mid = printed.get(tag + "-mid")
    derived, forced = phi, []
    if mid is not None and not phi.is_integrable():
        derived, items = _force_constants(phi)
        forced = [n for n, _ in items]
    match = derived == printed[tag]
    return LemmaReport(
        tag=tag,
        derived=derived,
        printed=printed[tag],
        match=match,
        forced=forced,
        derived_satisfies_equation=_satisfies(eq, phi),
        printed_satisfies_equation=_satisfies(eq, printed[tag] if mid is None else mid),
        discrepancy=None if match else derived - printed[tag],
    )


ALL_LEMMA_TAGS = [*PRINTED_LEMMA_TAGS,
                  "induction(5)", "induction(6)", "induction(7)", "induction(8)"]
