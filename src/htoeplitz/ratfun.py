"""Univariate rational functions over Coeff, stored as partial fractions.

``Poly`` is a dense polynomial in one variable with ``Coeff`` coefficients.
``RationalFn`` is poly_part + sum over (q, j) of c / (z+q)^j, every pole
location q a concrete rational and j >= 1.  That form is unique, so
equality is structural; sums merge the parts, shifts and affine
substitutions relabel poles, and a product of fractions at two poles splits
by  1/((z+p)^a (z+q)^b) = sum_n (-1)^n C(b+n-1, n) (q-p)^(-b-n) / (z+p)^(a-n)
+ (p <-> q).  The Mellin images of the radial span are exactly the forms
with no polynomial part.  ``num`` / ``den`` give the reduced quotient with a
monic denominator, for rendering and serialization.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import comb, gcd, lcm
from typing import Dict, Mapping, Sequence, Tuple

from .exactalg import Coeff, GaussianRational, Rat, render_sum, render_term

Pole = Tuple[Fraction, int]  # (q, j) for the fraction 1/(z+q)^j


class PoleError(ArithmeticError):
    def __init__(self, q):
        super().__init__(q)
        self.q = q

    def __str__(self):
        return f"evaluation at a pole: z = {self.q}"


class Poly:
    """Dense polynomial: coeffs[i] is the Coeff of z^i, top coefficient nonzero."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence = ()):
        cs = [Coeff.coerce(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @staticmethod
    def const(c) -> "Poly":
        return Poly([c])

    @staticmethod
    def linear(q: Rat) -> "Poly":
        """The monic factor z + q."""
        return Poly([Coeff.const(Fraction(q)), Coeff.const(1)])

    @staticmethod
    def variable() -> "Poly":
        return Poly([0, 1])

    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> Coeff:
        if not self.coeffs:
            return Coeff()
        return self.coeffs[-1]

    def __getitem__(self, i: int) -> Coeff:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return Coeff()

    def __add__(self, other):
        if not isinstance(other, Poly):
            other = Poly.const(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly([self[i] + other[i] for i in range(n)])

    __radd__ = __add__

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other):
        if not isinstance(other, Poly):
            other = Poly.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return Poly.const(other) - self

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return self.scale(other)
        out = [Coeff() for _ in range(len(self.coeffs) + len(other.coeffs))]
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Poly(out)

    __rmul__ = __mul__

    def scale(self, c) -> "Poly":
        c = Coeff.coerce(c)
        return Poly([x * c for x in self.coeffs])

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power")
        out = Poly.const(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def evaluate(self, q) -> Coeff:
        """Horner evaluation; q is a rational or Coeff."""
        q = Coeff.coerce(Fraction(q)) if isinstance(q, (int, Fraction)) else Coeff.coerce(q)
        acc = Coeff()
        for c in reversed(self.coeffs):
            acc = acc * q + c
        return acc

    def div_linear(self, q: Rat) -> Tuple["Poly", Coeff]:
        """Quotient and remainder of division by z + q (synthetic division)."""
        r = -Fraction(q)
        acc = Coeff()
        vals = []
        for c in reversed(self.coeffs):
            acc = c + acc.scale(r)
            vals.append(acc)
        rem = vals.pop() if vals else Coeff()
        return Poly(vals[::-1]), rem

    def compose_affine(self, alpha: Rat, beta: Rat) -> "Poly":
        """p(alpha*w + beta) as a polynomial in w."""
        arg = Poly([Coeff.const(Fraction(beta)), Coeff.const(Fraction(alpha))])
        acc = Poly()
        for c in reversed(self.coeffs):
            acc = acc * arg + Poly.const(c)
        return acc

    def shift(self, beta: Rat) -> "Poly":
        """p(w + beta)."""
        return self.compose_affine(1, beta)

    def render(self, var: str = "z") -> str:
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            if not self.coeffs[i].is_zero():
                power = "" if i == 0 else (var if i == 1 else f"{var}^{i}")
                parts.append(render_term(self.coeffs[i], power))
        return render_sum(parts)

    def __str__(self):
        return self.render()

    def __repr__(self):
        return f"Poly<{self}>"

    def to_json(self):
        return [c.to_json() for c in self.coeffs]


def _acc(out: dict, key: Pole, c: Coeff) -> None:
    out[key] = out[key] + c if key in out else c


def _split(out: dict, c: Coeff, p: Fraction, a: int, q: Fraction, b: int) -> None:
    """Add c / ((z+p)^a (z+q)^b), p != q, to the fraction map out."""
    for (x, m), (y, n) in (((p, a), (q, b)), ((q, b), (p, a))):
        inv = 1 / (y - x)
        for i in range(m):
            s = (-1) ** i * comb(n + i - 1, i) * inv ** (n + i)
            _acc(out, (x, m - i), c.scale(s))


def _divide_linear(poly: Poly, fractions: Mapping[Pole, Coeff], q: Fraction):
    """The parts of (poly + fractions) / (z+q)."""
    quot, rem = poly.div_linear(q)
    out = {(q, 1): rem} if rem else {}
    for (p, j), c in fractions.items():
        if p == q:
            _acc(out, (q, j + 1), c)
        elif c:
            _split(out, c, p, j, q, 1)
    return quot, out


def _poly_times(P: Poly, fractions: Mapping[Pole, Coeff], out: dict) -> Poly:
    """Add the fraction part of P * fractions to out and return its polynomial part.

    At each pole p, P is expanded in w = z + p; the powers of w below j
    stay fractions at p and the rest shift back to a polynomial in z.
    """
    by_pole: Dict[Fraction, list] = {}
    for (p, j), c in fractions.items():
        by_pole.setdefault(p, []).append((j, c))
    poly = Poly()
    for p, terms in by_pole.items():
        t = P.shift(-p).coeffs
        high = [Coeff()] * max(0, len(t) - min(j for j, _ in terms))
        for j, c in terms:
            for i, ti in enumerate(t):
                if i < j:
                    _acc(out, (p, j - i), ti * c)
                else:
                    high[i - j] = high[i - j] + ti * c
        if high:
            poly = poly + Poly(high).shift(p)
    return poly


def _den_poly(den: Mapping[Fraction, int]) -> Poly:
    out = Poly.const(1)
    for q, m in den.items():
        out = out * (Poly.linear(q) ** m)
    return out


class RationalFn:
    """poly_part + sum over (q, j) of fractions[(q, j)] / (z+q)^j.

    ``fractions`` holds no zero entries, so the two parts are unique.
    """

    __slots__ = ("poly_part", "fractions")

    def __init__(self, num: Poly | Sequence, den: Mapping[Rat, int] | None = None):
        """num / prod (z+q)^m, reduced to partial fractions."""
        poly = num if isinstance(num, Poly) else Poly(num)
        fractions: dict = {}
        for q, m in (den or {}).items():
            if m < 0:
                raise ValueError("negative multiplicity")
            for _ in range(m):
                poly, fractions = _divide_linear(poly, fractions, Fraction(q))
        self._set(poly, fractions)

    def _set(self, poly: Poly, fractions: Mapping[Pole, Coeff]) -> None:
        object.__setattr__(self, "poly_part", poly)
        object.__setattr__(self, "fractions", {k: c for k, c in fractions.items() if c})

    def __setattr__(self, name, value):
        raise AttributeError("RationalFn is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_parts(poly_part: Poly, fractions: Mapping[Pole, Coeff]) -> "RationalFn":
        """poly_part + sum c/(z+q)^j over fractions[(q, j)] = c, with j >= 1."""
        out = object.__new__(RationalFn)
        out._set(poly_part, fractions)
        return out

    @staticmethod
    def const(c) -> "RationalFn":
        return RationalFn(Poly.const(c))

    @staticmethod
    def coerce(x) -> "RationalFn":
        if isinstance(x, RationalFn):
            return x
        if isinstance(x, Poly):
            return RationalFn(x)
        return RationalFn.const(x)

    @staticmethod
    def fraction(c, q: Rat, power: int = 1) -> "RationalFn":
        """c / (z+q)^power."""
        return RationalFn(Poly.const(c), {Fraction(q): power})

    zero: "RationalFn"
    one: "RationalFn"

    # -- the reduced quotient ----------------------------------------------

    @property
    def den(self) -> Dict[Fraction, int]:
        """Pole q -> multiplicity: the monic denominator prod (z+q)^m."""
        out: Dict[Fraction, int] = {}
        for q, j in self.fractions:
            if j > out.get(q, 0):
                out[q] = j
        return out

    @property
    def num(self) -> Poly:
        """The numerator over ``den``; it shares no factor (z+q) with it."""
        if not self.fractions:
            return self.poly_part
        return (self * RationalFn(_den_poly(self.den))).poly_part

    # -- algebra -----------------------------------------------------------

    def is_zero(self) -> bool:
        return self.poly_part.is_zero() and not self.fractions

    def __add__(self, other):
        other = RationalFn.coerce(other)
        out = dict(self.fractions)
        for key, c in other.fractions.items():
            _acc(out, key, c)
        return RationalFn.from_parts(self.poly_part + other.poly_part, out)

    __radd__ = __add__

    def __neg__(self):
        return RationalFn.from_parts(-self.poly_part, {k: -c for k, c in self.fractions.items()})

    def __sub__(self, other):
        return self + (-RationalFn.coerce(other))

    def __rsub__(self, other):
        return RationalFn.coerce(other) - self

    def __mul__(self, other):
        other = RationalFn.coerce(other)
        out: dict = {}
        poly = self.poly_part * other.poly_part
        for P, fractions in ((self.poly_part, other.fractions), (other.poly_part, self.fractions)):
            if not P.is_zero() and fractions:
                poly = poly + _poly_times(P, fractions, out)
        for (p, a), c in self.fractions.items():
            for (q, b), d in other.fractions.items():
                if p == q:
                    _acc(out, (p, a + b), c * d)
                else:
                    _split(out, c * d, p, a, q, b)
        return RationalFn.from_parts(poly, out)

    __rmul__ = __mul__

    def scale(self, c) -> "RationalFn":
        c = Coeff.coerce(c)
        return RationalFn.from_parts(
            self.poly_part.scale(c), {k: v * c for k, v in self.fractions.items()}
        )

    def __truediv__(self, other):
        """Division restricted to denominators whose roots are rational.

        Enough for this package: every divisor that arises is a product of
        monic linear factors (z+q) times a scalar.
        """
        other = RationalFn.coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero RationalFn")
        num = other.num
        lead = num.leading()
        scale = lead.scalar() if lead.is_scalar() else GaussianRational(1)
        num = num.scale(GaussianRational(1) / scale)
        roots = []
        while num.degree() > 0:
            root = _rational_root(num)
            if root is None:
                raise ValueError("divisor numerator has no rational root; cannot invert")
            num, _ = num.div_linear(-root)
            roots.append(-root)
        if not num.leading().is_scalar():
            raise ValueError("divisor must reduce to a scalar times linear factors")
        out = self * RationalFn(_den_poly(other.den)) if other.fractions else self
        out = out.scale(GaussianRational(1) / (scale * num.leading().scalar()))
        poly, fractions = out.poly_part, out.fractions
        for q in roots:
            poly, fractions = _divide_linear(poly, fractions, q)
        return RationalFn.from_parts(poly, fractions)

    def __eq__(self, other):
        other = RationalFn.coerce(other)
        return self.poly_part == other.poly_part and self.fractions == other.fractions

    def __hash__(self):
        return hash((self.poly_part, frozenset(self.fractions.items())))

    # -- substitution / evaluation ----------------------------------------

    def affine_substitute(self, alpha: Rat, beta: Rat) -> "RationalFn":
        """a(alpha*w + beta) as a RationalFn in w."""
        alpha = Fraction(alpha)
        beta = Fraction(beta)
        if alpha == 0:
            raise ValueError("alpha must be nonzero")
        return RationalFn.from_parts(
            self.poly_part.compose_affine(alpha, beta),
            {((q + beta) / alpha, j): c.scale(alpha ** -j) for (q, j), c in self.fractions.items()},
        )

    def shift(self, beta: Rat) -> "RationalFn":
        """a(z + beta)."""
        beta = Fraction(beta)
        return RationalFn.from_parts(
            self.poly_part.shift(beta),
            {(q + beta, j): c for (q, j), c in self.fractions.items()},
        )

    def evaluate_at(self, q: Rat) -> Coeff:
        q = Fraction(q)
        out = self.poly_part.evaluate(q)
        for (p, j), c in self.fractions.items():
            if q + p == 0:
                raise PoleError(-p)
            out = out + c.scale(1 / (q + p) ** j)
        return out

    def bind_eval(self, z: complex, bindings=None) -> complex:
        """Floating evaluation for the oracle-facing paths."""
        bindings = bindings or {}
        out = 0j
        for i, c in enumerate(self.poly_part.coeffs):
            out += c.bind(bindings) * z ** i
        for (q, j), c in self.fractions.items():
            out += c.bind(bindings) / (z + float(q)) ** j
        return out

    def partial_fractions(self) -> "RationalFn":
        """The partial-fraction form, which is how every RationalFn is stored."""
        return self

    # -- rendering / serialization ----------------------------------------

    def render(self, var: str = "z") -> str:
        num, den = self.num, self.den
        n = num.render(var)
        if not den:
            return n
        dparts = []
        for q in sorted(den):
            m = den[q]
            if q == 0:
                base = var
            elif q > 0:
                base = f"({var}+{q})"
            else:
                base = f"({var}-{-q})"
            dparts.append(base if m == 1 else f"{base}^{m}")
        d = dparts[0] if len(dparts) == 1 else "(" + "*".join(dparts) + ")"
        if num.degree() > 0 or (num.coeffs and not num.coeffs[0].is_scalar()):
            n = f"({n})"
        return f"{n}/{d}"

    def __str__(self):
        return self.render()

    def __repr__(self):
        return f"RationalFn<{self}>"

    def to_json(self):
        return {
            "num": self.num.to_json(),
            "den": [{"q": str(q), "m": m} for q, m in sorted(self.den.items())],
        }


def _rational_root(p: Poly) -> Fraction | None:
    """A rational root of a polynomial with scalar rational coefficients.

    Searches divisors of the trailing/leading coefficients (rational root
    theorem); returns None if none works or coefficients are not scalar
    rationals.  Used only to invert denominators, which in this package are
    products of (z+q) with small rational q.
    """
    cs = []
    for c in p.coeffs:
        if not c.is_scalar():
            return None
        s = c.scalar()
        if s.im != 0:
            return None
        cs.append(s.re)
    if not cs:
        return None
    # strip zero roots
    if cs[0] == 0:
        return Fraction(0)
    # clear denominators to integers
    denoms = lcm(*[f.denominator for f in cs])
    ints = [int(f * denoms) for f in cs]
    g = reduce(gcd, (abs(i) for i in ints if i), 0)
    if g > 1:
        ints = [i // g for i in ints]
    a0, an = abs(ints[0]), abs(ints[-1])

    def divisors(n):
        out = set()
        d = 1
        while d * d <= n:
            if n % d == 0:
                out.add(d)
                out.add(n // d)
            d += 1
        return sorted(out)

    for pnum in divisors(a0):
        for pden in divisors(an):
            for cand in (Fraction(pnum, pden), Fraction(-pnum, pden)):
                if sum(c * cand ** i for i, c in enumerate(ints)) == 0:
                    return cand
    return None


RationalFn.zero = RationalFn(Poly())
RationalFn.one = RationalFn(Poly.const(1))
