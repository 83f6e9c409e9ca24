"""Univariate rational functions over Coeff, stored as partial fractions.

``Poly`` is a sparse polynomial in one variable: a ``Terms`` map from the
degree i to the nonzero ``Coeff`` of z^i.  ``RationalFn`` is
sum_i c_i z^i + sum over (q, j) of c / (z+q)^j, every pole location q a
concrete rational and j >= 1, held as one ``Terms`` map whose keys are i and
(q, j); ``poly_part`` and ``fractions`` are views of it.  That form is
unique, so equality is structural; sums merge terms, shifts and affine
substitutions relabel poles, and a product multiplies term by term, with a
product of fractions at two poles split by
1/((z+p)^a (z+q)^b) = sum_n (-1)^n C(b+n-1, n) (q-p)^(-b-n) / (z+p)^(a-n)
+ (p <-> q).  The Mellin images of the radial span are exactly the forms
with no polynomial part.  ``RationalFn.quotient`` reduces num / prod (z+q)^m
to that form, and ``num`` / ``den`` give the reduced quotient back with a
monic denominator, for rendering and serialization.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import reduce
from math import comb, gcd, lcm
from typing import Dict, Mapping, Tuple

from .exactalg import Coeff, GaussianRational, Rat, Terms, render_sum, render_term

Pole = Tuple[Fraction, int]  # (q, j) for the fraction 1/(z+q)^j


class PoleError(ArithmeticError):
    def __init__(self, q):
        super().__init__(q)
        self.q = q

    def __str__(self):
        return f"evaluation at a pole: z = {self.q}"


class Poly(Terms):
    """Sparse polynomial: a map degree i -> nonzero Coeff of z^i."""

    __slots__ = ()

    def __init__(self, terms: Mapping[int, object] | None = None):
        super().__init__({i: Coeff.coerce(c) for i, c in (terms or {}).items()})

    @staticmethod
    def coerce(x) -> "Poly":
        """x as a Poly: scalars and Coeffs become constants; NotImplemented for other types."""
        if isinstance(x, Poly):
            return x
        x = Coeff.coerce(x)
        return x if x is NotImplemented else Poly({0: x})

    @staticmethod
    def const(c) -> "Poly":
        return Poly({0: c})

    @staticmethod
    def linear(q: Rat) -> "Poly":
        """The monic factor z + q."""
        return Poly({0: Fraction(q), 1: 1})

    @staticmethod
    def variable() -> "Poly":
        return Poly({1: 1})

    @property
    def coeffs(self) -> Tuple[Coeff, ...]:
        """Dense view: coeffs[i] is the Coeff of z^i, for i up to the degree."""
        return tuple(self.terms.get(i, Coeff()) for i in range(self.degree() + 1))

    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return max(self.terms, default=-1)

    def leading(self) -> Coeff:
        return self.terms.get(self.degree(), Coeff())

    def __mul__(self, other):
        other = Poly.coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Poly(self._product(other, operator.add))

    __rmul__ = __mul__

    def scale(self, c) -> "Poly":
        c = Coeff.coerce(c)
        return Poly({i: x * c for i, x in self.terms.items()})

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
        return Poly(dict(enumerate(reversed(vals)))), rem

    def compose_affine(self, alpha: Rat, beta: Rat) -> "Poly":
        """p(alpha*w + beta) as a polynomial in w."""
        arg = Poly({0: Fraction(beta), 1: Fraction(alpha)})
        acc = Poly()
        for c in reversed(self.coeffs):
            acc = acc * arg + c
        return acc

    def shift(self, beta: Rat) -> "Poly":
        """p(w + beta)."""
        return self.compose_affine(1, beta)

    def render(self, var: str = "z") -> str:
        parts = []
        for i in sorted(self.terms, reverse=True):
            power = "" if i == 0 else (var if i == 1 else f"{var}^{i}")
            parts.append(render_term(self.terms[i], power))
        return render_sum(parts)

    def __str__(self):
        return self.render()

    def __repr__(self):
        return f"Poly<{self}>"

    def to_json(self):
        return [c.to_json() for c in self.coeffs]


def _acc(out: dict, key, c: Coeff) -> None:
    out[key] = out[key] + c if key in out else c


def _split(out: dict, c: Coeff, p: Fraction, a: int, q: Fraction, b: int) -> None:
    """Add c / ((z+p)^a (z+q)^b), p != q, to the term map out."""
    for (x, m), (y, n) in (((p, a), (q, b)), ((q, b), (p, a))):
        inv = 1 / (y - x)
        for i in range(m):
            s = (-1) ** i * comb(n + i - 1, i) * inv ** (n + i)
            _acc(out, (x, m - i), c.scale(s))


def _pair(a, b):
    return a, b


def _add_term_product(out: dict, a, b, c: Coeff) -> None:
    """Add c times the product of the terms keyed a and b to the term map out.

    A key is i for z^i or (q, j) for 1/(z+q)^j.  A power over a fraction,
    z^i / (z+q)^j, expands z^i = ((z+q) - q)^i: the powers of z+q below j
    stay fractions at q and the rest expand back into powers of z.
    """
    if type(a) is not int:
        a, b = b, a
    if type(a) is not int:
        (p, m), (q, n) = a, b
        if p == q:
            _acc(out, (p, m + n), c)
        else:
            _split(out, c, p, m, q, n)
    elif type(b) is int:
        _acc(out, a + b, c)
    else:
        q, j = b
        for t in range(a + 1):
            s = comb(a, t) * (-q) ** (a - t)
            if t < j:
                _acc(out, (q, j - t), c.scale(s))
            else:
                for e in range(t - j + 1):
                    _acc(out, e, c.scale(s * comb(t - j, e) * q ** (t - j - e)))


def _den_poly(den: Mapping[Fraction, int]) -> Poly:
    out = Poly.const(1)
    for q, m in den.items():
        out = out * (Poly.linear(q) ** m)
    return out


class RationalFn(Terms):
    """sum_i c_i z^i + sum over (q, j) of c_(q,j) / (z+q)^j.

    One ``Terms`` map holds both parts, keyed by i and by (q, j); since it
    holds no zero values, the form is unique.
    """

    __slots__ = ()

    # -- constructors ------------------------------------------------------

    @staticmethod
    def coerce(x) -> "RationalFn":
        """x as a RationalFn: a Poly keeps its terms map, a scalar or Coeff is a constant."""
        if isinstance(x, RationalFn):
            return x
        x = Poly.coerce(x)
        return x if x is NotImplemented else RationalFn(x.terms)

    @staticmethod
    def const(c) -> "RationalFn":
        return RationalFn({0: Coeff.coerce(c)})

    @staticmethod
    def fraction(c, q: Rat, power: int = 1) -> "RationalFn":
        """c / (z+q)^power, power >= 1."""
        return RationalFn({(Fraction(q), power): Coeff.coerce(c)})

    @staticmethod
    def quotient(num, den: Mapping[Rat, int] | None = None) -> "RationalFn":
        """num / prod (z+q)^m over den[q] = m, reduced to partial fractions."""
        out = RationalFn.coerce(num)
        for q, m in (den or {}).items():
            if m < 0:
                raise ValueError("negative multiplicity")
            if m:
                out = out * RationalFn.fraction(1, q, m)
        return out

    zero: "RationalFn"
    one: "RationalFn"

    # -- views -------------------------------------------------------------

    @property
    def poly_part(self) -> Poly:
        return Poly({i: c for i, c in self.terms.items() if type(i) is int})

    @property
    def fractions(self) -> Dict[Pole, Coeff]:
        """The map (q, j) -> c of the terms c / (z+q)^j."""
        return {k: c for k, c in self.terms.items() if type(k) is tuple}

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
        den = self.den
        return (self * _den_poly(den)).poly_part if den else self.poly_part

    # -- algebra -----------------------------------------------------------

    # bound in the class body so that RationalFn.__dict__ holds them (bench/spans.py traces them)
    __add__ = __radd__ = Terms.__add__
    __eq__ = Terms.__eq__
    __hash__ = Terms.__hash__

    def __mul__(self, other):
        other = RationalFn.coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out: dict = {}
        for (a, b), c in self._product(other, _pair).items():
            _add_term_product(out, a, b, c)
        return RationalFn(out)

    __rmul__ = __mul__

    def scale(self, c) -> "RationalFn":
        c = Coeff.coerce(c)
        return RationalFn({k: v * c for k, v in self.terms.items()})

    def __truediv__(self, other):
        """Division restricted to denominators whose roots are rational.

        Enough for this package: every divisor that arises is a product of
        monic linear factors (z+q) times a scalar.
        """
        other = RationalFn.coerce(other)
        if other is NotImplemented:
            return NotImplemented
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
        den = other.den
        out = self * _den_poly(den) if den else self
        out = out.scale(GaussianRational(1) / (scale * num.leading().scalar()))
        for q in roots:
            out = out * RationalFn.fraction(1, q)
        return out

    # -- substitution / evaluation ----------------------------------------

    def affine_substitute(self, alpha: Rat, beta: Rat) -> "RationalFn":
        """a(alpha*w + beta) as a RationalFn in w."""
        alpha = Fraction(alpha)
        beta = Fraction(beta)
        if alpha == 0:
            raise ValueError("alpha must be nonzero")
        terms = dict(self.poly_part.compose_affine(alpha, beta).terms)
        for (q, j), c in self.fractions.items():
            terms[((q + beta) / alpha, j)] = c.scale(alpha ** -j)
        return RationalFn(terms)

    def shift(self, beta: Rat) -> "RationalFn":
        """a(z + beta)."""
        beta = Fraction(beta)
        terms = dict(self.poly_part.shift(beta).terms)
        for (q, j), c in self.fractions.items():
            terms[(q + beta, j)] = c
        return RationalFn(terms)

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
        for key, c in self.terms.items():
            if type(key) is int:
                out += c.bind(bindings) * z ** key
            else:
                out += c.bind(bindings) / (z + float(key[0])) ** key[1]
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
        if num.degree() > 0 or not num.leading().is_scalar():
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


RationalFn.zero = RationalFn()
RationalFn.one = RationalFn.const(1)
