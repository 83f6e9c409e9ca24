"""Univariate rational functions over exact values, stored as partial fractions.

``RationalFn`` is sum_i c_i z^i + sum over (q, j) of c / (z+q)^j, every
pole location q a concrete rational and j >= 1, held as one ``Terms`` map
whose keys are i and (q, j); ``poly_part`` and ``fractions`` are views of it.
A polynomial is a ``RationalFn`` whose keys are all ints, built by
``RationalFn.poly``; ``coeffs`` is the dense view of the int keys.  That form
is unique, so equality is structural; sums merge terms, shifts and affine
substitutions relabel poles and expand z^i by the binomial theorem, and a
product multiplies term by term, with a product of fractions at two poles
split by
1/((z+p)^a (z+q)^b) = sum_n (-1)^n C(b+n-1, n) (q-p)^(-b-n) / (z+p)^(a-n)
+ (p <-> q).  The Mellin images of the radial span are exactly the forms
with no polynomial part.  ``RationalFn.quotient`` reduces num / prod (z+q)^m
to that form, and ``num`` / ``den`` give the reduced quotient back with a
monic denominator, for rendering and serialization.  The values are
``Coeff``s or exact scalars (int, Fraction, GaussianRational), never both in
one ``RationalFn``; ``fn.scale(coeff)`` lifts a scalar one to a ``Coeff`` one.
"""

from __future__ import annotations

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


def _acc(out: dict, key, c) -> None:
    out[key] = out[key] + c if key in out else c


def _split(out: dict, c, p: Fraction, a: int, q: Fraction, b: int) -> None:
    """Add c / ((z+p)^a (z+q)^b), p != q, to the term map out."""
    for (x, m), (y, n) in (((p, a), (q, b)), ((q, b), (p, a))):
        inv = 1 / (y - x)
        for i in range(m):
            s = (-1) ** i * comb(n + i - 1, i) * inv ** (n + i)
            _acc(out, (x, m - i), c * s)


def _pair(a, b):
    return a, b


def _add_term_product(out: dict, a, b, c) -> None:
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
                _acc(out, (q, j - t), c * s)
            else:
                for e in range(t - j + 1):
                    _acc(out, e, c * (s * comb(t - j, e) * q ** (t - j - e)))


def _den_poly(den: Mapping[Fraction, int]) -> "RationalFn":
    """The monic polynomial prod (z+q)^m over den[q] = m."""
    out = RationalFn.one
    for q, m in den.items():
        for _ in range(m):
            out = out * RationalFn.linear(q)
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
        """x as a RationalFn: scalars and Coeffs become constants; NotImplemented for other types."""
        if isinstance(x, RationalFn):
            return x
        x = Coeff.coerce(x)
        return x if x is NotImplemented else RationalFn({0: x})

    @staticmethod
    def poly(terms: Mapping[int, object]) -> "RationalFn":
        """The polynomial sum_i terms[i] z^i, each value read as a Coeff."""
        return RationalFn({i: Coeff.coerce(c) for i, c in terms.items()})

    @staticmethod
    def const(c) -> "RationalFn":
        return RationalFn.poly({0: c})

    @staticmethod
    def linear(q: Rat) -> "RationalFn":
        """The monic factor z + q."""
        return RationalFn.poly({0: Fraction(q), 1: 1})

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
    def poly_part(self) -> "RationalFn":
        return RationalFn({i: c for i, c in self.terms.items() if type(i) is int})

    def degree(self) -> int:
        """Degree of the polynomial part, with the zero polynomial at -1."""
        return max((i for i in self.terms if type(i) is int), default=-1)

    def leading(self) -> Coeff:
        """The Coeff of z^degree in the polynomial part."""
        return self.terms.get(self.degree(), Coeff())

    @property
    def coeffs(self) -> Tuple[Coeff, ...]:
        """Dense view of the polynomial part: coeffs[i] is the Coeff of z^i."""
        return tuple(self.terms.get(i, Coeff()) for i in range(self.degree() + 1))

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
    def num(self) -> "RationalFn":
        """The numerator polynomial over ``den``; it shares no factor (z+q) with it."""
        den = self.den
        return (self * _den_poly(den)).poly_part if den else self

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
        return RationalFn({k: v * c for k, v in self.terms.items()})

    def __truediv__(self, other):
        """Division restricted to denominators whose roots are rational.

        Serves only parsed input (``parser``): the exact path multiplies by
        1/(z+q) directly.  Every divisor it accepts is a scalar times a
        product of monic linear factors (z+q).
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
            # z - root divides num, so this product leaves no fraction at -root
            num = num * RationalFn.fraction(1, -root)
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
        if alpha == 0:
            raise ValueError("alpha must be nonzero")
        return self._substitute(alpha, Fraction(beta))

    def shift(self, beta: Rat) -> "RationalFn":
        """a(z + beta)."""
        return self._substitute(1, Fraction(beta))

    def _substitute(self, alpha: Rat, beta: Fraction) -> "RationalFn":
        """a(alpha*w + beta), alpha nonzero: (alpha w + beta)^i expands by the
        binomial theorem and c/(z+q)^j becomes c alpha^-j / (w + (q+beta)/alpha)^j."""
        terms: dict = {}
        for key, c in self.terms.items():
            if type(key) is int:
                for k in range(key + 1):
                    s = comb(key, k) * alpha ** k * beta ** (key - k)
                    if s:
                        _acc(terms, k, c * s)
            else:
                q, j = key
                terms[((q + beta) / alpha, j)] = c if alpha == 1 else c * alpha ** -j
        return RationalFn(terms)

    def evaluate_at(self, q: Rat) -> Coeff:
        q = Fraction(q)
        out = Coeff()
        for key, c in self.terms.items():
            if type(key) is int:
                out = out + c.scale(q ** key)
            else:
                p, j = key
                if q + p == 0:
                    raise PoleError(-p)
                out = out + c.scale(1 / (q + p) ** j)
        return out

    def partial_fractions(self) -> "RationalFn":
        """The partial-fraction form, which is how every RationalFn is stored."""
        return self

    # -- rendering / serialization ----------------------------------------

    def render(self, var: str = "z") -> str:
        num, den = self.num, self.den
        n = render_sum(
            render_term(num.terms[i], "" if i == 0 else var if i == 1 else f"{var}^{i}")
            for i in sorted(num.terms, reverse=True)
        )
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
            "num": [c.to_json() for c in self.num.coeffs],
            "den": [{"q": str(q), "m": m} for q, m in sorted(self.den.items())],
        }


_ROOT_SEARCH_MAX = 10**12   # caps the trial division at 10**6 steps per coefficient
_ROOT_PAIRS_MAX = 5000      # caps the (divisor of a0, divisor of an) pairs tried


def _rational_root(p: RationalFn) -> Fraction | None:
    """A rational root of a polynomial with scalar rational coefficients.

    A linear a1 z + a0 has the root -a0/a1.  Otherwise searches divisors of
    the trailing/leading coefficients (rational root theorem) by trial
    division, and raises ValueError when either exceeds ``_ROOT_SEARCH_MAX``,
    which bounds that division, or when there are more than
    ``_ROOT_PAIRS_MAX`` pairs of divisors to try.  Returns None if no pair
    works or the coefficients are not scalar rationals.  Used only by
    ``RationalFn.__truediv__``, to invert the denominators of parsed input.
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
    if len(cs) == 2:
        return -cs[0] / cs[1]
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
    if max(a0, an) > _ROOT_SEARCH_MAX:
        raise ValueError(
            f"divisor of degree {len(cs) - 1} has a coefficient above 10^12; "
            "its rational roots are not searched"
        )

    def divisors(n):
        out = set()
        d = 1
        while d * d <= n:
            if n % d == 0:
                out.add(d)
                out.add(n // d)
            d += 1
        return sorted(out)

    nums, dens = divisors(a0), divisors(an)
    if len(nums) * len(dens) > _ROOT_PAIRS_MAX:
        raise ValueError(
            f"divisor of degree {len(cs) - 1} has {len(nums) * len(dens)} pairs of "
            f"end-coefficient divisors, more than {_ROOT_PAIRS_MAX}; "
            "its rational roots are not searched"
        )
    for pnum in nums:
        for pden in dens:
            for cand in (Fraction(pnum, pden), Fraction(-pnum, pden)):
                if sum(c * cand ** i for i, c in enumerate(ints)) == 0:
                    return cand
    return None


RationalFn.zero = RationalFn()
RationalFn.one = RationalFn.const(1)
