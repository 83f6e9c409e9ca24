"""Univariate rational functions over exact values, stored as partial fractions.

``RationalFn`` is sum_i c_i z^i + sum over (q, j) of c / (z+q)^j, every
pole location q a concrete rational, an int when integral
(``int_or_fraction``), and j >= 1, held as one ``Terms`` map
whose keys are i and (q, j); ``poly_part`` and ``fractions`` are views of it.
A polynomial is a ``RationalFn`` whose keys are all ints, built by
``RationalFn.poly``; ``coeffs`` is the dense view of the int keys.  That form
is unique, so equality is structural; sums merge terms, shifts and affine
substitutions relabel poles and expand z^i by the binomial theorem, and a
product multiplies term by term, with a product of fractions at two poles
split by
1/((z+p)^a (z+q)^b) = sum_n (-1)^n C(b+n-1, n) (q-p)^(-b-n) / (z+p)^(a-n)
+ (p <-> q).  The Mellin images of the radial span are exactly the forms
with no polynomial part.  ``num`` / ``den`` write one as a reduced quotient
with a monic denominator, for rendering and serialization; ``num`` sums each
term times its cofactor, den or den/(z+q)^j, expanded densely over scalars.
The values are ``Coeff``s or exact scalars (int, Fraction, GaussianRational),
never both in one ``RationalFn``; ``fn.scale(coeff)`` lifts a scalar one to a
``Coeff`` one.  A ``RationalFn`` adds, multiplies and divides only with a
``RationalFn``; a constant enters as ``RationalFn.const(c)``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import comb, lcm
from typing import Dict, Mapping, Tuple

from .exactalg import Coeff, GaussianRational, Rat, Terms, int_or_fraction, render_sum, render_term

Pole = Tuple[Rat, int]  # (q, j) for the fraction 1/(z+q)^j


class PoleError(ArithmeticError):
    def __init__(self, q):
        super().__init__(q)
        self.q = q

    def __str__(self):
        return f"evaluation at a pole: z = {self.q}"


def _acc(out: dict, key, c) -> None:
    out[key] = out[key] + c if key in out else c


def _split(out: dict, c, p: Rat, a: int, q: Rat, b: int) -> None:
    """Add c / ((z+p)^a (z+q)^b), p != q, to the term map out."""
    for (x, m), (y, n) in (((p, a), (q, b)), ((q, b), (p, a))):
        inv = Fraction(1, y - x)
        for i in range(m):
            s = (-1) ** i * comb(n + i - 1, i) * inv ** (n + i)
            _acc(out, (x, m - i), c * s)


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


def _den_coeffs(den: Mapping[Rat, int], q=None, j: int = 0) -> list:
    """Dense scalar coefficients, constant term first, of prod (z+p)^m over
    den[p] = m with j factors (z+q) left out, one factor (z+p) at a time."""
    out = [1]
    for p, m in den.items():
        for _ in range(m - j if p == q else m):
            out = [p * a + b for a, b in zip(out + [0], [0] + out)]
    return out


class RationalFn(Terms):
    """sum_i c_i z^i + sum over (q, j) of c_(q,j) / (z+q)^j.

    One ``Terms`` map holds both parts, keyed by i and by (q, j); since it
    holds no zero values, the form is unique.
    """

    __slots__ = ()

    # -- constructors ------------------------------------------------------

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
        return RationalFn.poly({0: q, 1: 1})

    @staticmethod
    def fraction(c, q: Rat, power: int = 1) -> "RationalFn":
        """c / (z+q)^power, power >= 1."""
        return RationalFn({(int_or_fraction(q), power): Coeff.coerce(c)})

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
    def den(self) -> Dict[Rat, int]:
        """Pole q -> multiplicity: the monic denominator prod (z+q)^m."""
        out: Dict[Rat, int] = {}
        for q, j in self.fractions:
            if j > out.get(q, 0):
                out[q] = j
        return out

    @property
    def num(self) -> "RationalFn":
        """The numerator polynomial over ``den``; it shares no factor (z+q) with it.
        It is poly_part den + sum c den/(z+q)^j, each cofactor dense over scalars."""
        den = self.den
        whole, out = _den_coeffs(den), {}
        for key, c in self.terms.items():
            i0, cof = (key, whole) if type(key) is int else (0, _den_coeffs(den, *key))
            monos = Coeff.coerce(c).terms
            for i, s in enumerate(cof, i0):
                if s:
                    for mono, g in monos.items():
                        _acc(out.setdefault(i, {}), mono, g * s)
        return RationalFn({i: Coeff(t) for i, t in out.items()})

    # -- algebra -----------------------------------------------------------

    # bound in the class body so that RationalFn.__dict__ holds them (bench/spans.py traces them)
    __add__ = __radd__ = Terms.__add__
    __eq__ = Terms.__eq__
    __hash__ = Terms.__hash__

    def __mul__(self, other):
        if not isinstance(other, RationalFn):
            return NotImplemented
        out: dict = {}
        for a, ca in self.terms.items():
            for b, cb in other.terms.items():
                _add_term_product(out, a, b, ca * cb)
        return RationalFn(out)

    def scale(self, c) -> "RationalFn":
        return RationalFn({k: v * c for k, v in self.terms.items()})

    def __truediv__(self, other):
        """Division restricted to denominators whose roots are rational.

        Serves only parsed input (``parser``): the exact path multiplies by
        1/(z+q) directly.  Every divisor it accepts is a scalar times a
        product of monic linear factors (z+q).
        """
        if not isinstance(other, RationalFn):
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
        out = self * RationalFn.poly(dict(enumerate(_den_coeffs(den)))) if den else self
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
        return self._substitute(alpha, int_or_fraction(beta))

    def shift(self, beta: Rat) -> "RationalFn":
        """a(z + beta)."""
        return self._substitute(1, int_or_fraction(beta))

    def _substitute(self, alpha: Rat, beta: Rat) -> "RationalFn":
        """a(alpha*w + beta), alpha 1 or a nonzero Fraction, so every pole stays exact:
        (alpha w + beta)^i expands by the binomial theorem and c/(z+q)^j becomes
        c alpha^-j / (w + (q+beta)/alpha)^j."""
        terms: dict = {}
        for key, c in self.terms.items():
            if type(key) is int:
                for k in range(key + 1):
                    s = comb(key, k) * alpha ** k * beta ** (key - k)
                    if s:
                        _acc(terms, k, c * s)
            else:
                q, j = key
                if alpha == 1:
                    terms[(q + beta, j)] = c
                else:
                    terms[(int_or_fraction((q + beta) / alpha), j)] = c * alpha ** -j
        return RationalFn(terms)

    def evaluate_at(self, q: Rat) -> Coeff:
        q = Fraction(q)
        out = Coeff()
        for key, c in self.terms.items():
            c = Coeff.coerce(c)
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


def _horner(cs, x: Fraction) -> Fraction:
    """The polynomial with coefficients cs (constant term first) at x."""
    return reduce(lambda acc, c: acc * x + c, reversed(cs), Fraction(0))


def _sturm(cs: list) -> list:
    """The Sturm sequence p, p', -rem(p, p'), ... of a polynomial of degree >= 1
    (coefficient lists, constant term first, over Fractions)."""
    seq = [cs, [i * c for i, c in enumerate(cs)][1:]]
    while len(seq[-1]) > 1:
        a, b = list(seq[-2]), seq[-1]
        while len(a) >= len(b):   # a -> rem(a, b)
            f, shift = a[-1] / b[-1], len(a) - len(b)
            for i, c in enumerate(b):
                a[shift + i] -= f * c
            while a and not a[-1]:
                a.pop()
        if not a:
            break
        seq.append([-c for c in a])
    return seq


def _rational_root(p: RationalFn) -> Fraction | None:
    """A rational root of a polynomial of degree >= 1 with scalar rational
    coefficients; None if it has none or a coefficient is not a rational.

    With the coefficients cleared to integers a_0..a_n, a root b/c in lowest
    terms has c | a_n, so w = a_n z is an integer at every rational root and
    never a half-integer.  Sturm's theorem counts the distinct real roots with
    w between two half-integers; bisecting on half-integers down to unit
    intervals leaves one integer candidate per root, and one exact evaluation
    settles it.  The work is polynomial in the degree and the bit length.
    Used only by ``RationalFn.__truediv__``, to invert the denominators of
    parsed input.
    """
    cs = []
    for c in p.coeffs:
        if not c.is_scalar() or c.scalar().im:
            return None
        cs.append(c.scalar().re)
    if cs[-1] < 0:
        cs = [-c for c in cs]
    an = int(cs[-1] * lcm(*(c.denominator for c in cs)))
    bound = an + int(max(abs(c) for c in cs[:-1]) / cs[-1] * an) + 1   # Cauchy: |w| < bound
    seq = _sturm(cs)

    def variations(j: int) -> int:
        """Sign changes of the Sturm sequence at w = j + 1/2, never a root."""
        signs = [v for q in seq if (v := _horner(q, Fraction(2 * j + 1, 2 * an)))]
        return sum((x > 0) != (y > 0) for x, y in zip(signs, signs[1:]))

    stack = [(-bound - 1, variations(-bound - 1), bound, variations(bound))]
    while stack:   # (lo, V(lo), hi, V(hi)): V(lo) - V(hi) roots with lo + 1/2 < w < hi + 1/2
        lo, vlo, hi, vhi = stack.pop()
        if vlo == vhi:
            continue
        if hi - lo == 1:
            if not _horner(cs, Fraction(hi, an)):
                return Fraction(hi, an)
            continue
        mid = (lo + hi) // 2
        vmid = variations(mid)
        stack += [(mid, vmid, hi, vhi), (lo, vlo, mid, vmid)]
    return None


RationalFn.zero = RationalFn()
RationalFn.one = RationalFn.const(1)
