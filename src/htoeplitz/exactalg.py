"""Exact coefficient arithmetic: Gaussian rationals and polynomials in formal constants.

The coefficient ring used everywhere else in the package is ``Coeff``: a
multivariate polynomial over Gaussian rationals in the formal indeterminates
``C<k>`` / ``Cm<k>`` (undetermined constants, index k an integer) and
``abar<l>`` (the conjugated Taylor coefficients of the co-analytic symbol
part, l >= 1).  Values are immutable and all arithmetic is exact; a
``GaussianRational`` is one reduced integer triple, and ``int_or_fraction``
gives the int or Fraction form of the keys built from rationals.
``Terms`` is the sparse sum that ``Coeff`` and the radial, vector, symbol
and rational-function types share, and ``Terms._product`` the product of
the first three; a polynomial is a rational function with no fractions.
"""

from __future__ import annotations

import re as _re
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Union

Rat = Union[int, Fraction]


def int_or_fraction(q: Rat) -> Rat:
    """q as an int when it is integral, else as a Fraction: the form of a pole or
    exponent key, which compares and hashes like the Fraction of the same value."""
    if type(q) is int:
        return q
    q = Fraction(q)
    return q.numerator if q.denominator == 1 else q

# only the spellings cname and aname produce: no leading zeros, no Cm0
_NAME_RE = _re.compile(r"^(?:C(?P<cpos>0|[1-9]\d*)|Cm(?P<cneg>[1-9]\d*)|abar(?P<abar>[1-9]\d*))$")


def cname(k: int) -> str:
    """Canonical token for the undetermined constant with index k."""
    return f"C{k}" if k >= 0 else f"Cm{-k}"


def aname(l: int) -> str:
    """Canonical token for the l-th conjugated analytic coefficient."""
    if l < 1:
        raise ValueError("abar index must be >= 1")
    return f"abar{l}"


def indet_key(name: str):
    """Total order on indeterminates: constants first (descending index),
    then abar's by index.  Fixed once, so canonical forms are stable."""
    m = _NAME_RE.match(name)
    if m is None:
        raise ValueError(f"unknown indeterminate {name!r}")
    if m.group("cpos") is not None:
        return (0, -int(m.group("cpos")))
    if m.group("cneg") is not None:
        return (0, int(m.group("cneg")))
    return (1, int(m.group("abar")))


def is_constant_name(name: str) -> bool:
    """True for the C-family (the constants that integrability may force to zero)."""
    return name.startswith("C")


class GaussianRational:
    """A complex number (x + iy)/d, stored as the reduced integer triple x, y, d.

    The triple is canonical: d > 0 and gcd(x, y, d) = 1, so equal values have
    equal triples, and ``==`` and ``hash`` read it.  Each result of + - * /
    is one integer triple, reduced once by ``of_triple``.  ``re`` and ``im``
    are read-only Fraction views, for rendering and serialization.
    """

    __slots__ = ("x", "y", "d")

    def __init__(self, re: Rat = 0, im: Rat = 0):
        d = 1
        if type(re) is not int or type(im) is not int:
            re, im = Fraction(re), Fraction(im)
            d = lcm(re.denominator, im.denominator)   # of reduced fractions: the triple is reduced
            re, im = re.numerator * (d // re.denominator), im.numerator * (d // im.denominator)
        _set_x(self, re), _set_y(self, im), _set_d(self, d)

    @staticmethod
    def of_triple(x: int, y: int, d: int) -> "GaussianRational":
        """The value (x + iy)/d of integers x, y and d != 0, reduced."""
        g = gcd(x, y, d) if d > 0 else -gcd(x, y, d)
        if g != 1:
            x, y, d = x // g, y // g, d // g
        out = _new(GaussianRational)
        _set_x(out, x), _set_y(out, y), _set_d(out, d)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    @property
    def re(self) -> Fraction:
        return Fraction(self.x, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.y, self.d)

    @staticmethod
    def coerce(x: "GaussianRational | Rat") -> "GaussianRational":
        """x as a GaussianRational; NotImplemented for a non-scalar, such as a Coeff."""
        if isinstance(x, GaussianRational):
            return x
        return GaussianRational(x) if isinstance(x, (int, Fraction)) else NotImplemented

    def __add__(self, other):
        if isinstance(other, GaussianRational):
            x, y, d = other.x, other.y, other.d
        elif isinstance(other, (int, Fraction)):
            x, y, d = other.numerator, 0, other.denominator
        else:
            return NotImplemented
        return GaussianRational.of_triple(self.x * d + x * self.d, self.y * d + y * self.d,
                                          self.d * d)

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational.of_triple(-self.x, -self.y, self.d)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        a, b = self.x, self.y
        if isinstance(other, GaussianRational):
            c, e = other.x, other.y
            if e:
                return GaussianRational.of_triple(a * c - b * e, a * e + b * c, self.d * other.d)
            return GaussianRational.of_triple(a * c, b * c, self.d * other.d)
        if isinstance(other, (int, Fraction)):   # a real scalar needs no wrapper
            c = other.numerator
            return GaussianRational.of_triple(a * c, b * c, self.d * other.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        """(x + iy)/d over (u + iv)/e is (x + iy)(u - iv) e / (d (u^2 + v^2))."""
        other = GaussianRational.coerce(other)
        if other is NotImplemented:
            return NotImplemented
        u, v, e = other.x, other.y, other.d
        n = u * u + v * v
        if n == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        x, y = self.x, self.y
        return GaussianRational.of_triple((x * u + y * v) * e, (y * u - x * v) * e, self.d * n)

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self.x == other.x and self.y == other.y and self.d == other.d
        if isinstance(other, (int, Fraction)):
            return not self.y and self.x == other.numerator and self.d == other.denominator
        return NotImplemented

    def __hash__(self):
        return hash((self.x, self.y, self.d))

    def __bool__(self):
        return bool(self.x or self.y)

    def to_complex(self) -> complex:
        return complex(self.x / self.d, self.y / self.d)

    def __str__(self):
        re, im = self.re, self.im
        if im == 0:
            return str(re)
        if re == 0:
            return f"{im}i"
        sign = "+" if im > 0 else "-"
        return f"({re}{sign}{abs(im)}i)"

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"


_new = object.__new__
_set_x, _set_y, _set_d = (GaussianRational.__dict__[n].__set__ for n in ("x", "y", "d"))

ZERO = GaussianRational(0)
ONE = GaussianRational(1)

# A monomial is a tuple of (indeterminate name, exponent) pairs, sorted by
# the fixed indeterminate order, with all exponents >= 1.
Monomial = tuple


def _mono_key(m: Monomial):
    """Total order on monomials, used wherever terms are listed."""
    return [(indet_key(n), e) for n, e in m]


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    if not a or not b:
        return a or b
    d = dict(a)
    for name, e in b:
        d[name] = d.get(name, 0) + e
    return tuple(sorted(d.items(), key=lambda it: indet_key(it[0])))


class Terms:
    """A finite sum sum_key value * key, stored as a map key -> nonzero value.

    The one immutable sparse-sum type: ``Coeff``, ``RadialFunction``,
    ``HarmonicVector``, ``Symbol`` and ``RationalFn`` subclass it
    and share its addition, negation, equality and hash; ``_product`` is the
    product of ``Coeff``, ``RadialFunction`` and ``Symbol``.  Falsy (zero)
    values are dropped on construction, so equal sums have equal maps.
    ``coerce`` reads an operand as a value of the subclass, or gives NotImplemented.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping | None = None):
        clean = {}
        if terms:
            for key, c in terms.items():
                if c:
                    clean[key] = c
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def coerce(cls, x):
        return x if isinstance(x, cls) else NotImplemented

    def __add__(self, other):
        other = self.coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.terms:
            return self
        if not self.terms:
            return other     # values are immutable, so the sum may share it
        terms = dict(self.terms)
        for key, c in other.terms.items():
            terms[key] = terms[key] + c if key in terms else c
        return type(self)(terms)

    __radd__ = __add__

    def __neg__(self):
        return type(self)({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        other = self.coerce(other)
        return NotImplemented if other is NotImplemented else self + (-other)

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        other = self.coerce(other)
        return NotImplemented if other is NotImplemented else self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def _product(self, other: "Terms", key_mul) -> dict:
        """The map key_mul(ka, kb) -> sum of a*b over the terms a at ka of
        self and b at kb of other (zero sums not yet dropped)."""
        terms: dict = {}
        for ka, ca in self.terms.items():
            for kb, cb in other.terms.items():
                key = key_mul(ka, kb)
                c = ca * cb
                terms[key] = terms[key] + c if key in terms else c
        return terms


class Coeff(Terms):
    """A polynomial over GaussianRational in the formal indeterminates.

    Stored as a map monomial -> nonzero GaussianRational; the empty monomial
    holds the scalar part.  Canonical by construction.
    """

    __slots__ = ()

    # -- constructors ------------------------------------------------------

    @staticmethod
    def const(x: GaussianRational | Rat) -> "Coeff":
        x = GaussianRational.coerce(x)
        return Coeff({(): x}) if x else Coeff()

    @staticmethod
    def indet(name: str) -> "Coeff":
        indet_key(name)  # validates
        return Coeff({((name, 1),): ONE})

    @staticmethod
    def coerce(x: "Coeff | GaussianRational | Rat") -> "Coeff":
        """x as a Coeff: scalars become constants; NotImplemented for other types."""
        if isinstance(x, Coeff):
            return x
        if isinstance(x, (int, Fraction, GaussianRational)):
            return Coeff.const(x)
        return NotImplemented

    # -- ring operations ---------------------------------------------------

    # bound in the class body so that Coeff.__dict__ holds __add__ (bench/spans.py counts it)
    __add__ = __radd__ = Terms.__add__

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self.scale(other)
        return Coeff(self._product(other, _mono_mul)) if isinstance(other, Coeff) else NotImplemented

    __rmul__ = __mul__

    def scale(self, s: GaussianRational | Rat) -> "Coeff":
        s = GaussianRational.coerce(s)
        return Coeff({m: c * s for m, c in self.terms.items()})

    def is_scalar(self) -> bool:
        return all(m == () for m in self.terms)

    def scalar(self) -> GaussianRational:
        if not self.is_scalar():
            raise ValueError(f"not a scalar Coeff: {self}")
        return self.terms.get((), ZERO)

    # -- structure ---------------------------------------------------------

    def indeterminates(self) -> set:
        names = set()
        for mono in self.terms:
            names.update(name for name, _ in mono)
        return names

    def constant_names(self) -> set:
        """The C-family indeterminates occurring in this value."""
        return {n for n in self.indeterminates() if is_constant_name(n)}

    def substitute_zero(self, names: Iterable[str]) -> "Coeff":
        """Set the given indeterminates to zero (drop every monomial using them)."""
        names = set(names)
        return Coeff(
            {m: c for m, c in self.terms.items() if not any(n in names for n, _ in m)}
        )

    def bind(self, bindings: Mapping[str, complex]) -> complex:
        """Numeric evaluation with every indeterminate bound to a complex value."""
        total = 0j
        for mono, c in self.terms.items():
            v = c.to_complex()
            for name, e in mono:
                if name not in bindings:
                    raise UnboundIndeterminateError(name)
                v *= bindings[name] ** e
            total += v
        return total

    # -- rendering / serialization ----------------------------------------

    def __str__(self):
        parts = []
        for mono in sorted(self.terms, key=_mono_key):
            c = self.terms[mono]
            factors = [f"{n}^{e}" if e > 1 else n for n, e in mono]
            if not factors:
                parts.append(str(c))
            elif c == ONE:
                parts.append("*".join(factors))
            elif c == GaussianRational(-1):
                parts.append("-" + "*".join(factors))
            else:
                parts.append("*".join([str(c)] + factors))
        return render_sum(parts)

    def __repr__(self):
        return f"Coeff<{self}>"

    def to_json(self):
        return [
            {"monomial": [[n, e] for n, e in mono], "re": str(c.re), "im": str(c.im)}
            for mono, c in sorted(self.terms.items(), key=lambda it: _mono_key(it[0]))
        ]


def render_sum(parts: Iterable[str]) -> str:
    """Join rendered summands with + and -; the empty sum is 0."""
    out = ""
    for p in parts:
        if not out:
            out = p
        elif p.startswith("-"):
            out += " - " + p[1:]
        else:
            out += " + " + p
    return out or "0"


def render_term(c: Coeff, factor: str) -> str:
    """One summand c*factor: bare factor for c = +-1, sums parenthesized."""
    cs = str(c)
    if not factor:
        return cs if c.is_scalar() else f"({cs})"
    if cs == "1":
        return factor
    if cs == "-1":
        return "-" + factor
    if c.is_scalar() or len(c.terms) == 1:
        return f"{cs}*{factor}"
    return f"({cs})*{factor}"


class UnboundIndeterminateError(KeyError):
    def __init__(self, name: str):
        super().__init__(name)
        self.name = name

    def __str__(self):
        return f"unbound indeterminate {self.name!r}"


def C(k: int) -> Coeff:
    """The constant C_k as a Coeff."""
    return Coeff.indet(cname(k))


def abar(l: int) -> Coeff:
    """The formal conjugated coefficient with index l as a Coeff."""
    return Coeff.indet(aname(l))
