"""Exact coefficient arithmetic: Gaussian rationals and polynomials in formal constants.

The coefficient ring used everywhere else in the package is ``Coeff``: a
multivariate polynomial over Gaussian rationals in the formal indeterminates
``C<k>`` / ``Cm<k>`` (undetermined constants, index k an integer) and
``abar<l>`` (the conjugated Taylor coefficients of the co-analytic symbol
part, l >= 1).  Values are immutable and all arithmetic is exact.
``Terms`` is the sparse sum that ``Coeff`` and the radial, vector, symbol,
polynomial and rational-function types share, with the one product loop
``Terms._product``.
"""

from __future__ import annotations

import re as _re
from fractions import Fraction
from typing import Iterable, Mapping, Union

Rat = Union[int, Fraction]

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


_FRACTION_ZERO = Fraction(0)


class GaussianRational:
    """A complex number with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re: Rat = 0, im: Rat = 0):
        object.__setattr__(self, "re", re if type(re) is Fraction else Fraction(re))
        object.__setattr__(self, "im", im if type(im) is Fraction else Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    @staticmethod
    def coerce(x: "GaussianRational | Rat") -> "GaussianRational":
        if isinstance(x, GaussianRational):
            return x
        return GaussianRational(x)

    def __add__(self, other):
        other = GaussianRational.coerce(other)
        if not self.im and not other.im:   # real + real: one Fraction sum
            return GaussianRational(self.re + other.re, _FRACTION_ZERO)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other):
        return self + (-GaussianRational.coerce(other))

    def __rsub__(self, other):
        return GaussianRational.coerce(other) - self

    def __mul__(self, other):
        other = GaussianRational.coerce(other)
        if not self.im and not other.im:   # real * real: one Fraction product
            return GaussianRational(self.re * other.re, _FRACTION_ZERO)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = GaussianRational.coerce(other)
        n = other.re * other.re + other.im * other.im
        if n == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

    def __rtruediv__(self, other):
        return GaussianRational.coerce(other) / self

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = GaussianRational(other)
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self.re or self.im)

    def to_complex(self) -> complex:
        return complex(self.re) + 1j * complex(self.im)

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"({self.re}{sign}{abs(self.im)}i)"

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"


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
    ``HarmonicVector``, ``Symbol``, ``Poly`` and ``RationalFn`` subclass it
    and share its addition, negation, equality and hash, and every product
    of two sums runs through ``_product``.  Falsy (zero) values are dropped
    on construction, so equal sums have equal maps.  ``coerce`` reads an
    operand as a value of the subclass, or gives NotImplemented.
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

    def __rsub__(self, other):
        return -self + other

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
    def indet(name: str, exp: int = 1) -> "Coeff":
        indet_key(name)  # validates
        if exp < 0:
            raise ValueError("negative exponent")
        if exp == 0:
            return Coeff.const(1)
        return Coeff({((name, exp),): ONE})

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
        other = Coeff.coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Coeff(self._product(other, _mono_mul))

    __rmul__ = __mul__

    def scale(self, s: GaussianRational | Rat) -> "Coeff":
        s = GaussianRational.coerce(s)
        return Coeff({m: c * s for m, c in self.terms.items()})

    def __truediv__(self, s):
        if isinstance(s, Coeff):
            if not s.is_scalar():
                raise TypeError("Coeff division only by scalars")
            s = s.scalar()
        return self.scale(ONE / GaussianRational.coerce(s))

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
