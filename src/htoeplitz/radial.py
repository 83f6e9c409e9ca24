"""Radial functions spanned by r^a (ln r)^b with Coeff coefficients.

A ``RadialFunction`` is a finite sum  sum_{(a,b)} c_{a,b} * r^a * (ln r)^b
with a rational, b a nonnegative integer and c_{a,b} a ``Coeff``: a
``Terms`` map (a, b) -> c_{a,b}, which supplies addition, negation, equality,
hashing and the product loop.  This span is closed under addition,
multiplication and multiplication by r^j, and it carries the L^1([0,1), r dr)
integrability test used to kill constants.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Tuple

from .exactalg import Coeff, Rat, Terms, render_sum, render_term

Key = Tuple[Fraction, int]  # (exponent a, log power b)


def _key_mul(x: Key, y: Key) -> Key:
    """r^a1 (ln r)^b1 * r^a2 (ln r)^b2 = r^(a1+a2) (ln r)^(b1+b2)."""
    return (x[0] + y[0], x[1] + y[1])


class RadialFunction(Terms):
    __slots__ = ()

    def __init__(self, terms: Mapping[Key, Coeff] | None = None):
        clean = {}
        for (a, b), c in (terms or {}).items():
            c = Coeff.coerce(c)
            if c:
                if b < 0:
                    raise ValueError("log power must be >= 0")
                clean[(Fraction(a), int(b))] = c
        object.__setattr__(self, "terms", clean)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def term(coeff, a: Rat, b: int = 0) -> "RadialFunction":
        return RadialFunction({(Fraction(a), b): Coeff.coerce(coeff)})

    @staticmethod
    def const(coeff) -> "RadialFunction":
        return RadialFunction.term(coeff, 0, 0)

    zero: "RadialFunction"

    # -- algebra -----------------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, RadialFunction):
            return RadialFunction(self._product(other, _key_mul))
        return self.scale(other)

    __rmul__ = __mul__

    def scale(self, c) -> "RadialFunction":
        c = Coeff.coerce(c)
        return RadialFunction({k: v * c for k, v in self.terms.items()})

    def shift(self, j: Rat) -> "RadialFunction":
        """Multiply by r^j: every exponent a becomes a + j."""
        j = Fraction(j)
        return RadialFunction({(a + j, b): c for (a, b), c in self.terms.items()})

    # -- integrability -----------------------------------------------------

    def is_integrable(self) -> bool:
        """Membership in L^1([0,1), r dr): every term needs exponent a > -2.

        The boundary a = -2 diverges even without a log factor, so it is
        excluded.  Terms are already merged, so exact cancellations count.
        """
        return all(a > -2 for (a, _b) in self.terms)

    def non_integrable_terms(self) -> dict:
        return {key: c for key, c in self.terms.items() if key[0] <= -2}

    # -- substitution -----------------------------------------------------

    def substitute_zero(self, names) -> "RadialFunction":
        return RadialFunction(
            {k: c.substitute_zero(names) for k, c in self.terms.items()}
        )

    def indeterminates(self) -> set:
        out = set()
        for c in self.terms.values():
            out |= c.indeterminates()
        return out

    # -- rendering / serialization ----------------------------------------

    def __str__(self):
        parts = []
        for (a, b) in sorted(self.terms, key=lambda k: (-k[0], k[1])):
            factors = []
            if a != 0:
                factors.append("r" if a == 1 else f"r^{a}")
            if b > 0:
                factors.append("ln(r)" if b == 1 else f"ln(r)^{b}")
            parts.append(render_term(self.terms[(a, b)], "*".join(factors)))
        return render_sum(parts)

    def __repr__(self):
        return f"RadialFunction<{self}>"

    def to_json(self):
        return [
            {"a": str(a), "b": b, "coeff": c.to_json()}
            for (a, b), c in sorted(self.terms.items(), key=lambda it: (-it[0][0], it[0][1]))
        ]


RadialFunction.zero = RadialFunction()
