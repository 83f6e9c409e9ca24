"""Radial functions spanned by r^a (ln r)^b with Coeff coefficients.

A ``RadialFunction`` is a finite sum  sum_{(a,b)} c_{a,b} * r^a * (ln r)^b
with a rational, b a nonnegative integer and c_{a,b} a ``Coeff``.  This span
is closed under addition, multiplication and multiplication by r^j, and it
carries the L^1([0,1), r dr) integrability test used to kill constants.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping, Tuple

from .exactalg import Coeff, Rat, render_sum, render_term

Key = Tuple[Fraction, int]  # (exponent a, log power b)


class RadialFunction:
    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Key, Coeff] | None = None):
        clean = {}
        if terms:
            for (a, b), c in terms.items():
                c = Coeff.coerce(c)
                if not c.is_zero():
                    if b < 0:
                        raise ValueError("log power must be >= 0")
                    clean[(Fraction(a), int(b))] = c
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("RadialFunction is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def term(coeff, a: Rat, b: int = 0) -> "RadialFunction":
        return RadialFunction({(Fraction(a), b): Coeff.coerce(coeff)})

    @staticmethod
    def const(coeff) -> "RadialFunction":
        return RadialFunction.term(coeff, 0, 0)

    zero: "RadialFunction"

    # -- algebra -----------------------------------------------------------

    def __add__(self, other: "RadialFunction") -> "RadialFunction":
        terms = dict(self.terms)
        for key, c in other.terms.items():
            terms[key] = terms.get(key, Coeff()) + c
        return RadialFunction(terms)

    def __neg__(self):
        return RadialFunction({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, RadialFunction):
            terms: dict = {}
            for (a1, b1), c1 in self.terms.items():
                for (a2, b2), c2 in other.terms.items():
                    key = (a1 + a2, b1 + b2)
                    terms[key] = terms.get(key, Coeff()) + c1 * c2
            return RadialFunction(terms)
        return self.scale(other)

    __rmul__ = __mul__

    def scale(self, c) -> "RadialFunction":
        c = Coeff.coerce(c)
        return RadialFunction({k: v * c for k, v in self.terms.items()})

    def shift(self, j: Rat) -> "RadialFunction":
        """Multiply by r^j: every exponent a becomes a + j."""
        j = Fraction(j)
        return RadialFunction({(a + j, b): c for (a, b), c in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, RadialFunction):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- integrability -----------------------------------------------------

    def is_integrable(self) -> bool:
        """Membership in L^1([0,1), r dr): every term needs exponent a > -2.

        The boundary a = -2 diverges even without a log factor, so it is
        excluded.  Terms are already merged, so exact cancellations count.
        """
        return all(a > -2 for (a, _b) in self.terms)

    def non_integrable_terms(self) -> dict:
        return {key: c for key, c in self.terms.items() if key[0] <= -2}

    # -- substitution / numerics ------------------------------------------

    def substitute_zero(self, names) -> "RadialFunction":
        return RadialFunction(
            {k: c.substitute_zero(names) for k, c in self.terms.items()}
        )

    def indeterminates(self) -> set:
        out = set()
        for c in self.terms.values():
            out |= c.indeterminates()
        return out

    def eval_numeric(self, r: float, bindings: Mapping[str, complex] | None = None) -> complex:
        if not (0.0 < r < 1.0):
            raise ValueError("radial evaluation requires 0 < r < 1")
        bindings = bindings or {}
        lr = math.log(r)
        total = 0j
        for (a, b), c in self.terms.items():
            total += c.bind(bindings) * (r ** float(a)) * (lr ** b)
        return total

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
