"""Mellin transform on the radial span and its exact inverse.

For phi(r) = r^a (ln r)^b the transform phihat(z) = int_0^1 phi(r) r^{z-1} dr
equals (-1)^b b! / (z+a)^{b+1}.  A ``RationalFn`` is stored as partial
fractions, so both directions relabel terms: r^a (ln r)^b <-> the fraction
at (a, b+1).  The images of the radial span are the rational functions with
no polynomial part.  ``mellin_term`` reads the value of one term at one
point, which is all the Toeplitz action needs.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .exactalg import Rat
from .radial import RadialFunction
from .ratfun import PoleError, RationalFn


class MellinInversionError(ValueError):
    pass


def mellin(p: RadialFunction) -> RationalFn:
    """Exact Mellin transform of a radial function, as a RationalFn in z."""
    return RationalFn(
        {(a, b + 1): c.scale((-1) ** b * math.factorial(b)) for (a, b), c in p.terms.items()}
    )


def mellin_term(a: Fraction, b: int, s: Rat) -> Fraction:
    """(-1)^b b! / (s+a)^{b+1}, the transform of r^a (ln r)^b at s; PoleError at s = -a.

    With s + a = p/q in lowest terms the value is (-1)^b b! q^{b+1} / p^{b+1},
    built as one Fraction."""
    d = s + a
    if not d:
        raise PoleError(-a)
    return Fraction((-1) ** b * math.factorial(b) * d.denominator ** (b + 1), d.numerator ** (b + 1))


def inverse_mellin(a: RationalFn) -> RadialFunction:
    """The radial function whose Mellin transform is `a`.

    Requires `a` to have zero polynomial part; each c/(z+q)^j inverts to
    c*(-1)^(j-1)/(j-1)! * r^q (ln r)^(j-1).
    """
    poly = a.poly_part
    if poly:
        raise MellinInversionError(
            "not a Mellin image of the radial span (nonzero polynomial part: "
            f"{poly})"
        )
    return RadialFunction(
        {
            (q, j - 1): c.scale(Fraction((-1) ** (j - 1), math.factorial(j - 1)))
            for (q, j), c in a.fractions.items()
        }
    )
