"""Mellin transform on the radial span and its exact inverse.

For phi(r) = r^a (ln r)^b the transform phihat(z) = int_0^1 phi(r) r^{z-1} dr
equals (-1)^b b! / (z+a)^{b+1}.  A ``RationalFn`` is stored as partial
fractions, so both directions relabel terms: r^a (ln r)^b <-> the fraction
at (a, b+1).  The images of the radial span are the rational functions with
no polynomial part.  ``mellin_at`` reads one value of the transform straight
from the terms, which is all the Toeplitz action needs.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .exactalg import Coeff, GaussianRational, Rat
from .radial import RadialFunction
from .ratfun import PoleError, RationalFn


class MellinInversionError(ValueError):
    pass


def mellin(p: RadialFunction) -> RationalFn:
    """Exact Mellin transform of a radial function, as a RationalFn in z."""
    return RationalFn(
        {(a, b + 1): c.scale((-1) ** b * math.factorial(b)) for (a, b), c in p.terms.items()}
    )


def mellin_at(p: RadialFunction, s: Rat) -> Coeff:
    """The value phihat(s), summed term by term as (-1)^b b! / (s+a)^{b+1}.

    Equal to ``mellin(p).evaluate_at(s)`` without building the rational
    function; raises PoleError when s + a = 0 for a term of p.
    """
    s = Fraction(s)
    out = Coeff()
    for (a, b), c in p.terms.items():
        base = s + a
        if base == 0:
            raise PoleError(-a)
        scalar = GaussianRational(Fraction((-1) ** b * math.factorial(b)) / base ** (b + 1))
        out = out + c.scale(scalar)
    return out


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
