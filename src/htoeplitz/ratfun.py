"""Univariate rational functions over Coeff with concrete rational poles.

``Poly`` is a dense polynomial in one variable with ``Coeff`` coefficients.
``RationalFn`` is num / prod_q (z+q)^{m_q} with every pole location q a
concrete rational; the denominator is monic with scalar coefficients, which
is what makes exact partial fractions possible over the coefficient ring.
Degrees stay small in this package, so everything is dense and direct.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence, Tuple

from .exactalg import Coeff, GaussianRational, Rat


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

    def divmod_scalar(self, divisor: "Poly") -> Tuple["Poly", "Poly"]:
        """Quotient and remainder; divisor must have an invertible scalar lead."""
        lead = divisor.leading()
        if divisor.is_zero() or not lead.is_scalar():
            raise ZeroDivisionError("divisor must have a nonzero scalar leading coefficient")
        inv = GaussianRational(1) / lead.scalar()
        rem = list(self.coeffs)
        dd = divisor.degree()
        qd = len(rem) - 1 - dd
        if qd < 0:
            return Poly(), self
        quot = [Coeff() for _ in range(qd + 1)]
        for i in range(len(rem) - 1, dd - 1, -1):
            c = rem[i]
            if c.is_zero():
                continue
            f = c.scale(inv)
            quot[i - dd] = f
            for j, dc in enumerate(divisor.coeffs):
                rem[i - dd + j] = rem[i - dd + j] - f * dc
        return Poly(quot), Poly(rem[:dd])

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
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self[i]
            if c.is_zero():
                continue
            power = "" if i == 0 else (var if i == 1 else f"{var}^{i}")
            cs = str(c)
            if not power:
                parts.append(cs if c.is_scalar() else f"({cs})")
            elif cs == "1":
                parts.append(power)
            elif cs == "-1":
                parts.append("-" + power)
            elif c.is_scalar() or len(c.terms) == 1:
                parts.append(f"{cs}*{power}")
            else:
                parts.append(f"({cs})*{power}")
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    def __str__(self):
        return self.render()

    def __repr__(self):
        return f"Poly<{self}>"

    def to_json(self):
        return [c.to_json() for c in self.coeffs]

    @staticmethod
    def from_json(data) -> "Poly":
        return Poly([Coeff.from_json(c) for c in data])


def _den_poly(den: Mapping[Fraction, int]) -> Poly:
    out = Poly.const(1)
    for q, m in den.items():
        out = out * (Poly.linear(q) ** m)
    return out


class RationalFn:
    """num / prod (z+q)^m, poles at concrete rationals, cancelled on build."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly | Sequence, den: Mapping[Rat, int] | None = None):
        if not isinstance(num, Poly):
            num = Poly(num)
        d = {}
        if den:
            for q, m in den.items():
                if m < 0:
                    raise ValueError("negative multiplicity")
                if m > 0:
                    q = Fraction(q)
                    d[q] = d.get(q, 0) + m
        # cancel every pole the numerator absorbs completely
        for q in list(d):
            while d[q] > 0 and not num.is_zero() and num.evaluate(-q).is_zero():
                num, rem = num.divmod_scalar(Poly.linear(q))
                assert rem.is_zero()
                d[q] -= 1
            if d[q] == 0:
                del d[q]
        if num.is_zero():
            d = {}
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", d)

    def __setattr__(self, name, value):
        raise AttributeError("RationalFn is immutable")

    # -- constructors ------------------------------------------------------

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

    # -- algebra -----------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __add__(self, other):
        other = RationalFn.coerce(other)
        den = dict(self.den)
        for q, m in other.den.items():
            den[q] = max(den.get(q, 0), m)
        na = self.num
        for q, m in den.items():
            extra = m - self.den.get(q, 0)
            if extra:
                na = na * (Poly.linear(q) ** extra)
        nb = other.num
        for q, m in den.items():
            extra = m - other.den.get(q, 0)
            if extra:
                nb = nb * (Poly.linear(q) ** extra)
        return RationalFn(na + nb, den)

    __radd__ = __add__

    def __neg__(self):
        return RationalFn(-self.num, self.den)

    def __sub__(self, other):
        return self + (-RationalFn.coerce(other))

    def __rsub__(self, other):
        return RationalFn.coerce(other) - self

    def __mul__(self, other):
        other = RationalFn.coerce(other)
        den = dict(self.den)
        for q, m in other.den.items():
            den[q] = den.get(q, 0) + m
        return RationalFn(self.num * other.num, den)

    __rmul__ = __mul__

    def scale(self, c) -> "RationalFn":
        return RationalFn(self.num.scale(c), self.den)

    def __truediv__(self, other):
        """Division restricted to denominators whose roots are rational.

        Enough for this package: every divisor that arises is a product of
        monic linear factors (z+q) times a scalar.
        """
        other = RationalFn.coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero RationalFn")
        inv_den = dict(other.den)  # becomes numerator factors of the inverse
        num = other.num
        scale = GaussianRational(1)
        lead = num.leading()
        if lead.is_scalar() and lead.scalar() != GaussianRational(1):
            scale = lead.scalar()
            num = num.scale(GaussianRational(1) / scale)
        roots: dict = {}
        while num.degree() > 0:
            root = _rational_root(num)
            if root is None:
                raise ValueError("divisor numerator has no rational root; cannot invert")
            q = -root
            num, rem = num.divmod_scalar(Poly.linear(q))
            assert rem.is_zero()
            roots[q] = roots.get(q, 0) + 1
        lead = num.leading()  # scalar Coeff remaining
        if num.is_zero() or not lead.is_scalar():
            raise ValueError("divisor must reduce to a scalar times linear factors")
        inv = RationalFn(
            _den_poly(inv_den).scale(GaussianRational(1) / (scale * lead.scalar())), roots
        )
        return self * inv

    def __eq__(self, other):
        # num/den is unique: den is a monic product of (z+q) and the
        # constructor cancels every such factor that divides num, so two
        # equal functions have equal parts.
        other = RationalFn.coerce(other)
        return self.den == other.den and self.num == other.num

    def __hash__(self):
        # hashes the same canonical parts that __eq__ compares
        return hash((self.num, frozenset(self.den.items())))

    # -- substitution / evaluation ----------------------------------------

    def affine_substitute(self, alpha: Rat, beta: Rat) -> "RationalFn":
        """a(alpha*w + beta) as a RationalFn in w."""
        alpha = Fraction(alpha)
        beta = Fraction(beta)
        if alpha == 0:
            raise ValueError("alpha must be nonzero")
        num = self.num.compose_affine(alpha, beta)
        den = {}
        total_m = 0
        for q, m in self.den.items():
            den[(q + beta) / alpha] = m
            total_m += m
        num = num.scale(Coeff.const(Fraction(1) / alpha ** total_m))
        return RationalFn(num, den)

    def shift(self, beta: Rat) -> "RationalFn":
        """a(z + beta)."""
        return self.affine_substitute(1, beta)

    def evaluate_at(self, q: Rat) -> Coeff:
        q = Fraction(q)
        val = self.num.evaluate(q)
        denom = GaussianRational(1)
        for p, m in self.den.items():
            base = q + p
            if base == 0:
                raise PoleError(-p)
            denom = denom * _gr_pow(GaussianRational(base), m)
        return val.scale(GaussianRational(1) / denom)

    def bind_eval(self, z: complex, bindings=None) -> complex:
        """Floating evaluation for the oracle-facing paths."""
        bindings = bindings or {}
        num = 0j
        for i, c in enumerate(self.num.coeffs):
            num += c.bind(bindings) * z ** i
        den = 1.0 + 0j
        for q, m in self.den.items():
            den *= (z + float(q)) ** m
        return num / den

    def substitute_zero(self, names) -> "RationalFn":
        return RationalFn(Poly([c.substitute_zero(names) for c in self.num.coeffs]), self.den)

    def indeterminates(self) -> set:
        out = set()
        for c in self.num.coeffs:
            out |= c.indeterminates()
        return out

    # -- partial fractions -------------------------------------------------

    def partial_fractions(self) -> "PartialFractions":
        """Exact decomposition into poly part plus sums c/(z+q)^j.

        For each pole q with multiplicity m, write w = z + q and expand
        num(w-q) / [den(w-q)/w^m] as a power series in w to order m; the
        series coefficients are the fraction coefficients for powers m..1.
        Series division is by the cofactor, whose constant term is a nonzero
        rational, so everything stays exact over Coeff.
        """
        den_poly = _den_poly(self.den)
        poly_part, rem = self.num.divmod_scalar(den_poly)
        fractions = {}
        for q, m in self.den.items():
            cofactor = Poly.const(1)
            for p, mp in self.den.items():
                if p != q:
                    cofactor = cofactor * (Poly.linear(p) ** mp)
            num_s = rem.shift(-q)          # numerator in w = z+q
            cof_s = cofactor.shift(-q)     # cofactor in w, constant term != 0
            c0 = cof_s[0].scalar()
            inv0 = GaussianRational(1) / c0
            series = []
            for j in range(m):
                t = num_s[j]
                for i in range(j):
                    t = t - series[i] * cof_s[j - i]
                series.append(t.scale(inv0))
            for j in range(m):
                c = series[j]
                if not c.is_zero():
                    fractions[(q, m - j)] = c
        return PartialFractions(poly_part, fractions)

    # -- rendering / serialization ----------------------------------------

    def render(self, var: str = "z") -> str:
        n = self.num.render(var)
        if not self.den:
            return n
        dparts = []
        for q in sorted(self.den):
            m = self.den[q]
            if q == 0:
                base = var
            elif q > 0:
                base = f"({var}+{q})"
            else:
                base = f"({var}-{-q})"
            dparts.append(base if m == 1 else f"{base}^{m}")
        d = dparts[0] if len(dparts) == 1 else "(" + "*".join(dparts) + ")"
        if self.num.degree() > 0 or (self.num.coeffs and not self.num.coeffs[0].is_scalar()):
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

    @staticmethod
    def from_json(data) -> "RationalFn":
        return RationalFn(
            Poly.from_json(data["num"]),
            {Fraction(e["q"]): e["m"] for e in data["den"]},
        )


def _gr_pow(x: GaussianRational, n: int) -> GaussianRational:
    out = GaussianRational(1)
    for _ in range(n):
        out = out * x
    return out


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
    from math import lcm

    denoms = lcm(*[f.denominator for f in cs]) if len(cs) > 1 else cs[0].denominator
    ints = [int(f * denoms) for f in cs]
    from functools import reduce
    from math import gcd

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


class PartialFractions:
    """poly_part + sum over (q, j) of coeff/(z+q)^j."""

    __slots__ = ("poly_part", "fractions")

    def __init__(self, poly_part: Poly, fractions: Mapping[Tuple[Fraction, int], Coeff]):
        object.__setattr__(self, "poly_part", poly_part)
        object.__setattr__(
            self, "fractions",
            {k: v for k, v in fractions.items() if not Coeff.coerce(v).is_zero()},
        )

    def __setattr__(self, name, value):
        raise AttributeError("PartialFractions is immutable")

    def recombine(self) -> RationalFn:
        out = RationalFn(self.poly_part)
        for (q, j), c in self.fractions.items():
            out = out + RationalFn.fraction(c, q, j)
        return out

    def render(self, var: str = "z") -> str:
        parts = []
        if not self.poly_part.is_zero():
            parts.append(self.poly_part.render(var))
        for (q, j) in sorted(self.fractions):
            c = self.fractions[(q, j)]
            if q == 0:
                base = var
            elif q > 0:
                base = f"({var}+{q})"
            else:
                base = f"({var}-{-q})"
            if j > 1:
                base = f"{base}^{j}"
            cs = str(c)
            if cs == "1":
                parts.append(f"1/{base}")
            elif cs == "-1":
                parts.append(f"-1/{base}")
            elif c.is_scalar() or len(c.terms) == 1:
                parts.append(f"{cs}/{base}")
            else:
                parts.append(f"({cs})/{base}")
        if not parts:
            return "0"
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    def __str__(self):
        return self.render()

    def __repr__(self):
        return f"PartialFractions<{self}>"


RationalFn.zero = RationalFn(Poly())
RationalFn.one = RationalFn(Poly.const(1))
