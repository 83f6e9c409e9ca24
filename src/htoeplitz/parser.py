"""Parsers for symbol expressions and rational functions.

Symbol grammar::

    expr   := term (('+'|'-') term)*
    term   := power ('*' power)*
    power  := atom ['^' rat]
    atom   := number | 'i' | indet | '(' expr ')'
            | 'z' | 'conj(z)' | 'e(' int ')' | 'r' | 'ln(r)'

A power x^n with an integer n >= 0 is the product of n factors x, and x^0
is one; only ``r`` takes a negative or fractional power, so ``r^3/2`` is
r^(3/2).  A digit glued to ``z`` or ``r`` is its exponent: ``z3`` is z^3.
``e(k)`` is the angular factor of degree k, so ``z`` is ``e(1)*r`` and
``conj(z)`` is ``e(-1)*r``.  Indeterminates are written ``C3``, ``Cm1``
(negative index), ``abar2``.  The rational-function grammar has the same
rules over the single word ``z``; it adds ``/`` to ``term``, and its
exponent is an integer, a negative one taken by division.  The parsers hold
no arithmetic of their own: ``+``, ``-``, ``*`` and ``/`` are those of
``Symbol`` and ``RationalFn``.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .exactalg import Coeff, GaussianRational
from .radial import RadialFunction
from .ratfun import RationalFn
from .toeplitz import Symbol


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (column {pos + 1})")
        self.pos = pos


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}", len(text) - len(stripped))
        kind = m.lastgroup
        val, start = m.group(kind), m.start(kind)
        if kind == "name" and val[0] in "zr" and val[1:].isdigit():   # glued: z3 is z^3
            tokens += [(kind, val[0], start), ("op", "^", start + 1), ("int", val[1:], start + 1)]
        else:
            tokens.append((kind, val, start))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


def _divide(a, b, pos: int):
    """a / b, or a ParseError at pos when b is 0 or has a non-rational root."""
    try:
        return a / b
    except (ZeroDivisionError, ValueError) as exc:
        raise ParseError(f"cannot divide by {b.render()}: {exc}", pos) from None


class _Parser:
    """Tokens and the shared rules.  A subclass supplies its vocabulary: the
    product operators ``MUL_OPS``, the noun ``ATOM`` of its error message,
    ``const``, ``parse_word``, ``parse_exponent`` and ``other_power``."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def parse(self):
        out = self.parse_expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {val!r}", pos)
        return out

    def parse_expr(self):
        if self.peek()[1] == "-":
            self.next()
            out = -self.parse_term()
        else:
            if self.peek()[1] == "+":
                self.next()
            out = self.parse_term()
        while self.peek()[1] in ("+", "-"):
            op = self.next()[1]
            term = self.parse_term()
            out = out + term if op == "+" else out - term
        return out

    def parse_term(self):
        out = self.parse_power()
        while self.peek()[1] in self.MUL_OPS:
            op = self.next()[1]
            pos = self.peek()[2]
            rhs = self.parse_power()
            out = out * rhs if op == "*" else _divide(out, rhs, pos)
        return out

    def parse_power(self):
        """power := atom ['^' exponent]."""
        pos = self.peek()[2]
        base = self.parse_atom()
        if self.peek()[1] != "^":
            return base
        self.next()
        n = self.parse_exponent()
        if n < 0 or n.denominator != 1:
            return self.other_power(base, n, pos)
        return self.power(base, int(n))

    def power(self, x, n: int):
        """x^n for n >= 0: the product of n factors x through the algebra's own
        '*', taken by square and multiply over the bits of n; x^0 is one."""
        out = x if n else self.const(1)
        for bit in bin(n)[3:]:
            out = out * out
            if bit == "1":
                out = out * x
        return out

    def parse_atom(self):
        """atom := number | 'i' | indet | '(' expr ')' | a word of the vocabulary."""
        kind, val, pos = self.peek()
        if kind == "int":
            return self.const(Coeff.const(self.parse_scalar()))
        self.next()
        if val == "(":
            out = self.parse_expr()
            self.expect(")")
            return out
        if kind != "name":
            raise ParseError(f"expected {self.ATOM}, found {val or 'end of input'!r}", pos)
        word = self.parse_word(val)
        if word is not None:
            return word
        if val == "i":
            return self.const(Coeff.const(GaussianRational(0, 1)))
        try:
            indet = Coeff.indet(val)
        except ValueError:
            raise ParseError(f"unknown identifier {val!r}", pos) from None
        return self.const(indet)

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, value: str):
        kind, val, pos = self.next()
        if val != value:
            raise ParseError(f"expected {value!r}, found {val or 'end of input'!r}", pos)

    def parse_signed_int(self) -> int:
        sign = 1
        kind, val, pos = self.peek()
        if val in ("+", "-"):
            self.next()
            sign = -1 if val == "-" else 1
        kind, val, pos = self.next()
        if kind != "int":
            raise ParseError(f"expected an integer, found {val or 'end of input'!r}", pos)
        return sign * int(val)

    def parse_scalar(self) -> GaussianRational:
        """A rendered scalar from an int token: 3, 31/4, 2i, -1/3i; the sign is upstream."""
        x = Fraction(int(self.next()[1]))
        if (self.peek()[1] == "/" and self.tokens[self.i + 1][0] == "int"):
            self.next()
            x /= self.parse_divisor()
        if self.peek()[1] == "i":
            self.next()
            return GaussianRational(0, x)
        return GaussianRational(x)

    def parse_divisor(self) -> int:
        """A signed integer literal after '/', which must not be 0."""
        pos = self.peek()[2]
        den = self.parse_signed_int()
        if den == 0:
            raise ParseError("division by zero", pos)
        return den

    def parse_signed_rat(self) -> Fraction:
        paren = self.peek()[1] == "("
        if paren:
            self.next()
        num = self.parse_signed_int()
        den = 1
        if self.peek()[1] == "/":
            self.next()
            den = self.parse_divisor()
        if paren:
            self.expect(")")
        return Fraction(num, den)


# ---------------------------------------------------------------------------
# symbol expressions


def _const_symbol(c) -> Symbol:
    return Symbol({0: RadialFunction.const(c)})


class _SymbolParser(_Parser):
    MUL_OPS = ("*",)
    ATOM = "a factor"
    const = staticmethod(_const_symbol)
    parse_exponent = _Parser.parse_signed_rat   # r^3/2 is r^(3/2)

    def parse_word(self, word: str):
        """z, conj(z), e(k), r or ln(r); None for any other name."""
        if word == "z":
            return Symbol({1: RadialFunction.term(1, 1)})
        if word == "r":
            return Symbol({0: RadialFunction.term(1, 1)})
        if word in ("conj", "ln"):
            self.expect("(")
            arg = "z" if word == "conj" else "r"
            kind, val, pos = self.next()
            if val != arg:
                raise ParseError(f"only {word}({arg}) is supported", pos)
            self.expect(")")
            if word == "conj":
                return Symbol({-1: RadialFunction.term(1, 1)})
            return Symbol({0: RadialFunction.term(1, 0, 1)})
        if word == "e":
            self.expect("(")
            k = self.parse_signed_int()
            self.expect(")")
            return Symbol({k: RadialFunction.const(1)})
        return None

    def other_power(self, base: Symbol, a: Fraction, pos: int) -> Symbol:
        """r^a for a negative or fractional a; no other base takes such a power."""
        if base != Symbol({0: RadialFunction.term(1, 1)}):
            raise ParseError(f"only r takes the power {a}; other bases take integers >= 0", pos)
        return Symbol({0: RadialFunction.term(1, a)})


def parse_symbol_expr(text: str) -> Symbol:
    return _SymbolParser(text).parse()


def parse_radial_expr(text: str) -> RadialFunction:
    sym = parse_symbol_expr(text)
    extra = [k for k in sym.terms if k != 0]
    if extra:
        raise ParseError(
            f"expected a radial function; found angular degrees {sorted(extra)}", 0
        )
    return sym.terms.get(0, RadialFunction.zero)


def parse_basis_vector(text: str) -> int:
    """The signed index m of the basis vector e_m: 1 -> 0, z^n -> n, zbar^n -> -n."""
    t = text.strip()
    if t == "1":
        return 0
    m = re.fullmatch(r"(z|zbar)(?:\^(\d+))?", t)
    if m is None:
        raise ParseError("expected a basis vector like 1, z^3 or zbar^2", 0)
    n = int(m.group(2) or 1)
    return n if m.group(1) == "z" else -n


# ---------------------------------------------------------------------------
# rational functions in z


class _RatParser(_Parser):
    MUL_OPS = ("*", "/")
    ATOM = "a value"
    const = staticmethod(RationalFn.const)
    parse_exponent = _Parser.parse_signed_int

    def parse_word(self, word: str):
        return RationalFn.poly({1: 1}) if word == "z" else None

    def other_power(self, base: RationalFn, n: int, pos: int) -> RationalFn:
        """x^-n as 1 / x^n."""
        return _divide(RationalFn.one, self.power(base, -n), pos)


def parse_rational_expr(text: str) -> RationalFn:
    return _RatParser(text).parse()
