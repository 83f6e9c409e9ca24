"""Parsers for symbol expressions and rational functions.

Symbol grammar::

    expr   := term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := int | indet | 'z' ['^' int] | 'conj(z)' ['^' int]
            | 'e(' int ')' | 'r' ['^' rat] | 'ln(r)' | '(' expr ')'

``e(k)`` is the angular factor of degree k; ``z^n`` desugars to
``e(n)*r^n`` and ``conj(z)^n`` to ``e(-n)*r^n``.  Indeterminates are
written ``C3``, ``Cm1`` (negative index), ``abar2``.  The rational-function
grammar replaces the radial vocabulary with the single variable ``z`` and
adds ``/``.  The parsers hold no arithmetic of their own: ``+``, ``-`` and
``*`` are those of ``Symbol`` and ``RationalFn``.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .exactalg import Coeff, GaussianRational, indet_key
from .radial import RadialFunction
from .ratfun import Poly, RationalFn
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
        if m is None or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}", pos)
        if m.lastgroup is not None:
            kind = [k for k in ("int", "name", "op") if m.group(k)][0]
            tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    """Tokens and the shared rules; a subclass supplies ``parse_term``."""

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

    def fail(self, message):
        raise ParseError(message, self.peek()[2])

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

    def _opt_exponent(self) -> int:
        """The exponent after z or conj(z); the caret is optional."""
        if self.peek()[1] == "^":
            self.next()
            return self.parse_signed_int()
        if self.peek()[0] == "int":
            return int(self.next()[1])
        return 1

    def parse_scalar(self) -> GaussianRational:
        """A rendered scalar: 3, 31/4, 2i, -1/3i; the sign is handled upstream."""
        kind, val, pos = self.next()
        if kind != "int":
            raise ParseError(f"expected a number, found {val or 'end of input'!r}", pos)
        x = Fraction(int(val))
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
    def parse_term(self) -> Symbol:
        out = self.parse_factor()
        while self.peek()[1] == "*":
            self.next()
            out = out * self.parse_factor()
        return out

    def parse_factor(self) -> Symbol:
        kind, val, pos = self.peek()
        if kind == "int":
            return _const_symbol(Coeff.const(self.parse_scalar()))
        if val == "i":
            self.next()
            return _const_symbol(Coeff.const(GaussianRational(0, 1)))
        if val == "(":
            self.next()
            out = self.parse_expr()
            self.expect(")")
            return out
        if kind != "name":
            self.fail(f"expected a factor, found {val or 'end of input'!r}")
        self.next()
        if val == "z":
            n = self._opt_exponent()
            if n < 0:
                raise ParseError("z^n requires n >= 0 (use conj(z) for the conjugate)", pos)
            return Symbol({n: RadialFunction.term(1, n)})
        if val == "conj":
            self.expect("(")
            kind2, val2, pos2 = self.next()
            if val2 != "z":
                raise ParseError("only conj(z) is supported", pos2)
            self.expect(")")
            n = self._opt_exponent()
            if n < 0:
                raise ParseError("conj(z)^n requires n >= 0", pos)
            return Symbol({-n: RadialFunction.term(1, n)})
        if val == "e":
            self.expect("(")
            k = self.parse_signed_int()
            self.expect(")")
            return Symbol({k: RadialFunction.const(1)})
        if val == "r":
            a = Fraction(1)
            if self.peek()[1] == "^":
                self.next()
                a = self.parse_signed_rat()
            elif self.peek()[0] == "int":
                a = Fraction(int(self.next()[1]))
            return Symbol({0: RadialFunction.term(1, a)})
        if val == "ln":
            self.expect("(")
            kind2, val2, pos2 = self.next()
            if val2 != "r":
                raise ParseError("only ln(r) is supported", pos2)
            self.expect(")")
            b = 1
            if self.peek()[1] == "^":
                self.next()
                b = self.parse_signed_int()
            if b < 0:
                raise ParseError("ln(r)^b requires b >= 0", pos)
            return Symbol({0: RadialFunction.term(1, 0, b)})
        # the tokenizer glues a caretless exponent onto the name: z3, r2
        m = re.fullmatch(r"(z|r)(\d+)", val)
        if m is not None:
            n = int(m.group(2))
            k = n if m.group(1) == "z" else 0
            return Symbol({k: RadialFunction.term(1, n)})
        try:
            indet_key(val)
        except ValueError:
            raise ParseError(f"unknown identifier {val!r}", pos) from None
        e = 1
        if self.peek()[1] == "^":
            self.next()
            e = self.parse_signed_int()
        if e < 1:
            raise ParseError(f"{val}^e requires e >= 1", pos)
        return _const_symbol(Coeff.indet(val, e))


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


def _divide(a: RationalFn, b: RationalFn, pos: int) -> RationalFn:
    """a / b, or a ParseError at pos when b is 0 or has a non-rational root."""
    try:
        return a / b
    except (ZeroDivisionError, ValueError) as exc:
        raise ParseError(f"cannot divide by {b.render()}: {exc}", pos) from None


class _RatParser(_Parser):
    def parse_term(self) -> RationalFn:
        out = self.parse_power()
        while self.peek()[1] in ("*", "/"):
            op = self.next()[1]
            pos = self.peek()[2]
            rhs = self.parse_power()
            out = out * rhs if op == "*" else _divide(out, rhs, pos)
        return out

    def parse_power(self) -> RationalFn:
        pos = self.peek()[2]
        base = self.parse_atom()
        if self.peek()[1] == "^":
            self.next()
            n = self.parse_signed_int()
            if n < 0:
                out = RationalFn.one
                for _ in range(-n):
                    out = _divide(out, base, pos)
                return out
            out = RationalFn.one
            for _ in range(n):
                out = out * base
            return out
        return base

    def parse_atom(self) -> RationalFn:
        kind, val, pos = self.peek()
        if kind == "int":
            return RationalFn.const(Coeff.const(self.parse_scalar()))
        if val == "(":
            self.next()
            out = self.parse_expr()
            self.expect(")")
            return out
        if kind == "name":
            self.next()
            if val == "i":
                return RationalFn.const(Coeff.const(GaussianRational(0, 1)))
            if val == "z":
                return RationalFn.coerce(Poly.variable())
            try:
                indet_key(val)
            except ValueError:
                raise ParseError(f"unknown identifier {val!r}", pos) from None
            return RationalFn.const(Coeff.indet(val))
        self.fail(f"expected a value, found {val or 'end of input'!r}")


def parse_rational_expr(text: str) -> RationalFn:
    return _RatParser(text).parse()
