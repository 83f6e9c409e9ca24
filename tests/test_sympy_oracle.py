"""sympy as a second exact oracle for the rational-function layer and the
Mellin table.

Every RationalFn is compared as a value with the sympy expression built by
the same operation: their difference, read into sympy's field of rational
functions over Q(i), must cancel to 0 (``cancel`` on expressions gives the
same verdict but is many times slower on Gaussian coefficients).
The stored partial fractions are compared term by term with ``apart``, and
the ``num``/``den`` views with ``cancel``, and the rational roots found
for division with sympy's ``roots``.  Inputs have scalar
Gaussian-rational coefficients, which sympy represents exactly.  The Mellin
table is checked against sympy's own integral at integer exponents only:
sympy is seconds slower at fractional ones, or leaves the integral unevaluated.
"""

from fractions import Fraction

import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from htoeplitz import Coeff, RadialFunction, RationalFn, mellin
from htoeplitz.ratfun import _rational_root
from htoeplitz.toeplitz import _Entries

from .conftest import (fractions, mellin_term, pole_values, quotient, rational_functions,
                       scalar_coeffs)

z = sympy.Symbol("z")
K, _ = sympy.field("z", sympy.QQ_I)
oracle = settings(deadline=None, max_examples=40)
poles = st.one_of(pole_values, fractions())


def _rat(x: Fraction):
    return sympy.Rational(x.numerator, x.denominator)


def _num(c: Coeff):
    g = c.scalar()
    return _rat(g.re) + sympy.I * _rat(g.im)


def to_sympy(f: RationalFn):
    out = sum((_num(c) * z**i for i, c in enumerate(f.poly_part.coeffs)), sympy.Integer(0))
    for (q, j), c in f.fractions.items():
        out += _num(c) / (z + _rat(q)) ** j
    return out


def same(f: RationalFn, expr) -> bool:
    return not K.from_expr(to_sympy(f)) - K.from_expr(expr)


def apart_parts(expr):
    """apart(expr) as (polynomial coefficients, {(q, j): coefficient})."""
    poly = sympy.Integer(0)
    parts = {}
    for term in sympy.Add.make_args(sympy.apart(sympy.together(expr), z)):
        n, d = term.as_numer_denom()
        d = sympy.Poly(d, z)
        if d.degree() == 0:
            poly += term
            continue
        ((root, j),) = sympy.roots(d).items()
        assert not n.has(z)
        parts[(-root, j)] = sympy.expand(n / d.LC())
    coeffs = sympy.Poly(poly, z).all_coeffs()[::-1]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs, parts


@given(rational_functions(), rational_functions())
@oracle
def test_add_mul_against_sympy(f, g):
    assert same(f + g, to_sympy(f) + to_sympy(g))
    assert same(f - g, to_sympy(f) - to_sympy(g))
    assert same(f * g, to_sympy(f) * to_sympy(g))


@given(rational_functions(), poles, scalar_coeffs(nonzero=True))
@oracle
def test_divide_by_linear_against_sympy(f, q, c):
    divisor = RationalFn.linear(q).scale(c)
    assert same(f / divisor, to_sympy(f) / (_num(c) * (z + _rat(q))))


@given(rational_functions(), fractions(), fractions())
@oracle
def test_shift_and_affine_substitute_against_sympy(f, alpha, beta):
    assert same(f.shift(beta), to_sympy(f).subs(z, z + _rat(beta)))
    assume(alpha != 0)
    assert same(f.affine_substitute(alpha, beta), to_sympy(f).subs(z, _rat(alpha) * z + _rat(beta)))


@st.composite
def quotients(draw):
    num = {i: draw(scalar_coeffs()) for i in range(draw(st.integers(0, 5)))}
    den = {draw(poles): draw(st.integers(1, 3)) for _ in range(draw(st.integers(1, 3)))}
    return RationalFn.poly(num), den


@given(quotients())
@oracle
def test_partial_fractions_against_apart(nd):
    num, den = nd
    f = quotient(num, den)
    expr = to_sympy(num)
    for q, m in den.items():
        expr = expr / (z + _rat(q)) ** m
    poly, parts = apart_parts(expr)
    assert [_num(c) for c in f.poly_part.coeffs] == poly
    assert {(_rat(q), j): _num(c) for (q, j), c in f.fractions.items()} == parts


@given(rational_functions())
@oracle
def test_reduced_quotient_against_cancel(f):
    p, q = sympy.fraction(sympy.cancel(sympy.together(to_sympy(f))))
    lead = sympy.Poly(q, z).LC()
    den = sympy.Integer(1)
    for pole, m in f.den.items():
        den *= (z + _rat(pole)) ** m
    assert sympy.expand(den - q / lead) == 0
    assert sympy.expand(to_sympy(f.num) - p / lead) == 0


@st.composite
def divisor_polys(draw):
    """A rational times linear factors c z + b, some with 13-digit roots, times
    monic quadratics, whose roots may be irrational or not real."""
    p = RationalFn.const(draw(fractions()) or 1)
    for _ in range(draw(st.integers(0, 3))):
        b = draw(st.one_of(st.integers(-9, 9), st.integers(-10**12, 10**12)))
        p = p * RationalFn.poly({0: b, 1: draw(st.integers(1, 12))})
    for _ in range(draw(st.integers(0, 2))):
        p = p * RationalFn.poly({0: draw(st.integers(-20, 20)), 1: draw(st.integers(-20, 20)), 2: 1})
    return p


@given(divisor_polys())
@oracle
def test_rational_roots_against_sympy(p):
    assume(p.degree() >= 1)
    expected = sympy.roots(sympy.Poly(to_sympy(p), z), filter="Q")
    found = []
    while p.degree() >= 1 and (root := _rational_root(p)) is not None:
        found.append(root)
        p = p * RationalFn.fraction(1, -root)
        assert not p.fractions   # z - root divides p exactly
    assert sorted(map(_rat, found)) == sorted(r for r, m in expected.items() for _ in range(m))


def test_mellin_table_against_integral():
    # phihat(s) = int_0^1 r^{s+a-1} (ln r)^b dr, read from the transform, by mellin_term
    # and by the integer column kernel, where e^{i(s-2) theta} r^a (ln r)^b maps 1 to
    # 2(s-1) phihat(s) z^(s-2)
    r = sympy.Symbol("r", positive=True)
    for a, b, s in [(-1, 0, 3), (-1, 2, 4), (0, 1, 3), (0, 3, 2), (2, 1, 4), (2, 2, 3),
                    (5, 0, 3), (5, 1, 2)]:
        exact = sympy.integrate(r ** (s + a - 1) * sympy.log(r) ** b, (r, 0, 1))
        assert _num(mellin(RadialFunction.term(1, a, b)).evaluate_at(s)) == exact
        assert _rat(mellin_term(Fraction(a), b, s)) == exact
        re, im, den = _Entries(s - 2, [(Fraction(a), b, 1)])[0]
        assert sympy.Rational(re, den) + sympy.I * sympy.Rational(im, den) == 2 * (s - 1) * exact
