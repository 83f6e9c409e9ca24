"""No float enters the exact path: every key and value of every ``Terms`` map
that the pipeline, the printed lemmas and the key-building operations reach
is an int, a Fraction or a reduced GaussianRational, and an integral pole or
exponent that those operations build is an int."""

from fractions import Fraction

import pytest

from htoeplitz import ALL_LEMMA_TAGS, GaussianRational, RationalFn, reproduce_lemma, run_pipeline
from htoeplitz.derive import _find_shift
from htoeplitz.exactalg import Terms
from htoeplitz.toeplitz import u_symbol


def _floats(obj, path="") -> list:
    """Paths of every float under obj: Terms keys and values, tuples, lists,
    dicts, GaussianRational triples and the attributes of report objects."""
    if isinstance(obj, float):
        return [path]
    if isinstance(obj, GaussianRational):
        return [f"{path}.{n}" for n in ("x", "y", "d") if type(getattr(obj, n)) is not int]
    if isinstance(obj, Terms):
        obj = obj.terms
    if isinstance(obj, dict):
        return [p for k, v in obj.items() for p in _floats(k, f"{path}[{k!r}]")
                + _floats(v, f"{path}[{k!r}]=")]
    if isinstance(obj, (tuple, list)):
        return [p for i, v in enumerate(obj) for p in _floats(v, f"{path}[{i}]")]
    if hasattr(obj, "__dict__"):
        return [p for k, v in vars(obj).items() for p in _floats(v, f"{path}.{k}")]
    return []


def _int_keys(fn: RationalFn) -> bool:
    """Every integral pole of fn is an int."""
    return all(type(q) is int for q, _ in fn.fractions if q == int(q))


def test_pipeline_builds_no_float():
    assert _floats(run_pipeline(u_symbol(5), 3, 8)) == []


@pytest.mark.parametrize("tag", ALL_LEMMA_TAGS)
def test_lemma_builds_no_float(tag):
    assert _floats(reproduce_lemma(tag)) == []


def test_key_operations_build_no_float():
    split = RationalFn.fraction(1, 1, 2) * RationalFn.fraction(3, 3)   # through _split
    third = RationalFn.fraction(Fraction(1, 3), Fraction(1, 2)) * RationalFn.fraction(1, 4)
    for fn in (split, third, split.shift(2), split.shift(Fraction(1, 2)),
               split.affine_substitute(2, 0), split.affine_substitute(Fraction(1, 2), 1),
               third.affine_substitute(2, Fraction(-1, 2))):
        assert _floats(fn) == [] and _int_keys(fn), fn
    assert set(split.fractions) == {(1, 1), (1, 2), (3, 1)}
    assert set(split.affine_substitute(2, 0).fractions) == {
        (Fraction(1, 2), 1), (Fraction(1, 2), 2), (Fraction(3, 2), 1)}


def test_find_shift_halves_the_gap_exactly():
    B = {(): RationalFn.fraction(1, 1)}
    even = _find_shift({(): RationalFn.fraction(1, 5)}, B)
    assert even == 2 and type(even) is int
    assert _find_shift({(): RationalFn.fraction(1, 4)}, B) is None
