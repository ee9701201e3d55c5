import operator
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, strategies as st

from oracles import oracle_qi, oracle_triple
from transdolbeault.scalars import GaussianRational, I, ONE, ZERO, rational_from_str, rational_to_str

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=20)
gaussians = st.builds(GaussianRational, rationals, rationals)
pairs = st.tuples(rationals, rationals)
# an operand as (kind, value): a GaussianRational from its (re, im) pair, an int or a Fraction
operands = st.one_of(
    st.tuples(st.just("gaussian"), pairs),
    st.tuples(st.just("int"), st.integers(-50, 50)),
    st.tuples(st.just("fraction"), rationals),
)
OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def _build(operand):
    """(the operand, its (re, im) pair for the oracle)."""
    kind, value = operand
    if kind == "gaussian":
        return GaussianRational(*value), value
    return value, (Fraction(value), Fraction(0))


def _assert_canonical(z):
    a, b, d = z.triple
    assert type(a) is int and type(b) is int and type(d) is int
    assert d > 0 and gcd(a, b, d) == 1


def test_basic_arithmetic():
    x = GaussianRational(1, 2)
    y = GaussianRational(Fraction(1, 3), -1)
    assert x + y == GaussianRational(Fraction(4, 3), 1)
    assert x * I == GaussianRational(-2, 1)
    assert (x - x) == ZERO
    assert I * I == -1


def test_division_and_conjugate():
    x = GaussianRational(3, 4)
    assert x / x == ONE
    assert (ONE / I) == -I
    assert x.conjugate() == GaussianRational(3, -4)
    with pytest.raises(ZeroDivisionError):
        _ = ONE / ZERO


def test_int_and_fraction_coercion():
    x = GaussianRational(1, 1)
    assert 2 * x == GaussianRational(2, 2)
    assert x + Fraction(1, 2) == GaussianRational(Fraction(3, 2), 1)
    assert 1 - x == GaussianRational(0, -1)
    assert 3 / GaussianRational(0, 3) == -I


def test_equality_and_hash_against_real_values():
    assert GaussianRational(5) == 5
    assert hash(GaussianRational(5)) == hash(5)
    assert hash(GaussianRational(Fraction(1, 2))) == hash(Fraction(1, 2))
    assert GaussianRational(5, 1) != 5


def test_immutability():
    x = GaussianRational(1)
    with pytest.raises(AttributeError):
        x.re = Fraction(2)
    with pytest.raises(AttributeError):
        x.triple = (2, 0, 1)


@given(gaussians, gaussians, gaussians)
def test_field_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(gaussians)
def test_multiplicative_inverse(a):
    if a:
        assert a * (ONE / a) == ONE
    assert (a * a.conjugate()).im == 0


@given(gaussians)
def test_json_roundtrip(a):
    assert GaussianRational.from_json(a.to_json()) == a


def test_rational_strings():
    assert rational_to_str(Fraction(-3, 6)) == "-1/2"
    assert rational_to_str(Fraction(4, 2)) == "2"
    assert rational_from_str("-7/2") == Fraction(-7, 2)
    assert rational_from_str(" 5 ") == 5


@given(pairs)
def test_constructor_triple_and_parts_round_trip(pair):
    z = GaussianRational(*pair)
    _assert_canonical(z)
    assert z.triple == oracle_triple(*pair)
    assert (z.re, z.im) == pair
    assert GaussianRational(z.re, z.im).triple == z.triple


@given(st.sampled_from(sorted(OPS)), operands, operands)
def test_arithmetic_matches_fraction_pair_oracle(op, left, right):
    """+ − × ÷ with GaussianRational, int and Fraction operands on either side."""
    assume("gaussian" in (left[0], right[0]))
    x, xp = _build(left)
    y, yp = _build(right)
    if op == "/" and yp == (0, 0):
        with pytest.raises(ZeroDivisionError):
            OPS[op](x, y)
        return
    got = OPS[op](x, y)
    assert isinstance(got, GaussianRational)
    _assert_canonical(got)
    want = oracle_qi(op, xp, yp)
    assert got.triple == oracle_triple(*want)
    assert (got.re, got.im) == want


@given(pairs, st.lists(st.tuples(st.sampled_from(sorted(OPS)), operands), max_size=8))
def test_chained_operations_stay_canonical(start, steps):
    """Denominators and heights grow along a chain; every step stays reduced."""
    z, zp = GaussianRational(*start), start
    for op, operand in steps:
        y, yp = _build(operand)
        if op == "/" and yp == (0, 0):
            continue
        z, zp = OPS[op](z, y), oracle_qi(op, zp, yp)
        _assert_canonical(z)
        assert z.triple == oracle_triple(*zp)


@given(pairs)
def test_negation_and_conjugation(pair):
    re, im = pair
    z = GaussianRational(*pair)
    for got, want in ((-z, (-re, -im)), (z.conjugate(), (re, -im)), (+z, (re, im))):
        _assert_canonical(got)
        assert got.triple == oracle_triple(*want)


@given(pairs, pairs, pairs)
def test_equal_values_have_equal_triples_and_hashes(pair, other, shift):
    x = GaussianRational(*pair)
    s = GaussianRational(*shift)
    same = [(x + s) - s, (x * 3 - x) / 2]
    if s:
        same.append(x * s / s)
    for y in same:
        assert y == x and y.triple == x.triple and hash(y) == hash(x)
    y = GaussianRational(*other)
    assert (y == x) == (other == pair)
    if y == x:
        assert hash(y) == hash(x)


@given(rationals, pairs)
def test_real_values_hash_and_compare_like_fractions(r, pair):
    assert GaussianRational(r) == r and r == GaussianRational(r)
    assert hash(GaussianRational(r)) == hash(r)
    assert hash(GaussianRational(r.numerator)) == hash(r.numerator)
    z = GaussianRational(*pair)
    norm = z * z.conjugate()  # real, reached through arithmetic
    assert norm.triple[1] == 0
    assert hash(norm) == hash(norm.re) and norm == norm.re


@given(gaussians)
def test_division_by_zero_raises(z):
    for zero in (ZERO, 0, Fraction(0)):
        with pytest.raises(ZeroDivisionError):
            z / zero
    for numerator in (1, Fraction(1, 2), ONE):
        with pytest.raises(ZeroDivisionError):
            numerator / ZERO
