import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equihh.errors import DivisionError, FieldMismatchError, InputError
from equihh.scalars import (
    QQ,
    Cyc,
    CyclotomicField,
    cyclotomic_polynomial,
    format_scalar,
    parse_field,
    parse_scalar,
    rational,
)
from tests_support import euler_phi, reference_cyclotomic_polynomial


def test_cyclotomic_polynomials_small():
    # lowest degree first
    assert cyclotomic_polynomial(1) == [-1, 1]
    assert cyclotomic_polynomial(2) == [1, 1]
    assert cyclotomic_polynomial(4) == [1, 0, 1]
    assert cyclotomic_polynomial(5) == [1, 1, 1, 1, 1]
    assert cyclotomic_polynomial(6) == [1, -1, 1]
    assert len(cyclotomic_polynomial(12)) - 1 == euler_phi(12) == 4


def test_cyclotomic_polynomials_match_the_divisor_quotients():
    """The Möbius product equals x^m - 1 divided by every proper divisor's
    polynomial, coefficient by coefficient and as Fractions, for m <= 120."""
    for m in range(1, 121):
        got = cyclotomic_polynomial(m)
        assert got == reference_cyclotomic_polynomial(m), m
        assert all(type(c) is Fraction for c in got), m


def test_a_large_cyclotomic_order_parses_without_a_stall():
    """Q(zeta_5040) has degree phi(5040) = 1152; the divisor recursion took
    tens of seconds on it, the product milliseconds."""
    start = time.perf_counter()
    field = parse_field({"cyclotomic": 5040})
    assert time.perf_counter() - start < 5
    assert field.degree == euler_phi(5040) == 1152
    assert field.modulus[0] == 1 and field.modulus[-1] == 1


def test_zeta4_squares_to_minus_one():
    F = CyclotomicField(4)
    i = F.zeta()
    assert i * i == F.embed(-1)
    assert i * i * i * i == F.one


def test_rational_sum():
    assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)


def test_geometric_sum_of_fifth_roots_vanishes():
    F = CyclotomicField(5)
    z = F.zeta()
    total = F.zero
    power = F.one
    for _ in range(5):
        total = total + power
        power = power * z
    assert not total


@pytest.mark.parametrize("m", [3, 4, 5])
def test_cyclotomic_zero_is_the_additive_identity(m):
    F = CyclotomicField(m)
    assert F.zero + F.one == F.one
    assert F.one + F.zero == F.one
    assert F.zero + F.zeta() == F.zeta()
    assert F.zero == 0
    assert F.zero == F.embed(0)
    assert not F.zero


def test_rational_embeds_into_cyclotomic():
    F = CyclotomicField(4)
    z = F.zeta()
    assert Fraction(1, 2) + z == z + Fraction(1, 2)
    assert (2 * z) / 2 == z
    assert Fraction(3) * F.one == F.embed(3)


def test_mixed_cyclotomic_orders_rejected():
    a = CyclotomicField(4).zeta()
    b = CyclotomicField(5).zeta()
    with pytest.raises(FieldMismatchError):
        a + b
    with pytest.raises(FieldMismatchError):
        a * b


def test_inverse_and_division_error():
    F = CyclotomicField(8)
    z = F.zeta()
    x = z + F.embed(Fraction(2, 3))
    assert x * x.inverse() == F.one
    with pytest.raises(DivisionError):
        F.zero.inverse()
    with pytest.raises(DivisionError):
        QQ.inv(Fraction(0))


def test_format_parse_roundtrip():
    assert format_scalar(Fraction(-3, 4)) == "-3/4"
    assert format_scalar(Fraction(5)) == "5"
    assert parse_scalar("-3/4") == Fraction(-3, 4)
    F = CyclotomicField(4)
    z = F.zeta()
    s = format_scalar(z + 2)
    assert parse_scalar(s, F) == z + 2
    with pytest.raises(FieldMismatchError):
        parse_scalar("cyc4:0,1", CyclotomicField(5))


def test_cyclotomic_inv_takes_a_rational():
    """A document's "1" is a rational even over Q(zeta_m); inv embeds it."""
    F = CyclotomicField(3)
    assert F.inv(2) == F.embed(Fraction(1, 2)) and type(F.inv(1)) is Cyc
    with pytest.raises(DivisionError):
        F.inv(0)


def test_field_specs():
    for spec in (None, "q", "Q", "rational"):
        assert parse_field(spec) == QQ
    assert parse_field({"cyclotomic": 3}) == parse_field("cyc:3") == CyclotomicField(3)
    assert parse_field({"cyclotomic": 1}) == CyclotomicField(1)
    for spec in (
        {"cyclotomic": 0}, {"cyclotomic": -2}, {"cyclotomic": None}, {"cyclotomic": True},
        {"cyclotomic": 1.5}, {"cyclotomic": "3"}, {}, "cyc:x", "cyc:-1", "cyc:0", "cyc:", "cyc:²", 3, [],
    ):
        with pytest.raises(InputError) as exc:
            parse_field(spec)
        assert exc.value.location == "field"


@pytest.mark.parametrize("text", ["cyc3:x", "cyc3:1/0", "cyc3:1,", "cycx:1", "1/0", "x"])
def test_malformed_scalars_are_input_errors(text):
    with pytest.raises(InputError, match="bad"):
        parse_scalar(text, CyclotomicField(3))


scalars3 = st.tuples(
    st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9)
)


@settings(max_examples=60, deadline=None)
@given(scalars3)
def test_field_axioms_cyclotomic(nums):
    F = CyclotomicField(6)
    z = F.zeta()
    a = F.embed(nums[0]) + z * nums[1]
    b = F.embed(nums[2]) + z * nums[3]
    c = z * z + F.embed(nums[0] - nums[3])
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a
    if a:
        assert a * a.inverse() == F.one


small_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def scalar_spellings(draw):
    """Spellings of one value of Q(zeta_m): a Cyc, and when the value is
    rational also the int or Fraction ``rational`` makes and the Fraction."""
    field = CyclotomicField(draw(st.sampled_from([1, 3, 4, 5, 6])))
    head = draw(small_rationals)
    tail = draw(st.one_of(st.just([]), st.lists(small_rationals, max_size=field.degree - 1)))
    forms = [field.element([head, *tail])]
    if not any(tail):
        forms += [rational(head), Fraction(head)]
    return field, forms


@settings(max_examples=200, deadline=None)
@given(scalar_spellings(), st.data())
def test_equal_scalars_hash_alike(spelled, data):
    """x == y implies hash(x) == hash(y) over ints, Fractions and Cyc, so a
    dict keyed by characters or signatures finds a value however it is
    spelled.  The spellings of one value compare and hash alike, and a
    second value of the same field that equals them hashes alike too."""
    field, forms = spelled
    other = data.draw(small_rationals.map(rational) | st.lists(small_rationals).map(field.element))
    for x in forms:
        assert x == forms[0] and hash(x) == hash(forms[0])
        if x == other:
            assert hash(x) == hash(other)
