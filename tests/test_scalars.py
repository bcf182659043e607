import math
import struct
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conconic.scalars import (
    FLOAT_BITS,
    all_exact,
    brief_repr,
    canonical_triple,
    canonical_tuple,
    div,
    exact_sqrt,
    float_scaled,
    format_scalar,
    is_exact,
    is_zero,
    near_zero,
    parse_scalar,
)

from conftest import small_fractions


def test_exactness_classification():
    assert is_exact(3) and is_exact(Fraction(1, 3))
    assert not is_exact(0.5)
    assert all_exact([1, Fraction(2, 5)])
    assert not all_exact([1, 0.5])


def test_all_exact_keeps_bool_out_and_fraction_in():
    assert all_exact([Fraction(1, 3), 2, Fraction(4)]) and all_exact([])
    assert not all_exact([1, True]) and not all_exact([False])
    assert not all_exact([Fraction(1, 2), 0.5])
    assert not is_exact(True)


def test_div_keeps_exact_values_exact():
    assert div(1, 3) == Fraction(1, 3)
    assert isinstance(div(1, 3), Fraction)
    assert div(1.0, 3) == pytest.approx(1 / 3)
    assert isinstance(div(1.0, 3), float)


def test_exact_sqrt_perfect_squares():
    assert exact_sqrt(49) == 7
    assert exact_sqrt(Fraction(9, 16)) == Fraction(3, 4)
    assert exact_sqrt(0) == 0
    assert exact_sqrt(2) is None
    assert exact_sqrt(Fraction(2, 9)) is None
    assert exact_sqrt(-4) is None


def test_near_zero_is_relative():
    assert near_zero(1e-12, 1.0, 1e-9)
    assert not near_zero(1e-12, 1e-6, 1e-9)
    assert near_zero(1e-3, 1e7, 1e-9)
    # tiny scales fall back to an absolute floor instead of dividing by zero
    assert near_zero(0.0, 0.0, 1e-9)


def test_is_zero_reads_the_backend_from_the_value():
    def no_scale():
        raise AssertionError("an exact value never needs a scale")

    assert not is_zero(Fraction(1, 10**30), 0.5, no_scale)
    assert not is_zero(1, 0.5, no_scale)
    assert is_zero(0, 0.5, no_scale) and is_zero(Fraction(0), 0.5, no_scale)
    calls = []

    def unit_scale():
        calls.append(1)
        return 1.0

    assert is_zero(1e-12, 1e-9, unit_scale) and not is_zero(1e-6, 1e-9, unit_scale)
    assert calls == [1, 1]  # once per float test
    assert is_zero(0.0, 1e-9, lambda: 0.0) and not is_zero(1e-300, 1e-9, lambda: 0.0)


def test_parse_and_format_round_trip():
    for text in ["3/4", "-7/2", "5", "0.25", "-1.5"]:
        value = parse_scalar(text, exact=True)
        assert parse_scalar(format_scalar(value), exact=True) == value
    assert parse_scalar("1/3", exact=False) == pytest.approx(1 / 3)


@pytest.mark.parametrize("text", ["-2." + "5" * 4301, "7e" + "0" * 4400])
def test_a_number_past_the_digit_limit_names_the_limit(text):
    # a decimal or exponent form past the limit is refused; the same value
    # as "1e5000" parses, and so does an integer or "p/q" of any length
    assert parse_scalar("1e5000", exact=True) == 10**5000
    for exact in (True, False):
        with pytest.raises(ValueError, match=r"characters\) has more digits than the interpreter converts \(4,300\)$"):
            parse_scalar(text, exact)


@pytest.mark.parametrize("value", [
    10**5000, -(10**5000) + 7, Fraction(10**4300, 3), Fraction(-3 * 10**6000 + 1, 7**7000), Fraction(5, 10**9000),
], ids=["int", "negative-int", "numerator", "both", "denominator"])
def test_an_integer_or_fraction_past_the_digit_limit_round_trips(value):
    # format_scalar writes the digits str() would write without the limit,
    # parse_scalar reads them back, and neither lifts the limit
    limit = sys.get_int_max_str_digits()
    text = format_scalar(value)
    assert sys.get_int_max_str_digits() == limit
    assert parse_scalar(text, exact=True) == value
    assert parse_scalar(f"  {text} ", exact=True) == value
    try:
        sys.set_int_max_str_digits(0)
        assert text == str(Fraction(value))
    finally:
        sys.set_int_max_str_digits(limit)
    assert sys.get_int_max_str_digits() == limit


def test_a_long_integer_is_too_large_for_a_float_and_a_long_zero_denominator_is_not_a_number():
    with pytest.raises(ValueError, match=r"\(5001 characters\) is too large for a float$"):
        parse_scalar("1" + "0" * 5000, exact=False)
    with pytest.raises(ValueError, match="^cannot parse .* as a number$"):
        parse_scalar("1/" + "0" * 5000, exact=True)


def test_values_under_the_digit_limit_keep_their_bytes():
    for value in (0, -1, 10**4300 - 1, -(10**4300) + 1, Fraction(10**4299, 10**4300 - 1)):
        assert format_scalar(value) == str(Fraction(value))


def test_a_digit_run_at_the_limit_parses_and_a_long_non_number_is_not_a_number():
    assert parse_scalar("9" * 4300, exact=True) == 10**4300 - 1
    for text in ("x" + "0" * 5000, "1/2/" + "3" * 5000):
        with pytest.raises(ValueError, match="^cannot parse .* as a number$"):
            parse_scalar(text, exact=True)


@given(st.lists(small_fractions, min_size=3, max_size=3))
def test_canonical_tuple_idempotent(vals):
    if all(v == 0 for v in vals):
        vals[0] = Fraction(1)
    once = canonical_tuple(vals)
    assert canonical_tuple(once) == once


@given(st.lists(small_fractions, min_size=3, max_size=3), small_fractions)
def test_canonical_tuple_scale_invariant(vals, scale):
    if all(v == 0 for v in vals):
        vals[0] = Fraction(1)
    if scale == 0:
        scale = Fraction(2)
    assert canonical_tuple([scale * v for v in vals]) == canonical_tuple(vals)


@given(st.lists(small_fractions, min_size=3, max_size=3))
def test_canonical_tuple_exact_form(vals):
    if all(v == 0 for v in vals):
        vals[0] = Fraction(1)
    out = canonical_tuple(vals)
    assert all(isinstance(v, int) for v in out)
    assert math.gcd(*(abs(v) for v in out)) == 1
    first = next(v for v in out if v != 0)
    assert first > 0


def test_canonical_tuple_float_pins_largest_component():
    out = canonical_tuple([0.5, -2.0, 1.0])
    assert out == (-0.25, 1.0, -0.5)
    assert canonical_tuple([out[0] * 7.0, out[1] * 7.0, out[2] * 7.0]) == out


def test_canonical_tuple_rejects_zero():
    with pytest.raises(ValueError):
        canonical_tuple([0, 0, 0])


@pytest.mark.parametrize("empty", [(), []])
def test_canonical_tuple_rejects_an_empty_tuple(empty):
    with pytest.raises(ValueError) as err:
        canonical_tuple(empty)
    assert str(err.value) == "empty coordinate tuple"


def reduced_by_formula(vals):
    """The generic rule for integers: divide by the gcd, signed so that the
    first nonzero entry comes out positive."""
    g = math.gcd(*vals)
    lead = next(v for v in vals if v != 0)
    return tuple(v // (g if lead > 0 else -g) for v in vals)


INT_TRIPLES = [
    (-3, 4, 5), (-6, -8, 10), (0, -2, 4), (0, 0, -7), (0, 5, 0), (6, 0, -9), (12, 18, 0),
    (1, 0, 0), (0, 0, 1), (2, 3, 5), (-1, -1, -1), (4, 6, 8), (-2**300, 3 * 2**299, 5),
    (3**189, -(3**190), 3**188 * 7), (2**299 + 1, 0, -(2**300) - 2),
]


@pytest.mark.parametrize("vals", INT_TRIPLES)
def test_int_triples_match_the_generic_rule(vals):
    out = canonical_tuple(vals)
    assert repr(out) == repr(reduced_by_formula(vals))
    assert all(type(v) is int for v in out)
    assert canonical_tuple(list(vals)) == out
    assert repr(canonical_triple(*vals)) == repr(out)


def test_all_zero_int_triples_raise_the_generic_error():
    for vals in ((0, 0, 0), [0, 0, 0]):
        with pytest.raises(ValueError, match="^homogeneous coordinates cannot all be zero$"):
            canonical_tuple(vals)
    with pytest.raises(ValueError, match="^homogeneous coordinates cannot all be zero$"):
        canonical_tuple((0, 0, 0, 0))


def test_bool_triples_take_the_float_route(monkeypatch):
    # a bool is not an exact scalar: a triple holding one is scanned as
    # exact, rejected, and canonicalized in floats, as it always was
    import conconic.scalars as scalars

    scans = []

    def counting_all_exact(values):
        scans.append(tuple(values))
        return all_exact(values)

    monkeypatch.setattr(scalars, "all_exact", counting_all_exact)
    for vals in ((True, False, True), (True, 2, 3), (0, -4, False)):
        out = canonical_tuple(vals)
        assert all(type(v) is float for v in out)
        assert bits(out) == bits(loop_float_canonical_tuple(vals))
    assert len(scans) == 3


@given(st.lists(st.one_of(st.integers(-6, 6), st.integers(-2**300, 2**300)), min_size=1, max_size=6))
def test_canonical_tuple_of_ints_matches_the_fraction_path(vals):
    fracs = [Fraction(v) for v in vals]
    if all(v == 0 for v in vals):
        for form in (vals, fracs):
            with pytest.raises(ValueError):
                canonical_tuple(form)
        return
    out = canonical_tuple(vals)
    assert out == canonical_tuple(fracs)
    assert all(type(v) is int for v in out)


def test_mixed_tuples_with_large_denominators_clear_them_like_fractions():
    # oracle: each entry as a Fraction, multiplied by the lcm of the
    # denominators, then canonicalized as an all-int tuple
    def cleared_by_fractions(vals):
        lcm = math.lcm(*(Fraction(v).denominator for v in vals))
        return canonical_tuple([int(Fraction(v) * lcm) for v in vals])

    big = 10**40 + 7
    for vals in (
        (Fraction(1, big), 3, Fraction(-5, 2**89 - 1)),
        (-4, Fraction(2**127 - 1, 6**30), Fraction(-1, 3**50), 0, 9),
        (0, Fraction(-7, big * 3), Fraction(-7, big * 5)),
        (Fraction(big, 2**64), -(2**70), Fraction(1, 2**64 * 3)),
        (Fraction(-1, 7), 0, 0, Fraction(6, 7), Fraction(10**30, 13), 1),
    ):
        out = canonical_tuple(vals)
        assert out == cleared_by_fractions(vals)
        assert all(type(v) is int for v in out)


def branch_order_canonical_tuple(values):
    """canonical_tuple as three scans in a fixed order: all ints, then all
    exact, then floats pinned at the first component of largest magnitude."""
    vals = list(values)
    if all(type(v) is int for v in vals):
        g = math.gcd(*vals)
        g = -g if next(v for v in vals if v != 0) < 0 else g
        return tuple(v // g for v in vals)
    if all_exact(vals):
        lcm = math.lcm(*(Fraction(v).denominator for v in vals))
        return branch_order_canonical_tuple([int(Fraction(v) * lcm) for v in vals])
    floats = [float(v) for v in vals]
    m = max(abs(v) for v in floats)
    pivot = next(v for v in floats if abs(v) == m)
    return tuple(v / pivot for v in floats)


def bits(values):
    return struct.pack(f"<{len(values)}d", *values)


mixed_entries = st.one_of(
    st.integers(-50, 50),
    small_fractions,
    st.sampled_from([0.0, -0.0, 1.0, -1.0]),
    st.floats(allow_nan=False, allow_infinity=False, min_value=-1e100, max_value=1e100),
)


@given(st.lists(mixed_entries, min_size=3, max_size=6))
def test_canonical_tuple_of_mixed_tuples_keeps_the_branch_order(vals):
    if all(v == 0 for v in vals):
        return
    assert repr(canonical_tuple(vals)) == repr(branch_order_canonical_tuple(vals))


def test_float_led_and_int_led_mixed_tuples():
    for vals in ((1.0, 2, Fraction(1, 3)), (2, 3.0, 1), (Fraction(1, 2), -0.0, 4), (-0.0, 0, -3)):
        out = canonical_tuple(vals)
        assert all(type(v) is float for v in out)
        assert repr(out) == repr(branch_order_canonical_tuple(vals))
    assert canonical_tuple((2, 3.0, 1)) == (2 / 3, 1.0, 1 / 3)
    assert repr(canonical_tuple((-0.0, 0, -3))) == "(0.0, -0.0, 1.0)"


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=3, max_size=6))
def test_float_canonicalization_is_bitwise_idempotent(vals):
    if all(v == 0 for v in vals):
        return
    once = canonical_tuple(vals)
    assert max(map(abs, once)) == 1.0 and 1.0 in once
    assert bits(canonical_tuple(once)) == bits(once)


def test_canonical_tuple_rejects_non_finite_floats():
    for vals in ((math.inf, 1.0, 0.0), (1.0, math.nan, 2), (0, 1, -math.inf)):
        with pytest.raises(ValueError, match="non-finite"):
            canonical_tuple(vals)
    with pytest.raises(ValueError, match="all be zero"):
        canonical_tuple((0.0, -0.0, 0))


def loop_float_canonical_tuple(values):
    """The generic float branch of canonical_tuple written out: convert,
    reject non-finite entries, pivot on the first component of largest
    magnitude (strictly larger replaces), then divide by the pivot."""
    floats = list(map(float, values))
    if not all(map(math.isfinite, floats)):
        raise ValueError("non-finite homogeneous coordinate")
    pivot = m = 0.0
    for v in floats:
        if abs(v) > m:
            pivot, m = v, abs(v)
    if m == 0.0:
        raise ValueError("homogeneous coordinates cannot all be zero")
    return tuple([v / pivot for v in floats])


def test_float_triples_with_tied_magnitudes_pivot_on_the_first():
    assert repr(canonical_tuple((-2.0, 2.0, 1.0))) == "(1.0, -1.0, -0.5)"
    assert repr(canonical_tuple((1.0, -3.0, 3.0))) == "(-0.3333333333333333, 1.0, -1.0)"
    for vals in ((-2.0, 2.0, 1.0), (2.0, -2.0, -2.0), (0.5, -4.0, 4.0), (-1.0, -1.0, -1.0),
                 (3.0, 1.0, -3.0), (0.0, 7.5, -7.5)):
        assert bits(canonical_tuple(vals)) == bits(loop_float_canonical_tuple(vals))


def test_float_triples_keep_the_sign_of_zero():
    for vals in ((-0.0, 0.0, -3.0), (0.0, -0.0, 2.0), (-0.0, -5.0, 5.0), (4.0, -0.0, 0.0),
                 (-0.0, -0.0, -1.0), (-6.0, 0.0, -0.0)):
        out = canonical_tuple(vals)
        assert bits(out) == bits(loop_float_canonical_tuple(vals)), vals
    assert repr(canonical_tuple((-0.0, 0.0, -3.0))) == "(0.0, -0.0, 1.0)"


@pytest.mark.parametrize("vals", [
    (math.inf, 1.0, 0.0), (1.0, -math.inf, 2.0), (0.0, 0.0, math.inf),
    (math.nan, 1.0, 2.0), (1.0, 2.0, math.nan), (math.nan, math.nan, math.nan),
    (math.inf, math.nan, 1.0),
])
def test_non_finite_float_triples_raise(vals):
    with pytest.raises(ValueError, match="non-finite"):
        canonical_tuple(vals)


@pytest.mark.parametrize("vals", [(0.0, 0.0, 0.0), (-0.0, 0.0, -0.0), (-0.0, -0.0, -0.0)])
def test_all_zero_float_triples_raise(vals):
    with pytest.raises(ValueError, match="all be zero"):
        canonical_tuple(vals)


@given(st.tuples(*[st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, -2.0]),
                             st.floats(allow_nan=False, allow_infinity=False))] * 3))
def test_float_triples_match_the_loop_bit_for_bit(vals):
    if all(v == 0 for v in vals):
        return
    assert bits(canonical_tuple(vals)) == bits(loop_float_canonical_tuple(vals))


def test_mixed_int_float_triples_take_the_generic_path(monkeypatch):
    import conconic.scalars as scalars

    scans = []

    def counting_all_exact(values):
        scans.append(tuple(values))
        return all_exact(values)

    monkeypatch.setattr(scalars, "all_exact", counting_all_exact)
    for vals in ((2, 3.0, 1.0), (2, -3.0, 3), (0, -0.0, -3.0), (Fraction(1, 2), 1.0, -1.0)):
        out = canonical_tuple(vals)
        assert all(type(v) is float for v in out)
        assert bits(out) == bits(loop_float_canonical_tuple(vals))
    # an int- or Fraction-led triple reaches the exact scan, as it always did
    assert len(scans) == 4
    for vals in ((1.0, 2, 3.0), (-2.0, 2, 1.0), (1.0, True, 0.5)):
        assert bits(canonical_tuple(vals)) == bits(loop_float_canonical_tuple(vals))


# ----- canonical_triple: the one rule for points and lines ------------------

SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -1e-300, 1e300, -1e300,
                  1.0, -1.0, 2.0, -2.0, 0.5, -3.0, 3.0]
triple_floats = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats(allow_nan=False, allow_infinity=False))
triple_ints = st.one_of(st.sampled_from([0, 0, 1, -1, 2, -6]), st.integers(-2**300, 2**300))
other_entries = st.one_of(
    st.booleans(), small_fractions, st.integers(-9, 9), st.sampled_from([0.0, -0.0, -2.0, 1e300])
)


@given(st.tuples(triple_floats, triple_floats, triple_floats))
@example((-2.0, 2.0, 1.0))
@example((1e300, -1e300, -1e300))
@example((-0.0, 5e-324, -5e-324))
@example((0.0, -0.0, -3.0))
def test_canonical_triple_of_floats_is_the_generic_rule_bit_for_bit(vals):
    # signed zeros, subnormals, +-1e300, magnitude ties (the first largest
    # entry is the pivot) and negative pivots among the draws
    if all(v == 0 for v in vals):
        return
    out = canonical_triple(*vals)
    assert bits(out) == bits(loop_float_canonical_tuple(vals))
    assert bits(canonical_tuple(vals)) == bits(out)


@given(st.tuples(triple_ints, triple_ints, triple_ints))
def test_canonical_triple_of_ints_is_the_generic_rule(vals):
    # a negative lead, zeros in each position and 300-bit entries
    if all(v == 0 for v in vals):
        return
    out = canonical_triple(*vals)
    assert repr(out) == repr(reduced_by_formula(vals))
    assert all(type(v) is int for v in out)
    assert repr(canonical_tuple(vals)) == repr(out)


@given(st.tuples(other_entries, other_entries, other_entries))
def test_bool_fraction_and_mixed_triples_take_the_generic_rule(vals):
    if all(v == 0 for v in vals):
        return
    assert repr(canonical_triple(*vals)) == repr(branch_order_canonical_tuple(vals))
    assert repr(canonical_tuple(vals)) == repr(canonical_triple(*vals))


@pytest.mark.parametrize("vals", [
    (0, 0, 0), (0.0, -0.0, 0.0), (Fraction(0), 0, 0), (False, 0, False), (0, 0.0, Fraction(0)),
])
def test_all_zero_triples_raise_the_generic_error(vals):
    for canonical in (lambda: canonical_triple(*vals), lambda: canonical_tuple(vals)):
        with pytest.raises(ValueError, match="^homogeneous coordinates cannot all be zero$"):
            canonical()


@pytest.mark.parametrize("vals", [
    (math.inf, 1.0, 0.0), (1.0, math.nan, 2.0), (0.0, 0.0, -math.inf), (math.nan, 0.0, 0.0),
    (-0.0, 1e308, math.nan), (math.inf, -math.inf, math.nan),
    (1, math.nan, 2), (Fraction(1, 3), 0, math.inf), (True, -math.inf, 1.0),
])
def test_non_finite_triples_raise_the_generic_error(vals):
    for canonical in (lambda: canonical_triple(*vals), lambda: canonical_tuple(vals)):
        with pytest.raises(ValueError, match="^non-finite homogeneous coordinate$"):
            canonical()


def test_canonical_tuple_hands_triples_to_the_triple_rule(monkeypatch):
    import conconic.scalars as scalars

    seen = []

    def recording_triple(x, y, z):
        seen.append((x, y, z))
        return canonical_triple(x, y, z)

    monkeypatch.setattr(scalars, "canonical_triple", recording_triple)
    assert canonical_tuple([2, -4, 6]) == (1, -2, 3)
    assert canonical_tuple((1, 2, 3, 4, 5, 6)) == (1, 2, 3, 4, 5, 6)
    assert seen == [(2, -4, 6)]


# ----- float_scaled: exact tuples past float range --------------------------


def test_float_scaled_keeps_tuples_in_range_as_they_are():
    for vals in ((1, -2, 3), (2**FLOAT_BITS - 1, 0, -1), (0.5, 1.0, -1.0), (Fraction(1, 3), 1, 2)):
        assert float_scaled(vals) is vals


def test_float_scaled_divides_a_large_int_tuple_by_one_power_of_two():
    out = float_scaled((2**600, 3, -(2**601)))
    assert out == (2.0**(FLOAT_BITS - 2), 3 / 2**102, -(2.0**(FLOAT_BITS - 1)))
    assert all(type(v) is float for v in out)
    # each entry is the correctly rounded quotient, the largest FLOAT_BITS bits long
    big = 7**1000
    shift = big.bit_length() - FLOAT_BITS
    out = float_scaled((5, big, -big // 3))
    assert out == (5 / 2**shift, big / 2**shift, (-big // 3) / 2**shift)
    assert 2.0**(FLOAT_BITS - 1) <= out[1] < 2.0**FLOAT_BITS


def test_brief_repr_prints_an_int_of_exactly_the_printable_bits_and_describes_a_longer_one():
    assert brief_repr(2**9999).endswith("(3010 characters)")  # 10,000 bits
    assert brief_repr(-2**10000) == "a negative integer of about 3011 digits"
