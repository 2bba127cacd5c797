"""Exact terminating-decimal layer: canonical form and field laws.

Oracle: Python Fraction arithmetic (stdlib, independent of this layer's
integer rescaling)."""

import random
import time
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from decreal.errors import MalformedLiteral
from decreal.realnum import parse_real
from decreal.terminating import (
    _LITERAL,
    ONE,
    ZERO,
    TerminatingDecimal,
    digits_from_int,
    int_from_digits,
    parse_terminating,
    pow10,
    scan_literal,
    split_denominator,
)

units = st.integers(min_value=-10**12, max_value=10**12)
scales = st.integers(min_value=0, max_value=12)
tds = st.builds(TerminatingDecimal, units, scales)


class TestCanonicalForm:
    def test_trailing_zeros_stripped(self):
        assert TerminatingDecimal(2500, 3) == TerminatingDecimal(25, 1)
        assert TerminatingDecimal(2500, 3).scale == 1

    def test_zero_always_scale_zero(self):
        assert TerminatingDecimal(0, 7) == TerminatingDecimal(0, 0)
        assert str(TerminatingDecimal(0, 7)) == "0"

    def test_negative_scale_rejected(self):
        with pytest.raises(ValueError):
            TerminatingDecimal(1, -1)

    def test_immutable(self):
        t = TerminatingDecimal(25, 1)
        with pytest.raises(AttributeError):
            t.units = 3
        with pytest.raises(AttributeError):
            del t.scale
        assert (t.units, t.scale) == (25, 1)

    @given(tds)
    def test_canonical_units_not_divisible_by_ten(self, t):
        assert t.scale == 0 or t.units % 10 != 0

    @given(tds)
    def test_equality_is_numeric(self, t):
        again = TerminatingDecimal(t.units * 100, t.scale + 2)
        assert again == t and hash(again) == hash(t)

    @given(st.integers(min_value=-10**6, max_value=10**6),
           st.integers(min_value=0, max_value=300),
           st.integers(min_value=0, max_value=300))
    @settings(max_examples=300)
    def test_long_zero_runs_cut_to_canonical_form(self, base, zeros, scale):
        t = TerminatingDecimal(base * 10**zeros, scale)
        assert t.as_fraction() == Fraction(base * 10**zeros, 10**scale)
        assert t.scale == 0 or t.units % 10 != 0

    @pytest.mark.parametrize("make,want", [
        (lambda: TerminatingDecimal(10**100_000, 100_000), ONE),
        (lambda: TerminatingDecimal(-3 * 10**100_000, 99_995),
         TerminatingDecimal(-300_000)),
        (lambda: parse_terminating("1." + "0" * 100_000), ONE),
    ], ids=["constructor", "constructor-past-scale", "parse"])
    def test_long_zero_runs_cut_quickly(self, make, want):
        # cut one division of the whole value per zero, quadratic in the
        # length of the run
        start = time.process_time()
        assert make() == want
        assert time.process_time() - start < 0.5


class TestParseAndRender:
    @pytest.mark.parametrize("text,units,scale", [
        ("0", 0, 0),
        ("2.5", 25, 1),
        ("-0.250", -25, 2),
        ("51.43", 5143, 2),
        ("-0", 0, 0),
        ("10", 10, 0),
    ])
    def test_parse(self, text, units, scale):
        t = parse_terminating(text)
        assert (t.units, t.scale) == (units, scale)

    @pytest.mark.parametrize("text", [
        "", "abc", "1.", ".5", "051.43", "--1", "1..2", "1.2.3", "+1",
        "1e3", " 1", "1 ", "007", "-", "0.(3)", "1.(0)",
    ])
    def test_rejects(self, text):
        with pytest.raises(MalformedLiteral):
            parse_terminating(text)

    @given(tds)
    def test_str_roundtrip(self, t):
        assert parse_terminating(str(t)) == t

    def test_render_golden(self):
        assert str(TerminatingDecimal(-25, 2)) == "-0.25"
        assert str(TerminatingDecimal(5143, 2)) == "51.43"
        assert str(TerminatingDecimal(7)) == "7"

    def test_render_past_int_str_cap(self):
        # 5000 digits exceed the interpreter's 4300-digit int<->str cap
        ones = (10**5000 - 1) // 9
        assert str(TerminatingDecimal(ones, 5000)) == "0." + "1" * 5000
        assert str(TerminatingDecimal(-10**5000)) == "-1" + "0" * 5000

    @given(st.integers(min_value=0, max_value=10**9000))
    def test_digits_from_int_roundtrip(self, v):
        text = digits_from_int(v)
        assert int_from_digits(text) == v
        assert text == "0" or text[0] != "0"
        if v < 10**4000:
            assert text == str(v)

    @staticmethod
    def chunked_digits(value: int) -> str:
        """Digits by stripping 1000-digit chunks off the low end with
        divmod: slow, but a different route from production's."""
        chunks = []
        while value >= 10**1000:
            value, low = divmod(value, 10**1000)
            chunks.append(str(low).rjust(1000, "0"))
        return str(value) + "".join(reversed(chunks))

    @pytest.mark.parametrize("bits", [4095, 4096, 4097, 13_287, 13_288,
                                      13_289, 14_284, 14_285, 16_383,
                                      16_384, 16_385, 32_768, 32_769,
                                      65_537])
    def test_digits_from_int_near_leaves_and_cap(self, bits):
        # 13 288 bits is about 4000 digits (the switch from str()) and
        # 14 285 about 4300 (the interpreter's cap); 4096 * 2**j bits
        # are the leaf widths
        for value in (2**bits - 1, 2**bits, 2**bits + 1,
                      random.Random(bits).getrandbits(bits)):
            assert digits_from_int(value) == self.chunked_digits(value)

    @given(st.integers(min_value=3990, max_value=4310),
           st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=40, deadline=None)
    def test_digits_from_int_roundtrip_near_cap(self, length, seed):
        text = "".join(random.Random(seed).choices("123456789", k=1)
                       + random.Random(seed).choices("0123456789",
                                                     k=length - 1))
        assert digits_from_int(int_from_digits(text)) == text

    def test_digits_from_int_time_bound(self):
        # stripping 4000-digit chunks took 2.0 s for 4*10**5 digits
        rng = random.Random(7)
        text = "9" + "".join(rng.choices("0123456789", k=400_000 - 1))
        value = int_from_digits(text)
        start = time.process_time()
        got = digits_from_int(value)
        assert time.process_time() - start < 0.5
        assert got == text

    @given(st.one_of(st.integers(min_value=0, max_value=20_000),
                     st.integers(min_value=15_000, max_value=20_000),
                     st.sampled_from([999, 1000, 1001, 1999, 2000, 2001,
                                      3999, 4000, 4001, 4300, 4301,
                                      8000, 8001, 16_001])),
           st.integers(min_value=0, max_value=60),
           st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=25, deadline=None)
    def test_int_from_digits_matches_horner(self, length, zeros, seed):
        # leading zeros, then seeded random digits; the oracle takes one
        # digit a step
        zeros = min(zeros, length)
        text = "0" * zeros + "".join(random.Random(seed).choices(
            "0123456789", k=length - zeros))
        want = 0
        for ch in text:
            want = want * 10 + (ord(ch) - ord("0"))
        assert int_from_digits(text) == want


def scan_by_pattern(text: str):
    """The parts of a literal read by a full match of the written
    grammar ``_LITERAL``, with the sign and the rules on leading zeros
    and a bare point, or None where that route rejects the text."""
    negative = text.startswith("-")
    m = _LITERAL.fullmatch(text, int(negative))
    if m is None:
        return None
    int_digits, frac, period = m.groups()
    if (int_digits.startswith("0") and int_digits != "0"
            or frac == "" and period is None):
        return None
    return negative, int_digits, frac or "", period


# 99 988 digits, one period of 1/99989, by long division
@cache
def long_group() -> str:
    r, digits = 1, []
    for _ in range(99988):
        r *= 10
        digits.append(str(r // 99989))
        r %= 99989
    return "".join(digits)


class TestScanLiteral:
    """The scanner splits at the punctuation and checks digit runs as
    bytes; the regex full match of the written grammar is its oracle.
    Besides the literal's own characters, the alphabet holds what
    ``int()`` accepts in a digit string: other scripts' digits, '_',
    white space and signs."""

    @given(st.text(alphabet="-0123456789.()\u0663\uff15\u00b2_ \n+e",
                   max_size=12))
    @example("\u0663")
    @example("1.\u00b2")
    @example("0.(\uff15)")
    @settings(max_examples=2000)
    def test_matches_written_grammar(self, text):
        want = scan_by_pattern(text)
        if want is None:
            with pytest.raises(MalformedLiteral) as info:
                scan_literal(text)
            assert str(info.value) == f"malformed real literal: {text!r}"
        else:
            assert scan_literal(text) == want

    @pytest.mark.parametrize("parse", [parse_real, parse_terminating])
    @pytest.mark.parametrize("spoil", [
        lambda g: f"0.({g[:-1]}\u0663)",  # ends in an Arabic-Indic three
        lambda g: f"0.({g[:50_000]}_{g[50_000:]})",
        lambda g: f"0.({g})\n",
        lambda g: f"-7.{g[:-1]}\u0663",
        lambda g: f"1{g}\n",
    ], ids=["group-foreign-digit", "group-underscore", "group-newline",
            "fraction-foreign-digit", "integer-newline"])
    def test_long_runs_with_foreign_characters(self, parse, spoil):
        text = spoil(long_group())
        with pytest.raises(MalformedLiteral) as info:
            parse(text)
        assert str(info.value) == f"malformed real literal: {text!r}"
        assert scan_by_pattern(text) is None

    def test_long_group_scans_like_the_pattern(self):
        text = "-3.25(" + long_group() + ")"
        assert scan_literal(text) == scan_by_pattern(text)


class TestStructure:
    def test_floor_golden(self):
        assert parse_terminating("2.12").floor() == 2
        assert parse_terminating("-0.25").floor() == -1
        assert parse_terminating("-3").floor() == -3

    @given(tds)
    def test_floor_is_fraction_floor(self, t):
        assert t.floor() == t.as_fraction().__floor__()

    def test_digit_golden(self):
        t = parse_terminating("51.43")
        assert [t.digit(i) for i in (1, 2, 3, 9)] == [4, 3, 0, 0]
        with pytest.raises(ValueError):
            t.digit(0)

    @given(tds, st.integers(min_value=1, max_value=20))
    def test_digit_matches_fraction(self, t, i):
        want = int(abs(t.as_fraction()) * 10**i) % 10
        assert t.digit(i) == want

    def test_sign(self):
        assert parse_terminating("-0.25").sign == -1
        assert ZERO.sign == 0 and ONE.sign == 1

    def test_pow10(self):
        assert pow10(3) == parse_terminating("1000")
        assert pow10(-3) == parse_terminating("0.001")
        assert pow10(0) == ONE

    def test_from_fraction(self):
        assert TerminatingDecimal.from_fraction(Fraction(1, 8)) == \
            parse_terminating("0.125")
        with pytest.raises(ValueError):
            TerminatingDecimal.from_fraction(Fraction(1, 3))

    @given(st.integers(min_value=-10**6, max_value=10**6),
           st.integers(min_value=0, max_value=40),
           st.integers(min_value=0, max_value=40))
    def test_from_fraction_matches_fraction(self, p, a, b):
        f = Fraction(p, 2**a * 5**b)
        assert TerminatingDecimal.from_fraction(f).as_fraction() == f

    @given(st.integers(min_value=1, max_value=10**6),
           st.integers(min_value=0, max_value=60),
           st.integers(min_value=0, max_value=60))
    def test_split_denominator(self, q, a, b):
        den = q * 2**a * 5**b
        assert split_denominator(den) == split_one_at_a_time(den)

    @given(st.integers(min_value=1, max_value=10**40),
           st.integers(min_value=0, max_value=3000),
           st.integers(min_value=0, max_value=3000))
    @settings(max_examples=100, deadline=None)
    def test_split_denominator_long_runs(self, q, a, b):
        # runs of factors 5 past every power 5**(2**j) that is tried
        den = q * 2**a * 5**b
        assert split_denominator(den) == split_one_at_a_time(den)


def split_one_at_a_time(den):
    """(q, k) of split_denominator, stripping the factors 2 and 5 one
    division at a time."""
    twos = fives = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    return den, max(twos, fives)


class TestArithmetic:
    @given(tds, tds)
    def test_add_matches_fraction(self, a, b):
        assert (a + b).as_fraction() == a.as_fraction() + b.as_fraction()

    @given(tds, tds)
    def test_mul_matches_fraction(self, a, b):
        assert (a * b).as_fraction() == a.as_fraction() * b.as_fraction()

    @given(tds)
    def test_neg_involution(self, a):
        assert -(-a) == a
        assert a + (-a) == ZERO

    @given(tds, tds)
    def test_compare_matches_fraction(self, a, b):
        fa, fb = a.as_fraction(), b.as_fraction()
        assert (a < b, a <= b, a > b, a >= b) == (fa < fb, fa <= fb,
                                                  fa > fb, fa >= fb)

    @given(tds, tds, tds)
    def test_ring_laws(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + ZERO == a
        assert a * ONE == a
