"""Canonical real numbers: parsing, ordering, betweenness, digit access.

Oracles: sequential long division and Fraction arithmetic from conftest,
and literals decoded one digit a step; expected digits and witnesses are
frozen from those routes."""

import contextlib
import random
import time
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (
    ORDER_STEPS,
    carmichael_order,
    computed,
    digit_walk,
    expected_period_structure,
    fraction_digit,
    fraction_prefix,
    long_division_digits,
    multiplicative_order,
    nine_tail_value,
    opaque,
    trial_factors,
)
from decreal.errors import (
    CanonicalViolation,
    DigitsUnstable,
    ExpansionTooLong,
    MalformedLiteral,
    NotLess,
    OrderUndecided,
    SignUndecided,
)
from decreal import realnum
from decreal.arithmetic import add, mul, neg, sqrt
from decreal.realnum import (
    MAX_EXPANSION_DIGITS,
    Classification,
    ComputedReal,
    DigitPrefix,
    OracleReal,
    PeriodicReal,
    TerminatingReal,
    between,
    canonicalize_trailing_nines,
    classify,
    compare,
    digit_at,
    integral_part,
    parse_real,
    real_from_fraction,
    render_digits,
    with_nine_run_check,
)
from decreal.terminating import (
    Comparison,
    TerminatingDecimal,
    int_from_digits,
    scan_literal,
)

fractions_st = st.fractions(min_value=-10**4, max_value=10**4,
                            max_denominator=10**4)


def P(text):
    return parse_real(text)


@contextlib.contextmanager
def no_fractions():
    """Fail on any order question between Fractions, and on any Fraction
    asked of a terminating decimal."""
    with mock.patch.object(TerminatingDecimal, "as_fraction",
                           side_effect=AssertionError), \
            mock.patch.object(Fraction, "_richcmp",
                              side_effect=AssertionError):
        yield


@st.composite
def terminating_pairs(draw):
    """Two terminating decimals as (units, scale) pairs: independent, or
    the second within a few units of the first rewritten at another
    scale, so that equal values with different scales, neighbours, zero
    and both signs all come up."""
    u = draw(st.integers(min_value=-10**12, max_value=10**12))
    s = draw(st.integers(min_value=0, max_value=12))
    t = draw(st.integers(min_value=0, max_value=12))
    if draw(st.booleans()):
        v = draw(st.integers(min_value=-10**12, max_value=10**12))
    else:
        v = (u * 10**t // 10**s
             + draw(st.integers(min_value=-2, max_value=2)))
    return (u, s), (v, t)


class TestParse:
    def test_periodic_value(self):
        # independent route: 2.1(90) = 2 + (190 - 1)/990 = 241/110
        assert P("2.1(90)").as_fraction() == Fraction(241, 110)

    def test_terminating_value(self):
        x = P("-51.43")
        assert isinstance(x, TerminatingReal)
        assert x.as_fraction() == Fraction(-5143, 100)

    def test_all_nines_period_rejected(self):
        with pytest.raises(MalformedLiteral):
            P("1.(9)")
        with pytest.raises(MalformedLiteral):
            P("0.2(99)")

    def test_all_zero_period_is_terminating(self):
        x = P("1.25(0)")
        assert isinstance(x, TerminatingReal)
        assert str(x) == "1.25"

    @pytest.mark.parametrize("text", ["1.", "1.2(", "1.2()", "(3)", "1.2)3",
                                      "--1", "", "nan", "0x1"])
    def test_rejects(self, text):
        with pytest.raises(MalformedLiteral):
            P(text)

    def test_non_minimal_period_normalised(self):
        assert str(P("0.(33)")) == "0.(3)"
        assert str(P("0.(142857142857)")) == "0.(142857)"

    @given(fractions_st)
    @settings(max_examples=200)
    def test_exact_literal_roundtrip(self, f):
        x = real_from_fraction(f)
        assert P(str(x)).as_fraction() == f

    @given(st.booleans(),
           st.from_regex(r"0|[1-9][0-9]{0,8}", fullmatch=True),
           st.text("0123456789", max_size=8), st.integers(0, 3),
           st.none() | st.text("0", min_size=1, max_size=3)
           | st.text("0123456789", min_size=1, max_size=6))
    @settings(max_examples=300)
    def test_matches_digit_by_digit_value(self, negative, int_digits,
                                          frac, zeros, period):
        frac += "0" * zeros
        if period is not None and set(period) == {"9"}:
            period = period[:-1] + "8"
        if not frac and period is None:
            text = int_digits
        else:
            text = int_digits + "." + frac + (
                "" if period is None else f"({period})")
        text = ("-" if negative else "") + text
        # independent route: each digit times its place value, and the
        # group as a geometric series of ratio 10**-len(period)
        value = Fraction(0)
        for d in int_digits:
            value = value * 10 + int(d)
        for i, d in enumerate(frac, 1):
            value += Fraction(int(d), 10 ** i)
        if period is not None:
            series = 1 / (1 - Fraction(1, 10 ** len(period)))
            for i, d in enumerate(period, len(frac) + 1):
                value += Fraction(int(d), 10 ** i) * series
        x = P(text)
        assert x.as_fraction() == (-value if negative else value)
        terminating = period is None or set(period) == {"0"}
        assert isinstance(x, TerminatingReal) == terminating
        assert isinstance(x, PeriodicReal) != terminating


class TestPeriodOracle:
    """The oracle's order of 10 modulo q from the factorised Carmichael
    lambda is the stepping definition's, and the oracle ends on a prime
    whose order stepping would take up to 10**9 steps to reach."""

    def test_matches_stepping_below_2000(self):
        # an order below ORDER_STEPS is found by stepping
        for n in range(3, 2000):
            if n % 2 and n % 5:
                assert carmichael_order(10, n) == multiplicative_order(10, n)

    def test_large_prime_ends_within_a_second(self):
        q = 999_999_937
        start = time.process_time()
        order = multiplicative_order(10, q)
        elapsed = time.process_time() - start
        assert elapsed < 1, f"took {elapsed:.3f} s of CPU time"
        assert order > ORDER_STEPS  # so it was not found by stepping
        assert (q - 1) % order == 0 and pow(10, order, q) == 1
        assert all(pow(10, order // p, q) != 1 for p in trial_factors(order))


class TestPeriodicStructure:
    def test_minimal_period_known_values(self):
        x = P("0.(142857)")
        assert (x.preperiod, x.period) == ("", "142857")
        y = real_from_fraction(Fraction(1, 6))
        assert (y.preperiod, y.period) == ("1", "6")

    @pytest.mark.parametrize("q", [1, 3, 7, 99989, 2**61 - 1])
    def test_kind_follows_the_denominator(self, q):
        # -1 / (2^a * 5^b * q) terminates exactly when q == 1, with
        # either prime alone or both up to the power 69
        for a in range(0, 70, 3):
            for b in range(0, 70, 3):
                x = real_from_fraction(Fraction(-1, 2**a * 5**b * q))
                assert isinstance(x, TerminatingReal) == (q == 1)
                assert isinstance(x, PeriodicReal) != (q == 1)

    @pytest.mark.parametrize("den, terminating", [
        (2**7 * 5**10**4, True), (10**10**5 + 1, False)],
        ids=["2^7*5^10^4", "10^10^5+1"])
    def test_kind_follows_long_denominators(self, den, terminating):
        # the rule of test_kind_follows_the_denominator for denominators
        # of thousands of digits, one a power of 5 times a power of 2
        for a in range(0, 70, 23):
            for b in range(0, 70, 23):
                x = real_from_fraction(Fraction(-1, 2**a * 5**b * den))
                assert isinstance(x, TerminatingReal) == terminating
                assert isinstance(x, PeriodicReal) != terminating

    def test_long_denominator_is_told_in_linear_time(self):
        # pow(10, den.bit_length(), den), the test this one replaced,
        # took 2.9 s of CPU on a shared 2-core x86-64 machine
        f = Fraction(1, 10**300000 + 1)
        start = time.process_time()
        x = real_from_fraction(f)
        assert time.process_time() - start < 0.05
        assert isinstance(x, PeriodicReal)

    def test_odd_multiple_of_five_is_told_in_linear_time(self):
        # 5 divides the odd part, which is no power of 5: its low 64 bits
        # turn it away before any power is raised, where raising 5^b
        # took 0.74 s of CPU at 10^6 digits on a shared 2-core x86-64
        # machine
        f = Fraction(1, 5 * (10**300000 + 1))
        start = time.process_time()
        x = real_from_fraction(f)
        assert time.process_time() - start < 0.05
        assert isinstance(x, PeriodicReal)

    def test_long_power_of_five_is_scaled_by_multiplies(self):
        # 1 / (2^7 * 5^400000) is 2^399993 / 10^400000; the scale by
        # split_denominator and 10**k // den took 2.2 s of CPU on a
        # shared 2-core x86-64 machine
        f = Fraction(1, 2**7 * 5**400000)
        start = time.process_time()
        x = real_from_fraction(f)
        assert time.process_time() - start < 0.5
        assert isinstance(x, TerminatingReal)
        assert (x.value.units, x.value.scale) == (2**399993, 400000)

    def test_denominator_is_split_when_the_expansion_is_made(
            self, monkeypatch):
        # building a periodic value tells that it does not terminate
        # without splitting its denominator; its expansion splits it once
        calls = []
        split = realnum.split_denominator
        monkeypatch.setattr(realnum, "split_denominator",
                            lambda den: calls.append(den) or split(den))
        for make in (lambda: P("0.1(6)"),
                     lambda: real_from_fraction(Fraction(1, 3))):
            calls.clear()
            x = make()
            assert calls == []
            str(x)
            assert len(calls) == 1

    def test_terminating_value_is_tested_once(self, monkeypatch):
        # the exponents that tell a terminating value also scale it, so
        # 5^b is raised once, not again inside from_fraction
        calls = []
        test = realnum.two_five_exponents

        def counting(den):
            calls.append(den)
            return test(den)

        monkeypatch.setattr(realnum, "two_five_exponents", counting)
        monkeypatch.setattr("decreal.terminating.two_five_exponents", counting)
        for f in (Fraction(7, 40), Fraction(-3, 2**7 * 5**400),
                  Fraction(1, 5**9), Fraction(5), Fraction(0)):
            calls.clear()
            x = real_from_fraction(f)
            assert isinstance(x, TerminatingReal) and x.as_fraction() == f
            assert calls == [f.denominator]

    @given(st.integers(min_value=2, max_value=1000),
           st.integers(min_value=1, max_value=1000))
    @settings(max_examples=150)
    def test_period_structure_matches_number_theory(self, q, p):
        f = Fraction(p, q)
        x = real_from_fraction(f)
        if not isinstance(x, PeriodicReal):
            return  # terminating after reduction
        pre_len, per_len = expected_period_structure(f.denominator)
        assert (len(x.preperiod), len(x.period)) == (pre_len, per_len)

    @given(st.integers(min_value=1, max_value=999),
           st.integers(min_value=2, max_value=999),
           st.integers(min_value=1, max_value=60))
    @settings(max_examples=150)
    def test_digit_at_matches_long_division(self, p, q, i):
        x = real_from_fraction(Fraction(p, q))
        want = int(long_division_digits(p % q, q, i)[-1])
        assert x.digit_at(i) == want

    @staticmethod
    def _check_structure(f):
        x = real_from_fraction(f)
        if not isinstance(x, PeriodicReal):
            return  # terminating after reduction
        pre, per = expected_period_structure(f.denominator)
        mag = abs(f)
        digits = long_division_digits(mag.numerator, mag.denominator,
                                      pre + per)
        assert (x.preperiod, x.period) == (digits[:pre], digits[pre:])

    @given(st.one_of(st.integers(min_value=3, max_value=10**6),
                     st.integers(min_value=9 * 10**5, max_value=10**6)
                     ).filter(lambda q: q % 2 and q % 5),
           st.integers(min_value=0, max_value=8),
           st.integers(min_value=0, max_value=8),
           st.integers(min_value=1, max_value=10**9),
           st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_structure_matches_long_division(self, q, a, b, p, negative):
        self._check_structure(Fraction(-p if negative else p,
                                       q * 2**a * 5**b))

    # the period search finds a period L once L + w digits are read,
    # where 10**w exceeds the denominator.  For each of the first 30,
    # L + w is one digit before, on or one digit past the end of a block
    # when the blocks are w + 8 digits wide and double up to 500.  The
    # last 7 are full-reptend primes, L = q - 1, whose L + w lies a few
    # digits before or past the end of the blocks of 1000, 2000, 4000
    # and 8000 digits made now: the search stops at q - 1 + w digits, so
    # that bound cuts their last block
    BLOCK_EDGE_DENOMINATORS = (
        239, 73, 81, 717, 657, 2997, 2791, 641, 603, 951, 697, 729, 1173,
        3187, 3671, 799, 6723, 4507, 4519, 8341, 13151, 2753, 5507, 16879,
        13139, 28151, 8627, 10073, 10627, 10631,
        983, 1019, 2971, 3011, 6983, 7019, 15017)

    @pytest.mark.parametrize("q", BLOCK_EDGE_DENOMINATORS)
    def test_structure_at_block_edges(self, q):
        for p in (1, q - 1, -2 * q - 1):
            self._check_structure(Fraction(p, q))
        self._check_structure(Fraction(7, 40 * q))

    # the same when the blocks double from w + 8 digits with no cap, as
    # they did before the first block was ``_LEAF`` digits: L + w is
    # w + 8 times 2**j - 1, give or take one, for j from 5 to 11, so the
    # last blocks were 400 to 28 000 digits wide
    DOUBLING_EDGE_DENOMINATORS = (
        4507, 4519, 60199, 78849, 3247, 89587, 95769, 6511, 101549, 19867,
        59743, 26557, 85893, 53821, 114649)

    @pytest.mark.parametrize("q", DOUBLING_EDGE_DENOMINATORS)
    def test_structure_at_doubling_edges(self, q):
        self._check_structure(Fraction(q - 1, q))
        self._check_structure(Fraction(-7, 40 * q))

    def test_structure_with_denominator_past_int_str_cap(self):
        # 10**w > q needs w > 4000 digits here, more than one block
        q = 10**4321 - 1
        x = real_from_fraction(Fraction(2, q))
        assert (x.preperiod, x.period) == ("", "0" * 4320 + "2")
        y = real_from_fraction(Fraction(10**4320 + 3, 10 * q))
        assert y.preperiod == "0"
        assert y.period == long_division_digits(10**4320 + 3, q, 4321)

    def test_long_period_literal_roundtrip(self):
        f = Fraction(3, 8 * 100_019)  # 10 has order 100 018 mod 100 019
        x = real_from_fraction(f)
        start = time.process_time()
        assert P(str(x)) == x
        assert time.process_time() - start < 0.5
        assert (len(x.preperiod), len(x.period)) == \
            expected_period_structure(f.denominator)


def horner(digits: str) -> int:
    """A digit string's value, one digit a step."""
    value = 0
    for ch in digits:
        value = value * 10 + (ord(ch) - ord("0"))
    return value


def literal_value(negative, int_digits, frac, period) -> tuple[int, int]:
    """(numerator, denominator) of -?I.F(P), not in lowest terms:
    (IF * (10^p - 1) + P) / (10^k * (10^p - 1)), k = len(F), p = len(P)."""
    nines = 10 ** len(period) - 1
    num = horner(int_digits + frac) * nines + horner(period)
    return -num if negative else num, 10 ** len(frac) * nines


def equals(x, value: tuple[int, int]) -> bool:
    f = x.as_fraction()
    return f.numerator * value[1] == value[0] * f.denominator


class TestLongGroupParse:
    """Literals with groups past 1000 digits, whose value parse_real
    guesses from their first digits and checks digit for digit."""

    # 10 has order q - 1 modulo the first six, (q - 1) / 2, / 3 or / 4
    # modulo the others: every group is 1018 to 29 988 digits long
    PRIMES = (1019, 2017, 5021, 5087, 19979, 29989, 10009, 15121, 20011,
              29917)

    @staticmethod
    def expansion(q, i, j, a):
        """(F, P, f): the minimal preperiod and period of f = a / (2^i *
        5^j * q) reduced, 0 < f < 1, by long division."""
        b = 2**i * 5**j * q
        f = Fraction(a % (b - 1) + 1, b)
        assume(f.denominator % q == 0)
        pre, per = expected_period_structure(f.denominator)
        digits = long_division_digits(f.numerator, f.denominator, pre + per)
        return digits[:pre], digits[pre:], f

    literal_st = st.tuples(st.sampled_from(PRIMES), st.integers(0, 3),
                           st.integers(0, 3), st.integers(1, 10**12),
                           st.integers(0, 10**6), st.booleans())

    @given(literal_st, st.sampled_from(["minimal", "twice", "rotated"]))
    @settings(max_examples=30, deadline=None)
    def test_value_and_minimal_form(self, drawn, form):
        q, i, j, a, ip, negative = drawn
        frac, period, f = self.expansion(q, i, j, a)
        sign = "-" if negative else ""
        minimal = f"{sign}{ip}.{frac}({period})"
        if form == "twice":
            period += period
        elif form == "rotated":
            frac, period = frac + period[0], period[1:] + period[0]
        x = P(f"{sign}{ip}.{frac}({period})")
        assert x.as_fraction() == (-1 if negative else 1) * (ip + f)
        assert str(x) == minimal

    # each near miss agrees with the literal of f on its first 64 digits,
    # so f is the guess, and only the named check turns it away
    @pytest.mark.parametrize("check", ["digit", "period", "preperiod"])
    @given(drawn=literal_st)
    @settings(max_examples=10, deadline=None)
    def test_near_misses(self, drawn, check):
        q, i, j, a, ip, negative = drawn
        frac, period, _ = self.expansion(q, i, j, a)
        if check == "digit":
            # differs from f at digit k + p, the last one the check reads
            period = period[:-1] + str((int(period[-1]) + 1) % 10)
        elif check == "period":
            # agrees with f on all k + p - 1 digits the check reads, but
            # 10**(p - 1) is not 1 mod q
            period = period[:-1]
        else:
            # agrees with f on all k - 1 + p digits the check reads, and
            # 10**p is 1 mod q, but f's preperiod is k digits long
            assume(frac)
            frac, period = frac[:-1], frac[-1] + period[:-1]
        x = P(f"{'-' if negative else ''}{ip}.{frac}({period})")
        assert equals(x, literal_value(negative, str(ip), frac, period))

    def test_random_group_is_decoded(self, rng):
        for _ in range(3):
            frac = "".join(rng.choices("0123456789", k=rng.randint(0, 5)))
            period = "".join(rng.choices("0123456789", k=10_000))
            x = P(f"-7.{frac}({period})")
            assert equals(x, literal_value(True, "7", frac, period))

    @pytest.mark.parametrize("q", [1019, 2017, 99_989])
    def test_full_reptend_group_is_not_decoded(self, monkeypatch, q):
        # 1/q has a period of q - 1 digits, 1018 to 99 988 here; only the
        # integer part goes through the digit decoder
        period = long_division_digits(1, q, q - 1)
        lengths = []

        def counting(digits):
            lengths.append(len(digits))
            return int_from_digits(digits)

        monkeypatch.setattr(realnum, "int_from_digits", counting)
        x = P(f"0.({period})")
        assert x.as_fraction() == Fraction(1, q)
        assert max(lengths, default=0) <= 1


class TestExpansionCap:
    # 10 has order q - 1 modulo the prime q = 999 983, so 1/q repeats with
    # a period of 999 982 digits, and 2**18 adds a preperiod of 18
    CAP_PRIME = 999_983

    def test_period_near_the_cap_round_trips(self):
        q = self.CAP_PRIME
        x = real_from_fraction(Fraction(1, q))
        text = str(x)
        assert text == "0.(" + long_division_digits(1, q, q - 1) + ")"
        assert P(text) == x

    def test_expansion_of_exactly_the_cap_renders(self):
        f = Fraction(1, self.CAP_PRIME * 2**18)
        x = real_from_fraction(f)
        assert MAX_EXPANSION_DIGITS == 10**6
        assert (len(x.preperiod), len(x.period)) == \
            expected_period_structure(f.denominator) == (18, 999_982)
        assert str(x) == f"0.{x.preperiod}({x.period})"
        assert x.preperiod + x.period[:40] == \
            long_division_digits(1, f.denominator, 58)

    def test_one_digit_past_the_cap_raises(self):
        x = real_from_fraction(Fraction(1, self.CAP_PRIME * 2**19))
        with pytest.raises(ExpansionTooLong) as info:
            str(x)
        assert info.value.limit == MAX_EXPANSION_DIGITS

    def test_long_period_raises_quickly(self):
        x = real_from_fraction(Fraction(1, 99_999_989))
        start = time.process_time()
        with pytest.raises(ExpansionTooLong) as info:
            str(x)
        assert time.process_time() - start < 2
        assert info.value.limit == MAX_EXPANSION_DIGITS
        # digits and prefixes stay available
        assert x.digit_at(1) == 0 and x.digit_at(8) == 1
        assert x.prefix(16).render() == fraction_prefix(x.fraction, 16)

    @pytest.mark.parametrize("f,cap,renders", [
        (Fraction(1, 7), 6, True),                # period 6
        (Fraction(1, 7), 5, False),
        (Fraction(1, 603), 33, True),             # period 33, seen at 37
        (Fraction(1, 603), 32, False),
        (Fraction(-1, 12), 3, True),              # 0.08(3)
        (Fraction(-1, 12), 2, False),
        (Fraction(1, 3 * 2**10), 11, True),       # preperiod 10
        (Fraction(1, 3 * 2**10), 10, False),
        (Fraction(1, 3 * 2**10), 9, False),       # preperiod alone too long
    ])
    def test_cap_counts_preperiod_and_period(self, monkeypatch, f, cap,
                                             renders):
        monkeypatch.setattr(realnum, "MAX_EXPANSION_DIGITS", cap)
        x = real_from_fraction(f)
        if renders:
            assert P(str(x)).as_fraction() == f
        else:
            with pytest.raises(ExpansionTooLong) as info:
                str(x)
            assert info.value.limit == cap


class TestDigitAccess:
    def test_golden_examples(self):
        x = P("0.1(6)")
        assert digit_at(x, 1) == 1 and digit_at(x, 5) == 6
        assert digit_at(P("2.12"), 7) == 0
        assert digit_at(P("0.(142857)"), 8) == 4

    @given(fractions_st, st.integers(min_value=1, max_value=40))
    @settings(max_examples=200)
    def test_digit_matches_fraction_oracle(self, f, i):
        assert digit_at(real_from_fraction(f), i) == fraction_digit(f, i)

    def test_render_digits(self):
        assert render_digits(P("0.1(6)"), 5) == "0.16666"
        assert render_digits(P("-1.(45)"), 6) == "-1.454545"
        assert render_digits(P("2.5"), 4) == "2.5"


class TestCompare:
    def test_stream_below_two(self):
        nine_then_eights = OracleReal(
            digit_fn=lambda i: 9 if i <= 4 else 8, negative=False,
            int_part=1)
        assert compare(nine_then_eights, P("2"), 3) is Comparison.LT

    def test_periodic_reflexivity_any_budget(self):
        x = P("0.(3)")
        assert compare(x, x, 1) is Comparison.EQ

    def test_matching_streams_undecided(self):
        threes = OracleReal(digit_fn=lambda i: 3, negative=False, int_part=0)
        assert compare(P("0.(3)"), threes, 10) is Comparison.UNDECIDED

    def test_exact_pairs_never_undecided(self):
        assert compare(P("0.(3)"), P("0.333"), 1) is Comparison.GT
        assert compare(P("0.(3)"), real_from_fraction(Fraction(1, 3)),
                       1) is Comparison.EQ

    @given(fractions_st, fractions_st)
    @settings(max_examples=300)
    def test_matches_fraction_order(self, f, g):
        want = {-1: Comparison.LT, 0: Comparison.EQ, 1: Comparison.GT}[
            (f > g) - (f < g)]
        assert compare(real_from_fraction(f), real_from_fraction(g)) is want

    @given(terminating_pairs(), st.integers(min_value=0, max_value=20))
    @example(((5, 1), (50, 2)), 0)
    @example(((0, 3), (0, 0)), 0)
    @example(((-1, 1), (1, 1)), 0)
    @example(((-10**12, 12), (-1, 0)), 1)
    @settings(max_examples=300)
    def test_terminating_pairs_match_fraction_order(self, pair, budget):
        # on integer units: no Fraction of a terminating value is asked for
        (u, s), (v, t) = pair
        f, g = Fraction(u, 10**s), Fraction(v, 10**t)
        want = {-1: Comparison.LT, 0: Comparison.EQ, 1: Comparison.GT}
        x = TerminatingReal(TerminatingDecimal(u, s))
        y = TerminatingReal(TerminatingDecimal(v, t))
        forward, backward = want[(f > g) - (f < g)], want[(g > f) - (g < f)]
        with no_fractions():
            assert compare(x, y, budget) is forward
            assert compare(y, x, budget) is backward

    @given(fractions_st, fractions_st, st.integers(min_value=0, max_value=20))
    @example(Fraction(1, 3), Fraction(1, 3), 0)
    @example(Fraction(1, 4), Fraction(1, 3), 0)
    @example(Fraction(-2, 7), Fraction(-2, 7) + Fraction(1, 10**12), 1)
    @example(Fraction(5, 3), Fraction(-5, 3), 0)
    @settings(max_examples=300)
    def test_periodic_and_mixed_pairs_match_fraction_order(self, f, g,
                                                           budget):
        # cross products of integer ratios: no Fraction is ordered, and
        # none is asked of a terminating value
        want = {-1: Comparison.LT, 0: Comparison.EQ, 1: Comparison.GT}
        x, y = real_from_fraction(f), real_from_fraction(g)
        forward, backward = want[(f > g) - (f < g)], want[(g > f) - (g < f)]
        with no_fractions():
            assert compare(x, y, budget) is forward
            assert compare(y, x, budget) is backward

    @given(fractions_st, fractions_st,
           st.integers(min_value=1, max_value=50))
    @settings(max_examples=100)
    def test_budget_monotone(self, f, g, budget):
        x, y = opaque(f), opaque(g)
        small = compare(x, y, budget)
        if small is not Comparison.UNDECIDED:
            assert compare(x, y, budget + 37) is small

    def test_opaque_streams_decided_on_divergence(self):
        assert compare(opaque(Fraction(1, 3)), opaque(Fraction(1, 7)),
                       10) is Comparison.GT

    def test_degenerate_computed_equality(self):
        def pinned(value):
            return computed(lambda m: (value, value), "pinned")
        a, b = pinned(Fraction(5, 4)), pinned(Fraction(5, 4))
        assert compare(a, b, 20) is Comparison.EQ
        assert compare(pinned(Fraction(5, 4)), pinned(Fraction(4, 5)),
                       20) is Comparison.GT

    def test_sign_flag_needs_nonzero_evidence(self):
        # opposite sign flags alone cannot separate streams that may both
        # denote zero; a nonzero digit within budget settles the order
        neg_zeros = OracleReal(digit_fn=lambda i: 0, negative=True,
                               int_part=0)
        tiny = OracleReal(digit_fn=lambda i: 1 if i == 4 else 0,
                          negative=False, int_part=0)
        assert compare(neg_zeros, tiny, 2) is Comparison.UNDECIDED
        assert compare(neg_zeros, tiny, 10) is Comparison.LT


class TestWalkSigns:
    """The digit walk's sign rule, checked against Fractions.

    ``digit_walk`` swaps in the reference's views and digit scan but
    keeps ``realnum._walk``, so it cannot catch a wrong sign rule.  Here
    the walk's verdict is the Fractions' order once the budget reaches
    the position that decides it, and UNDECIDED one digit short of it.
    That position comes from long division: for opposite sign flags, the
    first budget at which either value is seen to be nonzero; for equal
    ones, the first place where the magnitudes differ."""

    @staticmethod
    def operand(rng, f):
        """(real, value, sign flag, budget from which it is seen to be
        nonzero or None) for f: an exact value, a digit stream, or for
        zero also a negative stream of zeros."""
        kind = rng.choice(("exact", "stream", "stream"))
        if f == 0 and rng.random() < 0.4:
            return OracleReal(lambda i: 0, negative=True), f, -1, None
        if kind == "exact":
            flag = (f > 0) - (f < 0)
            return real_from_fraction(f), f, flag, 0 if f else None
        mag = abs(f)
        seen = next((i for i in range(200) if int(mag * 10**i)), None)
        return opaque(f), f, -1 if f < 0 else 1, seen

    @staticmethod
    def deciding_position(x, y):
        (_, f, fx, sx), (_, g, fy, sy) = x, y
        if fx != fy:
            seen = [s for s in (sx, sy) if s is not None]
            return min(seen) if seen else None
        if int(abs(f)) != int(abs(g)):
            return 0
        return next((i for i in range(1, 200)
                     if fraction_digit(f, i) != fraction_digit(g, i)), None)

    @pytest.mark.parametrize("seed", range(4))
    def test_verdicts_follow_fractions(self, seed):
        rng = random.Random(seed)
        flips = {Comparison.LT: Comparison.GT, Comparison.GT: Comparison.LT,
                 Comparison.EQ: Comparison.EQ,
                 Comparison.UNDECIDED: Comparison.UNDECIDED}
        for _ in range(300):
            f = Fraction(rng.randint(-3000, 3000), rng.randint(1, 999))
            g = rng.choice((
                Fraction(rng.randint(-3000, 3000), rng.randint(1, 999)),
                f + Fraction(rng.randint(-9, 9), 10 ** rng.randint(1, 25)),
                -f, f, Fraction(0)))
            x, y = self.operand(rng, f), self.operand(rng, g)
            if x[2] == y[2] == 0:
                checks = [(0, Comparison.EQ)]
            else:
                at = self.deciding_position(x, y)
                order = Comparison.LT if f < g else Comparison.GT
                checks = ([(60, Comparison.UNDECIDED)] if at is None else
                          [(at, order), (at + 9, order)])
                if at:
                    checks.append((at - 1, Comparison.UNDECIDED))
            for budget, want in checks:
                assert realnum._digit_compare(x[0], y[0], budget) is want, (
                    f, g, budget)
                assert realnum._digit_compare(y[0], x[0], budget) is (
                    flips[want]), (g, f, budget)

    def test_opposite_signs_refuse_at_the_negative_stream(self):
        # neither stream of zeros shows a nonzero digit before it refuses;
        # the negative one is scanned first, in either argument order
        def zeros(negative, refused_from):
            def digit(i):
                if i >= refused_from:
                    raise RuntimeError(f"negative={negative} refused {i}")
                return 0
            return OracleReal(digit, negative=negative)

        for swap in (False, True):
            pair = zeros(False, 3), zeros(True, 5)
            with pytest.raises(RuntimeError, match="negative=True refused 5"):
                compare(*(reversed(pair) if swap else pair), 10)


class TestClassify:
    def test_goldens(self):
        assert classify(P("0")) is Classification.ZERO
        assert classify(P("-0.0001")) is Classification.NEGATIVE
        assert classify(P("0.(3)")) is Classification.POSITIVE

    def test_oracle_budget_exhaustion(self):
        zeros = OracleReal(digit_fn=lambda i: 0, negative=False, int_part=0)
        with pytest.raises(SignUndecided):
            classify(zeros, 8)

    def test_oracle_late_digit(self):
        late = OracleReal(digit_fn=lambda i: 1 if i == 40 else 0,
                          negative=True, int_part=0)
        assert classify(late, 100) is Classification.NEGATIVE

    def test_exact_value_read_by_sign_alone(self, monkeypatch):
        # the integer part of a 10**5-digit literal costs a power of ten
        # and a division of that size; the sign settles classify without it
        def unread(self):
            raise AssertionError("classify computed int_part")
        monkeypatch.setattr(TerminatingReal, "int_part", property(unread))
        monkeypatch.setattr(PeriodicReal, "int_part", property(unread))
        digits = "37" * (10**5 // 2)
        assert classify(P("-" + digits[:10] + "." + digits)) is (
            Classification.NEGATIVE)
        assert classify(P(digits[:10] + "." + digits)) is (
            Classification.POSITIVE)
        assert classify(P("-12.(3)")) is Classification.NEGATIVE
        assert classify(P("0")) is Classification.ZERO


class TestIntegralPart:
    def test_golden_examples(self):
        stream = OracleReal(
            digit_fn=lambda i: int("12011"[i - 1]) if i <= 5 else 1,
            negative=False, int_part=2)
        assert integral_part(stream) == 2
        assert integral_part(P("-0.19")) == -1
        assert integral_part(P("-3")) == -3

    @given(fractions_st)
    @settings(max_examples=300)
    def test_floor_law(self, f):
        n = integral_part(real_from_fraction(f))
        assert n <= f < n + 1

    def test_computed_integer_is_refused(self):
        # sqrt(2) * sqrt(2) is 2, and every enclosure of it straddles 2,
        # so its floor never pins
        with pytest.raises(DigitsUnstable) as info:
            mul(sqrt(P("2")), sqrt(P("2"))).integral_part()
        assert (info.value.digits, info.value.budget) == (0, 64)


class TestExpansionValue:
    """The one decoder of expansions, which parse_real, sup and the
    trailing-nines repair share."""

    @given(fractions_st)
    @settings(max_examples=200)
    @example(Fraction(1, 10007))  # a group past 1000 digits
    @example(Fraction(-3, 10007))
    def test_agrees_with_parse_real(self, f):
        literal = str(real_from_fraction(f))
        assert realnum._expansion_value(*scan_literal(literal)) \
            == parse_real(literal)

    @pytest.mark.parametrize("literal,want", [
        ("0.12(9)", Fraction(13, 100)),
        ("-0.(99)", Fraction(-1)),
        ("7.(9)", Fraction(8)),
        pytest.param("0.3(" + "9" * 5000 + ")", Fraction(4, 10),
                     id="5000-nines"),
    ])
    def test_all_nines_group_is_the_terminating_neighbour(self, literal,
                                                          want):
        x = realnum._expansion_value(*scan_literal(literal))
        assert isinstance(x, TerminatingReal) and x.as_fraction() == want


class TestCanonicalizeTrailingNines:
    def test_golden_examples(self):
        all_nines = DigitPrefix(False, 0, "999")
        assert canonicalize_trailing_nines(all_nines, 1) == \
            TerminatingDecimal(1)
        prefix = DigitPrefix(False, 2, "41999")
        assert str(canonicalize_trailing_nines(prefix, 3)) == "2.42"

    @given(st.integers(min_value=0, max_value=50),
           st.text(alphabet="012345678", min_size=0, max_size=8),
           st.integers(min_value=1, max_value=6))
    @settings(max_examples=200)
    def test_geometric_series_oracle(self, ip, head, extra_nines):
        # expansion: ip . head 999...  with the nine run starting right
        # after the head (the digit before the onset is < 9 by alphabet)
        onset = len(head) + 1
        prefix = DigitPrefix(False, ip, head + "9" * extra_nines)
        head_value = Fraction(int(str(ip) + head) if head else ip,
                              10 ** len(head))
        want = nine_tail_value(head_value, onset)
        got = canonicalize_trailing_nines(prefix, onset)
        assert got.as_fraction() == want

    def test_negative_prefix(self):
        # -0.0999... = -0.1
        prefix = DigitPrefix(True, 0, "0999")
        assert str(canonicalize_trailing_nines(prefix, 2)) == "-0.1"


class TestBetween:
    @pytest.mark.parametrize("a,b,want", [
        ("1.99998(8)", "2", "1.99999"),
        ("0.88(7)", "5.1(1)", "0.9"),
        ("0.120999(8)", "0.121", "0.1209999"),
        ("-1.5", "2.5", "0"),
    ])
    def test_goldens(self, a, b, want):
        assert str(between(P(a), P(b))) == want

    def test_zero_lower_endpoint(self):
        # a = 0 < b: witness built from b's first nonzero digit
        w = between(P("0"), P("0.00(3)"))
        assert Fraction(0) < w.as_fraction() < Fraction(1, 300)

    @pytest.mark.parametrize("zero_below", [True, False])
    def test_computed_zero_endpoint(self, zero_below):
        # classify finds a computed point at zero ZERO, as it finds an
        # exact zero, and the witness comes from the other endpoint's
        # digits in the same way
        zero = ComputedReal(lambda p: (0, 0, p), "zero")
        if zero_below:
            assert compare(zero, P("1")) is Comparison.LT
            assert str(between(zero, P("1"))) == "0.1"
        else:
            assert compare(P("-1"), zero) is Comparison.LT
            assert str(between(P("-1"), zero)) == "-0.1"

    def test_unsettled_zero_at_either_end(self):
        # sqrt(2) - sqrt(2) never gets a sign, so each call finds its
        # witness from the other endpoint, each the mirror image of the other
        def zero():
            r = sqrt(P("2"))
            return add(r, neg(r))
        assert str(between(P("-1"), zero(), 50)) == "-0.1"
        assert str(between(zero(), P("1"), 50)) == "0.1"

    def test_not_less(self):
        with pytest.raises(NotLess):
            between(P("2"), P("2"))
        with pytest.raises(NotLess):
            between(P("3"), P("2"))

    def test_order_undecided(self):
        x, y = opaque(Fraction(1, 3)), opaque(Fraction(1, 3))
        with pytest.raises(OrderUndecided):
            between(x, y, 10)

    def test_unstable_upper_endpoint_is_undecided(self):
        # the lower end is a computed zero whose sign never settles, and
        # the upper one sits on 10**-9, so its ninth digit cannot be
        # pinned while the witness looks for its first nonzero digit
        r = sqrt(P("2"))
        with pytest.raises(OrderUndecided):
            between(add(r, neg(r)), add(r, neg(r), P("0.000000001")), 14)

    @given(fractions_st, fractions_st)
    @settings(max_examples=300)
    def test_density(self, f, g):
        if f == g:
            return
        lo, hi = min(f, g), max(f, g)
        w = between(real_from_fraction(lo), real_from_fraction(hi))
        assert isinstance(w, TerminatingDecimal)
        assert lo < w.as_fraction() < hi

    def test_oracle_endpoints(self):
        w = between(opaque(Fraction(1, 7)), opaque(Fraction(1, 3)))
        assert Fraction(1, 7) < w.as_fraction() < Fraction(1, 3)

    def test_witness_past_int_str_cap(self):
        # the endpoints agree for 5000 digits, past the interpreter's
        # 4300-digit int<->str cap
        lo = Fraction(1, 3)
        hi = lo + Fraction(1, 10**5000)
        w = between(real_from_fraction(lo), real_from_fraction(hi), 6000)
        assert lo < w.as_fraction() < hi


class TestRefusalPastTheDifference:
    """A stream that refuses from digit 50 against values below it that
    differ from it at digit 20: the walk decides at digit 20, so compare
    and between answer without asking for the refused digit."""

    # 0.1...1 (19 ones) 05, and 0.1...1 (19 ones) + sqrt(2) * 10**-21,
    # with an upper end of each value
    LOWER = {
        "literal": (lambda: P("0." + "1" * 19 + "05"),
                    Fraction(int("1" * 19 + "05"), 10**21)),
        "computed": (lambda: add(P("0." + "1" * 19),
                                 mul(sqrt(P("2")), P("0." + "0" * 20 + "1"))),
                     Fraction(int("1" * 19), 10**19)
                     + Fraction(142, 100 * 10**21)),
    }

    @staticmethod
    def stream():
        def digit(i):
            if i >= 50:
                raise RuntimeError(f"digit {i} refused")
            return 1
        return OracleReal(digit)

    @pytest.mark.parametrize("kind", sorted(LOWER))
    def test_compare(self, kind):
        lower, _ = self.LOWER[kind]
        assert compare(self.stream(), lower(), 100) is Comparison.GT
        assert compare(lower(), self.stream(), 100) is Comparison.LT

    @pytest.mark.parametrize("kind", sorted(LOWER))
    def test_between(self, kind):
        lower, top = self.LOWER[kind]
        w = between(lower(), self.stream(), 100).as_fraction()
        # below the stream's 49 known digits, hence below the stream
        assert top < w < Fraction(int("1" * 49), 10**49)

    def test_the_walk_needs_the_refused_digit(self):
        # agreeing through digit 49, the walk does reach the refusal
        with pytest.raises(RuntimeError):
            compare(self.stream(), P("0.(1)"), 100)

    def test_refusal_before_a_boundary_value(self):
        # 0.2000 refusing digit 5, against 0.3 behind enclosures that
        # straddle it: the walk cannot pin digit 1 of 0.3, the enclosure
        # at the four digits the stream gave separates the two
        def digit(i):
            if i >= 5:
                raise RuntimeError(f"digit {i} refused")
            return 2 if i == 1 else 0
        tenth = Fraction(1, 10)
        near = computed(lambda m: (3 * tenth - tenth ** (m + 1),
                                   3 * tenth + tenth ** (m + 1)))
        assert compare(OracleReal(digit), near, 100) is Comparison.LT
        assert compare(near, OracleReal(digit), 100) is Comparison.GT


class TestScanBudgetEdges:
    """Each digit scan reads positions 1 to budget: a deciding digit at
    position p is found with budget p and missed with budget p - 1."""

    @staticmethod
    def stream(digits: dict, **kwargs) -> OracleReal:
        return OracleReal(digit_fn=lambda i: digits.get(i, 0), **kwargs)

    @pytest.mark.parametrize("p", [1, 7, 40])
    def test_classify_oracle(self, p):
        late = self.stream({p: 3}, negative=True)
        assert classify(late, p) is Classification.NEGATIVE
        with pytest.raises(SignUndecided):
            classify(self.stream({p: 3}, negative=True), p - 1)

    @pytest.mark.parametrize("p", [1, 7, 40])
    def test_compare_oracles(self, p):
        for budget, want in ((p, Comparison.LT),
                             (p - 1, Comparison.UNDECIDED)):
            x = self.stream({p: 1}, int_part=3)
            y = self.stream({p: 2}, int_part=3)
            assert compare(x, y, budget) is want
            assert compare(y, x, budget) is (
                Comparison.GT if want is Comparison.LT else want)

    @pytest.mark.parametrize("p", [1, 7, 40])
    def test_compare_oracles_of_opposite_sign(self, p):
        # the sign flags order the pair only once a nonzero digit is seen
        for budget, want in ((p, Comparison.LT),
                             (p - 1, Comparison.UNDECIDED)):
            neg_zeros = self.stream({}, negative=True)
            assert compare(neg_zeros, self.stream({p: 1}), budget) is want

    @pytest.mark.parametrize("p", [1, 7, 40])
    def test_oracle_integral_part(self, p):
        x = self.stream({p: 4}, negative=True, int_part=2)
        assert x.integral_part(p) == -3
        with pytest.raises(DigitsUnstable) as info:
            self.stream({p: 4}, negative=True, int_part=2).integral_part(p - 1)
        assert (info.value.digits, info.value.budget) == (0, p - 1)

    @pytest.mark.parametrize("p", [2, 8, 50])
    def test_between_different_integer_parts(self, p):
        # a = 0.99...95 with its first sub-nine digit at p, below b = 1.5
        def a():
            return OracleReal(digit_fn=lambda i: 9 if i < p else 5 if i == p
                              else 0)
        w = between(a(), P("1.5"), p)
        assert w.as_fraction() == 1 - Fraction(1, 10**p)
        # past the budget the witness falls back to the next integer
        assert between(a(), P("1.5"), p - 1).as_fraction() == 1

    @pytest.mark.parametrize("p", [3, 8, 50])
    def test_between_equal_integer_parts(self, p):
        # a = 0.1299...95 diverges from b = 0.13 at position 2; its first
        # later sub-nine digit is at p
        def a():
            return OracleReal(digit_fn=lambda i: (1, 2)[i - 1] if i <= 2
                              else 9 if i < p else 5 if i == p else 0)
        w = between(a(), P("0.13"), p)
        assert w.as_fraction() == Fraction(13, 100) - Fraction(1, 10**p)
        with pytest.raises(OrderUndecided):
            between(a(), P("0.13"), p - 1)

    @pytest.mark.parametrize("p", [1, 7, 40])
    def test_between_zero_and_stream(self, p):
        w = between(P("0"), self.stream({p: 6}), p)
        assert w.as_fraction() == Fraction(1, 10**(p + 1))
        with pytest.raises(OrderUndecided):
            between(P("0"), self.stream({p: 6}), p - 1)


class TestOracleReal:
    def test_memo_determinism(self):
        calls = []

        def digit(i):
            calls.append(i)
            return i % 10

        x = OracleReal(digit_fn=digit, negative=False, int_part=0)
        assert x.digit_at(5) == 5
        assert x.digit_at(5) == 5
        assert calls.count(5) == 1  # memoized

    def test_negated_shares_stream(self):
        x = opaque(Fraction(22, 7))
        y = x.negated()
        assert y.negative and not x.negative
        assert y.digit_at(3) == x.digit_at(3)
        assert integral_part(y) == -4  # -22/7 = -3.142857... floors to -4

    def test_nine_run_check_wrapper(self):
        bad = with_nine_run_check(lambda i: 9, window=16)
        with pytest.raises(CanonicalViolation):
            bad(1)
        good = with_nine_run_check(lambda i: 9 if i % 5 else 1, window=16)
        assert good(1) == 9

    def test_bounds_enclose_value(self):
        x = opaque(Fraction(355, 113))
        for m in (1, 5, 20):
            lo, hi = x.bounds(m)
            assert lo <= Fraction(355, 113) <= hi
            assert hi - lo <= Fraction(1, 10**m)


class TestComputedReal:
    @staticmethod
    def shrinking(target, start_width=Fraction(1)):
        """Stream converging to target from the side away from zero.

        A symmetric enclosure of an exactly-representable value straddles
        its digit boundary at every width (the 0.999/1.000 situation, see
        test_boundary_raises_digits_unstable), so one-sided convergence is
        what a digit-stable computation looks like.
        """
        def refine(m):
            r = min(start_width, Fraction(1, 10**m))
            if target < 0:
                return target - r, target
            return target, target + r
        return computed(refine)

    def test_digit_pinning_positive(self):
        x = self.shrinking(Fraction(1, 7))
        assert render_digits(x, 8) == "0." + long_division_digits(1, 7, 8)

    def test_digit_pinning_negative(self):
        x = self.shrinking(Fraction(-19, 100))
        assert render_digits(x, 4) == "-0.1900"
        assert integral_part(x) == -1
        assert x.digit_at(1) == 1 and x.digit_at(2) == 9

    def test_boundary_raises_digits_unstable(self):
        # interval straddles 1.000/0.999... forever
        x = computed(lambda m: (1 - Fraction(1, 10**(m + 1)),
                                1 + Fraction(1, 10**(m + 1))),
                     "boundary stream")
        with pytest.raises(DigitsUnstable):
            x.digit_at(3)
        lo, hi = x.bounds(10)  # bounds remain available
        assert lo <= 1 <= hi

    def test_inconsistent_refinement_asserts(self):
        def refine(m: int) -> tuple[Fraction, Fraction]:
            # each answer keeps the width contract, so it is the
            # intersection with the cached enclosure that fails
            value = Fraction(2) if m < 10 else Fraction(5)
            return value, value + Fraction(1, 10**m)

        flip = computed(refine, "inconsistent")
        flip.bounds(1)
        with pytest.raises(AssertionError):
            flip.bounds(8)

    def test_coarser_grid_asserts(self):
        # a refine must answer on the grid 10**-k with k >= m
        coarse = ComputedReal(lambda m: (1, 2, 0), "coarse")
        with pytest.raises(AssertionError):
            coarse.bounds(3)

    def test_view_pins_once(self, monkeypatch):
        # the sign and the integer part of a view come from one pin of
        # no digits; later views read the cached pin
        pins = []
        pin = ComputedReal._pin

        def counted(self, n):
            pins.append(n)
            return pin(self, n)

        monkeypatch.setattr(ComputedReal, "_pin", counted)
        for x, sign, whole in ((self.shrinking(Fraction(-19, 100)), -1, 0),
                               (sqrt(P("2")), 1, 1), (sqrt(P("150")), 1, 12)):
            pins.clear()
            view = realnum._view(x)
            assert (view.flag, view.int_part) == (sign, whole)
            assert pins == [0]
            view = realnum._view(x)
            assert (view.flag, view.int_part) == (sign, whole)
            assert pins == [0]

    def test_negated(self):
        x = self.shrinking(Fraction(5, 4))
        y = x.negated()
        assert render_digits(y, 3) == "-1.250"
        lo, hi = y.bounds(6)
        assert lo <= Fraction(-5, 4) <= hi


class TestPrefix:
    @given(fractions_st, st.integers(min_value=1, max_value=40))
    @settings(max_examples=200)
    def test_prefix_matches_long_division(self, f, n):
        x = real_from_fraction(f)
        assert x.prefix(n).render() == fraction_prefix(f, n)

    @given(st.integers(min_value=-10**6, max_value=10**6),
           st.integers(min_value=1, max_value=10**4),
           st.integers(min_value=1, max_value=5000))
    @settings(max_examples=40, deadline=None)
    def test_long_periodic_prefix_matches_long_division(self, k, q, n):
        # 3 divides the denominator, not the numerator: always periodic;
        # n runs past the 4300-digit int<->str cap
        f = Fraction(3 * k + 1, 3 * q)
        x = real_from_fraction(f)
        assert isinstance(x, PeriodicReal)
        assert x.prefix(n).render() == fraction_prefix(f, n)

    def test_prefix_value(self):
        p = P("0.1(6)").prefix(3)
        assert p.value() == Fraction(166, 1000)
        assert str(p.as_terminating()) == "0.166"


# primes modulo which the order of 10 divides 720: a product of distinct
# ones has a period of at most 720 digits, and all of them make 42 digits
SHORT_ORDER_PRIMES = (
    3, 7, 11, 13, 17, 31, 37, 41, 73, 101, 137, 271, 9091, 333667,
    5882353, 99990001)


class TestDigitKernel:
    """Digits, prefixes and text of s/q against sequential long division,
    periods against the multiplicative order of 10 and preperiods against
    the larger power of 2 or 5 (``expected_period_structure``)."""

    # the widest blocks of the earlier schedule were 500 and 4000 digits
    # wide; the rest lie on either side of powers of two
    LENGTHS = (1, 2, 3, 63, 64, 65, 499, 500, 501, 1023, 1024, 1025, 3999,
               4000, 4001, 8191, 8192, 8193)

    @staticmethod
    def short_period_denominator(rng, digits: int) -> int:
        """A product of distinct SHORT_ORDER_PRIMES of at most ``digits``
        digits, taken greedily in a random order."""
        q, primes = 1, list(SHORT_ORDER_PRIMES)
        rng.shuffle(primes)
        for p in primes:
            if len(str(q * p)) <= digits:
                q *= p
        return q

    def check_reads(self, f: Fraction, lengths=LENGTHS):
        x = real_from_fraction(f)
        mag = abs(f)
        want = long_division_digits(mag.numerator, mag.denominator,
                                    max(lengths))
        for n in lengths:
            assert x._read(n) == (want[:n], None)
            assert x.prefix(n).render() == fraction_prefix(f, n)

    def check_text(self, f: Fraction):
        x = real_from_fraction(f)
        pre, per = expected_period_structure(f.denominator)
        mag = abs(f)
        digits = long_division_digits(mag.numerator, mag.denominator,
                                      pre + per)
        assert (x.preperiod, x.period) == (digits[:pre], digits[pre:])
        sign = "-" if f < 0 else ""
        assert str(x) == \
            f"{sign}{int(mag)}.{digits[:pre]}({digits[pre:]})"

    @pytest.mark.parametrize("digits", range(1, 41))
    def test_reads_for_denominators_of_1_to_40_digits(self, rng, digits):
        q = rng.randrange(10 ** (digits - 1), 10 ** digits)
        s = rng.randrange(-10 * q, 10 * q)
        self.check_reads(Fraction(s, q * 3))

    @pytest.mark.parametrize("digits", range(1, 41))
    def test_text_for_denominators_of_1_to_40_digits(self, rng, digits):
        q = self.short_period_denominator(rng, digits)
        for _ in range(3):
            a, b = rng.randrange(13), rng.randrange(13)
            s = rng.randrange(-10 * q, 10 * q)
            f = Fraction(s, q * 2**a * 5**b)
            if isinstance(real_from_fraction(f), PeriodicReal):
                self.check_text(f)
            self.check_reads(f, (1, 64, 500, 1025))

    def test_denominator_of_ten_thousand_digits(self, rng):
        # 10 has order 10 000 modulo (10**10000 - 1) / 9999 and 6 modulo
        # 7, so the period is 30 000 digits long
        q = 7 * (10**10_000 - 1) // 9999
        f = Fraction(rng.randrange(q), q * 2**3 * 5**7)
        self.check_reads(f)
        self.check_text(f)

    def test_reads_take_logarithmically_many_blocks(self, monkeypatch):
        widths = []
        block = realnum._digit_block

        def counting(s, q, width):
            widths.append(width)
            return block(s, q, width)

        monkeypatch.setattr(realnum, "_digit_block", counting)
        q = 999_983  # period 999 982
        x = real_from_fraction(Fraction(1, q))
        for n in (1, 1000, 10**5, 10**6):
            widths.clear()
            x.prefix(n)
            assert widths == [n]
        widths.clear()
        text = str(x)
        # blocks of 1000, 2000, 4000, ... digits, never past the cap and
        # the 7 digits that show a period there
        assert sum(widths) <= MAX_EXPANSION_DIGITS + 7
        assert len(widths) <= (q // 15).bit_length() + 1
        widths.clear()
        assert P(text) == x
        assert len(widths) == 2 and sum(widths) == q - 1
        # a walk reads prefixes of doubling length, one block each
        y = real_from_fraction(Fraction(1, q) + Fraction(1, 2**150_000))
        widths.clear()
        assert realnum._digit_compare(x, y, 10**5) is Comparison.LT
        assert len(widths) <= 2 * (10**5).bit_length()

    @pytest.mark.parametrize("q,limit", [
        (3, 10**6), (7, 1), (7, 5), (7, 6), (983, 10**6), (1019, 10**6),
        (1019, 1017), (1019, 1018), (99_989, 10**6), (99_989, 500),
        (7 * 99_989, 3000), (5_882_353 * 99_990_001, 10**6)])
    def test_period_search_stops_at_its_bound(self, monkeypatch, q, limit):
        # the period divides the order of 10 mod q, at most q - 1, so no
        # more than min(limit, q - 1) + w digits are made, w as the search
        # takes it (10**w > 2**bits > q), and a bound that fits in one
        # leaf of 1000 digits is made by one division
        widths = []
        block = realnum._digit_block

        def counting(s, q, width):
            widths.append(width)
            return block(s, q, width)

        monkeypatch.setattr(realnum, "_digit_block", counting)
        period = realnum._period_digits(1, q, limit)
        _, order = expected_period_structure(q)
        want = long_division_digits(1, q, order) if order <= limit else None
        assert period == want
        bound = min(limit, q - 1) + q.bit_length() * 30103 // 100_000 + 1
        assert sum(widths) <= bound
        if bound <= 1000:
            assert len(widths) == 1


# ---------------------------------------------------------------------------
# block-wise walks against the digit-at-a-time walk

# canonical operands, then streams whose callbacks raise past some digit
CANONICAL_KINDS = ("terminating", "periodic", "boundary", "irrational",
                   "stream")
KINDS = CANONICAL_KINDS + ("nines", "broken")
# the kinds that are not ComputedReals
DIGIT_KINDS = ("terminating", "periodic", "stream", "nines", "broken")


def _stream(digits, tail_digit):
    def digit(i):
        return int(digits[i - 1]) if i <= len(digits) else tail_digit(i)
    return digit


def _build(spec):
    """A fresh real for ``spec = (kind, negative, int_part, digits,
    tail)``, so that neither walk reads digits or enclosures the other
    one produced."""
    kind, negative, ip, digits, tail = spec
    sign = -1 if negative else 1
    head = sign * (ip + Fraction(int(digits or "0"), 10 ** len(digits)))
    if kind == "terminating":
        return real_from_fraction(head)
    if kind == "periodic":
        return P(f"{'-' if negative else ''}{ip}.{digits}({tail})")
    if kind == "boundary":
        # an exact decimal behind enclosures that straddle it: its last
        # digit can never be pinned, e.g. 0.25 = sqrt(2) * sqrt(2) * 0.125
        two = mul(sqrt(P("2")), sqrt(P("2")))
        return mul(two, real_from_fraction(head / 2))
    if kind == "irrational":
        # agrees with the head, then goes on with the digits of sqrt(2)
        step = TerminatingDecimal(sign, len(digits) + 1)
        return add(real_from_fraction(head),
                   mul(sqrt(P("2")), TerminatingReal(step)))
    if kind == "stream":
        fn = _stream(digits,
                     lambda i: int(tail[(i - len(digits) - 1) % len(tail)]))
    elif kind == "nines":
        # raises CanonicalViolation where the final run of nines starts
        fn = with_nine_run_check(_stream(digits, lambda i: 9),
                                 window=8)
    else:  # "broken": not a digit past the head, so digit_at raises
        fn = _stream(digits, lambda i: 10)
    return OracleReal(fn, negative=negative, int_part=ip)


@st.composite
def operand_pairs(draw, kinds=KINDS):
    """Two specs that mostly share their sign, integer part and leading
    digits, so that the walks, not the enclosures, decide."""
    negative = draw(st.booleans())
    ip = draw(st.integers(0, 1))
    digits = draw(st.text("0123456789", max_size=10))

    def one():
        ds = digits
        if draw(st.booleans()):
            ds = ds[:draw(st.integers(0, len(ds)))] + draw(
                st.text("0123456789", max_size=6))
        return (draw(st.sampled_from(kinds)),
                draw(st.sampled_from((negative, negative, not negative))),
                draw(st.sampled_from((ip, ip, 1 - ip))), ds,
                draw(st.text("012345678", min_size=1, max_size=3)))

    return one(), one()


def _outcome(run, *specs):
    try:
        return "returned", run(*map(_build, specs))
    except Exception as exc:
        return "raised", type(exc)


def _agree(run, *specs):
    """The block-wise walks and the digit-at-a-time walk return the same
    value or raise the same type of error."""
    blocks = _outcome(run, *specs)
    with digit_walk():
        digits = _outcome(run, *specs)
    assert blocks == digits


budgets_st = st.integers(min_value=0, max_value=30)


class TestBlockWalk:
    @given(operand_pairs(), budgets_st)
    @settings(max_examples=300, deadline=None)
    def test_compare(self, pair, budget):
        _agree(lambda x, y: compare(x, y, budget), *pair)

    @given(operand_pairs(), budgets_st)
    @settings(max_examples=300, deadline=None)
    def test_between(self, pair, budget):
        _agree(lambda x, y: between(x, y, budget), *pair)
        _agree(lambda x, y: between(y, x, budget), *pair)

    @given(operand_pairs(), budgets_st)
    @settings(max_examples=200, deadline=None)
    def test_classify_and_nonzero_within(self, pair, budget):
        for spec in pair:
            _agree(lambda x: classify(x, budget), spec)
            _agree(lambda x: realnum._view(x).nonzero_within(budget), spec)

    @pytest.mark.parametrize("run", [
        lambda x, y: realnum._digit_compare(x, y, 30),
        lambda x, y: realnum._between_positive(y, x, 30),
        lambda x, y: classify(y, 30),
        lambda x, y: compare(x, y, 30),
        lambda x, y: between(y, x, 30),
    ])
    def test_short_head_decided_before_its_end(self, run):
        # 0.25 pins one digit, the stream raises at its fifth; both walks
        # decide by the second digit and never reach either refusal, and
        # so do compare and between: the stream refuses within the 8
        # digits of their first enclosure, which ends the enclosure pass
        x = ("boundary", False, 0, "25", "0")
        y = ("nines", False, 0, "1234", "0")
        _agree(run, x, y)
        assert _outcome(run, x, y)[0] == "returned"

    def test_tie_raises_the_first_operands_error(self):
        # both heads stop at the third digit: a digit-by-digit walk reads
        # x's third digit first
        def run(x, y):
            return realnum._digit_compare(x, y, 30)

        nines = ("nines", False, 0, "12", "0")
        broken = ("broken", False, 0, "12", "0")
        _agree(run, nines, broken)
        assert _outcome(run, nines, broken) == ("raised", CanonicalViolation)
        assert _outcome(run, broken, nines) == ("raised", ValueError)

    @given(operand_pairs(DIGIT_KINDS), st.integers(min_value=0,
                                                   max_value=100))
    @settings(max_examples=300, deadline=None)
    def test_compare_without_computed_is_the_walk(self, pair, budget):
        # no enclosure is tried: the same verdict, or the same refusal,
        # as the walk alone, for streams that refuse within 64 digits too
        assume(not all(kind in ("terminating", "periodic")
                       for kind, *_ in pair))
        assert (_outcome(lambda x, y: compare(x, y, budget), *pair)
                == _outcome(lambda x, y: realnum._digit_compare(x, y, budget),
                            *pair))

    @given(operand_pairs(CANONICAL_KINDS), budgets_st,
           st.integers(min_value=1, max_value=200))
    @settings(max_examples=200, deadline=None)
    def test_verdict_kept_at_larger_budgets(self, pair, budget, extra):
        x, y = map(_build, pair)
        verdict = compare(x, y, budget)
        if verdict is not Comparison.UNDECIDED:
            assert compare(x, y, budget + extra) is verdict
            assert compare(*map(_build, pair), budget + extra) is verdict
