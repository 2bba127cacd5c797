"""Rational embedding: digit representations, period detection, and the
order/sum/product preservation checker.

Oracles: digits read off Fraction multiples, multiplicative-order period
structure, and Fraction arithmetic — all from conftest.  Production's
``decimal_representation`` is itself integer long division, a block of
digits per division, so it is checked against the Fraction route, not
against conftest's long division."""

import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    expected_period_structure,
    fraction_digit,
    rand_fraction,
)
from decreal import rationals, realnum
from decreal.rationals import (
    NoPeriodFound,
    PeriodFound,
    PhiOk,
    PhiViolation,
    _divergence_budget,
    assert_no_period,
    decimal_representation,
    from_periodic,
    phi_check,
    to_decimal,
)
from decreal.realnum import OracleReal, PeriodicReal, TerminatingReal
from decreal.arithmetic import sqrt
from decreal.realnum import parse_real
from decreal.terminating import _LEAF as B

fractions_st = st.fractions(min_value=-10**4, max_value=10**4,
                            max_denominator=10**4)


def digit_route_prefix(f: Fraction, n: int) -> str:
    """f truncated to n >= 1 fractional digits, each digit read off
    |f| * 10**i by ``fraction_digit``."""
    sign = "-" if f < 0 else ""
    digits = "".join(str(fraction_digit(f, i)) for i in range(1, n + 1))
    return f"{sign}{int(abs(f))}.{digits}"


class TestToDecimal:
    def test_variant_selection(self):
        assert isinstance(to_decimal(Fraction(53, 25)), TerminatingReal)
        assert isinstance(to_decimal(Fraction(1, 3)), PeriodicReal)
        assert isinstance(to_decimal(Fraction(-7)), TerminatingReal)

    def test_never_all_nines_period(self):
        for q in range(2, 400):
            for p in (1, q - 1, q + 1):
                x = to_decimal(Fraction(p, q))
                if isinstance(x, PeriodicReal):
                    assert set(x.period) != {"9"}

    @given(fractions_st)
    @settings(max_examples=300)
    def test_roundtrip(self, f):
        assert from_periodic(to_decimal(f)) == f

    @given(st.integers(min_value=-1000, max_value=1000),
           st.integers(min_value=1, max_value=1000))
    @settings(max_examples=150)
    def test_minimality_via_number_theory(self, p, q):
        f = Fraction(p, q)
        x = to_decimal(f)
        if isinstance(x, PeriodicReal):
            pre, per = expected_period_structure(f.denominator)
            assert (len(x.preperiod), len(x.period)) == (pre, per)


class TestDecimalRepresentation:
    @pytest.mark.parametrize("p,q,n,want", [
        (53, 25, 4, "2.1200"),
        (1, 3, 5, "0.33333"),
        (-1, 4, 3, "-0.250"),
    ])
    def test_goldens(self, p, q, n, want):
        got = decimal_representation(to_decimal(Fraction(p, q)), n)
        assert got.render() == want

    @given(fractions_st, st.integers(min_value=1, max_value=100))
    @settings(max_examples=150)
    def test_matches_long_division(self, f, n):
        got = decimal_representation(to_decimal(f), n)
        assert got.render() == digit_route_prefix(f, n)

    def test_accepts_streams(self):
        x = OracleReal(digit_fn=lambda i: i % 10, negative=False, int_part=3)
        assert decimal_representation(x, 5).render() == "3.12345"

    @pytest.mark.parametrize("f", [
        pytest.param(Fraction(22, 7), id="periodic"),
        pytest.param(Fraction(-355, 113), id="negative"),
        pytest.param(Fraction(3, 2**1200), id="terminating"),
        pytest.param(Fraction(-7, 10**5), id="negative-terminating"),
        # 2/3 + 1/q with q = 3**2095, a 1000-digit denominator: sixes for
        # about a thousand digits, then the digits of 1/q show
        pytest.param(Fraction(2 * 3**2094 + 1, 3**2095), id="long-denominator"),
        pytest.param(Fraction(-(10**999 // 7), 3**2095 + 2),
                     id="negative-long-denominator"),
    ])
    def test_block_boundaries(self, f):
        # widths on both sides of the block width B, past the
        # interpreter's 4300-digit int-to-str cap, and 10**4; every
        # position up to 2B + 1 and sampled positions beyond it are
        # checked against digits read off Fraction multiples
        head = "".join(str(fraction_digit(f, i)) for i in range(1, 2 * B + 2))
        x = to_decimal(f)
        for n in (0, 1, B - 1, B, B + 1, 2 * B + 1, 4301, 10**4):
            got = decimal_representation(x, n)
            assert (got.negative, got.int_part) == (f < 0, int(abs(f)))
            assert len(got.digits) == n
            assert got.digits[:2 * B + 1] == head[:n]
            for i in (2 * B + 2, 3 * B, 3 * B + 1, 4300, 4301, 7777,
                      10**4 - 1, 10**4):
                if i <= n:
                    assert int(got.digits[i - 1]) == fraction_digit(f, i), i


class TestAssertNoPeriod:
    def test_sqrt2(self):
        out = assert_no_period(sqrt(parse_real("2")), 50, 200)
        assert isinstance(out, NoPeriodFound)
        assert out.window == 200 + 2 * 50

    def test_one_seventh(self):
        out = assert_no_period(to_decimal(Fraction(1, 7)), 10, 10)
        assert out == PeriodFound(offset=0, period="142857")

    def test_sporadic_ones_stream(self):
        # 0.101001000100001… — gaps grow, so no period at any offset
        def digit(i):
            k, t = 1, 1
            while t < i:
                k += 1
                t += k
            return 1 if t == i else 0

        x = OracleReal(digit_fn=digit, negative=False, int_part=0)
        assert isinstance(assert_no_period(x, 20, 100), NoPeriodFound)

    def test_last_window_digit_counts(self):
        # the window is 0 + 2 * 2 digits, 1213: the 12 of period 2 breaks
        # at the window's last digit
        out = assert_no_period(to_decimal(Fraction(1213, 10**4)), 2, 0)
        assert out == NoPeriodFound(window=4)

    def test_finds_offset_periods(self):
        out = assert_no_period(to_decimal(Fraction(1, 6)), 5, 5)
        assert out == PeriodFound(offset=1, period="6")

    @given(st.integers(min_value=2, max_value=300),
           st.integers(min_value=1, max_value=300))
    @settings(max_examples=100)
    def test_detects_rational_periods(self, q, p):
        f = Fraction(p, q)
        pre, per = expected_period_structure(f.denominator)
        if per == 0 or per > 12 or pre > 6:
            return
        out = assert_no_period(to_decimal(f), 15, 10)
        # the scan window (40 digits) is long enough that, by the
        # periodicity-overlap argument, the minimal period and offset it
        # reports must be the true ones; expected digits come from the
        # Fraction route, independent of the long division it searches
        digits = "".join(str(fraction_digit(f, i))
                         for i in range(1, pre + per + 1))
        assert out == PeriodFound(offset=pre, period=digits[pre:])


class TestPhiCheck:
    @pytest.mark.parametrize("x,y", [
        (Fraction(1, 6), Fraction(5, 6)),
        (Fraction(2, 7), Fraction(2, 7)),
        (Fraction(-1, 3), Fraction(1, 3)),
        (Fraction(0), Fraction(0)),
        (Fraction(-9973, 9967), Fraction(9949, 9941)),
    ])
    def test_goldens(self, x, y):
        assert isinstance(phi_check(x, y), PhiOk)

    def test_random_sweep(self, rng):
        for _ in range(500):
            x, y = rand_fraction(rng), rand_fraction(rng)
            out = phi_check(x, y)
            assert isinstance(out, PhiOk), (x, y, out)

    def test_twenty_thousand_digit_gap(self):
        # 1/3 + 10**-20000 has 20 000 factors 5 in its denominator: 2.4 s
        # when split_denominator took them off one division at a time
        x = Fraction(1, 3)
        start = time.process_time()
        assert isinstance(phi_check(x, x + Fraction(1, 10**20000)), PhiOk)
        assert time.process_time() - start < 0.5


class TestPhiViolation:
    """Each branch of phi_check reports a route that breaks the
    embedding: one route at a time is made wrong."""

    def test_digit_walk_order(self, monkeypatch):
        walk = rationals._digit_compare
        monkeypatch.setattr(rationals, "_digit_compare",
                            lambda u, v, budget: walk(v, u, budget))
        out = phi_check(Fraction(1, 3), Fraction(1, 2))
        assert isinstance(out, PhiViolation)
        assert out.detail.startswith("order mismatch for (1/3, 1/2)")

    @pytest.mark.parametrize("name,branch", [
        ("add", "sum"), ("mul", "product")])
    def test_neighbouring_result(self, monkeypatch, name, branch):
        # the right value moved by 10**-12
        op = getattr(rationals, name)

        def neighbour(u, v):
            return to_decimal(op(u, v).as_fraction() + Fraction(1, 10**12))

        monkeypatch.setattr(rationals, name, neighbour)
        out = phi_check(Fraction(2, 7), Fraction(-5, 3))
        assert isinstance(out, PhiViolation)
        assert out.detail.startswith(f"{branch} mismatch for (2/7, -5/3)")

    @pytest.mark.parametrize("y,detail", [
        (Fraction(1, 7), "equal rationals embed differently: 1/7"),
        (Fraction(1, 3), "sum mismatch for (1/7, 1/3)")])
    def test_wrong_period(self, monkeypatch, y, detail):
        # every period found with its last digit raised: both sides of
        # each pair carry the same wrong text, so only the long division
        # behind decimal_representation tells
        period_digits = realnum._period_digits

        def wrong(s, q, limit):
            period = period_digits(s, q, limit)
            return period[:-1] + str((int(period[-1]) + 1) % 10)

        monkeypatch.setattr(realnum, "_period_digits", wrong)
        out = phi_check(Fraction(1, 7), y)
        assert isinstance(out, PhiViolation)
        assert out.detail.startswith(detail)

    @pytest.mark.parametrize("position", [1, 2, 5, 11])
    def test_wrong_periodic_digit(self, monkeypatch, position):
        digit_at = PeriodicReal.digit_at

        def wrong(self, i):
            return (digit_at(self, i) + (i == position)) % 10

        monkeypatch.setattr(PeriodicReal, "digit_at", wrong)
        for x in (Fraction(1, 7), Fraction(-22, 7)):
            out = phi_check(x, Fraction(1, 2))
            assert isinstance(out, PhiViolation)
            right = fraction_digit(x, position)
            assert out.detail == (
                f"digit {position} of {x}: stream {(right + 1) % 10}, "
                f"direct {right}")


def budget_by_trial(x: Fraction, y: Fraction) -> int:
    """k + 2 for the least k >= 1 with 10**-k < |x - y|, by trying each k
    in turn: quadratic in k, so for short gaps only."""
    gap = abs(x - y)
    k = 1
    while Fraction(1, 10 ** k) >= gap:
        k += 1
    return k + 2


class TestDivergenceBudget:
    @given(fractions_st, fractions_st)
    @settings(max_examples=300)
    def test_matches_trial(self, x, y):
        if x != y:
            assert _divergence_budget(x, y) == budget_by_trial(x, y)

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 17, 300])
    @pytest.mark.parametrize("scale", [
        Fraction(1), Fraction(9, 10), Fraction(11, 10), Fraction(1, 3),
        Fraction(99, 10), Fraction(10), Fraction(101, 10), Fraction(1000),
        1 - Fraction(1, 10**40), 1 + Fraction(1, 10**40)])
    def test_gaps_at_powers_of_ten(self, k, scale):
        x = Fraction(-2, 7)
        y = x + scale / 10**k
        assert _divergence_budget(x, y) == budget_by_trial(x, y)
        assert _divergence_budget(y, x) == budget_by_trial(x, y)

    @pytest.mark.parametrize("gap,k", [
        (Fraction(1, 10**100_000), 100_001),
        (Fraction(3, 7 * 10**100_000), 100_001),
        (Fraction(1, 10**100_000) + Fraction(1, 10**100_050), 100_000),
        (Fraction(1, 10**100_000) - Fraction(1, 10**100_050), 100_001),
    ])
    def test_hundred_thousand_digit_gap(self, gap, k):
        # 10**-k < gap <= 10**-(k - 1), read off the literals; trying
        # each k in turn would take about a minute at this size
        x = Fraction(1, 3)
        start = time.process_time()
        assert _divergence_budget(x, x + gap) == k + 2
        assert time.process_time() - start < 1
