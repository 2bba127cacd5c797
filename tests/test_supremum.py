"""Digit-by-digit suprema: built-in families, finite sets, user families,
cuts, hints, bound checks, and certificates.

Oracles: Fraction max/arithmetic for finite sets, long-division digit
prefixes for streams, geometric series for nine-tail repairs, and the
built-in families enumerated from their definitions as Fractions."""

import copy
import random
import sys
import threading
import time
from collections import Counter
from fractions import Fraction
from itertools import count, islice

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (
    computed,
    fraction_digit,
    fraction_prefix,
    long_division_digits,
    sqrt_truncation,
    unhinted,
)
from decreal import realnum, supremum
from decreal.arithmetic import mul, sqrt
from decreal.errors import (
    CanonicalViolation,
    MalformedLiteral,
    OrderUndecided,
)
from decreal.realnum import (
    DEFAULT_BUDGET,
    MAX_EXPANSION_DIGITS,
    PASS_GUARD,
    DigitPrefix,
    OracleReal,
    PeriodicReal,
    TerminatingReal,
    compare,
    parse_real,
    real_from_fraction,
    render_digits,
)
from decreal.supremum import (
    HINT_WINDOW,
    Family,
    FiniteSet,
    No,
    Pass,
    FailBound,
    FailLeastness,
    RepeatsFrom,
    Undecided,
    Yes,
    builtin_family,
    check_sup_certificate,
    finite_family,
    is_upper_bound,
    load_set_file,
    lower_cut,
    set_product,
    set_sum,
    sup,
)
from decreal.terminating import (
    Comparison,
    TerminatingDecimal,
    parse_terminating,
)

P = parse_real
T = parse_terminating
fractions_st = st.fractions(min_value=-10**3, max_value=10**3,
                            max_denominator=10**3)


def tdset(*texts):
    return {T(t) for t in texts}


class TestSetAlgebra:
    def test_sum_goldens(self):
        assert set_sum(tdset("0.1", "0.2"), tdset("1")) == tdset("1.1", "1.2")
        b = tdset("0.7", "-2")
        assert set_sum(tdset("0"), b) == b
        both = tdset("0.5", "-0.5")
        assert set_sum(both, both) == tdset("1", "0", "-1")

    def test_product_goldens(self):
        assert set_product(tdset("0.2"), tdset("0.3")) == tdset("0.06")
        b = tdset("0.7", "-2")
        assert set_product(tdset("1"), b) == b
        s = tdset("2", "3")
        assert set_product(s, s) == tdset("4", "6", "9")

    def test_nonempty_required(self):
        with pytest.raises(ValueError):
            set_sum(set(), tdset("1"))
        with pytest.raises(ValueError):
            set_product(tdset("1"), set())

    @given(st.sets(st.builds(TerminatingDecimal,
                             st.integers(min_value=-10**6, max_value=10**6),
                             st.integers(min_value=0, max_value=6)),
                   min_size=1, max_size=6),
           st.sets(st.builds(TerminatingDecimal,
                             st.integers(min_value=-10**6, max_value=10**6),
                             st.integers(min_value=0, max_value=6)),
                   min_size=1, max_size=6))
    @settings(max_examples=100)
    def test_matches_fraction_oracle(self, a, b):
        want_sum = {x.as_fraction() + y.as_fraction() for x in a for y in b}
        want_prod = {x.as_fraction() * y.as_fraction() for x in a for y in b}
        assert {t.as_fraction() for t in set_sum(a, b)} == want_sum
        assert {t.as_fraction() for t in set_product(a, b)} == want_prod


class TestBuiltinFamilies:
    def test_worked_example_stream(self):
        s = sup(builtin_family("paper-A"))
        want = fraction_prefix(P("2.120(1)").as_fraction(), 40)
        assert render_digits(s, 40) == want

    def test_nine_tail_repair(self):
        s = sup(builtin_family("paper-B"))
        assert s.is_exact and s.as_fraction() == 1

    def test_negative_family_exact(self):
        s = sup(builtin_family("paper-C"))
        assert s.is_exact and s.as_fraction() == Fraction(-19, 100)

    def test_vanishing_family(self):
        s = sup(builtin_family("paper-D"))
        assert s.is_exact and s.as_fraction() == 0

    def test_lower_cut_directive(self):
        fam = builtin_family("lower-cut 2.5")
        assert sup(fam).as_fraction() == Fraction(5, 2)

    def test_unknown_family(self):
        with pytest.raises(MalformedLiteral):
            builtin_family("paper-Z")
        with pytest.raises(MalformedLiteral):
            builtin_family("lower-cut")


class TestFiniteSets:
    def test_max_short_circuit(self):
        s = sup(FiniteSet((P("0.5"), P("1.25"), P("-3"), P("1.2(3)"))))
        assert s.as_fraction() == Fraction(5, 4)

    def test_cross_check_agrees(self):
        members = (P("1"), P("2.12"), P("1.(1)"), P("2.120(1)"),
                   P("1.120101(1)"))
        s = sup(FiniteSet(members))
        assert str(s) == "2.120(1)"
        assert sup(finite_family(members)).prefix(40) == s.prefix(40)

    def test_nonempty_enforced(self):
        with pytest.raises(ValueError):
            FiniteSet(())

    @given(st.lists(fractions_st, min_size=1, max_size=8))
    @settings(max_examples=150)
    def test_sup_is_fraction_max(self, fs):
        members = tuple(real_from_fraction(f) for f in fs)
        assert sup(FiniteSet(members)).as_fraction() == max(fs)

    @given(st.lists(fractions_st, min_size=1, max_size=5))
    @settings(max_examples=75)
    def test_digit_procedure_mirror(self, fs):
        members = tuple(real_from_fraction(f) for f in fs)
        s = sup(FiniteSet(members))
        assert s.as_fraction() == max(fs)
        assert sup(finite_family(members)).prefix(40) == s.prefix(40)

    @given(st.lists(fractions_st, min_size=1, max_size=6),
           st.lists(fractions_st, min_size=0, max_size=4))
    @settings(max_examples=100)
    def test_monotone_in_subsets(self, base, extra):
        a = FiniteSet(tuple(real_from_fraction(f) for f in base))
        b = FiniteSet(tuple(real_from_fraction(f)
                            for f in base + extra))
        assert sup(a).as_fraction() <= sup(b).as_fraction()


class TestFamilyMachinery:
    def test_finite_family_negative_pool(self):
        fam = finite_family([P("-0.5"), P("-0.125")])
        assert sup(fam).as_fraction() == Fraction(-1, 8)

    def test_period_one_hint_must_be_honest(self):
        # the family selects 7, 8, 7, 8, ... from the hinted position on
        # and announces one digit repeated there
        for index in (1, 2, 40):
            next_digits, _ = periodic_selection("1" * (index - 1), "78")
            dishonest = Family(
                max_integral=lambda: 0, next_digits=next_digits,
                tail=RepeatsFrom(index, 1),
                description="claims one digit over 7, 8, 7, 8, ...")
            with pytest.raises(CanonicalViolation):
                sup(dishonest)

    def test_all_zeros_hint_must_be_honest(self):
        # the family selects 0.7000... with its fifth digit raised and
        # announces zeros repeated from the second digit on
        next_digits, _ = periodic_selection("7", "0", broken_at=5)
        dishonest = Family(
            max_integral=lambda: 0, next_digits=next_digits,
            tail=RepeatsFrom(2, 1),
            description="claims zeros over a broken zero tail")
        with pytest.raises(CanonicalViolation):
            sup(dishonest)

    def test_all_nines_hint_must_be_honest(self):
        next_digits, _ = periodic_selection("7", "9", broken_at=5)
        dishonest = Family(
            max_integral=lambda: 0, next_digits=next_digits,
            tail=RepeatsFrom(2, 1),
            description="claims nines over a broken nine tail")
        with pytest.raises(CanonicalViolation):
            sup(dishonest)

    def test_early_all_zeros_hint_short_circuits(self):
        # announcing zeros before any digit is selected is a consistent
        # claim that the supremum is the integral part itself
        fam = Family(
            max_integral=lambda: 3,
            next_digits=lambda prefix, n: "0" * n,
            tail=RepeatsFrom(1, 1),
            description="exactly three")
        s = sup(fam)
        assert s.is_exact and s.as_fraction() == 3

    def test_unhinted_nine_stream_carries_caveat(self):
        nines = Family(
            max_integral=lambda: 0,
            next_digits=lambda prefix, n: "9" * n,
            description="nines with no tail knowledge")
        s = sup(nines)
        assert isinstance(s, OracleReal)
        assert s.caveat is not None
        assert render_digits(s, 6) == "0.999999"

    def test_plain_stream_no_caveat(self):
        alternating = Family(
            max_integral=lambda: 1,
            next_digits=lambda prefix, n: alternating_digits(len(prefix), n),
            description="alternating digits")
        s = sup(alternating)
        assert isinstance(s, OracleReal) and s.caveat is None
        assert render_digits(s, 4) == "1.7272"

    @pytest.mark.parametrize("start", [1, 40, 64, 65, 300])
    @pytest.mark.parametrize("fill", ["9", "0"])
    def test_tail_honoured_at_any_position(self, start, fill):
        # 0.(sevens) up to start - 1, then the announced tail; the exact
        # value is the truncation, plus one unit in its last place for
        # nines
        def next_digits(prefix, n):
            return ("7" * (start - 1)).ljust(
                len(prefix) + n, fill)[len(prefix):][:n]

        s = sup(Family(lambda: 0, next_digits, RepeatsFrom(start, 1)))
        head = Fraction(int("7" * (start - 1) or "0"), 10 ** (start - 1))
        want = head + Fraction(fill == "9", 10 ** (start - 1))
        assert isinstance(s, TerminatingReal) and s.as_fraction() == want


def alternating_digits(start: int, n: int) -> str:
    """Digits start + 1 .. start + n of 0.727272..."""
    return ("72" * (start + n))[start:start + n]


def counting(next_digits, calls):
    """next_digits that logs the width of each call in calls."""
    def logged(prefix, n):
        calls.append(n)
        return next_digits(prefix, n)
    return logged


class TestSelectionCalls:
    """How often sup asks its family: one block read before it returns,
    then blocks of doubling width."""

    @pytest.mark.parametrize("name", [
        "paper-A", "paper-B", "paper-C", "paper-D", "lower-cut 0.(142857)",
        "lower-cut 2.5", "lower-cut -0." + "0" * 200 + "1"])
    def test_one_call_before_sup_returns(self, name):
        family = builtin_family(name)
        calls = []
        sup(Family(family.max_integral,
                   counting(family.next_digits, calls), family.tail,
                   negative=family.negative))
        assert len(calls) == 1

    def test_render_makes_logarithmically_many_calls(self):
        calls = []
        fam = Family(
            lambda: 1, counting(lambda p, n: alternating_digits(len(p), n),
                                calls))
        assert render_digits(sup(fam), 1000) == "1." + "72" * 500
        # 64, then 64, 128, 256, 512 more: 1024 digits in five calls
        assert calls == [HINT_WINDOW, 64, 128, 256, 512]


class TestSharedSelection:
    def test_one_selection_per_family(self):
        selected = []

        def next_digits(prefix, n):
            selected.extend(range(len(prefix), len(prefix) + n))
            return alternating_digits(len(prefix), n)

        fam = Family(
            max_integral=lambda: 1, next_digits=next_digits,
            description="alternating digits")
        s, t = sup(fam), sup(fam)
        assert s is not t
        assert render_digits(s, 80) == render_digits(t, 80) == "1." + "72" * 40
        assert isinstance(is_upper_bound(P("2"), fam), Yes)
        assert isinstance(is_upper_bound(P("1.7"), fam), Undecided)
        # each digit is selected once: the first block, then one more
        # block of the same width
        assert sorted(selected) == list(range(2 * HINT_WINDOW))

    def test_concurrent_reads_agree(self):
        # four threads read one stream, its negation and two sups of one
        # family, each to its own lengths; every read must match a
        # single-threaded read of fresh objects, and each digit of the
        # shared memo must be produced once
        calls = Counter()

        def digit(i):
            calls[i] += 1
            time.sleep(0)  # hand over the interpreter mid-fill
            return fraction_digit(Fraction(22, 7), i)

        def objects(fn):
            x = OracleReal(fn, int_part=3)
            fam = unhinted(finite_family(
                [P("2.(142857)"), P("1.(3)"), P("2.1(4)")]))
            return [x, x.negated(), sup(fam), sup(fam)]

        def read(x, top):
            return [(render_digits(x, n), x.bounds(n), x.digit_at(n))
                    for n in range(1, top, 23)]

        tops = [300, 500, 200, 400]
        want = [read(x, top) for x, top in zip(
            objects(lambda i: fraction_digit(Fraction(22, 7), i)), tops)]
        got = [None] * 4
        start = threading.Barrier(4)

        def work(k, x):
            start.wait(timeout=30)
            got[k] = read(x, tops[k])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(k, x))
                       for k, x in enumerate(objects(digit))]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert got == want
        assert set(calls.values()) == {1}

    def test_threads_share_one_selection(self, monkeypatch):
        # eight threads released at once each ask a hint-less family for
        # its sup: the selection is made once, under the family's own
        # lock, and every stream handed out reads that one selection
        made = []
        select_sup = supremum._select_sup

        def slow(family):
            made.append(family)
            time.sleep(0.05)  # leave the others time to arrive
            return select_sup(family)

        monkeypatch.setattr(supremum, "_select_sup", slow)
        fam = Family(max_integral=lambda: 1,
                     next_digits=lambda p, n: alternating_digits(len(p), n))
        start = threading.Barrier(8)
        got = [None] * 8

        def work(k):
            start.wait(timeout=30)
            got[k] = sup(fam)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(k,))
                       for k in range(8)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert made == [fam]
        assert all(isinstance(s, OracleReal) for s in got)
        assert len({id(s) for s in got}) == 8
        assert len({id(s._memo) for s in got}) == 1
        assert render_digits(got[0], 40) == "1." + "72" * 20
        assert render_digits(got[7], 60) == "1." + "72" * 30

    def test_a_copy_selects_on_its_own(self):
        # a copy, shallow or deep, is an equal family whose lock and
        # selection are its own, also after the original has selected
        fam = Family(max_integral=lambda: 1,
                     next_digits=lambda p, n: alternating_digits(len(p), n))
        s = sup(fam)
        for other in (copy.copy(fam), copy.deepcopy(fam)):
            assert other == fam and hash(other) == hash(fam)
            t = sup(other)
            assert t._memo is not s._memo
            assert render_digits(t, 30) == render_digits(s, 30)


class TestLowerCut:
    @pytest.mark.parametrize("text", ["2.5", "3", "-0.75", "0.001", "-4"])
    def test_terminating_cut_recovers_exactly(self, text):
        s = sup(lower_cut(P(text)))
        assert s.is_exact and s.as_fraction() == P(text).as_fraction()

    @given(fractions_st)
    @settings(max_examples=50)
    def test_cut_recovery_100_digits(self, f):
        c = real_from_fraction(f)
        s = sup(lower_cut(c))
        assert s.prefix(100).render() == fraction_prefix(f, 100)

    def test_zero_cut(self):
        s = sup(lower_cut(P("0")))
        assert s.is_exact and s.as_fraction() == 0

    @pytest.mark.parametrize("zeros", [64, 200])
    @pytest.mark.parametrize("sign", ["", "-"])
    def test_cut_past_the_hint_window_is_exact(self, sign, zeros):
        # the tail of nines (zeros for a negative cut) starts past
        # HINT_WINDOW: the hint is still honoured, so the supremum is c
        # itself, not a stream that reads c - 0 then nines
        literal = sign + "0." + "0" * zeros + "1"
        family = builtin_family("lower-cut " + literal)
        s = sup(family)
        assert isinstance(s, TerminatingReal) and str(s) == literal
        assert compare(s, P(literal), 200) is Comparison.EQ
        assert isinstance(check_sup_certificate(s, family), Pass)


def selection_stream(family: Family, n: int) -> DigitPrefix:
    """The first n digits a family selects one at a time, with no tail
    hint consulted: the kernel itself, not the exact result sup
    returns."""
    prefix = DigitPrefix(family.negative, family.max_integral(), "")
    for _ in range(n):
        prefix = prefix.extend(int(family.next_digits(prefix, 1)))
    return prefix


def near(f: Fraction, k: int, tail: Fraction) -> Fraction:
    """f truncated to k digits, plus tail * 10**-k: for 0 <= tail < 1 it
    agrees with f on the first k digits, as 2.120(1) does with 2.12."""
    sign = -1 if f < 0 else 1
    cut = Fraction(int(abs(f) * 10**k), 10**k)
    return sign * (cut + tail / 10**k)


# members with few integer parts, terminating and periodic, and tails
# that are terminating (denominators 2^a 5^b) or periodic
bases_st = st.fractions(min_value=0, max_value=3, max_denominator=70)
tails_st = st.fractions(min_value=0, max_value=Fraction(89, 90),
                        max_denominator=90)


@st.composite
def pools(draw):
    """1-8 exact members, many agreeing with a common base on long
    prefixes; all negative, all non-negative, or mixed."""
    base = draw(bases_st)
    size = draw(st.integers(min_value=1, max_value=8))
    members = []
    for _ in range(size):
        if draw(st.booleans()):
            members.append(draw(bases_st))
        else:
            k = draw(st.sampled_from([0, 1, 2, 3, 40, 63, 64, 65, 200, 290]))
            members.append(near(base, k, draw(tails_st)))
    signs = draw(st.sampled_from(["positive", "negative", "mixed"]))
    if signs == "negative":
        members = [-m if m > 0 else m for m in members]
        if all(m == 0 for m in members):
            members.append(Fraction(-1, 7))
    elif signs == "mixed":
        members = [-m if i % 2 else m for i, m in enumerate(members)]
    return members


def periodic_selection(head: str, cycle: str, broken_at=None):
    """next_digits of a selection 0.head(cycle), with the digit at
    fractional position ``broken_at`` changed, and the widths asked."""
    calls = []

    def next_digits(prefix, n):
        calls.append(n)
        end = len(prefix) + n
        reps = max(end - len(head), 0) // len(cycle) + 1
        digits = list((head + cycle * reps)[:end])
        if broken_at is not None and broken_at <= end:
            digits[broken_at - 1] = str((int(digits[broken_at - 1]) + 1) % 10)
        return "".join(digits[len(prefix):])

    return next_digits, calls


class TestRepeatingTails:
    """``RepeatsFrom`` hints, and the exact periodic suprema of member
    families and lower cuts, against Fractions and long division."""

    @given(pools())
    @settings(max_examples=120, deadline=None)
    def test_finite_family_sup_is_the_maximum(self, fs):
        s = sup(finite_family([real_from_fraction(f) for f in fs]))
        assert s.is_exact and s.as_fraction() == max(fs)
        assert compare(s, real_from_fraction(max(fs)), 0) is Comparison.EQ

    @pytest.mark.parametrize("members", [
        ("60.(142857)", "60.(428571)", "12.5", "0.(09)"),
        ("-60.(142857)", "-60.(428571)", "-12.5", "-0.(09)"),
        ("-1.(3)", "-0.1(6)", "-0.1(7)"),
    ])
    def test_periodic_maximum_exactly(self, members):
        s = sup(finite_family(map(P, members)))
        want = max(P(m).as_fraction() for m in members)
        assert s.as_fraction() == want and str(s) in members

    @given(fractions_st)
    @settings(max_examples=80, deadline=None)
    @example(Fraction(1, 7))
    @example(Fraction(-1, 7))
    def test_lower_cut_sup_is_c(self, f):
        for c in (real_from_fraction(f), real_from_fraction(-f)):
            s = sup(lower_cut(c))
            assert s.is_exact and s == c
            assert compare(s, c, 0) is Comparison.EQ

    @pytest.mark.parametrize("index,period", [(1, 1), (1, 6), (4, 3),
                                              (70, 2), (2, 130)])
    def test_hint_read_in_one_block(self, index, period):
        head = "3" * (index - 1)
        cycle = "1" + "4" * (period - 1)
        next_digits, calls = periodic_selection(head, cycle)
        family = Family(lambda: 2, next_digits, RepeatsFrom(index, period))
        s = sup(family)
        nines = 10 ** period - 1
        want = 2 + (Fraction(int(head or "0")) + Fraction(int(cycle), nines)) \
            / 10 ** (index - 1)
        assert s.as_fraction() == want
        assert calls == [index - 1 + period + HINT_WINDOW]

    @pytest.mark.parametrize("negative", [False, True])
    def test_all_nines_cycle_is_repaired(self, negative):
        # 0.12(9) and 0.12(99) are the non-canonical spelling of 0.13
        for period in (1, 2):
            next_digits, _ = periodic_selection("12", "9" * period)
            family = Family(lambda: 0, next_digits, RepeatsFrom(3, period),
                            negative=negative)
            s = sup(family)
            assert isinstance(s, TerminatingReal)
            assert s.as_fraction() == Fraction(-13 if negative else 13, 100)

    @pytest.mark.parametrize("index,period", [(1, 6), (5, 3), (3, 100)])
    def test_belied_hint_raises(self, index, period):
        # the selection repeats except at one position: the check reads
        # positions index .. index - 1 + period + HINT_WINDOW
        head, cycle = "5" * (index - 1), "12" + "0" * (period - 2)
        last = index - 1 + period + HINT_WINDOW
        for broken_at in (index, index + period, last):
            next_digits, _ = periodic_selection(head, cycle, broken_at)
            family = Family(lambda: 0, next_digits,
                            RepeatsFrom(index, period))
            with pytest.raises(CanonicalViolation):
                sup(family)
        # past the window the claim is taken, and the value is the claim
        next_digits, _ = periodic_selection(head, cycle, last + 1)
        s = sup(Family(lambda: 0, next_digits, RepeatsFrom(index, period)))
        assert str(s) == f"0.{head}({cycle})"

    def test_wrong_period_raises(self):
        next_digits, _ = periodic_selection("", "123")
        family = Family(lambda: 0, next_digits, RepeatsFrom(1, 2))
        with pytest.raises(CanonicalViolation):
            sup(family)

    def test_hint_positions_checked(self):
        for bad in ((0, 1), (1, 0)):
            with pytest.raises(ValueError):
                RepeatsFrom(*bad)

    @pytest.mark.parametrize("f", [Fraction(1, 99999989),
                                   Fraction(-3, 99999989)])
    def test_period_past_the_cap_gives_a_stream(self, f):
        # a period of 99 999 988 digits is past MAX_EXPANSION_DIGITS: no
        # hint, and sup is the selection stream, which follows f
        assert 99999988 > MAX_EXPANSION_DIGITS
        for family in (finite_family([real_from_fraction(f),
                                      real_from_fraction(f - 1)]),
                       lower_cut(real_from_fraction(f))):
            assert family.tail is None
            s = sup(family)
            assert isinstance(s, OracleReal)
            assert render_digits(s, 60) == fraction_prefix(f, 60)

    @pytest.mark.parametrize("literal", ["2.120(1)", "0.(142857)",
                                         "-0.(142857)", "-3.1(6)",
                                         "45.00(3)", "-0.000(27)"])
    @pytest.mark.parametrize("j", [1, 30, 95])
    def test_certificates(self, literal, j):
        # the supremum c, exact, passes; c - 10**-j fails with a member
        # above it; c + 10**-j is strictly above c
        c = P(literal)
        top = c.as_fraction()
        members = [c, real_from_fraction(top - Fraction(1, 3)),
                   real_from_fraction(top - 2)]
        for family in (finite_family(members), lower_cut(c)):
            s = sup(family)
            assert s == c
            assert isinstance(check_sup_certificate(s, family, samples=20,
                                                    budget=100), Pass)
            low = real_from_fraction(top - Fraction(1, 10**j))
            verdict = check_sup_certificate(low, family, samples=20,
                                            budget=100)
            assert isinstance(verdict, FailBound)
            assert top - Fraction(1, 10**j) < verdict.witness.as_fraction() \
                <= top
            high = real_from_fraction(top + Fraction(1, 10**j))
            assert compare(s, high, j + 2) is Comparison.LT


class TestSelectionKernels:
    """The digit selection of member-backed families and lower cuts.

    References come from Fraction: long-division digits of the pool's
    maximum, and lower-cut digits chosen by exact Fraction sums."""

    @given(pools())
    @settings(max_examples=120, deadline=None)
    def test_finite_family_stream_follows_the_maximum(self, fs):
        family = finite_family([real_from_fraction(f) for f in fs])
        got = selection_stream(family, 300).render()
        assert got == fraction_prefix(max(fs), 300)

    def test_finite_family_long_shared_prefix(self):
        # the two largest agree on 290 digits and split past the first
        # read of member digits
        base = Fraction(2, 7) + 1
        fs = [near(base, 290, Fraction(1, 9)), near(base, 290, Fraction(1, 8)),
              base, Fraction(13, 10)]
        family = finite_family([real_from_fraction(f) for f in fs])
        assert selection_stream(family, 600).render() \
            == fraction_prefix(max(fs), 600)

    @staticmethod
    def cut_digit(f: Fraction, prefix: DigitPrefix) -> int:
        """The next digit of the cut below f, by Fraction sums."""
        n = len(prefix)
        base = prefix.int_part + Fraction(int(prefix.digits or "0"), 10**n)
        step = Fraction(1, 10 ** (n + 1))
        if f > 0:
            return max(d for d in range(10) if base + d * step < f)
        return min(d for d in range(10) if base + (d + 1) * step > -f)

    @pytest.mark.parametrize("text", [
        "0.(076923)", "-0.(09)", "0.1000(7)", "-2.00(1)", "1.000(3)",
        "2.05", "-0.75", "-3", "3.0005", "0.00001", "-0.00001", "100.001",
        "0",
    ])
    def test_lower_cut_matches_fraction_route(self, text):
        c = P(text)
        f = c.as_fraction()
        family = lower_cut(c)
        prefix = DigitPrefix(family.negative, family.max_integral(), "")
        ends_in_zero = 0
        for _ in range(80):
            want = self.cut_digit(f, prefix)
            assert family.next_digits(prefix, 1) == str(want)
            prefix = prefix.extend(want)
            ends_in_zero += prefix.digits.endswith("0")
        assert ends_in_zero

    @given(fractions_st)
    @settings(max_examples=60)
    def test_lower_cut_stream_matches_fraction_route(self, f):
        c = real_from_fraction(f)
        family = lower_cut(c)
        prefix = DigitPrefix(family.negative, family.max_integral(), "")
        for _ in range(40):
            want = self.cut_digit(f, prefix)
            assert family.next_digits(prefix, 1) == str(want)
            prefix = prefix.extend(want)

    def test_certificate_time_bound(self):
        # the selection rescanned every member's whole prefix per digit:
        # 0.72 s at budget 400; the hint is withheld, so that s is the
        # selection stream
        A = unhinted(builtin_family("paper-A"))
        start = time.process_time()
        verdict = check_sup_certificate(sup(A), A, samples=5, budget=400)
        assert time.process_time() - start < 0.1
        assert isinstance(verdict, Pass)

    def test_render_time_bound(self):
        # 4.4 s for 1000 digits when every digit rescanned the prefix
        start = time.process_time()
        got = render_digits(sup(unhinted(builtin_family("paper-A"))), 1000)
        assert time.process_time() - start < 0.2
        want = Fraction(212, 100) + Fraction(1, 9000)  # 2.120(1)
        assert got == fraction_prefix(want, 1000)


class TestTranslationScaling:
    @given(st.lists(st.builds(TerminatingDecimal,
                              st.integers(min_value=-10**5, max_value=10**5),
                              st.integers(min_value=0, max_value=4)),
                    min_size=1, max_size=6),
           st.builds(TerminatingDecimal,
                     st.integers(min_value=-10**4, max_value=10**4),
                     st.integers(min_value=0, max_value=3)))
    @settings(max_examples=150)
    def test_translation(self, members, b):
        shifted = set_sum({b}, set(members))
        assert max(shifted) == b + max(members)

    @given(st.lists(st.builds(TerminatingDecimal,
                              st.integers(min_value=-10**5, max_value=10**5),
                              st.integers(min_value=0, max_value=4)),
                    min_size=1, max_size=6),
           st.builds(TerminatingDecimal,
                     st.integers(min_value=1, max_value=10**4),
                     st.integers(min_value=0, max_value=3)))
    @settings(max_examples=150)
    def test_positive_scaling(self, members, b):
        scaled = set_product({b}, set(members))
        assert max(scaled) == b * max(members)


class TestIsUpperBound:
    def test_family_goldens(self):
        B = builtin_family("paper-B")
        assert isinstance(is_upper_bound(P("1"), B), Yes)
        verdict = is_upper_bound(P("0.999"), B)
        assert isinstance(verdict, No)
        assert verdict.witness.as_fraction() == Fraction(9991, 10000)

    def test_finite_goldens(self):
        S = FiniteSet((P("0.5"), P("1.25"), P("-3")))
        assert isinstance(is_upper_bound(sup(S), S), Yes)
        assert isinstance(is_upper_bound(P("1"), S), No)

    def test_worked_example(self):
        A = builtin_family("paper-A")
        assert isinstance(is_upper_bound(P("3"), A), Yes)
        verdict = is_upper_bound(P("2"), A)
        assert isinstance(verdict, No)
        assert verdict.witness.as_fraction() == Fraction(53, 25)

    def test_undecided_against_own_stream(self):
        # with the hint withheld the supremum is a stream, which the
        # family's maximum 2.120(1) agrees with through any budget
        A = unhinted(builtin_family("paper-A"))
        s = sup(A)
        assert isinstance(is_upper_bound(s, A, budget=50), Undecided)

    @pytest.mark.parametrize("b, c", [
        ("0.142", "0.(142857)"), ("-1", "-0.(3)"), ("2", "2.000001"),
        ("-0.5", "0")])
    def test_cut_refutes_a_bound_below_with_a_member(self, b, c):
        # the cut's bound hint refutes b < c, and the witness is a
        # member of the cut above b
        verdict = is_upper_bound(P(b), lower_cut(P(c)))
        assert isinstance(verdict, No)
        assert (P(b).as_fraction() < verdict.witness.as_fraction()
                < P(c).as_fraction())

    def test_unorderable_member_is_undecided(self):
        # sqrt(2) * sqrt(2) is 2, which no budget tells apart from 2
        S = FiniteSet((P("1"), mul(sqrt(P("2")), sqrt(P("2")))))
        assert isinstance(is_upper_bound(P("2"), S, budget=50), Undecided)

    @given(st.lists(fractions_st, min_size=1, max_size=6), fractions_st)
    @settings(max_examples=100)
    def test_finite_matches_fraction_oracle(self, fs, b):
        S = FiniteSet(tuple(real_from_fraction(f) for f in fs))
        verdict = is_upper_bound(real_from_fraction(b), S)
        if b >= max(fs):
            assert isinstance(verdict, Yes)
        else:
            assert isinstance(verdict, No)
            assert verdict.witness.as_fraction() > b


class TestCertificates:
    def test_worked_example_goldens(self):
        A = builtin_family("paper-A")
        out = check_sup_certificate(P("3"), A, samples=50, budget=200)
        assert isinstance(out, FailLeastness)
        # an upper bound below 3, no smaller than the supremum 2.120(1)
        assert Fraction(19081, 9000) <= out.witness.as_fraction() < 3
        out = check_sup_certificate(P("2"), A, samples=50, budget=200)
        assert isinstance(out, FailBound)
        assert out.witness.as_fraction() == Fraction(53, 25)
        assert isinstance(
            check_sup_certificate(sup(A), A, samples=50, budget=200), Pass)

    def test_other_builtins_pass(self):
        for name in ("paper-B", "paper-C", "paper-D"):
            fam = builtin_family(name)
            assert isinstance(
                check_sup_certificate(sup(fam), fam, samples=20), Pass)

    @given(st.lists(fractions_st, min_size=1, max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_finite_sets_pass(self, fs):
        S = FiniteSet(tuple(real_from_fraction(f) for f in fs))
        assert isinstance(check_sup_certificate(sup(S), S, samples=8), Pass)

    @given(st.lists(fractions_st, min_size=1, max_size=5),
           st.fractions(min_value=Fraction(1, 100), max_value=100,
                        max_denominator=100))
    @settings(max_examples=50, deadline=None)
    def test_finite_sets_refute_wrong_candidates(self, fs, eps):
        S = FiniteSet(tuple(real_from_fraction(f) for f in fs))
        high = real_from_fraction(max(fs) + eps)
        low = real_from_fraction(max(fs) - eps)
        assert isinstance(check_sup_certificate(high, S, samples=8),
                          FailLeastness)
        assert isinstance(check_sup_certificate(low, S, samples=8),
                          FailBound)

    def test_member_above_the_probe_can_refute_the_bound(self):
        # a family whose witness search finds nothing above s = 1, but
        # names 2 above the probe 1 - 10**-20: s stood as a bound only
        # for want of a witness, and the member found later refutes it
        one, two = P("1"), P("2")

        def member_above(b, budget):
            return two if compare(b, one, budget) is Comparison.LT else None

        family = Family(lambda: 2, lambda prefix, n: "0" * n,
                        RepeatsFrom(1, 1), member_above=member_above)
        out = check_sup_certificate(one, family, samples=20)
        assert isinstance(out, FailBound) and out.witness is two

    def test_leastness_is_sampled(self):
        # the probe sits at s - 10**-samples, so an s above the supremum
        # by 10**-5 fails at samples=20, and one above it by 10**-50 at
        # samples=60; below that resolution it may Pass (see the
        # check_sup_certificate docstring), and compare puts both above
        # sup whatever the certificate says
        L = builtin_family("lower-cut 0.5")
        close, far = P("0.5" + "0" * 48 + "1"), P("0.50001")
        assert isinstance(check_sup_certificate(far, L, samples=20),
                          FailLeastness)
        assert isinstance(check_sup_certificate(close, L, samples=60),
                          FailLeastness)
        for s in (close, far):
            assert compare(s, sup(L)) is Comparison.GT


class TestSetFiles:
    def test_literal_file(self, tmp_path):
        f = tmp_path / "finite.set"
        f.write_text("0.5\n1.25\n# comment\n-3\n")
        S = load_set_file(str(f))
        assert isinstance(S, FiniteSet)
        assert sup(S).as_fraction() == Fraction(5, 4)

    def test_family_directive(self, tmp_path):
        f = tmp_path / "fam.set"
        f.write_text("# family: lower-cut 0.125\n")
        assert sup(load_set_file(str(f))).as_fraction() == Fraction(1, 8)

    def test_bundled_files(self):
        from pathlib import Path
        root = Path(__file__).resolve().parent.parent
        for name, want in [("paper-B", Fraction(1)),
                           ("paper-C", Fraction(-19, 100)),
                           ("paper-D", Fraction(0))]:
            s = sup(load_set_file(str(root / "sets" / f"{name}.set")))
            assert s.as_fraction() == want
        periodic = sup(load_set_file(str(root / "sets" / "paper-A.set")))
        assert render_digits(periodic, 10) == "2.1201111111"
        assert periodic.as_fraction() == Fraction(212, 100) + Fraction(1, 9000)

    def test_directive_and_literals_conflict(self, tmp_path):
        f = tmp_path / "bad.set"
        f.write_text("# family: paper-B\n0.5\n")
        with pytest.raises(MalformedLiteral):
            load_set_file(str(f))

    def test_empty_file_rejected(self, tmp_path):
        f = tmp_path / "empty.set"
        f.write_text("\n")
        with pytest.raises((MalformedLiteral, ValueError)):
            load_set_file(str(f))


class TestSupDefinitionEquivalence:
    def test_third_plus_two_thirds(self):
        # truncation grids of the cuts of 1/3 and 2/3 at depth k: the
        # supremum of the pairwise sums approaches 1 from below
        x, y = Fraction(1, 3), Fraction(2, 3)
        for k in range(1, 7):
            step = Fraction(1, 10**k)
            top_x = (x / step).__floor__()
            top_y = (y / step).__floor__()
            grid_x = {TerminatingDecimal(top_x - j, k) for j in range(3)}
            grid_y = {TerminatingDecimal(top_y - j, k) for j in range(3)}
            best = max(set_sum(grid_x, grid_y))
            assert abs(best.as_fraction() - 1) <= 2 * step


# ---------------------------------------------------------------------------
# witnesses of the enumerable built-in families


def family_members(name: str):
    """The members of paper-B, paper-C or paper-D in enumeration order,
    as Fractions from the families' definitions."""
    def crowding():  # 0.991, 0.9991, ...: j nines, then a one
        return (1 - Fraction(9, 10 ** (j + 1)) for j in count(2))

    if name == "paper-B":
        yield from (Fraction(9, 10), Fraction(99, 100), Fraction(19, 100))
        yield from crowding()
    elif name == "paper-C":
        yield from (Fraction(-1), Fraction(-9, 10), Fraction(-99, 100),
                    Fraction(-19, 100))
        yield from (-m for m in crowding())
    else:
        yield from (-Fraction(1, 10 ** j) for j in count(1))


# no member exceeds these; paper-C attains its supremum
FAMILY_SUPREMA = {"paper-B": Fraction(1), "paper-C": Fraction(-19, 100),
                  "paper-D": Fraction(0)}


class Open(Exception):
    """The enclosure of a bound is too wide to tell the first member."""


def first_member_above(name: str, lo: Fraction, hi: Fraction):
    """The first member, in enumeration order, above a value known to lie
    in [lo, hi], or None when it is at least the supremum.  Raises Open
    when the supremum or a member lies inside the enclosure."""
    if lo >= FAMILY_SUPREMA[name]:
        return None
    if hi >= FAMILY_SUPREMA[name]:
        raise Open
    for m in family_members(name):
        if lo < m <= hi:
            raise Open
        if m > hi:
            return m


def shifted_root(q: Fraction, sign: int, p: int, e: int):
    """q + sign * sqrt(p) * 10**-e as a computed real, with enclosures
    from the long-hand square root; with it, [lo, hi] at 10**-(e + 40)."""
    def refine(m):
        r = sqrt_truncation(Fraction(p), m + e)
        ends = (q + sign * r / 10**e,
                q + sign * (r + Fraction(1, 10 ** (m + e))) / 10**e)
        return min(ends), max(ends)

    return computed(refine, f"shifted sqrt({p})"), refine(e + 40)


WITNESS_BUDGET = 400


@st.composite
def witness_probes(draw):
    """(family, b, lo, hi): a bound b near or far from the family's
    supremum, exact (terminating, periodic, a member itself) or computed,
    with an enclosure [lo, hi] of its value made without decreal."""
    name = draw(st.sampled_from(sorted(FAMILY_SUPREMA)))
    top = FAMILY_SUPREMA[name]
    k = draw(st.integers(min_value=0, max_value=300))
    kind = draw(st.sampled_from(["member", "near", "above", "far",
                                 "computed"]))
    if kind == "computed":
        p = draw(st.sampled_from([2, 3, 5, 7, 11]))
        sign = draw(st.sampled_from([-1, 1]))
        q = top - draw(st.integers(min_value=0, max_value=2))
        b, (lo, hi) = shifted_root(q, sign, p, k)
        return name, b, lo, hi
    if kind == "member":
        f = next(islice(family_members(name), k, None))
    else:
        t = draw(st.fractions(min_value=Fraction(1, 999), max_value=10,
                              max_denominator=999))
        f = {"near": top - t / 10**k, "above": top + t / 10**k,
             "far": top - t}[kind]
    return name, real_from_fraction(f), f, f


class TestFamilyWitnesses:
    """``member_above`` of paper-B, paper-C and paper-D against the
    families enumerated test-side."""

    @given(witness_probes())
    @example(("paper-B", P("0.999"), Fraction(999, 1000),
              Fraction(999, 1000)))
    @example(("paper-B", P("1"), Fraction(1), Fraction(1)))
    @example(("paper-C", P("-0.99"), Fraction(-99, 100),
              Fraction(-99, 100)))
    @example(("paper-D", P("-0.001"), Fraction(-1, 1000),
              Fraction(-1, 1000)))
    @settings(max_examples=150, deadline=None)
    def test_first_member_above(self, probe):
        name, b, lo, hi = probe
        try:
            want = first_member_above(name, lo, hi)
        except Open:
            assume(False)
        got = builtin_family(name).member_above(b, WITNESS_BUDGET)
        if want is None:
            assert got is None
        else:
            assert got is not None and got.as_fraction() == want

    @pytest.mark.parametrize("name", ["paper-B", "paper-D"])
    @pytest.mark.parametrize("e", [0, 3, 64, 199, 250, 300])
    def test_computed_bound_below_the_supremum(self, name, e):
        # the first member above sits e or so places into the tail
        top = FAMILY_SUPREMA[name]
        for p in (2, 3):
            b, (lo, hi) = shifted_root(top, -1, p, e)
            want = first_member_above(name, lo, hi)
            got = builtin_family(name).member_above(b, WITNESS_BUDGET)
            assert got is not None and got.as_fraction() == want

    @pytest.mark.parametrize("name", ["paper-B", "paper-D"])
    @pytest.mark.parametrize("i", [0, 7, 150])
    def test_bound_just_below_a_member(self, name, i):
        # b lies below the tail member w by far less than the width of
        # b's enclosure at the budget, which a pass at budget +
        # PASS_GUARD puts on the grid 10**-(budget + PASS_GUARD + 2); so
        # no enclosure at the budget tells b from w, and the witness is
        # the member after w: the first one known to be above b
        w, after = self.member_pair(name, i)
        b, (lo, hi) = shifted_root(w, -1, 2, WITNESS_BUDGET + PASS_GUARD + 5)
        assert hi < w == first_member_above(name, lo, hi)
        got = builtin_family(name).member_above(b, WITNESS_BUDGET)
        assert got is not None and got.as_fraction() == after

    @pytest.mark.parametrize("name", ["paper-B", "paper-D"])
    @pytest.mark.parametrize("i", [0, 7, 150])
    def test_bound_told_from_the_member_above(self, name, i):
        # 1.4 * 10**-(budget + 5) below w, b's enclosure at the budget
        # lies below w, so w itself is the witness
        w, _ = self.member_pair(name, i)
        b, (lo, hi) = shifted_root(w, -1, 2, WITNESS_BUDGET + 5)
        assert hi < w == first_member_above(name, lo, hi)
        got = builtin_family(name).member_above(b, WITNESS_BUDGET)
        assert got is not None and got.as_fraction() == w

    @staticmethod
    def member_pair(name: str, i: int) -> tuple[Fraction, Fraction]:
        """The i-th tail member and the one after it."""
        members = islice(family_members(name), i + (name == "paper-B") * 3,
                         None)
        return next(members), next(members)

    def test_witness_past_two_hundred_members(self):
        # the 253rd member, 250 nines and then a one: a scan of the
        # first 200 members left this bound undecided
        b = P("0." + "9" * 250)
        verdict = is_upper_bound(b, builtin_family("paper-B"), 400)
        assert isinstance(verdict, No)
        want = next(m for m in family_members("paper-B")
                    if m > Fraction(10**250 - 1, 10**250))
        assert verdict.witness.as_fraction() == want
        assert str(verdict.witness) == "0." + "9" * 250 + "1"


class TestVerdictReuse:
    """The one leastness probe orders the member it finds against s at
    most once; the verdicts and witnesses of whole certificates are
    checked against Fractions."""

    BUDGET = 100
    PAPER_A = (Fraction(1), Fraction(212, 100), Fraction(10, 9),
               Fraction(212, 100) + Fraction(1, 9000),
               Fraction(1120101, 10**6) + Fraction(1, 9 * 10**6))

    def test_each_member_walked_once_by_the_probes(self, monkeypatch):
        # the maximum is periodic and its hint is withheld, so s is a
        # stream that the maximum agrees with through the whole budget:
        # each walk of the pair reads all 100 digits and ends UNDECIDED
        members = [P(t) for t in ("12.5", "3.(3)", "60.(142857)",
                                  "60.(428571)", "41.25", "0.(09)")]
        family = unhinted(finite_family(members))
        s = sup(family)
        assert isinstance(s, OracleReal)
        walks = Counter()
        first_difference = realnum._first_difference

        def counting(vx, vy, budget):
            owners = (vx._read.__self__, vy._read.__self__)
            if any(isinstance(o, OracleReal) for o in owners):
                walks.update(i for i, m in enumerate(members)
                             if any(o is m for o in owners))
            return first_difference(vx, vy, budget)

        monkeypatch.setattr(realnum, "_first_difference", counting)
        # the bound side asks the family's member_above(s), which orders
        # every member against s on its own
        family.member_above(s, self.BUDGET)
        bound_side = Counter(walks)
        walks.clear()
        verdict = check_sup_certificate(s, family, samples=20,
                                        budget=self.BUDGET)
        assert isinstance(verdict, Pass)
        probes = {i: walks[i] - bound_side[i] for i in walks}
        assert bound_side == {2: 1, 3: 1}
        # one probe, finding one member above it and ordering it against
        # s once
        assert sum(probes.values()) <= 1

    @pytest.mark.parametrize("s,verdict,calls", [
        ("3.25", Pass, 9), ("61", FailLeastness, 10)])
    def test_finite_set_orders_each_member_once_per_side(
            self, monkeypatch, s, verdict, calls):
        # the bound side orders all five members against s; the probe
        # side orders them against the probe up to the first above it,
        # and never orders that member against s again
        members = FiniteSet(tuple(P(t) for t in
                                  ("1", "2.5", "0.(3)", "3.25", "-7")))
        counted = Counter()

        def counting(x, y, budget):
            counted["compare"] += 1
            return compare(x, y, budget)

        monkeypatch.setattr(supremum, "compare", counting)
        assert isinstance(check_sup_certificate(P(s), members), verdict)
        assert counted["compare"] == calls

    def check(self, S, top, eps, first_above):
        """Pass at the supremum top, FailLeastness above it and FailBound
        below it, with witnesses that the Fractions bear out.  The probe
        sits 10**-8 under a candidate, so a candidate less than that
        above top could pass."""
        def certify(s):
            return check_sup_certificate(s, S, samples=8, budget=self.BUDGET)

        assert isinstance(certify(sup(S)), Pass)
        high = certify(real_from_fraction(top + eps))
        assert isinstance(high, FailLeastness)
        assert top <= high.witness.as_fraction() < top + eps
        low = certify(real_from_fraction(top - eps))
        assert isinstance(low, FailBound)
        w = low.witness.as_fraction()
        if first_above is None:  # a lower cut: any decimal below top
            assert top - eps < w < top
        else:
            assert w == first_above(top - eps)

    @pytest.mark.parametrize("name", ["paper-A", "paper-B", "paper-C",
                                      "paper-D"])
    def test_builtins(self, name):
        if name == "paper-A":
            values = self.PAPER_A
            top = max(values)
            first_above = lambda b: next(v for v in values if v > b)
        else:
            top = FAMILY_SUPREMA[name]
            first_above = lambda b: first_member_above(name, b, b)
        self.check(builtin_family(name), top, Fraction(1, 70), first_above)

    @pytest.mark.parametrize("seed", range(50))
    def test_seeded_families_and_cuts(self, seed):
        rng = random.Random(seed)
        values = [Fraction(rng.randint(-999, 999),
                           rng.choice((1, 3, 4, 7, 9, 12, 40, 625)))
                  for _ in range(rng.randint(1, 6))]
        top = max(values)
        eps = Fraction(1, rng.choice((7, 30, 200)))
        family = finite_family(map(real_from_fraction, values))
        self.check(family, top, eps,
                   lambda b: next(v for v in values if v > b))
        self.check(lower_cut(real_from_fraction(top)), top, eps, None)


class TestResolution:
    """Leastness to ``samples`` decimal digits: s + 10**-j fails for every
    j < samples - 2, the supremum s itself passes, and the evidence a
    Pass carries replays with Fractions: its probe is s - 10**-samples
    exactly and its member, a member of the set, lies above the
    probe."""

    SAMPLES = 20
    JS = (1, 5, 11, 17)

    def check(self, S, top, is_member):
        s = sup(S)
        assert s.as_fraction() == top
        verdict = check_sup_certificate(s, S, samples=self.SAMPLES)
        assert isinstance(verdict, Pass)
        assert (verdict.samples, verdict.budget) == (self.SAMPLES,
                                                     DEFAULT_BUDGET)
        p, q = verdict.probe.as_fraction(), verdict.member.as_fraction()
        assert p == top - Fraction(1, 10**self.SAMPLES)
        assert p < q and is_member(q)
        for j in self.JS:
            high = top + Fraction(1, 10**j)
            out = check_sup_certificate(real_from_fraction(high), S,
                                        samples=self.SAMPLES)
            assert isinstance(out, FailLeastness), (j, out)
            assert top <= out.witness.as_fraction() < high

    @pytest.mark.parametrize("seed", range(50))
    def test_random_finite_sets(self, seed):
        rng = random.Random(seed)
        values = [Fraction(rng.randint(-999, 999),
                           rng.choice((1, 3, 4, 7, 9, 12, 40, 625)))
                  for _ in range(rng.randint(1, 6))]
        members = tuple(map(real_from_fraction, values))
        for S in (FiniteSet(members), finite_family(members)):
            self.check(S, max(values), values.__contains__)

    @pytest.mark.parametrize("name", ["paper-A", "paper-B", "paper-C",
                                      "paper-D"])
    def test_builtins(self, name):
        if name == "paper-A":
            values = TestVerdictReuse.PAPER_A
            top = max(values)
        else:  # the member above the probe is among the first 60
            values = tuple(islice(family_members(name), 60))
            top = FAMILY_SUPREMA[name]
        self.check(builtin_family(name), top, values.__contains__)

    @pytest.mark.parametrize("literal", ["0.5", "0", "-45.125", "0.(142857)",
                                         "-3.1(6)", "2.120(1)",
                                         "-0.000(27)"])
    def test_lower_cuts(self, literal):
        c = P(literal)
        top = c.as_fraction()
        self.check(lower_cut(c), top, top.__gt__)

    def test_resolution_past_the_budget_is_undecided(self):
        # a member of the cut above s - 10**-50 has more digits than a
        # budget of 45 reads, so the probe is refused, not guessed
        L = lower_cut(P("0.(142857)"))
        with pytest.raises(OrderUndecided):
            check_sup_certificate(sup(L), L, samples=50, budget=45)
        assert isinstance(
            check_sup_certificate(sup(L), L, samples=50, budget=60), Pass)


class TestLinearSelection:
    """Selection streams read in blocks: the digits a block selects are
    those picked one at a time, and long streams render in linear work."""

    @given(pools(), st.integers(min_value=0, max_value=120),
           st.integers(min_value=1, max_value=200))
    @settings(max_examples=80, deadline=None)
    def test_member_block_follows_the_maximum(self, fs, start, width):
        family = finite_family([real_from_fraction(f) for f in fs])
        top = max(fs) if family.negative else max(f for f in fs if f >= 0)
        ip, digits = fraction_prefix(top, start + width).lstrip("-").split(".")
        head = DigitPrefix(family.negative, int(ip), digits[:start])
        assert family.next_digits(head, width) == digits[start:]

    @given(fractions_st, st.integers(min_value=0, max_value=60),
           st.integers(min_value=1, max_value=120))
    @settings(max_examples=80, deadline=None)
    def test_cut_block_matches_fraction_route(self, f, start, width):
        family = lower_cut(real_from_fraction(f))
        prefix = DigitPrefix(family.negative, family.max_integral(), "")
        for _ in range(start + width):
            prefix = prefix.extend(TestSelectionKernels.cut_digit(f, prefix))
        head = DigitPrefix(prefix.negative, prefix.int_part,
                           prefix.digits[:start])
        assert family.next_digits(head, width) == prefix.digits[start:]

    @given(fractions_st, st.integers(min_value=0, max_value=3),
           st.text("0123456789", max_size=12),
           st.integers(min_value=1, max_value=40))
    @settings(max_examples=150, deadline=None)
    @example(Fraction(5, 2), 2, "4", 3)
    @example(Fraction(-5, 2), 2, "6", 3)
    @example(Fraction(5, 2), 2, "6", 3)
    @example(Fraction(1, 7), 0, "142858", 5)
    def test_cut_answers_any_prefix(self, f, int_part, digits, width):
        # prefixes off the selection: one that some member below c
        # extends reads on by Fraction sums, one that none extends has
        # left the cut
        family = lower_cut(real_from_fraction(f))
        prefix = DigitPrefix(family.negative, int_part, digits)
        value = int_part + Fraction(int(digits or "0"), 10 ** len(digits))
        inside = value < f if f > 0 else value + Fraction(
            1, 10 ** len(digits)) > -f
        if not inside:
            with pytest.raises(AssertionError):
                family.next_digits(prefix, width)
            return
        want = prefix
        for _ in range(width):
            want = want.extend(TestSelectionKernels.cut_digit(f, want))
        assert family.next_digits(prefix, width) == want.digits[len(digits):]

    def test_long_cut_stream(self):
        # 2.3 s for 8000 digits when every digit rebuilt the prefix and
        # decoded its units again
        start = time.process_time()
        family = unhinted(builtin_family("lower-cut 0.(142857)"))
        got = render_digits(sup(family), 16000)
        assert time.process_time() - start < 0.5
        assert got == "0." + long_division_digits(1, 7, 16000)

    def test_hinted_sup_reads_each_top_member_once(self, monkeypatch):
        # one block selects the hinted supremum, so each member with the
        # largest integer part is read once and no other member is read
        members = [P("1.5"), P("2.25"), P("2.(3)"), P("0.(142857)"),
                   P("2.1"), P("-3")]
        reads = Counter()
        for cls in (TerminatingReal, PeriodicReal):
            monkeypatch.setattr(
                cls, "_read", lambda self, n, read=cls._read:
                reads.update([id(self)]) or read(self, n))
        assert sup(finite_family(members)).as_fraction() == Fraction(7, 3)
        top = members[1], members[2], members[4]
        assert reads == Counter(id(m) for m in top)

    def test_long_member_stream(self):
        start = time.process_time()
        got = render_digits(sup(unhinted(builtin_family("paper-A"))), 16000)
        assert time.process_time() - start < 0.5
        want = Fraction(212, 100) + Fraction(1, 9000)  # 2.120(1)
        assert got == fraction_prefix(want, 16000)
