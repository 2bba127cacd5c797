"""The exact kernels against Fraction arithmetic, the kind of each exact
value decided once, and lazy fields that hold no lock across instances.

Oracles: Fraction sums, products, reciprocals, negations and order; the
kind of a value from trial division of its denominator by 2 and 5; and
the expected value built by the public constructors, ``PeriodicReal``
with its check and ``TerminatingDecimal(units, scale)``."""

import functools
import random
import threading
from fractions import Fraction

import pytest

from conftest import SEED
from decreal import realnum, terminating
from decreal.arithmetic import add, mul, neg, reciprocal
from decreal.rationals import PhiOk, phi_check, to_decimal
from decreal.realnum import (
    PeriodicReal,
    TerminatingReal,
    compare,
    parse_real,
    real_from_fraction,
)
from decreal.terminating import Comparison, TerminatingDecimal

# a period of 600 digits, and a terminating value of 400 digits
LONG_PERIODIC = 10**300 + 1
LONG_TERMINATING = 2**7 * 5**400


def two_five(den: int) -> tuple[int, int, int]:
    """(a, b, q) with den = 2^a * 5^b * q, q coprime to 10."""
    a = b = 0
    while den % 2 == 0:
        den, a = den // 2, a + 1
    while den % 5 == 0:
        den, b = den // 5, b + 1
    return a, b, den


def public(f: Fraction):
    """f as the public constructors build it."""
    a, b, q = two_five(f.denominator)
    if q != 1:
        return PeriodicReal(f)
    scale = max(a, b)
    return TerminatingReal(
        TerminatingDecimal(f.numerator * 10**scale // f.denominator, scale))


def assert_exact(value, f: Fraction) -> None:
    want = public(f)
    assert type(value) is type(want), (f, value)
    assert value == want and hash(value) == hash(want)
    assert value.as_fraction() == f
    if f.denominator < 10**4:
        assert str(value) == str(want)


def fractions_to_sweep(rng: random.Random) -> list[Fraction]:
    """Terminating and periodic values of both signs, zero, units and the
    two long denominators."""
    out = [Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 3),
           Fraction(-7, 40)]
    for _ in range(10):
        out.append(Fraction(rng.randint(-10**6, 10**6),
                            2**rng.randint(0, 9) * 5**rng.randint(0, 9)))
    for _ in range(14):
        q = rng.choice((3, 7, 11, 13, 21, 37, 41, 99, 101, 239, 9091))
        out.append(Fraction(rng.choice((-1, 1)) * rng.randint(1, 10**4),
                            q * 2**rng.randint(0, 3) * 5**rng.randint(0, 3)))
    for k in (1, -3, 10**299):
        out += [Fraction(k, LONG_PERIODIC), Fraction(k, LONG_TERMINATING)]
    return out


def operand(f: Fraction, way: int):
    """f built by real_from_fraction, by negating -f, or by parsing its
    literal, so each construction route feeds the kernels."""
    if way == 0:
        x = real_from_fraction(f)
    elif way == 1:
        x = real_from_fraction(-f).negated()
    else:
        x = parse_real(str(public(f)))
    assert_exact(x, f)
    return x


class TestAgainstFractions:
    def check_pair(self, f: Fraction, g: Fraction, rng: random.Random):
        x, y = operand(f, rng.randrange(3)), operand(g, rng.randrange(3))
        assert_exact(add(x, y), f + g)
        assert_exact(mul(x, y), f * g)
        assert_exact(neg(x), -f)
        if f:
            assert_exact(reciprocal(x), 1 / f)
        want = (Comparison.LT if f < g else Comparison.GT if f > g
                else Comparison.EQ)
        assert compare(x, y) is want
        assert isinstance(phi_check(f, g), PhiOk)

    def test_seeded_sweep(self):
        rng = random.Random(SEED)
        pool = fractions_to_sweep(rng)
        for _ in range(300):
            f, g = rng.choice(pool), rng.choice(pool)
            self.check_pair(f, g, rng)
            # a zero sum, a unit factor and, for a nonzero f, a unit
            # product
            self.check_pair(f, -f, rng)
            self.check_pair(f, Fraction(1), rng)
            if f:
                self.check_pair(f, 1 / f, rng)

    def test_many_terms(self):
        rng = random.Random(SEED + 1)
        pool = fractions_to_sweep(rng)
        for _ in range(100):
            fs = [rng.choice(pool) for _ in range(rng.randint(3, 7))]
            terms = [operand(f, rng.randrange(3)) for f in fs]
            assert_exact(add(*terms), sum(fs))
            # every term cancelled by its negation: the exact zero
            assert_exact(add(*terms, *(neg(t) for t in terms)), Fraction(0))

    def test_public_constructor_keeps_its_check(self):
        for f in (Fraction(3, 4), Fraction(-1, LONG_TERMINATING),
                  Fraction(5)):
            with pytest.raises(ValueError):
                PeriodicReal(f)

    def test_a_fraction_is_not_copied(self):
        f = Fraction(-22, 7)
        assert to_decimal(f).fraction is f
        assert_exact(to_decimal(3), Fraction(3))


class TestKindDecidedOnce:
    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        test = realnum.two_five_exponents

        def counting(den):
            calls.append(den)
            return test(den)

        monkeypatch.setattr(realnum, "two_five_exponents", counting)
        monkeypatch.setattr(terminating, "two_five_exponents", counting)
        return calls

    @pytest.mark.parametrize("f", [Fraction(1, 3), Fraction(-22, 7),
                                   Fraction(5, 6), Fraction(1, 7 * 2**40),
                                   Fraction(1, LONG_PERIODIC)])
    def test_one_test_per_periodic_value(self, calls, f):
        x = real_from_fraction(f)
        assert calls == [f.denominator]
        calls.clear()
        # a literal whose group is neither all zeros nor all nines, and a
        # negation, do not terminate: neither is tested
        text = str(x)
        parsed, negated = parse_real(text), x.negated()
        assert calls == []
        assert parsed.fraction == f and negated.fraction == -f
        assert isinstance(parsed, PeriodicReal)
        assert isinstance(negated, PeriodicReal)

    def test_one_test_per_kernel_result(self, calls):
        x, y = real_from_fraction(Fraction(1, 3)), parse_real("-2.1(6)")
        for make in (lambda: add(x, y), lambda: mul(x, y),
                     lambda: reciprocal(x), lambda: add(x, y, x),
                     lambda: to_decimal(Fraction(2, 9))):
            calls.clear()
            make()
            assert len(calls) == 1


class TestLazyFields:
    def test_no_cached_property_in_realnum(self):
        found = [(name, attr) for name, cls in vars(realnum).items()
                 if isinstance(cls, type)
                 for attr, v in vars(cls).items()
                 if isinstance(v, functools.cached_property)]
        assert found == []

    def test_a_slow_field_blocks_no_other_instance(self, monkeypatch):
        # thread A is held inside _expansion of 1/7; thread B must still
        # read _magnitude, _expansion and str() of 5/13.  A lock shared
        # by every instance of the class would hold B until A is let go.
        entered, release, done = (threading.Event() for _ in range(3))
        period_digits = realnum._period_digits

        def held(s, q, limit):
            if q == 7:
                entered.set()
                release.wait(timeout=30)
            return period_digits(s, q, limit)

        monkeypatch.setattr(realnum, "_period_digits", held)
        a = real_from_fraction(Fraction(1, 7))
        b = real_from_fraction(Fraction(5, 13))
        got = {}

        def read_a():
            got["a"] = str(a)

        def read_b():
            got["b"] = (b._magnitude, b._expansion, str(b))
            done.set()

        threads = [threading.Thread(target=read_a, daemon=True),
                   threading.Thread(target=read_b, daemon=True)]
        threads[0].start()
        try:
            assert entered.wait(timeout=30)
            threads[1].start()
            finished = done.wait(timeout=5)
        finally:
            release.set()
            for th in threads:
                if th.ident is not None:
                    th.join(timeout=30)
        assert finished, "a read of one value waited on another's"
        assert not any(th.is_alive() for th in threads)
        assert got == {"a": "0.(142857)",
                       "b": ((0, 5, 13), ("", "384615"), "0.(384615)")}
