"""Interval arithmetic: certified enclosures, exact fast paths, roots,
reciprocals, and the multiple-exceeding witness.

Oracles: Fraction arithmetic for exact results, long-hand square roots
for radicals, sequential long division for opaque digit streams.  Opaque
wrappers force the interval refiners even on rational data, so every
containment check here is a dual-route comparison."""

import fractions
import math
import sys
import threading
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    computed,
    expected_period_structure,
    fraction_digit,
    fraction_prefix,
    longhand_isqrt,
    opaque,
    sqrt_truncation,
)
from decreal import arithmetic, terminating
from decreal.arithmetic import (
    Enclosure,
    _Reciprocal,
    add,
    archimedean_witness,
    evaluate,
    mul,
    neg,
    reciprocal,
    sqrt,
)
from decreal.errors import DigitsUnstable, NegativeRadicand, SignUndecided
from decreal.realnum import (
    PASS_GUARD,
    ZERO_REAL,
    Classification,
    ComputedReal,
    OracleReal,
    PeriodicReal,
    TerminatingReal,
    classify,
    compare,
    parse_real,
    real_from_fraction,
    render_digits,
)
from decreal.terminating import Comparison, TerminatingDecimal

P = parse_real
fractions_st = st.fractions(min_value=-100, max_value=100,
                            max_denominator=1000)


def enclosure_contains(e: Enclosure, f: Fraction) -> bool:
    return e.lo.as_fraction() <= f <= e.hi.as_fraction()


def enclosure_width(e: Enclosure) -> Fraction:
    return e.hi.as_fraction() - e.lo.as_fraction()


class TestEnclosureType:
    def test_orientation_enforced(self):
        with pytest.raises(ValueError):
            Enclosure(TerminatingDecimal(2), TerminatingDecimal(1))

    def test_str(self):
        e = Enclosure(TerminatingDecimal(333, 3), TerminatingDecimal(334, 3))
        assert str(e) == "[0.333, 0.334]"


class TestEvaluate:
    @pytest.mark.parametrize("text,n,want", [
        ("0.(3)", 3, "[0.333, 0.334]"),
        ("2.12", 5, "[2.12, 2.12]"),
        ("-0.(3)", 2, "[-0.34, -0.33]"),
    ])
    def test_goldens(self, text, n, want):
        assert str(evaluate(P(text), n)) == want

    def test_periodic_past_int_str_cap(self):
        # 5000 threes exceed the interpreter's 4300-digit int<->str cap
        e = evaluate(P("0.(3)"), 5000)
        lo = Fraction(10**5000 - 1, 3 * 10**5000)
        assert e.lo.as_fraction() == lo
        assert e.hi.as_fraction() == lo + Fraction(1, 10**5000)

    @pytest.mark.parametrize("n", [1, 50, 4400, 5000])
    def test_periodic_is_the_floor_on_the_grid(self, rng, n):
        # a periodic value is never on the grid, so its enclosure is
        # [floor(f * 10**n), that + 1] * 10**-n for either sign; the
        # numerator 3k + 1 keeps the factor 3 of the denominator
        for digits in (1, 3, 1000):
            q = 3 * rng.randrange(10 ** (digits - 1), 10 ** digits)
            for sign in (1, -1):
                f = Fraction(sign * (3 * rng.randrange(10 * q) + 1), q)
                lo = Fraction(math.floor(f * 10**n), 10**n)
                e = evaluate(real_from_fraction(f), n)
                assert (e.lo.as_fraction(), e.hi.as_fraction()) == \
                    (lo, lo + Fraction(1, 10**n))

    @given(fractions_st, st.integers(min_value=1, max_value=50))
    @settings(max_examples=200)
    def test_soundness_and_width_on_streams(self, f, n):
        e = evaluate(opaque(f), n)
        assert enclosure_contains(e, f)
        assert enclosure_width(e) <= Fraction(1, 10**n)


class TestAdd:
    def test_boundary_golden(self):
        s = add(P("0.1(6)"), P("0.8(3)"))
        assert s.is_exact and s.as_fraction() == 1

    def test_zero_identity_returns_operand(self):
        x = opaque(Fraction(22, 7))
        assert add(x, ZERO_REAL) is x
        assert add(ZERO_REAL, x) is x

    @given(fractions_st, fractions_st, st.integers(min_value=1, max_value=40))
    @settings(max_examples=150)
    def test_stream_containment(self, f, g, n):
        e = evaluate(add(opaque(f), opaque(g)), n)
        assert enclosure_contains(e, f + g)
        assert enclosure_width(e) <= Fraction(1, 10**n)

    @given(fractions_st)
    @settings(max_examples=100)
    def test_cancellation_contains_zero(self, f):
        x = opaque(f)
        e = evaluate(add(x, x.negated()), 10)
        assert enclosure_contains(e, Fraction(0))


class TestNeg:
    def test_goldens(self):
        assert neg(P("0")).as_fraction() == 0
        assert str(neg(P("0.(142857)"))) == "-0.(142857)"

    @given(fractions_st)
    @settings(max_examples=100)
    def test_involution_exact(self, f):
        x = real_from_fraction(f)
        assert neg(neg(x)).as_fraction() == f


class TestMul:
    def test_goldens(self):
        assert mul(P("0.(3)"), P("3")).as_fraction() == 1
        x = opaque(Fraction(5, 7))
        assert mul(P("1"), x) is x
        assert str(mul(P("-2"), P("0.(3)"))) == "-0.(6)"

    def test_zero_short_circuit(self):
        assert mul(P("0"), opaque(Fraction(1, 3))).as_fraction() == 0

    @given(fractions_st, fractions_st, st.integers(min_value=1, max_value=40))
    @settings(max_examples=150)
    def test_stream_containment_all_signs(self, f, g, n):
        e = evaluate(mul(opaque(f), opaque(g)), n)
        assert enclosure_contains(e, f * g)
        assert enclosure_width(e) <= Fraction(1, 10**n)

    def test_large_magnitudes(self):
        f, g = Fraction(987654321, 7), Fraction(-123456789, 11)
        e = evaluate(mul(opaque(f), opaque(g)), 20)
        assert enclosure_contains(e, f * g)

    @pytest.mark.parametrize("text", ["1", "1.000", "1.0"])
    def test_unit_factors_return_the_other_operand(self, text):
        x = sqrt(P("2"))
        assert mul(P(text), x) is x and mul(x, P(text)) is x

    @pytest.mark.parametrize("text", ["-1", "10", "0.1", "1.01", "0.(1)"])
    def test_other_factors_make_a_node(self, text):
        x = sqrt(P("2"))
        assert mul(P(text), x) is not x and mul(x, P(text)) is not x

    @pytest.mark.parametrize("left,right,product", [
        ("1.5", "0.(6)", Fraction(1)),
        ("0.25", "-0.004", Fraction(-1, 1000)),
        ("0.1(6)", "0.(3)", Fraction(1, 18)),
        ("-12.5", "0.08", Fraction(-1)),
        ("0.(142857)", "7", Fraction(1)),
    ])
    def test_exact_products_match_fractions(self, left, right, product):
        got = mul(P(left), P(right))
        assert got.is_exact and got.as_fraction() == product
        assert got == real_from_fraction(product)


class TestReciprocal:
    def test_goldens(self):
        assert str(reciprocal(P("3"))) == "0.(3)"
        assert reciprocal(P("1")).as_fraction() == 1
        assert reciprocal(P("0.25")).as_fraction() == 4

    def test_zero_rejected(self):
        with pytest.raises(ZeroDivisionError):
            reciprocal(P("0"))

    def test_opaque_zero_undecided(self):
        zeros = opaque(Fraction(0))
        with pytest.raises(SignUndecided):
            reciprocal(zeros, budget=50)

    @given(st.fractions(min_value=Fraction(1, 500), max_value=500,
                        max_denominator=500),
           st.integers(min_value=1, max_value=40))
    @settings(max_examples=150)
    def test_stream_containment(self, f, n):
        e = evaluate(reciprocal(opaque(f)), n)
        assert enclosure_contains(e, 1 / f)
        assert enclosure_width(e) <= Fraction(1, 10**n)

    @given(st.fractions(min_value=Fraction(1, 500), max_value=500,
                        max_denominator=500))
    @settings(max_examples=100)
    def test_negative_inputs(self, f):
        e = evaluate(reciprocal(opaque(-f)), 20)
        assert enclosure_contains(e, -1 / f)

    def test_product_with_inverse_contains_one(self):
        x = opaque(Fraction(355, 113))
        e = evaluate(mul(x, reciprocal(x)), 25)
        assert enclosure_contains(e, Fraction(1))

    def test_computed_point_zero_rejected(self):
        # a computed value whose enclosure is the point 0 classifies as
        # zero when the node is built, and zero has no reciprocal
        zero = computed(lambda m: (Fraction(0), Fraction(0)))
        with pytest.raises(ZeroDivisionError):
            reciprocal(zero)


class TestSqrt:
    def test_goldens(self):
        assert sqrt(P("4")).as_fraction() == 2
        assert sqrt(P("1")).as_fraction() == 1
        assert sqrt(P("0")).as_fraction() == 0
        assert sqrt(real_from_fraction(Fraction(9, 4))).as_fraction() == \
            Fraction(3, 2)

    def test_sqrt2_enclosure_golden(self):
        assert str(evaluate(sqrt(P("2")), 10)) == \
            "[1.4142135623, 1.4142135624]"

    def test_negative_rejected(self):
        with pytest.raises(NegativeRadicand):
            sqrt(P("-1"))
        with pytest.raises(NegativeRadicand):
            sqrt(opaque(Fraction(-2)))

    @pytest.mark.parametrize("text,root", [
        ("0.25", Fraction(1, 2)),
        ("2.25", Fraction(3, 2)),
        ("0.0004", Fraction(1, 50)),
        ("0.(1)", Fraction(1, 3)),
        ("0.(4)", Fraction(2, 3)),
        ("0", Fraction(0)),
    ])
    def test_exact_squares(self, text, root):
        x = sqrt(P(text))
        assert x.is_exact and x.as_fraction() == root
        assert x == real_from_fraction(root)

    @pytest.mark.parametrize("text,radicand", [
        ("2", Fraction(2)),
        ("0.2", Fraction(1, 5)),
        ("0.(3)", Fraction(1, 3)),
        ("127", Fraction(127)),
        ("0.00(27)", Fraction(3, 1100)),
    ])
    def test_exact_non_squares(self, text, radicand):
        x = sqrt(P(text))
        assert isinstance(x, ComputedReal)
        for n in (1, 40, 301):
            assert render_digits(x, n) == fraction_prefix(
                sqrt_truncation(radicand, n), n)

    @pytest.mark.parametrize("text,message", [
        ("-0.25", "square root of -1/4"),
        ("-2", "square root of -2"),
        ("-0.(3)", "square root of -1/3"),
        ("-127.5", "square root of -255/2"),
    ])
    def test_negative_exact_radicand_text(self, text, message):
        with pytest.raises(NegativeRadicand) as raised:
            sqrt(P(text))
        assert str(raised.value) == message

    def test_defining_property_exact_radicand(self):
        x = sqrt(P("2"))
        for n in (5, 30, 80):
            e = evaluate(x, n)
            lo, hi = e.lo.as_fraction(), e.hi.as_fraction()
            assert lo * lo <= 2 <= hi * hi
            assert enclosure_width(e) <= Fraction(1, 10**n)

    @given(st.fractions(min_value=Fraction(1, 300), max_value=1000,
                        max_denominator=300),
           st.integers(min_value=1, max_value=30))
    @settings(max_examples=150)
    def test_matches_isqrt_oracle(self, r, n):
        e = evaluate(sqrt(real_from_fraction(r)), n)
        lo, hi = e.lo.as_fraction(), e.hi.as_fraction()
        trunc = sqrt_truncation(r, n)
        # trunc <= sqrt(r) < trunc + 10^-n must intersect the enclosure
        assert lo * lo <= r <= hi * hi
        assert lo <= trunc + Fraction(1, 10**n) and hi >= trunc

    @given(st.fractions(min_value=Fraction(1, 100), max_value=100,
                        max_denominator=200))
    @settings(max_examples=75)
    def test_opaque_radicand(self, r):
        e = evaluate(sqrt(opaque(r)), 20)
        lo, hi = e.lo.as_fraction(), e.hi.as_fraction()
        assert lo * lo <= r <= hi * hi
        assert enclosure_width(e) <= Fraction(1, 10**20)

    def test_render_past_int_str_cap(self):
        want = fraction_prefix(sqrt_truncation(Fraction(2), 5000), 5000)
        assert render_digits(sqrt(P("2")), 5000) == want

    def test_ten_thousand_digits(self):
        want = fraction_prefix(sqrt_truncation(Fraction(2), 10**4), 10**4)
        t0 = time.process_time()
        got = render_digits(sqrt(P("2")), 10**4)
        elapsed = time.process_time() - t0
        assert got == want
        assert elapsed < 0.5, f"took {elapsed:.3f} s of CPU time"

    def test_square_of_root_contains_radicand(self):
        for r in (Fraction(2), Fraction(3, 7), Fraction(99, 10)):
            x = sqrt(real_from_fraction(r))
            e = evaluate(mul(x, x), 30)
            assert enclosure_contains(e, r)

    def test_computed_point_zero_is_exact_zero(self):
        # the root of a computed radicand whose enclosure is the point 0
        # is exact zero, not a record over the radicand
        zero = computed(lambda m: (Fraction(0), Fraction(0)))
        root = sqrt(zero)
        assert isinstance(root, TerminatingReal) and root.value.is_zero()


class TestDigitsUnstable:
    def test_boundary_product(self):
        two = mul(sqrt(P("2")), sqrt(P("2")))
        with pytest.raises(DigitsUnstable):
            render_digits(two, 8)
        e = evaluate(two, 12)  # the enclosure remains available
        assert enclosure_contains(e, Fraction(2))
        assert enclosure_width(e) <= Fraction(1, 10**12)


class TestArchimedean:
    def test_goldens(self):
        assert archimedean_witness(P("1"), P("5.5")) == 6
        assert archimedean_witness(P("0.(3)"), P("10")) == 31
        assert archimedean_witness(P("2"), P("-7")) == 1

    def test_requires_provably_positive(self):
        with pytest.raises(ValueError):
            archimedean_witness(P("0"), P("1"))
        with pytest.raises(ValueError):
            archimedean_witness(P("-2"), P("1"))
        with pytest.raises((ValueError, SignUndecided)):
            archimedean_witness(opaque(Fraction(0)), P("1"), budget=40)

    @given(st.fractions(min_value=Fraction(1, 1000), max_value=1000,
                        max_denominator=1000),
           fractions_st)
    @settings(max_examples=200)
    def test_exact_witness_minimal(self, x, y):
        n = archimedean_witness(real_from_fraction(x), real_from_fraction(y))
        assert n >= 1 and n * x > y
        if n > 1:
            assert (n - 1) * x <= y

    @given(st.fractions(min_value=Fraction(1, 100), max_value=100,
                        max_denominator=100),
           st.fractions(min_value=-100, max_value=100, max_denominator=100))
    @settings(max_examples=75)
    def test_stream_witness_sound(self, x, y):
        n = archimedean_witness(opaque(x), opaque(y))
        assert n >= 1 and n * x > y


class TestComposition:
    def test_mixed_pipeline(self):
        # (sqrt(2) + sqrt(8)) * (sqrt(2) - sqrt(8)) = 2 - 8 = -6
        a, b = sqrt(P("2")), sqrt(P("8"))
        prod = mul(add(a, b), add(a, neg(b)))
        e = evaluate(prod, 25)
        assert enclosure_contains(e, Fraction(-6))
        assert enclosure_width(e) <= Fraction(1, 10**25)

    def test_nested_sqrt(self):
        # sqrt(sqrt(16)) = 2
        e = evaluate(sqrt(sqrt(opaque(Fraction(16)))), 15)
        assert enclosure_contains(e, Fraction(2))


def _signed_bounds(x, negate: bool, m: int) -> tuple[Fraction, Fraction, int]:
    """bounds(m) of x, read through neg(x) when negate is set, and the k
    of the grid 10**-k it lies on: p + 1 after a pass at p, or m for a
    stream (mul by an exact 1 is the other operand)."""
    node = neg(x) if negate else x
    lo, hi = node.bounds(m)
    k = node._p + 1 if isinstance(node, ComputedReal) else m
    return (-hi, -lo, k) if negate else (lo, hi, k)


def _grid_aligned(lo: Fraction, hi: Fraction, k: int) -> bool:
    """Both ends are multiples of 10**-k."""
    return all(10 ** k % b.denominator == 0 for b in (lo, hi))


precisions_st = st.integers(min_value=0, max_value=5000)


def _is_square(v: int) -> bool:
    return longhand_isqrt(v) ** 2 == v


# rational squares come back exact, off the grid (sqrt(4/9) = 0.(6))
radicands_st = st.fractions(
    min_value=Fraction(1, 300), max_value=1000, max_denominator=300,
).filter(lambda r: not (_is_square(r.numerator)
                        and _is_square(r.denominator)))
nonzero_st = fractions_st.filter(lambda f: f != 0)


class TestGridKernels:
    """bounds(m) of every integer kernel contains the value, is at most
    10**-m wide and lies on the decimal grid, for both signs."""

    @given(radicands_st, st.booleans(), precisions_st)
    @settings(max_examples=60, deadline=None)
    def test_sqrt_exact_radicand(self, r, negate, m):
        lo, hi, k = _signed_bounds(sqrt(real_from_fraction(r)), negate, m)
        assert 0 <= lo and lo * lo <= r <= hi * hi
        assert hi - lo <= Fraction(1, 10**m)
        assert _grid_aligned(lo, hi, k)

    @given(radicands_st, st.booleans(), precisions_st)
    @settings(max_examples=40, deadline=None)
    def test_sqrt_computed_radicand(self, r, negate, m):
        lo, hi, k = _signed_bounds(sqrt(opaque(r)), negate, m)
        assert 0 <= lo and lo * lo <= r <= hi * hi
        assert hi - lo <= Fraction(1, 10**m)
        assert _grid_aligned(lo, hi, k)

    @given(nonzero_st, precisions_st)
    @settings(max_examples=40, deadline=None)
    def test_reciprocal(self, f, m):
        lo, hi, k = _signed_bounds(reciprocal(opaque(f)), False, m)
        assert lo <= 1 / f <= hi
        assert hi - lo <= Fraction(1, 10**m)
        assert _grid_aligned(lo, hi, k)

    @given(nonzero_st, nonzero_st, st.booleans(), precisions_st)
    @settings(max_examples=40, deadline=None)
    def test_mul(self, f, g, exact_left, m):
        left = real_from_fraction(f) if exact_left else opaque(f)
        lo, hi, k = _signed_bounds(mul(left, opaque(g)), False, m)
        assert lo <= f * g <= hi
        assert hi - lo <= Fraction(1, 10**m)
        assert _grid_aligned(lo, hi, k)


def _holds(value: Fraction):
    """The value lies in [lo, hi] * 10**-k."""
    return lambda lo, hi, k: lo <= value * 10**k <= hi


def _holds_root(r: Fraction):
    """sqrt(r) lies in [lo, hi] * 10**-k, decided on integers squared."""
    def within(lo, hi, k):
        t = r * 10 ** (2 * k)
        return 0 <= hi and t <= hi * hi and (lo <= 0 or lo * lo <= t)
    return within


grid_precisions_st = st.integers(min_value=0, max_value=2000)
periodic_st = fractions_st.filter(
    lambda f: expected_period_structure(f.denominator)[1] > 0)


class TestGridContract:
    """_grid(m) of every variant and of each kernel node: k >= m, the
    value lies in [lo, hi] * 10**-k, and hi - lo <= 10**(k - m), read
    directly and through negation.  A terminating value is the exception
    the contract allows: it answers with its own point, lo == hi on its
    own grid, whatever m is."""

    @staticmethod
    def check(x, negate: bool, m: int, within) -> None:
        lo, hi, k = (x.negated() if negate else x)._grid(m)
        if negate:
            lo, hi = -hi, -lo
        assert k >= m
        assert hi - lo <= 10 ** (k - m)
        assert within(lo, hi, k)

    @given(st.integers(-10**6, 10**6), st.integers(0, 30), st.booleans(),
           grid_precisions_st)
    @settings(max_examples=40, deadline=None)
    def test_terminating(self, units, scale, negate, m):
        x = TerminatingReal(TerminatingDecimal(units, scale))
        lo, hi, k = (x.negated() if negate else x)._grid(m)
        value = Fraction(units, 10**scale)
        assert lo == hi and k <= scale
        assert Fraction(lo, 10**k) == (-value if negate else value)

    @given(periodic_st, st.booleans(), grid_precisions_st)
    @settings(max_examples=40, deadline=None)
    def test_periodic(self, f, negate, m):
        self.check(real_from_fraction(f), negate, m, _holds(f))

    @given(fractions_st, st.booleans(), grid_precisions_st)
    @settings(max_examples=40, deadline=None)
    def test_oracle(self, f, negate, m):
        self.check(opaque(f), negate, m, _holds(f))

    @given(st.lists(fractions_st, min_size=2, max_size=14), st.booleans(),
           grid_precisions_st)
    @settings(max_examples=30, deadline=None)
    def test_add(self, fs, negate, m):
        # odd positions exact, so sums mix exact and stream terms
        terms = [real_from_fraction(f) if i % 2 else opaque(f)
                 for i, f in enumerate(fs)]
        self.check(add(*terms), negate, m, _holds(sum(fs)))

    @given(nonzero_st, nonzero_st, st.booleans(), st.booleans(),
           grid_precisions_st)
    @settings(max_examples=30, deadline=None)
    def test_mul(self, f, g, exact_left, negate, m):
        left = real_from_fraction(f) if exact_left else opaque(f)
        self.check(mul(left, opaque(g)), negate, m, _holds(f * g))

    @given(nonzero_st, st.booleans(), grid_precisions_st)
    @settings(max_examples=30, deadline=None)
    def test_reciprocal(self, f, negate, m):
        self.check(reciprocal(opaque(f)), negate, m, _holds(1 / f))

    @given(radicands_st, st.booleans(), st.booleans(), grid_precisions_st)
    @settings(max_examples=30, deadline=None)
    def test_sqrt(self, r, exact, negate, m):
        x = sqrt(real_from_fraction(r) if exact else opaque(r))
        self.check(x, negate, m, _holds_root(r))


def _recorded(x) -> tuple[ComputedReal, list[int]]:
    """x behind a ComputedReal that records every precision asked of it."""
    asked: list[int] = []

    def refine(m: int) -> tuple[int, int, int]:
        asked.append(m)
        return x._grid(m)

    return ComputedReal(refine, "recorded"), asked


class TestSettledSign:
    """classify settles the sign of an operand of reciprocal or sqrt once,
    when the node is built, and every enclosure of the operand excludes
    zero from then on: building reads nothing more, and a negative
    operand is one record."""

    @staticmethod
    def refusing() -> OracleReal:
        # 0.000000003, and a refusal from digit 10 on
        def digit(i: int) -> int:
            if i >= 10:
                raise RuntimeError(f"digit {i} refused")
            return 3 if i == 9 else 0

        return OracleReal(digit_fn=digit)

    @pytest.mark.parametrize("op", [reciprocal, sqrt])
    def test_built_without_reading_past_the_sign(self, op):
        x = self.refusing()
        assert classify(x) is Classification.POSITIVE
        op(x)

    def test_refusal_raised_where_a_digit_needs_it(self):
        # sqrt(3e-9) = 0.0000547...: three digits need x to 9 digits
        # only, and five need its tenth
        root = sqrt(self.refusing())
        assert render_digits(root, 3) == "0.000"
        with pytest.raises(RuntimeError, match="digit 10 refused"):
            render_digits(root, 5)

    @pytest.mark.parametrize("x,value", [
        (add(neg(sqrt(P("2"))), P("1")), None),  # 1 - sqrt(2)
        (opaque(Fraction(-22, 7)), Fraction(-7, 22)),
    ], ids=["computed", "stream"])
    def test_negative_operand_is_one_record(self, x, value, monkeypatch):
        calls = []

        def counted(t, budget):
            calls.append(t)
            return classify(t, budget)

        monkeypatch.setattr(arithmetic, "classify", counted)
        r = reciprocal(x)
        assert type(r) is _Reciprocal and r._operands == (x,)
        assert calls == [x]
        if value is None:  # 1 / (1 - sqrt(2)) = -(1 + sqrt(2))
            value = -1 - sqrt_truncation(Fraction(2), 40)
        assert render_digits(r, 30) == fraction_prefix(value, 30)


class TestPrecisionDemand:
    @pytest.mark.parametrize("depth", [1, 2, 4, 8])
    def test_nested_sqrt_demand_linear_in_depth(self, depth):
        n = 50
        x, asked = _recorded(opaque(Fraction(5, 3)))
        for _ in range(depth):
            x = sqrt(add(x, P("1")))
        x.bounds(n)
        assert max(asked) <= n + 4 * depth, asked

    @pytest.mark.parametrize("kind", ["mul", "sqrt", "reciprocal"])
    def test_demand_bounded_whatever_the_depth(self, kind):
        # no level adds digits of its own: a leaf under 3000 levels is
        # asked for the 30 digits rendered, the few the chain loses on
        # the way up and PASS_GUARD, where a fixed guard for each level
        # would ask for thousands
        x, asked = _recorded(opaque(Fraction(5, 3)))
        text = render_digits(_chain(kind, 3000, x), 30)
        assert text == _chain_prefix(kind, 3000, 30, Fraction(5, 3))
        assert max(asked) < 100, asked


class TestRefineSchedule:
    """The precisions each refine loop asks of a node, recorded: a change
    to the shared schedule shows here as a change of work."""

    @staticmethod
    def tiny():
        # sqrt(2) - 1.41421356, about 2.4e-9: positive, but not at first
        return _recorded(add(sqrt(P("2")), P("-1.41421356")))

    def test_pin(self):
        x, asked = _recorded(sqrt(P("2")))
        assert (Fraction(render_digits(x, 50))
                == sqrt_truncation(Fraction(2), 50))
        assert x.digit_at(60) == fraction_digit(
            sqrt_truncation(Fraction(2), 60), 60)
        assert asked == [53, 63]

    def test_integral_part(self):
        x, asked = _recorded(add(sqrt(P("2")), P("-1.4142")))
        assert x.integral_part() == 0
        assert asked == [3]

    def test_classify(self):
        # the recorded node answers with the enclosure of the sum below
        # it, which that sum's own pass made 10**-9 wide
        x, asked = self.tiny()
        assert classify(x, 100) is Classification.POSITIVE
        assert asked == [5]

    def test_reciprocal(self):
        x, asked = self.tiny()
        # the first pass at 33 misses 11 digits: 1/x magnifies the width
        # of x by about x**-2, 1.7e17
        render_digits(reciprocal(x), 30)
        assert asked == [5, 33, 47]

    def test_sqrt(self):
        x, asked = self.tiny()
        render_digits(sqrt(x), 30)
        assert asked == [5, 33]

    def test_archimedean_witness(self):
        # the witness comes from the first positive lower end, 2e-9
        x, asked = self.tiny()
        n = archimedean_witness(x, P("1000"))
        assert n == 500000000001
        assert n * (sqrt_truncation(Fraction(2), 30)
                    - Fraction(141421356, 10**8)) > 1000
        assert asked == [5]

    def test_witness_reads_a_stream_at_its_first_nonzero_digit(self):
        # classify finds the stream's first nonzero digit, at 5, and no
        # enclosure of the stream is coarser than that afterwards; y is
        # read on the same grid, by a pass at 5 + PASS_GUARD
        x = OracleReal(digit_fn=lambda i: 2 if i == 5 else 0)
        y, asked = _recorded(sqrt(P("2")))
        assert archimedean_witness(x, y) == 70711
        assert asked == [5 + PASS_GUARD]

    def test_witness_reads_y_to_the_first_digit_of_x(self):
        # x's cached enclosure is 10**-2000 wide, but y is read only to
        # x's first nonzero digit, the first place
        x = sqrt(P("2"))
        render_digits(x, 2000)
        y, asked = _recorded(sqrt(P("3")))
        assert archimedean_witness(x, y) == 2
        assert asked == [1 + PASS_GUARD]

    def test_pin_exhausts_window(self):
        x, asked = _recorded(mul(sqrt(P("2")), sqrt(P("2"))))
        with pytest.raises(DigitsUnstable) as info:
            x.digit_at(3)
        assert (info.value.digits, info.value.budget) == (3, 64)
        # pin asks 3, 5, 9, 17, 33, 65 and 67; each pass answers with the
        # enclosure of the product's own pass, fine enough for the next
        # request whenever that is at most 3 digits more
        assert asked == [6, 20, 36, 68]

    def test_compare_reads_blocks(self, monkeypatch):
        # an equal pair: the walk reads every digit up to the budget, in
        # O(log budget) pins, and asks no precision past the budget
        pins = Counter()
        pin = ComputedReal._pin

        def counted(self, n, *args):
            pins[self] += 1
            return pin(self, n, *args)

        monkeypatch.setattr(ComputedReal, "_pin", counted)
        x, asked_x = _recorded(mul(sqrt(P("2")), sqrt(P("3"))))
        y, asked_y = _recorded(sqrt(P("6")))
        assert compare(x, y, 3000) is Comparison.UNDECIDED
        assert asked_x == asked_y == [11, 67, 3003]
        limit = 2 * math.ceil(math.log2(3000))
        assert 0 < pins[x] <= limit and 0 < pins[y] <= limit, pins

    # classify asks 2, 4, 8, 16, 32 and 40 at budget 40; the pass at 5
    # answers with the sum's enclosure on the grid 10**-9, which already
    # serves 3, 4 and 8: mul reads nothing when it is built, so sqrt(2)
    # is first read by that pass
    @pytest.mark.parametrize("budget,want", [
        (0, [3]), (1, [4]), (2, [5]), (3, [5]),
        (40, [5, 19, 35, 43]),
    ])
    def test_classify_exhausts_budget(self, budget, want):
        root = sqrt(P("2"))
        x, asked = _recorded(add(root, mul(root, P("-1"))))
        with pytest.raises(SignUndecided):
            classify(x, budget)
        assert asked == want

    def test_compare_prefilter(self):
        x, asked_x = _recorded(mul(sqrt(P("2")), sqrt(P("3"))))
        y, asked_y = _recorded(sqrt(P("6")))
        assert compare(x, y, 300) is Comparison.UNDECIDED
        assert asked_x == asked_y == [11, 67, 303]


class TestSums:
    @pytest.mark.parametrize("count", [2, 10, 11, 100, 101, 1000])
    def test_terms_read_once_at_the_pass_precision(self, count):
        # a sum adds no digits of its own for its terms: each is read by
        # the one pass at m + PASS_GUARD, whatever the count
        root = sqrt(P("2"))
        recorded = [_recorded(root) for _ in range(count)]
        total = add(*(x for x, _ in recorded))
        total._grid(40)
        assert all(asked == [40 + PASS_GUARD] for _, asked in recorded)

    def test_sum_of_sums_is_one_node(self):
        a, b, c = sqrt(P("2")), sqrt(P("3")), sqrt(P("5"))
        total = add(add(a, P("1")), add(b, add(c, P("-1"))))
        assert total.streams == [a, b, c] and total.exact == []

    def test_api_chain_renders(self):
        # a chain through the Python API nests no closure a term
        x = P("0")
        for _ in range(600):
            x = add(x, sqrt(P("2")))
        assert (Fraction(render_digits(x, 30))
                == sqrt_truncation(Fraction(720_000), 30))  # 600 * sqrt(2)


def _chain(kind: str, depth: int, x=None):
    """A chain of ``depth`` calls of the Python API, over x if given."""
    if kind == "mul":
        x = P("1") if x is None else x
        for _ in range(depth):
            x = mul(x, sqrt(P("1.001")))
    elif kind == "sqrt":
        x = P("0") if x is None else x
        for _ in range(depth):
            x = sqrt(add(x, P("3")))
    elif kind == "reciprocal":
        # from sqrt(2): a rational start would stay exact
        x = sqrt(P("2")) if x is None else x
        for _ in range(depth):
            x = reciprocal(add(x, P("1")))
    else:
        # negative operands all the way, towards (1 - sqrt(5)) / 2
        x = neg(sqrt(P("2"))) if x is None else x
        for _ in range(depth):
            x = reciprocal(add(x, P("-1")))
    return x


def _chain_prefix(kind: str, depth: int, n: int, start=None) -> str:
    """The chain's first n digits, from Fractions and long-hand roots:
    both ends of an enclosure of the value must give the same text.
    ``start`` is the Fraction value of the x the chain was built over."""
    ulp = Fraction(1, 10 ** (n + 10))
    if kind == "mul":
        # sqrt(1.001)**(2k) = 1.001**k exactly
        lo = hi = (1 if start is None else start) * (
            Fraction(1001, 1000) ** (depth // 2))
    elif kind == "sqrt":
        lo = hi = Fraction(0) if start is None else start
        for _ in range(depth):
            lo = sqrt_truncation(lo + 3, n + 10)
            hi = sqrt_truncation(hi + 3, n + 10) + ulp
    else:
        if start is None:
            lo = sqrt_truncation(Fraction(2), n + 10)
            hi = lo + ulp
            if kind == "neg_reciprocal":
                lo, hi = -hi, -lo
        else:
            lo = hi = start
        shift = 1 if kind == "reciprocal" else -1
        for _ in range(depth):
            lo, hi = 1 / (hi + shift), 1 / (lo + shift)
    want = fraction_prefix(lo, n)
    assert fraction_prefix(hi, n) == want
    return want


def _counted_render(x, n: int) -> tuple[str, int]:
    """render_digits(x, n) and the number of node refinements it ran."""
    steps = 0

    def profile(frame, event, arg):
        nonlocal steps
        if event == "call" and frame.f_code.co_name == "_step":
            steps += 1

    sys.setprofile(profile)
    try:
        text = render_digits(x, n)
    finally:
        sys.setprofile(None)
    return text, steps


@pytest.fixture
def default_recursion_limit():
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    yield
    sys.setrecursionlimit(old)


class TestDeepChains:
    """API chains of 1000 and 10 000 calls build and render at the
    default recursion limit: the evaluator keeps its own stack, a
    product reads nothing when it is built, and no level adds digits of
    its own to what it asks below."""

    @pytest.mark.parametrize("kind", ["mul", "sqrt", "reciprocal",
                                      "neg_reciprocal"])
    def test_api_chain_renders(self, kind, default_recursion_limit):
        want = _chain_prefix(kind, 1000, 30)
        start = time.process_time()
        x = _chain(kind, 1000)
        built = time.process_time() - start
        text, steps = _counted_render(x, 30)
        elapsed = time.process_time() - start
        assert text == want
        assert elapsed < 2, f"took {elapsed:.3f} s of CPU time"
        if kind == "mul":
            assert built < 0.2, f"built in {built:.3f} s of CPU time"
        # refinements grow linearly with the depth of the chain
        _, steps_100 = _counted_render(_chain(kind, 100), 30)
        assert steps <= 10.5 * steps_100, (steps, steps_100)
        assert isinstance(repr(x), str)

    @pytest.mark.parametrize("kind", ["mul", "sqrt", "reciprocal",
                                      "neg_reciprocal"])
    def test_ten_thousand_call_chain(self, kind, default_recursion_limit):
        want = _chain_prefix(kind, 10_000, 30)
        start = time.process_time()
        text = render_digits(_chain(kind, 10_000), 30)
        elapsed = time.process_time() - start
        assert text == want
        assert elapsed < 2, f"took {elapsed:.3f} s of CPU time"

    def test_mul_reads_nothing_when_built(self):
        x, asked_x = _recorded(sqrt(P("2")))
        y, asked_y = _recorded(opaque(Fraction(-22, 7)))
        product = mul(x, y)
        assert asked_x == asked_y == []
        lo = sqrt_truncation(Fraction(2), 40) * Fraction(-22, 7)
        assert render_digits(product, 25) == fraction_prefix(lo, 25)


class TestConcurrency:
    def test_threads_render_one_shared_dag(self):
        # sqrt(2) is a subterm of both factors
        def build():
            a = sqrt(P("2"))
            return mul(add(a, sqrt(P("3"))), add(a, sqrt(P("5"))))

        lengths = [50, 200, 400, 800]
        want = {n: render_digits(build(), n) for n in lengths}
        shared, got = build(), {}
        barrier = threading.Barrier(len(lengths))

        def work(n):
            barrier.wait(timeout=10)
            got[n] = render_digits(shared, n)

        threads = [threading.Thread(target=work, args=(n,), daemon=True)
                   for n in lengths]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads), "deadlock"
        assert got == want


class TestRefinementWork:
    def test_exact_operands_are_read_as_integers(self, monkeypatch):
        # roots and products of exact operands are built from the
        # integers of _ratio(); no operand is turned into a Fraction
        operands = [P(t) for t in ("2", "0.(3)", "2.25", "0.0004", "0.(4)",
                                   "1", "1.000", "-3", "0.1(6)", "127")]
        stream = sqrt(P("5"))
        calls = []

        def spy(self):
            calls.append(self)
            raise AssertionError("as_fraction called")

        for cls in (TerminatingReal, PeriodicReal, TerminatingDecimal):
            monkeypatch.setattr(cls, "as_fraction", spy)
        for x in operands:
            if not x.negative:
                sqrt(x)
            mul(x, stream)
            mul(stream, x)
            for y in operands:
                mul(x, y)
        assert calls == []

    def test_powers_of_ten_table_stays_bounded(self):
        render_digits(sqrt(P("2")), 2 * 10**4)
        assert max(terminating._TENS) <= terminating._TEN_BOUND

    def test_rendering_makes_no_fraction_calls(self):
        x = reciprocal(add(mul(sqrt(P("101")), sqrt(P("103"))),
                           sqrt(P("107"))))
        calls: Counter = Counter()

        def profile(frame, event, arg):
            if (event == "call"
                    and frame.f_code.co_filename == fractions.__file__):
                calls[frame.f_code.co_name] += 1

        sys.setprofile(profile)
        try:
            text = render_digits(x, 300)
        finally:
            sys.setprofile(None)
        assert calls == Counter()
        # 1/(a + b) for a = sqrt(10403), b = sqrt(107): enclose both
        # roots at 310 digits and bracket the quotient
        a_lo = sqrt_truncation(Fraction(10403), 310)
        b_lo = sqrt_truncation(Fraction(107), 310)
        ulp = Fraction(1, 10**310)
        low = 1 / (a_lo + b_lo + 2 * ulp)
        high = 1 / (a_lo + b_lo)
        assert fraction_prefix(low, 300) == text == fraction_prefix(high, 300)


class TestContractBreach:
    """An operand whose enclosures never narrow makes the kernels raise
    instead of retrying forever: the leaf's answer is checked against
    its width contract.  reciprocal and sqrt classify their operand when
    they are built, so they raise there; mul reads nothing until asked."""

    @pytest.mark.parametrize("op", [mul, reciprocal, sqrt],
                             ids=["mul", "reciprocal", "sqrt"])
    def test_too_wide_operand_raises(self, op):
        too_wide = computed(lambda m: (Fraction(1), Fraction(2)), "too wide")
        with pytest.raises(AssertionError):
            x = (op(too_wide, opaque(Fraction(3))) if op is mul
                 else op(too_wide))
            x.bounds(10)
