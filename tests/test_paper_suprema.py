"""The paper's sum, product, reciprocal and square root of infinite
decimals, as suprema.

The paper defines x + y as the supremum of the truncation sums
trunc_n(x) + trunc_n(y), n = 0, 1, ..., and x * y for positive x and y
as the supremum of the truncation products.  The reciprocal and the
square root are lower cuts, sup{t : t * x < 1} and sup{t >= 0 : t**2 <
r}, whose truncations are members.  Here each is a test-side ``Family``
whose members are those truncations, with digits from the long-hand
square root of ``conftest.sqrt_truncation`` and Fractions, and ``add``,
``mul``, ``reciprocal`` and ``sqrt`` of computed roots are checked
against it:

* the computed value passes the family's supremum certificate;
* it never compares strictly against the family's own supremum;
* moved down by 10**-50 it fails the bound side with a member witness,
  moved up by 10**-5 it fails leastness, and moved up by 10**-50 it
  compares above the supremum at budget 52;
* its enclosure at n digits is at most 10**-n wide and meets the
  interval in which the definition puts the supremum.

One operand is 10**8 * sqrt(2), a product that a request at m digits
reads too wide in the first pass, so the last property also watches the
evaluator's re-check of the root.  These are absolute checks: digits
against the definition, where the field-identity suite is relative.
"""

from fractions import Fraction

import pytest

from conftest import fraction_prefix, sqrt_truncation
from decreal.arithmetic import add, mul, reciprocal, sqrt
from decreal.realnum import compare, parse_real, real_from_fraction
from decreal.supremum import (
    Family,
    FailBound,
    FailLeastness,
    Pass,
    check_sup_certificate,
    sup,
)
from decreal.terminating import Comparison

P = parse_real
SAMPLES, BUDGET = 20, 120
GAP = 50  # the perturbation is 10**-GAP
SCALE = 10**8


class Operand:
    """A positive computed value, and its truncations from the long-hand
    root: sqrt(a), or SCALE * sqrt(a) when scaled."""

    def __init__(self, a: int, scaled: bool = False):
        self.a, self.scaled = a, scaled
        self.name = f"{SCALE} * sqrt({a})" if scaled else f"sqrt({a})"

    def build(self):
        """A new node each time, so no test reads another's enclosures."""
        root = sqrt(P(str(self.a)))
        return mul(P(str(SCALE)), root) if self.scaled else root

    def trunc(self, n: int) -> Fraction:
        """trunc_n of the value: SCALE * sqrt(a) = sqrt(SCALE**2 * a)."""
        return sqrt_truncation(Fraction(self.a * SCALE**2 if self.scaled
                                        else self.a), n)


class Case:
    """A computed value, built fresh each time, and the paper's bracket
    [t_n, u_n] at each depth n: t_n is the n-th member of the family
    whose supremum the definition makes the value, and u_n an upper end
    that the value cannot exceed."""

    def __init__(self, name: str, build, bracket):
        self.name, self.build, self.bracket = name, build, bracket


def binary(x: Operand, y: Operand, op: str) -> Case:
    """x op y: the members t_n = trunc_n(x) op trunc_n(y)."""

    def build():
        return (add if op == "+" else mul)(x.build(), y.build())

    def bracket(n: int) -> tuple[Fraction, Fraction]:
        tx, ty = x.trunc(n), y.trunc(n)
        ulp = Fraction(1, 10**n)
        if op == "+":
            return tx + ty, tx + ty + 2 * ulp
        return tx * ty, (tx + ulp) * (ty + ulp)

    return Case(f"trunc_n({x.name}) {op} trunc_n({y.name})", build, bracket)


def reciprocal_root(a: int) -> Case:
    """1 / sqrt(a), the paper's sup{t : t * sqrt(a) < 1}: the members
    t_n = trunc_n(1 / sqrt(a)) = trunc_n(sqrt(1 / a))."""

    def bracket(n: int) -> tuple[Fraction, Fraction]:
        t = sqrt_truncation(Fraction(1, a), n)
        return t, t + Fraction(1, 10**n)

    return Case(f"trunc_n(1 / sqrt({a}))",
                lambda: reciprocal(sqrt(P(str(a)))), bracket)


def root_of_sum(a: int, b: int) -> Case:
    """sqrt(sqrt(a) + b), the paper's sup{t >= 0 : t**2 < sqrt(a) + b}:
    with s_n = trunc_n(sqrt(a)), the members t_n = trunc_n(sqrt(s_n + b))
    and the upper ends trunc_n(sqrt(s_n + 10**-n + b)) + 10**-n, from
    both ends of sqrt(a)'s bracket."""

    def bracket(n: int) -> tuple[Fraction, Fraction]:
        s, ulp = sqrt_truncation(Fraction(a), n), Fraction(1, 10**n)
        return (sqrt_truncation(s + b, n),
                sqrt_truncation(s + ulp + b, n) + ulp)

    return Case(f"trunc_n(sqrt(sqrt({a}) + {b}))",
                lambda: sqrt(add(sqrt(P(str(a))), P(str(b)))), bracket)


def truncation_family(case: Case) -> Family:
    """The members t_n, n = 0, 1, ..., as a family.  They increase
    towards their supremum, so the selected digits are its digits, read
    where both ends of a bracket agree."""

    def member(n: int):
        return real_from_fraction(case.bracket(n)[0])

    digits = ""

    def expansion(n: int) -> str:
        """The first n digits of the supremum after the point."""
        nonlocal digits
        while len(digits) < n:
            want = max(n, 2 * len(digits))
            for extra in range(10, 100, 10):
                lo, hi = case.bracket(want + extra)
                text = fraction_prefix(lo, want)
                if text == fraction_prefix(hi, want):
                    digits = text.partition(".")[2]
                    break
            else:
                raise AssertionError("the two ends never agreed")
        return digits[:n]

    lo, hi = case.bracket(10)
    int_part = int(lo)
    assert int_part == int(hi)

    def next_digits(prefix, n: int) -> str:
        start = len(prefix.digits)
        assert prefix.int_part == int_part
        assert expansion(start) == prefix.digits
        return expansion(start + n)[start:]

    def member_above(b, budget: int):
        # the members increase, so the first one above b is found by a
        # walk; past the budget no member is told from b
        for n in range(budget + 2):
            t = member(n)
            if compare(t, b, budget) is Comparison.GT:
                return t
        return None

    return Family(
        max_integral=lambda: int_part, next_digits=next_digits,
        member_above=member_above, description=case.name)


PAIRS = [(2, 3), (5, 7), (11, 13)]
CASES = [
    pytest.param(binary(Operand(a), Operand(b), op), id=f"sqrt{a}{op}sqrt{b}")
    for a, b in PAIRS for op in "+*"
] + [
    pytest.param(binary(Operand(2, scaled=True), Operand(3), op),
                 id=f"1e8sqrt2{op}sqrt3")
    for op in "+*"
] + [
    pytest.param(reciprocal_root(a), id=f"rec-sqrt{a}") for a in (2, 3, 7)
] + [
    pytest.param(root_of_sum(a, b), id=f"sqrt-sqrt{a}+{b}")
    for a, b in PAIRS
]


def shifted(s, j: int, sign: int):
    return add(s, real_from_fraction(Fraction(sign, 10**j)))


@pytest.mark.parametrize("case", CASES)
class TestTruncationSuprema:
    def test_certificate_passes(self, case):
        family = truncation_family(case)
        verdict = check_sup_certificate(case.build(), family,
                                        samples=SAMPLES, budget=BUDGET)
        assert isinstance(verdict, Pass)

    def test_never_strict_against_the_selection(self, case):
        family = truncation_family(case)
        got = compare(sup(family), case.build(), BUDGET)
        assert got is Comparison.UNDECIDED

    def test_lowered_value_fails_the_bound(self, case):
        family = truncation_family(case)
        low = shifted(case.build(), GAP, -1)
        verdict = check_sup_certificate(low, family, samples=SAMPLES,
                                        budget=BUDGET)
        assert isinstance(verdict, FailBound)
        assert compare(verdict.witness, low, BUDGET) is Comparison.GT

    def test_raised_value_fails_leastness(self, case):
        # 10**-5 above the value is above the probe 10**-SAMPLES under
        # it, so nothing in the family reaches the probe
        family = truncation_family(case)
        high = shifted(case.build(), 5, 1)
        verdict = check_sup_certificate(high, family, samples=SAMPLES,
                                        budget=BUDGET)
        assert isinstance(verdict, FailLeastness)
        assert compare(verdict.witness, high, BUDGET) is Comparison.LT
        assert compare(sup(family), verdict.witness, BUDGET) \
            is Comparison.LT

    def test_raised_value_compares_above(self, case):
        family = truncation_family(case)
        high = shifted(case.build(), GAP, 1)
        assert compare(sup(family), high, GAP + 2) is Comparison.LT
        assert compare(high, sup(family), GAP + 2) is Comparison.GT

    @pytest.mark.parametrize("n", [0, 8, 50, BUDGET])
    def test_enclosure_meets_the_definition(self, case, n):
        # the supremum lies in [t_N, u_N]; an enclosure at n digits
        # must meet that interval and be at most 10**-n wide
        s = case.build()
        lo, hi = s.bounds(n)
        assert hi - lo <= Fraction(1, 10**n)
        t_lo, t_hi = case.bracket(n + 10)
        assert lo <= t_hi and t_lo <= hi
