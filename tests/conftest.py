"""Shared fixtures and independent test oracles.

The oracles here deliberately avoid the production code paths: digits
come from grade-school sequential long division (production's
``digit_at`` uses modular exponentiation, its prefixes and periods one
division per block of digits) or from Fraction multiples where
production's ``decimal_representation`` runs long division itself, one
integer division per block of digits, square roots by the long-hand
digit-pair method (production uses ``math.isqrt``), and period
structure from the multiplicative order of 10, stepped or taken from
Carmichael's lambda (production reads the preperiod length off the
factors 2 and 5 and finds the period where the leading digits recur).
Expected values in the tests are frozen from these routes, never from
the code under test.
"""

from __future__ import annotations

import math
import random
from contextlib import contextmanager
from fractions import Fraction
from unittest import mock

import pytest

from decreal import ComputedReal, Family, OracleReal, realnum

SEED = 20260819


@pytest.fixture
def rng() -> random.Random:
    return random.Random(SEED)


# ---------------------------------------------------------------------------
# independent digit oracles


def long_division_digits(p: int, q: int, n: int) -> str:
    """First n fractional digits of p/q (p >= 0, q > 0), sequentially."""
    assert p >= 0 and q > 0
    r = p % q
    out = []
    for _ in range(n):
        r *= 10
        out.append(str(r // q))
        r %= q
    return "".join(out)


def fraction_digit(f: Fraction, i: int) -> int:
    """i-th fractional digit (i >= 1) of |f|'s canonical expansion."""
    mag = abs(f)
    return int(mag * 10**i) % 10


def fraction_prefix(f: Fraction, n: int) -> str:
    """Canonical rendering of f truncated to n fractional digits."""
    sign = "-" if f < 0 else ""
    mag = abs(f)
    ip = int(mag)
    return sign + str(ip) + "." + long_division_digits(
        mag.numerator, mag.denominator, n)


def longhand_isqrt(v: int) -> int:
    """floor(sqrt(v)) by the schoolbook method.

    Bring down the decimal digits of v two at a time; each step appends
    the largest digit d with (20 * root + d) * d <= remainder.
    """
    assert v >= 0
    pairs = []
    while v:
        v, pair = divmod(v, 100)
        pairs.append(pair)
    root = rem = 0
    for pair in reversed(pairs):
        rem = rem * 100 + pair
        d = 9
        while (20 * root + d) * d > rem:
            d -= 1
        rem -= (20 * root + d) * d
        root = root * 10 + d
    return root


def sqrt_truncation(r: Fraction, n: int) -> Fraction:
    """floor(sqrt(r) * 10^n) / 10^n via the long-hand square root."""
    assert r >= 0
    scaled = r.numerator * 10 ** (2 * n) // r.denominator
    return Fraction(longhand_isqrt(scaled), 10**n)


def trial_factors(n: int) -> dict[int, int]:
    """The prime factorisation {p: e} of n >= 1, by trial division."""
    factors: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


def carmichael(n: int) -> int:
    """Carmichael's lambda(n), the exponent of the units modulo n: the
    lcm over prime powers p^e of n of p^(e-1) * (p - 1), halved for 2^e
    with e >= 3."""
    lam = 1
    for p, e in trial_factors(n).items():
        part = p ** (e - 1) * (p - 1)
        if p == 2 and e >= 3:
            part //= 2
        lam = lam * part // math.gcd(lam, part)
    return lam


def carmichael_order(a: int, n: int) -> int:
    """Least k >= 1 with a^k = 1 (mod n), gcd(a, n) = 1, from lambda(n).

    The order divides lambda(n), so it is lambda(n) with each prime
    factor divided out while a to the smaller exponent is still 1.  Both
    factorisations are by trial division, so the limit is an n, and a
    lambda(n), whose factors it can find, not the size of the order.
    """
    assert math.gcd(a, n) == 1 and n > 1
    k = carmichael(n)
    for p in trial_factors(k):
        while k % p == 0 and pow(a, k // p, n) == 1:
            k //= p
    return k


# powers that multiplicative_order steps through before it factorises
ORDER_STEPS = 10**5


def multiplicative_order(a: int, n: int) -> int:
    """Least k >= 1 with a^k = 1 (mod n); requires gcd(a, n) = 1.

    A short order is found by stepping through the powers, which needs
    no factorisation, so an n of thousands of digits with a small order
    is fine.  Past ``ORDER_STEPS`` powers the order comes from
    ``carmichael_order``, so a prime near 10**9 ends in milliseconds
    where stepping could take 10**9 steps.
    """
    assert math.gcd(a, n) == 1 and n > 1
    k, power = 1, a % n
    while power != 1:
        if k == ORDER_STEPS:
            return carmichael_order(a, n)
        power = power * a % n
        k += 1
    return k


def expected_period_structure(q: int) -> tuple[int, int]:
    """(preperiod length, period length) of p/q in lowest terms.

    Number-theoretic route: strip factors of 2 and 5 from q; the
    preperiod is the larger multiplicity and the period length is the
    multiplicative order of 10 modulo the stripped denominator.
    """
    assert q > 0
    two = five = 0
    while q % 2 == 0:
        q //= 2
        two += 1
    while q % 5 == 0:
        q //= 5
        five += 1
    if q == 1:
        return max(two, five), 0
    return max(two, five), multiplicative_order(10, q)


def nine_tail_value(prefix_value: Fraction, onset: int) -> Fraction:
    """Exact value of an expansion all of whose digits >= onset are 9.

    Geometric series: sum of 9 * 10^-k for k >= onset is 10^(1-onset).
    ``prefix_value`` is the value of the digits before the onset.
    """
    return prefix_value + Fraction(1, 10 ** (onset - 1))


# ---------------------------------------------------------------------------
# opaque wrappers: hide exactness so production code must use intervals


def opaque(f: Fraction) -> OracleReal:
    """A rational presented only as a digit stream.

    Digits come from this module's long division, not from production
    code, so arithmetic tests exercising the oracle paths are checked
    end to end against an independent route.
    """
    mag = abs(f)
    q = mag.denominator
    state = {"digits": [], "remainder": mag.numerator % q}

    def digit(i: int) -> int:
        digits, r = state["digits"], state["remainder"]
        while len(digits) < i:
            r *= 10
            digits.append(r // q)
            r %= q
        state["remainder"] = r
        return digits[i - 1]

    return OracleReal(digit_fn=digit, negative=f < 0, int_part=int(mag))


def computed(refine, description: str = "test stream") -> ComputedReal:
    """A ComputedReal from a hand-written rational enclosure.

    ``refine(m)`` returns Fractions (lo, hi) around the value, at most
    10**-m apart.  The node asks it for m + 1 digits and rounds the ends
    outward to the grid 10**-(m + 2): the grid triple is then at most 12
    units wide, inside the 100 units that ``_grid``'s contract allows,
    and an enclosure that is a point on the grid stays a point.
    """
    def grid(m: int) -> tuple[int, int, int]:
        lo, hi = refine(m + 1)
        k = m + 2
        return math.floor(lo * 10**k), math.ceil(hi * 10**k), k

    return ComputedReal(grid, description)


def unhinted(family: Family) -> Family:
    """The same family with its tail hint withheld, so that its
    supremum is the selection's digit stream, not an exact value."""
    return Family(
        family.max_integral, family.next_digits, None,
        negative=family.negative, member_above=family.member_above,
        bound_hint=family.bound_hint, description=family.description)


# ---------------------------------------------------------------------------
# the digit-at-a-time walk: reference for realnum's block-wise walks


class DigitView:
    """A real as the order walks saw it before they read blocks: one
    ``digit_at`` call per position, in increasing order, so an error is
    raised at the first position that cannot be produced."""

    def __init__(self, flag: int, int_part: int, digit, known_nonzero: bool):
        self.flag = flag
        self.int_part = int_part
        self.digit = digit
        self.known_nonzero = known_nonzero

    def head(self, n: int) -> str:
        return "".join(str(self.digit(i)) for i in range(1, n + 1))

    def first_not(self, d: str, start: int, budget: int):
        for i in range(start, budget + 1):
            if str(self.digit(i)) != d:
                return i
        return None

    def nonzero_within(self, budget: int) -> bool:
        return (self.known_nonzero or self.int_part > 0
                or self.first_not("0", 1, budget) is not None)


def digit_view(x) -> DigitView:
    if isinstance(x, realnum.TerminatingReal):
        sign = x.value.sign
        return DigitView(sign, x.int_part, x.digit_at, sign != 0)
    if isinstance(x, realnum.ComputedReal):
        neg, ip, _ = x._pin(0)
        return DigitView(-1 if neg else 1, ip, x.digit_at, ip > 0)
    flag = -1 if x.negative else 1
    exact = isinstance(x, realnum.PeriodicReal)
    return DigitView(flag, x.int_part, x.digit_at, exact or x.int_part > 0)


def digit_first_difference(vx: DigitView, vy: DigitView, budget: int):
    for i in range(1, budget + 1):
        dx, dy = vx.digit(i), vy.digit(i)
        if dx != dy:
            return i, str(dx), str(dy)
    return None


@contextmanager
def digit_walk():
    """Run realnum's order functions over DigitViews instead of blocks."""
    with mock.patch.object(realnum, "_view", digit_view), \
            mock.patch.object(realnum, "_first_difference",
                              digit_first_difference):
        yield


# ---------------------------------------------------------------------------
# random value generators (seeded by callers)


def rand_fraction(rng: random.Random, max_num: int = 10_000,
                  max_den: int = 10_000, signed: bool = True) -> Fraction:
    lo = -max_num if signed else 0
    return Fraction(rng.randint(lo, max_num), rng.randint(1, max_den))


def rand_nonzero_fraction(rng: random.Random, max_num: int = 10_000,
                          max_den: int = 10_000) -> Fraction:
    while True:
        f = rand_fraction(rng, max_num, max_den)
        if f != 0:
            return f
