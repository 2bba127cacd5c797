"""The exact rational layer and its decimal embedding.

Rationals are ``fractions.Fraction`` values (always in lowest terms with
a positive denominator, which is exactly the invariant required here).
This module supplies both directions of the rational/decimal bridge,
the floor-recurrence digit algorithm as an independent second route to
the expansion, a bounded period search, and a per-pair consistency check
that the embedding respects order, sums and products.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from ._frozen import frozen
from .arithmetic import add, mul
from .realnum import (
    DigitPrefix,
    PeriodicReal,
    RealNumber,
    _decimal_digits,
    _digit_compare,
    real_from_fraction,
)
from .terminating import _LEAF, Comparison, ten

Rational = Fraction


def to_decimal(r: Rational) -> RealNumber:
    """Exact decimal expansion of a rational: terminating when the
    denominator is 2^a * 5^b, otherwise periodic with minimal period.

    A ``Fraction`` is used as given, not copied: it is in lowest terms
    already, and its kind is decided once, by ``real_from_fraction``.
    Any other rational (an int, say) is made a ``Fraction`` first."""
    return real_from_fraction(r if isinstance(r, Fraction) else Fraction(r))


def from_periodic(x: RealNumber) -> Rational:
    """Exact rational value of a terminating or periodic expansion."""
    return x.as_fraction()


def decimal_representation(x: RealNumber, n: int) -> DigitPrefix:
    """First n digits by the floor recurrence.

    On the magnitude y0 = |x| - [|x|]: digit k is [10 * y_{k-1}], and
    the scaled remainder carries to the next step.  For an exact source
    |x| = a/q, the recurrence runs on the integer remainder p = q * y,
    B = ``_LEAF`` digits at a time: the block of B digits after p is
    [10**B * p / q], one ``divmod(p * 10**B, q)`` leaves the next
    remainder, and the block is the quotient's ``str()`` padded with
    leading zeros (the last block is as wide as the digits left).  The
    work is linear in n, and every ``str()`` stays under the
    interpreter's int-to-str cap.  Negative values are expanded on the
    magnitude and the sign reattached.  This is plain integer division,
    so for an exact source it is an independent route to the same
    digits as the decimal-module division behind ``PeriodicReal``.  An
    all-nines tail would require some remainder to reach q, which the
    invariant 0 <= p < q rules out, so the trailing replacement can
    never fire here; digit-stream sources are read off as
    already-canonical digits instead.
    """
    if n < 0:
        raise ValueError("digit count must be non-negative")
    if not x.is_exact:
        return x.prefix(n)
    a, b, s = x._ratio()
    q = b * ten(s)
    int_part, p = divmod(abs(a), q)
    blocks = []
    for start in range(0, n, _LEAF):
        width = min(_LEAF, n - start)
        block, p = divmod(p * ten(width), q)
        blocks.append(str(block).rjust(width, "0"))
        assert 0 <= p < q
    return DigitPrefix(a < 0, int_part, "".join(blocks))


@frozen
class NoPeriodFound:
    """No repeating cycle within the searched bounds.  Evidence of
    irrationality, not proof: the search window is finite."""

    window: int


@frozen
class PeriodFound:
    offset: int
    period: str


def assert_no_period(x: RealNumber, max_period: int,
                     max_offset: int) -> NoPeriodFound | PeriodFound:
    """Search for a repeating cycle of length <= max_period starting at
    offset <= max_offset, over a window of max_offset + 2*max_period
    digits.  Reports the shortest period, at its earliest offset."""
    if max_period < 1:
        raise ValueError("max_period must be at least 1")
    if max_offset < 0:
        raise ValueError("max_offset must be non-negative")
    window = max_offset + 2 * max_period
    ds = decimal_representation(x, window).digits
    for p in range(1, max_period + 1):
        for o in range(0, max_offset + 1):
            if ds[o:window - p] == ds[o + p:window]:
                return PeriodFound(o, ds[o:o + p])
    return NoPeriodFound(window)


@frozen
class PhiOk:
    pass


@frozen
class PhiViolation:
    detail: str


def _structurally_equal(u: RealNumber, v: RealNumber) -> bool:
    # exact variants are canonical by construction (one representation per
    # value), so same variant + same underlying rational is structural
    # equality; rendering would walk the whole period, whose length is the
    # multiplicative order of 10 and can reach millions of digits.  Both
    # ratios are canonical too, a Fraction's or a TerminatingDecimal's, so
    # equal values have equal integers
    if not (u.is_exact and v.is_exact):
        return False
    if type(u) is not type(v):
        return False
    a, b, s = u._ratio()
    if (a, b, s) != v._ratio():
        return False
    den = b * ten(s)
    if den // gcd(a, den) <= 10_000:  # the denominator in lowest terms
        # cheap confirmation of u's own digits by integer long division:
        # the preperiod, then the period twice, so that it does repeat
        own = (u.preperiod + 2 * u.period if isinstance(u, PeriodicReal)
               else u.prefix(u.value.scale).digits)
        return decimal_representation(u, len(own)).digits == own
    return True


def _divergence_budget(x: Fraction, y: Fraction) -> int:
    """Digit positions needed to see x != y in canonical expansions:
    k + 2 for the least k >= 1 with 10**-k < |x - y|.

    The gap is num / den from cross products, not reduced.  With d the
    least d >= 0 with den / num <= 10**d, k is d, or d + 1 when den /
    num is exactly 10**d, and at least 1: a few big-integer operations,
    where trying each k in turn is quadratic in k.
    """
    num = abs(x.numerator * y.denominator - y.numerator * x.denominator)
    den = x.denominator * y.denominator
    d = _decimal_digits(den, num)
    return max(d + (den == num * ten(d)), 1) + 2


def phi_check(x: Rational, y: Rational) -> PhiOk | PhiViolation:
    """Check, on one pair, that the rational-to-decimal embedding
    respects order, addition and multiplication.

    Order is checked along two independent routes: rational comparison
    against a pure lexicographic walk over the embedded digit streams.
    Sums and products are checked structurally: the embedding of the
    rational result must coincide with decimal arithmetic on the
    embedded operands.
    """
    dx, dy = to_decimal(x), to_decimal(y)

    if x == y:
        if not _structurally_equal(dx, dy):
            return PhiViolation(f"equal rationals embed differently: {x}")
    else:
        expected = Comparison.LT if x < y else Comparison.GT
        walked = _digit_compare(dx, dy, _divergence_budget(x, y))
        if walked is not expected:
            return PhiViolation(
                f"order mismatch for ({x}, {y}): rational order "
                f"{expected.value!r}, digit order {walked.value!r}")

    embedded_sum = to_decimal(x + y)
    computed_sum = add(dx, dy)
    if not _structurally_equal(embedded_sum, computed_sum):
        return PhiViolation(
            f"sum mismatch for ({x}, {y}): {embedded_sum} vs {computed_sum}")

    embedded_product = to_decimal(x * y)
    computed_product = mul(dx, dy)
    if not _structurally_equal(embedded_product, computed_product):
        return PhiViolation(
            f"product mismatch for ({x}, {y}): "
            f"{embedded_product} vs {computed_product}")

    a, q = abs(x.numerator), x.denominator
    for i in (1, 2, 5, 11):
        direct = a * 10 ** i // q % 10
        streamed = dx.digit_at(i)
        if streamed != direct:
            return PhiViolation(
                f"digit {i} of {x}: stream {streamed}, direct {direct}")
    return PhiOk()
