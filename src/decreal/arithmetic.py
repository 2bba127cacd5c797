"""Field operations on decimal reals, realized as rigorous enclosures.

Whenever every operand is exactly representable the operations go
through rational arithmetic and stay exact.  Exact operands are read as
the integers of their ratio a / (b * 10**s), not as Fractions: exact
terms are summed over the lcm of their b's, a reciprocal swaps a and b
* 10**s, a unit factor is a == b * 10**s, and a radicand is reduced by
one gcd, tested for a perfect square and kept as two integers by the
leaf of its root.  An exact result is one ``Fraction``, made in lowest
terms from the final integers, whose kind ``real_from_fraction`` decides
once.
Otherwise the result is a :class:`~decreal.realnum.ComputedReal` record
whose enclosures are derived from the operands' enclosures by
outward-safe interval arithmetic on integers.  A pass at the working
precision p reads each operand as a grid triple (lo, hi, k), [lo, hi] *
10**-k with k >= p, or an exact terminating operand as its own point; a
sum aligns its terms' grids and adds, the other kernels compute corner
products, floor and ceiling divisions and ``math.isqrt``, and each
rounds outward to the grid 10**-(p+1).  The powers of ten that scale
them come from ``terminating.ten``, which keeps each one up to a fixed
bound once made: every leaf of a pass scales by the same power, and a
workload asks for the same precisions again and again.  No node adds
digits of its own to what it asks of its operands: the root checks the
width it was asked for and runs another pass when it missed, so the
precision asked of the bottom of an expression does not grow with its
depth.  Digits of the result are pinned from those enclosures on
demand, and a value that sits on an exact decimal boundary surfaces as
``DigitsUnstable`` at digit-query time while its enclosures stay
available through :func:`evaluate`.
"""

from __future__ import annotations

import math
from fractions import Fraction

from ._frozen import frozen
from .errors import DigitsUnstable, NegativeRadicand
from .realnum import (
    DEFAULT_BUDGET,
    Classification,
    ComputedReal,
    PeriodicReal,
    RealNumber,
    TerminatingReal,
    ZERO_REAL,
    _Record,
    _decimal_digits,
    _describe,
    _is_exact_zero,
    _on_scale,
    classify,
    real_from_fraction,
)
from .terminating import TerminatingDecimal, pow10, ten


@frozen
class Enclosure:
    """A closed interval [lo, hi] of terminating decimals containing a
    real value, with exactly representable width."""

    lo: TerminatingDecimal
    hi: TerminatingDecimal

    def __post_init__(self):
        if self.hi < self.lo:
            raise ValueError("enclosure bounds are reversed")

    def __str__(self) -> str:
        return f"[{self.lo}, {self.hi}]"


def evaluate(x: RealNumber, n: int) -> Enclosure:
    """Enclosure of x with width at most 10**-n.

    For a terminating value the enclosure is degenerate.  Otherwise lo
    is the n-digit truncation of the canonical expansion of |x| (sign
    reattached) and hi = lo + 10**-n; when digits refuse to stabilise
    the enclosure falls back to outward rounding of the raw interval
    at one extra digit, which still meets the width contract.

    A periodic value is never on the grid 10**-n, so the floor of
    x * 10**n, one integer division in ``_grid``, is that truncation
    for either sign, and no digit text is made.
    """
    if n < 0:
        raise ValueError("precision must be non-negative")
    if isinstance(x, TerminatingReal):
        return Enclosure(x.value, x.value)
    if isinstance(x, PeriodicReal):
        lo, hi, _ = x._grid(n)
        return Enclosure(TerminatingDecimal(lo, n), TerminatingDecimal(hi, n))
    try:
        p = x.prefix(n)
    except DigitsUnstable:
        # a stream's _grid raises what its prefix did
        lo, hi = _on_scale(*x._grid(n + 1), n + 1)
        return Enclosure(TerminatingDecimal(lo, n + 1),
                         TerminatingDecimal(hi, n + 1))
    t = p.as_terminating()
    ulp = pow10(-n)
    if p.negative:
        return Enclosure(t + (-ulp), t)
    return Enclosure(t, t + ulp)


class _Sum(_Record):
    """An n-ary sum: terms that are not exact, then at most one exact
    term.  The terms are aligned on the finest of their grids and added,
    so the widths of n terms read at p add up to n * 10**-p, plus the
    rounding to the grid 10**-(p+1)."""

    _form = ("(", " + ", ")")

    def __init__(self, streams: list[RealNumber], exact: list[RealNumber]):
        self.streams, self.exact = streams, exact
        super().__init__(*streams, *exact)

    def _step(self, p: int, grids: list) -> tuple[int, int, int]:
        k = max(g[2] for g in grids)
        lo = hi = 0
        for tlo, thi, tk in grids:
            scale = ten(k - tk)
            lo += tlo * scale
            hi += thi * scale
        return (*_on_scale(lo, hi, k, p + 1), p + 1)


def add(x: RealNumber, y: RealNumber, *more: RealNumber) -> RealNumber:
    """x + y + ...; exact when every term is, interval-backed otherwise.

    Sums among the terms are flattened, so a chain of additions is one
    node whatever its length, and the exact terms are summed exactly.
    Zero terms are dropped: the sum of a value with zero is that value
    itself, not a new approximation of it.
    """
    streams: list[RealNumber] = []
    exact: list[RealNumber] = []
    for t in (x, y, *more):
        if isinstance(t, _Sum):
            streams += t.streams
            exact += t.exact
        elif not t.is_exact:
            streams.append(t)
        elif not _is_exact_zero(t):
            exact.append(t)
    if len(exact) > 1:
        total = _exact_sum(exact)
        exact = [] if _is_exact_zero(total) else [total]
    terms = streams + exact
    if len(terms) > 1:
        return _Sum(streams, exact)
    return terms[0] if terms else ZERO_REAL


def _exact_sum(terms: list[RealNumber]) -> RealNumber:
    """The sum of exact terms, read as the integers of their ratios a /
    (b * 10**s): the running sum n / (d * 10**e) keeps d the lcm of the
    b's and e the largest s, and only the total becomes a Fraction."""
    n, d, e = 0, 1, 0
    for t in terms:
        a, b, s = t._ratio()
        if s > e:
            n, e = n * ten(s - e), s
        elif s < e:
            a *= ten(e - s)
        g = math.gcd(d, b)
        n, d = n * (b // g) + a * (d // g), d // g * b
    return real_from_fraction(Fraction(n, d * ten(e)))


def neg(x: RealNumber) -> RealNumber:
    """Structural negation."""
    return x.negated()


class _Product(_Record):
    """x * y from integer corner products, which bound it whatever the
    signs, rounded outward to the grid 10**-(p+1).  Its width is about
    |x| * wy + |y| * wx for operand widths wx and wy, so a large factor
    makes the root of the pass miss digits, and the next pass reads both
    operands at as many more digits."""

    _form = ("(", " * ", ")")

    def _step(self, p: int, grids: list) -> tuple[int, int, int]:
        (lx, hx, kx), (ly, hy, ky) = grids
        corners = (lx * ly, lx * hy, hx * ly, hx * hy)
        return (*_on_scale(min(corners), max(corners), kx + ky, p + 1),
                p + 1)


def mul(x: RealNumber, y: RealNumber) -> RealNumber:
    """x * y.

    A zero operand gives exact zero, a unit factor the other operand,
    and exact operands an exact product.  Otherwise the product is a
    node whose integer corner products bound it whatever the signs; it
    reads nothing when it is built.
    """
    if _is_exact_zero(x) or _is_exact_zero(y):
        return ZERO_REAL
    if x.is_exact and _is_one(x):
        return y
    if y.is_exact and _is_one(y):
        return x
    if x.is_exact and y.is_exact:
        (a, b, s), (c, d, t) = x._ratio(), y._ratio()
        return real_from_fraction(Fraction(a * c, b * d * ten(s + t)))
    return _Product(x, y)


def _is_one(x: RealNumber) -> bool:
    """Whether the exact value x is 1, read from its integer ratio."""
    a, b, s = x._ratio()
    return a == b * ten(s)


class _Reciprocal(_Record):
    """1 / x for x of settled sign.  The reciprocal of x's enclosure [lx,
    hx] is read on the grid 10**-(p+1) by floor and ceiling integer
    division, which bound it for either sign.  Every enclosure of x
    excludes zero once ``classify`` has settled its sign: a ComputedReal
    keeps the sign in its cached enclosure, and a stream reads no coarser
    than its first nonzero digit.  The width (hx - lx) / (lx * hx) grows
    as x nears zero, and the root's check then asks for more digits."""

    _form = ("1/(", "", ")")

    def _step(self, p: int, grids: list) -> tuple[int, int, int]:
        (lx, hx, kx), = grids
        k = p + 1
        # 10**-k * 10**-kx: one unit of the result times one of x
        one = ten(k + kx)
        return one // hx, -(-one // lx), k


def reciprocal(x: RealNumber, budget: int = DEFAULT_BUDGET) -> RealNumber:
    """1 / x for x provably nonzero.

    Raises ZeroDivisionError for exact zero and SignUndecided when the
    sign of x cannot be established within the budget; both are decided
    when the node is built.
    """
    if _is_exact_zero(x):
        raise ZeroDivisionError("reciprocal of zero")
    if x.is_exact:
        a, b, s = x._ratio()
        return real_from_fraction(Fraction(b * ten(s), a))
    sign = classify(x, budget)  # raises SignUndecided on boundary values
    if sign is Classification.ZERO:
        raise ZeroDivisionError("reciprocal of zero")
    return _Reciprocal(x)


class _Root(_Record):
    """sqrt(r) for a computed radicand r proven positive, whose every
    enclosure therefore excludes zero (see ``_Reciprocal``).  The floor
    root of its lower end and the ceiling root of its upper end, on the
    grid 10**-(p+1), bound the root.  The width sqrt(hr) - sqrt(lr) =
    (hr - lr) / (sqrt(hr) + sqrt(lr)) grows as r nears zero, and the
    root's check then asks for more digits.
    """

    _form = ("sqrt(", "", ")")

    def _step(self, p: int, grids: list) -> tuple[int, int, int]:
        k = p + 1
        low, high = _on_scale(*grids[0], 2 * k)
        lo = math.isqrt(low)
        hi = math.isqrt(high)
        if hi * hi < high:
            hi += 1
        assert lo * lo <= low and high <= hi * hi
        return lo, hi, k


def sqrt(r: RealNumber, budget: int = DEFAULT_BUDGET) -> RealNumber:
    """The unique non-negative s with s*s = r.

    An exact radicand is read as the integers of its ratio a / (b *
    10**s), reduced to n/d in lowest terms by one gcd; no Fraction is
    built unless it is negative, for the error's text.  Rational perfect
    squares, n and d both squares, come back exact.  Any other exact
    radicand gives a leaf: its root lies strictly between isqrt(n *
    10**(2k) // d) * 10**-k and the next unit, with k = p + 1.  A
    computed radicand is classified when the node is built:
    NegativeRadicand when it is provably negative, SignUndecided when
    its sign is not settled within the budget.
    """
    if r.is_exact:
        n, d, scale = r._ratio()
        if n == 0:
            return ZERO_REAL
        if n < 0:
            raise NegativeRadicand(f"square root of {r.as_fraction()}")
        d *= ten(scale)
        g = math.gcd(n, d)
        n, d = n // g, d // g
        rn, rd = math.isqrt(n), math.isqrt(d)
        if rn * rn == n and rd * rd == d:
            return real_from_fraction(Fraction(rn, rd))

        def refine(p: int) -> tuple[int, int, int]:
            k = p + 1
            scaled = n * ten(2 * k)
            s = math.isqrt(scaled // d)
            # n/d is not a rational square, so the upper end is strict
            assert s * s * d <= scaled < (s + 1) * (s + 1) * d
            return s, s + 1, k

        return ComputedReal(refine, lambda: f"sqrt({_describe(r, 0)})")
    sign = classify(r, budget)
    if sign is Classification.NEGATIVE:
        raise NegativeRadicand("square root of a provably negative value")
    if sign is Classification.ZERO:
        return ZERO_REAL
    return _Root(r)


def archimedean_witness(x: RealNumber, y: RealNumber,
                        budget: int = DEFAULT_BUDGET) -> int:
    """A positive integer n with n*x > y, for provably positive x.

    For exact operands the witness is minimal: the first integer above
    y/x.  Otherwise it is the first integer above hi(y)/lo(x), with x
    read at one digit or more and y as far as the first nonzero digit of
    x, which is provable but not necessarily minimal: once classify has
    settled the sign of x, every enclosure of x has a positive lower end.
    """
    sign = classify(x, budget)  # raises SignUndecided near zero
    if sign is not Classification.POSITIVE:
        raise ValueError("the witness requires a provably positive x")
    if x.is_exact and y.is_exact:
        ratio = y.as_fraction() / x.as_fraction()
        return max(1, ratio.__floor__() + 1)
    if x.is_exact:
        # an exact value's bounds are its value, positive at once
        k, lx = 1, x.as_fraction()
    else:
        lo, _, k = x._grid(1)
        lx = Fraction(lo, 10 ** k)
        # x's first nonzero digit, wherever x's cache stands
        k = max(k - _decimal_digits(lo) + 1, 1)
    _, hy = y.bounds(k)
    return max(1, (hy / lx).__floor__() + 1)
