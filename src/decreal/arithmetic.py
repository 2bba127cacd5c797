"""Field operations on decimal reals, realized as rigorous enclosures.

Whenever every operand is exactly representable the operations go
through rational arithmetic and stay exact.  Otherwise the result is a
:class:`~decreal.realnum.ComputedReal` whose enclosures are derived from
the operands' enclosures by outward-safe interval arithmetic on
integers: a request for width 10**-q reads each operand as a grid
triple (lo, hi, k), [lo, hi] * 10**-k, with guard digits fixed before
the first refinement.  A sum aligns its terms' grids and adds; the
other kernels compute corner products, floor and ceiling divisions and
``math.isqrt``, and round outward to the grid 10**-k, k one or two
digits past q.  The precision asked of an operand is therefore the
requested one plus a constant for each node, linear in the depth of an
expression.  Digits of the result are pinned from those enclosures on
demand, and a value that sits on an exact decimal boundary surfaces as
``DigitsUnstable`` at digit-query time while its enclosures stay
available through :func:`evaluate`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional

from ._frozen import frozen
from .errors import DigitsUnstable, NegativeRadicand, SignUndecided
from .realnum import (
    DEFAULT_BUDGET,
    Classification,
    ComputedReal,
    RealNumber,
    TerminatingReal,
    ZERO_REAL,
    _decimal_digits,
    _describe,
    _exponent,
    _is_exact_zero,
    _on_scale,
    _precisions,
    classify,
    real_from_fraction,
)
from .terminating import TerminatingDecimal, pow10


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
    """
    if n < 0:
        raise ValueError("precision must be non-negative")
    if isinstance(x, TerminatingReal):
        return Enclosure(x.value, x.value)
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


class _Sum(ComputedReal):
    """An n-ary sum: terms that are not exact, then at most one exact
    term.  Each term is read at m + d digits, d the fewest with 10**d >=
    n, so the n term widths add up to at most 10**-m; a sum of two reads
    its terms at m + 1."""

    _form = ("(", " + ", ")")

    def __init__(self, streams: list[RealNumber], exact: list[RealNumber]):
        self.streams, self.exact = streams, exact
        self._record(*streams, *exact)
        self._guards = ((_decimal_digits(len(self._operands)),)
                        * len(self._operands))

    def _bound(self) -> int:
        return max(map(_exponent, self._operands)) + self._guards[0]

    def _step(self, m: int, grids: list) -> tuple[int, int, int]:
        k = max(g[2] for g in grids)
        lo = hi = 0
        for tlo, thi, tk in grids:
            scale = 10 ** (k - tk)
            lo += tlo * scale
            hi += thi * scale
        return _on_grid(lo, hi, k, m)


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
        first, *rest = (u.as_fraction() for u in exact)
        total = real_from_fraction(sum(rest, first))
        exact = [] if _is_exact_zero(total) else [total]
    terms = streams + exact
    if len(terms) > 1:
        return _Sum(streams, exact)
    return terms[0] if terms else ZERO_REAL


def neg(x: RealNumber) -> RealNumber:
    """Structural negation."""
    return x.negated()


def _positive_floor(x: RealNumber, budget: int) -> tuple[int, int, int]:
    """(m, lo, k): the first precision m of the refine schedule at which
    the grid enclosure (lo, _, k) of x has a positive lower end.  Once
    ``classify(x, budget)`` has found x positive, m is at most the
    budget: a computed value's enclosures only tighten, and a stream's
    lower end turns positive at the nonzero digit classify found.  For
    the same reasons every enclosure of x at m or more digits has a
    lower end of at least lo * 10**-k."""
    for m in _precisions(1, budget):
        lo, _, k = x._grid(m)
        if lo > 0:
            return m, lo, k
    raise SignUndecided(f"value within 10^-{budget} of zero; sign unknown")


def _on_grid(lo: int, hi: int, k: int, q: int) -> tuple[int, int, int]:
    """The enclosure (lo, hi, k), checked against the width 10**-q
    asked for: guard digits chosen up front always pass when operands
    keep their width contract, so a failure means one broke it."""
    if hi - lo > 10 ** (k - q):
        raise AssertionError(
            "an operand enclosure is wider than its precision allows")
    return lo, hi, k


class _Product(ComputedReal):
    """x * y on the grid 10**-(q+2), from integer corner products.

    With |y| <= 10**ey, x read at w = q + 3 + ey digits and put on the
    grid 10**-w is at most 3 units of 10**-w wide, which moves the
    corners by at most about 0.3 units of 10**-(q+2); y is read at q + 3
    + ex digits alike.  A guard that depends on the operand's own
    magnitude as well would make the demand on the innermost factor of
    a nested product grow quadratically in depth.  The guards are fixed
    at the first refinement, which takes an opaque leaf's bound with one
    read.
    """

    _form = ("(", " * ", ")")
    _fixed: Optional[tuple[int, int]] = None

    def __init__(self, x: RealNumber, y: RealNumber):
        self._record(x, y)

    @property
    def _guards(self) -> tuple[int, int]:
        if self._fixed is None:
            x, y = self._operands
            self._fixed = 3 + _exponent(y), 3 + _exponent(x)
        return self._fixed

    def _bound(self) -> int:
        return sum(self._guards) - 6

    def _step(self, q: int, grids: list) -> tuple[int, int, int]:
        gx, gy = self._guards
        xs = _on_scale(*grids[0], q + gx)
        ys = _on_scale(*grids[1], q + gy)
        corners = [a * b for a in xs for b in ys]
        shift = 10 ** (q + gx + gy - 2)
        return _on_grid(min(corners) // shift, -(-max(corners) // shift),
                        q + 2, q)


def mul(x: RealNumber, y: RealNumber) -> RealNumber:
    """x * y.

    A zero operand gives exact zero, a unit factor the other operand,
    and exact operands an exact product.  Otherwise the product is a
    node whose integer corner products bound it whatever the signs; it
    reads nothing when it is built.
    """
    if _is_exact_zero(x) or _is_exact_zero(y):
        return ZERO_REAL
    if x.is_exact and x.as_fraction() == 1:
        return y
    if y.is_exact and y.as_fraction() == 1:
        return x
    if x.is_exact and y.is_exact:
        return real_from_fraction(x.as_fraction() * y.as_fraction())
    return _Product(x, y)


class _Reciprocal(ComputedReal):
    """1 / x for x with a positive floor lo0 * 10**-k0, found at m0
    digits.  The reciprocal of x's enclosure [lx, hx] is read on the
    grid 10**-(q+2) by floor and ceiling integer division; its width
    (hx - lx) / (lx * hx) is at most 10**-w / lo0**2 when x is read at
    w digits, so x is read at q + 2 + head digits, head from the floor
    alone, and never at fewer than m0, where lx is at least the floor."""

    _form = ("1/(", "", ")")

    def __init__(self, x: RealNumber, floor: tuple[int, int, int]):
        m0, lo0, k0 = floor
        self._record(x)
        self._guards = (max(2 + _decimal_digits(100 ** k0, lo0 * lo0), m0),)
        self._e = _decimal_digits(10 ** k0, lo0)

    def _step(self, q: int, grids: list) -> tuple[int, int, int]:
        (lx, hx, kx), = grids
        k = q + 2
        # 10**-k * 10**-kx: one unit of the result times one of x
        one = 10 ** (k + kx)
        lo = one // hx
        hi = -(-one // lx)
        # lo / 10**k <= 1 / hx and hi / 10**k >= 1 / lx
        assert lo * hx <= one <= hi * lx
        return _on_grid(lo, hi, k, q)


def reciprocal(x: RealNumber, budget: int = DEFAULT_BUDGET) -> RealNumber:
    """1 / x for x provably nonzero.

    Raises ZeroDivisionError for exact zero and SignUndecided when the
    sign of x cannot be established within the budget; both are decided
    when the node is built.
    """
    if _is_exact_zero(x):
        raise ZeroDivisionError("reciprocal of zero")
    if x.is_exact:
        return real_from_fraction(1 / x.as_fraction())
    sign = classify(x, budget)  # raises SignUndecided on boundary values
    if sign is Classification.ZERO:
        raise ZeroDivisionError("reciprocal of zero")
    if sign is Classification.NEGATIVE:
        return neg(reciprocal(neg(x), budget))
    return _Reciprocal(x, _positive_floor(x, budget))


def _exact_sqrt(f: Fraction) -> Fraction | None:
    """The exact rational square root, if one exists."""
    sp, sq = math.isqrt(f.numerator), math.isqrt(f.denominator)
    if sp * sp == f.numerator and sq * sq == f.denominator:
        return Fraction(sp, sq)
    return None


class _Root(ComputedReal):
    """sqrt(r), from integer square roots.

    An exact radicand p/d that is not a rational square leaves the root
    a leaf: it lies strictly between isqrt(p * 10**(2k) // d) and the
    next unit, with k = q + 1.  A computed radicand r with a positive
    floor lr0 * 10**-k0, found at m0 digits, is an operand: the floor
    root of its lower end and the ceiling root of its upper end bound
    the root on the grid 10**-(q+2).  sqrt(hr) - sqrt(lr) = (hr - lr) /
    (sqrt(hr) + sqrt(lr)), and both roots are at least sqrt(lr0) >=
    10**-head, so r is read at q + 2 + head digits, and never at fewer
    than m0: the demand of nested roots grows linearly with depth.
    """

    _form = ("sqrt(", "", ")")

    def __init__(self, r: RealNumber,
                 floor: Optional[tuple[int, int, int]] = None,
                 pd: Optional[tuple[int, int]] = None):
        self.radicand, self._pd = r, pd
        if pd:  # p/d: a leaf
            self._record()
        else:
            m0, lr0, k0 = floor
            self._record(r)
            self._guards = (max(2 + (_decimal_digits(10 ** k0, lr0) + 1) // 2,
                                m0),)

    def _bound(self) -> int:
        return (_exponent(self.radicand) + 1) // 2

    def _text(self, depth: int) -> str:
        return "sqrt(" + _describe(self.radicand, depth) + ")"

    def _step(self, q: int, grids: list) -> tuple[int, int, int]:
        if not grids:
            (p, d), k = self._pd, q + 1
            scaled = p * 10 ** (2 * k)
            s = math.isqrt(scaled // d)
            # p/d is not a rational square, so the upper end is strict
            assert s * s * d <= scaled < (s + 1) * (s + 1) * d
            return _on_grid(s, s + 1, k, q)
        k = q + 2
        low, high = _on_scale(*grids[0], 2 * k)
        lo = math.isqrt(low)
        hi = math.isqrt(high)
        if hi * hi < high:
            hi += 1
        assert lo * lo <= low and high <= hi * hi
        return _on_grid(lo, hi, k, q)


def sqrt(r: RealNumber, budget: int = DEFAULT_BUDGET) -> RealNumber:
    """The unique non-negative s with s*s = r.

    Rational perfect squares come back exact.  A computed radicand is
    classified when the node is built: NegativeRadicand when it is
    provably negative, SignUndecided when its sign is not settled within
    the budget.
    """
    if r.is_exact:
        f = r.as_fraction()
        if f == 0:
            return ZERO_REAL
        if f < 0:
            raise NegativeRadicand(f"square root of {f}")
        exact = _exact_sqrt(f)
        if exact:
            return real_from_fraction(exact)
        return _Root(r, pd=(f.numerator, f.denominator))
    sign = classify(r, budget)
    if sign is Classification.NEGATIVE:
        raise NegativeRadicand("square root of a provably negative value")
    if sign is Classification.ZERO:
        return ZERO_REAL
    return _Root(r, _positive_floor(r, budget))


def archimedean_witness(x: RealNumber, y: RealNumber,
                        budget: int = DEFAULT_BUDGET) -> int:
    """A positive integer n with n*x > y, for provably positive x.

    For exact operands the witness is minimal: the first integer above
    y/x.  Otherwise it is the first integer above hi(y)/lo(x) at the
    first precision where lo(x) is positive, which is provable but not
    necessarily minimal; the refinement schedule is fixed, so the result
    is deterministic.
    """
    sign = classify(x, budget)  # raises SignUndecided near zero
    if sign is not Classification.POSITIVE:
        raise ValueError("the witness requires a provably positive x")
    if x.is_exact and y.is_exact:
        ratio = y.as_fraction() / x.as_fraction()
        return max(1, ratio.__floor__() + 1)
    if x.is_exact:
        # an exact value's bounds are its value, positive at once
        m, lx = 1, x.as_fraction()
    else:
        m, lo, k = _positive_floor(x, budget)
        lx = Fraction(lo, 10 ** k)
    _, hy = y.bounds(m)
    return max(1, (hy / lx).__floor__() + 1)
