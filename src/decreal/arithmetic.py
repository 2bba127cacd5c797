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

from ._frozen import frozen
from .errors import DigitsUnstable, NegativeRadicand, SignUndecided
from .realnum import (
    DEFAULT_BUDGET,
    Classification,
    ComputedReal,
    PeriodicReal,
    RealNumber,
    TerminatingReal,
    ZERO_REAL,
    _is_exact_zero,
    _on_scale,
    _precisions,
    _try_classify,
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
    if isinstance(x, ComputedReal):
        try:
            p = x.prefix(n)
        except DigitsUnstable:
            lo, hi = _on_scale(*x._grid(n + 1), n + 1)
            return Enclosure(TerminatingDecimal(lo, n + 1),
                             TerminatingDecimal(hi, n + 1))
    else:
        p = x.prefix(n)
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

    def __init__(self, streams: list[RealNumber], exact: list[RealNumber]):
        self.streams, self.exact = streams, exact
        terms = streams + exact
        guard = _decimal_digits(len(terms))

        def refine(m: int) -> tuple[int, int, int]:
            grids = [t._grid(m + guard) for t in terms]
            k = max(g[2] for g in grids)
            lo = hi = 0
            for tlo, thi, tk in grids:
                scale = 10 ** (k - tk)
                lo += tlo * scale
                hi += thi * scale
            return _on_grid(lo, hi, k, m)

        super().__init__(refine)

    @property
    def description(self) -> str:
        # built when read, not for each sum of an API chain
        terms = self.streams + self.exact
        return "(" + " + ".join(map(_describe, terms)) + ")"


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


def _describe(x: RealNumber) -> str:
    if isinstance(x, ComputedReal):
        return x.description or "?"
    if isinstance(x, PeriodicReal):
        # its literal writes out a whole period, which can run to
        # millions of digits
        return str(x.fraction)
    return str(x) if x.is_exact else repr(x)


def _decimal_digits(num: int, den: int = 1) -> int:
    """Smallest d >= 0 with num / den <= 10**d, for positive den."""
    d = 0
    while num > den * 10 ** d:
        d += 1
    return d


def _positive_floor(x: RealNumber, budget: int) -> tuple[int, int, int]:
    """(m, lo, k): the first precision m of the refine schedule at which
    the grid enclosure (lo, _, k) of x has a positive lower end.  Once
    ``classify(x, budget)`` has found x positive, m is at most the
    budget: a computed value's enclosures only tighten, and a stream's
    lower end turns positive at the nonzero digit classify found."""
    for m in _precisions(1, budget):
        lo, _, k = x._grid(m)
        if lo > 0:
            return m, lo, k
    raise SignUndecided(f"value within 10^-{budget} of zero; sign unknown")


def _above(x: RealNumber, m: int,
           floor: tuple[int, int]) -> tuple[int, int, int]:
    """x._grid(m) with its lower end raised to at least the positive
    floor (lo0, k0) that ``_positive_floor`` found, on the finer grid."""
    lo, hi, k = x._grid(m)
    lo0, k0 = floor
    if k < k0:
        (lo, hi), k = _on_scale(lo, hi, k, k0), k0
    return max(lo, lo0 * 10 ** (k - k0)), hi, k


def _on_grid(lo: int, hi: int, k: int, q: int) -> tuple[int, int, int]:
    """The enclosure (lo, hi, k), checked against the width 10**-q
    asked for: guard digits chosen up front always pass when operands
    keep their width contract, so a failure means one broke it."""
    if hi - lo > 10 ** (k - q):
        raise AssertionError(
            "an operand enclosure is wider than its precision allows")
    return lo, hi, k


def mul(x: RealNumber, y: RealNumber) -> RealNumber:
    """x * y with the sign handled by negation identities.

    A provably zero operand gives exact zero; provably negative operands
    are factored out through neg so the core interval path multiplies
    non-negative-leaning enclosures; operands whose sign cannot be
    settled cheaply fall through to the same interval product, which is
    sound for any signs.  The product is formed from integer corners:
    each operand is read with guard digits past 10**-(q+2), fixed up
    front from the other operand's magnitude, and the extreme corners
    are rounded outward to the grid 10**-(q+2).
    """
    if _is_exact_zero(x) or _is_exact_zero(y):
        return ZERO_REAL
    if x.is_exact and x.as_fraction() == 1:
        return y
    if y.is_exact and y.as_fraction() == 1:
        return x
    if x.is_exact and y.is_exact:
        return real_from_fraction(x.as_fraction() * y.as_fraction())

    sx, sy = _try_classify(x, 64), _try_classify(y, 64)
    if sx is Classification.ZERO or sy is Classification.ZERO:
        return ZERO_REAL
    if sx is Classification.NEGATIVE:
        return neg(mul(neg(x), y))
    if sy is Classification.NEGATIVE:
        return neg(mul(x, neg(y)))

    # every enclosure of width <= 1 lies within 1 of the first one, so
    # mx and my bound the magnitudes of all later enclosures, in units
    # of 10**-kx and 10**-ky
    lx, hx, kx = x._grid(0)
    ly, hy, ky = y._grid(0)
    mx = max(-lx, hx) + 10 ** kx
    my = max(-ly, hy) + 10 ** ky
    # an operand read at precision w is at most 3 units of 10**-w wide, so x
    # moves the corners by at most 3 * |y| units of 10**-(k+gx) and y by
    # at most 3 * |x| units of 10**-(k+gy), plus a negligible term; gx and
    # gy bring each below 0.3 units of 10**-k.  A guard that depends on
    # the operand's own magnitude as well would make the demand on the
    # innermost factor of a nested product grow quadratically in depth
    gx = _decimal_digits(my, 10 ** ky) + 1
    gy = _decimal_digits(mx, 10 ** kx) + 1

    def refine(q: int) -> tuple[int, int, int]:
        k = q + 2
        xs = _on_scale(*x._grid(k + gx), k + gx)
        ys = _on_scale(*y._grid(k + gy), k + gy)
        corners = [a * b for a in xs for b in ys]
        shift = 10 ** (k + gx + gy)
        return _on_grid(min(corners) // shift, -(-max(corners) // shift),
                        k, q)

    return ComputedReal(refine, f"({_describe(x)} * {_describe(y)})")


def reciprocal(x: RealNumber, budget: int = DEFAULT_BUDGET) -> RealNumber:
    """1 / x for x provably nonzero.

    Once an enclosure of x has a positive floor lo0, the reciprocal of
    [lx, hx] is read on the grid 10**-(q+2) by floor and ceiling integer
    division; since its width (hx - lx) / (lx * hx) is at most
    10**-w / lo0**2, the guard digits that buy the requested width are
    known before the first refinement.  Raises ZeroDivisionError for
    exact zero and SignUndecided when the sign of x cannot be
    established within the budget.
    """
    if x.is_exact:
        f = x.as_fraction()
        if f == 0:
            raise ZeroDivisionError("reciprocal of zero")
        return real_from_fraction(1 / f)
    sign = classify(x, budget)  # raises SignUndecided on boundary values
    if sign is Classification.ZERO:
        raise ZeroDivisionError("reciprocal of zero")
    if sign is Classification.NEGATIVE:
        return neg(reciprocal(neg(x), budget))

    _, lo0, k0 = _positive_floor(x, budget)
    head = _decimal_digits(10 ** (2 * k0), lo0 * lo0)

    def refine(q: int) -> tuple[int, int, int]:
        k = q + 2
        lx, hx, kx = _above(x, k + head, (lo0, k0))
        # 10**-k * 10**-kx: one unit of the result times one of x
        one = 10 ** (k + kx)
        lo = one // hx
        hi = -(-one // lx)
        # lo / 10**k <= 1 / hx and hi / 10**k >= 1 / lx
        assert lo * hx <= one <= hi * lx
        return _on_grid(lo, hi, k, q)

    return ComputedReal(refine, f"1/({_describe(x)})")


def _exact_sqrt(f: Fraction) -> Fraction | None:
    """The exact rational square root, if one exists."""
    sp, sq = math.isqrt(f.numerator), math.isqrt(f.denominator)
    if sp * sp == f.numerator and sq * sq == f.denominator:
        return Fraction(sp, sq)
    return None


def sqrt(r: RealNumber, budget: int = DEFAULT_BUDGET) -> RealNumber:
    """The unique non-negative s with s*s = r.

    Enclosures come from integer square roots on the grid 10**-k.  For
    an exact radicand p/d that is not a rational square, s lies strictly
    between isqrt(p * 10**(2k) // d) and the next unit, with k = q + 1.
    For a radicand known only by enclosures [lr, hr], the floor root of
    lr and the ceiling root of hr bound s on the grid 10**-(q+2); the
    radicand's width is shrunk by the factor 2 * sqrt(lr0), where lr0
    is its positive floor, so it is asked for about q + head + 2 digits
    and the demand of nested roots grows linearly with depth.  Rational
    perfect squares come back exact.
    """
    if r.is_exact:
        f = r.as_fraction()
        if f == 0:
            return ZERO_REAL
        if f < 0:
            raise NegativeRadicand(f"square root of {f}")
        exact = _exact_sqrt(f)
        if exact is not None:
            return real_from_fraction(exact)
        p, d = f.numerator, f.denominator

        def refine_exact(q: int) -> tuple[int, int, int]:
            k = q + 1
            scaled = p * 10 ** (2 * k)
            s = math.isqrt(scaled // d)
            # f is not a rational square, so the upper end is strict
            assert s * s * d <= scaled < (s + 1) * (s + 1) * d
            return _on_grid(s, s + 1, k, q)

        return ComputedReal(refine_exact, f"sqrt({_describe(r)})")

    sign = classify(r, budget)
    if sign is Classification.NEGATIVE:
        raise NegativeRadicand("square root of a provably negative value")
    if sign is Classification.ZERO:
        return ZERO_REAL

    _, lr0, k0 = _positive_floor(r, budget)
    # sqrt(hr) - sqrt(lr) = (hr - lr) / (sqrt(hr) + sqrt(lr)), and both
    # roots are at least sqrt(lr0) >= 10**-head
    head = (_decimal_digits(10 ** k0, lr0) + 1) // 2

    def refine(q: int) -> tuple[int, int, int]:
        k = q + 2
        lr, hr, kr = _above(r, k + head, (lr0, k0))
        low, high = _on_scale(lr, hr, kr, 2 * k)
        lo = math.isqrt(low)
        hi = math.isqrt(high)
        if hi * hi < high:
            hi += 1
        assert lo * lo <= low and high <= hi * hi
        return _on_grid(lo, hi, k, q)

    return ComputedReal(refine, f"sqrt({_describe(r)})")


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
