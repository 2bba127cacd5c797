"""Real numbers as canonical decimal expansions.

A real is one of four variants:

* ``TerminatingReal``  -- exact terminating decimal;
* ``PeriodicReal``     -- exact eventually-periodic expansion, backed by a
  rational in lowest terms, with the minimal (preperiod, period) pair
  materialised on demand;
* ``OracleReal``       -- a digit stream supplied by a callback, promised
  canonical (no trailing all-nines tail);
* ``ComputedReal``     -- a value known only through refinable enclosures
  (results of arithmetic on digit streams); digits are pinned from
  enclosures on demand and may be refused with ``DigitsUnstable`` when
  the value sits on an exact decimal boundary.

An exact value is one ``Fraction`` in lowest terms or one canonical
``TerminatingDecimal``, and the kernels read it as the integers of its
ratio (``_ratio``).  Its kind is decided once, when it is made:
``real_from_fraction`` tests the denominator, and a parsed literal or a
negation knows its kind already.  Fields that an instance computes on
first read (``_expansion``, ``_magnitude``) are ``_frozen.lazy``, which
takes no lock, so a long first read of one value holds up no other.

Every variant encloses its value on a decimal grid (``_grid``).  Nodes
hand these integer triples to one another, so no rational is normalised
on the refinement path; ``bounds`` reads one as two Fractions.  A
terminating value answers with its own point, on its own grid at any
precision asked, so an exact factor adds no width to a product and no
digits to what a pass asks of the rest.  The powers of ten that move
triples between grids, pin digits and check widths come from
``terminating.ten``, which keeps those up to a fixed exponent: a pass
and a workload use the same few precisions again and again.

Canonical form is sign-magnitude: ``-a.d1 d2 ...`` with a non-negative
integer part and fractional digits of the magnitude.  Expansions never
end in all nines, so lexicographic order on (sign, integer part, digits)
coincides with numeric order; budgeted comparisons walk digits and
answer ``UNDECIDED`` when every examined position agrees.

The walks read each value as prefixes of doubling length (8, 16, 32, ...
positions, cut at the budget) and compare them as strings, so a walk of
n digits costs O(log n) reads of at most about 2n digits.  A digit that
cannot be produced stops a prefix short, and the walk raises its error
only once it needs that position, so verdicts and refusals come at the
same positions as in a walk that reads one digit at a time.
"""

from __future__ import annotations

import threading
from decimal import Decimal
from enum import Enum
from fractions import Fraction
from math import isqrt
from typing import Callable, Iterator, Optional

from ._frozen import frozen, lazy
from .errors import (
    CanonicalViolation,
    DigitsUnstable,
    ExpansionTooLong,
    MalformedLiteral,
    NotLess,
    OrderUndecided,
    SignUndecided,
)
from .terminating import (
    _LEAF,
    EXACT_CONTEXT,
    Comparison,
    TerminatingDecimal,
    decimal_from_digits,
    decimal_from_int,
    digits_from_int,
    int_from_digits,
    pow10,
    scan_literal,
    split_denominator,
    ten,
    two_five_exponents,
)

DEFAULT_BUDGET = 1000
# extra refinement digits allowed before digit pinning gives up
PIN_WINDOW = 64
# digits past a request at which a pass over a ComputedReal runs, and
# past the digits a root that came out too wide missed
PASS_GUARD = 3
# longest exact expansion (preperiod plus period) that is materialised;
# longer ones raise ExpansionTooLong
MAX_EXPANSION_DIGITS = 10**6
# window scanned past a run of nines by the canonical-form checker
NINE_CHECK_WINDOW = 64
# leading digits from which parse_real guesses the value of a long
# repeating group: two fractions with denominators at most
# isqrt(10**64 / 2) differ by at least 2 * 10**-64, so the closest one
# to those digits is the value whenever its denominator is that small
_GUESS_DIGITS = 64
_GUESS_DENOMINATOR = isqrt(10 ** _GUESS_DIGITS // 2)


def _precisions(start: int, stop: int) -> Iterator[int]:
    """The precisions at which an enclosure is refined until a question
    is decided: start, start + 2, start + 6, ... (the step doubles),
    ending with stop.  Exhausting it means the budget ran out."""
    m, step = start, 2
    while m < stop:
        yield m
        m = min(m + step, stop)
        step *= 2
    yield m


class Classification(Enum):
    NEGATIVE = -1
    ZERO = 0
    POSITIVE = 1


@frozen
class DigitPrefix:
    """A confirmed finite prefix of a canonical expansion.

    ``int_part`` is the (non-negative) integer part of the magnitude;
    ``digits`` are fractional digits of the magnitude.  Unlike a
    terminating decimal, a prefix keeps trailing zeros: it records how
    many positions were confirmed.
    """

    negative: bool
    int_part: int
    digits: str

    def __post_init__(self):
        if self.int_part < 0:
            raise ValueError("int_part must be non-negative")
        if self.digits and not self.digits.isdigit():
            raise ValueError("digits must be characters 0-9")

    def __len__(self) -> int:
        return len(self.digits)

    def value(self) -> Fraction:
        mag = Fraction(int_from_digits(self.digits or "0"),
                       10 ** len(self.digits))
        mag += self.int_part
        return -mag if self.negative else mag

    def as_terminating(self) -> TerminatingDecimal:
        units = int_from_digits(digits_from_int(self.int_part) + self.digits)
        if self.negative:
            units = -units
        return TerminatingDecimal(units, len(self.digits))

    def extend(self, digit: int) -> "DigitPrefix":
        return DigitPrefix(self.negative, self.int_part, self.digits + str(digit))

    def render(self) -> str:
        body = digits_from_int(self.int_part)
        if self.digits:
            body += "." + self.digits
        return ("-" if self.negative else "") + body


class RealNumber:
    """Base class; see the module docstring for the variants."""

    is_exact = False

    def digit_at(self, i: int) -> int:
        """i-th fractional digit (i >= 1) of the canonical expansion of |x|."""
        if i < 1:
            raise ValueError("digit positions start at 1")
        return int(self.prefix(i).digits[-1])

    @property
    def int_part(self) -> int:
        """Integer part of the magnitude (digits before the point)."""
        raise NotImplementedError

    def integral_part(self) -> int:
        """The unique integer n with n <= x < n + 1."""
        raise NotImplementedError

    def _grid(self, m: int) -> tuple[int, int, int]:
        """An enclosure on the grid 10**-k: (lo, hi, k) with lo * 10**-k
        <= x <= hi * 10**-k, and either k >= m and hi - lo <= 10**(k - m),
        or lo == hi, an exact point on its own grid, whatever m is."""
        raise NotImplementedError

    def bounds(self, m: int) -> tuple[Fraction, Fraction]:
        """A rational enclosure [lo, hi] of the value with hi - lo <= 10**-m."""
        lo, hi, k = self._grid(m)
        scale = 10 ** k
        return Fraction(lo, scale), Fraction(hi, scale)

    def negated(self) -> "RealNumber":
        """Structural negation (no arithmetic, no loss of exactness)."""
        raise NotImplementedError

    def as_fraction(self) -> Fraction:
        raise TypeError(f"{type(self).__name__} has no exact rational value")

    def _read(self, n: int) -> tuple[str, Optional[Exception]]:
        """The first n fractional digits of |x| as one string, or fewer
        together with the error that stops the next one (a ComputedReal
        on a decimal boundary, an oracle callback that raises)."""
        raise NotImplementedError

    def prefix(self, n: int) -> DigitPrefix:
        """First n fractional digits as a confirmed prefix."""
        if n < 0:
            raise ValueError("prefix length must be non-negative")
        digits, error = self._read(n)
        if error is not None:
            raise error
        return DigitPrefix(self.negative, self.int_part, digits)


@frozen
class TerminatingReal(RealNumber):
    """A terminating decimal viewed as a real number."""

    value: TerminatingDecimal

    is_exact = True

    def digit_at(self, i: int) -> int:
        return self.value.digit(i)

    @property
    def negative(self) -> bool:
        return self.value.units < 0

    @property
    def int_part(self) -> int:
        return abs(self.value.units) // 10 ** self.value.scale

    def integral_part(self) -> int:
        return self.value.floor()

    @lazy
    def _fraction_digits(self) -> str:
        # the integer digits are cut from the text: cutting them from the
        # value would first raise 10 to the power scale
        scale = self.value.scale
        if not scale:
            return ""
        return digits_from_int(self.value.mantissa).rjust(scale, "0")[-scale:]

    def _read(self, n: int) -> tuple[str, None]:
        return self._fraction_digits[:n].ljust(n, "0"), None

    def _grid(self, m: int) -> tuple[int, int, int]:
        # the point itself: a consumer scales it to the grid it needs
        units = self.value.units
        return units, units, self.value.scale

    def negated(self) -> "TerminatingReal":
        return TerminatingReal(-self.value)

    def _ratio(self) -> tuple[int, int, int]:
        """(a, b, s) with the value a / (b * 10**s), b > 0, unreduced."""
        return self.value.units, 1, self.value.scale

    def as_fraction(self) -> Fraction:
        return self.value.as_fraction()

    def __str__(self) -> str:
        return str(self.value)


@frozen
class PeriodicReal(RealNumber):
    """An eventually-periodic expansion, exactly a non-terminating rational.

    The structural fields (int_part, preperiod, period) are materialised
    on demand: the preperiod length comes from the factors 2 and 5 of the
    denominator, and the period from digit blocks of doubling width, each
    one decimal division (``_digit_block``), read until the leading
    digits recur, which yields the minimal period, so two instances are
    structurally equal exactly when their values are equal.  Expansions
    longer than ``MAX_EXPANSION_DIGITS`` raise ``ExpansionTooLong``.

    The public constructor refuses a fraction that terminates.  The
    library's own routes already know that theirs does not, and build
    through ``_of``, which skips that test.
    """

    fraction: Fraction

    is_exact = True

    def __post_init__(self):
        if two_five_exponents(self.fraction.denominator) is not None:
            raise ValueError("value terminates; use TerminatingReal")

    @classmethod
    def _of(cls, fraction: Fraction) -> "PeriodicReal":
        """The value of a fraction already known not to terminate, built
        without the public constructor's test, so that each value's kind
        is decided once."""
        x = object.__new__(cls)
        object.__setattr__(x, "fraction", fraction)
        return x

    @lazy
    def _expansion(self) -> tuple[str, str]:
        """(preperiod, period) of the magnitude.

        With denominator 2^a * 5^b * q, q coprime to 10, the preperiod
        has k = max(a, b) digits and comes from one division; what is
        left is s/q, purely periodic, whose period is found by
        ``_period_digits``.
        """
        limit = MAX_EXPANSION_DIGITS
        _, r, den = self._magnitude
        q, k = split_denominator(den)
        if k > limit:
            raise ExpansionTooLong(self.fraction, limit)
        pre, s = divmod(r * (10 ** k // (den // q)), q)
        preperiod = digits_from_int(pre).rjust(k, "0") if k else ""
        period = _period_digits(s, q, limit - k)
        if period is None:
            raise ExpansionTooLong(self.fraction, limit)
        return preperiod, period

    @lazy
    def _magnitude(self) -> tuple[int, int, int]:
        """(int_part, r, q) with |x| = int_part + r/q and 0 < r < q."""
        q = self.fraction.denominator
        int_part, r = divmod(abs(self.fraction.numerator), q)
        return int_part, r, q

    @property
    def negative(self) -> bool:
        return self.fraction.numerator < 0

    @property
    def int_part(self) -> int:
        return self._magnitude[0]

    @property
    def preperiod(self) -> str:
        return self._expansion[0]

    @property
    def period(self) -> str:
        return self._expansion[1]

    def digit_at(self, i: int) -> int:
        if i < 1:
            raise ValueError("digit positions start at 1")
        # floor(r/q * 10**i) mod 10 without materialising the expansion
        _, r, q = self._magnitude
        return r * pow(10, i, 10 * q) % (10 * q) // q

    def _read(self, n: int) -> tuple[str, None]:
        # one division of n digits, not n calls of digit_at; a block of
        # width 0 reads as "0", hence the cut
        _, r, q = self._magnitude
        digits, _ = _digit_block(decimal_from_int(r), decimal_from_int(q), n)
        return digits[:n], None

    def integral_part(self) -> int:
        return self.fraction.numerator // self.fraction.denominator

    def _grid(self, m: int) -> tuple[int, int, int]:
        # the value is never on the grid, so both ends are strict
        lo = self.fraction.numerator * ten(m) // self.fraction.denominator
        return lo, lo + 1, m

    def bounds(self, m: int) -> tuple[Fraction, Fraction]:
        return self.fraction, self.fraction

    def negated(self) -> "PeriodicReal":
        return PeriodicReal._of(-self.fraction)

    def _ratio(self) -> tuple[int, int, int]:
        return self.fraction.numerator, self.fraction.denominator, 0

    def as_fraction(self) -> Fraction:
        return self.fraction

    def __str__(self) -> str:
        pre, per = self._expansion
        body = f"{digits_from_int(self.int_part)}.{pre}({per})"
        return ("-" if self.negative else "") + body


def _digit_block(s: Decimal, q: Decimal, width: int) -> tuple[str, Decimal]:
    """The first ``width`` digits of s/q (0 <= s < q) after the point,
    and the remainder after them.

    The block is one division and one zero-padded ``str()`` in
    :mod:`decimal`, exact under ``EXACT_CONTEXT``.  For a short q both
    are linear in the block's width, where ``str()`` of an int is
    quadratic, so a block can be as wide as the digits asked for.
    Callers bring s and q into :mod:`decimal` with ``decimal_from_int``,
    which is subquadratic where ``Decimal(int)`` is not.
    """
    block, s = EXACT_CONTEXT.divmod(EXACT_CONTEXT.scaleb(s, width), q)
    return str(block).rjust(width, "0"), s


def _period_digits(s: int, q: int, limit: int) -> Optional[str]:
    """One period of the purely periodic s/q (0 < s < q, q coprime to 10),
    or None when the period is longer than ``limit`` digits.

    The digits from position p on are those of r_p/q, r_p the remainder
    there.  When 10**w > q, two remainders are equal exactly when the w
    digits after them are, so the period is the first p >= 1 at which
    the leading w digits recur, and no table of remainders is needed.
    Only the new digits of each block, with the w - 1 before them, are
    searched.  The period divides the order of 10 modulo q, which is at
    most q - 1, so the limit is first cut to q - 1: a longer one could
    never be reached.  A period of at most limit digits shows within
    limit + w digits, so no more are made.  The first block is limit + w
    digits when that fits in ``_LEAF``, so a short q takes one division,
    and otherwise ``_LEAF``; it is never narrower than w + 8.  Each
    block after it is twice as wide.
    """
    w = q.bit_length() * 30103 // 100_000 + 1  # 10**w > 2**bits > q
    limit = min(limit, q - 1)
    s, q = decimal_from_int(s), decimal_from_int(q)
    blocks: list[str] = []
    head = tail = ""  # the first w digits; the last w - 1 digits
    # digits generated; the next block's width
    n, width = 0, max(min(limit + w, _LEAF), w + 8)
    while n < limit + w:
        block, s = _digit_block(s, q, min(width, limit + w - n))
        width *= 2
        blocks.append(block)
        if len(head) < w:
            head = (head + block)[:w]
        window, base = tail + block, n - len(tail)  # window[0] is digit base
        n += len(block)
        if len(head) == w:
            i = window.find(head, max(1 - base, 0))
            if i >= 0:
                return "".join(blocks)[:base + i]
        tail = window[max(len(window) - w + 1, 0):]
    return None


def real_from_fraction(value: Fraction) -> RealNumber:
    """Exact real for a rational: terminating when the denominator is
    2^a * 5^b, periodic otherwise.

    ``two_five_exponents`` tells the two apart without splitting the
    denominator, once: a terminating value is scaled by the exponents
    it found, and a periodic one is not tested again.
    """
    exponents = two_five_exponents(value.denominator)
    if exponents is None:
        return PeriodicReal._of(value)
    return TerminatingReal(
        TerminatingDecimal._scaled(value.numerator, *exponents))


ZERO_REAL = TerminatingReal(TerminatingDecimal(0))


def _is_exact_zero(x: RealNumber) -> bool:
    """Whether x is exactly zero; only a terminating value can be."""
    return isinstance(x, TerminatingReal) and x.value.units == 0


class OracleReal(RealNumber):
    """A real given by an explicit digit stream.

    value = sign * (int_part + 0.d1 d2 ...) where ``digit_fn(i)`` yields
    the i-th fractional digit of the magnitude.  The constructor's
    ``promise`` documents why the stream is canonical (never ends in all
    nines, and is not a disguised zero when the sign is set); the library
    trusts it.  Wrap ``digit_fn`` with :func:`with_nine_run_check` to
    bolt on a runtime check.  Digits are memoised as one string of ASCII
    digits, extended under one lock acquisition per request, so instances
    may be shared across threads and a prefix is one slice of the memo.

    Its enclosures are zero-free once its sign is settled: ``_grid``
    never reads on a grid coarser than the first nonzero digit the memo
    holds, so after ``classify`` has found that digit every enclosure
    excludes zero, and ``reciprocal`` and ``sqrt`` read it at any
    precision.
    """

    def __init__(self, digit_fn: Callable[[int], int], *,
                 negative: bool = False, int_part: int = 0,
                 promise: str = "", caveat: Optional[str] = None):
        if int_part < 0:
            raise ValueError("int_part must be non-negative")
        self._digit_fn = digit_fn
        self.negative = negative
        self._int_part = int_part
        self.promise = promise
        self.caveat = caveat
        self._memo = bytearray()
        self._lock = threading.Lock()

    @property
    def int_part(self) -> int:
        return self._int_part

    def _read(self, n: int) -> tuple[str, Optional[Exception]]:
        with self._lock:
            memo = self._memo
            while len(memo) < n:
                # whatever the callback raises is the refusal of this
                # digit: handed back, not raised, since a walk that
                # decides on an earlier digit must not see it
                try:
                    d = self._digit_fn(len(memo) + 1)
                    if not 0 <= d <= 9:
                        raise ValueError(f"digit stream produced {d!r}")
                except Exception as exc:
                    return memo.decode(), exc
                memo.append(48 + d)  # ASCII "0" + d
            return memo[:n].decode(), None

    def integral_part(self, scan_budget: int = DEFAULT_BUDGET) -> int:
        if not self.negative:
            return self._int_part
        # floor(-(n + 0.ddd...)) is -n for an all-zero tail, else -n - 1;
        # an all-zero tail can only be confirmed up to the scan budget
        if _view(self).first_not("0", 1, scan_budget) is None:
            raise DigitsUnstable(0, scan_budget)
        return -self._int_part - 1

    def _grid(self, m: int) -> tuple[int, int, int]:
        digits = self.prefix(m).digits
        lo = self._int_part * 10 ** m + int_from_digits("0" + digits)
        if not lo:
            # zero through m: read through the first nonzero digit the
            # memo holds, so that a settled sign stays settled
            tail = self._memo[m:]
            zeros = len(tail) - len(tail.lstrip(b"0"))
            if zeros < len(tail):
                return self._grid(m + zeros + 1)
        if self.negative:
            return -lo - 1, -lo, m
        return lo, lo + 1, m

    def _alias(self, negative: bool) -> "OracleReal":
        """A new instance of the same stream that shares the memo and its
        lock, so the two never disagree on a digit."""
        other = OracleReal(self._digit_fn, negative=negative,
                           int_part=self._int_part, promise=self.promise,
                           caveat=self.caveat)
        other._memo, other._lock = self._memo, self._lock
        return other

    def negated(self) -> "OracleReal":
        return self._alias(not self.negative)

    def __repr__(self) -> str:
        return (f"OracleReal({'-' if self.negative else ''}{self._int_part}."
                f"..., promise={self.promise!r})")


def with_nine_run_check(digit_fn: Callable[[int], int],
                        window: int = NINE_CHECK_WINDOW) -> Callable[[int], int]:
    """Wrap a digit stream with a conservative canonical-form check.

    Before a 9 is emitted, up to ``window`` following digits are scanned
    for a non-nine.  A run longer than the window cannot be told apart
    from a forbidden all-nines tail, so it raises
    :class:`CanonicalViolation` even though a long legal run would too.
    """

    def checked(i: int) -> int:
        d = digit_fn(i)
        if d == 9:
            for j in range(i + 1, i + window + 1):
                if digit_fn(j) != 9:
                    return d
            raise CanonicalViolation(
                f"run of nines from digit {i} exceeds the "
                f"{window}-digit verification window")
        return d

    return checked


class ComputedReal(RealNumber):
    """A real known through a refinable enclosure on a decimal grid.

    ``ComputedReal(refine, description)`` is a leaf: ``refine(p)`` must
    return integers (lo, hi, k) with k >= p, lo * 10**-k <= value <= hi *
    10**-k and hi - lo <= 10**(k - p), the contract of ``_grid``, which
    is checked where any leaf answers.  The description is a string, or
    a function that makes it whenever it is asked for.  The arithmetic
    kernels are records instead: a record holds its operands, and its
    ``_step`` combines their triples and rounds outward on the grid
    10**-(p+1).

    A request for m digits runs a pass at the working precision p = m +
    ``PASS_GUARD``: every node not yet stepped at p or more reads its
    operands at p and steps once.  The width is checked at the root
    only, and a root that is still too wide runs another pass, with p
    raised by the digits it missed plus ``PASS_GUARD``.  So the digits
    asked of a leaf do not grow with the depth of the expression above
    it, only with what its values lose.  Enclosures are cached and
    intersected on the finer of the two grids, so they only ever
    tighten, and a sign is known once: after ``classify`` has found an
    enclosure that excludes zero, every later one excludes it too, which
    is what ``reciprocal`` and ``sqrt`` rely on.  Digits are pinned from
    enclosures: the prefix of length n is committed once an enclosure
    fits strictly inside one 10**-n cell, and ``DigitsUnstable`` is
    raised if that fails with ``PIN_WINDOW`` extra refinement digits
    (the 0.999/1.000 boundary).
    """

    _operands: tuple[RealNumber, ...] = ()
    # a record's description: head, separator and tail around operands
    _form = ("", "", "")

    def __init__(self, refine: Callable[[int], tuple[int, int, int]],
                 description: str | Callable[[], str] = ""):
        self._refine = refine
        self._description = description
        self._best: Optional[tuple[int, int, int]] = None
        # the highest working precision this node was stepped at
        self._p = -1
        self._pinned: Optional[tuple[bool, int, str]] = None
        self._lock = threading.RLock()

    def _step(self, p: int, grids: list) -> tuple[int, int, int]:
        return self._refine(p)

    def _fresh(self, m: int) -> bool:
        best = self._best
        return (best is not None and best[2] >= m
                and best[1] - best[0] <= ten(best[2] - m))

    def _grid(self, m: int) -> tuple[int, int, int]:
        """The enclosure at m, from passes over the expression below:
        the first at p = m + PASS_GUARD, and while the root is too wide
        one more, with p raised by the digits it missed plus
        PASS_GUARD.  A pass runs on an explicit stack.  A stale node
        asks its operands first, depth first and left to right; each
        operand hands the node the triple it holds once it is stepped,
        as a nested call would return it, and the node then steps once,
        under its own lock, which is not held while its operands are
        refined."""
        if self._fresh(m):
            return self._best
        p = m + PASS_GUARD
        while True:
            # a frame (node, grids, out, i) puts the node's triple at
            # out[i]; grids is None until the node is visited, then it
            # collects the operands' triples
            stack = [(self, None, [None], 0)]
            while stack:
                node, grids, out, i = stack.pop()
                if grids is None:
                    if node._p >= p:
                        out[i] = node._best
                        continue
                    # operands pushed last to first, so the first is on top
                    grids, waits = [None] * len(node._operands), []
                    for j in reversed(range(len(grids))):
                        t = node._operands[j]
                        if isinstance(t, ComputedReal):
                            waits.append((t, None, grids, j))
                        else:
                            grids[j] = t._grid(p)
                    if waits:  # combine once they are done
                        stack.append((node, grids, out, i))
                        stack += waits
                        continue
                with node._lock:  # a leaf's refine runs under it too
                    lo, hi, k = node._step(p, grids)
                    if not grids and (k < p or hi - lo > ten(k - p)):
                        raise AssertionError(
                            "a leaf answered wider than its precision allows")
                    if node._best is not None:
                        blo, bhi, bk = node._best
                        j = max(k, bk)
                        (lo, hi), (blo, bhi) = (_on_scale(lo, hi, k, j),
                                                _on_scale(blo, bhi, bk, j))
                        lo, hi, k = max(lo, blo), min(hi, bhi), j
                    if lo > hi:
                        raise AssertionError(
                            "enclosure refinement became inconsistent")
                    node._best = out[i] = (lo, hi, k)
                    if p > node._p:
                        node._p = p
            # after any pass the root is on a grid finer than 10**-m
            best = lo, hi, k = self._best
            if hi - lo <= ten(k - m):
                return best
            p = self._p + _decimal_digits(hi - lo, ten(k - m)) + PASS_GUARD

    def _pin(self, n: int) -> tuple[bool, int, str]:
        """Pin the canonical sign-magnitude prefix of length n."""
        with self._lock:
            if self._pinned is not None and len(self._pinned[2]) >= n:
                neg, ip, ds = self._pinned
                return neg, ip, ds[:n]
            for m in _precisions(n, n + PIN_WINDOW):
                lo, hi, k = self._grid(m)
                if lo >= 0:
                    neg, mag_lo, mag_hi = False, lo, hi
                elif hi <= 0:
                    neg, mag_lo, mag_hi = True, -hi, -lo
                else:
                    continue  # sign unresolved; refine further
                cell = ten(k - n)
                a = mag_lo // cell
                if a == mag_hi // cell:
                    break
            else:
                raise DigitsUnstable(n, PIN_WINDOW)
            ip, frac = divmod(a, ten(n))
            ds = digits_from_int(frac).rjust(n, "0") if n else ""
            pinned = (neg, ip, ds)
            if self._pinned is None or len(ds) > len(self._pinned[2]):
                self._pinned = pinned
            return pinned

    def _read(self, n: int) -> tuple[str, Optional[DigitsUnstable]]:
        try:
            return self._pin(n)[2], None
        except DigitsUnstable:
            pass
        # the failed pin left the enclosure 10**-(n + PIN_WINDOW) wide, so
        # no shorter pin refines it further: the prefixes that pin now are
        # those up to some k < n, found by bisection, and position k + 1 is
        # where a digit-by-digit read stops too
        k, top = len(self._pinned[2]) if self._pinned else 0, n - 1
        while k < top:
            mid = (k + top + 1) // 2
            try:
                self._pin(mid)
                k = mid
            except DigitsUnstable:
                top = mid - 1
        return self._pin(k)[2], DigitsUnstable(k + 1, PIN_WINDOW)

    @property
    def description(self) -> str:
        # operands nested more than 12 levels below print as "...", so
        # that describing a long chain does not recurse through it
        return self._text(12)

    def _text(self, depth: int) -> str:
        head, sep, tail = self._form
        if not self._operands:
            text = self._description
            return text if isinstance(text, str) else text()
        return head + sep.join(_describe(t, depth)
                               for t in self._operands) + tail

    # every pinned prefix carries the sign and integer part, so once one
    # is cached they are read from it without taking the lock

    @property
    def int_part(self) -> int:
        return (self._pinned or self._pin(0))[1]

    @property
    def negative(self) -> bool:
        return (self._pinned or self._pin(0))[0]

    def integral_part(self) -> int:
        # pin floor(value) directly in value space
        for m in _precisions(0, PIN_WINDOW):
            lo, hi, k = self._grid(m)
            unit = 10 ** k
            if lo // unit == hi // unit:
                return lo // unit
        raise DigitsUnstable(0, PIN_WINDOW)

    def prefix(self, n: int) -> DigitPrefix:
        neg, ip, ds = self._pin(n)
        return DigitPrefix(neg, ip, ds)

    def negated(self) -> "ComputedReal":
        return _Negation(self)

    def __repr__(self) -> str:
        return f"ComputedReal({self.description})"


class _Record(ComputedReal):
    """A node over operands: its ``_step`` combines their triples."""

    def __init__(self, *operands: RealNumber):
        super().__init__(None)
        self._operands = operands


class _Negation(_Record):
    """-x: x is read at the working precision of the pass."""

    _form = ("-(", "", ")")

    def _step(self, q: int, grids: list) -> tuple[int, int, int]:
        (lo, hi, k), = grids
        return -hi, -lo, k


def _on_scale(lo: int, hi: int, k: int, j: int) -> tuple[int, int]:
    """The enclosure [lo, hi] * 10**-k on the grid 10**-j: exact when j
    >= k, rounded outward otherwise."""
    if j >= k:
        s = ten(j - k)
        return lo * s, hi * s
    s = ten(k - j)
    return lo // s, -(-hi // s)


def _decimal_digits(num: int, den: int = 1) -> int:
    """Smallest d >= 0 with num / den <= 10**d, for positive den."""
    # 0.30102 < log10(2), so the search starts at or below d
    d = max((num // den).bit_length() - 1, 0) * 30102 // 100000
    while num > den * 10 ** d:
        d += 1
    return d


def _describe(x: RealNumber, depth: int) -> str:
    if isinstance(x, ComputedReal):
        return (x._text(depth - 1) if depth > 0 else "...") or "?"
    if isinstance(x, PeriodicReal):
        # its literal writes out a whole period, which can run to
        # millions of digits
        return str(x.fraction)
    return str(x) if x.is_exact else repr(x)


# ---------------------------------------------------------------------------
# parsing


def parse_real(text: str) -> RealNumber:
    """Parse ``-? digits ('.' digits ('(' digits ')')?)?``.

    Examples: ``51.43``, ``-0.36``, ``0.1(6)``, ``0.(142857)``.  The
    repeating group must not be all nines (such an expansion is not in
    canonical form; the intended value is the terminating neighbour).
    An all-zero group is dropped.  Values are normalised, so the minimal
    period and preperiod come out regardless of how they were written.
    """
    negative, int_digits, frac, period = scan_literal(text)
    if period is not None and not period.strip("9"):
        raise MalformedLiteral(
            f"{text!r}: an all-nines tail is not canonical; "
            f"write the terminating value instead")
    return _expansion_value(negative, int_digits, frac, period)


def _expansion_value(negative: bool, int_digits: str, frac: str,
                     period: Optional[str]) -> RealNumber:
    """The exact value of the expansion -I.F(P) or I.F(P), with digit
    strings I and F and the repeating group P (None for none).

    An all-zero group is the terminating I.F, and an all-nines group is
    its terminating neighbour: I.F plus one unit in F's last place, as
    the paper identifies 0.999... with 1.

    The period of r/b is shorter than b, and a group of n digits
    usually comes from a fraction whose denominator has about log10(n)
    digits, not n.  So when the group is longer than ``_LEAF`` (1000)
    digits, past which normalising the ``Fraction`` below costs more
    than a guess that fails, the fractional part F(P) is first guessed
    from its first 64 digits, as the closest fraction c = r/b with b at
    most about 7 * 10**31; write b = 2^i * 5^j * q with q coprime to
    10.  c is taken only when max(i, j) <= len(F), 10**len(P) = 1 (mod
    q), and the first len(F) + len(P) digits of c are F + P.  The first
    two conditions make c's expansion repeat with period len(P) from
    digit len(F) + 1 on, as the literal's does, and the third makes the
    two expansions agree on one whole period past that point, so they
    agree everywhere and c is the value of F(P).  That last check makes
    c's digits in two decimal divisions (``_digit_block``), a short
    block and then the rest, so it is linear in the literal's length.
    Any other group, and any group of at most 1000 digits, is decoded
    through the ``Fraction``.
    """
    if period is None or not period.strip("0"):
        return TerminatingReal(decimal_from_digits(negative, int_digits, frac))
    if not period.strip("9"):
        value = (decimal_from_digits(False, int_digits, frac)
                 + pow10(-len(frac)))
        return TerminatingReal(-value if negative else value)
    # a group neither all zeros nor all nines never ends in either, so
    # the value does not terminate and is not tested again
    if len(period) > _LEAF:
        guess = _guess_group_value(frac, period)
        if guess is not None:
            value = int_from_digits(int_digits) + guess
            return PeriodicReal._of(-value if negative else value)
    # I.F(P) = (IF * (10^p - 1) + P) / (10^k * (10^p - 1)), k = len(F)
    nines = 10 ** len(period) - 1
    num = int_from_digits(int_digits + frac) * nines + int_from_digits(period)
    return PeriodicReal._of(
        Fraction(-num if negative else num, 10 ** len(frac) * nines))


def _guess_group_value(frac: str, period: str) -> Optional[Fraction]:
    """The value of 0.F(P) found from its first ``_GUESS_DIGITS`` digits
    and checked as ``parse_real`` describes, or None."""
    head = (frac[:_GUESS_DIGITS] + period[:_GUESS_DIGITS])[:_GUESS_DIGITS]
    guess = Fraction(int(head), 10 ** _GUESS_DIGITS).limit_denominator(
        _GUESS_DENOMINATOR)
    r, b = guess.numerator, guess.denominator
    q, preperiod = split_denominator(b)
    # pow(10, p, 1) == 0 turns away the terminating guesses, 0 and 1 too
    if preperiod > len(frac) or pow(10, len(period), q) != 1:
        return None
    # a short block turns most wrong guesses away; a second one reads
    # the rest of the literal
    want, short = frac + period, 2 * _GUESS_DIGITS
    b = decimal_from_int(b)
    first, s = _digit_block(decimal_from_int(r), b, short)
    if not want.startswith(first):
        return None
    rest, _ = _digit_block(s, b, len(want) - short)
    return guess if want.endswith(rest) else None


# ---------------------------------------------------------------------------
# digit views and comparison


class _View:
    """Sign-magnitude view of a real, read by the lexicographic walks.

    ``flag`` is 0 for an exact zero and otherwise -1 or 1, the sign of
    the expansion, which a stream of zeros has too.  An exact value with
    a nonzero flag is nonzero; any other value is nonzero once it shows
    a nonzero digit.  ``int_part`` is read on first use, so a question
    that the sign settles never computes it.

    ``head(n)`` is the first n fractional digits as one string.  It is
    shorter when the next digit cannot be produced (a ComputedReal on a
    decimal boundary, an oracle callback that raises), and ``error`` then
    holds why; a walk raises it only once it needs a digit past the short
    head, which is where a walk reading one digit at a time raised it.
    """

    def __init__(self, x: RealNumber, flag: int):
        self.flag = flag
        self._x, self._read = x, x._read
        self.error: Optional[Exception] = None

    @lazy
    def int_part(self) -> int:
        return self._x.int_part

    def head(self, n: int) -> str:
        digits, self.error = self._read(n)
        return digits

    def first_not(self, d: str, start: int, budget: int) -> Optional[int]:
        """The first position in [start, budget] whose digit is not d,
        or None."""
        for lo, hi in _blocks(start, budget):
            block = self.head(hi)[lo:]
            rest = block.lstrip(d)
            if rest:
                return lo + len(block) - len(rest) + 1
            if len(block) < hi - lo:
                raise self.error
        return None

    def nonzero_within(self, budget: int) -> bool:
        # an exact zero is never scanned
        return self.flag != 0 and (
            self._x.is_exact or self.int_part > 0
            or self.first_not("0", 1, budget) is not None)


def _blocks(start: int, budget: int) -> Iterator[tuple[int, int]]:
    """The blocks (lo, hi] of positions in which a walk over [start,
    budget] reads its views: 8 positions wide, then doubling, the last
    one cut at the budget, so a walk reads O(log budget) heads and at
    most about twice the digits up to where it stops."""
    lo, width = start - 1, 8
    while lo < budget:
        hi = min(lo + width, budget)
        yield lo, hi
        lo, width = hi, 2 * width


def _first_difference(vx: _View, vy: _View,
                      budget: int) -> Optional[tuple[int, str, str]]:
    """The first position in [1, budget] where the two digit streams
    differ, with the two digits there, or None."""
    for lo, hi in _blocks(1, budget):
        hx, hy = vx.head(hi), vy.head(hi)
        end = min(len(hx), len(hy))
        if hx[lo:end] != hy[lo:end]:
            i = next(i for i in range(lo, end) if hx[i] != hy[i])
            return i + 1, hx[i], hy[i]
        if end < hi:
            # a digit-by-digit walk reads x's digit before y's
            raise (vx if len(hx) == end else vy).error
    return None


def _view(x: RealNumber) -> _View:
    """May raise DigitsUnstable for a ComputedReal near a boundary."""
    if not isinstance(x, RealNumber):
        raise TypeError(f"not a RealNumber: {x!r}")
    flag = 0 if _is_exact_zero(x) else -1 if x.negative else 1
    return _View(x, flag)


def _walk(vx: _View, vy: _View, budget: int) -> Comparison:
    """Order by sign, then by magnitude, reversed for two negatives."""
    if vx.flag != vy.flag:
        # the lower flag is below, strictly once either view shows a
        # nonzero digit; the lower one is scanned first
        less = vx.flag < vy.flag
        low, high = (vx, vy) if less else (vy, vx)
        if not (low.nonzero_within(budget) or high.nonzero_within(budget)):
            return Comparison.UNDECIDED
        return Comparison.LT if less else Comparison.GT
    if vx.flag == 0:
        return Comparison.EQ
    if vx.int_part != vy.int_part:
        less = vx.int_part < vy.int_part
    else:
        split = _first_difference(vx, vy, budget)
        if split is None:
            return Comparison.UNDECIDED
        less = split[1] < split[2]
    # the smaller magnitude is the lower value unless both are negative
    return Comparison.LT if less == (vx.flag > 0) else Comparison.GT


def _digit_compare(x: RealNumber, y: RealNumber, budget: int) -> Comparison:
    """Pure lexicographic comparison on canonical expansions (no rational
    shortcut).  Used as a differential check against the exact order."""
    try:
        return _walk(_view(x), _view(y), budget)
    except DigitsUnstable:
        return Comparison.UNDECIDED


def compare(x: RealNumber, y: RealNumber,
            budget: int = DEFAULT_BUDGET) -> Comparison:
    """Budgeted order comparison.

    Exactly-representable pairs are compared exactly, by the cross
    products of their integer ratios, and never come back UNDECIDED.
    Otherwise the canonical digit streams are walked up to ``budget``
    fractional digits, in blocks of doubling width compared as strings;
    UNDECIDED means every examined position agreed.  The verdict, or the refusal
    of an unpinnable digit, is the one a digit-at-a-time walk reaches at
    the same position.  A verdict reached at some budget is returned for
    every larger budget as well.

    Only a pair with a ComputedReal first tests enclosures at 8, 64 and
    ``budget`` digits for separation: they also separate a computed
    value on a decimal boundary, whose digits never pin.  A pair without
    one goes straight to the walk, since its enclosures are its digit
    prefixes and decide nothing the walk does not.  An oracle stream
    that refuses a digit within the precision tried ends the pass after
    one test at the digits it gave, and the walk decides, so a refusal
    past the first difference is never raised.
    """
    if x is y:
        return Comparison.EQ
    if x.is_exact and y.is_exact:
        # cross products of a / (b * 10**s) and c / (d * 10**t), the
        # power of ten only on the side of the smaller exponent: no
        # Fraction is built, and two terminating decimals are aligned
        (a, b, s), (c, d, t) = x._ratio(), y._ratio()
        if s < t:
            a *= ten(t - s)
        elif t < s:
            c *= ten(s - t)
        left, right = a * d, c * b
        return (Comparison.LT if left < right else Comparison.GT
                if left > right else Comparison.EQ)
    if not (isinstance(x, ComputedReal) or isinstance(y, ComputedReal)):
        return _digit_compare(x, y, budget)
    stream = x if isinstance(x, OracleReal) else y
    for n in sorted({min(8, budget), min(64, budget), budget}):
        # a stream refusing a digit by n is tested at the m digits it
        # gave, and then the walk decides, maybe before the refusal
        m = len(stream._read(n)[0]) if isinstance(stream, OracleReal) else n
        lx, hx, kx = x._grid(m)
        ly, hy, ky = y._grid(m)
        k = max(kx, ky)
        (lx, hx), (ly, hy) = _on_scale(lx, hx, kx, k), _on_scale(ly, hy, ky, k)
        if hx < ly:
            return Comparison.LT
        if hy < lx:
            return Comparison.GT
        if lx == hx and ly == hy:
            # both enclosures collapsed to points
            return (Comparison.EQ if lx == ly
                    else Comparison.LT if lx < ly else Comparison.GT)
        if m < n:
            break
    return _digit_compare(x, y, budget)


def classify(x: RealNumber, budget: int = DEFAULT_BUDGET) -> Classification:
    """Sign of x, or raise SignUndecided when x cannot be told from zero
    within the budget.

    A ComputedReal is refined until an enclosure excludes zero or is the
    point zero.  Any other value is read from its view: an exact value
    by its sign alone, a stream once it shows a nonzero digit."""
    if isinstance(x, ComputedReal):
        for m in _precisions(min(2, budget), budget):
            lo, hi, _ = x._grid(m)
            if lo > 0:
                return Classification.POSITIVE
            if hi < 0:
                return Classification.NEGATIVE
            if lo == hi:
                return Classification.ZERO
    else:
        v = _view(x)
        if v.flag == 0 or v.nonzero_within(budget):
            return Classification(v.flag)
    raise SignUndecided(f"value within 10^-{budget} of zero; sign unknown")


def digit_at(x: RealNumber, i: int) -> int:
    return x.digit_at(i)


def integral_part(x: RealNumber) -> int:
    return x.integral_part()


# ---------------------------------------------------------------------------
# trailing-nines repair and betweenness


def canonicalize_trailing_nines(prefix: DigitPrefix,
                                nine_onset: int) -> TerminatingDecimal:
    """Exact value of the expansion that continues ``prefix`` with nines
    forever, starting at fractional position ``nine_onset``.

    Such an expansion is identified with a terminating decimal: drop the
    digits from the onset and add one unit in the previous place.
    """
    if not 1 <= nine_onset <= len(prefix) + 1:
        raise ValueError("nine_onset out of range for the prefix")
    if any(c != "9" for c in prefix.digits[nine_onset - 1:]):
        raise ValueError("prefix digits from the onset must all be 9")
    return _expansion_value(prefix.negative, digits_from_int(prefix.int_part),
                            prefix.digits[:nine_onset - 1], "9").value


def _try_classify(x: RealNumber, budget: int) -> Optional[Classification]:
    try:
        return classify(x, budget)
    except SignUndecided:
        return None


def _above_zero_witness(b: RealNumber, budget: int) -> TerminatingDecimal:
    """A terminating decimal strictly between 0 and positive b."""
    try:
        vb = _view(b)
        if vb.int_part >= 1:
            return TerminatingDecimal(1, 1)  # 0.1
        m = vb.first_not("0", 1, budget)
    except DigitsUnstable as exc:
        raise OrderUndecided("digits of the upper endpoint are unstable") from exc
    if m is not None:
        return pow10(-(m + 1))
    raise OrderUndecided(
        f"no nonzero digit of the upper endpoint within {budget} digits")


def _between_positive(a: RealNumber, b: RealNumber,
                      budget: int) -> TerminatingDecimal:
    """Witness for 0 < a < b, both signs proven."""
    try:
        va, vb = _view(a), _view(b)
    except DigitsUnstable as exc:
        raise OrderUndecided("endpoint digits are unstable") from exc

    def bump(last: int) -> TerminatingDecimal:
        # truncate a before position `last` and write a 9 there
        head = va.head(last - 1)
        units = va.int_part * 10 ** last + int_from_digits(head + "9")
        return TerminatingDecimal(units, last)

    try:
        if va.int_part < vb.int_part:
            # raise some digit of a to 9: still below the next integer,
            # hence below b
            start = 1
        else:
            # equal integer parts: find the divergence, then raise the
            # first later sub-nine digit of a
            split = _first_difference(va, vb, budget)
            if split is None:
                raise OrderUndecided(
                    f"no divergence found within {budget} digits")
            i, da, db = split
            if da > db:
                raise OrderUndecided(
                    "digit streams contradict the established order")
            start = i + 1
        last = va.first_not("9", start, budget)
        if last is not None:
            return bump(last)
    except DigitsUnstable as exc:
        raise OrderUndecided("endpoint digits are unstable") from exc
    # the examined prefix of a was all nines: fall back to the next integer
    candidate = TerminatingDecimal(a.integral_part() + 1)
    if compare(TerminatingReal(candidate), b, budget) is Comparison.LT:
        return candidate
    raise OrderUndecided(
        f"prefix of the lower endpoint is all nines through {budget} digits")


def between(a: RealNumber, b: RealNumber,
            budget: int = DEFAULT_BUDGET) -> TerminatingDecimal:
    """A terminating decimal strictly between a and b.

    Requires a < b to be decidable within the budget (NotLess if a >= b
    is proven, OrderUndecided if the comparison or the construction runs
    out of budget).  The result needs at most a handful of digits beyond
    the point where the endpoints diverge.
    """
    order = compare(a, b, budget)
    if order is Comparison.UNDECIDED:
        raise OrderUndecided("could not establish a < b within the budget")
    if order is not Comparison.LT:
        raise NotLess(f"expected a < b, found {order.value}")
    ca, cb = _try_classify(a, budget), _try_classify(b, budget)
    if cb is Classification.POSITIVE or ca in (Classification.ZERO,
                                               Classification.POSITIVE):
        return _between_signed(a, b, ca, cb, budget)
    # otherwise the mirror image -b < -a is such a pair, unless no sign
    # is known
    cnb, cna = (None if c is None else Classification(-c.value)
                for c in (cb, ca))
    return -_between_signed(b.negated(), a.negated(), cnb, cna, budget)


def _between_signed(a: RealNumber, b: RealNumber,
                    ca: Optional[Classification],
                    cb: Optional[Classification],
                    budget: int) -> TerminatingDecimal:
    """Witness for a < b when classify proved b > 0 or a >= 0; ca and cb
    are the signs it found, None where it found none.  Without such a
    sign the endpoints are unresolved."""
    if ca is Classification.POSITIVE:
        return _between_positive(a, b, budget)
    if ca is Classification.ZERO:
        return _above_zero_witness(b, budget)
    if cb is Classification.POSITIVE:
        if ca is Classification.NEGATIVE:
            return TerminatingDecimal(0)
        # a is within 10**-budget of zero; any witness 0 < c < b with
        # fewer digits than that is also provably above a
        c = _above_zero_witness(b, budget)
        if c.scale < budget:
            return c
    raise OrderUndecided("endpoint signs could not be resolved")


# ---------------------------------------------------------------------------
# rendering


def render_digits(x: RealNumber, n: int) -> str:
    """Canonical text for x: exact form when terminating, otherwise the
    first n fractional digits of the expansion."""
    if isinstance(x, TerminatingReal):
        return str(x.value)
    return x.prefix(n).render()
