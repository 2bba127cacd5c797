"""Exact arithmetic on terminating decimals.

A terminating decimal is stored as a pair (units, scale) with value
units / 10**scale.  All operations are exact integer arithmetic after
rescaling to a common scale, so the field laws hold with no rounding.
"""

from __future__ import annotations

import decimal
from enum import Enum
from fractions import Fraction
from functools import total_ordering
from math import log2
from typing import Optional

from ._frozen import frozen
from .errors import MalformedLiteral


class Comparison(Enum):
    """Outcome of an order comparison.

    UNDECIDED is never produced for terminating decimals; it exists for
    the budgeted comparisons on digit-stream reals built on top of them.
    """

    LT = "<"
    EQ = "="
    GT = ">"
    UNDECIDED = "undecided"


# the unsigned decimal literal as pattern text: integer digits, then
# optional fractional digits and an optional repeating group, one
# capturing group each.  It is not compiled here: the CLI's tokenizer
# embeds it in its own pattern to split literal tokens, and scan_literal
# checks the same grammar by splitting at the punctuation, adding the
# sign and the rules on leading zeros and a bare point
_LITERAL = r"([0-9]+)(?:\.([0-9]*)(?:\(([0-9]+)\))?)?"


@total_ordering
@frozen
class TerminatingDecimal:
    """A signed decimal with finitely many fractional digits.

    Canonical form: if scale > 0 then units is not divisible by 10, and
    zero is always (0, 0).  Equality and hashing therefore coincide with
    numeric equality.  Instances are immutable and safe to share.
    """

    units: int
    scale: int = 0

    def __post_init__(self):
        units, scale = self.units, self.scale
        if scale < 0:
            raise ValueError("scale must be non-negative")
        # a canonical pair, the usual case, is kept as given
        if scale and units % 10 == 0:
            units, scale = _strip_zeros(units, scale) if units else (0, 0)
            object.__setattr__(self, "units", units)
            object.__setattr__(self, "scale", scale)

    # -- structure ---------------------------------------------------

    @property
    def sign(self) -> int:
        """-1, 0 or +1."""
        return (self.units > 0) - (self.units < 0)

    @property
    def mantissa(self) -> int:
        """The digit string with the decimal point removed, as an integer."""
        return abs(self.units)

    def is_zero(self) -> bool:
        return self.units == 0

    def as_fraction(self) -> Fraction:
        return Fraction(self.units, 10 ** self.scale)

    @classmethod
    def from_fraction(cls, value: Fraction) -> "TerminatingDecimal":
        """Exact conversion; the denominator must factor as 2^a * 5^b."""
        exponents = two_five_exponents(value.denominator)
        if exponents is None:
            raise ValueError(f"{value} is not a terminating decimal")
        return cls._scaled(value.numerator, *exponents)

    @classmethod
    def _scaled(cls, numerator: int, a: int, b: int) -> "TerminatingDecimal":
        """numerator / (2^a * 5^b), with exponents already found by
        ``two_five_exponents``, so that 5^b is not raised again.

        The scale is k = max(a, b), and the units are the numerator times
        2^(k - a) * 5^(k - b): a shift and one power, with no division.
        """
        k = max(a, b)
        return cls((numerator << (k - a)) * 5 ** (k - b), k)

    def floor(self) -> int:
        """The unique integer n with n <= self < n + 1."""
        return self.units // 10 ** self.scale

    def digit(self, i: int) -> int:
        """i-th fractional digit (i >= 1) of the magnitude; 0 past scale."""
        if i < 1:
            raise ValueError("digit positions start at 1")
        if i > self.scale:
            return 0
        return (self.mantissa // 10 ** (self.scale - i)) % 10

    # -- arithmetic --------------------------------------------------

    def __neg__(self) -> "TerminatingDecimal":
        return TerminatingDecimal(-self.units, self.scale)

    def __abs__(self) -> "TerminatingDecimal":
        return TerminatingDecimal(abs(self.units), self.scale)

    def __add__(self, other: "TerminatingDecimal") -> "TerminatingDecimal":
        if not isinstance(other, TerminatingDecimal):
            return NotImplemented
        s = max(self.scale, other.scale)
        units = (self.units * 10 ** (s - self.scale)
                 + other.units * 10 ** (s - other.scale))
        return TerminatingDecimal(units, s)

    def __sub__(self, other: "TerminatingDecimal") -> "TerminatingDecimal":
        if not isinstance(other, TerminatingDecimal):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: "TerminatingDecimal") -> "TerminatingDecimal":
        if not isinstance(other, TerminatingDecimal):
            return NotImplemented
        return TerminatingDecimal(self.units * other.units,
                                  self.scale + other.scale)

    def __lt__(self, other: "TerminatingDecimal") -> bool:
        # the other three orders come from total_ordering, with the
        # field equality, which is numeric on canonical pairs
        s = max(self.scale, other.scale)
        return (self.units * 10 ** (s - self.scale)
                < other.units * 10 ** (s - other.scale))

    # -- rendering ---------------------------------------------------

    def __str__(self) -> str:
        body = digits_from_int(self.mantissa).rjust(self.scale + 1, "0")
        if self.scale:
            body = body[:-self.scale] + "." + body[-self.scale:]
        return ("-" if self.units < 0 else "") + body

    def __repr__(self) -> str:
        return f"TerminatingDecimal({self!s})"


ZERO = TerminatingDecimal(0)
ONE = TerminatingDecimal(1)


def pow10(k: int) -> TerminatingDecimal:
    """10**k as an exact terminating decimal; k may be negative."""
    if k >= 0:
        return TerminatingDecimal(10 ** k)
    return TerminatingDecimal(1, -k)


# largest exponent whose power ``ten`` keeps: the table then holds at
# most about 0.3 MB
_TEN_BOUND = 1024
_TENS: dict[int, int] = {}


def ten(e: int) -> int:
    """10**e for e >= 0, the same int object each time for e up to
    ``_TEN_BOUND``.

    Refinement scales by powers of ten at precisions that recur: every
    leaf of one pass scales by the same one, and a workload asks for
    the same digit counts again and again, so each power up to the
    bound is raised once per process.  A larger one is raised on each
    call and not kept, which bounds the table.
    """
    try:
        return _TENS[e]
    except KeyError:
        power = 10 ** e
        if 0 <= e <= _TEN_BOUND:
            _TENS[e] = power
        return power


# widest int <-> str conversion left to plain int() or str(), below the
# interpreter's 4300-digit cap
_CHUNK = 4000
_CHUNK_BASE = 10 ** _CHUNK
# leaf size of int_from_digits: int() of a string is quadratic in its
# length, so short leaves are cheaper per digit until the products that
# join them cost more than they save
_LEAF = 1000
# largest leaf, in bits, of decimal_from_int; 1024 to 16384 measured alike
_LEAF_BITS = 4096
# exact decimal arithmetic on integers: no rounding, and any rounding traps
EXACT_CONTEXT = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX)
EXACT_CONTEXT.traps[decimal.Inexact] = True
# the low 64 bits, which an odd part must share with a power of 5
_LOW_64 = (1 << 64) - 1


def split_denominator(den: int) -> tuple[int, int]:
    """(q, k) with den = 2^a * 5^b * q, q coprime to 10, k = max(a, b).

    For p/den in lowest terms, k is the length of the preperiod of the
    decimal expansion and q the denominator of its purely periodic
    rest; the expansion terminates exactly when q == 1.

    The factors 5 are divided out as 5**(2**j): the powers are squared
    up while they divide den, then tried from the largest down, so b
    factors cost O(log b) big divisions, not one division each.
    """
    if den < 1:
        raise ValueError("denominator must be positive")
    twos = (den & -den).bit_length() - 1
    den >>= twos
    fives, powers, power = 0, [], 5
    while den % power == 0:
        powers.append(power)
        power *= power
    while powers:
        q, r = divmod(den, powers.pop())
        if not r:
            den, fives = q, fives + (1 << len(powers))
    return den, max(twos, fives)


def two_five_exponents(den: int) -> Optional[tuple[int, int]]:
    """(a, b) with den = 2^a * 5^b, or None when another prime divides den.

    p/den in lowest terms terminates exactly when this is not None.  The
    factors 2 are shifted out.  What is left is 5^b only if 5 divides it
    or it is 1, only for the one b whose power has its bit length, and
    only if its low 64 bits are those of 5^b.  So a shift, a remainder
    by 5 and a mask, each linear in the length of den, turn away nearly
    every other den, and 5^b is raised once, to confirm, where
    ``split_denominator`` would take O(log b) big divisions.
    """
    a = (den & -den).bit_length() - 1
    odd = den >> a
    if odd % 5:
        return (a, 0) if odd == 1 else None
    # 5^b has floor(b * log2(5)) + 1 bits, so (bits - 1) / log2(5) lies
    # in (b - 0.44, b]
    b = round((odd.bit_length() - 1) / log2(5))
    if (odd & _LOW_64) == pow(5, b, _LOW_64 + 1) and odd == 5 ** b:
        return a, b
    return None


def _squaring_powers(base, leaf: int):
    """``h -> base**h`` for h = leaf * 2**j, each power the square of the
    one below, kept for the length of one conversion."""
    powers = {leaf: base ** leaf}

    def power(h: int):
        if h not in powers:
            half = power(h // 2)
            powers[h] = half * half
        return powers[h]

    return power


def int_from_digits(digits: str) -> int:
    """Decode a decimal digit string of any length.

    ``int()`` on a string is capped at a few thousand digits by the
    interpreter (CVE-2020-10735 guard); repeating groups routinely exceed
    that — a denominator q can have a period as long as the multiplicative
    order of 10 modulo q — so split the string in halves, ``hi * 10**h +
    lo``, and call ``int()`` only on leaves below the cap.  Halves keep
    the large products balanced, where Karatsuba multiplication pays
    off; adding one chunk at a time would make every product lopsided.
    The low half is always ``_LEAF * 2**j`` digits, so one conversion
    needs only a few powers of ten, each the square of the one below.
    """
    if len(digits) <= _LEAF:
        return int(digits) if digits else 0
    power = _squaring_powers(10, _LEAF)

    def decode(lo: int, hi: int) -> int:
        if hi - lo <= _LEAF:
            return int(digits[lo:hi])
        h = _LEAF
        while 2 * h < hi - lo:
            h *= 2
        return decode(lo, hi - h) * power(h) + decode(hi - h, hi)

    return decode(0, len(digits))


def decimal_from_int(value: int) -> decimal.Decimal:
    """A non-negative integer of any length as an exact Decimal.

    ``Decimal(int)`` is quadratic in the length, so a value wider than
    ``_LEAF_BITS`` is split by bits, ``hi * 2**h + lo`` with a shift, and
    the halves are joined in :mod:`decimal`, whose products are
    subquadratic.  Halving by powers of ten would take ``divmod``, which
    CPython up to 3.11 does by schoolbook long division.  The width is
    ``leaf * 2**j`` bits with the leaf at most ``_LEAF_BITS``, so the
    powers 2**h are squares of one another and every split is even.
    """
    bits, levels = value.bit_length(), 0
    if bits <= _LEAF_BITS:
        return decimal.Decimal(value)
    while bits > _LEAF_BITS << levels:
        levels += 1
    leaf = -(-bits >> levels)  # ceil(bits / 2**levels)
    with decimal.localcontext(EXACT_CONTEXT):
        power = _squaring_powers(decimal.Decimal(2), leaf)

        def encode(v: int, width: int):
            if width <= leaf:
                return decimal.Decimal(v)
            h = width // 2
            hi = v >> h
            return encode(hi, h) * power(h) + encode(v - (hi << h), h)

        return encode(value, leaf << levels)


def digits_from_int(value: int) -> str:
    """Decimal digits of a non-negative integer of any length.

    The twin of :func:`int_from_digits`: ``str()`` of an int is capped
    the same way, and quadratic in its length, so a value past the cap
    goes through :func:`decimal_from_int`, whose ``str()`` is linear.
    Stripping 4000-digit chunks one ``divmod`` at a time took 2.0 s of
    CPU time for 4*10**5 digits under CPython 3.11 on a shared 2-core
    VM; this route took 0.2 s on the same machine.
    """
    if value < 0:
        raise ValueError("value must be non-negative")
    if value < _CHUNK_BASE:
        return str(value)
    return str(decimal_from_int(value))


def _strip_zeros(units: int, scale: int) -> tuple[int, int]:
    """(units, scale) with up to ``scale`` >= 1 trailing zeros cut from
    units, a multiple of 10.

    The run is no longer than the number of factors 2 in units.  Below
    that bound, 10**j is tried for j halving from the largest power of
    two, and divided out when it divides units, so a run costs O(log)
    big divisions, not one division of the whole value per zero.
    """
    bound = min(scale, (units & -units).bit_length() - 1)
    j = 1 << (bound.bit_length() - 1)
    while j:
        if j <= bound:
            q, r = divmod(units, 10 ** j)
            if not r:
                units, scale, bound = q, scale - j, bound - j
        j >>= 1
    return units, scale


def _is_digit_run(run: str) -> bool:
    """Whether run is one or more of the ASCII digits 0-9.

    ``bytes.isdigit`` accepts only those; ``str.isdigit`` would also
    accept digits such as '\u0663' and '\u00b2', which int() decodes or
    rejects.  Checked as bytes, a run of 10**5 digits takes a third of
    the time of a regex match over it.
    """
    return run.isascii() and run.encode().isdigit()


def scan_literal(text: str) -> tuple[bool, str, str, Optional[str]]:
    """Split ``-? digits ('.' digits ('(' digits ')')?)?`` into
    (negative, integer digits, fractional digits, repeating group or
    None).

    The integer part carries no leading zeros ("051.43" is malformed)
    except for the single digit 0, and a point must be followed by
    digits or a group ("1." is malformed).

    The text is cut at its first '.', '(' and ')', and each piece is
    checked as a run of ASCII digits, so no regex walks a long literal
    one character at a time; ``_LITERAL`` is the same grammar written
    as a pattern.
    """
    negative = text.startswith("-")
    head, point, rest = text.partition(".")
    frac, paren, group = rest.partition("(")
    period, close, tail = group.partition(")")
    int_digits = head[1:] if negative else head
    if (_is_digit_run(int_digits)
            and (int_digits == "0" or int_digits[0] != "0")
            and (not frac or _is_digit_run(frac))
            # a group is closed and ends the text; a point without a
            # group needs fractional digits
            and (_is_digit_run(period) and close and not tail if paren
                 else frac or not point)):
        return negative, int_digits, frac, period if paren else None
    raise MalformedLiteral(f"malformed real literal: {text!r}")


def parse_terminating(text: str) -> TerminatingDecimal:
    """Parse a terminating-decimal literal.

    Accepts an optional leading minus, an integer part without leading
    zeros, and an optional fractional part.  Trailing fractional zeros
    and "-0" are normalised away.
    """
    negative, int_digits, frac, period = scan_literal(text)
    if period is not None:
        raise MalformedLiteral(f"malformed terminating decimal: {text!r}")
    return decimal_from_digits(negative, int_digits, frac)


def decimal_from_digits(negative: bool, int_digits: str,
                        frac: str) -> TerminatingDecimal:
    """The terminating decimal with these integer and fractional digits.

    Trailing zeros are cut from the digit string before it is decoded,
    which costs nothing, rather than from the decoded value.
    """
    frac = frac.rstrip("0")
    units = int_from_digits(int_digits + frac)
    return TerminatingDecimal(-units if negative else units, len(frac))
