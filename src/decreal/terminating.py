"""Exact arithmetic on terminating decimals.

A terminating decimal is stored as a pair (units, scale) with value
units / 10**scale.  All operations are exact integer arithmetic after
rescaling to a common scale, so the field laws hold with no rounding.
"""

from __future__ import annotations

import decimal
import re
from enum import Enum
from fractions import Fraction
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


# the unsigned decimal literal: integer digits, then optional fractional
# digits and an optional repeating group.  The CLI's tokenizer splits
# literal tokens with it; scan_literal checks the same grammar by
# splitting at the punctuation, and adds the sign and the rules on
# leading zeros and a bare point
_LITERAL = re.compile(r"([0-9]+)(?:\.([0-9]*)(?:\(([0-9]+)\))?)?")


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
        den = value.denominator
        rest, scale = split_denominator(den)
        if rest != 1:
            raise ValueError(f"{value} is not a terminating decimal")
        return cls(value.numerator * 10 ** scale // den, scale)

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

    def _cmp(self, other: "TerminatingDecimal") -> int:
        s = max(self.scale, other.scale)
        a = self.units * 10 ** (s - self.scale)
        b = other.units * 10 ** (s - other.scale)
        return (a > b) - (a < b)

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

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
