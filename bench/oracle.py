"""Independent checks of decreal's outputs.

Never imports decreal and never compares against today's output: every
check is a property the method must have, computed by another route.

* Stream values are evaluated by scaled-integer interval arithmetic
  (``math.isqrt`` for square roots, integer division for reciprocals)
  with guard digits that grow until the question is settled.
* Exact values are checked with ``Fraction``; a canonical literal must
  parse back to the value, and its period length must equal the
  multiplicative order of 10 modulo the 2,5-free part of the
  denominator.
* Order verdicts must match the constructed separation, with
  ``undecided`` exactly on the equal pairs; witnesses must lie strictly
  between; suprema must equal the known value and every certificate
  must be ``Pass``.

Each ``check_*`` returns None when the output is right and a short
reason when it is wrong.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from gen import SUP_DIGITS, canonical_literal, five_free, multiplicative_order

GUARD = 24
MAX_TRIES = 5

# ---------------------------------------------------------------------------
# literals


_LITERAL = re.compile(r"(-?)([0-9]+)(?:\.([0-9]*)(?:\(([0-9]+)\))?)?")


def _int(digits: str) -> int:
    """Decode a digit string of any length, under the interpreter's
    int<->str cap, in chunks."""
    value = 0
    for i in range(0, len(digits), 4000):
        chunk = digits[i:i + 4000]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


def parse_literal(text: str) -> Fraction:
    """Value of ``-? int ('.' digits ('(' period ')')?)?``."""
    m = _LITERAL.fullmatch(text.strip())
    if m is None:
        raise ValueError(f"not a decimal literal: {text[:40]!r}")
    sign, ip, frac, period = m.groups()
    frac = frac or ""
    value = Fraction(_int(ip)) + Fraction(_int(frac or "0"), 10 ** len(frac))
    if period:
        value += Fraction(_int(period), 10 ** len(frac) * (10 ** len(period) - 1))
    return -value if sign else value


def literal_parts(text: str) -> tuple[str, str, str, str | None]:
    m = _LITERAL.fullmatch(text.strip())
    if m is None:
        raise ValueError(f"not a decimal literal: {text[:40]!r}")
    return m.group(1), m.group(2), m.group(3) or "", m.group(4)


def check_canonical_literal(text: str, value: Fraction) -> str | None:
    """A canonical literal: its period length is the multiplicative
    order of 10 modulo the 2,5-free part q of the denominator, its
    preperiod is the larger power of 2 or 5 in it, and its digits are
    those of long division.  A terminating value has no period and no
    trailing zeros."""
    try:
        _, _, frac, period = literal_parts(text)
    except ValueError as exc:
        return str(exc)
    den = value.denominator
    q = five_free(den)
    if q == 1 and (period is not None or frac.endswith("0")):
        return "terminating value not written in its short form"
    if q != 1:
        if period is None:
            return "periodic value written without a period"
        if len(period) != multiplicative_order(10, q):
            return f"period length {len(period)} is not the order of 10 mod {q}"
        if len(frac) != max(_valuation(den, 2), _valuation(den, 5)):
            return "preperiod is not minimal"
    # long division, without the Fraction arithmetic of a 10^5-digit parse
    return None if text == canonical_literal(value) else "literal digits differ"


def _valuation(n: int, p: int) -> int:
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k


def check_prefix(text: str, value: Fraction, n: int) -> str | None:
    """``text`` is the n-digit truncation of |value|, sign reattached."""
    m = re.fullmatch(r"(-?)([0-9]+)\.([0-9]*)", text)
    if m is None or len(m.group(3)) != n:
        return f"not an {n}-digit prefix: {text[:40]!r}"
    mag = abs(value)
    want = mag.numerator * 10 ** n // mag.denominator
    if _int(m.group(2) + m.group(3)) != want:
        return "prefix digits differ"
    if (m.group(1) == "-") != (value < 0):
        return "sign differs"
    return None


# ---------------------------------------------------------------------------
# scaled-integer interval evaluation of stream expressions


def interval(e: tuple, w: int) -> tuple[int, int]:
    """(lo, hi) with lo <= value * 10**w <= hi."""
    kind = e[0]
    if kind == "num":
        v = e[1]
        lo = v.numerator * 10 ** w // v.denominator
        hi = -(-v.numerator * 10 ** w // v.denominator)
        return lo, hi
    if kind == "sqrt":
        lo, hi = interval(e[1], w)
        if hi < 0:
            raise ArithmeticError("square root of a negative value")
        s_lo = math.isqrt(max(lo, 0) * 10 ** w)
        t = hi * 10 ** w
        s_hi = math.isqrt(t)
        if s_hi * s_hi < t:
            s_hi += 1
        return s_lo, s_hi
    if kind == "neg":
        lo, hi = interval(e[1], w)
        return -hi, -lo
    if kind == "sum":
        parts = [interval(t, w) for t in e[1]]
        return sum(p[0] for p in parts), sum(p[1] for p in parts)
    a = interval(e[1], w)
    b = interval(e[2], w)
    if kind == "sub":
        return a[0] - b[1], a[1] - b[0]
    if kind == "div":
        # the generators only divide by positive values
        if b[0] <= 0:
            raise ArithmeticError("divisor not proven positive")
        b = (10 ** (2 * w) // b[1], -(-10 ** (2 * w) // b[0]))
    corners = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    scale = 10 ** w
    return min(corners) // scale, -(-max(corners) // scale)


def _settle(e: tuple, need: int, decide) -> str | None:
    """Run ``decide(lo, hi, w)`` at growing guard digits until it gives
    a verdict (None for right, a reason for wrong, or ... to retry)."""
    guard = GUARD
    for _ in range(MAX_TRIES):
        w = need + guard
        lo, hi = interval(e, w)
        verdict = decide(lo, hi, w)
        if verdict is not ...:
            return verdict
        guard *= 2
    return "oracle could not settle the value"


def check_render(e: tuple, text: str, n: int) -> str | None:
    """P <= |x| < P + 10^-n for the rendered prefix P of x."""
    m = re.fullmatch(r"(-?)([0-9]+)\.([0-9]+)", text)
    if m is None or len(m.group(3)) != n:
        return f"not an {n}-digit rendering: {text[:40]!r}"
    negative = m.group(1) == "-"
    p = _int(m.group(2) + m.group(3))

    def decide(lo, hi, w):
        if lo > 0 and negative or hi < 0 and not negative:
            return "sign differs"
        if lo <= 0 <= hi:
            return ...
        mlo, mhi = (-hi, -lo) if negative else (lo, hi)
        unit = 10 ** (w - n)
        if p * unit <= mlo and mhi < (p + 1) * unit:
            return None
        if mhi < p * unit or mlo >= (p + 1) * unit:
            return "rendered digits differ from the value"
        return ...

    return _settle(e, n, decide)


def check_enclosure(e: tuple, lo: Fraction, hi: Fraction, n: int) -> str | None:
    """lo <= x <= hi and hi - lo <= 10^-n."""
    if not 0 <= hi - lo <= Fraction(1, 10 ** n):
        return "enclosure wider than 10^-n or reversed"

    def decide(vlo, vhi, w):
        scale = 10 ** w
        if lo * scale <= vlo and vhi <= hi * scale:
            return None
        if vhi < lo * scale or vlo > hi * scale:
            return "enclosure misses the value"
        return ...

    return _settle(e, n + 2, decide)


def compare_streams(x: tuple, y: tuple, sep: int) -> str:
    """'<' or '>' for a pair that differs near digit ``sep``; '?' when
    even 16 times the guard digits cannot tell them apart."""
    diff = ("sub", x, y)
    for guard in (GUARD, 4 * GUARD, 16 * GUARD):
        lo, hi = interval(diff, sep + guard)
        if lo > 0:
            return ">"
        if hi < 0:
            return "<"
    return "?"


def check_order(op: dict, verdict: str) -> str | None:
    if op["order"] == "undecided":
        # equal by construction; the enclosures must agree as well
        lo, hi = interval(("sub", op["x"], op["y"]), op["budget"] + GUARD)
        if not lo <= 0 <= hi:
            return "a pair built equal is separated"
        return None if verdict == "undecided" else f"verdict {verdict} on an equal pair"
    want = compare_streams(op["x"], op["y"], op["sep"])
    if want != op["order"]:
        return "the pair is not separated as it was built"
    return None if verdict == want else f"verdict {verdict}, want {want}"


def check_between(op: dict, witness: str) -> str | None:
    """The witness is a terminating decimal strictly between the pair."""
    try:
        w = parse_literal(witness)
    except ValueError as exc:
        return str(exc)
    if five_free(w.denominator) != 1:
        return "witness does not terminate"
    lower, upper = (op["y"], op["x"]) if op["order"] == ">" else (op["x"], op["y"])
    digits = len(witness.partition(".")[2]) + op["sep"]
    if compare_streams(lower, ("num", w), digits) != "<":
        return "witness not above the lower end"
    if compare_streams(("num", w), upper, digits) != "<":
        return "witness not below the upper end"
    return None


def check_classify(op: dict, verdict: str) -> str | None:
    if op["zero"]:
        return None if verdict == "SignUndecided" else f"{verdict} on a zero value"
    sign = compare_streams(op["expr"], ("num", Fraction(0)), 0)
    want = {">": "POSITIVE", "<": "NEGATIVE"}.get(sign)
    return None if verdict == want else f"verdict {verdict}, want {want}"


# ---------------------------------------------------------------------------
# exact rationals


def check_exact(op: dict, out: dict) -> str | None:
    x, y = op["x"], op["y"]
    for name, want in (("x", x), ("y", y), ("sum", x + y), ("product", x * y),
                       ("reciprocal", 1 / x), ("reparsed", x + y)):
        if out[name] != want:
            return f"{name} differs"
    reason = check_canonical_literal(out["literal"], x + y)
    if reason:
        return reason
    reason = check_prefix(out["digits"], x, op["n"])
    if reason:
        return reason
    want = "<" if x < y else ">"
    if out["order"] != want:
        return f"order {out['order']}, want {want}"
    w = parse_literal(out["between"])
    if not (min(x, y) < w < max(x, y)) or five_free(w.denominator) != 1:
        return "between witness not strictly inside"
    if out["phi"] != "PhiOk":
        return f"phi_check gave {out['phi']}"
    tx, ty = parse_literal(op["tx"]), parse_literal(op["ty"])
    if (out["t_sum"], out["t_product"], out["t_less"]) != (tx + ty, tx * ty, tx < ty):
        return "terminating arithmetic differs"
    return check_canonical_literal(out["t_text"], tx * ty)


def check_fault(op: dict, out: dict) -> str | None:
    """If the kept fault is ever mended, the enclosure must be right."""
    value = parse_literal(op["literal"])
    lo, hi = out["lo"], out["hi"]
    if lo <= value <= hi and hi - lo <= Fraction(1, 10 ** op["n"]):
        return None
    return "enclosure of a periodic value is wrong"


# ---------------------------------------------------------------------------
# suprema


def check_sup(op: dict, out: dict) -> str | None:
    c = op["expected"]
    text = out["rendered"]
    # a terminating supremum prints exactly, any other as SUP_DIGITS digits
    exact = five_free(c.denominator) == 1 and parse_literal(text) == c
    reason = None if exact else check_prefix(text, c, SUP_DIGITS)
    if reason:
        return reason
    if out["above"] != "Yes":
        return f"a bound above the supremum gave {out['above']}"
    if out["below"] != "No":
        return f"a bound below the supremum gave {out['below']}"
    w = out["witness"]
    below = parse_literal(op["below"])
    if not below < w <= c:
        return "witness does not refute the lower bound"
    if "values" in op and w not in op["values"]:
        return "witness is not a member"
    if op["set"] == "lower-cut" and (w >= c or five_free(w.denominator) != 1):
        return "witness is not a terminating decimal below the cut"
    if out["certificate"] != "Pass":
        return f"certificate {out['certificate']}"
    return None
