"""Seeded inputs for the three workloads.

Imports nothing from decreal: the program sees only what is generated
here.  A workload is an endless sequence of rounds.  Round r of a seed
is a fixed list of operation templates whose free parameters (primes,
numerators, cut points) come from ``random.Random`` seeded with
(workload, seed, r).  Every round has the same make-up, so the cost mix
and the share of the kept fault are the same for every seed and every
run length; the few heaviest templates fill more than 5 % of a round,
so the 95th percentile falls inside one cost class, not on an edge
between two.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import cache

WORKLOADS = ("stream_digits", "exact_rational", "order_sup")

# radicands: primes whose square roots all have two integer digits, so
# the working precision, and with it the cost, is alike across seeds
SMALL_PRIMES = tuple(p for p in range(101, 400)
                     if all(p % d for d in range(2, math.isqrt(p) + 1)))


def rng_for(workload: str, seed: int, round_no: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{round_no}")


def make_round(workload: str, seed: int, round_no: int) -> list[dict]:
    """The operations of one round, each a dict with at least ``kind``."""
    rng = rng_for(workload, seed, round_no)
    return _ROUNDS[workload](rng, round_no)


# ---------------------------------------------------------------------------
# expressions: ("num", Fraction) | ("sqrt", e) | ("sum", (e, ...)) |
# ("sub", a, b) | ("mul", a, b) | ("div", a, b) | ("neg", e)


def num(v) -> tuple:
    return ("num", Fraction(v))


def sq(e) -> tuple:
    return ("sqrt", e if isinstance(e, tuple) else num(e))


def _prec(e: tuple) -> int:
    kind = e[0]
    if kind == "num":
        return 4 if five_free(e[1].denominator) == 1 else 2
    return {"sqrt": 4, "neg": 3, "mul": 2, "div": 2, "sum": 1, "sub": 1}[kind]


def text(e: tuple, min_prec: int = 0) -> str:
    """Expression text in the grammar of ``decreal eval``."""
    kind = e[0]
    if kind == "num":
        v = e[1]
        if five_free(v.denominator) == 1:
            body = canonical_literal(v)  # a terminating decimal
        else:
            body = f"{v.numerator}/{v.denominator}"
    elif kind == "sqrt":
        body = f"sqrt({text(e[1])})"
    elif kind == "neg":
        body = "-" + text(e[1], 4)
    elif kind == "sum":
        body = "+".join(text(t, 1) for t in e[1])
    elif kind == "sub":
        body = text(e[1], 1) + "-" + text(e[2], 2)
    elif kind == "mul":
        body = text(e[1], 2) + "*" + text(e[2], 3)
    else:
        body = text(e[1], 2) + "/" + text(e[2], 3)
    return f"({body})" if _prec(e) < min_prec else body


# ---------------------------------------------------------------------------
# stream_digits

# (shape, n, mode, repeats a subterm).  Radicands are distinct primes
# inside each product, so every value is irrational and no digit is
# refused.  The three depth-3 templates are the heaviest class.
STREAM_TEMPLATES = (
    ("root", 100, "render", False),
    ("root", 300, "render", False),
    ("inv_root", 200, "render", False),
    ("root_product", 200, "render", False),
    ("scaled_root", 250, "render", False),
    ("sum3", 150, "render", False),
    ("sum4", 100, "enclosure", False),
    ("inv_sum", 200, "render", False),
    ("difference", 200, "render", False),
    ("rational_minus_root", 150, "render", False),
    ("nested2", 120, "render", False),
    ("nested2", 100, "enclosure", False),
    ("nested3", 100, "render", False),
    ("nested3", 100, "render", False),
    ("nested3", 100, "enclosure", False),
    ("copies", 150, "render", True),
    ("copies", 200, "enclosure", True),
    ("product_plus_factor", 150, "render", True),
    ("shared_product", 120, "render", True),
    ("product_of_sums", 150, "render", False),
    ("inv_mixed", 200, "render", False),
)


def _stream_expr(shape: str, rng: random.Random) -> tuple:
    p, q, r, s = rng.sample(SMALL_PRIMES, 4)
    a = rng.randint(1, 9)
    frac = Fraction(rng.randint(1, 99), rng.randint(2, 30))
    if shape == "root":
        return sq(p)
    if shape == "inv_root":
        return ("div", num(1), sq(p))
    if shape == "root_product":
        return ("mul", sq(p), sq(q))
    if shape == "scaled_root":
        return ("mul", num(frac), sq(p))
    if shape == "sum3":
        return ("sum", (sq(p), sq(q), sq(r)))
    if shape == "sum4":
        return ("sum", (sq(p), sq(q), sq(r), sq(s)))
    if shape == "inv_sum":
        return ("div", num(1), ("sum", (sq(p), sq(q))))
    if shape == "difference":
        return ("sub", sq(p), sq(q))
    if shape == "rational_minus_root":
        return ("sum", (("neg", sq(p)), num(frac)))
    if shape == "nested2":
        return sq(("sum", (num(a), sq(p))))
    if shape == "nested3":
        return sq(("sum", (num(a), sq(("sum", (num(p), sq(q)))))))
    if shape == "copies":
        return ("sum", (sq(p),) * rng.randint(3, 4))
    if shape == "product_plus_factor":
        return ("sum", (("mul", sq(p), sq(q)), sq(p)))
    if shape == "shared_product":
        return ("mul", ("sum", (sq(p), sq(q))), ("sum", (sq(p), num(a))))
    if shape == "product_of_sums":
        return ("mul", ("sum", (sq(p), sq(q))), ("sum", (sq(r), sq(s))))
    if shape == "inv_mixed":
        return ("div", num(1), ("sum", (("mul", sq(p), sq(q)), sq(r))))
    raise ValueError(shape)


def _stream_round(rng: random.Random, round_no: int) -> list[dict]:
    ops = []
    for shape, n, mode, repeats in STREAM_TEMPLATES:
        expr = _stream_expr(shape, rng)
        ops.append({"kind": "stream", "shape": shape, "expr": expr,
                    "text": text(expr), "n": n, "mode": mode,
                    "repeats": repeats})
    return ops


# ---------------------------------------------------------------------------
# exact_rational


def _factor(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


@cache
def full_reptend_primes(lo: int, hi: int) -> tuple[int, ...]:
    """Primes p in [lo, hi) for which 1/p has period p - 1."""
    out = []
    for p in range(lo | 1, hi, 2):
        if p % 5 == 0 or _factor(p) != {p: 1}:
            continue
        if all(pow(10, (p - 1) // f, p) != 1 for f in _factor(p - 1)):
            out.append(p)
    return tuple(out)


def _coprime_to_10(lo: int, hi: int) -> tuple[int, ...]:
    return tuple(q for q in range(lo, hi) if q % 2 and q % 5)


# name -> candidate 2,5-free denominators; periods run from 1 digit to
# about 10^5 digits
DENOMINATOR_CLASSES = {
    "tiny": _coprime_to_10(3, 30),
    "small": _coprime_to_10(31, 300),
    "mid": (1000, 3000),
    "large": (9000, 11000),
    "huge": (95000, 100000),
}
# tiny and small cost alike and make up 13 of the 19 operations that
# succeed, so the median falls well inside them, not on their edge with
# mid; the 95th percentile falls in the middle of the huge class
EXACT_TEMPLATES = (("tiny",) * 5 + ("small",) * 8 + ("mid",) * 2
                   + ("large",) * 2 + ("huge",) * 2 + ("fault",))
DECIMAL_REPRESENTATION_DIGITS = 200

# enclosures of periodic values past the interpreter's 4300-digit
# int<->str cap: each fails today with ValueError.  Fixed, not seeded,
# and one per round, so the failed share is the same in every run.
FAULT_INPUTS = (("0.(3)", 4400), ("0.1(6)", 4500),
                ("0.(142857)", 4400), ("2.(09)", 4600))


def _denominator(cls: str, rng: random.Random) -> int:
    cands = DENOMINATOR_CLASSES[cls]
    if cls in ("mid", "large", "huge"):
        cands = full_reptend_primes(*cands)
    return rng.choice(cands)


def _rational(q: int, rng: random.Random) -> Fraction:
    """A rational whose denominator has 2,5-free part exactly q."""
    scale = q * 2 ** rng.randint(0, 3) * 5 ** rng.randint(0, 3)
    while True:
        a = rng.randint(1, scale - 1)
        if math.gcd(a, q) == 1:
            break
    value = rng.randint(0, 99) + Fraction(a, scale)
    return -value if rng.random() < 0.3 else value


def five_free(q: int) -> int:
    while q % 2 == 0:
        q //= 2
    while q % 5 == 0:
        q //= 5
    return q


def _digits(num_: int, den: int, count: int) -> str:
    """First ``count`` fractional digits of num_/den (0 <= num_ < den),
    by long division in blocks of 18 digits."""
    out = []
    r = num_
    block = 10 ** 18
    for i in range(0, count, 18):
        r *= block
        out.append(f"{r // den:018d}")
        r %= den
    return "".join(out)[:count]


def canonical_literal(f: Fraction) -> str:
    """Canonical decimal literal: minimal preperiod and period, no
    all-nines tail, no trailing zeros."""
    sign = "-" if f < 0 else ""
    mag = abs(f)
    ip, rem = divmod(mag.numerator, mag.denominator)
    den = mag.denominator
    q = five_free(den)
    twos = fives = 0
    d = den
    while d % 2 == 0:
        d //= 2
        twos += 1
    while d % 5 == 0:
        d //= 5
        fives += 1
    pre = max(twos, fives)
    if q == 1:
        body = _digits(rem, den, pre).rstrip("0")
        return sign + str(ip) + ("." + body if body else "")
    period = multiplicative_order(10, q)
    ds = _digits(rem, den, pre + period)
    return f"{sign}{ip}.{ds[:pre]}({ds[pre:]})"


def multiplicative_order(a: int, n: int) -> int:
    """Least k >= 1 with a**k = 1 mod n, from the factored Carmichael
    exponent; n must be coprime to a."""
    lam = 1
    for p, e in _factor(n).items():
        lam_p = (p - 1) * p ** (e - 1)
        lam = lam * lam_p // math.gcd(lam, lam_p)
    k = lam
    for p in _factor(lam):
        while k % p == 0 and pow(a, k // p, n) == 1:
            k //= p
    return k


def truncation_text(f: Fraction, k: int) -> str:
    """The k-digit truncation of f, as a terminating literal."""
    sign = "-" if f < 0 else ""
    mag = abs(f)
    ip, rem = divmod(mag.numerator, mag.denominator)
    return f"{sign}{ip}.{_digits(rem, mag.denominator, k)}"


def _exact_round(rng: random.Random, round_no: int) -> list[dict]:
    ops = []
    for cls in EXACT_TEMPLATES:
        if cls == "fault":
            lit, n = FAULT_INPUTS[round_no % len(FAULT_INPUTS)]
            ops.append({"kind": "fault", "literal": lit, "n": n})
            continue
        q = _denominator(cls, rng)
        x = _rational(q, rng)
        while True:
            y = _rational(q, rng)
            # the sum keeps the period class; x != y for between
            if y != x and five_free((x + y).denominator) == q:
                break
        ops.append({
            "kind": "exact", "cls": cls, "x": x, "y": y,
            "lx": canonical_literal(x), "ly": canonical_literal(y),
            "tx": truncation_text(x, rng.randint(5, 30)),
            "ty": truncation_text(y, rng.randint(5, 30)),
            "n": DECIMAL_REPRESENTATION_DIGITS,
        })
    return ops


# ---------------------------------------------------------------------------
# order_sup

ORDER_BUDGET = 120
EQUAL_BUDGET = 60
SUP_BUDGET = 100
SUP_SAMPLES = 5
SUP_DIGITS = 30
# gap below and above the supremum for the is_upper_bound probes
PROBE_GAP = Fraction(1, 10 ** 8)


def sqrt_truncation_text(p: int, d: int) -> str:
    s = str(math.isqrt(p * 10 ** (2 * d))).rjust(d + 1, "0")
    return s[:-d] + "." + s[-d:]


def _separated_below(rng: random.Random, d: int) -> dict:
    """sqrt(p) against its own d-digit truncation: x > y, and the first
    digit after d that tells them apart is nonzero within two places."""
    while True:
        p = rng.choice(SMALL_PRIMES)
        digits = str(math.isqrt(p * 10 ** (2 * d + 4)))
        if digits[-2:] != "00":
            break
    return {"x": sq(p), "y": ("num", Fraction(sqrt_truncation_text(p, d))),
            "order": ">", "sep": d}


def _separated_above(rng: random.Random, d: int, product: bool) -> dict:
    """x < y = x' + 10^-d, where x' is x itself or, for ``product``,
    sqrt(p*q) against x = sqrt(p)*sqrt(q)."""
    p, q = rng.sample(SMALL_PRIMES, 2)
    x = ("mul", sq(p), sq(q)) if product else sq(p)
    base = sq(p * q) if product else sq(p)
    return {"x": x, "y": ("sum", (base, num(Fraction(1, 10 ** d)))),
            "order": "<", "sep": d}


def _equal_pair(rng: random.Random, copies: bool) -> dict:
    p, q = rng.sample(SMALL_PRIMES, 2)
    if copies:
        x, y = ("sum", (sq(p), sq(p))), ("mul", num(2), sq(p))
    else:
        x, y = ("mul", sq(p), sq(q)), sq(p * q)
    return {"x": x, "y": y, "order": "undecided", "sep": None}


def _pair_op(kind: str, pair: dict, budget: int) -> dict:
    return {"kind": kind, "budget": budget,
            "tx": text(pair["x"]), "ty": text(pair["y"]), **pair}


def _sevenths(rng: random.Random, lo: int) -> Fraction:
    """A value with period 6, so that the cost of a periodic supremum
    does not depend on the seed."""
    return rng.randint(lo, 99) + Fraction(rng.randint(1, 6), 7)


def _sup_members(rng: random.Random, count: int) -> list[Fraction]:
    """Exact members whose maximum has period 6; the others lie below
    its integer part."""
    top = _sevenths(rng, 50)
    others = [Fraction(rng.randint(0, 49 * d), d)
              for d in rng.choices((3, 7, 9, 11, 12, 13, 20, 25, 40), k=count - 1)]
    members = others + [top]
    rng.shuffle(members)
    return members


def _order_round(rng: random.Random, round_no: int) -> list[dict]:
    # Of the 26 operations, 10 take under 8 ms, 8 take 13 to 17 ms (the
    # separated pairs at 30 to 100 digits) and 3 finite families take
    # over 100 ms.  The median falls in the middle of the 13-17 ms class
    # and the 95th percentile past the middle of the finite families: a
    # percentile near the lower edge of a class moves with how often the
    # host happens to run the core fast.
    ops = [
        _pair_op("compare", _separated_below(rng, 16), ORDER_BUDGET),
        _pair_op("compare", _separated_below(rng, 40), ORDER_BUDGET),
        _pair_op("compare", _separated_below(rng, 90), ORDER_BUDGET),
        _pair_op("compare", _separated_below(rng, 100), ORDER_BUDGET),
        _pair_op("compare", _separated_above(rng, 30, False), ORDER_BUDGET),
        _pair_op("compare", _separated_above(rng, 45, False), ORDER_BUDGET),
        _pair_op("compare", _separated_above(rng, 80, False), ORDER_BUDGET),
        _pair_op("compare", _separated_above(rng, 20, True), ORDER_BUDGET),
        _pair_op("compare", _equal_pair(rng, False), EQUAL_BUDGET),
        _pair_op("compare", _equal_pair(rng, True), EQUAL_BUDGET),
        _pair_op("between", _separated_below(rng, 24), ORDER_BUDGET),
        _pair_op("between", _separated_below(rng, 72), ORDER_BUDGET),
        _pair_op("between", _separated_below(rng, 100), ORDER_BUDGET),
        _pair_op("between", _separated_above(rng, 50, False), ORDER_BUDGET),
        _pair_op("between", _separated_above(rng, 60, False), ORDER_BUDGET),
    ]
    p, q = rng.sample(SMALL_PRIMES, 2)
    nonzero = ("sub", sq(p), sq(q))
    ops.append({"kind": "classify", "expr": nonzero, "text": text(nonzero),
                "budget": ORDER_BUDGET, "zero": False})
    zero = ("sub", ("mul", sq(p), sq(q)), sq(p * q))
    ops.append({"kind": "classify", "expr": zero, "text": text(zero),
                "budget": EQUAL_BUDGET, "zero": True})

    terminating = Fraction(rng.randint(-999, 999), rng.choice((4, 8, 20, 125)))
    if terminating == 0:
        terminating = Fraction(1, 4)
    periodic = rng.choice((-1, 1)) * _sevenths(rng, 0)
    for c in (terminating, periodic):
        ops.append({"kind": "sup", "set": "lower-cut", "literal": canonical_literal(c),
                    "expected": c})
    for _ in range(3):
        members = _sup_members(rng, 6)
        ops.append({"kind": "sup", "set": "finite-family",
                    "members": [canonical_literal(m) for m in members],
                    "values": members, "expected": max(members)})
    members = _sup_members(rng, 8)
    ops.append({"kind": "sup", "set": "finite-set",
                "members": [canonical_literal(m) for m in members],
                "values": members, "expected": max(members)})
    for name, value in PAPER_SUPREMA.items():
        ops.append({"kind": "sup", "set": name, "expected": value})
    for op in ops:
        if op["kind"] == "sup":
            op["above"] = canonical_literal(op["expected"] + PROBE_GAP)
            op["below"] = canonical_literal(op["expected"] - PROBE_GAP)
    return ops


# The suprema of the paper's example families, from their definitions:
# paper-B is 0.9, 0.99, 0.19, 0.991, 0.9991, ... (sup 1, not attained);
# paper-C is -1, -0.9, -0.99, -0.19, -0.991, ... (sup -0.19, attained);
# paper-D is -0.1, -0.01, -0.001, ... (sup 0, not attained).
PAPER_SUPREMA = {"paper-B": Fraction(1), "paper-C": Fraction(-19, 100),
                 "paper-D": Fraction(0)}

_ROUNDS = {"stream_digits": _stream_round, "exact_rational": _exact_round,
           "order_sup": _order_round}
