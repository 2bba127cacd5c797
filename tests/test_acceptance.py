"""Acceptance suite: one test per shipped criterion, each printing a
single PASS line (visible under ``pytest -s`` or on failure).

Every expected value is produced by an independent oracle (Fraction
arithmetic, long-hand square roots, sequential long division) or frozen
from the worked examples; nothing is read back from the code under test.

Criterion 10's full 10^4 x 10^4 box takes ~20 minutes of pure Fraction
churn; the default run covers every denominator exhaustively, an
exhaustive sub-box, and a seeded sample of the rest.  Set
``DECREAL_EXHAUSTIVE=1`` to sweep the entire box.
"""

import math
import os
import random
import time
from fractions import Fraction

from conftest import SEED, fraction_prefix, sqrt_truncation
from decreal.arithmetic import add, evaluate, mul, neg, reciprocal, sqrt
from decreal.cli import evaluate_expression, parse_expression
from decreal.errors import (
    DigitsUnstable,
    NegativeRadicand,
    OrderUndecided,
    SignUndecided,
)
from decreal.rationals import (
    NoPeriodFound,
    PeriodFound,
    PhiOk,
    assert_no_period,
    decimal_representation,
    from_periodic,
    phi_check,
    to_decimal,
)
from decreal.realnum import (
    between,
    compare,
    parse_real,
    real_from_fraction,
    render_digits,
)
from decreal.supremum import (
    FiniteSet,
    Pass,
    builtin_family,
    check_sup_certificate,
    set_product,
    set_sum,
    sup,
)
from decreal.terminating import Comparison, TerminatingDecimal

P = parse_real


def report(num: int, desc: str) -> None:
    print(f"ACCEPTANCE {num:02d} PASS — {desc}")


def test_criterion_01_builtin_family_suprema():
    t0 = time.perf_counter()
    a = sup(builtin_family("paper-A"))
    b = sup(builtin_family("paper-B"))
    c = sup(builtin_family("paper-C"))
    d = sup(builtin_family("paper-D"))
    elapsed = time.perf_counter() - t0
    assert render_digits(a, 30) == "2.120111111111111111111111111111"
    assert a.is_exact and a.as_fraction() == Fraction(2120, 1000) + Fraction(1, 9000)
    assert b.is_exact and b.as_fraction() == 1
    assert c.is_exact and c.as_fraction() == Fraction(-19, 100)
    assert d.is_exact and d.as_fraction() == 0
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    report(1, "four worked-example suprema exact in "
              f"{elapsed * 1000:.0f} ms")


def test_criterion_02_between_goldens():
    assert str(between(P("1.99998(8)"), P("2"))) == "1.99999"
    assert str(between(P("0.88(7)"), P("5.1(1)"))) == "0.9"
    assert str(between(P("0.120999(8)"), P("0.121"))) == "0.1209999"
    report(2, "three worked between-witnesses reproduce exactly")


def test_criterion_03_field_and_order_axioms():
    rng = random.Random(SEED)
    t0 = time.perf_counter()
    operands = [Fraction(rng.randint(-10**3, 10**3),
                         rng.randint(1, 10**3)) for _ in range(10_000)]
    reals = [real_from_fraction(f) for f in operands]
    zero = real_from_fraction(Fraction(0))
    one = real_from_fraction(Fraction(1))
    checked = 0
    for i in range(0, len(reals) - 2, 3):
        x, y, z = reals[i], reals[i + 1], reals[i + 2]
        fx, fy, fz = operands[i], operands[i + 1], operands[i + 2]
        # 1-2: commutativity/associativity of +
        assert add(x, y).as_fraction() == add(y, x).as_fraction() == fx + fy
        assert add(add(x, y), z).as_fraction() == \
            add(x, add(y, z)).as_fraction() == fx + fy + fz
        # 3-4: additive identity and inverse (zero collapses to the shared
        # zero object, so identity-of-object only applies off zero)
        assert add(x, zero) is x if fx != 0 else \
            add(x, zero).as_fraction() == 0
        assert add(x, neg(x)).as_fraction() == 0
        # 5-7: commutativity/associativity/identity of x
        assert mul(x, y).as_fraction() == mul(y, x).as_fraction() == fx * fy
        assert mul(mul(x, y), z).as_fraction() == \
            mul(x, mul(y, z)).as_fraction() == fx * fy * fz
        assert mul(one, x) is x if fx != 0 else \
            mul(one, x).as_fraction() == 0
        # 8: multiplicative inverse
        if fx != 0:
            assert mul(x, reciprocal(x)).as_fraction() == 1
        # 9: distributivity
        assert mul(x, add(y, z)).as_fraction() == \
            add(mul(x, y), mul(x, z)).as_fraction() == fx * (fy + fz)
        # 10: trichotomy — exactly one verdict, matching rational order
        want = {-1: Comparison.LT, 0: Comparison.EQ, 1: Comparison.GT}[
            (fx > fy) - (fx < fy)]
        assert compare(x, y) is want
        # 11: transitivity on the sorted triple
        lo, mid, hi = sorted(((fx, x), (fy, y), (fz, z)), key=lambda t: t[0])
        if lo[0] < mid[0] < hi[0]:
            assert compare(lo[1], mid[1]) is Comparison.LT
            assert compare(mid[1], hi[1]) is Comparison.LT
            assert compare(lo[1], hi[1]) is Comparison.LT
        # 12: order respects translation
        if fx < fy:
            assert compare(add(x, z), add(y, z)) is Comparison.LT
        # 13: order respects scaling by positive z
        if fx < fy and fz > 0:
            assert compare(mul(z, x), mul(z, y)) is Comparison.LT
        checked += 1
    elapsed = time.perf_counter() - t0
    assert checked >= 3333  # 10^4 operands consumed in triples
    assert elapsed < 30, f"took {elapsed:.1f}s"
    report(3, f"13 axioms on {len(reals)} operands "
              f"({checked} triples) in {elapsed:.1f} s")


def test_criterion_04_sup_certificates():
    rng = random.Random(SEED + 4)
    for _ in range(100):
        members = tuple(
            real_from_fraction(Fraction(rng.randint(-10**4, 10**4),
                                        rng.randint(1, 10**4)))
            for _ in range(rng.randint(2, 8)))
        S = FiniteSet(members)
        assert isinstance(check_sup_certificate(sup(S), S, samples=12), Pass)
    for name in ("paper-A", "paper-B", "paper-C", "paper-D"):
        fam = builtin_family(name)
        out = check_sup_certificate(sup(fam), fam, samples=50, budget=200)
        assert isinstance(out, Pass), (name, out)
    report(4, "certificates pass on 100 random finite sets "
              "and the four built-in families")


def _cut_grid(x: Fraction, k: int, width: int = 3) -> set:
    """Top slice of the k-digit truncation grid of the lower cut of x.

    The full grid is every k-digit terminating decimal strictly below x;
    its supremum interacts with sums/products only through the largest
    elements, so a top window of the grid has the same pairwise maximum
    (elementwise monotonicity of + and of x on positives).
    """
    step = Fraction(1, 10**k)
    top = math.ceil(x / step) - 1  # largest j with j/10^k < x
    return {TerminatingDecimal(top - j, k) for j in range(width)
            if top - j >= 1}


def test_criterion_05_sup_definition_differential():
    rng = random.Random(SEED + 5)
    pairs = 0
    while pairs < 200:
        x = Fraction(rng.randint(1, 1000), rng.randint(1, 100))
        y = Fraction(rng.randint(1, 1000), rng.randint(1, 100))
        if x <= Fraction(1, 5) or y <= Fraction(1, 5):
            continue  # keep every depth-1 positive grid nonempty
        pairs += 1
        for k in range(1, 7):
            tol = Fraction(1, 10**k)
            gx, gy = _cut_grid(x, k), _cut_grid(y, k)
            best_sum = max(set_sum(gx, gy)).as_fraction()
            assert abs(best_sum - (x + y)) <= 2 * tol, (x, y, k)
            best_prod = max(set_product(gx, gy)).as_fraction()
            assert abs(best_prod - x * y) <= (x + y) * tol, (x, y, k)
    # window-vs-full-grid equivalence, checked exhaustively at shallow k
    for x, y in ((Fraction(7, 3), Fraction(5, 4)),
                 (Fraction(29, 10), Fraction(11, 7))):
        for k in (1, 2):
            step = Fraction(1, 10**k)
            top_x = math.ceil(x / step) - 1
            top_y = math.ceil(y / step) - 1
            full_x = {TerminatingDecimal(j, k)
                      for j in range(1, top_x + 1)}
            full_y = {TerminatingDecimal(j, k)
                      for j in range(1, top_y + 1)}
            assert max(set_sum(full_x, full_y)) == \
                max(set_sum(_cut_grid(x, k), _cut_grid(y, k)))
            assert max(set_product(full_x, full_y)) == \
                max(set_product(_cut_grid(x, k), _cut_grid(y, k)))
    report(5, "grid suprema track x+y within 2e-k and x*y within "
              "(x+y)e-k over 200 pairs, depths 1-6")


def _random_expression(rng: random.Random, depth: int) -> str:
    if depth == 0 or rng.random() < 0.3:
        kind = rng.random()
        if kind < 0.4:
            return str(rng.randint(0, 50))
        if kind < 0.7:
            return (f"{rng.randint(0, 9)}."
                    f"{rng.randint(0, 99):02d}")
        group = rng.randint(1, 99)
        if set(str(group)) == {"9"}:  # all-nines tails are non-canonical
            group = 42
        return f"{rng.randint(0, 3)}.{rng.randint(0, 9)}({group})"
    op = rng.choice(["+", "+", "-", "*", "*", "/", "sqrt"])
    if op == "sqrt":
        return f"sqrt({_random_expression(rng, depth - 1)})"
    left = _random_expression(rng, depth - 1)
    right = _random_expression(rng, depth - 1)
    return f"({left} {op} {right})"


def test_criterion_06_enclosure_convergence():
    rng = random.Random(SEED + 6)
    t0 = time.perf_counter()
    accepted = 0
    while accepted < 100:
        text = _random_expression(rng, 4)
        try:
            value = evaluate_expression(parse_expression(text))
            enclosures = [evaluate(value, n) for n in (10, 50, 200)]
        except (ZeroDivisionError, NegativeRadicand, SignUndecided,
                OrderUndecided, DigitsUnstable):
            continue  # resample: the grammar admits division by zero etc.
        for n, e in zip((10, 50, 200), enclosures):
            width = e.hi.as_fraction() - e.lo.as_fraction()
            assert width <= Fraction(1, 10**n), (text, n)
        accepted += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60, f"took {elapsed:.1f}s"
    report(6, f"100 random depth-4 expressions converge at n=10/50/200 "
              f"in {elapsed:.1f} s")


def test_criterion_07_square_roots():
    # 50-digit truncation of sqrt(2) from the long-hand square-root oracle
    trunc = sqrt_truncation(Fraction(2), 50)
    e = evaluate(sqrt(P("2")), 50)
    lo, hi = e.lo.as_fraction(), e.hi.as_fraction()
    assert lo * lo <= 2 <= hi * hi
    assert hi >= trunc and lo < trunc + Fraction(1, 10**50)
    digits = render_digits(sqrt(P("2")), 50)
    assert digits == fraction_prefix(trunc, 50)

    rng = random.Random(SEED + 7)
    for _ in range(100):
        r = Fraction(rng.randint(1, 10**4), rng.randint(1, 10**3))
        x = sqrt(real_from_fraction(r))
        e = evaluate(mul(x, x), 30)
        assert e.lo.as_fraction() <= r <= e.hi.as_fraction(), r
    report(7, "sqrt(2) matches the long-hand oracle to 50 digits; "
              "eval(sqrt(r)^2, 30) contains r on 100 rationals")


def test_criterion_08_irrationality_evidence():
    out = assert_no_period(sqrt(P("2")), 50, 500)
    assert isinstance(out, NoPeriodFound) and out.window == 600
    assert assert_no_period(to_decimal(Fraction(1, 7)), 10, 10) == \
        PeriodFound(offset=0, period="142857")
    assert assert_no_period(to_decimal(Fraction(22, 7)), 10, 10) == \
        PeriodFound(offset=0, period="142857")
    report(8, "sqrt(2) shows no period in a 600-digit window; "
              "1/7 and 22/7 report period 142857 at offset 0")


def test_criterion_09_phi_preservation():
    rng = random.Random(SEED + 9)
    t0 = time.perf_counter()
    for _ in range(10_000):
        x = Fraction(rng.randint(-10**4, 10**4), rng.randint(1, 10**4))
        y = Fraction(rng.randint(-10**4, 10**4), rng.randint(1, 10**4))
        out = phi_check(x, y)
        assert isinstance(out, PhiOk), (x, y, out)
    elapsed = time.perf_counter() - t0
    report(9, f"order/sum/product preserved on 10^4 rational pairs "
              f"in {elapsed:.1f} s")


def _roundtrip(p: int, q: int) -> None:
    f = Fraction(p, q)
    assert from_periodic(to_decimal(f)) == f, (p, q)


def test_criterion_10_rational_roundtrip():
    if os.environ.get("DECREAL_EXHAUSTIVE") == "1":
        for q in range(1, 10_001):
            for p in range(-10_000, 10_001):
                _roundtrip(p, q)
        scope = "exhaustive 10^4 x 10^4 box"
    else:
        rng = random.Random(SEED + 10)
        # every denominator in the box, with corner/adjacent/random p
        for q in range(1, 10_001):
            for p in (1, -1, 10_000, -10_000, q - 1, q + 1,
                      rng.randint(-10**4, 10**4)):
                _roundtrip(p, q)
        # exhaustive sub-box
        for q in range(1, 201):
            for p in range(-200, 201):
                _roundtrip(p, q)
        # seeded sample of the remaining box
        for _ in range(2000):
            _roundtrip(rng.randint(-10**4, 10**4), rng.randint(1, 10**4))
        scope = ("all 10^4 denominators, a 200x200 sub-box, and 2000 "
                 "sampled pairs (DECREAL_EXHAUSTIVE=1 sweeps the full box)")

    rng = random.Random(SEED + 100)
    for _ in range(1000):
        f = Fraction(rng.randint(-10**4, 10**4), rng.randint(1, 10**4))
        x = to_decimal(f)
        rendered = decimal_representation(x, 100).render()
        assert rendered == x.prefix(100).render() == fraction_prefix(f, 100)
    report(10, f"roundtrip identity over {scope}; "
               "100-digit agreement on 10^3 rationals")
