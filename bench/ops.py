"""The workloads' operations: the only benchmark module that imports decreal.

Each operation kind has a ``run`` half, the timed calls into decreal,
and a ``view`` half, run after the clock stops, that turns the results
into plain values (strings, Fractions, verdict names) for the oracle.
Every call into decreal goes through ``Tracer.call`` under the name of
the layer it enters.
"""

from __future__ import annotations

import operator

from decreal import (
    Comparison,
    FiniteSet,
    SignUndecided,
    add,
    between,
    builtin_family,
    check_sup_certificate,
    classify,
    compare,
    decimal_representation,
    evaluate,
    finite_family,
    from_periodic,
    is_upper_bound,
    mul,
    parse_real,
    parse_terminating,
    phi_check,
    reciprocal,
    render_digits,
    sup,
    to_decimal,
)
from decreal.cli import evaluate_expression, parse_expression

import oracle
from gen import SUP_BUDGET, SUP_DIGITS, SUP_SAMPLES


def _bits(v) -> int:
    return v.numerator.bit_length() + v.denominator.bit_length()


def _build(tr, text: str):
    node = tr.call("cli.parse", parse_expression, text)
    return tr.call("cli.build", evaluate_expression, node)


# ---------------------------------------------------------------------------
# stream_digits: what `decreal eval` does, on a fresh expression


def stream_run(op, tr):
    x = _build(tr, op["text"])
    if op["mode"] == "render":
        return x, tr.call("realnum.render", render_digits, x, op["n"])
    return x, tr.call("arithmetic.evaluate", evaluate, x, op["n"])


def stream_view(op, raw, tr):
    x, out = raw
    if tr.on:
        lo, hi = x.bounds(op["n"])
        tr.count("arithmetic.enclosure_bits", _bits(lo) + _bits(hi))
        tr.count("arithmetic.enclosures_read")
        tr.count("realnum.digits_rendered", op["n"])
    if op["mode"] == "render":
        return {"text": out}
    return {"lo": out.lo.as_fraction(), "hi": out.hi.as_fraction()}


def stream_check(op, out):
    if op["mode"] == "render":
        return oracle.check_render(op["expr"], out["text"], op["n"])
    return oracle.check_enclosure(op["expr"], out["lo"], out["hi"], op["n"])


# ---------------------------------------------------------------------------
# exact_rational: one rational pair down the exact path


def _literal_of(fraction) -> str:
    return str(to_decimal(fraction))


def exact_run(op, tr):
    x = tr.call("realnum.parse", parse_real, op["lx"])
    y = tr.call("realnum.parse", parse_real, op["ly"])
    total = tr.call("arithmetic.exact", add, x, y)
    product = tr.call("arithmetic.exact", mul, x, y)
    inverse = tr.call("arithmetic.exact", reciprocal, x)
    # the canonical literal of the sum: the period expansion
    literal = tr.call("rationals.to_decimal", _literal_of,
                      tr.call("rationals.from_periodic", from_periodic, total))
    reparsed = tr.call("realnum.parse", parse_real, literal)
    digits = tr.call("rationals.decimal_representation",
                     decimal_representation, x, op["n"])
    order = tr.call("realnum.compare", compare, x, y)
    lower, upper = (x, y) if order is Comparison.LT else (y, x)
    witness = tr.call("realnum.between", between, lower, upper)
    phi = tr.call("rationals.phi_check", phi_check, op["x"], op["y"])
    tx = tr.call("terminating", parse_terminating, op["tx"])
    ty = tr.call("terminating", parse_terminating, op["ty"])
    t_sum = tr.call("terminating", operator.add, tx, ty)
    t_product = tr.call("terminating", operator.mul, tx, ty)
    t_less = tr.call("terminating", operator.lt, tx, ty)
    t_text = tr.call("terminating", str, t_product)
    return (x, y, total, product, inverse, literal, reparsed, digits, order,
            witness, phi, t_sum, t_product, t_less, t_text)


def exact_view(op, raw, tr):
    (x, y, total, product, inverse, literal, reparsed, digits, order,
     witness, phi, t_sum, t_product, t_less, t_text) = raw
    if tr.on:
        tr.count("rationals.period_digits", len(literal.partition("(")[2]) - 1
                 if "(" in literal else 0)
    return {
        "x": x.as_fraction(), "y": y.as_fraction(),
        "sum": total.as_fraction(), "product": product.as_fraction(),
        "reciprocal": inverse.as_fraction(), "literal": literal,
        "reparsed": reparsed.as_fraction(), "digits": digits.render(),
        "order": order.value, "between": str(witness),
        "phi": type(phi).__name__, "t_sum": t_sum.as_fraction(),
        "t_product": t_product.as_fraction(), "t_less": t_less, "t_text": t_text,
    }


def fault_run(op, tr):
    x = tr.call("realnum.parse", parse_real, op["literal"])
    return tr.call("arithmetic.evaluate", evaluate, x, op["n"])


def fault_view(op, raw, tr):
    # exact values, not text: str() of a long decimal hits the
    # interpreter's 4300-digit cap
    return {"lo": raw.lo.as_fraction(), "hi": raw.hi.as_fraction()}


# ---------------------------------------------------------------------------
# order_sup: budgeted order questions and suprema


def pair_run(op, tr):
    x = _build(tr, op["tx"])
    y = _build(tr, op["ty"])
    if op["kind"] == "compare":
        return tr.call("realnum.compare", compare, x, y, op["budget"])
    # between(a, b) is asked with a < b, as its contract requires
    lower, upper = (y, x) if op["order"] == ">" else (x, y)
    return tr.call("realnum.between", between, lower, upper, op["budget"])


def pair_view(op, raw, tr):
    if op["kind"] == "compare":
        if raw is Comparison.UNDECIDED:
            tr.count("realnum.compare.undecided")
        return {"verdict": raw.value}
    return {"witness": str(raw)}


def pair_check(op, out):
    if op["kind"] == "compare":
        return oracle.check_order(op, out["verdict"])
    return oracle.check_between(op, out["witness"])


def classify_run(op, tr):
    x = _build(tr, op["text"])
    try:
        return tr.call("realnum.classify", classify, x, op["budget"]).name
    except SignUndecided:
        return "SignUndecided"


def _bounded_set(op, tr):
    kind = op["set"]
    if kind == "lower-cut":
        return tr.call("supremum.family", builtin_family, "lower-cut " + op["literal"])
    if kind.startswith("paper-"):
        return tr.call("supremum.family", builtin_family, kind)
    members = [tr.call("realnum.parse", parse_real, m) for m in op["members"]]
    if kind == "finite-family":
        return tr.call("supremum.family", finite_family, members)
    return tr.call("supremum.family", FiniteSet, tuple(members))


def sup_run(op, tr):
    bounded = _bounded_set(op, tr)
    s = tr.call("supremum.sup", sup, bounded)
    rendered = tr.call("realnum.render", render_digits, s, SUP_DIGITS)
    above = tr.call("realnum.parse", parse_real, op["above"])
    below = tr.call("realnum.parse", parse_real, op["below"])
    u_above = tr.call("supremum.upper_bound", is_upper_bound, above, bounded, SUP_BUDGET)
    u_below = tr.call("supremum.upper_bound", is_upper_bound, below, bounded, SUP_BUDGET)
    certificate = tr.call("supremum.certificate", check_sup_certificate, s, bounded,
                          samples=SUP_SAMPLES, budget=SUP_BUDGET)
    return rendered, u_above, u_below, certificate


def sup_view(op, raw, tr):
    rendered, u_above, u_below, certificate = raw
    verdict = type(certificate).__name__
    if verdict == "Pass":
        tr.count("supremum.certificates_passed")
    witness = getattr(u_below, "witness", None)
    return {"rendered": rendered, "above": type(u_above).__name__,
            "below": type(u_below).__name__,
            "witness": witness.as_fraction() if witness is not None else None,
            "certificate": verdict}


# kind -> (timed run, untimed view, oracle check)
OPS = {
    "stream": (stream_run, stream_view, stream_check),
    "exact": (exact_run, exact_view, oracle.check_exact),
    "fault": (fault_run, fault_view, oracle.check_fault),
    "compare": (pair_run, pair_view, pair_check),
    "between": (pair_run, pair_view, pair_check),
    "classify": (classify_run, lambda op, raw, tr: {"verdict": raw},
                 lambda op, out: oracle.check_classify(op, out["verdict"])),
    "sup": (sup_run, sup_view, oracle.check_sup),
}
