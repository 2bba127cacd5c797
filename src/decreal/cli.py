"""Command-line surface.

Subcommands: ``eval`` (expression to canonical text or enclosure),
``cmp`` (budgeted comparison), ``between`` (terminating witness strictly
between two values), ``sup`` (supremum of a set file), and ``rep``
(digit prefix of a fraction).

Expression grammar::

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-'? (literal | 'sqrt(' expr ')' | '(' expr ')')

Literals are decimal reals, optionally with a repeating group, for
example ``51.43``, ``0.(142857)``, ``2.120(1)``.  Fractions like
``22/7`` need no special casing: ``/`` is division and the exact paths
make the quotient exact.

``parse_expression`` returns a postfix program, a list of steps:

* a literal's ``RealNumber``;
* ``"neg"``, ``"inv"`` (reciprocal) or ``"sqrt"`` of the last value;
* ``("+", n)`` or ``("*", n)``, n >= 2: the sum or product of the last n
  values, a whole chain of one precedence level, with ``a - b`` stored
  as ``a``, ``b``, ``"neg"`` and ``a / b`` as ``a``, ``b``, ``"inv"``.

``evaluate_expression`` builds the value.  Both are loops over explicit
stacks, so parentheses and ``sqrt(...)`` nest as deep as the text goes.

Exit codes: 0 success; 1 malformed input, a usage error, a negative
``--digits`` or ``--budget``, or I/O failure; 2 digits could not
stabilise (the enclosure is still printed); 3 a comparison or
construction was undecided within its budget.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from typing import TYPE_CHECKING, Optional

from .arithmetic import add, evaluate, mul, neg, reciprocal, sqrt
from .errors import (
    DecrealError,
    DigitsUnstable,
    MalformedLiteral,
    OrderUndecided,
    SignUndecided,
)
from .rationals import decimal_representation, to_decimal
from .realnum import (
    DEFAULT_BUDGET,
    RealNumber,
    between,
    compare,
    parse_real,
    render_digits,
)
from .supremum import load_set_file, sup
from .terminating import _LITERAL, Comparison, int_from_digits

if TYPE_CHECKING:
    import argparse

DEFAULT_DIGITS = 30


# ---------------------------------------------------------------------------
# expressions


# one token per match, all of it in group 1: a literal, checked in full
# by parse_real, "sqrt", an operator or parenthesis, or any other single
# character, which _tokenize refuses
_TOKEN = re.compile(rf"\s*({_LITERAL}|sqrt|[()+\-*/]|\S)")
# the one-character tokens that are not refused
_SINGLE = frozenset("0123456789()+-*/")


def _tokenize(text: str) -> list[Optional[str]]:
    """The tokens of ``text``, ending with a ``None`` end marker."""
    tokens: list[Optional[str]] = []
    for m in _TOKEN.finditer(text):
        tok = m[1]
        if len(tok) == 1 and tok not in _SINGLE:
            raise MalformedLiteral(
                f"unexpected character {tok!r} in expression")
        tokens.append(tok)
    tokens.append(None)
    return tokens


def parse_expression(text: str) -> list[RealNumber | str | tuple[str, int]]:
    """The postfix program of ``text``, in one pass over its tokens.

    Every syntax error raises ``MalformedLiteral`` here, before any
    arithmetic runs.
    """
    program: list[RealNumber | str | tuple[str, int]] = []
    # what waits, innermost last: "sqrt", "neg" and "inv" for the end of
    # their factor, "-" for the end of its term, and for each open
    # parenthesis the (terms, factors) counts of the group around it
    pending: list = []
    terms = factors = 0
    operand = True  # whether the next token starts a factor
    for tok in _tokenize(text):
        if operand:
            top = pending[-1] if pending else None
            if tok is None:
                raise MalformedLiteral("unexpected end of expression")
            # "sqrt" on top: sqrt came last, as "(" stacks counts over it
            if top == "sqrt" and tok != "(":
                raise MalformedLiteral(f"expected '(', found {tok!r}")
            if tok == "(":
                pending.append((terms, factors))
                terms = factors = 0
            # a factor takes at most one unary minus
            elif tok == "sqrt" or tok == "-" and top != "neg":
                pending.append("sqrt" if tok == "sqrt" else "neg")
            elif tok in ("+", "-", "*", "/", ")"):
                raise MalformedLiteral(f"expected a value, found {tok!r}")
            else:
                program.append(parse_real(tok))
                operand = False
            continue
        # the factor before tok ends
        while pending and pending[-1] in ("sqrt", "neg", "inv"):
            program.append(pending.pop())
        factors += 1
        operand = tok in ("*", "/", "+", "-")
        if tok == "/":
            pending.append("inv")
        if tok in ("*", "/"):
            continue
        # so does its term
        if factors > 1:
            program.append(("*", factors))
        if pending and pending[-1] == "-":
            pending.pop()
            program.append("neg")
        terms, factors = terms + 1, 0
        if tok == "-":
            pending.append("-")
        if operand:
            continue
        # and its group
        if terms > 1:
            program.append(("+", terms))
        if not pending:
            if tok is None:
                break
            raise MalformedLiteral(
                f"trailing input after expression: {tok!r}")
        if tok != ")":
            raise MalformedLiteral(
                "unexpected end of expression" if tok is None
                else f"expected ')', found {tok!r}")
        terms, factors = pending.pop()
    return program


def evaluate_expression(program: list[RealNumber | str | tuple[str, int]]
                        ) -> RealNumber:
    """The value of a postfix program, built left to right on a stack.

    A sum is one n-ary ``add``; a product is combined in pairs, so a
    chain of n factors nests ceil(log2 n) deep.
    """
    stack: list[RealNumber] = []
    for step in program:
        if isinstance(step, RealNumber):
            stack.append(step)
        elif isinstance(step, str):
            unary = (sqrt if step == "sqrt" else neg if step == "neg"
                     else reciprocal)
            stack[-1] = unary(stack[-1])
        else:
            op, n = step
            operands = stack[-n:]
            del stack[-n:]
            while op == "*" and len(operands) > 1:
                paired = [mul(a, b)
                          for a, b in zip(operands[::2], operands[1::2])]
                operands = paired + operands[len(paired) * 2:]
            stack.append(add(*operands) if op == "+" else operands[0])
    return stack.pop()


# ---------------------------------------------------------------------------
# subcommands


def _print_value(x: RealNumber, digits: int) -> None:
    # exact values print in their canonical literal form and re-parse to
    # themselves; streams print as a digit prefix
    if x.is_exact:
        print(str(x))
    else:
        print(render_digits(x, digits))


def _cmd_eval(args: argparse.Namespace) -> int:
    x = evaluate_expression(parse_expression(args.expr))
    if args.enclosure:
        print(str(evaluate(x, args.digits)))
        return 0
    try:
        _print_value(x, args.digits)
    except DigitsUnstable as exc:
        print(str(evaluate(x, args.digits)))
        print(f"digits unstable: {exc}", file=sys.stderr)
        return 2
    return 0


def _cmd_cmp(args: argparse.Namespace) -> int:
    x = evaluate_expression(parse_expression(args.left))
    y = evaluate_expression(parse_expression(args.right))
    verdict = compare(x, y, args.budget)
    print(verdict.value)
    return 3 if verdict is Comparison.UNDECIDED else 0


def _cmd_between(args: argparse.Namespace) -> int:
    a = evaluate_expression(parse_expression(args.lower))
    b = evaluate_expression(parse_expression(args.upper))
    print(str(between(a, b)))
    return 0


def _cmd_sup(args: argparse.Namespace) -> int:
    bounded = load_set_file(args.file)
    _print_value(sup(bounded), args.digits)
    return 0


def _cmd_rep(args: argparse.Namespace) -> int:
    m = re.fullmatch(r"(-?[0-9]+)(?:/([1-9][0-9]*))?", args.fraction.strip())
    if m is None:
        raise MalformedLiteral(
            f"expected a fraction like 22/7, found {args.fraction!r}")
    numerator = int_from_digits(m.group(1).lstrip("-"))
    if m.group(1).startswith("-"):
        numerator = -numerator
    value = Fraction(numerator, int_from_digits(m.group(2) or "1"))
    print(decimal_representation(to_decimal(value), args.digits).render())
    return 0


def build_parser() -> argparse.ArgumentParser:
    # imported here, not at the top: argparse and the gettext it loads
    # are a quarter of the start-up of a process that only evaluates
    # expressions through the Python API
    import argparse

    parser = argparse.ArgumentParser(
        prog="decreal",
        description="exact decimal arithmetic on canonical expansions")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate an expression")
    p.add_argument("expr")
    p.add_argument("--digits", type=int, default=DEFAULT_DIGITS)
    p.add_argument("--enclosure", action="store_true",
                   help="print a certified interval instead of digits")
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("cmp", help="compare two expressions")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.set_defaults(handler=_cmd_cmp)

    p = sub.add_parser("between",
                       help="terminating decimal strictly between two values")
    p.add_argument("lower")
    p.add_argument("upper")
    p.set_defaults(handler=_cmd_between)

    p = sub.add_parser("sup", help="supremum of a set file")
    p.add_argument("file")
    p.add_argument("--digits", type=int, default=DEFAULT_DIGITS)
    p.set_defaults(handler=_cmd_sup)

    p = sub.add_parser("rep", help="decimal digits of a fraction")
    p.add_argument("fraction", metavar="P/Q")
    p.add_argument("--digits", type=int, default=DEFAULT_DIGITS)
    p.set_defaults(handler=_cmd_rep)

    return parser


def _shield_operands(argv: list[str]) -> list[str]:
    """Keep argparse from reading ``-1/4`` or ``-sqrt(2)`` as option flags.

    decreal's only short option is ``-h``, so every other token that
    starts with a single ``-`` is operand text; a leading space makes
    argparse treat it as positional, and the expression tokenizer and
    fraction parser both skip surrounding whitespace.  ``--`` still works
    as the conventional end-of-options marker.
    """
    def is_operand(tok: str) -> bool:
        return (tok.startswith("-") and not tok.startswith("--")
                and tok != "-h")

    out: list[str] = []
    shielding = True
    for tok in argv:
        if tok == "--":
            shielding = False
        out.append(" " + tok if shielding and is_operand(tok) else tok)
    return out


def run(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(
            _shield_operands(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        # argparse exits 0 after --help and 2 on a usage error; 2 is
        # decreal's "digits unstable", so a usage error is 1
        return 1 if exc.code else 0
    for name in ("digits", "budget"):
        if getattr(args, name, 0) < 0:
            print(f"error: --{name} must be non-negative", file=sys.stderr)
            return 1
    try:
        return args.handler(args)
    except (OrderUndecided, SignUndecided) as exc:
        print(f"undecided: {exc}", file=sys.stderr)
        return 3
    except DigitsUnstable as exc:
        print(f"digits unstable: {exc}", file=sys.stderr)
        return 2
    except (DecrealError, ZeroDivisionError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())
