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

Parentheses and ``sqrt(...)`` may nest at most ``MAX_NESTING`` levels
deep; deeper input is rejected as malformed.

``parse_expression`` returns a node, which is one of

* a literal's ``RealNumber`` itself;
* ``(op, operand)`` with op ``"neg"``, ``"inv"`` (reciprocal) or
  ``"sqrt"``;
* ``("+", [operands])`` or ``("*", [operands])``: a whole chain of one
  precedence level as one list of at least two operands, with ``a - b``
  stored as ``a`` and ``("neg", b)`` and ``a / b`` as ``a`` and
  ``("inv", b)``.

Only parentheses and ``sqrt`` nest nodes; ``evaluate_expression`` builds
the value.

Exit codes: 0 success; 1 malformed input, a usage error, a negative
``--digits`` or ``--budget``, or I/O failure; 2 digits could not
stabilise (the enclosure is still printed); 3 a comparison or
construction was undecided within its budget.
"""

from __future__ import annotations

import argparse
import re
import sys
from fractions import Fraction
from typing import Optional, Union

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

DEFAULT_DIGITS = 30
# the limit guards only the parser, which recurses three frames per
# level (factor, expr, term): 200 levels stay inside the interpreter's
# default recursion limit of 1000, with room for callers.  A value is
# refined on an explicit stack, whatever its depth
MAX_NESTING = 200


# ---------------------------------------------------------------------------
# expressions


Expression = Union[RealNumber, tuple[str, "Expression"],
                   tuple[str, list["Expression"]]]

# a literal token is checked in full by parse_real
_TOKEN = re.compile(
    r"\s*(?:"
    rf"(?P<lit>{_LITERAL.pattern})"
    r"|(?P<name>sqrt)"
    r"|(?P<op>[()+\-*/])"
    r"|(?P<bad>\S)"
    r")")


def _tokenize(text: str) -> list[Optional[str]]:
    """The tokens of ``text``, ending with a ``None`` end marker."""
    tokens: list[Optional[str]] = []
    for m in _TOKEN.finditer(text):
        if m["bad"]:
            raise MalformedLiteral(
                f"unexpected character {m['bad']!r} in expression")
        tokens.append(m["lit"] or m["name"] or m["op"])
    tokens.append(None)
    return tokens


class _Parser:
    def __init__(self, tokens: list[Optional[str]]):
        self.tokens = tokens
        self.pos = 0
        self.nesting = 0

    def take(self) -> str:
        tok = self.tokens[self.pos]
        if tok is None:
            raise MalformedLiteral("unexpected end of expression")
        self.pos += 1
        return tok

    def expect(self, tok: str) -> None:
        got = self.take()
        if got != tok:
            raise MalformedLiteral(f"expected {tok!r}, found {got!r}")

    def expr(self) -> Expression:
        terms = [self.term()]
        while (op := self.tokens[self.pos]) in ("+", "-"):
            self.pos += 1
            term = self.term()
            terms.append(term if op == "+" else ("neg", term))
        return terms[0] if len(terms) == 1 else ("+", terms)

    def term(self) -> Expression:
        factors = [self.factor()]
        while (op := self.tokens[self.pos]) in ("*", "/"):
            self.pos += 1
            factor = self.factor()
            factors.append(factor if op == "*" else ("inv", factor))
        return factors[0] if len(factors) == 1 else ("*", factors)

    def factor(self) -> Expression:
        tok = self.take()
        negate = tok == "-"
        if negate:
            tok = self.take()
        if tok in ("sqrt", "("):
            if tok == "sqrt":
                self.expect("(")
            self.nesting += 1
            if self.nesting > MAX_NESTING:
                raise MalformedLiteral(
                    f"expression nests deeper than {MAX_NESTING} levels")
            node = self.expr()
            self.expect(")")
            self.nesting -= 1
            if tok == "sqrt":
                node = ("sqrt", node)
        elif tok in ("+", "-", "*", "/", ")"):
            raise MalformedLiteral(f"expected a value, found {tok!r}")
        else:
            node = parse_real(tok)
        return ("neg", node) if negate else node


def parse_expression(text: str) -> Expression:
    parser = _Parser(_tokenize(text))
    node = parser.expr()
    tok = parser.tokens[parser.pos]
    if tok is not None:
        raise MalformedLiteral(f"trailing input after expression: {tok!r}")
    return node


def evaluate_expression(node: Expression) -> RealNumber:
    """The value of an expression node.

    Operands are evaluated left to right.  A sum is one n-ary ``add``; a
    product is combined in pairs, so a chain of n factors nests
    ceil(log2 n) deep.
    """
    if isinstance(node, RealNumber):
        return node
    op, arg = node
    if op == "+":
        return add(*map(evaluate_expression, arg))
    if op == "*":
        operands = list(map(evaluate_expression, arg))
        while len(operands) > 1:
            paired = [mul(a, b)
                      for a, b in zip(operands[::2], operands[1::2])]
            operands = paired + operands[len(paired) * 2:]
        return operands[0]
    value = evaluate_expression(arg)
    if op == "neg":
        return neg(value)
    return reciprocal(value) if op == "inv" else sqrt(value)


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


_FRACTION = re.compile(r"(-?[0-9]+)(?:/([1-9][0-9]*))?")


def _cmd_rep(args: argparse.Namespace) -> int:
    m = _FRACTION.fullmatch(args.fraction.strip())
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
