"""Command-line surface: grammar, printing, exit codes, determinism."""

import io
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    fraction_prefix,
    longhand_isqrt,
    sqrt_truncation,
    unhinted,
)
from decreal import supremum
from decreal.cli import evaluate_expression, parse_expression, run
from decreal.errors import MalformedLiteral
from decreal.realnum import parse_real as P, real_from_fraction

fractions_st = st.fractions(min_value=-10**3, max_value=10**3,
                            max_denominator=10**3)


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGrammar:
    @pytest.mark.parametrize("text,value", [
        ("2+3*4", Fraction(14)),
        ("(2+3)*4", Fraction(20)),
        ("-2*3", Fraction(-6)),
        ("2-3-1", Fraction(-2)),
        ("12/8", Fraction(3, 2)),
        ("1/3", Fraction(1, 3)),
        ("0.1(6)+0.8(3)", Fraction(1)),
        ("-(2+3)", Fraction(-5)),
        ("2*-3", Fraction(-6)),
        (" 1 + 2 ", Fraction(3)),
    ])
    def test_exact_values(self, text, value):
        assert evaluate_expression(parse_expression(text)).as_fraction() \
            == value

    def test_sqrt_node(self):
        x = evaluate_expression(parse_expression("sqrt(2+2)"))
        assert x.as_fraction() == 2

    @pytest.mark.parametrize("text", [
        "", "2+", "*3", "2**3", "--2", "sqrt 2", "sqrt(2", "(2+3", "2)",
        "2..3", "1.(9)", "2 3", "sqrt()", "sqrt", "(", "-", "2*/3",
        "2 @ 3", "sqrt(2))",
    ])
    def test_rejects(self, text):
        with pytest.raises(MalformedLiteral):
            parse_expression(text)

    def test_chain_is_one_flat_node(self):
        program = parse_expression("+".join(["1"] * 10**4))
        assert len(program) == 10**4 + 1
        assert program[-1] == ("+", 10**4)
        assert all(step == P("1") for step in program[:-1])

    @given(fractions_st)
    @settings(max_examples=150)
    def test_printed_exact_values_reparse(self, f):
        text = str(real_from_fraction(f))
        again = evaluate_expression(parse_expression(text))
        assert again.as_fraction() == f


class TestEval:
    def test_digits(self, capsys):
        code, out, err = invoke(capsys, "eval", "sqrt(2)", "--digits", "10")
        assert (code, out) == (0, "1.4142135623\n")

    def test_exact_prints_canonical(self, capsys):
        code, out, _ = invoke(capsys, "eval", "1/3")
        assert (code, out) == (0, "0.(3)\n")
        code, out, _ = invoke(capsys, "eval", "1/4+1/4")
        assert (code, out) == (0, "0.5\n")

    def test_enclosure_flag(self, capsys):
        code, out, _ = invoke(capsys, "eval", "0.(3)", "--digits", "3",
                              "--enclosure")
        assert (code, out) == (0, "[0.333, 0.334]\n")

    def test_unstable_digits_exit_2(self, capsys):
        code, out, err = invoke(capsys, "eval", "sqrt(2)*sqrt(2)",
                                "--digits", "6")
        assert code == 2
        assert out.startswith("[") and "2" in out
        assert "unstable" in err

    def test_parse_error_exit_1(self, capsys):
        code, _, err = invoke(capsys, "eval", "2++3")
        assert code == 1 and "error" in err

    @pytest.mark.parametrize("text", ["007", "1.", "2+01.5"])
    def test_malformed_literal_exit_1(self, capsys, text):
        code, out, err = invoke(capsys, "eval", text)
        assert (code, out) == (1, "")
        assert "malformed real literal: " in err

    def test_zero_division_exit_1(self, capsys):
        code, _, err = invoke(capsys, "eval", "1/0")
        assert code == 1 and "zero" in err

    def test_negative_radicand_exit_1(self, capsys):
        code, _, err = invoke(capsys, "eval", "sqrt(0-9)")
        assert code == 1

    def test_negative_digits_exit_1(self, capsys):
        code, out, err = invoke(capsys, "eval", "sqrt(2)", "--digits", "-3")
        assert (code, out) == (1, "") and "--digits" in err

    @pytest.mark.parametrize("opener,core,closer,want", [
        ("(", "1", "+1)", str(10**4 + 1)),
        ("sqrt(", "2", ")", None),
        ("1/(sqrt(2)+", "1", ")", None),
        ("(2*", "sqrt(2)", ")", None),
    ], ids=["parentheses", "roots", "reciprocals", "doublings"])
    def test_nesting_ten_thousand_deep(self, opener, core, closer, want):
        # parser and evaluator keep their own stacks, so depth is bounded
        # by the text alone, at the default recursion limit; an exact
        # factor enters each product as its own point, so a doubling adds
        # no width and 2**(10**4) * sqrt(2) is read to 30 digits
        depth = 10**4
        if want is None:
            want = (nested_root_prefix(depth, 30, 2, 0) if opener == "sqrt("
                    else doubled_root_two(depth, 30) if opener == "(2*"
                    else continued_root_two(depth, 30))
        text = opener * depth + core + closer * depth
        code, out, seconds = run_quietly("eval", text)
        assert (code, out) == (0, want + "\n")
        assert seconds < 2

    @pytest.mark.parametrize("text,message", [
        # the reciprocal of this computed zero would exit 3 after a
        # full-budget classification; the syntax error comes first
        ("1/(sqrt(2)*sqrt(2)-2))", "trailing input after expression: ')'"),
        ("1/0+", "unexpected end of expression"),
    ])
    def test_syntax_errors_before_arithmetic(self, capsys, text, message):
        code, out, err = invoke(capsys, "eval", text)
        assert (code, out) == (1, "") and message in err

    def test_nesting_at_depth_200_admitted(self, capsys):
        code, out, _ = invoke(capsys, "eval", "(" * 200 + "1" + "+1)" * 200)
        assert (code, out) == (0, "201\n")
        code, out, _ = invoke(capsys, "eval", "sqrt(" * 200 + "2" + ")" * 200,
                              "--digits", "5")
        assert (code, out) == (0, "1.00000\n")

    def test_long_sum_of_streams(self, capsys):
        # a left-nested chain of 600 adds overflowed the recursion limit
        # in the chain of enclosure closures
        code, out, _ = invoke(capsys, "eval", "+".join(["sqrt(2)"] * 600))
        lo = sqrt_truncation(Fraction(2 * 600**2), 40)  # 600 * sqrt(2)
        want = fraction_prefix(lo, 30)
        assert fraction_prefix(lo + Fraction(1, 10**40), 30) == want
        assert (code, out) == (0, want + "\n")

    def test_long_exact_chains(self, capsys):
        # 3000 terms overflowed the recursion limit of the evaluator
        code, out, _ = invoke(capsys, "eval", "+".join(["1"] * 3000))
        assert (code, out) == (0, "3000\n")
        code, out, _ = invoke(capsys, "eval", "0" + "-1+2" * 1500)
        assert (code, out) == (0, "1500\n")
        code, out, _ = invoke(capsys, "eval", "1" + "/3*6" * 1500)
        assert (code, out) == (0, str(2**1500) + "\n")

    @given(st.lists(st.tuples(st.sampled_from("+-*/"), fractions_st),
                    min_size=1, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_chains_match_left_to_right_fractions(self, steps):
        # operands reduced in pairs give the value of the left-nested
        # reading, computed here with Fraction and the usual precedence
        terms, text = [Fraction(1)], "1"
        for op, f in steps:
            if op in "/" and f == 0:
                f = Fraction(1)
            text += op + "(" + str(real_from_fraction(f)) + ")"
            if op == "+":
                terms.append(f)
            elif op == "-":
                terms.append(-f)
            elif op == "*":
                terms[-1] *= f
            else:
                terms[-1] /= f
        value = evaluate_expression(parse_expression(text))
        assert value.as_fraction() == sum(terms)

    def test_expansion_past_cap_exit_1(self, capsys):
        # the period of 1/99999989 has 99 999 988 digits
        start = time.process_time()
        code, out, err = invoke(capsys, "eval", "1/99999989")
        assert time.process_time() - start < 2
        assert (code, out) == (1, "")
        assert "decreal rep 1/99999989 --digits N" in err

    @pytest.mark.parametrize("q", [999_983, 99_999_989])
    def test_sum_with_long_period_operand(self, capsys, q):
        # describing the operand must not write out its period
        start = time.process_time()
        code, out, _ = invoke(capsys, "eval", f"sqrt(2)+1/{q}",
                              "--digits", "20")
        assert time.process_time() - start < 0.1
        lo = sqrt_truncation(Fraction(2), 30) + Fraction(1, q)
        want = fraction_prefix(lo, 20)
        assert fraction_prefix(lo + Fraction(1, 10**30), 20) == want
        assert (code, out) == (0, want + "\n")


class TestCmp:
    @pytest.mark.parametrize("a,b,symbol", [
        ("0.(3)", "1/3", "="),
        ("sqrt(2)", "1.5", "<"),
        ("22/7", "3.14159", ">"),
    ])
    def test_decided(self, capsys, a, b, symbol):
        code, out, _ = invoke(capsys, "cmp", a, b)
        assert (code, out) == (0, symbol + "\n")

    def test_undecided_exit_3(self, capsys):
        code, out, _ = invoke(capsys, "cmp", "sqrt(2)*sqrt(2)", "2",
                              "--budget", "25")
        assert (code, out) == (3, "undecided\n")

    def test_negative_budget_exit_1(self, capsys):
        code, out, err = invoke(capsys, "cmp", "sqrt(2)", "1",
                                "--budget", "-5")
        assert (code, out) == (1, "") and "--budget" in err


class TestBetween:
    def test_golden(self, capsys):
        code, out, _ = invoke(capsys, "between", "1.99998(8)", "2")
        assert (code, out) == (0, "1.99999\n")

    def test_not_less_exit_1(self, capsys):
        code, _, err = invoke(capsys, "between", "2", "2")
        assert code == 1

    def test_undecided_exit_3(self, capsys):
        code, _, err = invoke(capsys, "between", "sqrt(2)*sqrt(2)", "2")
        assert code == 3 and "undecided" in err

    def test_unstable_endpoint_exit_3(self, capsys):
        # a computed zero below a value that sits on 10**-9
        code, out, err = invoke(capsys, "between", "sqrt(2)-sqrt(2)",
                                "sqrt(2)-sqrt(2)+0.000000001")
        assert (code, out) == (3, "") and "undecided" in err


class TestSup:
    def test_family_file(self, capsys, tmp_path):
        f = tmp_path / "b.set"
        f.write_text("# family: paper-B\n")
        code, out, _ = invoke(capsys, "sup", str(f), "--digits", "5")
        assert (code, out) == (0, "1\n")

    def test_literal_file(self, capsys, tmp_path):
        f = tmp_path / "s.set"
        f.write_text("1\n2.12\n1.(1)\n2.120(1)\n1.120101(1)\n")
        code, out, _ = invoke(capsys, "sup", str(f), "--digits", "12")
        assert (code, out) == (0, "2.120(1)\n")

    def test_stream_family_prints_digits(self, capsys, tmp_path,
                                         monkeypatch):
        # paper-A with its hint withheld: its supremum is a stream, which
        # prints as a digit prefix
        paper_a = supremum._BUILTINS["paper-A"]
        monkeypatch.setitem(supremum._BUILTINS, "paper-A",
                            lambda: unhinted(paper_a()))
        f = tmp_path / "a.set"
        f.write_text("# family: paper-A\n")
        code, out, _ = invoke(capsys, "sup", str(f), "--digits", "8")
        assert (code, out) == (0, "2.12011111\n")

    @pytest.mark.parametrize("name", ["paper-A", "worked-example"])
    def test_periodic_supremum_prints_its_literal(self, capsys, name):
        # the family's maximum 2.120(1) repeats: its hint makes the
        # supremum exact, so it prints like the member list does
        path = Path(__file__).resolve().parent.parent / "sets" / f"{name}.set"
        code, out, _ = invoke(capsys, "sup", str(path), "--digits", "8")
        assert (code, out) == (0, "2.120(1)\n")

    @pytest.mark.parametrize("literal", ["0.(142857)", "-2.0(13)"])
    def test_periodic_lower_cut_prints_its_literal(self, capsys, tmp_path,
                                                    literal):
        f = tmp_path / "c.set"
        f.write_text(f"# family: lower-cut {literal}\n")
        code, out, _ = invoke(capsys, "sup", str(f), "--digits", "8")
        assert (code, out) == (0, literal + "\n")

    def test_missing_file_exit_1(self, capsys, tmp_path):
        code, _, err = invoke(capsys, "sup", str(tmp_path / "nope.set"))
        assert code == 1

    def test_unknown_family_exit_1(self, capsys, tmp_path):
        f = tmp_path / "x.set"
        f.write_text("# family: paper-Z\n")
        code, _, err = invoke(capsys, "sup", str(f))
        assert code == 1


class TestRep:
    def test_golden(self, capsys):
        code, out, _ = invoke(capsys, "rep", "22/7", "--digits", "10")
        assert (code, out) == (0, "3.1428571428\n")

    def test_negative(self, capsys):
        code, out, _ = invoke(capsys, "rep", "-1/4", "--digits", "3")
        assert (code, out) == (0, "-0.250\n")

    def test_integer(self, capsys):
        code, out, _ = invoke(capsys, "rep", "7", "--digits", "2")
        assert (code, out) == (0, "7.00\n")

    def test_malformed_exit_1(self, capsys):
        for bad in ("abc", "1/0", "1.5/2", "2/-3"):
            code, _, err = invoke(capsys, "rep", bad)
            assert code == 1, bad


class TestOptions:
    def test_negative_expression_is_an_operand(self, capsys):
        code, out, _ = invoke(capsys, "eval", "-sqrt(2)")
        want = fraction_prefix(sqrt_truncation(Fraction(2), 40), 30)
        assert (code, out) == (0, "-" + want + "\n")
        code, out, _ = invoke(capsys, "cmp", "-sqrt(2)", "1")
        assert (code, out) == (0, "<\n")

    def test_usage_error_exit_1(self, capsys):
        # exit 2 means "digits unstable"
        code, out, err = invoke(capsys, "eval", "2", "--digits", "x")
        assert (code, out) == (1, "") and "--digits" in err
        code, out, err = invoke(capsys, "eval")
        assert (code, out) == (1, "") and "required" in err

    def test_help_exit_0(self, capsys):
        code, out, _ = invoke(capsys, "eval", "--help")
        assert code == 0 and "--digits" in out


# texts for the front-end fuzz: literals with and without groups, unary
# minus, sqrt and the four operators, plus nesting 195 to 1000 levels deep
literals_st = st.one_of(
    st.from_regex(r"(0|[1-9][0-9]{0,6})(\.[0-9]{1,6})?", fullmatch=True),
    st.from_regex(r"(0|[1-9][0-9]{0,3})\.[0-9]{0,4}\([0-9]{1,5}\)",
                  fullmatch=True),
    st.sampled_from(["-0.0", "0.(0)", "2.5(000)", "-0", "1.(3)", "0.(9)"]),
)
operators_st = st.sampled_from("+-*/")
expressions_st = st.recursive(
    st.one_of(literals_st, st.sampled_from(["sqrt(2)", "sqrt(2)*sqrt(2)"])),
    lambda inner: st.one_of(
        st.tuples(inner, operators_st, inner).map("".join),
        inner.map(lambda e: f"({e})"),
        inner.map(lambda e: f"sqrt({e})"),
        inner.map(lambda e: f"-{e}"),
    ),
    max_leaves=8)
# one nesting level: an opener and its closer, with or without a sibling
# operand on either side; a deep text picks one level per byte
SIBLINGS = ["2", "0.5", "1.(3)", "-0.0", "6117.992(5)", "sqrt(2)", "sqrt(3)"]
LEVELS = ([("(", ")"), ("sqrt(", ")"), ("-(", ")")]
          + [(f"({s}{op}", ")") for s in SIBLINGS for op in "+-*/"]
          + [("(", f"{op}{s})") for s in SIBLINGS for op in "+-*/"])


def nest(levels: bytes, core: str) -> str:
    chosen = [LEVELS[b % len(LEVELS)] for b in levels]
    return ("".join(o for o, _ in chosen) + core
            + "".join(c for _, c in reversed(chosen)))


deep_st = st.builds(nest, st.binary(min_size=195, max_size=1000),
                    expressions_st)
raw_st = st.text(alphabet="0123456789.()+-*/ sqrt", max_size=40)


def nested_root_prefix(depth: int, n: int, core: int = 1,
                       addend: int = 3) -> str:
    """sqrt(addend + sqrt(addend + ... sqrt(addend + core))) with
    ``depth`` roots, to n digits, from long-hand roots of both ends of an
    interval."""
    lo = hi = Fraction(core)
    ulp = Fraction(1, 10 ** (n + 10))
    for _ in range(depth):
        step = (sqrt_truncation(addend + lo, n + 10),
                sqrt_truncation(addend + hi, n + 10) + ulp)
        if step == (lo, hi):
            break  # a fixed point of the rounded iteration stays fixed
        lo, hi = step
    want = fraction_prefix(lo, n)
    assert fraction_prefix(hi, n) == want
    return want


def continued_root_two(depth: int, n: int) -> str:
    """1/(sqrt(2) + 1/(sqrt(2) + ... 1/(sqrt(2) + 1))) with ``depth``
    reciprocals, to n digits: both ends of an interval, from a long-hand
    root of 2, rounded outward to 10**-(n + 10) at each level."""
    k = n + 10
    ulp = Fraction(1, 10**k)
    r2 = sqrt_truncation(Fraction(2), k)  # r2 <= sqrt(2) < r2 + ulp
    lo = hi = Fraction(1)
    for _ in range(depth):
        down, up = 1 / (r2 + ulp + hi), 1 / (r2 + lo)
        lo = Fraction(down.numerator * 10**k // down.denominator, 10**k)
        hi = Fraction(-(-up.numerator * 10**k // up.denominator), 10**k)
    want = fraction_prefix(lo, n)
    assert fraction_prefix(hi, n) == want
    return want


def doubled_root_two(depth: int, n: int) -> str:
    """2 * (2 * ... (2 * sqrt(2))) with ``depth`` factors 2, to n digits:
    the value is sqrt(2**(2 * depth + 1)), irrational, so its truncation
    is the long-hand root of 2**(2 * depth + 1) * 10**(2n)."""
    root = longhand_isqrt(2 ** (2 * depth + 1) * 10 ** (2 * n))
    return f"{root // 10**n}.{root % 10**n:0{n}d}"


def root_two_minus_three(n: int) -> str:
    """sqrt(2) - 3 to n digits, from a long-hand root of 2."""
    lo = sqrt_truncation(Fraction(2), n + 10)
    want = fraction_prefix(lo - 3, n)
    assert fraction_prefix(lo + Fraction(1, 10 ** (n + 10)) - 3, n) == want
    return want


def run_quietly(*argv):
    """(exit code, stdout, CPU seconds) of one CLI run; any exception,
    SystemExit included, fails the caller."""
    out, err = io.StringIO(), io.StringIO()
    start = time.process_time()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = run(list(argv))
    except (Exception, SystemExit) as exc:
        raise AssertionError(f"{argv!r} raised {exc!r}") from exc
    return code, out.getvalue(), time.process_time() - start


class TestFuzz:
    @given(st.one_of(expressions_st, deep_st, raw_st))
    @settings(max_examples=300, deadline=None)
    # a 199-level chain of differences, refined level by level on the
    # evaluator's explicit stack
    @example("(sqrt(2)-" * 199 + "3" + ")" * 199)
    def test_eval_ends_with_an_exit_code(self, text):
        code, _, seconds = run_quietly("eval", text)
        assert code in (0, 1, 2, 3)
        assert seconds < 2

    CHAIN = "1" + "+2*3-4/5" * 5000  # 10 001 terms

    @pytest.mark.parametrize("text,code,want", [
        (CHAIN, 0, "26001"),
        ("1/99999989", 1, ""),
        ("9" * 4400, 0, "9" * 4400),
        ("0." + "3" * 4399 + "(3)", 0, "0.(3)"),
        # each factor's guard digits come from the other factor alone; a
        # guard from both made the demand on the innermost factor grow
        # quadratically in depth, and this text took seconds
        ("(2*" * 195 + "sqrt(2)" + ")" * 195, 0,
         fraction_prefix(sqrt_truncation(Fraction(2**391), 40), 30)),
        # both exited 1 when evaluation recursed a few frames a level
        ("sqrt(3+" * 199 + "1" + ")" * 199, 0, nested_root_prefix(199, 30)),
        ("(sqrt(2)-" * 199 + "3" + ")" * 199, 0, root_two_minus_three(30)),
    ], ids=["chain", "long-period", "4400-digits", "4400-digit-group",
            "nested-product", "nested-root", "nested-difference"])
    def test_fixed_cases(self, text, code, want):
        got, out, seconds = run_quietly("eval", text)
        assert (got, out) == (code, want + "\n" if want else "")
        assert seconds < 2


class TestDeterminism:
    def test_repeat_identical(self, capsys):
        first = invoke(capsys, "eval", "sqrt(7)-sqrt(5)", "--digits", "40")
        second = invoke(capsys, "eval", "sqrt(7)-sqrt(5)", "--digits", "40")
        assert first == second

    def test_sup_repeat_identical(self, capsys, tmp_path):
        f = tmp_path / "c.set"
        f.write_text("# family: lower-cut 1.(3)\n")
        first = invoke(capsys, "sup", str(f), "--digits", "25")
        second = invoke(capsys, "sup", str(f), "--digits", "25")
        assert first == second
