"""Tests of the benchmark itself: ``python3 -m pytest bench -q``."""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import gen  # noqa: E402
import oracle  # noqa: E402
import ops  # noqa: E402
import run  # noqa: E402
from spans import Tracer  # noqa: E402


def _strip(round_ops):
    # expression trees and Fractions compare by value
    return [sorted(op.items()) for op in round_ops]


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_same_seed_gives_same_inputs(workload):
    first = [gen.make_round(workload, 7, r) for r in range(3)]
    again = [gen.make_round(workload, 7, r) for r in range(3)]
    other = [gen.make_round(workload, 8, r) for r in range(3)]
    assert list(map(_strip, first)) == list(map(_strip, again))
    assert list(map(_strip, first)) != list(map(_strip, other))


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_round_make_up_does_not_depend_on_seed(workload):
    def make_up(seed, r):
        return [(op["kind"], op.get("shape"), op.get("cls"), op.get("set"),
                 op.get("n"), op.get("mode"), op.get("budget"))
                for op in gen.make_round(workload, seed, r)]

    # the kept fault cycles through its fixed inputs by round number
    assert make_up(1, 0) == make_up(2, 0) == make_up(3, len(gen.FAULT_INPUTS))


def test_kept_fault_inputs_do_not_depend_on_seed():
    def faults(seed, r):
        return [op for op in gen.make_round("exact_rational", seed, r)
                if op["kind"] == "fault"]

    for r in range(len(gen.FAULT_INPUTS)):
        assert faults(1, r) == faults(99, r) and len(faults(1, r)) == 1


def test_oracle_hand_checks():
    root2 = gen.sq(2)
    assert oracle.check_render(root2, "1.41421", 5) is None
    assert oracle.check_render(root2, "1.41422", 5)
    assert oracle.check_render(root2, "-1.41421", 5)
    assert oracle.check_render(root2, "1.4142", 5)
    assert oracle.check_render(("neg", root2), "-1.414", 3) is None
    third = ("div", gen.num(1), gen.sq(3))  # 0.57735...
    assert oracle.check_render(third, "0.5773", 4) is None
    lo, hi = Fraction(141421, 10 ** 5), Fraction(141422, 10 ** 5)
    assert oracle.check_enclosure(root2, lo, hi, 5) is None
    assert oracle.check_enclosure(root2, lo + hi - lo, hi + hi - lo, 5)
    assert oracle.check_enclosure(root2, lo, hi, 6)

    assert oracle.parse_literal("2.120(1)") == Fraction(2120, 1000) + Fraction(1, 9000)
    assert oracle.check_canonical_literal("0.1(6)", Fraction(1, 6)) is None
    assert oracle.check_canonical_literal("0.08(3)", Fraction(1, 12)) is None
    assert oracle.check_canonical_literal("0.(142857)", Fraction(1, 7)) is None
    assert oracle.check_canonical_literal("0.1(66)", Fraction(1, 6))
    assert oracle.check_canonical_literal("0.16(6)", Fraction(1, 6))
    assert oracle.check_canonical_literal("2.50", Fraction(5, 2))
    assert oracle.check_canonical_literal("2.5", Fraction(5, 2)) is None
    assert gen.multiplicative_order(10, 7) == 6
    assert gen.multiplicative_order(10, 9 * 7) == 6
    assert gen.canonical_literal(Fraction(-1, 12)) == "-0.08(3)"
    assert gen.canonical_literal(Fraction(1, 8)) == "0.125"
    assert gen.truncation_text(Fraction(2, 3), 4) == "0.6666"
    assert gen.sqrt_truncation_text(2, 5) == "1.41421"

    assert oracle.check_prefix("-0.333", Fraction(-1, 3), 3) is None
    assert oracle.check_prefix("0.333", Fraction(-1, 3), 3)


def test_oracle_order_verdicts():
    below = {"x": gen.sq(2), "y": gen.num(Fraction("1.4142")), "order": ">",
             "sep": 4, "budget": 20}
    assert oracle.check_order(below, ">") is None
    assert oracle.check_order(below, "<")
    assert oracle.check_order(below, "undecided")
    equal = {"x": ("mul", gen.sq(2), gen.sq(3)), "y": gen.sq(6),
             "order": "undecided", "sep": None, "budget": 20}
    assert oracle.check_order(equal, "undecided") is None
    assert oracle.check_order(equal, "<")
    assert oracle.check_between(below, "1.41421") is None
    assert oracle.check_between(below, "1.4142")
    assert oracle.check_between(below, "1.415")


def _one_round(workload, kinds):
    ops_ = [op for op in gen.make_round(workload, 3, 0) if op["kind"] in kinds]
    return lambda r: ops_ if r == 0 else []


def test_corrupted_outputs_count_as_failed(monkeypatch):
    stream_run, stream_view, stream_check = ops.OPS["stream"]

    def flip_last_digit(op, raw, tr):
        out = stream_view(op, raw, tr)
        if "text" in out:
            d = out["text"][-1]
            out["text"] = out["text"][:-1] + str((int(d) + 1) % 10)
        else:
            out["lo"] += Fraction(1, 10 ** op["n"])
            out["hi"] += Fraction(1, 10 ** op["n"])
        return out

    monkeypatch.setitem(ops.OPS, "stream", (stream_run, flip_last_digit, stream_check))
    rounds = [op for op in gen.make_round("stream_digits", 3, 0)
              if op["shape"] in ("root", "inv_root")]
    result = run.run_ops(lambda r: rounds if r == 0 else [], 1e-9, Tracer(False),
                         lambda line: None)
    assert result["attempted"] == len(rounds) == result["failed"] == result["wrong"]

    pair_run, pair_view, pair_check = ops.OPS["compare"]

    def wrong_verdict(op, raw, tr):
        return {"verdict": {"<": ">", ">": "<", "undecided": "<"}[pair_view(op, raw, tr)["verdict"]]}

    monkeypatch.setitem(ops.OPS, "compare", (pair_run, wrong_verdict, pair_check))
    result = run.run_ops(_one_round("order_sup", {"compare"}), 1e-9, Tracer(False),
                         lambda line: None)
    compares = sum(op["kind"] == "compare" for op in gen.make_round("order_sup", 3, 0))
    assert result["attempted"] == result["failed"] == result["wrong"] == compares == 10


def test_times_are_scaled_to_the_reference_speed(monkeypatch):
    # a machine half as fast as the reference one: every pass takes twice as long
    monkeypatch.setattr(run, "reference_pass", lambda: 2 * run.REFERENCE_PASS_S)
    result = run.run_ops(_one_round("order_sup", {"classify", "compare"}), 1e-9,
                         Tracer(False), lambda line: None)
    assert result["latencies"] == pytest.approx([t / 2 for t in result["raw_latencies"]])
    assert result["scaled_busy_s"] == pytest.approx(result["busy_s"] / 2)
    scaled, raw = run.end_to_end(result), run.end_to_end(result, scaled=False)
    assert scaled["ops_per_s"] == pytest.approx(2 * raw["ops_per_s"])
    assert scaled["op_p50_ms"] == pytest.approx(raw["op_p50_ms"] / 2)


def test_one_round_of_each_workload_is_correct():
    for workload in gen.WORKLOADS:
        result = run.run_ops(lambda r: gen.make_round(workload, 5, 0) if r == 0 else [],
                             1e-9, Tracer(True), lambda line: None)
        faults = 1 if workload == "exact_rational" else 0
        assert result["wrong"] == 0, result["errors"]
        assert result["failed"] == faults, result["errors"]


def test_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(gen.WORKLOADS)


def test_traced_run_reports_every_per_layer_metric(capsys):
    assert run.main(["--workload", "exact_rational", "--seed", "1",
                     "--seconds", "0.05", "--trace", "1"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] == 20 and result["failed"] == 1
    assert set(result["metrics"]) == set(run.PER_LAYER_UNITS)
    assert result["metrics"]["rationals.period_digits"]["value"] > 0
