"""The decreal benchmark: one workload, one seed, one closed-loop client.

    python3 bench/run.py --workload stream_digits --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; decreal is imported from its
``src`` directory.  The run measures set-up time in fresh interpreters,
then runs whole rounds of the workload's operations one after another
until their summed CPU time reaches ``--seconds``, checks every output
against the independent oracle outside the timed interval, and prints
one JSON object as its last line: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Per-run
results and span traces go to ``.bench_out/``.

Every time is the CPU time of this process (``time.process_time``), not
wall time.  decreal is pure Python, single-threaded and does no I/O, so
an operation's CPU time is its latency on an idle machine; on a shared
virtual machine wall time also counts the spells in which the host runs
someone else, and those spread a fixed loop's wall time over 20-114 ms
while its CPU time stayed within 20-44 ms.  Work that decreal moved to
other threads would still be counted; work moved to child processes
would not.

The host also runs the core at different speeds, for spells of minutes:
the same code ran up to 1.6 times faster in one spell than in another.
So before every operation, outside its timed interval, the run times
one pass of a fixed reference computation that does not use decreal,
and every time the metrics report is scaled to the speed at which that
pass takes ``REFERENCE_PASS_S``: an operation's CPU time is multiplied
by ``REFERENCE_PASS_S`` over the median pass time of its round.  The
unscaled figures go to the per-run results file.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# bytecode lives outside the source tree, and is always warm when timed
PYCACHE = ROOT / ".bench_build" / "pycache"
OUT = ROOT / ".bench_out"

# counted set-up probes per run, spread over the timed phase so that
# set-up is sampled at the same machine speed as the operations
SETUP_PROBES = 15
# no new round starts after 1.25 times the measured time plus 5 s of
# wall time, nor after 140 s, so that a run ends in bounded time even
# when the host lends the machine's cores to others for long spells
WALL_FACTOR, WALL_SLACK_S, MAX_WALL_S = 1.25, 5, 140

# CPU time of one warm pass of ``reference_pass`` at the reference speed
REFERENCE_PASS_S = 0.5e-3
_REF_A, _REF_B, _REF_C = 7 ** 900, 3 ** 1200 + 1, 11 ** 700

# the program's own set-up: importing decreal and its first call
SETUP_PROBE = """
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.process_time()
import decreal
from decreal.cli import evaluate_expression, parse_expression
decreal.render_digits(evaluate_expression(parse_expression("sqrt(2)")), 1)
print(time.process_time() - start)
"""

END_TO_END_UNITS = {
    "setup_s": "s", "ops_per_s": "op/s", "op_p50_ms": "ms",
    "op_p95_ms": "ms", "peak_rss_mb": "MiB",
}
BUSY_LAYERS = (
    "cli.parse", "cli.build", "realnum.render", "realnum.compare",
    "realnum.between", "realnum.classify", "realnum.parse",
    "arithmetic.evaluate", "arithmetic.exact", "rationals.to_decimal",
    "rationals.decimal_representation", "rationals.phi_check", "terminating",
    "supremum.sup", "supremum.certificate", "supremum.upper_bound",
)
COUNTS = (
    "realnum.digits_rendered", "realnum.compare.undecided",
    "rationals.period_digits", "supremum.certificates_passed",
)
PER_LAYER_UNITS = {
    **{f"{layer}.busy_s": "s" for layer in BUSY_LAYERS},
    **{name: "count" for name in COUNTS},
    "realnum.compare.calls": "count",
    "arithmetic.enclosure_bits": "bit/op",
    "arithmetic.bits_per_digit": "bit/digit",
    "trace.spans": "count",
    "trace.ops_per_s": "op/s",
    "trace.op_p50_ms": "ms",
}


def setup_probe() -> float:
    """Set-up time in a fresh interpreter.  The first probe of a run is
    not counted: it fills the bytecode and file caches, so every counted
    probe starts warm."""
    cmd = [sys.executable, "-I", "-X", f"pycache_prefix={PYCACHE}",
           "-c", SETUP_PROBE, str(SRC)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=60,
                          check=True, cwd=ROOT)
    return float(done.stdout.strip().splitlines()[-1])


def _ref_step(x: int, i: int) -> int:
    return (x * 31 + i) % 1000003


def reference_pass() -> float:
    """Thread CPU time of one pass of a fixed computation of the two kinds
    decreal spends its time on: interpreted calls on small integers, and
    big-integer gcd, division and decimal conversion.  A first, untimed
    pass warms the caches, so what decreal left in them does not count;
    the pass makes no container objects, so it never starts the garbage
    collector, whose work would grow with decreal's heap."""
    for timed in (False, True):
        t0 = time.thread_time()
        acc = 0
        for i in range(1700):
            acc = _ref_step(acc, i)
        for _ in range(4):
            math.gcd(_REF_A * _REF_B, _REF_B * _REF_C)
            int(str(_REF_A * _REF_C // _REF_B))
    return time.thread_time() - t0


def peak_rss_mib() -> float:
    """High-water resident set of this process.  VmHWM belongs to the
    process image, so unlike ru_maxrss it does not inherit the peak of
    the parent that started it."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_ops(ops_of_round, seconds: float, tracer, report,
            between_rounds=lambda busy, scale: None) -> dict:
    """Closed loop: whole rounds until the timed calls sum to ``seconds``
    of CPU time.  ``latencies`` and ``scaled_busy_s`` are at the reference
    speed; ``raw_latencies`` and ``busy_s`` are CPU time as measured."""
    from ops import OPS

    latencies: list[float] = []
    raw_latencies: list[float] = []
    by_template: dict[str, list[float]] = {}
    busy = scaled_busy = 0.0
    scales: list[float] = []
    attempted = failed = wrong = 0
    errors: Counter = Counter()
    started = time.monotonic()
    wall_limit = min(MAX_WALL_S, WALL_FACTOR * seconds + WALL_SLACK_S)
    round_no = 0
    while busy < seconds and time.monotonic() - started < wall_limit:
        passes: list[float] = []
        round_busy = 0.0
        round_ok: list[tuple[str, float]] = []
        for op in ops_of_round(round_no):
            run, view, check = OPS[op["kind"]]
            attempted += 1
            passes.append(reference_pass())
            with tracer.op(op["kind"]):
                t0 = time.process_time()
                try:
                    raw = run(op, tracer)
                except Exception as exc:  # a failed operation, counted
                    round_busy += time.process_time() - t0
                    failed += 1
                    errors[f"{op['kind']}: {type(exc).__name__}"] += 1
                    continue
                elapsed = time.process_time() - t0
            round_busy += elapsed
            try:
                reason = check(op, view(op, raw, tracer))
            except Exception as exc:  # an output the oracle cannot read
                reason = f"unreadable output: {type(exc).__name__}: {exc}"
            if reason:
                failed += 1
                wrong += 1
                errors[f"{op['kind']}: wrong: {reason}"] += 1
                report(f"wrong output on {op.get('text') or op.get('tx') or op['kind']}: {reason}")
                continue
            round_ok.append((template(op), elapsed))
        scale = REFERENCE_PASS_S / statistics.median(passes) if passes else 1.0
        scales.append(scale)
        busy += round_busy
        scaled_busy += scale * round_busy
        for name, elapsed in round_ok:
            raw_latencies.append(elapsed)
            latencies.append(scale * elapsed)
            by_template.setdefault(name, []).append(scale * elapsed)
        round_no += 1
        between_rounds(busy, scale)
    return {"latencies": latencies, "raw_latencies": raw_latencies,
            "busy_s": busy, "scaled_busy_s": scaled_busy,
            "attempted": attempted, "failed": failed, "wrong": wrong,
            "rounds": round_no, "errors": dict(errors),
            "scale_p50": statistics.median(scales) if scales else 1.0,
            "template_p50_ms": {name: 1000 * statistics.median(times)
                                for name, times in sorted(by_template.items())}}


def template(op: dict) -> str:
    """The name of an operation's template within its round."""
    return "/".join(str(op[k]) for k in ("kind", "shape", "cls", "set", "sep", "budget", "n", "mode")
                    if op.get(k) is not None)


def end_to_end(result: dict, scaled: bool = True) -> dict[str, float]:
    lat = result["latencies" if scaled else "raw_latencies"]
    return {
        "ops_per_s": len(lat) / result["scaled_busy_s" if scaled else "busy_s"],
        "op_p50_ms": 1000 * statistics.median(lat),
        "op_p95_ms": 1000 * statistics.quantiles(lat, n=20)[18],
        "peak_rss_mb": peak_rss_mib(),
    }


def per_layer(tracer, result: dict) -> dict[str, float]:
    busy = tracer.busy_seconds()
    out = {f"{layer}.busy_s": busy.get(layer, 0.0) for layer in BUSY_LAYERS}
    out.update({name: tracer.counts[name] for name in COUNTS})
    out["realnum.compare.calls"] = sum(1 for s in tracer.spans if s[3] == "realnum.compare")
    bits, reads = tracer.counts["arithmetic.enclosure_bits"], tracer.counts["arithmetic.enclosures_read"]
    digits = tracer.counts["realnum.digits_rendered"]
    out["arithmetic.enclosure_bits"] = bits / reads if reads else 0.0
    out["arithmetic.bits_per_digit"] = bits / digits if digits else 0.0
    out["trace.spans"] = len(tracer.spans)
    e2e = end_to_end(result)
    out["trace.ops_per_s"] = e2e["ops_per_s"]
    out["trace.op_p50_ms"] = e2e["op_p50_ms"]
    return out


def report(line: str) -> None:
    print(line, file=sys.stderr)


def main(argv=None) -> int:
    import gen

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "decreal" / "__init__.py").is_file():
        print(f"error: no decreal sources under {SRC}", file=sys.stderr)
        return 2

    sys.pycache_prefix = str(PYCACHE)
    raw_setup_times: list[float] = []
    setup_times: list[float] = []
    last_scale = 1.0

    def probe(scale: float) -> None:
        raw_setup_times.append(setup_probe())
        setup_times.append(scale * raw_setup_times[-1])

    def between_rounds(busy: float, scale: float) -> None:
        nonlocal last_scale
        last_scale = scale
        if not args.trace and busy >= len(setup_times) * args.seconds / SETUP_PROBES:
            probe(scale)

    try:
        setup_probe()  # warms the caches; not counted
    except (subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"error: decreal does not start: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from spans import Tracer

    tracer = Tracer(bool(args.trace))
    result = run_ops(lambda r: gen.make_round(args.workload, args.seed, r),
                     args.seconds, tracer, report, between_rounds)
    while not args.trace and len(setup_times) < SETUP_PROBES:
        probe(last_scale)
    if len(result["latencies"]) < 2:
        print("error: fewer than two operations succeeded", file=sys.stderr)
        return 1
    if args.trace:
        values, units = per_layer(tracer, result), PER_LAYER_UNITS
    else:
        values = {"setup_s": statistics.median(setup_times), **end_to_end(result)}
        units = END_TO_END_UNITS

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracer.write(OUT / f"{stem}.spans.jsonl")
    summary = {k: v for k, v in result.items() if k not in ("latencies", "raw_latencies")}
    summary["unscaled_metrics"] = end_to_end(result, scaled=False)
    if setup_times:
        summary["unscaled_metrics"]["setup_s"] = statistics.median(raw_setup_times)
    summary["setup_times"] = setup_times
    (OUT / f"{stem}.json").write_text(json.dumps(
        {"args": vars(args), "metrics": values, **summary}, indent=1))
    for name, count in sorted(result["errors"].items()):
        report(f"{count} x {name}")
    for name in units:
        print(f"{name} = {values[name]:.6g} {units[name]}")
    print(json.dumps({
        "correct": result["wrong"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
