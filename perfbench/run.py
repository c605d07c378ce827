"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload service-mix --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 2006   # every workload in turn

``--trace 0`` measures the end-to-end metrics named in ``BENCHMARK.json``
with tracing off, over a window of ops sized to take about ``--seconds``
on the reference box.  ``--trace 1`` runs the same window untraced, then
a window of the same ops again with the program's public calls wrapped,
and reports the per-layer metrics plus the tracing overhead.  Each
metric is printed on its own line with its unit and sample count; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Spans of a traced run are
written to ``.perfbench/traces/``.

The workloads and why they were chosen are in ``workloads.py`` and
``rationale.json``.  Without the program's sources beside this
directory the benchmark exits with status 2 and prints no result.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402  (the clock above starts before any import)
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layers  # noqa: E402
from harness import OpLog, Tracer, closed_loop, latency_summary, peak_rss_mb  # noqa: E402
from workloads import TRAFFIC, WORKLOADS, Context  # noqa: E402

#: Set-ups per run; ``setup_s`` is their median.
SETUP_RUNS = 3
#: Layers whose share of the traced wall a run reports (``self_share.<layer>``).
LAYERS = (
    "bench", "cli", "service", "api", "backends", "montecarlo",
    "executor", "core", "workloads", "rts",
)
#: What the program needs beside this directory.
REQUIRED = ("src/repro/__init__.py", "examples/table_a.spec.json", "BENCHMARK.json")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*sorted(WORKLOADS), "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true",
        help="set the workload up, print its set-up time and stop",
    )
    return parser.parse_args(argv)


def declared_metrics(section):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return {entry["name"]: entry["unit"] for entry in json.load(handle)[section]}


def extra_setups(args, count):
    """Set-up seconds of ``count`` fresh processes, one after another."""
    seconds = []
    for _ in range(count):
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        seconds.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return seconds


def end_to_end(workload, log, wall, peak_mb, setups):
    """Metric values and the detail line printed beside each."""
    summary = latency_summary(log.ok_latencies())
    reps = sum(workload.reps(op, output) for _i, op, output in log.succeeded())
    completed = log.attempted - log.failed
    tail = (
        f"p{summary['tail_percentile']:.1f} of {summary['samples']} samples, "
        f"{summary['beyond']} beyond"
    )
    return {
        "setup_s": (statistics.median(setups), f"median of {len(setups)} set-ups"),
        "reps_per_s": (reps / wall, f"{reps} reps in {wall:.2f} s"),
        "ops_per_s": (completed / wall, f"{completed} ops in {wall:.2f} s"),
        "latency_p50_ms": (summary["p50_ms"], f"{summary['samples']} samples"),
        "latency_tail_ms": (summary["tail_ms"], tail),
        "peak_rss_mb": (peak_mb, "largest process in the window"),
    }


def traced_pass(args, workload, log, wall):
    """Replay the window's op count traced; return per-layer figures."""
    tracer = Tracer()
    workload.before_trace()
    ops = iter(workload.window(args.seconds, 1))
    traced_log = OpLog()
    targets, hooks = workload.trace_targets(tracer)
    with tracer.wrapped(targets, hooks):
        traced_wall = closed_loop(
            lambda: next(ops, None), workload.run_op, clients=workload.clients,
            log=traced_log, tracer=tracer, op_layer=workload.op_layer,
        )
        window_self = dict(tracer.self_seconds)
        workload.after_trace(tracer)
    workload.check(log)
    workload.check(traced_log)
    workload.compare(log, traced_log)
    tracer.write(os.path.join(
        ROOT, ".perfbench", "traces", f"{args.workload}-{args.seed}.jsonl"
    ))

    figures = dict.fromkeys(TRAFFIC, 0.0)
    figures.update(
        (f"self_share.{layer}", window_self.get(layer, 0.0) / traced_wall)
        for layer in LAYERS
    )
    figures["trace.overhead_s"] = traced_wall - wall
    figures["trace.overhead_share"] = (traced_wall - wall) / wall
    attempts = len(tracer.events["client.attempts"])
    figures["client.retries"] = attempts - tracer.total_calls("submit_study")
    figures.update(workload.traffic(tracer, traced_log))
    return figures, traced_log


def report(args, workload, logs, metrics, details):
    attempted = sum(log.attempted for log in logs)
    failed = sum(log.failed for log in logs)
    print(
        f"{args.workload} seed={args.seed}: {attempted} ops attempted, "
        f"{failed} failed (failed_ratio {failed / attempted:.4f})"
    )
    reasons = {reason for log in logs for reason in log.failure_reasons()}
    for reason in sorted(reasons)[:10]:
        print(f"  failed: {reason}")
    for note in workload.notes():
        print(f"  {note}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:>14.6g} {unit:<8} {details.get(name, '')}")


def run_all(args):
    """Each workload in its own process, one after another."""
    status = 0
    for name in sorted(WORKLOADS):
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, timeout=900,
        )
        status = max(status, done.returncode)
    return status


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    missing = [path for path in REQUIRED if not os.path.exists(os.path.join(ROOT, path))]
    if missing:
        print(f"perfbench: the program is missing here: {', '.join(missing)}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    scratch = os.path.join(ROOT, ".perfbench")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    ctx = Context(root=ROOT, seed=args.seed, workdir=workdir)
    workload = WORKLOADS[args.workload](ctx)
    try:
        workload.setup()
        setup_s = time.perf_counter() - STARTED
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        log = OpLog()
        ops = iter(workload.window(args.seconds, 0))
        wall = closed_loop(
            lambda: next(ops, None), workload.run_op, clients=workload.clients,
            log=log,
        )
        peak_mb = peak_rss_mb()
        if args.trace:
            values, traced_log = traced_pass(args, workload, log, wall)
            workload.teardown()
            values.update(layers.probes(ROOT, ctx.env(), args.seed, workdir))
            logs, section, details = [log, traced_log], "per_layer", {}
        else:
            workload.check(log)
            workload.teardown()
            setups = [setup_s, *extra_setups(args, SETUP_RUNS - 1)]
            measured = end_to_end(workload, log, wall, peak_mb, setups)
            values = {name: value for name, (value, _detail) in measured.items()}
            details = {name: detail for name, (_value, detail) in measured.items()}
            logs, section = [log], "end_to_end"
        metrics = {
            name: (float(values[name]), unit)
            for name, unit in declared_metrics(section).items()
        }
        report(args, workload, logs, metrics, details)
        failed = sum(each.failed for each in logs)
        print(json.dumps({
            "correct": failed == 0,
            "attempted": sum(each.attempted for each in logs),
            "failed": failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in metrics.items()
            },
        }))
        return 0
    finally:
        workload.teardown()
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
