"""Run one host-clock benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 hostbench/run.py --workload sweep-cold --seed 0 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with no wrappers at all.
``--trace 1`` runs an untraced leg and then a traced leg of the same
work on fresh state, and reports the per-layer metrics with a
self-time table and the predictions they are judged against.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line
before it is the full result record, including the ``host`` block.
The exit code is 0 only when every output check passed: 1 when one
failed, 3 when an open-loop run was invalid (the load generator fell
behind its own schedule), 2 on a usage or environment error.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from hostbench.common import (  # noqa: E402
    ROOT,
    SRC_DIR,
    WORK_DIR,
    host_block,
    median,
    peak_rss_mb,
    use_program_sources,
    write_json,
)

#: Set-up repetitions per run; ``setup_s`` is their median.
SETUP_REPS = 3
#: What a vetting deployment imports before its first app.
PROGRAM_MODULES = (
    "repro.bench.harness",
    "repro.dataflow.incremental",
    "repro.rules.pack",
    "repro.serve.service",
)

#: What each layer's numbers should move, per workload, written down
#: before measuring.  Printed next to the traced table.
PREDICTIONS = {
    "sweep-cold": {
        "apk": "small share (generation inside the workers)",
        "lint": "moves apps_per_s",
        "cfg": "moves apps_per_s",
        "core": "main share: moves apps_per_s",
        "price": "second share: moves apps_per_s",
        "vetting": "small share",
        "dataflow": "no change: zero MethodSummaryStore calls",
        "bench": "cache stores and worker imbalance move apps_per_s",
        "serve": "no work",
    },
    "serve-open": {
        "apk": "load_gdx moves latency_p50_s",
        "lint": "moves latency_p50_s",
        "cfg": "moves latency",
        "core": "moves latency",
        "price": "moves latency",
        "vetting": "moves latency_p50_s",
        "dataflow": "no change: zero MethodSummaryStore calls",
        "bench": "no cache stores",
        "serve": "dispatch, lane overhead and journal move latency_p50_s, "
                 "latency_p90_s and goodput",
    },
    "revet-bump": {
        "apk": "version-bump generation only (outside the timed calls)",
        "lint": "no work",
        "cfg": "moves latency_p50_s",
        "core": "no change: zero BlockRunner.run calls",
        "price": "no change: zero GDroid.price calls",
        "vetting": "main share with dataflow: moves latency_p50_s",
        "dataflow": "main share: store reads, fingerprints, worklist",
        "bench": "no work",
        "serve": "no work",
    },
}

#: Entry points that must not run at all during a workload's timed
#: phase (the "no change" predictions, checked as counts).
BYPASS = {
    "sweep-cold": ("dataflow.store_load", "dataflow.store_write"),
    "serve-open": ("dataflow.store_load", "dataflow.store_write"),
    "revet-bump": ("core.blockexec", "price.gdroid"),
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True,
        choices=("sweep-cold", "serve-open", "revet-bump"),
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _program_start_s() -> float:
    """Median wall time of a fresh interpreter importing the program.

    Part of every workload's set-up: work a change moves into import
    time shows here rather than vanishing from the timed phase.
    """
    times = []
    for _ in range(SETUP_REPS):
        begin = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", f"import {', '.join(PROGRAM_MODULES)}"],
            cwd=ROOT, env={**os.environ, "PYTHONPATH": str(SRC_DIR)},
            check=True, timeout=120,
        )
        times.append(time.perf_counter() - begin)
    return median(times)


def _setup(workload):
    """Set up ``SETUP_REPS`` times; keep the last state, time each."""
    times = []
    state = None
    for rep in range(SETUP_REPS):
        begin = time.perf_counter()
        state = workload.setup(rep)
        times.append(time.perf_counter() - begin)
    return state, times


def _print_e2e(metrics) -> None:
    for name, (value, unit, count) in metrics.items():
        samples = "" if count is None else f"  (n={count})"
        print(f"  {name:<20} {value:>12.6g} {unit}{samples}")


def _print_table(name: str, stats, spans) -> None:
    from hostbench.tracing import lane_roots

    table = stats["table"]
    busy = table["busy_s"] or 1.0
    print(f"per-layer self time, traced leg ({name}):")
    print(f"  {'layer':<10} {'self s':>9} {'share':>7}  prediction")
    predictions = PREDICTIONS[name]
    for layer, seconds in sorted(
        table["by_layer"].items(), key=lambda item: -item[1]
    ):
        share = "" if layer == "wait" else f"{seconds / busy:7.1%}"
        note = predictions.get(layer, "")
        if layer == "wait":
            note = "main process waiting on workers or the schedule"
        print(f"  {layer:<10} {seconds:9.3f} {share:>7}  {note}")
    lanes = len({(s["pid"], s["tid"]) for s in lane_roots(spans)})
    print(
        f"  self times sum to {table['self_total_s']:.3f}s; lane root spans "
        f"cover {table['root_total_s']:.3f}s over {lanes} lanes "
        f"(error {stats['metrics']['trace.self_sum_error'][0]:.2e}, "
        "stated share < 1e-6)"
    )
    print("  per entry point:")
    for entry, values in sorted(
        table["by_name"].items(), key=lambda item: -item[1]["self_s"]
    ):
        print(
            f"    {entry:<26} {values['self_s']:9.3f}s  {values['calls']:>7} "
            "calls"
        )


def _measure(args, work: Path, recorder) -> int:
    from hostbench.layers import install_full
    from hostbench.workloads import LAYER_METRICS, WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.seconds, work)
    start_s = _program_start_s()
    state, setup_times = _setup(workload)
    setup_s = start_s + median(setup_times)

    failures = []
    invalid = []
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host_block(args.seed),
        "program_start_s": start_s,
        "setup_reps_s": setup_times,
    }
    if not args.trace:
        leg = workload.run(state, seconds=args.seconds)
        failures += workload.check(state, leg)
        if hasattr(workload, "validity"):
            invalid += workload.validity(leg)
        metrics = workload.metrics(leg, setup_s, peak_rss_mb())
        print(f"{args.workload} seed={args.seed}: end-to-end (host wall clock)")
        _print_e2e(metrics)
        print(
            f"  {'error_rate':<20} {leg.failed / max(1, leg.ops):>12.6g} "
            f"ratio  (n={leg.ops})"
        )
        out = {name: {"value": value, "unit": unit}
               for name, (value, unit, _) in metrics.items()}
        record["samples"] = {name: count
                             for name, (_, _, count) in metrics.items()}
    else:
        # Untraced leg on half the budget, then the same work traced on
        # fresh state; their per-operation walls give trace.overhead.
        first = workload.run(state, seconds=args.seconds / 2)
        failures += workload.check(state, first)
        state = workload.setup(SETUP_REPS)
        install_full(recorder)
        with recorder.span("bench.timed"):
            leg = workload.run(state, ops=first.ops)
        spans, counters = recorder.collect()
        recorder.enabled = False
        failures += workload.check(state, leg)
        if hasattr(workload, "validity"):
            invalid += workload.validity(leg)
        stats = workload.layer_metrics(leg, spans, counters)
        if args.workload == "serve-open":
            overhead = median(leg.latencies) / median(first.latencies) - 1
        else:
            overhead = (leg.wall_s / leg.ops) / (first.wall_s / first.ops) - 1
        stats["metrics"]["trace.overhead"] = (overhead, "ratio")
        unknown = set(stats["metrics"]) - set(LAYER_METRICS)
        if unknown:
            raise RuntimeError(f"undeclared per-layer metrics: {unknown}")
        for name, (unit, _) in LAYER_METRICS.items():
            stats["metrics"].setdefault(name, (0, unit))
        for entry in BYPASS[args.workload]:
            calls = stats["table"]["by_name"].get(entry, {}).get("calls", 0)
            if calls:
                failures.append(
                    f"{entry}: {calls} calls where the workload must "
                    "bypass it"
                )
        _print_table(args.workload, stats, spans)
        print(f"per-layer metrics ({args.workload} seed={args.seed}):")
        for name, (value, unit) in sorted(stats["metrics"].items()):
            print(f"  {name:<30} {value:>12.6g} {unit}")
        out = {name: {"value": value, "unit": unit}
               for name, (value, unit) in stats["metrics"].items()}
    record["metrics"] = out
    record["failures"] = failures
    record["invalid"] = invalid
    record["notes"] = leg.detail.get("notes", [])
    for note in record["notes"]:
        print(f"NOTE: {note}")
    for failure in failures:
        print(f"CHECK FAILED: {failure}")
    for reason in invalid:
        print(f"INVALID RUN: {reason}")
    result = {
        "correct": not failures,
        "attempted": leg.ops,
        "failed": leg.failed,
        "metrics": out,
    }
    write_json(
        WORK_DIR / "results"
        / f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
        {**record, "result": result},
    )
    print(json.dumps({"record": record}, sort_keys=True, default=str))
    if invalid:
        return 3
    print(json.dumps(result, sort_keys=True))
    return 0 if not failures else 1


def main(argv=None) -> int:
    args = _parse(argv)
    use_program_sources()
    from hostbench.tracing import Recorder

    # The program runs in its default configuration, whatever the
    # calling environment sets; its caches live in the run directory.
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    work = WORK_DIR / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    os.environ["REPRO_CACHE_DIR"] = str(work / "cache")
    recorder = Recorder(work / "spans")
    try:
        return _measure(args, work, recorder)
    finally:
        recorder.uninstall()
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
