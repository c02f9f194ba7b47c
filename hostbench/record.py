"""Record the expected outputs and input tables the workloads check against.

Usage (from the root of a checkout; about 20 minutes on 2 cores)::

    python3 hostbench/record.py [sweep] [serve]

Writes three files under ``hostbench/data`` (``sweep`` records the
first two, ``serve`` the third):

``sweep.json``
    The ``sweep-cold`` window table and, for every app of the pool
    (generator seeds ``2020 .. 2020+pool-1`` at scale 1.0), the row
    ``evaluate_or_lint_row(strict=True, rules=exfiltration)`` gives,
    plus the host seconds it took when recorded (fastest of three).
    Windows are 4 consecutive apps; the table keeps the 6 whose two
    round-robin worker chunks cost closest to the pool's typical
    window -- about one run's worth, so every run does nearly the
    same work whatever its seed.
``revet.json``
    The ``revet-bump`` app set and, for every (app, mutation) pair,
    the digest of a cold ``vet_app(mutate_app(old, m, 1 + m % 3),
    rules=exfiltration)``.
``serve.json``
    The ``serve-open`` scenario corpora: of 16 candidates, the 8 whose
    jobs' mean and mean square cost are most typical.  Per candidate,
    the host seconds of each scenario's serve pipeline when recorded.
    Per kept corpus, the scenarios left out as not small (slower than
    1 s), and the scenarios whose label a cold ``vet_app`` contradicts
    (known generator defects: the run expects the recorded answer
    there and says so).

Re-record only on a deliberate change of the program's outputs, and
say so where the change is described: these files are what the output
checks compare against.
"""

from __future__ import annotations

import argparse
import multiprocessing
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from hostbench.common import (  # noqa: E402
    DATA_DIR,
    PACK,
    ROOT,
    WORKERS,
    canon,
    digest,
    read_json,
    report_outcome,
    use_program_sources,
    version_bump,
    write_json,
)
from hostbench.workloads import SERVE_RATE, SERVE_WARMUP  # noqa: E402

#: The canonical corpus namespace (``repro.apk.corpus.CORPUS_BASE_SEED``).
POOL_BASE = 2020
SCALE = 1.0
POOL_SIZE = 96
WINDOW = 4
#: Windows in the sweep-cold table: about one run's worth of rounds.
WINDOWS = 6
#: Each pool app is timed this many times; the fastest run is its cost
#: (the least disturbed by other load on the host).
COST_REPS = 3
REVET_APPS = 6
REVET_MUTATIONS = 24
#: revet-bump uses pool apps up to this size (CFG nodes), so set-up
#: (seeding the summary store) stays a few seconds.
REVET_MAX_NODES = 9000
#: serve-open scenario corpora (``scenario_corpus`` base seeds): the
#: table keeps SERVE_CORPORA of SERVE_CANDIDATES, and records enough
#: scenarios per corpus for a 45-second schedule.
SERVE_BASE = 100_000
SERVE_CANDIDATES = 16
SERVE_CORPORA = 8
SERVE_SCENARIOS = 256
#: serve-open sends small apps: scenarios whose serve pipeline took
#: longer than this when recorded (about 2% of them, up to ~9 s on a
#: 2-vCPU VM) are left out.
SERVE_HEAVY_S = 1.0


def _sweep_row(seed: int):
    from repro.apk.generator import AppGenerator, GeneratorProfile
    from repro.bench.harness import evaluate_or_lint_row
    from repro.rules.pack import load_pack

    app = AppGenerator(GeneratorProfile(scale=SCALE)).generate(seed)
    pack = load_pack(PACK)
    seconds = []
    for _ in range(COST_REPS):
        begin = time.perf_counter()
        row = evaluate_or_lint_row(app, 0, True, rules=pack)
        seconds.append(time.perf_counter() - begin)
    return seed, {"type": type(row).__name__, **canon(row)}, min(seconds)


def _revet_digest(task):
    from repro.apk.generator import AppGenerator, GeneratorProfile
    from repro.rules.pack import load_pack
    from repro.vetting.report import vet_app

    seed, mutation = task
    old = AppGenerator(GeneratorProfile(scale=SCALE)).generate(seed)
    new = version_bump(old, mutation)
    report = vet_app(new, rules=load_pack(PACK))
    return f"{seed}:{mutation}", digest(report_outcome(report))


def _serve_answers(base_seed: int):
    from repro.rules.pack import load_pack
    from repro.rules.scenarios import scenario_corpus
    from repro.serve.workers import run_pipeline
    from repro.vetting.report import vet_app

    pack = load_pack(PACK)
    defects = []
    costs = []
    scenarios = scenario_corpus(pack, count=SERVE_SCENARIOS, base_seed=base_seed)
    for index, scenario in enumerate(scenarios):
        begin = time.perf_counter()
        run_pipeline(scenario.app, index, "gdroid", True, True, rules=pack)
        costs.append(time.perf_counter() - begin)
        findings = len(vet_app(scenario.app, rules=pack).findings)
        if (findings > 0) != (scenario.kind == "leak"):
            defects.append(
                {
                    "corpus": base_seed,
                    "index": index,
                    "scenario": scenario.name,
                    "kind": scenario.kind,
                    "findings": findings,
                }
            )
    return base_seed, costs, defects


def _serve_profile(costs, jobs: int):
    """Heavy indices, and mean and mean square cost of the jobs sent.

    Queueing delay grows with the mean square service time, so runs
    that send jobs with equal mean and mean square cost see comparable
    latency.
    """
    heavy = [index for index, cost in enumerate(costs) if cost > SERVE_HEAVY_S]
    sent = [cost for index, cost in enumerate(costs) if index not in heavy]
    sent = sent[:jobs]
    return (
        heavy,
        sum(sent) / len(sent),
        sum(cost * cost for cost in sent) / len(sent),
    )


def _windows(costs, count: int):
    """Base seeds of the ``count`` most typical, best-balanced windows.

    A round's wall time is set by its slower worker chunk, so windows
    are ranked by how far that chunk's cost is from the typical one,
    with a small penalty for unequal chunks.
    """
    candidates = []
    for base in range(POOL_BASE, POOL_BASE + len(costs) - WINDOW + 1):
        chunks = [
            sum(costs[base + offset] for offset in range(lane, WINDOW, WORKERS))
            for lane in range(WORKERS)
        ]
        candidates.append((base, max(chunks), min(chunks)))
    typical = statistics.median(high for _, high, _ in candidates)
    ranked = sorted(
        candidates,
        key=lambda item: abs(item[1] - typical) / typical
        + 0.1 * (item[1] - item[2]) / item[1],
    )
    return sorted(base for base, _, _ in ranked[:count])


def _record_serve() -> None:
    candidates = [
        SERVE_BASE + 1000 * number for number in range(SERVE_CANDIDATES)
    ]
    with multiprocessing.get_context("fork").Pool(WORKERS) as pool:
        results = pool.map(_serve_answers, candidates, chunksize=1)
    jobs = round(SERVE_RATE * read_json(ROOT / "BENCHMARK.json")["run_seconds"])
    profiles = {
        base: _serve_profile(costs, jobs + SERVE_WARMUP)
        for base, costs, _ in results
    }
    typical_mean = statistics.median(mean for _, mean, _ in profiles.values())
    typical_square = statistics.median(sq for _, _, sq in profiles.values())
    # Runs with different seeds should send the same mix of job sizes:
    # keep the corpora whose mean and mean square cost are most typical.
    corpora = sorted(
        sorted(
            profiles,
            key=lambda base: abs(profiles[base][1] / typical_mean - 1)
            + abs(profiles[base][2] / typical_square - 1),
        )[:SERVE_CORPORA]
    )
    write_json(
        DATA_DIR / "serve.json",
        {
            "corpora": corpora,
            "count": SERVE_SCENARIOS,
            "heavy_s": SERVE_HEAVY_S,
            "heavy": {str(base): profiles[base][0] for base in corpora},
            "host_seconds": {
                str(base): [round(cost, 3) for cost in costs]
                for base, costs, _ in results
            },
            "defects": [
                defect
                for base, _, found in results
                if base in corpora
                for defect in found
            ],
        },
    )


def _record_sweep_and_revet() -> None:
    seeds = range(POOL_BASE, POOL_BASE + POOL_SIZE)
    with multiprocessing.get_context("fork").Pool(WORKERS) as pool:
        results = pool.map(_sweep_row, seeds, chunksize=1)
    rows = {str(seed): row for seed, row, _ in results}
    costs = {seed: seconds for seed, _, seconds in results}
    bad = [key for key, row in rows.items() if row["type"] != "AppEvaluation"]
    if bad:
        raise SystemExit(f"pool apps rejected by the lint gate: {bad}")
    write_json(
        DATA_DIR / "sweep.json",
        {
            "scale": SCALE,
            "window": WINDOW,
            "windows": _windows(costs, WINDOWS),
            "host_seconds": {str(seed): round(costs[seed], 3) for seed in seeds},
            "rows": rows,
        },
    )

    apps = [
        seed for seed in seeds if rows[str(seed)]["cfg_nodes"] <= REVET_MAX_NODES
    ][:REVET_APPS]
    tasks = [(seed, m) for seed in apps for m in range(REVET_MUTATIONS)]
    with multiprocessing.get_context("fork").Pool(WORKERS) as pool:
        expected = dict(pool.map(_revet_digest, tasks, chunksize=1))
    write_json(
        DATA_DIR / "revet.json",
        {
            "scale": SCALE,
            "apps": apps,
            "mutations": REVET_MUTATIONS,
            "expected": expected,
        },
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "parts", nargs="*", choices=("sweep", "serve"),
        help="what to record (default: all; 'sweep' includes revet-bump)",
    )
    args = parser.parse_args(argv)
    use_program_sources()
    parts = args.parts or ["sweep", "serve"]
    if "sweep" in parts:
        _record_sweep_and_revet()
    if "serve" in parts:
        _record_serve()
    return 0


if __name__ == "__main__":
    sys.exit(main())
