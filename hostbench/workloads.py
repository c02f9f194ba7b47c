"""The three workloads: inputs from the seed, a timed phase, output checks.

Each workload class offers the same four steps, which ``run.py`` drives:

``setup(rep)``
    Everything before the timed phase (input generation, store
    seeding, empty cache directories).  Run several times per
    benchmark run; ``setup_s`` is the median.
``run(state, seconds=..., ops=...)``
    The timed phase.  Runs until ``seconds`` have passed, or exactly
    ``ops`` operations (the traced leg repeats the untraced leg's work).
``check(state, leg)``
    Output checks against answers the program did not compute in this
    run: recorded rows, ground-truth labels, recorded cold re-vets.
``metrics(leg)`` / ``layer_metrics(leg, spans, counters)``
    End-to-end and per-layer numbers.
"""

from __future__ import annotations

import asyncio
import itertools
import os
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

from hostbench.common import (
    DATA_DIR,
    PACK,
    WORKERS,
    canon,
    digest,
    median,
    percentile,
    read_json,
    report_outcome,
    version_bump,
)

#: ``serve-open`` offered load (jobs/s): well below the ~15 jobs/s the
#: 2-worker pool saturates at on a 2-vCPU VM.  At 8 jobs/s the
#: host's own speed swings moved p50/p90 latency by 25-60% run to run;
#: at 5 jobs/s queueing still shows, without amplifying them as much.
SERVE_RATE = 5.0
#: A ``serve-open`` job meets its latency limit within this many
#: seconds of its due time (goodput counts only those).
SERVE_LIMIT_S = 1.0
#: Jobs sent (and awaited) before the schedule starts: they warm the
#: worker processes and are not measured.
SERVE_WARMUP = 2
#: The run is invalid, not slow, when the feed itself ran this late
#: at its 90th percentile.
SERVE_MAX_LAG_S = 0.25
#: Per-app limits of the closed workloads (service time of one app).
SWEEP_LIMIT_S = 30.0
REVET_LIMIT_S = 10.0


#: Every per-layer metric of a traced run: (unit, which way is better).
#: A workload where an entry point never runs reports 0 for it.
LAYER_METRICS = {
    "apk.generate_s": ("s", "lower"),
    "apk.load_s": ("s", "lower"),
    "apk.loads": ("count", "lower"),
    "lint.check_s": ("s", "lower"),
    "lint.checks": ("count", "lower"),
    "cfg.build_s": ("s", "lower"),
    "core.build_s": ("s", "lower"),
    "core.blockexec_s": ("s", "lower"),
    "core.blocks": ("count", "lower"),
    "core.visits_sync": ("count", "lower"),
    "core.visits_mer": ("count", "lower"),
    "price.gdroid_s": ("s", "lower"),
    "price.cpu_models_s": ("s", "lower"),
    "price.calls": ("count", "lower"),
    "price.launches": ("count", "lower"),
    "vetting.vet_s": ("s", "lower"),
    "vetting.flows": ("count", "higher"),
    "vetting.findings": ("count", "higher"),
    "dataflow.store_load_s": ("s", "lower"),
    "dataflow.store_write_s": ("s", "lower"),
    "dataflow.store_calls": ("count", "lower"),
    "dataflow.store_hit_ratio": ("ratio", "higher"),
    "dataflow.methods_reused_ratio": ("ratio", "higher"),
    "dataflow.fingerprint_s": ("s", "lower"),
    "dataflow.worklist_s": ("s", "lower"),
    "bench.cache_store_s": ("s", "lower"),
    "bench.cache_stores": ("count", "lower"),
    "bench.parallel_imbalance": ("ratio", "lower"),
    "serve.dispatch_wait_s": ("s", "lower"),
    "serve.lane_p50_s": ("s", "lower"),
    "serve.lane_p90_s": ("s", "lower"),
    "serve.pipeline_s": ("s", "lower"),
    "serve.overhead_s": ("s", "lower"),
    "serve.batches_per_job": ("ratio", "lower"),
    "serve.journal_records": ("count", "lower"),
    "serve.retries": ("count", "lower"),
    "loadgen.lag_p90_s": ("s", "lower"),
    "loadgen.backlog_at_end": ("count", "lower"),
    "trace.overhead": ("ratio", "lower"),
    "trace.busy_s": ("s", "lower"),
    "trace.self_sum_error": ("ratio", "lower"),
    "trace.core_price_share": ("ratio", "lower"),
    "trace.dataflow_vetting_share": ("ratio", "lower"),
}


@dataclass
class Leg:
    """What one timed phase produced."""

    ops: int = 0
    failed: int = 0
    wall_s: float = 0.0
    latencies: List[float] = field(default_factory=list)
    #: Operations that were correct (filled in by ``check``).
    correct_ops: Optional[int] = None
    detail: Dict[str, Any] = field(default_factory=dict)


def _fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _goodput(leg: Leg, limit_s: float) -> float:
    """Correct operations within ``limit_s``, per second of timed wall."""
    correct = leg.correct_ops if leg.correct_ops is not None else leg.ops
    within = sum(1 for latency in leg.latencies if latency <= limit_s)
    return min(within, correct) / leg.wall_s


def _e2e(leg: Leg, setup_s: float, limit_s: float, peak_mb: float):
    return {
        "apps_per_s": (leg.ops / leg.wall_s, "1/s", leg.ops),
        "latency_p50_s": (median(leg.latencies), "s", len(leg.latencies)),
        "latency_p90_s": (
            percentile(leg.latencies, 90), "s", len(leg.latencies)
        ),
        "goodput_jobs_per_s": (_goodput(leg, limit_s), "1/s", leg.ops),
        "peak_rss_mb": (peak_mb, "MB", 1),
        "setup_s": (setup_s, "s", None),
    }


def _span_stats(spans, counters) -> Dict[str, Any]:
    """Per-layer numbers every workload reports from a traced leg."""
    from hostbench.tracing import self_time_table

    table = self_time_table(spans)
    by_name = table["by_name"]

    def self_s(*names: str) -> float:
        return sum(by_name.get(name, {}).get("self_s", 0.0) for name in names)

    def calls(*names: str) -> int:
        return sum(by_name.get(name, {}).get("calls", 0) for name in names)

    loads = calls("dataflow.store_load")
    hits = counters.get("dataflow.store_hits", 0)
    total_methods = counters.get("dataflow.methods_total", 0)
    busy = table["busy_s"] or 1.0
    by_layer = table["by_layer"]
    metrics = {
        "apk.generate_s": (self_s("apk.generate"), "s"),
        "apk.load_s": (self_s("apk.load"), "s"),
        "apk.loads": (calls("apk.load"), "count"),
        "lint.check_s": (self_s("lint.check"), "s"),
        "lint.checks": (calls("lint.check"), "count"),
        "cfg.build_s": (
            self_s("cfg.environments", "cfg.callgraph", "cfg.layering"), "s"
        ),
        "core.build_s": (self_s("core.build"), "s"),
        "core.blockexec_s": (self_s("core.blockexec"), "s"),
        "core.blocks": (calls("core.blockexec"), "count"),
        "core.visits_sync": (counters.get("core.visits_sync", 0), "count"),
        "core.visits_mer": (counters.get("core.visits_mer", 0), "count"),
        "price.gdroid_s": (self_s("price.gdroid"), "s"),
        "price.cpu_models_s": (
            self_s("price.cpu_multicore", "price.amandroid"), "s"
        ),
        "price.calls": (calls("price.gdroid"), "count"),
        "price.launches": (counters.get("price.launches", 0), "count"),
        "vetting.vet_s": (self_s("vetting.vet"), "s"),
        "vetting.flows": (counters.get("vetting.flows", 0), "count"),
        "vetting.findings": (counters.get("vetting.findings", 0), "count"),
        "dataflow.store_load_s": (self_s("dataflow.store_load"), "s"),
        "dataflow.store_write_s": (self_s("dataflow.store_write"), "s"),
        "dataflow.store_calls": (
            loads + calls("dataflow.store_write"), "count"
        ),
        "dataflow.store_hit_ratio": (hits / loads if loads else 0.0, "ratio"),
        "dataflow.methods_reused_ratio": (
            counters.get("dataflow.methods_reused", 0) / total_methods
            if total_methods
            else 0.0,
            "ratio",
        ),
        "dataflow.fingerprint_s": (self_s("dataflow.fingerprint"), "s"),
        "dataflow.worklist_s": (self_s("dataflow.worklist"), "s"),
        "bench.cache_store_s": (self_s("bench.cache_store"), "s"),
        "bench.cache_stores": (calls("bench.cache_store"), "count"),
        "trace.busy_s": (table["busy_s"], "s"),
        "trace.self_sum_error": (
            abs(table["self_total_s"] - table["root_total_s"])
            / (table["root_total_s"] or 1.0),
            "ratio",
        ),
        "trace.core_price_share": (
            (by_layer.get("core", 0.0) + by_layer.get("price", 0.0)) / busy,
            "ratio",
        ),
        "trace.dataflow_vetting_share": (
            (by_layer.get("dataflow", 0.0) + by_layer.get("vetting", 0.0))
            / busy,
            "ratio",
        ),
    }
    return {"metrics": metrics, "table": table}


# -- sweep-cold ----------------------------------------------------------------


class SweepCold:
    """Closed batches of full-scale apps under the whole experiment matrix.

    Every round is one ``evaluate_corpus(AppCorpus(size=4, base_seed=b),
    jobs=2, strict=True, rules=exfiltration)`` call into an empty cache
    directory.  The base seeds come from a recorded table of windows of
    the canonical corpus whose two round-robin worker chunks cost about
    the same (see ``record.py``), so runs with different seeds do
    comparable work; the seed picks the starting window and the run
    walks the table from there.  Every row is checked against the row
    recorded for its generator seed.
    """

    name = "sweep-cold"
    limit_s = SWEEP_LIMIT_S

    def __init__(self, seed: int, seconds: float, work: Path) -> None:
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.data = read_json(DATA_DIR / "sweep.json")

    def setup(self, rep: int):
        from repro.apk.corpus import AppCorpus
        from repro.apk.generator import GeneratorProfile
        from repro.bench import harness
        from repro.bench.cache import EvaluationCache
        from repro.rules.pack import load_pack

        root = _fresh_dir(self.work / f"sweep-{rep}")
        os.environ["REPRO_CACHE_DIR"] = str(root / "cache-0")
        EvaluationCache()
        harness._CACHE.clear()
        windows = self.data["windows"]
        start = self.seed % len(windows)
        profile = GeneratorProfile(scale=self.data["scale"])
        corpora = [
            AppCorpus(
                size=self.data["window"],
                base_seed=windows[(start + offset) % len(windows)],
                profile=profile,
            )
            for offset in range(len(windows))
        ]
        return {"root": root, "pack": load_pack(PACK), "corpora": corpora}

    def run(self, state, seconds: float = 0.0, ops: Optional[int] = None):
        from repro.bench import harness

        leg = Leg()
        rounds = []
        corpora = state["corpora"]
        started = time.perf_counter()
        for number in itertools.count():
            if ops is not None and leg.ops >= ops:
                break
            if ops is None and time.perf_counter() - started >= seconds:
                break
            corpus = corpora[number % len(corpora)]
            os.environ["REPRO_CACHE_DIR"] = str(
                state["root"] / f"cache-{number + 1}"
            )
            harness._CACHE.clear()
            begin = time.perf_counter()
            rows = harness.evaluate_corpus(
                corpus, jobs=WORKERS, strict=True, rules=state["pack"]
            )
            wall = time.perf_counter() - begin
            stats = harness.last_run_stats()
            leg.wall_s += wall
            leg.ops += len(rows)
            # A batch's rows all arrive when evaluate_corpus returns.
            leg.latencies += [wall] * len(rows)
            leg.failed += sum(
                1 for row in rows if type(row).__name__ != "AppEvaluation"
            )
            rounds.append(
                {
                    "base_seed": corpus.base_seed,
                    "rows": rows,
                    "wall_s": wall,
                    "hits": stats.process_hits + stats.disk_hits,
                }
            )
        leg.detail["rounds"] = rounds
        return leg

    def check(self, state, leg: Leg) -> List[str]:
        failures = []
        expected = self.data["rows"]
        correct = 0
        for round_ in leg.detail["rounds"]:
            if round_["hits"]:
                failures.append(
                    f"window {round_['base_seed']}: {round_['hits']} cache "
                    "hits in a cold sweep"
                )
            for index, row in enumerate(round_["rows"]):
                key = str(round_["base_seed"] + index)
                actual = {"type": type(row).__name__, **canon(row)}
                if actual != expected.get(key):
                    failures.append(
                        f"app seed {key}: row differs from the recorded row"
                    )
                else:
                    correct += 1
        leg.correct_ops = correct
        return failures

    def metrics(self, leg: Leg, setup_s: float, peak_mb: float):
        return _e2e(leg, setup_s, self.limit_s, peak_mb)

    def layer_metrics(self, leg: Leg, spans, counters):
        stats = _span_stats(spans, counters)
        ratios = []
        for parent in [s for s in spans if s["name"] == "bench.parallel"]:
            chunks = [
                span["end"] - span["start"]
                for span in spans
                if span["name"] == "bench.chunk"
                and span["parent"] == parent["id"]
            ]
            if len(chunks) > 1:
                ratios.append(max(chunks) / (sum(chunks) / len(chunks)))
        stats["metrics"]["bench.parallel_imbalance"] = (
            sum(ratios) / len(ratios) if ratios else 1.0,
            "ratio",
        )
        return stats


# -- serve-open ----------------------------------------------------------------


class ScheduledFeed:
    """Open-loop job feed: one job per ``1/rate`` seconds, on schedule.

    Doubles as the service's app source (jobs carry their ``.gdx``
    path).  Warm-up jobs go first and are awaited; the schedule starts
    after them.  Each job's due time (wall clock, comparable with the
    journal's ``at`` stamps) and how late the feed really sent it are
    recorded.
    """

    def __init__(self, jobs, warmup, rate: float) -> None:
        self.scheduled = list(jobs)
        self.warmup = list(warmup)
        self.rate = rate
        self.due: Dict[str, float] = {}
        self.lag: List[float] = []
        self.schedule_at: Optional[float] = None

    def app_for(self, job):
        from repro.apk.loader import load_gdx

        return load_gdx(job.source)

    async def jobs(self):
        for job in self.warmup:
            yield job
        while not all(job.terminal for job in self.warmup):
            await asyncio.sleep(0.01)
        self.schedule_at = time.perf_counter()
        wall0 = time.time()
        for number, job in enumerate(self.scheduled):
            due = self.schedule_at + number / self.rate
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            self.lag.append(max(0.0, time.perf_counter() - due))
            self.due[job.job_id] = wall0 + number / self.rate
            yield job


class ServeOpen:
    """Open-loop serving of labelled scenario apps on a process pool.

    ``scenario_corpus(exfiltration)`` apps (leak / sanitized / clean,
    in turn) are saved as ``.gdx`` during set-up and sent at
    ``SERVE_RATE`` jobs/s to ``VettingService(pool="process",
    workers=2, strict=True)`` with the journal on.  Each job is timed
    from its due time to its journal ``complete`` record.

    The seed picks one of the scenario corpora in ``data/serve.json``;
    its few scenarios that are not small apps (recorded as ``heavy``)
    are left out.  The check is the scenario labels -- leaks must have findings,
    sanitized and clean apps none -- except for the few scenarios the
    data file lists as known generator defects (their label does not
    hold even for a cold ``vet_app``); those expect the recorded
    answer and are reported on every run that sends them.
    """

    name = "serve-open"
    limit_s = SERVE_LIMIT_S

    def __init__(self, seed: int, seconds: float, work: Path) -> None:
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.data = read_json(DATA_DIR / "serve.json")
        corpora = self.data["corpora"]
        self.base_seed = corpora[seed % len(corpora)]
        self.defects = {
            defect["index"]: defect
            for defect in self.data["defects"]
            if defect["corpus"] == self.base_seed
        }

    def setup(self, rep: int):
        from repro.apk.loader import save_gdx
        from repro.rules.pack import load_pack
        from repro.rules.scenarios import scenario_corpus
        from repro.serve.sharder import classify
        from repro.serve.jobs import VetJob

        count = round(SERVE_RATE * self.seconds) + SERVE_WARMUP
        heavy = set(self.data["heavy"][str(self.base_seed)])
        picked = [
            index for index in range(self.data["count"]) if index not in heavy
        ][:count]
        if len(picked) < count:
            raise ValueError(
                f"serve-open has answers for {len(picked)} jobs; "
                f"{count} asked for"
            )
        root = _fresh_dir(self.work / f"serve-{rep}")
        apps = root / "apps"
        apps.mkdir()
        scenarios = scenario_corpus(
            load_pack(PACK), count=picked[-1] + 1, base_seed=self.base_seed
        )
        jobs = []
        kinds = {}
        for number, index in enumerate(picked):
            scenario = scenarios[index]
            path = apps / f"{number:04d}-{scenario.kind}.gdx"
            size = float(save_gdx(scenario.app, path))
            job = VetJob(
                job_id=f"feed-{number:04d}",
                index=number,
                package=scenario.app.package,
                source=str(path),
                est_cost=size,
                size_class=classify(size / 12.0),
                rules=PACK,
            )
            jobs.append(job)
            kinds[job.job_id] = (index, scenario.kind)
        return {"root": root, "jobs": jobs, "kinds": kinds}

    def expects_findings(self, index: int, kind: str) -> bool:
        """The known answer for scenario ``index`` of this run's corpus."""
        defect = self.defects.get(index)
        if defect is not None:
            return defect["findings"] > 0
        return kind == "leak"

    def run(self, state, seconds: float = 0.0, ops: Optional[int] = None):
        from repro.serve.journal import replay_journal
        from repro.serve.service import ServeConfig, VettingService

        jobs = state["jobs"]
        warmup, scheduled = jobs[:SERVE_WARMUP], jobs[SERVE_WARMUP:]
        if ops is None:
            ops = round(SERVE_RATE * seconds)
        scheduled = scheduled[:ops]
        feed = ScheduledFeed(scheduled, warmup, SERVE_RATE)
        journal = state["root"] / "journal.jsonl"
        config = ServeConfig(
            workers=WORKERS,
            pool="process",
            strict=True,
            journal_path=str(journal),
            state_dir=str(state["root"] / "state"),
        )
        called = time.perf_counter()
        report = VettingService(feed, config=config).run(jobs=(), feed=feed)

        records = replay_journal(journal).records
        assigns: Dict[str, List[float]] = {}
        completes: Dict[str, float] = {}
        for record in records:
            if record["ev"] == "assign":
                assigns.setdefault(record["job"], []).append(record["at"])
            elif record["ev"] == "complete":
                completes.setdefault(record["job"], record["at"])
        leg = Leg()
        first_due = min(feed.due.values())
        last_due = max(feed.due.values())
        done_at = [completes[job.job_id] for job in scheduled
                   if job.job_id in completes]
        leg.wall_s = max(done_at + [last_due]) - first_due
        leg.ops = len(scheduled)
        leg.failed = sum(
            1 for job in scheduled if job.state != "done"
        ) + int(report.counters.get("serve.rejected", 0))
        leg.latencies = [
            completes[job.job_id] - feed.due[job.job_id]
            for job in scheduled
            if job.state == "done" and job.job_id in completes
        ]
        leg.detail = {
            "report": report,
            "scheduled": scheduled,
            "feed": feed,
            "assigns": assigns,
            "completes": completes,
            "journal_records": len(records),
            "service_setup_s": feed.schedule_at - called,
            "backlog_at_end": sum(
                1
                for job in scheduled
                if completes.get(job.job_id, float("inf")) > last_due
            ),
        }
        return leg

    def check(self, state, leg: Leg) -> List[str]:
        failures = []
        report = leg.detail["report"]
        if not report.ok:
            failures.append(
                f"service lost {report.lost} and duplicated "
                f"{report.duplicates} jobs"
            )
        correct = 0
        notes = []
        for job in leg.detail["scheduled"]:
            index, kind = state["kinds"][job.job_id]
            if index in self.defects:
                defect = self.defects[index]
                notes.append(
                    f"known generator defect: {defect['scenario']} is "
                    f"labelled {kind} but a cold vet_app reports "
                    f"{defect['findings']} findings; expecting that"
                )
            if job.state != "done" or job.findings is None:
                failures.append(f"{job.job_id} ({kind}): not served")
                continue
            if (job.findings > 0) != self.expects_findings(index, kind):
                failures.append(
                    f"{job.job_id} ({kind}): {job.findings} findings"
                )
                continue
            correct += 1
        leg.correct_ops = correct
        leg.detail["notes"] = notes
        return failures

    def validity(self, leg: Leg) -> List[str]:
        """Reasons the offered load was not the stated load."""
        lag = percentile(leg.detail["feed"].lag, 90)
        if lag > SERVE_MAX_LAG_S:
            return [
                f"feed ran {lag:.3f}s late at p90 (limit "
                f"{SERVE_MAX_LAG_S}s): offered load below "
                f"{SERVE_RATE} jobs/s"
            ]
        return []

    def metrics(self, leg: Leg, setup_s: float, peak_mb: float):
        # The service starts its worker pool (and the feed awaits the
        # warm-up jobs) inside ``run``, before the schedule: set-up too.
        setup_s += leg.detail["service_setup_s"]
        return _e2e(leg, setup_s, self.limit_s, peak_mb)

    def layer_metrics(self, leg: Leg, spans, counters):
        stats = _span_stats(spans, counters)
        detail = leg.detail
        feed = detail["feed"]
        pipeline: Dict[Any, float] = {}
        for span in spans:
            if span["name"] == "serve.pipeline":
                pipeline[span["tag"]] = pipeline.get(span["tag"], 0.0) + (
                    span["end"] - span["start"]
                )
        waits, lanes, overheads = [], [], []
        for job in detail["scheduled"]:
            complete = detail["completes"].get(job.job_id)
            assigned = detail["assigns"].get(job.job_id)
            if complete is None or not assigned:
                continue
            waits.append(assigned[0] - feed.due[job.job_id])
            lane = complete - assigned[-1]
            lanes.append(lane)
            if job.index in pipeline:
                overheads.append(lane - pipeline[job.index])
        counters_ = detail["report"].counters
        jobs = len(detail["scheduled"])
        pipes = [pipeline[job.index] for job in detail["scheduled"]
                 if job.index in pipeline]
        stats["metrics"].update(
            {
                "serve.dispatch_wait_s": (median(waits), "s"),
                "serve.lane_p50_s": (median(lanes), "s"),
                "serve.lane_p90_s": (percentile(lanes, 90), "s"),
                "serve.pipeline_s": (median(pipes) if pipes else 0.0, "s"),
                "serve.overhead_s": (
                    median(overheads) if overheads else 0.0, "s"
                ),
                "serve.batches_per_job": (
                    counters_.get("serve.batches", 0) / jobs, "ratio"
                ),
                "serve.journal_records": (detail["journal_records"], "count"),
                "serve.retries": (counters_.get("serve.retries", 0), "count"),
                "loadgen.lag_p90_s": (percentile(feed.lag, 90), "s"),
                "loadgen.backlog_at_end": (detail["backlog_at_end"], "count"),
            }
        )
        return stats


# -- revet-bump ----------------------------------------------------------------


class RevetBump:
    """Serial incremental re-vets of version bumps.

    Set-up generates version N of a recorded set of full-scale corpus
    apps and analyzes each into a fresh ``MethodSummaryStore``.  Each
    timed call is ``vet_incremental(new, old, store, rules=pack)`` with
    ``new = mutate_app(old, seed=m, count=1 + m % 3)``.  The seed
    picks where the run starts in the (app, mutation) table; no pair
    repeats within a run.  Every call's outcome is checked against the
    recorded outcome of a cold ``vet_app(new, rules=pack)``, and the
    run's first call also against a cold vet computed after the timed
    phase.
    """

    name = "revet-bump"
    limit_s = REVET_LIMIT_S

    def __init__(self, seed: int, seconds: float, work: Path) -> None:
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.data = read_json(DATA_DIR / "revet.json")

    def pairs(self):
        """(app position, mutation) in this seed's call order."""
        apps = len(self.data["apps"])
        mutations = self.data["mutations"]
        app_offset = self.seed % apps
        mutation_offset = (self.seed // apps) * 7 % mutations
        for number in range(apps * mutations):
            yield (
                (app_offset + number) % apps,
                (mutation_offset + number // apps) % mutations,
            )

    def setup(self, rep: int):
        from repro.apk.generator import AppGenerator, GeneratorProfile
        from repro.dataflow.incremental import (
            MethodSummaryStore,
            analyze_app_incremental,
        )
        from repro.rules.pack import load_pack

        root = _fresh_dir(self.work / f"revet-{rep}")
        generator = AppGenerator(GeneratorProfile(scale=self.data["scale"]))
        store = MethodSummaryStore(root=root / "summaries")
        olds = [generator.generate(seed) for seed in self.data["apps"]]
        for old in olds:
            analyze_app_incremental(old, store)
        return {"olds": olds, "store": store, "pack": load_pack(PACK)}

    def run(self, state, seconds: float = 0.0, ops: Optional[int] = None):
        from repro.dataflow.incremental import vet_incremental

        leg = Leg()
        calls = []
        started = time.perf_counter()
        for position, mutation in self.pairs():
            if ops is not None and leg.ops >= ops:
                break
            if ops is None and time.perf_counter() - started >= seconds:
                break
            old = state["olds"][position]
            new = version_bump(old, mutation)
            begin = time.perf_counter()
            report, _ = vet_incremental(
                new, old, state["store"], rules=state["pack"]
            )
            elapsed = time.perf_counter() - begin
            leg.wall_s += elapsed
            leg.ops += 1
            leg.latencies.append(elapsed)
            calls.append(
                {
                    "app": self.data["apps"][position],
                    "position": position,
                    "mutation": mutation,
                    "outcome": report_outcome(report),
                }
            )
        leg.detail["calls"] = calls
        return leg

    def check(self, state, leg: Leg) -> List[str]:
        from repro.vetting.report import vet_app

        failures = []
        expected = self.data["expected"]
        correct = 0
        for call in leg.detail["calls"]:
            key = f"{call['app']}:{call['mutation']}"
            if digest(call["outcome"]) != expected.get(key):
                failures.append(
                    f"re-vet {key}: outcome differs from the recorded "
                    "cold vet"
                )
            else:
                correct += 1
        if leg.detail["calls"]:
            first = leg.detail["calls"][0]
            old = state["olds"][first["position"]]
            new = version_bump(old, first["mutation"])
            cold = report_outcome(vet_app(new, rules=state["pack"]))
            if cold != first["outcome"]:
                failures.append(
                    f"re-vet {first['app']}:{first['mutation']}: differs "
                    "from a cold vet_app of the same version"
                )
        leg.correct_ops = correct
        return failures

    def metrics(self, leg: Leg, setup_s: float, peak_mb: float):
        return _e2e(leg, setup_s, self.limit_s, peak_mb)

    def layer_metrics(self, leg: Leg, spans, counters):
        return _span_stats(spans, counters)


WORKLOADS = {cls.name: cls for cls in (SweepCold, ServeOpen, RevetBump)}
