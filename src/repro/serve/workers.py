"""Pipeline execution and the engine degradation ladder.

:func:`run_pipeline` is one pass of the vetting pipeline for one app
(loader output -> lint gate -> GDroid kernel -> vetting report); every
serve attempt calls it through :func:`repro.serve.pool._attempt`.

A device lane sits on a rung of the **engine ladder**:

    gdroid  ->  plain-gpu  ->  multicore-cpu

A healthy device serves with the full GDroid kernel; every OOM marks
the device unhealthy and drops it one rung, trading modeled latency
for survival (the paper's plain kernel, then the 10-core CPU model).
A crash-restart resets the ladder -- a fresh device is presumed
healthy.

The *functional* result is engine-independent: every attempt runs the
same :func:`repro.bench.harness.evaluate_app` matrix, so a row served
by a degraded lane is bit-identical to one served at full health.
The rung only selects which modeled platform time is reported as the
job's serving latency, exactly like re-pointing a request at a slower
replica.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import Callable, Optional, TYPE_CHECKING

from repro.apk.dex import pack_app, unpack_app
from repro.core.engine import AppWorkload

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ir.app import AndroidApp

#: Degradation ladder, healthiest first.
ENGINE_GDROID = "gdroid"
ENGINE_PLAIN = "plain-gpu"
ENGINE_CPU = "multicore-cpu"
ENGINE_LADDER = (ENGINE_GDROID, ENGINE_PLAIN, ENGINE_CPU)


def engine_latency_s(row, engine: str) -> Optional[float]:
    """Modeled single-app serving latency of ``row`` on ``engine``."""
    from repro.bench.harness import AppEvaluation

    if not isinstance(row, AppEvaluation):
        return None
    return {
        ENGINE_GDROID: row.full_s,
        ENGINE_PLAIN: row.plain_s,
        ENGINE_CPU: row.cpu_s,
    }[engine]


@functools.lru_cache(maxsize=8)
def resolve_pack(name: str):
    """Load (and memoise) a rule pack by name/path for job processing.

    Jobs carry pack *names* so their records stay JSON; every lane in
    the process shares this cache, so a soak resolves each pack once.
    """
    from repro.rules.pack import load_pack

    return load_pack(name)


@dataclass
class PipelineResult:
    """What one successful pipeline pass produces."""

    row: object
    verdict: Optional[str] = None
    risk_score: Optional[int] = None
    latency_s: Optional[float] = None
    #: Total rule-pack findings (None unless the pass ran with rules).
    findings: Optional[int] = None
    #: Summary-store reuse counters (None unless the job carried a
    #: baseline ref): hits, misses, methods_reused, methods_recomputed,
    #: modeled_speedup -- plain JSON so pool workers can ship it.
    incremental: Optional[dict] = None


def run_pipeline(
    app: "AndroidApp",
    index: int,
    engine: str,
    strict: bool,
    vet: bool,
    targets=None,
    rules=None,
    resolve_icc: bool = True,
    baseline_app: Optional["AndroidApp"] = None,
) -> PipelineResult:
    """loader -> lint gate -> GDroid kernel -> vetting report, once.

    Mirrors :func:`repro.bench.harness.evaluate_or_lint_row` exactly so
    service rows are bit-identical to a direct ``evaluate_corpus``
    sweep: the workload is built with default tuning, and under
    ``strict`` a lint rejection becomes a structured row instead of an
    exception.

    With ``targets`` (a :class:`repro.vetting.targeted.TargetSpec`) the
    job goes down the demand-driven path: pre-scan for the targeted
    sinks, analyze only the backward slice, and report only flows into
    those sinks.  An app calling none of the targets is served clean
    from the pre-scan alone (``TargetedSkipRow``, no IDFG).

    With ``rules`` (a :class:`repro.rules.pack.RulePack`) the vetting
    pass runs under the pack: sanitizer-aware taint, graded findings on
    the row (per-severity counts) and in the result (total).

    With ``baseline_app`` (the previously-vetted version of the same
    app, or the app itself to model resubmission) the job takes the
    incremental path: the baseline seeds the method-summary store, the
    new version reuses every untouched SCC, and the result carries an
    :class:`repro.bench.harness.IncrementalVetRow` plus the reuse
    counters the service surfaces as ``serve.incremental.*``.
    ``targets`` is not combinable with a baseline (the CLI rejects the
    pair); the baseline path wins if both are passed.
    """
    from repro.bench.harness import _lint_error_row, evaluate_app

    if baseline_app is not None:
        return _run_incremental_pipeline(
            app, index, baseline_app, vet, rules, resolve_icc
        )
    if targets is not None:
        return _run_targeted_pipeline(
            app, index, engine, strict, vet, targets, rules
        )
    from repro.vetting.report import vet_workload

    if strict:
        from repro.lint import LintError

        try:
            workload = AppWorkload.build(app, lint_gate=True)
        except LintError as error:
            return PipelineResult(row=_lint_error_row(app, index, error))
    else:
        workload = AppWorkload.build(app)
    row = evaluate_app(app, workload)
    return _vetted(
        row,
        engine_latency_s(row, engine),
        vet,
        rules,
        lambda analysis_time_s: vet_workload(
            app,
            workload,
            analysis_time_s=analysis_time_s,
            rules=rules,
            resolve_icc=resolve_icc,
        ),
    )


def _vetted(
    row, latency: Optional[float], vet: bool, rules, report: Callable
) -> PipelineResult:
    """Serve an evaluated ``row``, vetted by ``report(time_s)`` if asked.

    Under a rule pack the served row carries the per-severity finding
    counts: the same row ``evaluate_corpus(rules=pack)`` computes (same
    workload, same pack, one vet).
    """
    from repro.bench.harness import finding_severity_counts

    verdict = risk = findings = None
    if vet or rules is not None:
        vetting = report(latency or 0.0)
        if vet:
            verdict, risk = vetting.verdict, vetting.risk_score
        if rules is not None:
            row = replace(
                row,
                finding_counts=finding_severity_counts(vetting.findings),
            )
            findings = len(vetting.findings)
    return PipelineResult(
        row=row, verdict=verdict, risk_score=risk, latency_s=latency,
        findings=findings,
    )


def _run_incremental_pipeline(
    app: "AndroidApp",
    index: int,
    baseline_app: "AndroidApp",
    vet: bool,
    rules=None,
    resolve_icc: bool = True,
) -> PipelineResult:
    """The baseline-seeded incremental variant of :func:`run_pipeline`.

    The summary store lives at the default two-level cache root
    (``REPRO_CACHE_DIR``), so pool worker processes share reuse through
    the filesystem exactly like the row cache.
    """
    from repro.bench.harness import IncrementalVetRow
    from repro.dataflow.incremental import (
        MethodSummaryStore,
        vet_incremental,
    )

    store = MethodSummaryStore()
    report, inc = vet_incremental(
        app, baseline_app, store, rules=rules, resolve_icc=resolve_icc
    )
    row = IncrementalVetRow(
        package=app.package,
        category=app.category,
        index=index,
        methods_total=inc.methods_total,
        methods_reused=inc.methods_reused,
        methods_recomputed=inc.methods_recomputed,
        visits_cold=inc.visits_cold,
        visits_incremental=inc.visits_incremental,
        modeled_speedup=inc.modeled_speedup,
        verdict=report.verdict,
        risk_score=report.risk_score,
        flow_count=len(report.flows),
        finding_count=len(report.findings),
    )
    return PipelineResult(
        row=row,
        verdict=report.verdict if vet else None,
        risk_score=report.risk_score if vet else None,
        latency_s=None,
        findings=len(report.findings) if rules is not None else None,
        incremental={
            "hits": inc.scc_hits,
            "misses": inc.scc_misses,
            "methods_reused": inc.methods_reused,
            "methods_recomputed": inc.methods_recomputed,
            "modeled_speedup": inc.modeled_speedup,
        },
    )


def _run_targeted_pipeline(
    app: "AndroidApp",
    index: int,
    engine: str,
    strict: bool,
    vet: bool,
    targets,
    rules=None,
) -> PipelineResult:
    """The demand-driven variant of :func:`run_pipeline`."""
    from repro.bench.harness import (
        TargetedSkipRow,
        _lint_error_row,
        evaluate_app,
    )
    from repro.lint import LintError
    from repro.vetting.targeted import (
        build_targeted_workload,
        vet_targeted_report,
    )

    try:
        targeted = build_targeted_workload(
            app, targets, lint_gate=True if strict else None
        )
    except LintError as error:
        return PipelineResult(row=_lint_error_row(app, index, error))
    if targeted.workload is None:
        verdict = risk = findings = None
        if vet or rules is not None:
            report = vet_targeted_report(targeted, rules=rules)
            if vet:
                verdict, risk = report.verdict, report.risk_score
            if rules is not None:
                findings = len(report.findings)
        return PipelineResult(
            row=TargetedSkipRow(
                package=app.package,
                category=app.category,
                index=index,
                targets=targets.sinks,
            ),
            verdict=verdict,
            risk_score=risk,
            latency_s=0.0,
            findings=findings,
        )
    row = evaluate_app(targeted.sliced_app, targeted.workload)
    return _vetted(
        row,
        engine_latency_s(row, engine),
        vet,
        rules,
        lambda analysis_time_s: vet_targeted_report(
            targeted, analysis_time_s=analysis_time_s, rules=rules
        ),
    )


def corrupt_roundtrip(app: "AndroidApp") -> None:
    """Model a corrupt APK: container round-trip with flipped magic.

    Raises the loader's structured :class:`repro.apk.dex.GdxFormatError`,
    the same failure a damaged ``.gdx`` file produces on disk.
    """
    blob = bytearray(pack_app(app))
    blob[0] ^= 0xFF
    unpack_app(bytes(blob))
