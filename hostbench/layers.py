"""Which program entry points belong to which layer.

Span names are ``<layer>.<entry>``; the layer part names the module
family of :mod:`repro` the entry point lives in.  :func:`install_full`
wraps every layer for the traced run; untraced runs wrap nothing.
"""

from __future__ import annotations

from hostbench.tracing import Recorder


def _flush(recorder: Recorder, result, args, kwargs) -> None:
    recorder.flush()


def _count_profile(recorder: Recorder, workload, args, kwargs) -> None:
    recorder.count("core.visits_sync", workload.profile.visits_sync)
    recorder.count("core.visits_mer", workload.profile.visits_mer)


def _count_launches(recorder: Recorder, result, args, kwargs) -> None:
    recorder.count("price.launches", len(result.kernels))


def _count_report(recorder: Recorder, report, args, kwargs) -> None:
    recorder.count("vetting.flows", len(report.flows))
    recorder.count("vetting.findings", len(report.findings))


def _count_store_load(recorder: Recorder, entry, args, kwargs) -> None:
    recorder.count(
        "dataflow.store_hits" if entry is not None else "dataflow.store_misses"
    )


def _count_reuse(recorder: Recorder, result, args, kwargs) -> None:
    _, stats = result
    recorder.count("dataflow.methods_reused", stats.methods_reused)
    recorder.count("dataflow.methods_total", stats.methods_total)


def _job_index(args, kwargs):
    return args[1] if len(args) > 1 else kwargs.get("index")


def install_full(recorder: Recorder) -> None:
    """Every layer's timed entry points (the traced run)."""
    import repro.apk.generator as generator
    import repro.apk.loader as loader
    import repro.bench.cache as cache
    import repro.bench.harness as harness
    import repro.bench.parallel as parallel
    import repro.cfg.callgraph as callgraph
    import repro.cfg.environment as environment
    import repro.core.blockexec as blockexec
    import repro.core.engine as engine
    import repro.cpu.amandroid as amandroid
    import repro.cpu.multicore as multicore
    import repro.dataflow.fingerprint as fingerprint
    import repro.dataflow.incremental as incremental
    import repro.dataflow.worklist as worklist
    import repro.lint.runner as lint_runner
    import repro.serve.journal as journal
    import repro.serve.pool as pool
    import repro.serve.service as service
    import repro.serve.workers as workers
    import repro.vetting.report as report

    patch = recorder.patch_function
    method = recorder.patch_method

    patch(harness, "evaluate_or_lint_row", "bench.app")
    # The sweep worker body: its span is the worker lane's root, and the
    # worker ships its spans home when the chunk ends.
    patch(parallel, "_evaluate_chunk", "bench.chunk", after=_flush)
    patch(parallel, "evaluate_parallel", "bench.parallel")

    method(generator.AppGenerator, "generate", "apk.generate")
    patch(generator, "mutate_app", "apk.mutate")
    patch(loader, "load_gdx", "apk.load")

    patch(lint_runner, "check_app", "lint.check")

    patch(environment, "app_with_environments", "cfg.environments")
    method(callgraph.CallGraph, "__init__", "cfg.callgraph")
    method(callgraph.SBDALayering, "__init__", "cfg.layering")

    method(engine.AppWorkload, "build", "core.build", after=_count_profile)
    method(blockexec.BlockRunner, "run", "core.blockexec")

    method(engine.GDroid, "price", "price.gdroid", after=_count_launches)
    method(multicore.MulticoreWorklist, "analyze", "price.cpu_multicore")
    method(amandroid.AmandroidModel, "analyze", "price.amandroid")
    patch(harness, "evaluate_app", "bench.evaluate_app")

    patch(report, "vet_workload", "vetting.vet", after=_count_report)

    method(
        incremental.MethodSummaryStore, "load", "dataflow.store_load",
        after=_count_store_load,
    )
    method(incremental.MethodSummaryStore, "store", "dataflow.store_write")
    patch(fingerprint, "method_fingerprint", "dataflow.fingerprint")
    patch(fingerprint, "summary_fingerprint", "dataflow.fingerprint")
    method(worklist.SequentialWorklist, "run", "dataflow.worklist")
    patch(incremental, "analyze_app_incremental", "dataflow.incremental")
    patch(
        incremental, "vet_incremental", "dataflow.vet_incremental",
        after=_count_reuse,
    )

    method(cache.EvaluationCache, "store", "bench.cache_store")

    method(service.VettingService, "run", "serve.run")
    method(journal.JobJournal, "record", "serve.journal")
    patch(pool, "_attempt", "serve.attempt")
    patch(workers, "run_pipeline", "serve.pipeline", tag=_job_index)
    # Every pool attempt ends with its result record being published;
    # the worker ships its spans home right after.
    method(
        journal.PartitionResultStore, "write", "serve.partition_write",
        after=_flush,
    )
