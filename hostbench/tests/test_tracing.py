"""Span accounting: self times, fork-safe flushing, percentiles."""

import multiprocessing
import time

from hostbench.common import percentile
from hostbench.tracing import Recorder, self_time_table, self_times


def _span(span_id, parent, name, start, end, pid=1, tid=1, cpu=0.0):
    return {
        "id": span_id, "parent": parent, "name": name, "start": start,
        "end": end, "cpu": cpu, "pid": pid, "tid": tid, "tag": None,
    }


def test_self_times_subtract_same_lane_children_only():
    spans = [
        _span("a", None, "bench.timed", 0.0, 10.0),
        _span("b", "a", "core.build", 1.0, 5.0),
        _span("c", "b", "core.blockexec", 2.0, 4.0),
        # A worker-process child of "a": runs concurrently, so it must
        # not be subtracted from the main lane's span.
        _span("d", "a", "bench.chunk", 0.5, 9.5, pid=2),
    ]
    selfs = self_times(spans)
    assert selfs == {"a": 6.0, "b": 2.0, "c": 2.0, "d": 9.0}
    table = self_time_table(spans)
    assert table["self_total_s"] == table["root_total_s"] == 19.0


def test_waiting_spans_keep_only_their_cpu_time_in_the_layer():
    spans = [
        _span("a", None, "serve.run", 0.0, 10.0, cpu=1.5),
        _span("b", "a", "serve.journal", 1.0, 2.0, cpu=1.0),
    ]
    table = self_time_table(spans)
    assert table["by_layer"]["serve"] == 1.0 + 0.5
    assert table["by_layer"]["wait"] == 9.0 - 0.5
    assert table["busy_s"] == 1.5


def _child(recorder):
    with recorder.span("bench.chunk"):
        time.sleep(0.01)
    recorder.count("core.blocks", 3)
    recorder.flush()


def test_forked_worker_spans_are_collected_once(tmp_path):
    recorder = Recorder(tmp_path)
    recorder.count("core.blocks", 1)
    with recorder.span("bench.timed"):
        with recorder.span("bench.parallel"):
            process = multiprocessing.get_context("fork").Process(
                target=_child, args=(recorder,)
            )
            process.start()
            process.join(timeout=30)
    assert process.exitcode == 0
    spans, counters = recorder.collect()
    assert sorted(span["name"] for span in spans) == [
        "bench.chunk", "bench.parallel", "bench.timed",
    ]
    chunk = next(span for span in spans if span["name"] == "bench.chunk")
    parallel = next(s for s in spans if s["name"] == "bench.parallel")
    assert chunk["parent"] == parallel["id"]
    assert counters == {"core.blocks": 4}


def test_patch_function_reaches_every_importing_module(tmp_path):
    import repro.cfg.environment as environment
    import repro.core.engine as engine

    original = environment.app_with_environments
    recorder = Recorder(tmp_path)
    recorder.patch_function(environment, "app_with_environments", "cfg.x")
    try:
        assert engine.app_with_environments is not original
        assert environment.app_with_environments is engine.app_with_environments
    finally:
        recorder.uninstall()
    assert engine.app_with_environments is original


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert percentile([3.0], 90) == 3.0
