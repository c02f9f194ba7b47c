"""Spans around the program's layer entry points, wrapped from outside.

The benchmark never edits the program: :class:`Recorder` replaces public
entry points (module functions, methods, classmethods) with wrappers
that record one span per call -- name, start, end, parent, process --
plus counters read off the call's arguments or result.  Wrappers are
installed before any worker process forks, so forked workers inherit
them; a worker writes its spans to a file at the end of each unit of
work (:meth:`Recorder.flush`) and the benchmark merges every file when
the run ends (:meth:`Recorder.collect`).

A span's *self time* is its duration minus the time its child spans in
the same process and thread cover.  Per lane (process, thread) the
self times of all spans sum exactly to the durations of the lane's
root spans, so the per-layer table accounts for every traced second.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Main-process spans that mostly wait: on worker processes, or on
#: the open-loop schedule.  Their self time is split into thread CPU
#: time (kept in their layer) and the rest, reported as ``wait`` and
#: left out of "busy" time (worker lanes' own spans cover that work).
WAIT_SPANS = ("bench.parallel", "bench.timed", "serve.run")


class Recorder:
    """In-memory span and counter store of one process tree."""

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.enabled = True
        self._spans: List[Dict[str, Any]] = []
        self._counters: Dict[int, Dict[str, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        self._ids = itertools.count()
        self._flushes = itertools.count()
        self._local = threading.local()
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- recording -------------------------------------------------------------

    def _stack(self) -> List[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, value: float = 1) -> None:
        if self.enabled:
            self._counters[os.getpid()][name] += value

    @contextlib.contextmanager
    def span(self, name: str, tag: Any = None) -> Iterator[None]:
        """Record one span around the ``with`` body."""
        if not self.enabled:
            yield
            return
        pid = os.getpid()
        span_id = f"{pid}:{next(self._ids)}"
        stack = self._stack()
        parent = stack[-1] if stack else None
        stack.append(span_id)
        cpu_start = time.thread_time()
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            cpu_end = time.thread_time()
            stack.pop()
            self._spans.append(
                {
                    "id": span_id,
                    "parent": parent,
                    "name": name,
                    "start": start,
                    "end": end,
                    "cpu": cpu_end - cpu_start,
                    "pid": pid,
                    "tid": threading.get_ident(),
                    "tag": tag,
                }
            )

    def wrap(
        self,
        name: str,
        func: Callable,
        after: Optional[Callable[["Recorder", Any, tuple, dict], None]] = None,
        tag: Optional[Callable[[tuple, dict], Any]] = None,
    ) -> Callable:
        """``func`` recording a span named ``name`` around every call.

        ``after(recorder, result, args, kwargs)`` runs once the span is
        closed (counters, flushing); ``tag(args, kwargs)`` labels the
        span, e.g. with a job index.
        """

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return func(*args, **kwargs)
            with self.span(name, tag(args, kwargs) if tag else None):
                result = func(*args, **kwargs)
            if after is not None:
                after(self, result, args, kwargs)
            return result

        return wrapper

    # -- installing wrappers ---------------------------------------------------

    def patch_function(
        self, module, attr: str, name: str, after=None, tag=None
    ) -> None:
        """Wrap a module function everywhere ``repro`` imported it by name."""
        original = getattr(module, attr)
        wrapper = self.wrap(name, original, after, tag)
        for loaded in list(sys.modules.values()):
            if (
                loaded is not None
                and getattr(loaded, "__name__", "").startswith("repro")
                and getattr(loaded, attr, None) is original
            ):
                self._patches.append((loaded, attr, original))
                setattr(loaded, attr, wrapper)

    def patch_method(self, cls, attr: str, name: str, after=None) -> None:
        """Wrap a method or classmethod on its defining class."""
        raw = cls.__dict__[attr]
        self._patches.append((cls, attr, raw))
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(self.wrap(name, raw.__func__, after)))
        else:
            setattr(cls, attr, self.wrap(name, raw, after))

    def uninstall(self) -> None:
        """Restore every patched attribute (newest first)."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- moving data between processes -----------------------------------------

    def flush(self) -> None:
        """Write this process's spans and counters to a file; forget them.

        Spans inherited from the parent at fork time belong to the
        parent and are dropped here, never written twice.
        """
        pid = os.getpid()
        own = [span for span in self._spans if span["pid"] == pid]
        self._spans = []
        counters = dict(self._counters.pop(pid, {}))
        self._counters.clear()
        if not own and not counters:
            return
        path = self.out_dir / f"spans-{pid}-{next(self._flushes)}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps({"spans": own, "counters": counters}))
        os.replace(tmp, path)

    def collect(self) -> Tuple[List[Dict[str, Any]], Dict[str, float]]:
        """Every span and counter of the run: this process plus files."""
        spans = list(self._spans)
        counters: Dict[str, float] = defaultdict(float)
        for per_pid in self._counters.values():
            for key, value in per_pid.items():
                counters[key] += value
        for path in sorted(self.out_dir.glob("spans-*.json")):
            payload = json.loads(path.read_text())
            spans.extend(payload["spans"])
            for key, value in payload["counters"].items():
                counters[key] += value
        return spans, dict(counters)

    def reset(self) -> None:
        """Drop everything recorded so far (this process and files)."""
        self._spans = []
        self._counters.clear()
        for path in self.out_dir.glob("spans-*.json"):
            path.unlink()


# -- analysis ------------------------------------------------------------------


def _lane_parent(span: Dict[str, Any], by_id) -> Optional[Dict[str, Any]]:
    """The span's parent when it ran in the same process and thread."""
    parent = by_id.get(span["parent"])
    if parent is not None and (parent["pid"], parent["tid"]) == (
        span["pid"], span["tid"]
    ):
        return parent
    return None


def self_times(
    spans: List[Dict[str, Any]], key: str = "wall"
) -> Dict[str, float]:
    """Self time per span id: its duration minus same-lane children's.

    ``key="cpu"`` gives self thread-CPU time instead of wall time.
    """

    def length(span: Dict[str, Any]) -> float:
        return span["cpu"] if key == "cpu" else span["end"] - span["start"]

    by_id = {span["id"]: span for span in spans}
    covered: Dict[str, float] = defaultdict(float)
    for span in spans:
        parent = _lane_parent(span, by_id)
        if parent is not None:
            covered[parent["id"]] += length(span)
    return {span["id"]: length(span) - covered[span["id"]] for span in spans}


def lane_roots(spans: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Spans with no parent in their own lane (process and thread)."""
    by_id = {span["id"]: span for span in spans}
    return [span for span in spans if _lane_parent(span, by_id) is None]


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def self_time_table(
    spans: List[Dict[str, Any]],
) -> Dict[str, Any]:
    """Self time per span name and per layer, with accounting totals."""
    selfs = self_times(spans)
    cpu = self_times(spans, key="cpu")
    by_name: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"self_s": 0.0, "cpu_s": 0.0, "calls": 0}
    )
    for span in spans:
        entry = by_name[span["name"]]
        entry["self_s"] += selfs[span["id"]]
        entry["cpu_s"] += max(0.0, min(cpu[span["id"]], selfs[span["id"]]))
        entry["calls"] += 1
    by_layer: Dict[str, float] = defaultdict(float)
    for name, entry in by_name.items():
        if name in WAIT_SPANS:
            by_layer[layer_of(name)] += entry["cpu_s"]
            by_layer["wait"] += entry["self_s"] - entry["cpu_s"]
        else:
            by_layer[layer_of(name)] += entry["self_s"]
    roots = lane_roots(spans)
    return {
        "by_name": {name: dict(entry) for name, entry in by_name.items()},
        "by_layer": dict(by_layer),
        "self_total_s": sum(selfs.values()),
        "root_total_s": sum(span["end"] - span["start"] for span in roots),
        "busy_s": sum(
            value for layer, value in by_layer.items() if layer != "wait"
        ),
    }
