"""Shared plumbing: checkout paths, host metadata, statistics, memory."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, Optional, Sequence

#: The benchmark's own directory and the checkout root above it.
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
#: Program sources the benchmark drives (never copied, never modified).
SRC_DIR = ROOT / "src"
#: Recorded expected outputs and input tables.
DATA_DIR = BENCH_DIR / "data"
#: Scratch space for caches, journals and result records (gitignored).
WORK_DIR = ROOT / ".hostbench"

#: Worker processes the load may use (the benchmark targets 2 cores).
WORKERS = 2
#: Rule pack every workload vets under.
PACK = "exfiltration"


def use_program_sources() -> None:
    """Make ``import repro`` resolve to this checkout's ``src`` tree.

    Raises ``SystemExit`` (code 2) when the sources are absent, so the
    benchmark fails loudly in a directory that holds only itself.
    """
    if not (SRC_DIR / "repro" / "__init__.py").is_file():
        print(
            f"hostbench: program sources not found under {SRC_DIR}",
            file=sys.stderr,
        )
        raise SystemExit(2)
    if str(SRC_DIR) not in sys.path:
        sys.path.insert(0, str(SRC_DIR))


def read_json(path: Path) -> Any:
    return json.loads(path.read_text())


def write_json(path: Path, payload: Any) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


# -- host metadata -------------------------------------------------------------


def _git_commit(root: Path) -> Optional[str]:
    """HEAD commit read from ``.git`` directly (None outside a clone)."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
    except OSError:
        return None
    if not ref.startswith("ref:"):
        return ref or None
    name = ref.split(None, 1)[1]
    try:
        return (root / ".git" / name).read_text().strip()
    except OSError:
        pass
    try:
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """sha256 over the program's Python sources (names and bytes).

    Identifies the measured program even where the checkout is not a
    git clone.
    """
    digest = hashlib.sha256()
    for path in sorted(SRC_DIR.rglob("*.py")):
        digest.update(str(path.relative_to(SRC_DIR)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def host_block(seed: int) -> Dict[str, Any]:
    """Where and on what a number was measured."""
    from repro.bench.parallel import worker_context

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "start_method": worker_context().get_start_method(),
        "git_commit": _git_commit(ROOT),
        "source_sha256": source_digest(),
        "seed": seed,
    }


# -- statistics ----------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


# -- canonical forms for output comparison -------------------------------------


def canon(value: Any) -> Any:
    """JSON-ready canonical form: sets sorted, dataclasses as dicts.

    Set iteration order depends on the interpreter's hash seed, so
    reports are compared (and recorded) through this form only.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            field.name: canon(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return {str(key): canon(item) for key, item in sorted(
            value.items(), key=lambda pair: str(pair[0])
        )}
    if isinstance(value, (set, frozenset)):
        return sorted(
            (canon(item) for item in value),
            key=lambda item: json.dumps(item, sort_keys=True),
        )
    if isinstance(value, (list, tuple)):
        return [canon(item) for item in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return str(value)


def version_bump(old, mutation: int):
    """Version N+1 of ``old``: mutation ``m`` edits ``1 + m % 3`` methods."""
    from repro.apk.generator import mutate_app

    new, _ = mutate_app(old, seed=mutation, count=1 + mutation % 3)
    return new


def digest(value: Any) -> str:
    """Short sha256 of a canonical form."""
    text = json.dumps(canon(value), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:24]


def report_outcome(report) -> Dict[str, Any]:
    """The parts of a ``VettingReport`` an incremental re-vet must match."""
    return {
        "flows": canon(report.flows),
        "icc_flows": canon(report.icc_flows),
        "linked_flows": canon(report.linked_flows),
        "risk_score": report.risk_score,
        "verdict": report.verdict,
        "findings": canon(report.findings),
    }
