"""Each workload's output check fails the run when an answer is wrong.

The program is left alone; the tests corrupt the *expected* side (a
recorded row, a ground-truth label, a recorded cold re-vet) and assert
that the benchmark exits non-zero without claiming a correct result.
"""

import json
import shutil
import subprocess
import sys

import pytest

from hostbench import run, workloads
from hostbench.common import BENCH_DIR, ROOT


def _last_json(text):
    return json.loads(text.strip().splitlines()[-1])


def test_corrupted_expected_row_fails_sweep_cold(
    monkeypatch, capsys, saved_environ
):
    original = workloads.SweepCold.__init__

    def corrupted(self, *args, **kwargs):
        original(self, *args, **kwargs)
        windows = self.data["windows"]
        first = str(windows[self.seed % len(windows)])
        self.data["rows"][first]["full_s"] *= 1.001

    monkeypatch.setattr(workloads.SweepCold, "__init__", corrupted)
    code = run.main(
        ["--workload", "sweep-cold", "--seed", "0", "--seconds", "0.01"]
    )
    out = capsys.readouterr().out
    assert code == 1
    assert "CHECK FAILED" in out and "row differs" in out
    assert _last_json(out)["correct"] is False


def test_flipped_verdict_label_fails_serve_open(
    monkeypatch, capsys, saved_environ
):
    original = workloads.ServeOpen.setup

    def relabelled(self, rep):
        state = original(self, rep)
        job = state["jobs"][workloads.SERVE_WARMUP]
        index, kind = state["kinds"][job.job_id]
        state["kinds"][job.job_id] = (
            index, "clean" if kind == "leak" else "leak"
        )
        return state

    monkeypatch.setattr(workloads.ServeOpen, "setup", relabelled)
    code = run.main(
        ["--workload", "serve-open", "--seed", "0", "--seconds", "1"]
    )
    out = capsys.readouterr().out
    assert code == 1
    assert "CHECK FAILED" in out and "findings" in out
    assert _last_json(out)["correct"] is False


def test_true_verdict_labels_pass_serve_open(capsys, saved_environ):
    code = run.main(
        ["--workload", "serve-open", "--seed", "0", "--seconds", "1"]
    )
    out = capsys.readouterr().out
    assert code == 0, out
    result = _last_json(out)
    assert result["correct"] is True
    assert result["attempted"] == round(workloads.SERVE_RATE * 1)
    assert '"host"' in out.strip().splitlines()[-2]


def test_corrupted_cold_revet_fails_revet_bump(
    monkeypatch, capsys, saved_environ
):
    original = workloads.RevetBump.__init__

    def corrupted(self, *args, **kwargs):
        original(self, *args, **kwargs)
        self.data["expected"] = {
            key: "0" * len(value)
            for key, value in self.data["expected"].items()
        }

    monkeypatch.setattr(workloads.RevetBump, "__init__", corrupted)
    code = run.main(
        ["--workload", "revet-bump", "--seed", "0", "--seconds", "0.01"]
    )
    out = capsys.readouterr().out
    assert code == 1
    assert "differs from the recorded cold vet" in out
    assert _last_json(out)["correct"] is False


def test_without_program_sources_the_benchmark_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        BENCH_DIR, tmp_path / BENCH_DIR.name,
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload",
         "sweep-cold", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


@pytest.mark.parametrize("section", ["end_to_end", "per_layer"])
def test_benchmark_json_matches_the_metrics_emitted(section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {entry["name"]: entry["unit"] for entry in spec[section]}
    if section == "per_layer":
        assert [
            (entry["name"], entry["unit"], entry["better"])
            for entry in spec[section]
        ] == [
            (name, unit, better)
            for name, (unit, better) in workloads.LAYER_METRICS.items()
        ]
    else:
        leg = workloads.Leg(ops=2, wall_s=1.0, latencies=[0.1, 0.2])
        emitted = workloads._e2e(leg, 0.5, 1.0, 100.0)
        assert declared == {
            name: unit for name, (_, unit, _) in emitted.items()
        }


def test_benchmark_json_states_the_serve_rate_and_limit():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    why = next(w["why"] for w in spec["workloads"] if w["name"] == "serve-open")
    assert f"{workloads.SERVE_RATE:g} jobs/s" in why
    assert f"limit {workloads.SERVE_LIMIT_S:g} s" in why
