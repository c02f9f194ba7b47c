"""The host benchmark's traced leg wraps program entry points by name.

``hostbench.layers.install_full`` looks every wrapped function and
method up by its name; a rename in the program would only surface when
the benchmark runs.  This test installs the full layer set, checks
every entry point is wrapped, and restores the program afterwards.
"""

from __future__ import annotations

from hostbench.layers import install_full
from hostbench.tracing import Recorder


def test_every_traced_entry_point_resolves_and_restores(tmp_path):
    import repro.serve.pool as pool
    import repro.serve.workers as workers

    recorder = Recorder(tmp_path)
    try:
        # Raises AttributeError / KeyError on any renamed entry point.
        install_full(recorder)
        patches = list(recorder._patches)
        assert patches
        for owner, attr, original in patches:
            assert vars(owner)[attr] is not original, (owner, attr)
        # The serve spans need the very names the lanes call.
        assert pool.run_pipeline is workers.run_pipeline
        assert hasattr(pool._attempt, "__wrapped__")
        assert hasattr(workers.run_pipeline, "__wrapped__")
    finally:
        recorder.uninstall()
    for owner, attr, original in patches:
        assert vars(owner)[attr] is original, (owner, attr)
