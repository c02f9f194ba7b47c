"""Block-runner tests: dynamics correctness and trace invariants.

The load-bearing property: every dynamics variant (synchronous, MER)
lands on the same least fixed point as the sequential oracle.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cfg.callgraph import CallGraph, SBDALayering
from repro.cfg.environment import app_with_environments
from repro.core.blockexec import BlockRunner, DynamicsDivergenceError, WARP_SIZE
from repro.core.blocks import BlockAssignment, partition_layers
from repro.core.config import TuningParameters
from repro.core.engine import AppWorkload
from repro.dataflow.worklist import analyze_app_reference
from tests.conftest import tiny_app


def run_blocks(app, record_mer=True):
    """Mimic the engine's layer-by-layer block execution."""
    analyzed = app_with_environments(app) if app.components else app
    layering = SBDALayering(CallGraph(analyzed))
    partition = partition_layers(analyzed, layering, TuningParameters())
    summaries = {}
    results = []
    for layer_blocks in partition:
        layer_results = [
            BlockRunner(analyzed, a, summaries, record_mer=record_mer).run()
            for a in layer_blocks
        ]
        for result in layer_results:
            summaries.update(result.summaries)
        results.extend(layer_results)
    return results


class TestFixedPointAgreement:
    @pytest.mark.parametrize("seed", [0, 3, 9])
    def test_matches_sequential_oracle(self, seed):
        app = tiny_app(seed)
        workload = AppWorkload.build(app)
        reference = analyze_app_reference(app)
        assert workload.idfg.equivalent_to(reference), workload.idfg.diff(
            reference
        )

    def test_mer_equals_sync_is_asserted_internally(self, demo_app):
        # BlockRunner checks mer_facts == sync facts; reaching here
        # without DynamicsDivergenceError is the test.
        results = run_blocks(demo_app, record_mer=True)
        assert all(r.trace_mer is not None for r in results)

    def test_diverging_mer_run_raises_named_error(self, demo_app):
        """The agreement check is a real error, not an ``assert`` that
        ``python -O`` strips."""

        class DivergingRunner(BlockRunner):
            def _run_dynamics(self, dispatch, merging, trace):
                facts = super()._run_dynamics(dispatch, merging, trace)
                if merging:
                    facts = list(facts)
                    facts[0] ^= 1
                return facts

        analyzed = app_with_environments(demo_app)
        assignment = partition_layers(
            analyzed, SBDALayering(CallGraph(analyzed)), TuningParameters()
        )[0][0]
        with pytest.raises(DynamicsDivergenceError, match="diverged"):
            DivergingRunner(analyzed, assignment, {}).run()


class TestTraceInvariants:
    def test_visits_bounded_by_worklist(self, demo_app):
        for result in run_blocks(demo_app):
            for trace in (result.trace_sync, result.trace_mer):
                for iteration in trace.iterations:
                    assert len(iteration.visits) <= iteration.worklist_size

    def test_mer_processes_at_most_one_warp(self, demo_app):
        for result in run_blocks(demo_app):
            for iteration in result.trace_mer.iterations:
                assert len(iteration.visits) <= WARP_SIZE

    def test_sync_processes_whole_worklist(self, demo_app):
        for result in run_blocks(demo_app):
            for iteration in result.trace_sync.iterations:
                assert len(iteration.visits) == iteration.worklist_size

    def test_first_visit_flags(self, demo_app):
        for result in run_blocks(demo_app):
            seen = set()
            for iteration in result.trace_sync.iterations:
                for visit in iteration.visits:
                    if visit.first_visit:
                        assert visit.node not in seen
                    seen.add(visit.node)

    def test_growth_entries_reference_real_nodes(self, demo_app):
        for result in run_blocks(demo_app):
            count = result.trace_sync.node_count
            for iteration in result.trace_sync.iterations:
                for node, size in iteration.growth:
                    assert 0 <= node < count
                    assert size > 0

    def test_node_meta_consistency(self, demo_app):
        for result in run_blocks(demo_app):
            meta = result.trace_sync.node_meta
            grouped = sorted(m.grouped_position for m in meta)
            assert grouped == list(range(len(meta)))
            for m in meta:
                assert all(0 <= s < len(meta) for s in m.successors)
                assert 0 <= m.group <= 2
                assert 0 <= m.branch_class < 25

    def test_mer_dedup(self, demo_app):
        """MER worklists contain no duplicate entries (Fig. 7)."""
        for result in run_blocks(demo_app):
            for iteration in result.trace_mer.iterations:
                nodes = [v.node for v in iteration.visits]
                assert len(nodes) == len(set(nodes))


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(min_value=100, max_value=400))
def test_dynamics_agree_on_random_apps(seed):
    """Property: parallel dynamics == sequential oracle on random apps."""
    app = tiny_app(seed)
    workload = AppWorkload.build(app)
    reference = analyze_app_reference(app)
    assert workload.idfg.equivalent_to(reference)
