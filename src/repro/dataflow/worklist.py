"""The sequential worklist algorithm (paper Alg. 1) -- the reference.

A CPU-style FIFO worklist: one node popped and processed at a time,
facts propagated to successors, updated successors re-enqueued, until
the fixed point.  Every GPU dynamics variant must produce identical
per-node facts.  Facts are int bitsets for the whole run; the seed's
per-element set loop, which must agree with it visit for visit, lives
in ``tests/seed_oracle.py``.

:func:`analyze_app_reference` drives the whole-app pipeline:
environment synthesis, call-graph layering, bottom-up SBDA summary
construction (iterating recursive SCCs to their joint fixed point),
and one per-method fixed-point run, yielding the :class:`IDFG`.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Mapping, Optional

from repro.cfg.callgraph import CallGraph, SBDALayering
from repro.cfg.environment import app_with_environments
from repro.cfg.intra import build_intra_cfg
from repro.dataflow.bitset import freeze_masks, mask_to_frozenset
from repro.dataflow.facts import CalleeFootprint, FactSpace
from repro.dataflow.idfg import IDFG, MethodFacts
from repro.dataflow.summaries import MethodSummary, SummaryBuilder
from repro.dataflow.transfer import MaskTransfer, TransferFunctions
from repro.ir.app import AndroidApp
from repro.ir.method import Method


class SequentialWorklist:
    """Alg. 1 for one method: FIFO worklist to the fixed point."""

    __slots__ = ("cfg", "space", "transfer", "visits")

    def __init__(
        self,
        method: Method,
        summaries: Optional[Mapping[str, MethodSummary]] = None,
        footprints: Optional[Dict[str, CalleeFootprint]] = None,
    ) -> None:
        self.cfg = build_intra_cfg(method)
        if footprints is None and summaries is not None:
            footprints = {
                signature: summary.footprint()
                for signature, summary in summaries.items()
            }
        self.space = FactSpace(method, footprints)
        self.transfer = TransferFunctions(self.space, summaries)
        #: Total node visits / pop-process steps (profiling).
        self.visits = 0

    def run(self) -> MethodFacts:
        """Run to the fixed point and package the results.

        Facts are int bitsets (:class:`MaskTransfer`): one ``|`` applies
        a whole OUT set to a successor.  A successor is (re)queued
        exactly when ``out & ~succ`` is non-zero, or when it was never
        visited, so visit counts and the fixed point match the seed's
        per-element set loop (kept as the test oracle in
        ``tests/seed_oracle.py``) bit for bit.
        """
        method = self.cfg.method
        if not method.statements:
            return MethodFacts(space=self.space, node_facts=(), exit_facts=frozenset())
        masked = MaskTransfer(self.transfer)
        facts = [0] * len(method.statements)
        facts[0] = masked.entry_mask()
        worklist = deque([0])
        queued = {0}
        visited = [False] * len(facts)
        while worklist:
            node = worklist.popleft()
            queued.discard(node)
            visited[node] = True
            self.visits += 1
            out = masked.out_mask(node, facts[node])
            for successor in self.cfg.successors[node]:
                added = out & ~facts[successor]
                if added:
                    facts[successor] |= added
                # Alg. 1 "keeps iterating until all nodes are visited
                # and all data-fact sets reach the fixed point": a
                # successor is (re)queued when its facts grew, and
                # every reachable node is processed at least once so
                # its own GEN fires even under an empty IN.
                if (added or not visited[successor]) and successor not in queued:
                    worklist.append(successor)
                    queued.add(successor)

        exit_mask = 0
        for exit_node in self.cfg.exits:
            exit_mask |= masked.out_mask(exit_node, facts[exit_node])
        return MethodFacts(
            space=self.space,
            node_facts=freeze_masks(facts),
            exit_facts=mask_to_frozenset(exit_mask),
        )


def compute_summaries(
    app: AndroidApp, layering: SBDALayering
) -> Dict[str, MethodSummary]:
    """Bottom-up SBDA summary construction.

    Non-recursive methods are analyzed once with their callees'
    finished summaries.  Recursive SCCs start from empty (identity)
    summaries and iterate the whole cycle until the summaries stop
    changing -- summaries grow monotonically over a finite source
    domain, so this terminates.
    """
    summaries: Dict[str, MethodSummary] = {}
    for scc in layering.bottom_up():
        if len(scc) == 1 and not _is_self_recursive(app, scc[0]):
            signature = scc[0]
            result = SequentialWorklist(
                app.method_table[signature], summaries
            ).run()
            summaries[signature] = SummaryBuilder(result.space).build(
                result.exit_facts
            )
            continue
        # Recursive SCC: joint fixed point.
        for signature in scc:
            summaries[signature] = MethodSummary(signature=signature)
        changed = True
        while changed:
            changed = False
            for signature in scc:
                result = SequentialWorklist(
                    app.method_table[signature], summaries
                ).run()
                updated = SummaryBuilder(result.space).build(result.exit_facts)
                if updated != summaries[signature]:
                    summaries[signature] = updated
                    changed = True
    return summaries


def _is_self_recursive(app: AndroidApp, signature: str) -> bool:
    return signature in app.method_table[signature].callees()


def analyze_app_reference(
    app: AndroidApp, with_environments: bool = True
) -> IDFG:
    """Full reference analysis: environments, summaries, per-method runs."""
    if with_environments and app.components:
        app = app_with_environments(app)
    layering = SBDALayering(CallGraph(app))
    summaries = compute_summaries(app, layering)

    method_facts: Dict[str, MethodFacts] = {}
    for method in app.methods:
        result = SequentialWorklist(method, summaries).run()
        method_facts[str(method.signature)] = result
    return IDFG(method_facts=method_facts, summaries=summaries)
