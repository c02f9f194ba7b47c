"""The seed program, kept as the oracle for the host fast paths.

Production has one implementation per job: int-mask block dynamics and
sequential worklist, memoized summary footprints, table-driven trace
pricing and direct 128-byte segment counting.  This module keeps the
seed implementations they replaced, so tests and
``benchmarks/bench_host_perf.py`` can run the seed program and require
bit-identical facts, traces and modeled cycle counts:

* :func:`seed_path` patches the seed implementations into the
  production classes and modules for the duration of a ``with`` block,
  the way a test substitutes a fake.  The patches live in this process
  only: work fanned out to worker processes inside the block runs the
  production path, so seed-path runs stay serial.
* :class:`BooleanMatrixStore` is the seed's byte-per-bit fact matrix,
  checked op by op against the packed store.

This is the only code that knows what the seed program is.
"""

from __future__ import annotations

from collections import deque
from contextlib import ExitStack, contextmanager
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)
from unittest import mock

import numpy as np

from repro.core import costing
from repro.core.blockexec import (
    WARP_SIZE,
    BlockResult,
    BlockRunner,
    DynamicsDivergenceError,
    _MethodState,
)
from repro.core.trace import BlockTrace, IterationRecord, NodeMeta, VisitRecord
from repro.dataflow.facts import CalleeFootprint, FactSpace
from repro.dataflow.idfg import MethodFacts
from repro.dataflow.lattice import SetFactStore
from repro.dataflow.summaries import MethodSummary, SummaryBuilder
from repro.dataflow.worklist import SequentialWorklist
from repro.gpu import memory
from repro.gpu.memory import MemoryModel, _transactions_scalar


# -- fact store ---------------------------------------------------------------


class BooleanMatrixStore:
    """The seed's byte-per-bit boolean fact matrix.

    Same interface and modeled footprint as
    :class:`repro.dataflow.matrix_store.MatrixFactStore`.
    """

    __slots__ = ("node_count", "universe", "_bits")

    def __init__(self, node_count: int, universe: int) -> None:
        self.node_count = node_count
        self.universe = universe
        self._bits = np.zeros((node_count, max(universe, 1)), dtype=bool)

    @classmethod
    def for_space(cls, space: FactSpace) -> "BooleanMatrixStore":
        """Store sized for a method's pre-determined fact space."""
        return cls(len(space.method.statements), space.fact_universe)

    # -- mutation -------------------------------------------------------------

    def insert_all(self, node: int, facts: Iterable[int]) -> bool:
        """Mark facts at ``node``; True when any cell flipped 0 -> 1."""
        row = self._bits[node]
        indices = facts if isinstance(facts, (list, tuple)) else list(facts)
        if not indices:
            return False
        selected = row[indices]
        if selected.all():
            return False
        row[indices] = True
        return True

    def replace(self, node: int, facts: Iterable[int]) -> None:
        """Overwrite ``node``'s facts with exactly ``facts``."""
        row = self._bits[node]
        row[:] = False
        indices = list(facts)
        if indices:
            row[indices] = True

    # -- queries --------------------------------------------------------------

    def get(self, node: int) -> Set[int]:
        """The fact set stored for ``node``."""
        return set(np.flatnonzero(self._bits[node]).tolist())

    def size(self, node: int) -> int:
        """Number of facts stored for ``node``."""
        return int(self._bits[node].sum())

    def contains(self, node: int, fact: int) -> bool:
        """Membership test for one (node, fact) pair."""
        return bool(self._bits[node, fact])

    def snapshot(self) -> Tuple[FrozenSet[int], ...]:
        """Immutable per-node copy of all stored facts."""
        return tuple(
            frozenset(np.flatnonzero(self._bits[node]).tolist())
            for node in range(self.node_count)
        )

    def total_fact_count(self) -> int:
        """Total facts across all nodes."""
        return int(self._bits.sum())

    def memory_bytes(self) -> int:
        """Modeled device footprint at 1 bit per (node, cell)."""
        return (self.universe * self.node_count + 7) // 8

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"BooleanMatrixStore({self.node_count} nodes x "
            f"{self.universe} cells, {self.total_fact_count()} facts)"
        )


# -- block dynamics (``BlockRunner``) -----------------------------------------


def _build_states(
    self: BlockRunner, summaries: Dict[str, MethodSummary]
) -> List[_MethodState]:
    """Method states whose fact spaces see every summary's footprint."""
    states: List[_MethodState] = []
    offset = 0
    for signature in self.assignment.methods:
        footprints = {
            sig: summary.footprint() for sig, summary in summaries.items()
        }
        state = _MethodState(
            self.app,
            signature,
            summaries,
            offset,
            footprints,
            cfg=self._cfgs.get(signature),
        )
        self._cfgs[signature] = state.cfg
        states.append(state)
        offset += len(state.method.statements)
    return states


def _run_dynamics_sets(
    self: BlockRunner,
    states: Sequence[_MethodState],
    merging: bool,
    trace: BlockTrace,
) -> List[Set[int]]:
    """The seed's per-element set dynamics (``BlockRunner``)."""
    node_count = sum(len(s.method.statements) for s in states)
    facts: List[Set[int]] = [set() for _ in range(node_count)]
    visited = [False] * node_count
    scheduled: Set[int] = set()

    state_of: List[_MethodState] = []
    local_of: List[int] = []
    for state in states:
        for local in range(len(state.method.statements)):
            state_of.append(state)
            local_of.append(local)

    worklist: List[int] = []
    for state in states:
        if state.method.statements:
            entry = state.offset
            facts[entry] = set(state.space.entry_facts())
            worklist.append(entry)
            scheduled.add(entry)

    meta = trace.node_meta
    sort_key = (lambda n: meta[n].group) if (merging and self.sort_mer_worklist) else None

    while worklist:
        if sort_key is not None:
            worklist.sort(key=sort_key)
        size = len(worklist)
        # MER (Alg. 3 line 8, "nid < 32"): each iteration processes
        # exactly one full warp; the remainder is the postponed
        # tail that merges with the new destinations.  Without MER
        # the whole worklist is processed.
        head_count = min(size, WARP_SIZE) if merging else size
        head = worklist[:head_count]
        tail = worklist[head_count:]

        visits: List[VisitRecord] = []
        growth: Dict[int, int] = {}
        destinations: List[int] = []
        dest_seen: Set[int] = set(tail) if merging else set()
        #: Facts added to each successor this iteration, and how
        #: many duplicate insertions we have attributed to them.
        iter_new: Dict[int, int] = {}
        iter_inserts: Dict[int, int] = {}
        nondup_inserts = 0
        dup_inserts = 0

        for node in head:
            scheduled.discard(node)
            state = state_of[node]
            local = local_of[node]
            in_set = facts[node]
            out = state.transfer.out_facts(local, in_set)
            new_counts: List[int] = []
            for succ in meta[node].successors:
                succ_facts = facts[succ]
                before = len(succ_facts)
                succ_facts |= out
                added = len(succ_facts) - before
                new_counts.append(added)
                if added:
                    growth[succ] = len(succ_facts)
                # GPU lanes run concurrently: a lane whose atomic
                # union added at least one fact observes
                # update() == true and inserts the successor --
                # even when another lane already inserted it this
                # iteration.  Each new fact is attributed to
                # exactly one lane, so the number of duplicate
                # insertions per successor is bounded by the facts
                # it gained this iteration.  This is the paper's
                # "redundant node analyses" that MER deduplicates.
                if added:
                    iter_new[succ] = iter_new.get(succ, 0) + added
                # Bounded by the lanes that actually touch the
                # successor this iteration, and scaled by how much
                # it grew (a one-fact nudge rarely races with many
                # lanes; a burst of new facts does).
                # Bounded per successor: the number of racing
                # lanes cannot exceed the facts being added (each
                # atomic union attributes a fact to one lane) nor a
                # warp's worth of simultaneously racing inserters.
                concurrent_dup = (
                    not added
                    and succ in growth
                    and iter_inserts.get(succ, 0)
                    < min(6 * iter_new.get(succ, 0), 32)
                )
                if added or concurrent_dup or not visited[succ]:
                    if merging:
                        if succ not in dest_seen:
                            dest_seen.add(succ)
                            destinations.append(succ)
                    else:
                        if added or concurrent_dup or succ not in scheduled:
                            destinations.append(succ)
                            scheduled.add(succ)
                            iter_inserts[succ] = iter_inserts.get(succ, 0) + 1
                            if concurrent_dup:
                                dup_inserts += 1
                            else:
                                nondup_inserts += 1
            visits.append(
                VisitRecord(
                    node=node,
                    in_size=len(in_set),
                    out_size=len(out),
                    new_facts=tuple(new_counts),
                    first_visit=not visited[node],
                )
            )
            visited[node] = True

        trace.iterations.append(
            IterationRecord(
                worklist_size=size,
                visits=tuple(visits),
                growth=tuple(sorted(growth.items())),
                merged=len(destinations) if merging else 0,
            )
        )
        if merging:
            worklist = destinations + tail
        else:
            worklist = destinations
    return facts


def _exit_facts(state: _MethodState, facts: Sequence[Set[int]]) -> FrozenSet[int]:
    """Union of the OUT facts of the method's exit nodes."""
    offset = state.offset
    exit_out: Set[int] = set()
    for exit_local in state.cfg.exits:
        exit_out |= state.transfer.out_facts(
            exit_local, facts[offset + exit_local]
        )
    return frozenset(exit_out)


def _run_block(self: BlockRunner) -> BlockResult:
    """The seed's ``BlockRunner._run``: set facts from start to finish."""
    summaries = dict(self.base_summaries)
    if self._is_scc:
        for signature in self.assignment.methods:
            summaries.setdefault(signature, MethodSummary(signature=signature))

    rounds = 0
    meta: Optional[Tuple[NodeMeta, ...]] = None
    while True:
        rounds += 1
        states = _build_states(self, summaries)
        meta = self._node_meta(states, meta)
        trace_sync = self._new_trace(meta)
        facts = _run_dynamics_sets(self, states, merging=False, trace=trace_sync)
        exit_facts = {state.signature: _exit_facts(state, facts) for state in states}
        new_summaries: Dict[str, MethodSummary] = {
            state.signature: SummaryBuilder(state.space).build(
                exit_facts[state.signature]
            )
            for state in states
        }
        if not self._is_scc:
            break
        stable = all(
            new_summaries[sig] == summaries.get(sig)
            for sig in self.assignment.methods
        )
        summaries.update(new_summaries)
        if stable:
            break
    trace_sync.summary_rounds = rounds

    trace_mer: Optional[BlockTrace] = None
    if self.record_mer:
        trace_mer = self._new_trace(meta)
        mer_facts = _run_dynamics_sets(self, states, merging=True, trace=trace_mer)
        trace_mer.summary_rounds = rounds
        if mer_facts != facts:
            raise DynamicsDivergenceError(
                f"block {self.assignment.block_id}: MER dynamics "
                "diverged from the synchronous fixed point"
            )

    method_facts: Dict[str, MethodFacts] = {}
    for state in states:
        offset = state.offset
        method_facts[state.signature] = MethodFacts(
            space=state.space,
            node_facts=tuple(
                frozenset(facts[offset + local])
                for local in range(len(state.method.statements))
            ),
            exit_facts=exit_facts[state.signature],
        )

    seed_sizes = tuple(
        (state.offset, len(state.space.entry_facts()))
        for state in states
        if state.method.statements
    )
    return BlockResult(
        assignment=self.assignment,
        method_facts=method_facts,
        summaries=new_summaries,
        trace_sync=trace_sync,
        trace_mer=trace_mer,
        seed_sizes=seed_sizes,
    )


# -- sequential worklist (``SequentialWorklist.run``) -------------------------


def _run_worklist(self: SequentialWorklist) -> MethodFacts:
    """Alg. 1 over per-node fact sets in a :class:`SetFactStore`."""
    method = self.cfg.method
    if not method.statements:
        return MethodFacts(space=self.space, node_facts=(), exit_facts=frozenset())
    store = SetFactStore(len(method.statements))
    store.replace(0, self.space.entry_facts())
    worklist = deque([0])
    queued = {0}
    visited = [False] * len(method.statements)
    while worklist:
        node = worklist.popleft()
        queued.discard(node)
        visited[node] = True
        self.visits += 1
        out = self.transfer.out_facts(node, store.get(node))
        for successor in self.cfg.successors[node]:
            grew = store.insert_all(successor, out)
            if (grew or not visited[successor]) and successor not in queued:
                worklist.append(successor)
                queued.add(successor)

    exit_out: Set[int] = set()
    for exit_node in self.cfg.exits:
        exit_out |= self.transfer.out_facts(exit_node, store.get(exit_node))
    return MethodFacts(
        space=self.space,
        node_facts=store.snapshot(),
        exit_facts=frozenset(exit_out),
    )


# -- summary footprints (``MethodSummary.footprint``) -------------------------


def _uncached_footprint(self: MethodSummary) -> CalleeFootprint:
    """Derive the footprint on every call, as the seed did."""
    return self._compute_footprint()


# -- memory transactions (``repro.gpu.memory``) -------------------------------


def _access(
    self: MemoryModel,
    region: int,
    element_indices: Sequence[int],
    element_bytes: int,
) -> int:
    """The seed's ``MemoryModel.access``: a per-lane address walk."""
    if not element_indices:
        return 0
    base = self.region_base(region)
    segment_bytes = self.spec.memory_segment_bytes
    addresses = [base + index * element_bytes for index in element_indices]
    count = memory.transactions_for_addresses(addresses, element_bytes, segment_bytes)
    self.transactions += count
    useful = len(set(element_indices)) * element_bytes
    moved = count * segment_bytes
    if moved > useful:
        self.wasted_bytes += moved - useful
    return count


# -- patching the seed program in ---------------------------------------------

#: (owner, attribute, seed implementation) for every job whose
#: production implementation replaced a seed one.  Pricing is patched
#: one level down, at the name ``price_block`` calls, because the
#: kernels import ``price_block`` itself by name.
_SEED_IMPLEMENTATIONS = (
    (BlockRunner, "_run", _run_block),
    (SequentialWorklist, "run", _run_worklist),
    (MethodSummary, "footprint", _uncached_footprint),
    (costing, "_price_block_tables", costing._price_block_scalar),
    (memory, "transactions_for_addresses", _transactions_scalar),
    (MemoryModel, "access", _access),
)


@contextmanager
def seed_path() -> Iterator[None]:
    """Run the seed program inside the ``with`` block (this process only)."""
    with ExitStack() as stack:
        for owner, attribute, seed in _SEED_IMPLEMENTATIONS:
            stack.enter_context(mock.patch.object(owner, attribute, seed))
        yield
