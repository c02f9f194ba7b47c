"""Functional thread-block runner.

Executes one block's worklist dynamics *for real* -- facts are
computed with the compiled transfer functions -- while recording the
:class:`repro.core.trace.BlockTrace` that the kernel cost adapters
price.  Two dynamics variants exist:

* **synchronous** (paper Alg. 2): every iteration processes the whole
  current worklist; every updated (or never-visited) successor is
  appended to the next worklist, duplicates included -- the paper's
  "redundant node analyses".
* **merging** (MER, paper Alg. 3 / Fig. 7): only the *head list*
  (largest multiple of the warp size, or everything when a single warp
  suffices) is processed; the postponed tail is merged with the newly
  discovered destinations, with repetitions removed.

Both converge to the same least fixed point (transfer functions are
monotone over a finite lattice, and every pending node is eventually
processed), which the test-suite verifies against the sequential
oracle.

Recursive SCC blocks iterate whole rounds until their joint summaries
stabilize; the recorded trace is the final round's, and
``summary_rounds`` tells the cost adapters how many rounds to charge.

Facts stay int masks through the whole block run -- both dynamics, the
MER/sync agreement check, exit facts and summaries -- and the
:class:`MethodFacts` frozensets are built once, from the final round's
masks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import (
    Callable,
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.cfg.intra import IntraCFG, build_intra_cfg
from repro.core.blocks import BlockAssignment
from repro.core.grouping import (
    access_group,
    branch_class_id,
    grouped_storage_order,
)
from repro.core.trace import BlockTrace, IterationRecord, NodeMeta, VisitRecord
from repro.dataflow.bitset import freeze_masks, mask_to_frozenset
from repro.dataflow.facts import CalleeFootprint, FactSpace
from repro.dataflow.idfg import MethodFacts
from repro.dataflow.summaries import MethodSummary, SummaryBuilder
from repro.dataflow.transfer import MaskTransfer, TransferFunctions
from repro.ir.app import AndroidApp

#: CUDA warp size; the head-list granularity of MER.
WARP_SIZE = 32


@dataclass
class BlockResult:
    """Everything one block run produces."""

    assignment: BlockAssignment
    method_facts: Dict[str, MethodFacts]
    summaries: Dict[str, MethodSummary]
    #: Synchronous-dynamics trace (plain / MAT / MAT+GRP configs).
    trace_sync: BlockTrace
    #: Merging-dynamics trace (MER configs); None when not requested.
    trace_mer: Optional[BlockTrace]
    #: Initial (entry-seed) fact sizes per block node: (node, size).
    seed_sizes: Tuple[Tuple[int, int], ...] = ()


class DynamicsDivergenceError(RuntimeError):
    """The MER and synchronous dynamics of one block reached different
    fixed points.

    Both dynamics must land on the same least fixed point (see the
    module docstring); a mismatch means a transfer function or the
    worklist bookkeeping broke monotonicity.
    """


class _MethodState:
    """Per-method analysis machinery inside a block."""

    __slots__ = (
        "signature",
        "method",
        "cfg",
        "space",
        "transfer",
        "offset",
        "_masked",
    )

    def __init__(
        self,
        app: AndroidApp,
        signature: str,
        summaries,
        offset: int,
        footprints: Dict[str, CalleeFootprint],
        cfg: Optional[IntraCFG] = None,
    ):
        self.signature = signature
        self.method = app.method_table[signature]
        self.cfg = cfg if cfg is not None else build_intra_cfg(self.method)
        self.space = FactSpace(self.method, footprints)
        self.transfer = TransferFunctions(self.space, summaries)
        self.offset = offset
        self._masked: Optional[MaskTransfer] = None

    @property
    def masked(self) -> MaskTransfer:
        """Packed-bitset view of the transfer functions (lazy)."""
        if self._masked is None:
            self._masked = MaskTransfer(self.transfer)
        return self._masked


class _MaskDispatch:
    """Flat per-block-node dispatch tables of the masked dynamics.

    Built once per summary round and shared by the synchronous and the
    merging run, so the visit loop indexes plain lists instead of
    resolving a method state, its transfer view and the node metadata
    on every visit.
    """

    __slots__ = ("out_fn", "successors", "group", "entries")

    def __init__(
        self, states: Sequence[_MethodState], meta: Sequence[NodeMeta]
    ) -> None:
        #: ``in_mask -> out_mask`` per node; None for identity nodes,
        #: whose OUT is their live IN mask.
        self.out_fn: List[Optional[Callable[[int], int]]] = [
            None
            if state.masked.is_identity(local)
            else partial(state.masked.out_mask, local)
            for state in states
            for local in range(len(state.method.statements))
        ]
        self.successors = [m.successors for m in meta]
        self.group = [m.group for m in meta]
        #: (entry node, entry fact mask) per non-empty method.
        self.entries = [
            (state.offset, state.masked.entry_mask())
            for state in states
            if state.method.statements
        ]


class BlockRunner:
    """Run one thread block to its fixed point."""

    def __init__(
        self,
        app: AndroidApp,
        assignment: BlockAssignment,
        summaries: Mapping[str, MethodSummary],
        record_mer: bool = True,
        sort_mer_worklist: bool = True,
    ) -> None:
        self.app = app
        self.assignment = assignment
        self.base_summaries = dict(summaries)
        self.record_mer = record_mer
        self.sort_mer_worklist = sort_mer_worklist
        self._callees = {
            callee
            for signature in assignment.methods
            for callee in app.method_table[signature].callees()
        }
        self._is_scc = not self._callees.isdisjoint(assignment.methods)
        #: Round-invariant machinery, reused across SCC summary rounds.
        self._cfgs: Dict[str, IntraCFG] = {}
        self._static_meta: Optional[List[Tuple[str, int, int, Tuple[int, ...]]]] = None

    # -- machinery ---------------------------------------------------------------

    def _build_states(
        self, summaries: Mapping[str, MethodSummary]
    ) -> List[_MethodState]:
        # The callee footprints depend only on the summary table, which
        # is identical for every method of the block: resolve them once
        # per round instead of once per method state, and only for the
        # block's callees -- the table holds every lower layer's methods.
        footprints = {
            sig: summaries[sig].footprint()
            for sig in self._callees
            if sig in summaries
        }
        states: List[_MethodState] = []
        offset = 0
        for signature in self.assignment.methods:
            state = _MethodState(
                self.app,
                signature,
                summaries,
                offset,
                footprints=footprints,
                cfg=self._cfgs.get(signature),
            )
            self._cfgs[signature] = state.cfg
            states.append(state)
            offset += len(state.method.statements)
        return states

    def _node_meta(
        self,
        states: Sequence[_MethodState],
        previous: Optional[Tuple[NodeMeta, ...]] = None,
    ) -> Tuple[NodeMeta, ...]:
        """Per-node metadata of this round.

        Only the access groups and matrix row widths can change between
        SCC summary rounds (a new callee summary can turn an identity
        call into an effectful one, or grow the fact space); the
        previous round's tuple is returned when neither did.
        """
        groups: List[int] = []
        row_words: List[int] = []
        for state in states:
            words = max(1, (state.space.fact_universe + 63) // 64)
            for local in range(len(state.method.statements)):
                groups.append(access_group(state.transfer, local))
                row_words.append(words)
        if previous is not None and all(
            m.group == group and m.row_words == words
            for m, group, words in zip(previous, groups, row_words)
        ):
            return previous
        if self._static_meta is None:
            self._static_meta = [
                (
                    state.signature,
                    local,
                    branch_class_id(state.method.statements[local]),
                    tuple(
                        state.offset + succ
                        for succ in state.cfg.successors[local]
                    ),
                )
                for state in states
                for local in range(len(state.method.statements))
            ]
        grouped_positions = grouped_storage_order(groups)
        return tuple(
            NodeMeta(
                node=node,
                method=method,
                local_index=local,
                branch_class=branch,
                group=groups[node],
                grouped_position=grouped_positions[node],
                successors=successors,
                row_words=row_words[node],
            )
            for node, (method, local, branch, successors) in enumerate(
                self._static_meta
            )
        )

    def _new_trace(self, meta: Tuple[NodeMeta, ...]) -> BlockTrace:
        return BlockTrace(
            block_id=self.assignment.block_id,
            layer=self.assignment.layer,
            methods=self.assignment.methods,
            node_meta=meta,
        )

    # -- dynamics -------------------------------------------------------------------

    def _run_dynamics(
        self,
        dispatch: _MaskDispatch,
        merging: bool,
        trace: BlockTrace,
    ) -> List[int]:
        """Execute one fixed-point run; returns one int mask per block node.

        Records the same trace as the seed's per-element set dynamics
        (kept as the test oracle in ``tests/seed_oracle.py``), including
        the aliasing of each node's live IN set when its sizes are
        recorded.  The per-successor union of a whole out-set is one
        ``|`` and one comparison instead of a per-fact set update: the
        warp's GEN/KILL lanes are applied as one batch.  ``sizes``
        caches every node's popcount, so only a union that grew a set
        is counted.
        """
        out_fn = dispatch.out_fn
        successors_of = dispatch.successors
        node_count = len(out_fn)
        facts: List[int] = [0] * node_count
        sizes: List[int] = [0] * node_count
        visited = [False] * node_count
        scheduled: Set[int] = set()

        worklist: List[int] = []
        for entry, mask in dispatch.entries:
            facts[entry] = mask
            sizes[entry] = mask.bit_count()
            worklist.append(entry)
            scheduled.add(entry)

        sort_key = (
            dispatch.group.__getitem__
            if (merging and self.sort_mer_worklist)
            else None
        )
        iterations = trace.iterations

        while worklist:
            if sort_key is not None:
                worklist.sort(key=sort_key)
            size = len(worklist)
            if merging:
                head = worklist[:WARP_SIZE]
                tail = worklist[WARP_SIZE:]
                dest_seen: Set[int] = set(tail)
            else:
                head = worklist

            visits: List[VisitRecord] = []
            growth: Dict[int, int] = {}
            destinations: List[int] = []
            iter_new: Dict[int, int] = {}
            iter_inserts: Dict[int, int] = {}

            for node in head:
                scheduled.discard(node)
                in_mask = facts[node]
                transfer = out_fn[node]
                out = in_mask if transfer is None else transfer(in_mask)
                new_counts: List[int] = []
                for succ in successors_of[node]:
                    succ_mask = facts[succ]
                    merged = succ_mask | out
                    if merged != succ_mask:
                        grown = merged.bit_count()
                        added = grown - sizes[succ]
                        facts[succ] = merged
                        sizes[succ] = grown
                        growth[succ] = grown
                        iter_new[succ] = iter_new.get(succ, 0) + added
                        new_counts.append(added)
                        if merging:
                            if succ not in dest_seen:
                                dest_seen.add(succ)
                                destinations.append(succ)
                        else:
                            destinations.append(succ)
                            scheduled.add(succ)
                            iter_inserts[succ] = iter_inserts.get(succ, 0) + 1
                        continue
                    new_counts.append(0)
                    if merging:
                        # A concurrent duplicate of an already-grown
                        # successor is in ``dest_seen`` by then.
                        if not visited[succ] and succ not in dest_seen:
                            dest_seen.add(succ)
                            destinations.append(succ)
                    elif (
                        succ in growth
                        and iter_inserts.get(succ, 0)
                        < min(6 * iter_new.get(succ, 0), 32)
                    ) or (not visited[succ] and succ not in scheduled):
                        destinations.append(succ)
                        scheduled.add(succ)
                        iter_inserts[succ] = iter_inserts.get(succ, 0) + 1
                # The seed's set dynamics record len() of the *live*
                # IN set (and, for identity nodes, the live OUT alias)
                # after the successor unions: a self-looping node sees
                # its own growth.
                in_size = sizes[node]
                visits.append(
                    VisitRecord(
                        node,
                        in_size,
                        in_size if transfer is None else out.bit_count(),
                        tuple(new_counts),
                        not visited[node],
                    )
                )
                visited[node] = True

            iterations.append(
                IterationRecord(
                    size,
                    tuple(visits),
                    tuple(sorted(growth.items())),
                    len(destinations) if merging else 0,
                )
            )
            if merging:
                worklist = destinations + tail
            else:
                worklist = destinations
        return facts

    # -- public API --------------------------------------------------------------------

    def run(self) -> BlockResult:
        """Execute to completion and return the results."""
        from repro import obs

        with obs.span(
            f"block[{self.assignment.block_id}]",
            category="block",
            layer=self.assignment.layer,
            methods=len(self.assignment.methods),
            scc=self._is_scc,
        ):
            result = self._run()
        obs.count("block.runs", 1)
        obs.count("block.iterations", result.trace_sync.iteration_count)
        obs.count("block.visits", result.trace_sync.visit_count)
        return result

    def _run(self) -> BlockResult:
        summaries = dict(self.base_summaries)
        if self._is_scc:
            for signature in self.assignment.methods:
                summaries.setdefault(signature, MethodSummary(signature=signature))

        rounds = 0
        meta: Optional[Tuple[NodeMeta, ...]] = None
        while True:
            rounds += 1
            states = self._build_states(summaries)
            meta = self._node_meta(states, meta)
            dispatch = _MaskDispatch(states, meta)
            trace_sync = self._new_trace(meta)
            facts = self._run_dynamics(dispatch, merging=False, trace=trace_sync)
            exit_facts = {
                state.signature: self._exit_facts(state, facts)
                for state in states
            }
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
            mer_facts = self._run_dynamics(dispatch, merging=True, trace=trace_mer)
            trace_mer.summary_rounds = rounds
            if mer_facts != facts:
                raise DynamicsDivergenceError(
                    f"block {self.assignment.block_id}: MER dynamics "
                    "diverged from the synchronous fixed point"
                )

        # Node fact sets are materialized once, for the final round:
        # equal masks (straight-line code forwards its IN unchanged)
        # share one frozenset.
        views: Dict[int, FrozenSet[int]] = {}
        method_facts: Dict[str, MethodFacts] = {}
        for state in states:
            offset = state.offset
            method_facts[state.signature] = MethodFacts(
                space=state.space,
                node_facts=freeze_masks(
                    facts[offset : offset + len(state.method.statements)], views
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

    @staticmethod
    def _exit_facts(state: _MethodState, facts: Sequence[int]) -> FrozenSet[int]:
        """Union of the OUT facts of the method's exit nodes."""
        offset = state.offset
        out_mask = state.masked.out_mask
        exit_mask = 0
        for exit_local in state.cfg.exits:
            exit_mask |= out_mask(exit_local, facts[offset + exit_local])
        return mask_to_frozenset(exit_mask)
