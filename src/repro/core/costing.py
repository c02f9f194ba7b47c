"""Shared trace-pricing machinery for the kernel cost adapters.

Given a :class:`repro.core.trace.BlockTrace` and a
:class:`repro.core.config.GDroidConfig`, :func:`price_block` replays
the trace against the GPU simulator's cost rules and returns a
:class:`repro.gpu.kernel.BlockCost`.  The four bottlenecks map to four
cost channels:

1. *dynamic allocation* -- set-store configurations replay each
   iteration's fact-set growth through the capacity-doubling model and
   charge serialized reallocation stalls; MAT configurations never do.
2. *branch divergence* -- warp branch classes are the 25 statement/
   expression classes, or the 3 access-pattern groups under GRP (with
   the worklist partially sorted so same-group nodes share warps).
3. *load imbalance* -- every warp, full or nearly empty, pays the
   fixed warp-issue cost; partial tail warps are pure overhead that
   MER's trace no longer contains.
4. *memory irregularity* -- node-record and fact-storage accesses go
   through the coalescing model; GRP's group-contiguous layout gives
   neighbouring lanes neighbouring addresses.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import GDroidConfig
from repro.core.trace import BlockTrace, NodeMeta, VisitRecord
from repro.dataflow.lattice import GROWTH_FACTOR, INITIAL_CAPACITY
from repro.gpu.kernel import BlockCost
from repro.gpu.memory import MemoryModel
from repro.gpu.spec import CostTable
from repro.gpu.warp import LaneWork, REGION_FACTS, execute_warp, form_warps

#: Modeled bytes per fact-matrix row touched per visit (a handful of
#: 64-bit mask words); rows of neighbouring nodes are adjacent, so
#: lanes on neighbouring nodes coalesce.
MAT_ROW_BYTES = 32


def _lane_for_visit(
    visit: VisitRecord,
    all_meta: Sequence[NodeMeta],
    config: GDroidConfig,
) -> LaneWork:
    """Translate one trace visit into the warp lane descriptor."""
    costs = config.costs
    meta = all_meta[visit.node]
    new_total = sum(visit.new_facts)

    if config.use_grp:
        branch = str(meta.group)
        storage = meta.grouped_position

        def position(node: int) -> int:
            return all_meta[node].grouped_position

    else:
        branch = str(meta.branch_class)
        storage = meta.node

        def position(node: int) -> int:
            return node

    if config.use_mat:
        # Entry lookups in the fixed matrix: compute OUT, then flip the
        # bits that changed.  One-time generators do their constant GEN
        # only on the first visit.
        gen_work = visit.out_size if (meta.group != 0 or visit.first_visit) else 0
        compute = costs.node_issue_cycles + costs.mat_lookup_cycles * (
            gen_work + new_total
        )
        fact_elements = [storage] + [
            position(successor) for successor in meta.successors
        ]
        fact_accesses = tuple(
            (REGION_FACTS, element, MAT_ROW_BYTES) for element in fact_elements
        )
        return LaneWork(
            branch_class=branch,
            compute_cycles=compute,
            node_element=storage,
            fact_accesses=fact_accesses,
            scattered_accesses=0,
        )

    # Set-based store: scan the node's set, build OUT, then insert into
    # each successor's set -- pointer-chasing structures whose buckets
    # land in unrelated segments.
    compute = (
        costs.node_issue_cycles
        + costs.set_scan_cycles_per_entry
        * (visit.in_size + visit.out_size * max(len(visit.new_facts), 1))
        + costs.set_insert_cycles * new_total
    )
    touched = visit.in_size + new_total
    scattered = 1 + (touched + 3) // 4
    return LaneWork(
        branch_class=branch,
        compute_cycles=compute,
        node_element=storage,
        scattered_accesses=scattered,
    )


class _SetCapacityModel:
    """Replays fact-set growth through capacity doubling (bottleneck 1)."""

    __slots__ = ("capacities",)

    def __init__(self) -> None:
        self.capacities: Dict[int, int] = {}

    def grow_to(self, node: int, size: int) -> int:
        """Returns the number of reallocations this growth triggered."""
        capacity = self.capacities.get(node, INITIAL_CAPACITY)
        events = 0
        while size > capacity:
            capacity *= GROWTH_FACTOR
            events += 1
        if events:
            self.capacities[node] = capacity
        elif node not in self.capacities:
            self.capacities[node] = capacity
        return events


def _sort_cycles(costs: CostTable, n: int) -> float:
    """Partial bitonic sort of the worklist (GRP's per-iteration fee).

    Bitonic networks run at power-of-two widths with a minimum tile of
    half a warp, so short worklists still pay a fixed-size network --
    which is exactly why GRP degrades the small-worklist apps the paper
    calls out in Fig. 11.
    """
    if n <= 1:
        return 0.0
    width = max(n, 12)
    passes = max(1, (width - 1).bit_length())
    return costs.sort_cycles_per_element * width * passes


def _sequential_sum(values: np.ndarray) -> float:
    """``0.0 + v[0] + v[1] + ...`` in order, like a Python ``+=`` loop.

    ``np.add.accumulate`` is a left-to-right running sum (no pairwise
    reassociation), so the result matches the scalar replay's
    accumulator bit for bit.
    """
    if not len(values):
        return 0.0
    return float(np.add.accumulate(values, dtype=np.float64)[-1])


#: Index dtype of the stored lane and entry tables (halves their
#: memory; every block-local count fits comfortably).
_INDEX = np.int32


def _compact(values: List[int]) -> np.ndarray:
    """A per-visit integer column in the stored dtype (NumPy raises
    ``OverflowError`` rather than wrap a value that does not fit)."""
    return np.array(values, dtype=_INDEX)


class _WarpOrder:
    """One warp order of a trace's visits, with its per-warp tables.

    Lanes are numbered in issue order -- the recorded order, or each
    iteration stably sorted by access group under GRP -- so every warp
    is a contiguous lane range.  Tables are NumPy vectors over lanes,
    warps, or (warp, branch class) *entries*: the distinct branch
    classes of each warp in first-appearance order, which is the order
    the scalar replay sums their costs in.  Only what pricing reads is
    kept; the lane-to-warp map and segment ids are transient.
    """

    __slots__ = (
        "perm",
        "lanes",
        "warp_count",
        "classes_per_warp",
        "record_transactions",
        "fact_transactions",
        "_entry_sort",
        "_entry_runs",
        "_entry_order",
        "_entry_warp",
        "_entry_column",
    )

    def __init__(
        self,
        tables: "TraceTables",
        grouped: bool,
        warp_size: int,
        segment_bytes: int,
        record_bytes: int,
    ) -> None:
        meta = tables.meta
        counts = tables.counts
        lane_node = tables.lane_node
        if grouped:
            lane_class = np.array([m.group for m in meta], dtype=np.int64)[lane_node]
            # Stable, like the replay's sorted(visits, key=group).
            lane_iteration = np.repeat(np.arange(len(counts)), counts)
            self.perm = np.lexsort((lane_class, lane_iteration)).astype(_INDEX)
            lane_node = lane_node[self.perm]
            lane_class = lane_class[self.perm]
            storage = np.array([m.grouped_position for m in meta], dtype=np.int64)
        else:
            self.perm = None
            lane_class = np.array(
                [m.branch_class for m in meta], dtype=np.int64
            )[lane_node]
            storage = np.arange(len(meta), dtype=np.int64)

        warps_per_iteration = (counts + warp_size - 1) // warp_size
        first_warp = np.cumsum(warps_per_iteration) - warps_per_iteration
        position = np.arange(len(lane_node)) - np.repeat(
            np.cumsum(counts) - counts, counts
        )
        lane_warp = np.repeat(first_warp, counts) + position // warp_size
        self.warp_count = int(warps_per_iteration.sum())
        self.lanes = np.bincount(lane_warp, minlength=self.warp_count)

        # (warp, class) entries: sort lanes by key, keep each run's
        # first lane, then restore first-appearance order.
        width = int(lane_class.max()) + 1 if len(lane_class) else 1
        key = lane_warp * width + lane_class
        entry_sort = np.argsort(key, kind="stable")
        sorted_key = key[entry_sort]
        runs = np.flatnonzero(
            np.concatenate(([True], sorted_key[1:] != sorted_key[:-1]))
        ) if len(sorted_key) else np.zeros(0, dtype=np.int64)
        entry_order = np.argsort(entry_sort[runs])
        entry_warp = (sorted_key[runs] // width)[entry_order]
        self.classes_per_warp = np.bincount(entry_warp, minlength=self.warp_count)
        entry_start = np.cumsum(self.classes_per_warp) - self.classes_per_warp
        self._entry_column = (
            np.arange(len(entry_warp)) - np.repeat(entry_start, self.classes_per_warp)
        ).astype(_INDEX)
        self._entry_sort = entry_sort.astype(_INDEX)
        self._entry_runs = runs.astype(_INDEX)
        self._entry_order = entry_order.astype(_INDEX)
        self._entry_warp = entry_warp.astype(_INDEX)

        # Node records: each lane fetches its node's record.
        self.record_transactions = self._distinct_per_warp(
            lane_warp, storage[lane_node] * record_bytes, record_bytes, segment_bytes
        )
        # MAT fact rows: each lane reads its node's row and writes each
        # successor's -- one element per CSR entry of the lane's node.
        pointer, elements = tables.fact_elements()
        degree = np.diff(pointer)[lane_node]
        element = elements[
            np.repeat(pointer[lane_node] - (np.cumsum(degree) - degree), degree)
            + np.arange(int(degree.sum()))
        ]
        self.fact_transactions = self._distinct_per_warp(
            np.repeat(lane_warp, degree),
            storage[element] * MAT_ROW_BYTES,
            MAT_ROW_BYTES,
            segment_bytes,
        )

    def _distinct_per_warp(
        self,
        warp: np.ndarray,
        address: np.ndarray,
        access_bytes: int,
        segment_bytes: int,
    ) -> np.ndarray:
        """Distinct memory segments per warp touched by accesses of
        ``access_bytes`` at ``address`` (an access may straddle two)."""
        if not len(warp):
            return np.zeros(self.warp_count, dtype=np.int64)
        first = address // segment_bytes
        last = (address + max(access_bytes, 1) - 1) // segment_bytes
        stride = int(last.max()) + 1
        keys = warp * stride + first
        straddles = last != first
        if straddles.any():
            keys = np.concatenate((keys, warp[straddles] * stride + last[straddles]))
        keys.sort()
        distinct = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
        return np.bincount(distinct // stride, minlength=self.warp_count)

    def permuted(self, lane_values: np.ndarray) -> np.ndarray:
        """Per-visit values (recorded order) in this order's lane order."""
        return lane_values if self.perm is None else lane_values[self.perm]

    def class_max(self, lane_values: np.ndarray) -> np.ndarray:
        """Largest lane value of every (warp, class) entry."""
        if not len(lane_values):
            return lane_values
        runs = np.maximum.reduceat(lane_values[self._entry_sort], self._entry_runs)
        return runs[self._entry_order]

    def warp_sums(self, entry_values: np.ndarray) -> np.ndarray:
        """Per warp, its entries' values summed left to right."""
        width = int(self.classes_per_warp.max()) if self.warp_count else 0
        if not width:
            return np.zeros(self.warp_count, dtype=np.float64)
        grid = np.zeros((self.warp_count, width), dtype=np.float64)
        grid[self._entry_warp, self._entry_column] = entry_values
        total = grid[:, 0].copy()
        for column in range(1, width):
            total += grid[:, column]
        return total

    def warp_totals(self, lane_values: np.ndarray) -> np.ndarray:
        """Per warp, the sum of an integer per-visit column."""
        if not self.warp_count:
            return self.lanes
        return np.add.reduceat(
            self.permuted(lane_values), np.cumsum(self.lanes) - self.lanes
        )


class TraceTables:
    """Config-independent pricing data of one :class:`BlockTrace`.

    Built once per trace by :func:`trace_tables` and shared by every
    configuration that prices the trace and by the CPU models: each
    visit's new-fact total and MAT work, the plain and group-sorted
    warp orders with their segment counts, and the set store's capacity
    replay.  Tables live as long as the trace, so the per-visit ones
    are compact NumPy vectors rather than Python lists.
    """

    __slots__ = (
        "meta",
        "iteration_count",
        "worklist_sizes",
        "merged",
        "counts",
        "new_total",
        "lane_node",
        "_iterations",
        "_mat_units",
        "_elements",
        "_orders",
        "_growth",
    )

    def __init__(self, trace: BlockTrace) -> None:
        iterations = trace.iterations
        self.meta = trace.node_meta
        self.iteration_count = len(iterations)
        self._iterations = iterations
        self.worklist_sizes = [it.worklist_size for it in iterations]
        self.merged = [it.merged for it in iterations]
        self.counts = np.array(
            [len(it.visits) for it in iterations], dtype=np.int64
        )
        self.new_total = _compact(
            [sum(v.new_facts) for it in iterations for v in it.visits]
        )
        self.lane_node = _compact([v.node for it in iterations for v in it.visits])
        self._mat_units: Optional[np.ndarray] = None
        self._elements: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._orders: Dict[Tuple[bool, int, int, int], _WarpOrder] = {}
        self._growth: Dict[
            Tuple[Tuple[int, int], ...], Tuple[int, List[int], Dict[int, int]]
        ] = {}

    def visits(self) -> Iterator[VisitRecord]:
        """Every recorded visit, in recorded order."""
        return chain.from_iterable(it.visits for it in self._iterations)

    def order(
        self,
        grouped: bool,
        warp_size: int,
        segment_bytes: int,
        record_bytes: int,
    ) -> _WarpOrder:
        """The plain (``grouped=False``) or group-sorted warp order."""
        key = (grouped, warp_size, segment_bytes, record_bytes)
        order = self._orders.get(key)
        if order is None:
            order = self._orders[key] = _WarpOrder(self, *key)
        return order

    def mat_units(self) -> np.ndarray:
        """Per visit, MAT entry lookups: OUT's facts (one-time
        generators only on their first visit) plus one per new fact."""
        if self._mat_units is None:
            generates_always = [m.group != 0 for m in self.meta]
            gen_work = _compact(
                [
                    v.out_size if (generates_always[v.node] or v.first_visit) else 0
                    for it in self._iterations
                    for v in it.visits
                ]
            )
            self._mat_units = gen_work + self.new_total
        return self._mat_units

    def set_columns(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per visit, set-store work: entries scanned and scattered
        bucket accesses."""
        iterations = self._iterations
        scans = np.array(
            [
                v.in_size + v.out_size * (len(v.new_facts) or 1)
                for it in iterations
                for v in it.visits
            ],
            dtype=np.int64,
        )
        in_size = np.array(
            [v.in_size for it in iterations for v in it.visits], dtype=np.int64
        )
        return scans, 1 + (in_size + self.new_total + 3) // 4

    def fact_elements(self) -> Tuple[np.ndarray, np.ndarray]:
        """CSR of the nodes whose fact rows a visit touches: the node
        itself, then its successors."""
        if self._elements is None:
            pointer = np.zeros(len(self.meta) + 1, dtype=np.int64)
            pointer[1:] = np.cumsum([1 + len(m.successors) for m in self.meta])
            elements = np.array(
                [node for m in self.meta for node in (m.node, *m.successors)],
                dtype=np.int64,
            )
            self._elements = (pointer, elements)
        return self._elements

    def growth(
        self, seed_sizes: Sequence[Tuple[int, int]]
    ) -> Tuple[int, List[int], Dict[int, int]]:
        """Set-store capacity replay (bottleneck 1).

        Returns the reallocations of seeding the entry sets, the
        reallocations of each iteration's growth, and the final
        capacity of every node that has one.
        """
        key = tuple(seed_sizes)
        cached = self._growth.get(key)
        if cached is None:
            model = _SetCapacityModel()
            seed_events = 0
            for node, size in key:
                seed_events += model.grow_to(node, size)
            events: List[int] = []
            for iteration in self._iterations:
                count = 0
                for node, size in iteration.growth:
                    count += model.grow_to(node, size)
                events.append(count)
            cached = (seed_events, events, model.capacities)
            self._growth[key] = cached
        return cached


def trace_tables(trace: BlockTrace) -> TraceTables:
    """The trace's shared pricing tables, built on first use."""
    tables = trace.tables
    if (
        tables is None
        or tables.iteration_count != len(trace.iterations)
        or tables.meta is not trace.node_meta
    ):
        tables = trace.tables = TraceTables(trace)
    return tables


def price_block(
    trace: BlockTrace,
    config: GDroidConfig,
    seed_sizes: Sequence[Tuple[int, int]] = (),
) -> BlockCost:
    """Price one block's trace under ``config``; see module docstring.

    Replays the trace over its shared :class:`TraceTables` (per-warp
    work only, once the tables exist).  The cycle counts equal the
    seed's per-visit :class:`LaneWork` / :func:`repro.gpu.warp.
    execute_warp` replay (:func:`_price_block_scalar`, still the path
    for exotic specs) -- the table replay keeps the scalar accumulation
    order, so even the float sums match bit for bit.
    """
    return _price_block_tables(trace, config, seed_sizes)


def _price_block_tables(
    trace: BlockTrace,
    config: GDroidConfig,
    seed_sizes: Sequence[Tuple[int, int]] = (),
) -> BlockCost:
    """Table-driven replay: per-warp float accumulation only."""
    costs = config.costs
    spec = config.spec
    warp_size = spec.warp_size
    segment_bytes = spec.memory_segment_bytes
    use_mat = config.use_mat
    use_grp = config.use_grp

    record_bytes = costs.node_record_bytes
    if (
        record_bytes > segment_bytes
        or MAT_ROW_BYTES > segment_bytes
        or MemoryModel.REGION_STRIDE % segment_bytes
        or costs.mat_lookup_cycles < 0
    ):  # pragma: no cover - exotic spec; exactness over speed
        return _price_block_scalar(trace, config, seed_sizes)

    tables = trace_tables(trace)
    order = tables.order(use_grp, warp_size, segment_bytes, record_bytes)
    node_issue = costs.node_issue_cycles

    if use_mat:
        entry_work = order.class_max(order.permuted(tables.mat_units()))
        entry_cycles = node_issue + costs.mat_lookup_cycles * entry_work
        transactions = order.record_transactions + order.fact_transactions
    else:
        scans, scattered = tables.set_columns()
        lane_cycles = (
            node_issue
            + costs.set_scan_cycles_per_entry * order.permuted(scans)
            + costs.set_insert_cycles * order.permuted(tables.new_total)
        )
        entry_cycles = order.class_max(lane_cycles)
        transactions = order.record_transactions + order.warp_totals(scattered)
    compute_cycles = _sequential_sum(order.warp_sums(entry_cycles))
    divergence_cycles = _sequential_sum(
        (order.classes_per_warp - 1) * costs.divergence_pass_cycles
    )
    memory_cycles = _sequential_sum(
        transactions * costs.memory_transaction_cycles
    )
    warp_cycles = _sequential_sum(
        np.full(order.warp_count, costs.warp_base_cycles, dtype=np.float64)
    )
    idle_lane_cycles = _sequential_sum((warp_size - order.lanes) * node_issue)

    alloc_stall_cycles = 0.0
    if not use_mat:
        seed_events, events, _ = tables.growth(seed_sizes)
        alloc_stall_cycles += seed_events * costs.dynamic_alloc_cycles
        for count in events:
            alloc_stall_cycles += count * costs.dynamic_alloc_cycles

    sort_cycles = 0.0
    sync_cycles = 0.0
    for worklist_size, count, merged in zip(
        tables.worklist_sizes, tables.counts.tolist(), tables.merged
    ):
        if use_grp:
            sort_cycles += _sort_cycles(costs, worklist_size)
        sync_cycles += costs.iteration_sync_cycles + costs.worklist_op_cycles * count
        if config.use_mer and merged:
            sync_cycles += costs.merge_op_cycles * merged
    total_visits = int(tables.counts.sum())

    rounds = max(1, trace.summary_rounds)
    factor = float(rounds)
    total = (
        compute_cycles
        + divergence_cycles
        + memory_cycles
        + alloc_stall_cycles
        + sort_cycles
        + sync_cycles
        + warp_cycles
    ) * factor

    return BlockCost(
        block_id=trace.block_id,
        cycles=total,
        iterations=trace.iteration_count * rounds,
        node_visits=total_visits * rounds,
        compute_cycles=compute_cycles * factor,
        divergence_cycles=divergence_cycles * factor,
        memory_cycles=memory_cycles * factor,
        alloc_stall_cycles=alloc_stall_cycles * factor,
        sort_cycles=sort_cycles * factor,
        sync_cycles=(sync_cycles + warp_cycles) * factor,
        idle_lane_cycles=idle_lane_cycles * factor,
    )


def _price_block_scalar(
    trace: BlockTrace,
    config: GDroidConfig,
    seed_sizes: Sequence[Tuple[int, int]] = (),
) -> BlockCost:
    """Per-visit lane descriptor replay: the fallback of
    :func:`_price_block_tables` for exotic specs, and the reference the
    table replay is tested against."""
    costs = config.costs
    memory = MemoryModel(config.spec)
    warp_size = config.spec.warp_size
    meta = trace.node_meta

    compute_cycles = 0.0
    divergence_cycles = 0.0
    memory_cycles = 0.0
    alloc_stall_cycles = 0.0
    sort_cycles = 0.0
    sync_cycles = 0.0
    idle_lane_cycles = 0.0
    warp_cycles = 0.0
    total_visits = 0

    capacity_model = _SetCapacityModel()
    if not config.use_mat:
        # Seeding the entry fact sets before the first iteration may
        # already overflow the pre-allocated capacity.
        seed_events = 0
        for node, size in seed_sizes:
            seed_events += capacity_model.grow_to(node, size)
        alloc_stall_cycles += seed_events * costs.dynamic_alloc_cycles

    for iteration in trace.iterations:
        visits: Sequence[VisitRecord] = iteration.visits
        total_visits += len(visits)
        if config.use_grp:
            visits = sorted(visits, key=lambda v: meta[v.node].group)
            sort_cycles += _sort_cycles(costs, iteration.worklist_size)

        lanes = [_lane_for_visit(v, meta, config) for v in visits]
        for warp in form_warps(lanes, warp_size):
            execution = execute_warp(warp, costs, memory)
            compute_cycles += execution.compute_cycles
            divergence_cycles += execution.divergence_cycles
            memory_cycles += execution.memory_cycles
            warp_cycles += costs.warp_base_cycles
            idle_lane_cycles += (
                (warp_size - execution.active_lanes) * costs.node_issue_cycles
            )

        if not config.use_mat:
            events = 0
            for node, size in iteration.growth:
                events += capacity_model.grow_to(node, size)
            alloc_stall_cycles += events * costs.dynamic_alloc_cycles

        sync_cycles += (
            costs.iteration_sync_cycles
            + costs.worklist_op_cycles * len(visits)
        )
        if config.use_mer and iteration.merged:
            sync_cycles += costs.merge_op_cycles * iteration.merged

    rounds = max(1, trace.summary_rounds)
    factor = float(rounds)
    total = (
        compute_cycles
        + divergence_cycles
        + memory_cycles
        + alloc_stall_cycles
        + sort_cycles
        + sync_cycles
        + warp_cycles
    ) * factor

    return BlockCost(
        block_id=trace.block_id,
        cycles=total,
        iterations=trace.iteration_count * rounds,
        node_visits=total_visits * rounds,
        compute_cycles=compute_cycles * factor,
        divergence_cycles=divergence_cycles * factor,
        memory_cycles=memory_cycles * factor,
        alloc_stall_cycles=alloc_stall_cycles * factor,
        sort_cycles=sort_cycles * factor,
        sync_cycles=(sync_cycles + warp_cycles) * factor,
        idle_lane_cycles=idle_lane_cycles * factor,
    )


def set_store_bytes(
    trace: BlockTrace, seed_sizes: Sequence[Tuple[int, int]]
) -> int:
    """Final set-store footprint of one block (Fig. 10, set side)."""
    from repro.dataflow.lattice import BYTES_PER_ENTRY, SET_HEADER_BYTES

    _, _, capacities = trace_tables(trace).growth(seed_sizes)
    total = trace.node_count * SET_HEADER_BYTES
    for node in range(trace.node_count):
        capacity = capacities.get(node, INITIAL_CAPACITY)
        total += capacity * BYTES_PER_ENTRY
    return total
