"""Set-based fact store (the original Amandroid data structure).

One dynamically sized set of encoded facts per ICFG node.  On GPU this
is the structure that causes the paper's #1 bottleneck: the set's exact
size cannot be foreknown, so each set gets a small pre-allocated
capacity and must be *dynamically reallocated* on device whenever an
insertion overflows it.  The store therefore tracks, per node, the
capacity-doubling events -- the GPU cost model charges each one -- and
can report the total device memory footprint for Fig. 10.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, List, Set, Tuple

#: Initial per-set capacity (number of fact entries) pre-allocated on
#: the device, and the growth factor used on overflow.
INITIAL_CAPACITY = 8
GROWTH_FACTOR = 2

#: Device bytes per stored fact entry: an 8-byte packed (slot, instance)
#: key plus hash-bucket overhead comparable to a load-factor-0.5 open
#: addressing table.
BYTES_PER_ENTRY = 40
#: Fixed per-set header (size, capacity, pointer).
SET_HEADER_BYTES = 32


class SetFactStore:
    """Per-node dynamic fact sets with allocation-event accounting."""

    __slots__ = ("node_count", "_sets", "_capacities", "alloc_events", "grow_counts")

    def __init__(self, node_count: int) -> None:
        self.node_count = node_count
        self._sets: List[Set[int]] = [set() for _ in range(node_count)]
        self._capacities: List[int] = [INITIAL_CAPACITY] * node_count
        #: Total number of dynamic reallocations performed so far.
        self.alloc_events = 0
        #: Per-node reallocation counts (profiling / tests).
        self.grow_counts: List[int] = [0] * node_count

    # -- mutation -------------------------------------------------------------

    def insert_all(self, node: int, facts: Iterable[int]) -> bool:
        """Union ``facts`` into ``node``'s set.

        Returns True when the set actually grew (the worklist algorithm
        re-enqueues the node in that case).  Capacity overflows perform
        (and count) dynamic reallocations.
        """
        target = self._sets[node]
        before = len(target)
        target.update(facts)
        grew = len(target) > before
        while len(target) > self._capacities[node]:
            self._capacities[node] *= GROWTH_FACTOR
            self.alloc_events += 1
            self.grow_counts[node] += 1
        return grew

    def replace(self, node: int, facts: Iterable[int]) -> None:
        """Overwrite a node's set (used when seeding entry facts)."""
        self._sets[node] = set(facts)
        while len(self._sets[node]) > self._capacities[node]:
            self._capacities[node] *= GROWTH_FACTOR
            self.alloc_events += 1
            self.grow_counts[node] += 1

    # -- queries --------------------------------------------------------------

    def get(self, node: int) -> Set[int]:
        """The fact set stored for ``node``."""
        return self._sets[node]

    def size(self, node: int) -> int:
        """Number of facts stored for ``node``."""
        return len(self._sets[node])

    def capacity(self, node: int) -> int:
        """Current pre-allocated capacity of a node's set."""
        return self._capacities[node]

    def snapshot(self) -> Tuple[FrozenSet[int], ...]:
        """Immutable copy of every node's facts (for IDFG reporting)."""
        return tuple(frozenset(s) for s in self._sets)

    def total_fact_count(self) -> int:
        """Total facts across all nodes."""
        return sum(len(s) for s in self._sets)

    def memory_bytes(self) -> int:
        """Modeled device footprint: headers plus allocated capacities."""
        return self.node_count * SET_HEADER_BYTES + sum(
            capacity * BYTES_PER_ENTRY for capacity in self._capacities
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SetFactStore):
            return NotImplemented
        return self._sets == other._sets

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"SetFactStore({self.node_count} nodes, "
            f"{self.total_fact_count()} facts, {self.alloc_events} allocs)"
        )
