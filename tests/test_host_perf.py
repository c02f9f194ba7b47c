"""Host-side performance layer: bit-exactness and cache/parallel tests.

The packed-bitset store, masked dynamics, fused pricing, parallel
corpus pipeline and on-disk cache are all *transparent* accelerations:
every observable number -- per-node fact sets, traces, and modeled
cycle counts -- must be identical to the seed implementation's, which
``tests/seed_oracle.py`` keeps runnable.  These tests pin that contract.
"""

import dataclasses

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.bench.harness as harness
from repro.apk.corpus import AppCorpus
from repro.apk.generator import AppGenerator, GeneratorProfile, generate_app
from repro.bench.cache import EvaluationCache, config_fingerprint, row_key
from repro.bench.parallel import plan_chunks, resolve_jobs
from repro.core.config import GDroidConfig
from repro.core.costing import (
    _price_block_scalar,
    _price_block_tables,
    trace_tables,
)
from repro.core.engine import AppWorkload
from repro.core.gdroid_kernel import select_trace
from repro.core.grouping import grouped_storage_order
from repro.core.trace import BlockTrace, IterationRecord, NodeMeta, VisitRecord
from repro.dataflow.bitset import (
    iter_bits,
    mask_from,
    mask_to_set,
    pack_indices,
    popcount_words,
    unpack_indices,
    words_for,
)
from repro.dataflow.matrix_store import MatrixFactStore
from repro.dataflow.transfer import MaskTransfer, TransferFunctions
from repro.dataflow.worklist import SequentialWorklist, analyze_app_reference
from repro.gpu.memory import transactions_for_addresses, _transactions_scalar
from repro.gpu.spec import CostTable
from tests.conftest import SMALL_PROFILE, tiny_app
from tests.seed_oracle import BooleanMatrixStore, seed_path

#: A ``tiny_app`` seed whose call graph has a recursive SCC, so the
#: block runner iterates more than one summary round.
_SCC_SEED = 6


@pytest.fixture()
def app():
    return generate_app(31, GeneratorProfile(scale=0.5))


# -- bitset primitives --------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=199), max_size=40))
def test_pack_unpack_roundtrip(indices):
    words = words_for(200)
    row = pack_indices(indices, words)
    assert unpack_indices(row) == sorted(set(indices))
    assert popcount_words(row) == len(set(indices))
    mask = mask_from(indices)
    assert mask_to_set(mask) == set(indices)
    assert list(iter_bits(mask)) == sorted(set(indices))


# -- the three fact stores ----------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3),
            st.lists(st.integers(min_value=0, max_value=149), max_size=10),
        ),
        max_size=40,
    )
)
def test_packed_boolean_set_stores_agree(ops):
    """Packed uint64 rows vs boolean rows vs plain sets, op by op."""
    packed = MatrixFactStore(4, 150)
    boolean = BooleanMatrixStore(4, 150)
    shadow = [set() for _ in range(4)]
    for node, facts in ops:
        grew = len(set(facts) - shadow[node]) > 0
        assert packed.insert_all(node, facts) == grew
        assert boolean.insert_all(node, facts) == grew
        shadow[node] |= set(facts)
    for node in range(4):
        assert packed.get(node) == boolean.get(node) == shadow[node]
        assert packed.size(node) == boolean.size(node) == len(shadow[node])
    assert packed.snapshot() == boolean.snapshot()
    assert packed.memory_bytes() == boolean.memory_bytes()


def test_single_fact_fast_path_reports_growth():
    store = MatrixFactStore(1, 70)
    assert store.insert_all(0, [64])
    assert not store.insert_all(0, [64])
    assert store.insert_all(0, [63])
    assert store.get(0) == {63, 64}


# -- masked transfer and the oracle worklist ----------------------------------


def test_mask_transfer_matches_set_transfer(app):
    for method in app.methods[:12]:
        wl = SequentialWorklist(method)
        masked = MaskTransfer(wl.transfer)
        result = wl.run()
        for node, facts in enumerate(result.node_facts):
            in_mask = mask_from(facts)
            out_set = wl.transfer.out_facts(node, set(facts))
            assert mask_to_set(masked.out_mask(node, in_mask)) == out_set


def _assert_worklist_matches_seed_oracle(app):
    with seed_path():
        legacy = analyze_app_reference(app)
    fast = analyze_app_reference(app)
    assert set(legacy.method_facts) == set(fast.method_facts)
    for signature, reference in legacy.method_facts.items():
        assert fast.method_facts[signature].node_facts == reference.node_facts
        assert fast.method_facts[signature].exit_facts == reference.exit_facts
    assert legacy.summaries == fast.summaries


def test_masked_worklist_matches_legacy_oracle(app):
    _assert_worklist_matches_seed_oracle(app)


@settings(max_examples=10, deadline=None)
@example(seed=_SCC_SEED)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_masked_worklist_matches_seed_oracle_on_random_apps(seed):
    _assert_worklist_matches_seed_oracle(tiny_app(seed))


# -- memory transaction model -------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(
    addresses=st.lists(
        st.integers(min_value=0, max_value=4096), min_size=1, max_size=32
    ),
    access_bytes=st.integers(min_value=1, max_value=128),
)
def test_transactions_fast_equals_scalar(addresses, access_bytes):
    fast = transactions_for_addresses(addresses, access_bytes)
    scalar = _transactions_scalar(addresses, access_bytes)
    assert fast == scalar


# -- mask-native block dynamics -----------------------------------------------


def _block_results(app):
    return AppWorkload.build(app).block_results


def _assert_blocks_match_seed_oracle(app) -> int:
    """Compare every block result; returns the most summary rounds."""
    fast = _block_results(app)
    with seed_path():
        seed = _block_results(app)
    assert len(fast) == len(seed)
    for masked, oracle in zip(fast, seed):
        assert masked.trace_sync == oracle.trace_sync
        assert masked.trace_mer == oracle.trace_mer
        assert masked.summaries == oracle.summaries
        assert masked.seed_sizes == oracle.seed_sizes
        assert set(masked.method_facts) == set(oracle.method_facts)
        for signature, facts in oracle.method_facts.items():
            assert masked.method_facts[signature].node_facts == facts.node_facts
            assert masked.method_facts[signature].exit_facts == facts.exit_facts
    return max((result.trace_sync.summary_rounds for result in fast), default=0)


def test_masked_dynamics_record_the_seed_traces():
    """Mask-native dynamics and the set oracle record equal traces.

    The app has a recursive SCC block that needs a second summary
    round, so the comparison covers re-run rounds as well as both
    dynamics (sync and MER).
    """
    app = AppGenerator(SMALL_PROFILE).generate(1)
    assert _assert_blocks_match_seed_oracle(app) > 1


def test_masked_dynamics_record_the_seed_traces_on_random_apps():
    """The same comparison as a property over generated apps; at least
    one of them has a recursive SCC (more than one summary round)."""
    rounds = []

    @settings(max_examples=10, deadline=None)
    @example(seed=_SCC_SEED)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def check(seed):
        rounds.append(_assert_blocks_match_seed_oracle(tiny_app(seed)))

    check()
    assert max(rounds) > 1, "no generated app had a recursive SCC"


# -- shared per-trace pricing tables ------------------------------------------

#: Default costs are integer-valued, which makes every float sum exact
#: in any order; the skewed table makes accumulation order observable.
_SKEWED_COSTS = CostTable().scaled(
    **{
        f.name: getattr(CostTable(), f.name) * 1.1 + 0.013
        for f in dataclasses.fields(CostTable)
        if isinstance(getattr(CostTable(), f.name), float)
    }
)
#: 48-byte node records straddle 128-byte segments.
_STRADDLING_COSTS = CostTable().scaled(node_record_bytes=48)
_PRICING_CONFIGS = tuple(
    make(costs=costs)
    for costs in (CostTable(), _SKEWED_COSTS, _STRADDLING_COSTS)
    for make in (
        GDroidConfig.plain,
        GDroidConfig.mat_only,
        GDroidConfig.mat_grp,
        GDroidConfig.all_optimizations,
    )
)


@st.composite
def _synthetic_traces(draw):
    """Random traces: empty blocks, single- and multi-warp iterations,
    and SCC blocks charged for several summary rounds."""
    node_count = draw(st.integers(min_value=0, max_value=10))
    groups = [draw(st.integers(min_value=0, max_value=2)) for _ in range(node_count)]
    positions = grouped_storage_order(groups)
    successor = st.integers(min_value=0, max_value=max(node_count - 1, 0))
    meta = tuple(
        NodeMeta(
            node=node,
            method="a.B.m()V",
            local_index=node,
            branch_class=draw(st.integers(min_value=0, max_value=24)),
            group=groups[node],
            grouped_position=positions[node],
            successors=tuple(draw(st.lists(successor, max_size=3))),
            row_words=1,
        )
        for node in range(node_count)
    )
    trace = BlockTrace(
        block_id=0, layer=0, methods=("a.B.m()V",), node_meta=meta
    )
    size = st.integers(min_value=0, max_value=60)
    if node_count:
        node = st.integers(min_value=0, max_value=node_count - 1)
        for _ in range(draw(st.integers(min_value=0, max_value=4))):
            visits = []
            for _ in range(draw(st.integers(min_value=1, max_value=40))):
                visited = draw(node)
                visits.append(
                    VisitRecord(
                        node=visited,
                        in_size=draw(size),
                        out_size=draw(size),
                        new_facts=tuple(
                            draw(size) for _ in meta[visited].successors
                        ),
                        first_visit=draw(st.booleans()),
                    )
                )
            growth = draw(st.dictionaries(node, size, max_size=4))
            trace.iterations.append(
                IterationRecord(
                    worklist_size=len(visits) + draw(size),
                    visits=tuple(visits),
                    growth=tuple(sorted(growth.items())),
                    merged=draw(size),
                )
            )
        seed_sizes = tuple(sorted(draw(st.dictionaries(node, size, max_size=3)).items()))
    else:
        seed_sizes = ()
    trace.summary_rounds = draw(st.integers(min_value=1, max_value=3))
    return trace, seed_sizes


@settings(max_examples=150, deadline=None)
@given(_synthetic_traces())
def test_shared_tables_price_like_the_scalar_replay(case):
    trace, seed_sizes = case
    for config in _PRICING_CONFIGS:
        assert _price_block_tables(trace, config, seed_sizes) == (
            _price_block_scalar(trace, config, seed_sizes)
        )
    # Every config priced the one trace through the same tables.
    assert trace.tables is trace_tables(trace)


def test_shared_tables_price_real_blocks_like_the_scalar_replay():
    app = AppGenerator(SMALL_PROFILE).generate(1)
    results = _block_results(app)
    assert any(result.trace_sync.summary_rounds > 1 for result in results)
    for result in results:
        for config in _PRICING_CONFIGS:
            trace = select_trace(result, config)
            assert _price_block_tables(trace, config, result.seed_sizes) == (
                _price_block_scalar(trace, config, result.seed_sizes)
            )


# -- end-to-end bit-exactness -------------------------------------------------


def test_evaluate_app_bit_exact_vs_seed_path(app):
    """The acceptance criterion: identical fact sets AND cycle counts.

    AppEvaluation equality covers every modeled float time (plain,
    MAT, GRP, full, CPU, Amandroid), the memory footprints and the
    worklist profile -- any drift in facts, traces or accumulation
    order shows up here.
    """
    with seed_path():
        legacy = harness.evaluate_app(app)
    fast = harness.evaluate_app(app)
    assert fast == legacy


# -- parallel pipeline --------------------------------------------------------


def test_plan_chunks_round_robin_and_total():
    assert plan_chunks([0, 1, 2, 3, 4], 2) == [[0, 2, 4], [1, 3]]
    assert plan_chunks([7], 4) == [[7]]
    chunks = plan_chunks(list(range(10)), 3)
    assert sorted(i for chunk in chunks for i in chunk) == list(range(10))


def test_resolve_jobs_env_and_clamping(monkeypatch):
    monkeypatch.delenv("REPRO_BENCH_JOBS", raising=False)
    assert resolve_jobs(None) == 1
    monkeypatch.setenv("REPRO_BENCH_JOBS", "3")
    assert resolve_jobs(None) == 3
    assert resolve_jobs(0) == 1
    assert resolve_jobs(10_000) > 1


def test_parallel_rows_identical_to_serial():
    corpus = AppCorpus(size=3, profile=GeneratorProfile(scale=0.4))
    harness._CACHE.clear()
    serial = harness.evaluate_corpus(corpus, jobs=1, no_cache=True)
    harness._CACHE.clear()
    parallel = harness.evaluate_corpus(corpus, jobs=2, no_cache=True)
    assert parallel == serial
    stats = harness.last_run_stats()
    assert stats.workers == 2
    assert stats.evaluated == 3


def test_worker_context_honors_override_and_env(monkeypatch):
    from repro.bench.parallel import worker_context

    monkeypatch.delenv("REPRO_MP_START", raising=False)
    assert worker_context("spawn").get_start_method() == "spawn"
    monkeypatch.setenv("REPRO_MP_START", "spawn")
    assert worker_context().get_start_method() == "spawn"
    # Unknown names fall back to the automatic choice, never abort.
    monkeypatch.setenv("REPRO_MP_START", "frobnicate")
    assert worker_context().get_start_method() in ("fork", "spawn")


def test_parallel_spawn_path_matches_serial(monkeypatch):
    """The pool must not hard-code fork: a forced ``spawn`` run (the
    only path on fork-less platforms) regenerates bit-identical rows
    from the fully-pickled task tuples."""
    corpus = AppCorpus(size=3, profile=GeneratorProfile(scale=0.4))
    harness._CACHE.clear()
    serial = harness.evaluate_corpus(corpus, jobs=1, no_cache=True)
    harness._CACHE.clear()
    monkeypatch.setenv("REPRO_MP_START", "spawn")
    spawned = harness.evaluate_corpus(corpus, jobs=2, no_cache=True)
    assert spawned == serial


# -- on-disk cache ------------------------------------------------------------


def test_cache_roundtrip_and_warm_skip(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_BENCH_CACHE", raising=False)
    corpus = AppCorpus(size=2, profile=GeneratorProfile(scale=0.4))

    harness._CACHE.clear()
    cold = harness.evaluate_corpus(corpus, jobs=1)
    stats = harness.last_run_stats()
    assert stats.evaluated == 2 and stats.disk_stores == 2
    assert stats.hit_rate == 0.0

    # A fresh process cache must resume entirely from disk.
    harness._CACHE.clear()
    warm = harness.evaluate_corpus(corpus, jobs=1)
    stats = harness.last_run_stats()
    assert stats.disk_hits == 2 and stats.evaluated == 0
    assert stats.hit_rate == 1.0
    assert warm == cold

    # Rows restored from JSON must compare equal field by field.
    for fresh, cached in zip(cold, warm):
        assert dataclasses.asdict(fresh) == dataclasses.asdict(cached)
        assert isinstance(cached.wl_mix_sync, tuple)

    # --no-cache ignores the populated cache.
    harness._CACHE.clear()
    harness.evaluate_corpus(corpus, jobs=1, no_cache=True)
    stats = harness.last_run_stats()
    assert stats.evaluated == 2 and not stats.cache_enabled


def test_cache_key_tracks_config_fingerprint(tmp_path):
    fingerprint = config_fingerprint(harness._CONFIGS)
    key = row_key(2020, 10, 1.0, 3, fingerprint)
    assert key != row_key(2020, 10, 1.0, 4, fingerprint)
    assert key != row_key(2020, 10, 1.0, 3, "other-config")
    cache = EvaluationCache(root=tmp_path, enabled=True)
    assert cache.load(key) is None
    assert cache.misses == 1


def test_corrupt_cache_entry_is_a_miss(tmp_path):
    cache = EvaluationCache(root=tmp_path, enabled=True)
    key = row_key(1, 1, 1.0, 0, "fp")
    tmp_path.mkdir(exist_ok=True)
    (tmp_path / f"{key}.json").write_text("{not json")
    assert cache.load(key) is None
    assert cache.misses == 1
