"""Bit-identity of the cached metrics plane (repro.execution.metrics).

The contract under test: applying a cached :class:`MetricsPlan` (the
O(state) path a fingerprint hit takes) produces **bit-identical**
results to evaluating the live metrics plane on every invocation (the
``REPRO_FAULTS="metrics.plan:fail"`` rung) — PerfCounters, output
arrays, the board clock, cache hit/miss totals *and* final LRU
contents, the DMA staging regions, and the accelerator statistics.

Each scenario runs the same kernel twice on two *fresh* boards: the
first invocation builds and caches the plan, the second starts from an
identical board state and must take the plan-hit path (asserted via the
``metrics_plan_hits`` counter).  The faulted run recomputes the
metrics plane live both times; the resulting states must agree
bit-for-bit.
"""

import gc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.accelerators import make_conv_system, make_matmul_system
from repro.compiler import AXI4MLIRCompiler, KernelCache
from repro.execution import METRICS_PLAN_COUNTERS, MetricsPlanMismatch
from repro.execution.metrics import (
    _SHARED_PLANS,
    _cache_digest,
    reset_component_memo,
)
from repro.runtime import DoubleBufferedRuntime
from repro.soc import make_pynq_z2

from test_trace_replay import _board_state


def _measure_matmul(kernel, hw_factory, m, n, k, runs=2, seed=3,
                    runtime_cls=None):
    """Run ``runs`` invocations, each on a fresh board; return states."""
    rng = np.random.default_rng(seed)
    a = rng.integers(-7, 7, (m, k)).astype(np.int32)
    b = rng.integers(-7, 7, (k, n)).astype(np.int32)
    states = []
    for _ in range(runs):
        hw = hw_factory()
        board = make_pynq_z2()
        board.attach_accelerator(hw)
        c = np.zeros((m, n), np.int32)
        rt = runtime_cls(board) if runtime_cls else None
        counters = kernel.run(board, a, b, c, runtime=rt)
        states.append((counters.as_dict(), c.tobytes(),
                       _board_state(board, hw)))
    return states


def _matmul_setup(version, size, flow, m, n, k, **compiler_kwargs):
    hw, info = make_matmul_system(version, size, flow=flow)
    kernel = AXI4MLIRCompiler(info, kernel_cache=KernelCache(),
                              **compiler_kwargs).compile_matmul(m, n, k)
    return kernel, lambda: make_matmul_system(version, size, flow=flow)[0]


MATMUL_CONFIGS = [
    # The benchmark suite's flow strategies and tilings.
    (1, 4, "Ns", 16, 16, 16),
    (2, 8, "As", 32, 32, 32),
    (3, 8, "Bs", 32, 32, 32),
    (3, 8, "Cs", 32, 16, 64),
    (3, 16, "Ns", 64, 64, 64),
]


class TestPlanBitIdentity:
    @pytest.mark.parametrize("version,size,flow,m,n,k", MATMUL_CONFIGS)
    @pytest.mark.usefixtures("clean_faults")
    def test_plan_hit_matches_live_plane(self, version, size, flow,
                                         m, n, k, monkeypatch):
        kernel, hw_factory = _matmul_setup(version, size, flow, m, n, k)
        before_hits = METRICS_PLAN_COUNTERS["metrics_plan_hits"]
        cached_states = _measure_matmul(kernel, hw_factory, m, n, k)
        # The second fresh-board invocation fingerprints identically.
        assert METRICS_PLAN_COUNTERS["metrics_plan_hits"] > before_hits
        # Live (uncached) metrics plane, same kernel, fresh boards.
        monkeypatch.setenv("REPRO_FAULTS", "metrics.plan:fail")
        kernel2, hw_factory2 = _matmul_setup(version, size, flow, m, n, k)
        live_states = _measure_matmul(kernel2, hw_factory2, m, n, k)
        assert cached_states[0] == cached_states[1]
        assert cached_states == live_states

    def test_double_buffered_runtime(self, monkeypatch):
        kernel, hw_factory = _matmul_setup(3, 8, "As", 32, 32, 32)
        cached = _measure_matmul(kernel, hw_factory, 32, 32, 32,
                                 runtime_cls=DoubleBufferedRuntime)
        monkeypatch.setenv("REPRO_FAULTS", "metrics.plan:fail")
        kernel2, hw_factory2 = _matmul_setup(3, 8, "As", 32, 32, 32)
        live = _measure_matmul(kernel2, hw_factory2, 32, 32, 32,
                               runtime_cls=DoubleBufferedRuntime)
        assert cached == live

    def test_conv_plan_hit_matches_live_plane(self, monkeypatch):
        def run(faulted):
            if faulted:
                monkeypatch.setenv("REPRO_FAULTS", "metrics.plan:fail")
            else:
                monkeypatch.delenv("REPRO_FAULTS", raising=False)
            hw, info = make_conv_system(4, 3)
            kernel = AXI4MLIRCompiler(
                info, kernel_cache=KernelCache()
            ).compile_conv(1, 4, 8, 2, 3, 1)
            rng = np.random.default_rng(17)
            image = rng.integers(-4, 4, (1, 4, 8, 8)).astype(np.int32)
            weights = rng.integers(-4, 4, (2, 4, 3, 3)).astype(np.int32)
            states = []
            for _ in range(2):
                hw = make_conv_system(4, 3)[0]
                board = make_pynq_z2()
                board.attach_accelerator(hw)
                out = np.zeros((1, 2, 6, 6), np.int32)
                counters = kernel.run(board, image, weights, out)
                states.append((counters.as_dict(), out.tobytes(),
                               _board_state(board, hw)))
            return states

        cached = run(faulted=False)
        live = run(faulted=True)
        assert cached[0] == cached[1]
        assert cached == live

    @pytest.mark.usefixtures("clean_faults")
    def test_warm_board_rebuilds_plan(self):
        """Repeated runs on ONE board change the fingerprint (warm
        caches, advanced clock, new simulated addresses) — every
        invocation must miss the plan cache and still be bit-identical
        to the per-tile path (covered by test_trace_replay's
        repeated-runs scenario; here we assert the cache discipline)."""
        kernel, hw_factory = _matmul_setup(3, 4, "Ns", 16, 16, 16)
        hw = hw_factory()
        board = make_pynq_z2()
        board.attach_accelerator(hw)
        rng = np.random.default_rng(5)
        a = rng.integers(-7, 7, (16, 16)).astype(np.int32)
        b = rng.integers(-7, 7, (16, 16)).astype(np.int32)
        before = dict(METRICS_PLAN_COUNTERS)
        for _ in range(3):
            kernel.run(board, a, b, np.zeros((16, 16), np.int32))
        assert METRICS_PLAN_COUNTERS["metrics_plan_misses"] \
            == before["metrics_plan_misses"] + 3
        assert METRICS_PLAN_COUNTERS["metrics_plan_hits"] \
            == before["metrics_plan_hits"]


@settings(max_examples=8, deadline=None)
@given(
    tiles_m=st.integers(1, 3), tiles_n=st.integers(1, 3),
    tiles_k=st.integers(1, 3),
    version_flow=st.sampled_from([(1, "Ns"), (2, "As"), (2, "Bs"),
                                  (3, "Cs"), (3, "Ns")]),
    seed=st.integers(0, 2 ** 16),
)
def test_property_plan_hit_bit_identical(tiles_m, tiles_n, tiles_k,
                                         version_flow, seed):
    """Seed-pinned property: plan hits match fresh builds everywhere."""
    version, flow = version_flow
    size = 4
    m, n, k = size * tiles_m, size * tiles_n, size * tiles_k
    kernel, hw_factory = _matmul_setup(version, size, flow, m, n, k)
    states = _measure_matmul(kernel, hw_factory, m, n, k, runs=2,
                             seed=seed)
    assert states[0] == states[1]


class TestSwitches:
    @pytest.mark.usefixtures("clean_faults")
    def test_kill_switch_counts_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "metrics.plan:fail")
        kernel, hw_factory = _matmul_setup(3, 4, "Ns", 16, 16, 16)
        before = dict(METRICS_PLAN_COUNTERS)
        _measure_matmul(kernel, hw_factory, 16, 16, 16)
        assert METRICS_PLAN_COUNTERS["metrics_plan_fallback"] \
            == before["metrics_plan_fallback"] + 2
        assert METRICS_PLAN_COUNTERS["metrics_plan_hits"] \
            == before["metrics_plan_hits"]
        assert METRICS_PLAN_COUNTERS["metrics_plan_misses"] \
            == before["metrics_plan_misses"]

    def test_check_mode_passes_on_sound_plan(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHECK", "1")
        kernel, hw_factory = _matmul_setup(3, 8, "Cs", 32, 32, 32)
        states = _measure_matmul(kernel, hw_factory, 32, 32, 32)
        assert states[0] == states[1]

    @pytest.mark.usefixtures("clean_faults")
    def test_check_mode_raises_on_divergence(self, monkeypatch):
        """A corrupted cached plan must fail loudly under
        REPRO_CHECK=1 instead of silently applying."""
        kernel, hw_factory = _matmul_setup(3, 4, "Ns", 16, 16, 16)
        _measure_matmul(kernel, hw_factory, 16, 16, 16, runs=1)
        trace = kernel.trace_state.trace
        assert trace is not None and trace.metrics_plans
        plan = next(iter(trace.metrics_plans.values()))
        plan.final_state = plan.final_state.copy()
        plan.final_state[0] += 1.0  # corrupt the cpu-cycle end state
        monkeypatch.setenv("REPRO_CHECK", "1")
        with pytest.raises(MetricsPlanMismatch, match="final_state"):
            _measure_matmul(kernel, hw_factory, 16, 16, 16, runs=1)

    @pytest.mark.usefixtures("clean_faults")
    def test_benchmark_configs_take_plan_path(self):
        """No silent fallback: a representative benchmark sweep ends
        with misses+hits and zero fallbacks."""
        before = dict(METRICS_PLAN_COUNTERS)
        for version, size, flow, m, n, k in MATMUL_CONFIGS[:3]:
            kernel, hw_factory = _matmul_setup(version, size, flow,
                                               m, n, k)
            _measure_matmul(kernel, hw_factory, m, n, k)
        assert METRICS_PLAN_COUNTERS["metrics_plan_misses"] \
            > before["metrics_plan_misses"]
        assert METRICS_PLAN_COUNTERS["metrics_plan_hits"] \
            > before["metrics_plan_hits"]
        assert METRICS_PLAN_COUNTERS["metrics_plan_fallback"] \
            == before["metrics_plan_fallback"]


class TestResultsTables:
    def test_benchmark_result_tables_unchanged(self):
        """The committed benchmarks/results/*.txt must reflect exactly
        what the plan-path produces (byte-identity is asserted for the
        tables the unit suite can regenerate quickly)."""
        from pathlib import Path

        from repro.experiments import fig10_rows, format_table

        results = Path(__file__).resolve().parent.parent \
            / "benchmarks" / "results" / "fig10_relevance.txt"
        if not results.exists():
            pytest.skip("benchmark results not generated yet")
        rendered = format_table(
            fig10_rows(),
            ("dims", "accel_size", "accel_version", "task_clock_ms"),
        ) + "\n"
        assert rendered == results.read_text()


def _twin_run(cpu_tiling, interpreted=False, runs=1, **compiler_kwargs):
    """One 32x16x16 v3 matmul, ``runs`` times on one fresh board;
    ``cpu_tiling`` is a no-op at this size, so both settings lower to
    traces of equal content under different kernel-cache keys.  Returns
    the kernel and what must agree with the interpreter."""
    kernel, hw_factory = _matmul_setup(3, 4, "Ns", 32, 16, 16,
                                       enable_cpu_tiling=cpu_tiling,
                                       **compiler_kwargs)
    rng = np.random.default_rng(3)
    a = rng.integers(-7, 7, (32, 16)).astype(np.int32)
    b = rng.integers(-7, 7, (16, 16)).astype(np.int32)
    c = np.zeros((32, 16), np.int32)
    board = make_pynq_z2()
    board.attach_accelerator(hw_factory())
    run = kernel.run_interpreted if interpreted else kernel.run
    for _ in range(runs):
        counters = run(board, a, b, c)
    return kernel, (counters.as_dict(), c.tobytes(), board.clock,
                    _cache_digest(board.caches.l1),
                    _cache_digest(board.caches.l2))


def _plan_traffic():
    return (METRICS_PLAN_COUNTERS["metrics_plan_hits"],
            METRICS_PLAN_COUNTERS["metrics_plan_misses"])


@pytest.mark.usefixtures("clean_faults")
class TestSharedPlans:
    """Traces of equal content share one plan dict, so a kernel's first
    run can be a hit on a plan another kernel built."""

    def test_content_equal_kernels_hit_each_others_plans(self):
        _, oracle = _twin_run(False, interpreted=True)
        hits, misses = _plan_traffic()
        first, seen = _twin_run(False)
        assert seen == oracle
        assert _plan_traffic() == (hits, misses + 1)
        second, seen = _twin_run(True)
        assert seen == oracle
        assert _plan_traffic() == (hits + 1, misses + 1)
        assert second.trace_state.trace is not first.trace_state.trace
        assert second.trace_state.trace.metrics_plans \
            is first.trace_state.trace.metrics_plans

    def test_distinct_shapes_do_not_alias(self):
        hits, misses = _plan_traffic()
        dicts = []
        for m in (16, 32):
            kernel, hw_factory = _matmul_setup(3, 4, "Ns", m, 16, 16)
            _measure_matmul(kernel, hw_factory, m, 16, 16, runs=1)
            dicts.append(kernel.trace_state.trace.metrics_plans)
        assert _plan_traffic() == (hits, misses + 2)
        assert dicts[0] is not dicts[1]
        assert len(dicts[0]) == len(dicts[1]) == 1

    def test_equal_fingerprints_of_other_content_do_not_alias(self):
        """A permuted loop order runs on the same accelerator, layout
        and board state — one fingerprint — but its trace, and what it
        costs, differ: only the content digest keeps it off its
        neighbour's plan."""
        permuted = {"permutation": ("k", "n", "m")}
        _, oracle = _twin_run(False, interpreted=True, **permuted)
        first, other = _twin_run(False)
        hits, misses = _plan_traffic()
        second, seen = _twin_run(False, **permuted)
        assert seen == oracle != other
        assert _plan_traffic() == (hits, misses + 1)
        ours = second.trace_state.trace.metrics_plans
        theirs = first.trace_state.trace.metrics_plans
        assert ours is not theirs and list(ours) == list(theirs)

    def test_check_mode_catches_a_wrong_shared_plan(self, monkeypatch):
        """The shared hit is verified like any other: a plan corrupted
        through kernel A fails kernel B's first run."""
        first, _ = _twin_run(False)
        (plan,) = first.trace_state.trace.metrics_plans.values()
        plan.final_state = plan.final_state.copy()
        plan.final_state[0] += 1.0
        monkeypatch.setenv("REPRO_CHECK", "1")
        with pytest.raises(MetricsPlanMismatch, match="final_state"):
            _twin_run(True)

    @pytest.mark.usefixtures("clean_faults")
    def test_a_twins_plans_ride_along_but_cause_no_write(
            self, tmp_path, monkeypatch):
        """Entries are per kernel, plans per content: a kernel's entry
        is rewritten when *it* is served a plan the entry lacks, not
        because a twin's plan sits in the shared dict — so a process
        that finds everything writes nothing, whichever entry it loads
        first."""
        from repro.store import STORE_COUNTERS

        monkeypatch.setenv("REPRO_KERNEL_CACHE_DIR", str(tmp_path))
        _twin_run(False)            # entry A: the cold-board plan
        _twin_run(True, runs=2)     # entry B: that one and a warm one
        writes = STORE_COUNTERS["store_writes"]
        assert writes >= 3
        reset_component_memo()      # "a new process", other order
        hits, misses = _plan_traffic()
        _twin_run(True, runs=2)
        first, _ = _twin_run(False)
        assert len(first.trace_state.trace.metrics_plans) == 2
        assert _plan_traffic() == (hits + 3, misses)
        assert STORE_COUNTERS["store_writes"] == writes

    def test_registry_does_not_outlive_its_traces(self):
        first, _ = _twin_run(False)
        second, _ = _twin_run(True)
        assert len(_SHARED_PLANS) == 1
        del first, second
        gc.collect()
        assert len(_SHARED_PLANS) == 0


def _fresh_board(hw_factory):
    board = make_pynq_z2()
    board.attach_accelerator(hw_factory())
    return board


def _operands(size=16):
    rng = np.random.default_rng(7)
    return [rng.integers(-7, 7, (size, size)).astype(np.int32)
            for _ in range(2)] + [np.zeros((size, size), np.int32)]


@pytest.mark.usefixtures("clean_faults")
class TestEndState:
    """A plan keeps each cache level's end-state as per-set occupancies
    plus the resident lines, and what is derived from a cache's state
    does not depend on which form the cache holds it in."""

    def test_a_plan_holds_the_resident_lines_only(self):
        kernel, hw_factory = _matmul_setup(3, 4, "Ns", 16, 16, 16)
        oracle = _fresh_board(hw_factory)
        kernel.run(oracle, *_operands(), trace=False)
        kernel.run(_fresh_board(hw_factory), *_operands())
        (plan,) = kernel.trace_state.trace.metrics_plans.values()
        for state, cache in ((plan.l1_state, oracle.caches.l1),
                             (plan.l2_state, oracle.caches.l2)):
            counts, lines = state
            assert counts.tolist() == [len(ways) for ways in cache._sets]
            assert lines.tolist() == [line for ways in cache._sets
                                      for line in reversed(ways)]
            assert counts.nbytes + lines.nbytes \
                <= 2 * cache.num_sets + 8 * cache.occupancy()

    def test_per_set_dicts_and_an_installed_mirror_digest_alike(
            self, monkeypatch):
        """One LRU state reached per tile (per-set dicts) and by replay
        (the plan's end-state installed as the mirror) gives one
        warm-state digest and one plan fingerprint, so a board the
        per-tile driver warmed hits the plan a replayed board built."""
        from repro.execution import metrics
        from repro.soc.cache import warm_state_digest

        kernel, hw_factory = _matmul_setup(3, 4, "Ns", 16, 16, 16)
        per_tile = _fresh_board(hw_factory)
        kernel.run(per_tile, *_operands(), trace=False)
        replayed = _fresh_board(hw_factory)
        kernel.run(replayed, *_operands())
        assert per_tile.caches.l2._mirror is None
        assert replayed.caches.l2._mirror is not None
        assert warm_state_digest(per_tile.caches) \
            == warm_state_digest(replayed.caches)
        fingerprints = []
        real = metrics.plan_fingerprint
        monkeypatch.setattr(
            metrics, "plan_fingerprint",
            lambda *args: fingerprints.append(real(*args)) or
            fingerprints[-1])
        hits, misses = _plan_traffic()
        kernel.run(replayed, *_operands())
        kernel.run(per_tile, *_operands())
        assert fingerprints[0] == fingerprints[1]
        assert _plan_traffic() == (hits + 1, misses + 1)


    def test_a_board_differing_only_in_l2_misses_the_plan(self):
        """Two boards equal in counters, timeline and L1 but not in L2
        (lines the kernel reads, touched through L2 only): the second
        call must not take the plan the first call built, and must equal
        its per-tile twin on a board with the same history."""
        kernel, hw_factory = _matmul_setup(3, 4, "Ns", 16, 16, 16)
        probe = _fresh_board(hw_factory)
        kernel.run(probe, *_operands(), trace=False)
        lines = [line for ways in probe.caches.l2._sets for line in ways]

        def l2_warmed():
            board = _fresh_board(hw_factory)
            for line in lines[:16]:
                board.caches.l2.access_line(line)
            return board

        def state(board):
            return (board.counters.as_dict(), board.clock,
                    board.accel_ready_at, board.dma_busy_until,
                    _cache_digest(board.caches.l1))

        first, second = _fresh_board(hw_factory), l2_warmed()
        assert state(first) == state(second)
        assert _cache_digest(first.caches.l2) \
            != _cache_digest(second.caches.l2)
        kernel.run(first, *_operands())
        hits, misses = _plan_traffic()
        seen = []
        for board, trace in ((second, True), (l2_warmed(), False)):
            operands = _operands()
            counters = kernel.run(board, *operands, trace=trace)
            seen.append((counters.as_dict(), operands[2].tobytes(),
                         board.clock, _cache_digest(board.caches.l1),
                         _cache_digest(board.caches.l2)))
        assert _plan_traffic() == (hits, misses + 1)
        assert seen[0] == seen[1]


class _Writes:
    """A tile class as the last-writer scan reads one."""

    itemsize = 4

    def __init__(self, region_offsets, words):
        self.region_offsets = region_offsets
        self.words = words

    def num_elements(self):
        return self.words


@st.composite
def _staging_streams(draw):
    """A random write stream of a staging region: ``(last_writers
    arguments, the scalar reference's spans)``.  Staged words (when the
    stream has them) and tiles of up to three classes, zero-width
    classes and overlapping spans included.  The used span ends with
    the last word of a class row or a staged word, written or not."""
    classes = [_Writes(np.asarray(draw(st.lists(
        st.integers(0, 24), min_size=1, max_size=5)), dtype=np.int64) * 4,
        draw(st.integers(0, 6))) for _ in range(draw(st.integers(1, 3)))]
    with_words = draw(st.booleans())
    items = draw(st.lists(st.tuples(
        st.integers(-1 if with_words else 0, len(classes) - 1),
        st.integers(0, 30)), max_size=40))
    refs = np.asarray([(c, row % classes[c].region_offsets.size)
                       if c >= 0 else (99, 0) for c, row in items],
                      dtype=np.int64).reshape(-1, 2)
    word_offsets = np.asarray([4 * word for c, word in items if c < 0],
                              dtype=np.int64)
    spans, ordinal = [], 0
    for (c, word), (_, row) in zip(items, refs.tolist()):
        if c < 0:
            spans.append((word, 1, ordinal))
            ordinal += 1
        else:
            spans.append((int(classes[c].region_offsets[row]) // 4,
                          classes[c].words, 0))
    is_word = np.asarray([c < 0 for c, _ in items], dtype=np.uint8) \
        if with_words else None
    return (is_word, refs[:, 0], refs[:, 1], word_offsets, classes,
            64), spans


@pytest.mark.usefixtures("clean_faults")
def test_native_last_writers_match_the_scalar_scan():
    """The C last-writer scan picks the winners a scalar backward scan
    picks, in its order (descending item, ascending word), and stops
    early without losing any."""
    from repro.execution.metrics import last_writers

    from support.last_writers import last_writers as reference

    @settings(max_examples=300, deadline=None)
    @given(_staging_streams())
    def check(stream):
        arguments, spans = stream
        item, pos, src = last_writers(*arguments)
        assert list(zip(item.tolist(), pos.tolist(), src.tolist())) \
            == reference(spans)

    check()


@pytest.mark.usefixtures("clean_faults")
def test_a_write_outside_the_staging_region_is_refused():
    from repro.execution.metrics import last_writers

    refs = np.zeros((1, 2), dtype=np.int64)
    empty = np.empty(0, dtype=np.int64)
    outside = _Writes(np.asarray([-4], dtype=np.int64), 2)
    with pytest.raises(ValueError, match="leaves the staging region"):
        last_writers(None, refs[:, 0], refs[:, 1], empty, [outside], 2)
    inside = _Writes(np.asarray([0], dtype=np.int64), 2)
    with pytest.raises(ValueError, match="leave the staging region"):
        last_writers(None, refs[:, 0], refs[:, 1], empty, [inside], 1)
