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

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.accelerators import make_conv_system, make_matmul_system
from repro.compiler import AXI4MLIRCompiler, KernelCache
from repro.execution import METRICS_PLAN_COUNTERS, MetricsPlanMismatch
from repro.execution.metrics import reset_component_memo
from repro.runtime import DoubleBufferedRuntime
from repro.soc import make_pynq_z2
from repro.soc._native import native_lib

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


class TestComponentMemo:
    #: Memoized sub-products of one live build: cost tables, stream
    #: tables, winner maps, timeline sync/aux tables, and (on the
    #: native path) the classification result keyed by LRU start state.
    COMPONENTS_PER_BUILD = 5 if native_lib() is not None else 4

    def test_identical_layout_builds_hit_memo(self, monkeypatch):
        """Two live builds of the same kernel on identically laid-out
        fresh boards: the first misses every component (cost tables,
        stream tables, winner maps, cold-state classification), the
        second hits them all."""
        per_build = self.COMPONENTS_PER_BUILD
        monkeypatch.setenv("REPRO_FAULTS", "metrics.plan:fail")
        reset_component_memo()
        kernel, hw_factory = _matmul_setup(3, 4, "Ns", 16, 16, 16)
        before = dict(METRICS_PLAN_COUNTERS)
        _measure_matmul(kernel, hw_factory, 16, 16, 16, runs=1)
        assert METRICS_PLAN_COUNTERS["component_memo_hits"] \
            == before["component_memo_hits"]
        assert METRICS_PLAN_COUNTERS["component_memo_misses"] \
            == before["component_memo_misses"] + per_build
        _measure_matmul(kernel, hw_factory, 16, 16, 16, runs=1)
        assert METRICS_PLAN_COUNTERS["component_memo_hits"] \
            == before["component_memo_hits"] + per_build
        assert METRICS_PLAN_COUNTERS["component_memo_misses"] \
            == before["component_memo_misses"] + per_build

    def test_distinct_shapes_do_not_alias(self, monkeypatch):
        per_build = self.COMPONENTS_PER_BUILD
        monkeypatch.setenv("REPRO_FAULTS", "metrics.plan:fail")
        reset_component_memo()
        before = dict(METRICS_PLAN_COUNTERS)
        for m in (16, 32):
            kernel, hw_factory = _matmul_setup(3, 4, "Ns", m, 16, 16)
            _measure_matmul(kernel, hw_factory, m, 16, 16, runs=1)
        assert METRICS_PLAN_COUNTERS["component_memo_hits"] \
            == before["component_memo_hits"]
        assert METRICS_PLAN_COUNTERS["component_memo_misses"] \
            == before["component_memo_misses"] + 2 * per_build
