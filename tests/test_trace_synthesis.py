"""Ahead-of-time trace synthesis: structural + replay equivalence.

Contracts under test:

* ``synthesize_trace`` (schedule side table → DriverTrace, no driver
  execution) produces a trace **structurally identical** to what
  ``record_trace`` builds by shadow-running the emitted driver — every
  event table, tile class, staged item, and disjointness flag —
  across flows, tilings (4/8/flexible), conv, and CPU tiling.
* Replaying a synthesized trace is **bit-identical** to per-tile
  execution for counters, outputs, and board state.
* The benchmark configurations take the synthesis path — no silent
  fallback.
* Unsupported schedules run per tile (a generated kernel never runs
  from a recording); ``REPRO_FAULTS="synth:fail"`` forces that;
  ``REPRO_CHECK=1`` records every synthesized kernel and raises
  :class:`TraceMismatch` on any divergence.
* The hand-written manual drivers are kernels too: they replay their
  synthesized (preinitialized) traces bit-identically to per-tile
  execution, under the one trace lifecycle.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.accelerators import (
    ConvAccelerator,
    MatMulAccelerator,
    make_conv_system,
    make_matmul_system,
)
from repro.baselines.manual import manual_conv_driver, manual_matmul_driver
from repro.codegen import schedule_event_count
from repro.compiler import AXI4MLIRCompiler, KernelCache, default_kernel_cache
from repro.execution import TRACE_COUNTERS, diagnostics
from repro.execution.synthesize import (
    SynthesisUnsupported,
    TraceMismatch,
    assemble_trace,
    diff_traces,
    synthesize_trace,
    trace_columns,
)
from repro.execution.recorder import record_trace
from repro.execution.trace import _TileClass
from repro.soc import make_pynq_z2
from repro.store import decode_payload, encode_payload

from test_tier_matrix import CONFIGS


def _specs(shapes, dtype=np.int32):
    """Row-major arg specs exactly as CompiledKernel.run builds them."""
    itemsize = np.dtype(dtype).itemsize
    out = []
    for shape in shapes:
        strides = [1] * len(shape)
        for axis in range(len(shape) - 2, -1, -1):
            strides[axis] = strides[axis + 1] * shape[axis + 1]
        out.append((tuple(shape), tuple(strides), itemsize,
                    str(np.dtype(dtype))))
    return tuple(out)


def _compile_matmul(version, size, flow, m, n, k, accel_size=None,
                    cpu_tiling=True):
    _, info = make_matmul_system(version, size, flow=flow,
                                 accel_size=accel_size)
    compiler = AXI4MLIRCompiler(info, kernel_cache=KernelCache(),
                                enable_cpu_tiling=cpu_tiling)
    return compiler.compile_matmul(m, n, k)


def _assert_synth_matches_recording(kernel, shapes):
    specs = _specs(shapes)
    synthesized = synthesize_trace(kernel.schedule_table, specs)
    recorded = record_trace(
        kernel.entry_point, specs,
        expected_events=schedule_event_count(kernel.schedule_table),
    )
    assert diff_traces(synthesized, recorded) == []


MATMUL_CONFIGS = [
    # version, size, flow, (m, n, k), accel_size, cpu_tiling
    (1, 4, "Ns", (16, 16, 16), None, True),
    (2, 4, "As", (32, 32, 32), None, True),
    (2, 8, "Bs", (32, 32, 32), None, True),
    (3, 4, "Ns", (24, 16, 32), None, True),
    (3, 8, "As", (64, 64, 64), None, True),
    (3, 8, "Cs", (64, 64, 64), None, True),
    (4, 4, "As", (64, 64, 128), (32, 16, 64), True),
    (3, 4, "As", (256, 256, 256), None, True),   # CPU tiling kicks in
    (3, 4, "Ns", (64, 64, 64), None, False),
]


class TestStructuralIdentity:
    @pytest.mark.parametrize(
        "version,size,flow,dims,accel_size,cpu_tiling", MATMUL_CONFIGS
    )
    def test_matmul_synthesis_equals_recording(
        self, version, size, flow, dims, accel_size, cpu_tiling
    ):
        m, n, k = dims
        kernel = _compile_matmul(version, size, flow, m, n, k,
                                 accel_size=accel_size,
                                 cpu_tiling=cpu_tiling)
        _assert_synth_matches_recording(
            kernel, [(m, k), (k, n), (m, n)]
        )

    def test_conv_synthesis_equals_recording(self):
        _, info = make_conv_system(2, 3)
        kernel = AXI4MLIRCompiler(info, kernel_cache=KernelCache()) \
            .compile_conv(1, 2, 8, 2, 3)
        _assert_synth_matches_recording(
            kernel, [(1, 2, 8, 8), (2, 2, 3, 3), (1, 2, 6, 6)]
        )

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(
        version=st.sampled_from([2, 3]),
        flow=st.sampled_from(["Ns", "As", "Bs"]),
        tiles_m=st.integers(1, 5),
        tiles_n=st.integers(1, 5),
        tiles_k=st.integers(1, 5),
    )
    def test_synthesis_property(self, version, flow, tiles_m, tiles_n,
                                tiles_k):
        size = 4
        m, n, k = size * tiles_m, size * tiles_n, size * tiles_k
        kernel = _compile_matmul(version, size, flow, m, n, k)
        _assert_synth_matches_recording(kernel, [(m, k), (k, n), (m, n)])


def _run_kernel(kernel, hw, m, n, k, runs=1):
    board = make_pynq_z2()
    board.attach_accelerator(hw)
    rng = np.random.default_rng(17)
    a = rng.integers(-7, 7, (m, k)).astype(np.int32)
    b = rng.integers(-7, 7, (k, n)).astype(np.int32)
    c = np.zeros((m, n), np.int32)
    counters = None
    for _ in range(runs):
        counters = kernel.run(board, a, b, c)
    caches = board.caches
    return (
        counters.as_dict(), c.tobytes(), board.clock,
        (caches.l1.hits, caches.l1.misses, caches.l2.hits,
         caches.l2.misses),
        [tuple(ways) for ways in caches.l1._sets],
        (hw.total_cycles, hw.instructions_executed),
        board.dma.input_words.tobytes(),
        board.dma.output_words.tobytes(),
    )


class TestReplayEquivalence:
    @pytest.mark.parametrize("version,size,flow", [
        (2, 4, "As"), (3, 8, "Cs"), (1, 4, "Ns"),
    ])
    def test_synthesized_replay_matches_recorded_replay(
        self, version, size, flow, monkeypatch
    ):
        m = n = k = 32

        def measure():
            hw, info = make_matmul_system(version, size, flow=flow)
            kernel = AXI4MLIRCompiler(info, kernel_cache=KernelCache()) \
                .compile_matmul(m, n, k)
            return _run_kernel(kernel, hw, m, n, k, runs=2)

        synthesized = measure()
        # Without a trace the kernel runs per tile: the oracle.
        monkeypatch.setenv("REPRO_FAULTS", "synth:fail")
        per_tile = measure()
        assert synthesized == per_tile


class TestTraceSources:
    @pytest.mark.usefixtures("clean_faults")
    def test_benchmark_configs_take_synthesis_path(self):
        """No benchmark kernel silently falls off the synthesis path."""
        before = dict(TRACE_COUNTERS)
        configs = [
            # The figure-grid matmul families (dims=64 column).
            (2, 8, "Ns", 64), (3, 8, "As", 64), (3, 8, "Bs", 64),
            (3, 16, "Cs", 64), (1, 8, "Ns", 64),
            # CPU-tiled ablation shape (affine inner-loop bounds).
            (3, 4, "As", 256),
        ]
        for version, size, flow, dims in configs:
            hw, info = make_matmul_system(version, size, flow=flow)
            board = make_pynq_z2()
            board.attach_accelerator(hw)
            kernel = AXI4MLIRCompiler(info, kernel_cache=KernelCache()) \
                .compile_matmul(dims, dims, dims)
            rng = np.random.default_rng(1)
            a = rng.integers(-5, 5, (dims, dims)).astype(np.int32)
            b = rng.integers(-5, 5, (dims, dims)).astype(np.int32)
            kernel.run(board, a, b, np.zeros((dims, dims), np.int32))
        # Flexible (v4 cfg) and conv benchmark families.
        hw, info = make_matmul_system(4, 16, flow="As",
                                      accel_size=(32, 16, 64))
        board = make_pynq_z2()
        board.attach_accelerator(hw)
        kernel = AXI4MLIRCompiler(info, kernel_cache=KernelCache()) \
            .compile_matmul(64, 64, 128)
        rng = np.random.default_rng(2)
        a = rng.integers(-5, 5, (64, 128)).astype(np.int32)
        b = rng.integers(-5, 5, (128, 64)).astype(np.int32)
        kernel.run(board, a, b, np.zeros((64, 64), np.int32))
        hw, info = make_conv_system(2, 3)
        board = make_pynq_z2()
        board.attach_accelerator(hw)
        kernel = AXI4MLIRCompiler(info, kernel_cache=KernelCache()) \
            .compile_conv(1, 2, 8, 2, 3)
        image = rng.integers(-4, 4, (1, 2, 8, 8)).astype(np.int32)
        weights = rng.integers(-4, 4, (2, 2, 3, 3)).astype(np.int32)
        kernel.run(board, image, weights,
                   np.zeros((1, 2, 6, 6), np.int32))

        assert TRACE_COUNTERS["synthesized"] - before["synthesized"] == 8
        assert TRACE_COUNTERS["recorded"] == before["recorded"]
        assert TRACE_COUNTERS["synth_fallback"] == before["synth_fallback"]

    @pytest.mark.usefixtures("clean_faults")
    def test_no_schedule_table_falls_back_to_the_per_tile_driver(self):
        hw, info = make_matmul_system(3, 8, flow="Ns")
        kernel = AXI4MLIRCompiler(info, kernel_cache=KernelCache()) \
            .compile_matmul(16, 16, 16)
        kernel.trace_state.emitted = (kernel.source, None)
        before = dict(TRACE_COUNTERS)
        board = make_pynq_z2()
        board.attach_accelerator(hw)
        rng = np.random.default_rng(4)
        a = rng.integers(-5, 5, (16, 16)).astype(np.int32)
        b = rng.integers(-5, 5, (16, 16)).astype(np.int32)
        c = np.zeros((16, 16), np.int32)
        kernel.run(board, a, b, c)
        assert np.array_equal(c, a.astype(np.int64) @ b.astype(np.int64))
        # Nothing is recorded in its place: the kernel ran per tile.
        assert TRACE_COUNTERS["synth_fallback"] \
            == before["synth_fallback"] + 1
        assert TRACE_COUNTERS["recorded"] == before["recorded"]
        assert kernel.trace_state.failed and kernel.trace_state.trace is None

    @pytest.mark.usefixtures("clean_faults")
    def test_synth_fault_forces_the_per_tile_driver(self, monkeypatch):
        """``synth:fail`` lands on the per-tile driver, not a recording."""
        monkeypatch.setenv("REPRO_FAULTS", "synth:fail")
        hw, info = make_matmul_system(3, 8, flow="Ns")
        kernel = AXI4MLIRCompiler(info, kernel_cache=KernelCache()) \
            .compile_matmul(16, 16, 16)
        before = dict(TRACE_COUNTERS)
        board = make_pynq_z2()
        board.attach_accelerator(hw)
        rng = np.random.default_rng(4)
        a = rng.integers(-5, 5, (16, 16)).astype(np.int32)
        b = rng.integers(-5, 5, (16, 16)).astype(np.int32)
        kernel.run(board, a, b, np.zeros((16, 16), np.int32))
        assert TRACE_COUNTERS["recorded"] == before["recorded"]
        assert TRACE_COUNTERS["synthesized"] == before["synthesized"]
        assert kernel.trace_state.failed
        # The forced rung is visible as what it is: a fallback.
        assert TRACE_COUNTERS["synth_fallback"] \
            == before["synth_fallback"] + 1

    def test_diagnostics_shape(self):
        report = diagnostics()
        assert set(report) == {"stage_timings", "trace_sources",
                               "metrics_plan", "model_plan", "store",
                               "tuning", "faults", "native", "service"}
        assert "trace_synth_s" in report["stage_timings"]
        assert "manual_record_s" in report["stage_timings"]
        assert "metrics_plan_build_s" in report["stage_timings"]
        assert "metrics_plan_apply_s" in report["stage_timings"]
        assert "store_load_s" in report["stage_timings"]
        assert "store_publish_s" in report["stage_timings"]
        assert set(report["trace_sources"]) == {
            "synthesized", "recorded", "synth_fallback", "disk_loaded",
            "replay_refused",
        }
        assert set(report["metrics_plan"]) == {
            "metrics_plan_hits", "metrics_plan_misses",
            "metrics_plan_fallback", "plan_incremental_hits",
            "component_memo_hits", "component_memo_misses",
        }
        assert set(report["model_plan"]) == {
            "model_plan_step_hits", "model_plan_workers",
        }


class TestCrossCheck:
    def test_cross_check_passes_on_sound_schedule(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHECK", "1")
        hw, info = make_matmul_system(3, 8, flow="As")
        kernel = AXI4MLIRCompiler(info, kernel_cache=KernelCache()) \
            .compile_matmul(32, 32, 32)
        board = make_pynq_z2()
        board.attach_accelerator(hw)
        rng = np.random.default_rng(9)
        a = rng.integers(-5, 5, (32, 32)).astype(np.int32)
        b = rng.integers(-5, 5, (32, 32)).astype(np.int32)
        c = np.zeros((32, 32), np.int32)
        kernel.run(board, a, b, c)
        assert np.array_equal(c, a.astype(np.int64) @ b.astype(np.int64))

    @pytest.mark.usefixtures("clean_faults")
    def test_cross_check_raises_on_divergent_schedule(self, monkeypatch):
        """A side table that disagrees with the driver fails loudly."""
        monkeypatch.setenv("REPRO_CHECK", "1")
        hw, info = make_matmul_system(3, 8, flow="As")
        kernel = AXI4MLIRCompiler(info, kernel_cache=KernelCache()) \
            .compile_matmul(32, 32, 32)
        # Corrupt one staged literal in the side table: synthesis will
        # happily expand it, but the recorded driver disagrees.
        constants = kernel.schedule_table["constants"]
        for name, value in constants.items():
            if value == 34:  # the sA opcode literal
                constants[name] = 35
                break
        board = make_pynq_z2()
        board.attach_accelerator(hw)
        rng = np.random.default_rng(9)
        a = rng.integers(-5, 5, (32, 32)).astype(np.int32)
        b = rng.integers(-5, 5, (32, 32)).astype(np.int32)
        with pytest.raises(TraceMismatch):
            kernel.run(board, a, b, np.zeros((32, 32), np.int32))

    def test_synthesizer_rejects_old_style_tables(self):
        with pytest.raises(SynthesisUnsupported):
            synthesize_trace({"op": "func", "body": []},
                             _specs([(4, 4)]))


def _board_state(board, hw):
    caches = board.caches
    return {
        "clock": board.clock,
        "accel_ready_at": board.accel_ready_at,
        "dma_busy_until": board.dma_busy_until,
        "l1": (caches.l1.hits, caches.l1.misses),
        "l2": (caches.l2.hits, caches.l2.misses),
        "l1_sets": [tuple(ways) for ways in caches.l1._sets],
        "l2_sets": [tuple(ways) for ways in caches.l2._sets],
        "accel": (hw.total_cycles, hw.instructions_executed),
        "in_region": board.dma.input_words.tobytes(),
        "out_region": board.dma.output_words.tobytes(),
    }


class TestManualDriverTracing:
    """The hand-written baselines ride the same trace machinery."""

    @pytest.mark.parametrize("version,size,flow,dims,tiles", [
        (1, 4, "Ns", 16, None),
        (2, 8, "Ns", 32, None),
        (2, 8, "As", 32, None),
        (3, 8, "Bs", 32, None),
        (3, 8, "Cs", 32, None),
        (4, 4, "As", 32, (8, 4, 8)),
    ])
    def test_manual_matmul_traced_is_bit_identical(
        self, version, size, flow, dims, tiles, monkeypatch
    ):
        def measure(no_trace):
            if no_trace:
                monkeypatch.setenv("REPRO_NO_TRACE", "1")
            else:
                monkeypatch.delenv("REPRO_NO_TRACE", raising=False)
            board = make_pynq_z2()
            hw = MatMulAccelerator(size, version)
            board.attach_accelerator(hw)
            rng = np.random.default_rng(3)
            a = rng.integers(-6, 6, (dims, dims)).astype(np.int32)
            b = rng.integers(-6, 6, (dims, dims)).astype(np.int32)
            c = np.zeros((dims, dims), np.int32)
            counters = manual_matmul_driver(board, a, b, c, version,
                                            size, flow, tiles=tiles)
            return counters.as_dict(), c.tobytes(), _board_state(board, hw)

        before = dict(TRACE_COUNTERS)
        reference = measure(no_trace=True)
        traced = measure(no_trace=False)
        assert reference == traced
        assert TRACE_COUNTERS["synth_fallback"] \
            == before["synth_fallback"], "manual driver left replay path"

    def test_manual_conv_traced_is_bit_identical(self, monkeypatch):
        def measure(no_trace):
            if no_trace:
                monkeypatch.setenv("REPRO_NO_TRACE", "1")
            else:
                monkeypatch.delenv("REPRO_NO_TRACE", raising=False)
            board = make_pynq_z2()
            hw = ConvAccelerator(4, 3, max_slice=64)
            board.attach_accelerator(hw)
            rng = np.random.default_rng(5)
            image = rng.integers(-4, 4, (1, 2, 10, 10)).astype(np.int32)
            weights = rng.integers(-4, 4, (3, 2, 3, 3)).astype(np.int32)
            out = np.zeros((1, 3, 8, 8), np.int32)
            counters = manual_conv_driver(board, image, weights, out)
            return counters.as_dict(), out.tobytes(), \
                _board_state(board, hw)

        reference = measure(no_trace=True)
        traced = measure(no_trace=False)
        assert reference == traced


def _manual_kernels():
    """The manual-driver kernels the default kernel cache holds."""
    return [kernel for key, kernel in default_kernel_cache()._entries.items()
            if key[0] == "manual"]


@pytest.mark.usefixtures("clean_faults")
class TestManualTraceLifecycle:
    """A manual baseline is a kernel (``KernelTraceState.replay``): its
    trace is built once, a failed build leaves the configuration per
    tile for good, a replay refusal is not remembered."""

    @pytest.fixture(autouse=True)
    def _fresh_cache(self):
        default_kernel_cache().clear()
        yield
        default_kernel_cache().clear()

    @staticmethod
    def run():
        board = make_pynq_z2()
        hw = MatMulAccelerator(8, 3)
        board.attach_accelerator(hw)
        rng = np.random.default_rng(3)
        a = rng.integers(-6, 6, (32, 32)).astype(np.int32)
        b = rng.integers(-6, 6, (32, 32)).astype(np.int32)
        c = np.zeros((32, 32), np.int32)
        counters = manual_matmul_driver(board, a, b, c, 3, 8, "Cs")
        return counters.as_dict(), c.tobytes(), _board_state(board, hw)

    def per_tile(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_TRACE", "1")
        reference = self.run()
        monkeypatch.delenv("REPRO_NO_TRACE")
        return reference

    def test_a_failed_recording_is_counted_once(self, monkeypatch):
        """A trace build that fails (here: synthesis) is tried once and
        counted once; the driver runs per tile from then on."""
        import repro.compiler as compiler_mod

        reference = self.per_tile(monkeypatch)
        calls = []

        def refuse(*args, **kwargs):
            calls.append(args)
            raise SynthesisUnsupported("unsynthesizable driver")

        monkeypatch.setattr(compiler_mod, "synthesize_trace", refuse)
        before = dict(TRACE_COUNTERS)
        assert self.run() == reference
        assert self.run() == reference
        assert len(calls) == 1
        assert TRACE_COUNTERS["synth_fallback"] \
            == before["synth_fallback"] + 1
        assert TRACE_COUNTERS["synthesized"] == before["synthesized"]
        (kernel,) = _manual_kernels()
        assert kernel.trace_state.failed and kernel.trace_state.trace is None

    def test_a_replay_refusal_keeps_the_recording(self, monkeypatch):
        reference = self.per_tile(monkeypatch)
        before = dict(TRACE_COUNTERS)
        monkeypatch.setenv("REPRO_FAULTS", "replay:fail")
        assert self.run() == reference
        assert self.run() == reference
        (kernel,) = _manual_kernels()
        state = kernel.trace_state
        assert state.trace is not None and not state.failed
        monkeypatch.delenv("REPRO_FAULTS")
        assert self.run() == reference      # replayed, not rebuilt
        assert TRACE_COUNTERS["synthesized"] == before["synthesized"] + 1
        assert TRACE_COUNTERS["synth_fallback"] == before["synth_fallback"]


def _tables(trace) -> dict:
    """Every public table of ``trace``, comparable with ``==``."""
    def plain(value):
        if isinstance(value, np.ndarray):
            return value.dtype.str, value.shape, value.tobytes()
        if isinstance(value, _TileClass):
            return tuple(plain(getattr(value, slot))
                         for slot in _TileClass.__slots__)
        if isinstance(value, (list, tuple)):
            return tuple(plain(item) for item in value)
        return value
    return {name: plain(value) for name, value in vars(trace).items()
            if not name.startswith("_")
            and name not in ("decoded", "metrics_plans")}


@pytest.mark.usefixtures("clean_faults")
class TestColumnsRoundTrip:
    """``trace_columns`` is exactly what ``assemble_trace`` takes: the
    columns of every trace source — synthesis, a ``REPRO_CHECK``
    recording, a manual driver's preinitialized synthesis — reassemble,
    directly and through the kernel store's codec, into the same columns
    and the same derived tables."""

    @staticmethod
    def assert_round_trips(trace):
        columns = trace_columns(trace)
        for rebuilt in (assemble_trace(*columns), assemble_trace(
                *decode_payload(*encode_payload(columns)))):
            assert diff_traces(trace, rebuilt) == []
            assert _tables(rebuilt) == _tables(trace)

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_tier_matrix_traces(self, name):
        for make, arrays, _ in CONFIGS[name]:
            _, kernel = make(KernelCache())
            specs = _specs([array.shape for array in arrays])
            self.assert_round_trips(synthesize_trace(
                kernel.schedule_table, specs, kernel.preinitialized))
            self.assert_round_trips(record_trace(
                kernel.entry_point, specs,
                expected_events=schedule_event_count(kernel.schedule_table),
                preinitialized=kernel.preinitialized))

    def test_manual_traces(self):
        default_kernel_cache().clear()
        TestManualTraceLifecycle.run()
        board = make_pynq_z2()
        board.attach_accelerator(ConvAccelerator(4, 3, max_slice=64))
        rng = np.random.default_rng(5)
        manual_conv_driver(
            board, rng.integers(-4, 4, (1, 2, 10, 10)).astype(np.int32),
            rng.integers(-4, 4, (3, 2, 3, 3)).astype(np.int32),
            np.zeros((1, 3, 8, 8), np.int32))
        traces = [kernel.trace_state.trace for kernel in _manual_kernels()]
        default_kernel_cache().clear()
        assert len(traces) == 2
        for trace in traces:
            assert trace.init_params is None and trace.region_sizes
            self.assert_round_trips(trace)
