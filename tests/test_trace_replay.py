"""Counter-equivalence of trace-compiled replay vs per-tile execution.

The contract under test: for every supported configuration,
``kernel.run(trace=True)`` (record the driver schedule once, replay it
as batched numpy) produces **bit-identical** results to
``kernel.run(trace=False)`` (the per-tile runtime) — the PerfCounters,
the output arrays (byte-for-byte), the board clock, the cache
hit/miss totals *and* final LRU contents, the DMA staging regions, and
the accelerator statistics.

Wide element types (i64/f64) cannot reach the accelerator end-to-end —
the AXI stream carries 32-bit words and the behavioural models reject
wider dtypes — so for those the contract degrades to: the trace path
must fall back without changing per-tile semantics (including error
behaviour).  Their staging/copy cost paths share the memoized copy
plans exercised by test_copy_equivalence.
"""

import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.accelerators import make_conv_system, make_matmul_system
from repro.compiler import AXI4MLIRCompiler, KernelCache
from repro.execution import (
    Cause,
    TraceUnsupported,
    interpret_function,
    record_trace,
    replay_kernel,
)
from repro.execution.metrics import _cache_digest
from repro.execution.synthesize import assemble_trace, trace_columns
from repro.execution.trace import SERVED_COUNTERS
from repro.kernel import CompiledKernel
from repro.runtime import (
    AxiRuntime,
    CALL_STYLE_MANUAL,
    DoubleBufferedRuntime,
)
from repro.runtime.memref import MemRefDescriptor
from repro.soc import make_pynq_z2
from repro.store import decode_payload, encode_payload


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
        "in_region": board.dma.input_words.tobytes()
        if board.dma is not None else b"",
        "out_region": board.dma.output_words.tobytes()
        if board.dma is not None else b"",
    }


def run_matmul_pair(version, size, flow, m, n, k, dtype=np.int32,
                    accel_size=None, cpu_tiling=True, specialized=True,
                    runtime_cls=None, runtime_kwargs=None, seed=11,
                    runs=1):
    """Run the same kernel per-tile and trace-replayed; return both."""
    results = []
    for trace in (False, True):
        hw, info = make_matmul_system(version, size, flow=flow,
                                      dtype=dtype, accel_size=accel_size)
        board = make_pynq_z2()
        board.attach_accelerator(hw)
        kernel = AXI4MLIRCompiler(
            info, kernel_cache=KernelCache(), enable_cpu_tiling=cpu_tiling,
            specialized_copies=specialized,
        ).compile_matmul(m, n, k)
        rng = np.random.default_rng(seed)
        if np.issubdtype(np.dtype(dtype), np.integer):
            a = rng.integers(-7, 7, (m, k)).astype(dtype)
            b = rng.integers(-7, 7, (k, n)).astype(dtype)
        else:
            a = rng.standard_normal((m, k)).astype(dtype)
            b = rng.standard_normal((k, n)).astype(dtype)
        c = np.zeros((m, n), dtype)
        counters = None
        for _ in range(runs):
            rt = runtime_cls(board, **(runtime_kwargs or {})) \
                if runtime_cls else None
            counters = kernel.run(board, a, b, c, runtime=rt, trace=trace)
        results.append((counters.as_dict(), c.tobytes(),
                        _board_state(board, hw)))
    return results


def assert_pair_identical(pair):
    reference, traced = pair
    assert reference[0] == traced[0], "PerfCounters differ"
    assert reference[1] == traced[1], "outputs differ"
    assert reference[2] == traced[2], "board/accelerator state differs"


MATMUL_CONFIGS = [
    # version, size, flow — across the catalog's flow strategies.
    (1, 4, "Ns"),
    (2, 4, "As"),
    (2, 8, "Bs"),
    (3, 4, "Ns"),
    (3, 4, "As"),
    (3, 8, "Bs"),
    (3, 8, "Cs"),
]


class TestMatmulEquivalence:
    @pytest.mark.parametrize("version,size,flow", MATMUL_CONFIGS)
    def test_flows_and_tilings(self, version, size, flow):
        dims = size * 4
        assert_pair_identical(
            run_matmul_pair(version, size, flow, dims, dims, dims)
        )

    def test_rectangular(self):
        assert_pair_identical(run_matmul_pair(3, 8, "Cs", 32, 16, 64))

    def test_flexible_v4_tiles(self):
        assert_pair_identical(run_matmul_pair(
            4, 16, "Cs", 64, 32, 128, accel_size=(32, 16, 64)
        ))

    @pytest.mark.usefixtures("clean_faults")
    def test_float32(self):
        """The data plane is integer-only: a float kernel's schedule is
        refused, whether its pushes sum several products (Cs) or its
        receives accumulate repeated tiles (Ns), and it runs per tile."""
        for flow in ("Cs", "Ns"):
            case = _compiled_case("matmul", version=3, size=8, flow=flow,
                                  dtype=np.float32, shape=(32, 32, 32))
            _assert_refused(case, Cause.NON_INTEGER,
                            np.random.default_rng(11))

    def test_unspecialized_copies(self):
        assert_pair_identical(run_matmul_pair(
            3, 8, "Ns", 32, 32, 32, specialized=False
        ))

    def test_cpu_tiling_disabled(self):
        assert_pair_identical(run_matmul_pair(
            3, 16, "Ns", 64, 64, 64, cpu_tiling=False
        ))

    def test_manual_call_style(self):
        assert_pair_identical(run_matmul_pair(
            3, 8, "Ns", 32, 32, 32, runtime_cls=AxiRuntime,
            runtime_kwargs={"call_style": CALL_STYLE_MANUAL,
                            "copy_style": "specialized"},
        ))

    def test_manual_copy_style(self):
        assert_pair_identical(run_matmul_pair(
            3, 8, "Ns", 32, 32, 32, runtime_cls=AxiRuntime,
            runtime_kwargs={"copy_style": "manual"},
        ))

    def test_repeated_runs_share_one_board(self):
        """The second replay starts from warm caches and accel state."""
        assert_pair_identical(run_matmul_pair(
            3, 8, "As", 16, 16, 16, runs=3
        ))


class TestDoubleBuffering:
    @pytest.mark.parametrize("flow", ["Ns", "As", "Cs"])
    def test_double_buffered(self, flow):
        assert_pair_identical(run_matmul_pair(
            3, 8, flow, 32, 32, 32, runtime_cls=DoubleBufferedRuntime
        ))

    def test_blocking_runtime(self):
        assert_pair_identical(run_matmul_pair(
            3, 8, "Cs", 32, 32, 32, runtime_cls=AxiRuntime
        ))


def run_conv_pair(in_ch, f_hw, out_ch, out_hw, stride, seed=5):
    in_hw = (out_hw - 1) * stride + f_hw
    results = []
    for trace in (False, True):
        hw, info = make_conv_system(in_ch, f_hw)
        board = make_pynq_z2()
        board.attach_accelerator(hw)
        kernel = AXI4MLIRCompiler(info, kernel_cache=KernelCache()) \
            .compile_conv(1, in_ch, in_hw, out_ch, f_hw, stride)
        rng = np.random.default_rng(seed)
        image = rng.integers(-4, 4, (1, in_ch, in_hw, in_hw)) \
            .astype(np.int32)
        weights = rng.integers(-4, 4, (out_ch, in_ch, f_hw, f_hw)) \
            .astype(np.int32)
        oh = (in_hw - f_hw) // stride + 1
        out = np.zeros((1, out_ch, oh, oh), np.int32)
        counters = kernel.run(board, image, weights, out, trace=trace)
        results.append((counters.as_dict(), out.tobytes(),
                        _board_state(board, hw)))
    return results


class TestConvEquivalence:
    @pytest.mark.parametrize("in_ch,f_hw,out_ch,out_hw,stride", [
        (4, 3, 2, 6, 1),
        (8, 3, 3, 4, 2),
        (2, 1, 2, 4, 1),   # fHW == 1: the Fig. 16 regression geometry
    ])
    def test_conv_configs(self, in_ch, f_hw, out_ch, out_hw, stride):
        assert_pair_identical(
            run_conv_pair(in_ch, f_hw, out_ch, out_hw, stride)
        )


@settings(max_examples=10, deadline=None)
@given(
    tiles_m=st.integers(1, 4), tiles_n=st.integers(1, 4),
    tiles_k=st.integers(1, 4),
    version_flow=st.sampled_from([(1, "Ns"), (2, "As"), (2, "Bs"),
                                  (3, "Cs"), (3, "Ns"), (3, "Bs")]),
    seed=st.integers(0, 2 ** 16),
)
def test_property_replay_counters_bit_identical(tiles_m, tiles_n, tiles_k,
                                                version_flow, seed):
    version, flow = version_flow
    size = 4
    assert_pair_identical(run_matmul_pair(
        version, size, flow, size * tiles_m, size * tiles_n,
        size * tiles_k, seed=seed,
    ))


class TestFallbacks:
    def test_kill_switch_forces_per_tile(self, monkeypatch):
        from repro.execution import STAGE_TIMINGS

        monkeypatch.setenv("REPRO_NO_TRACE", "1")
        before = STAGE_TIMINGS["replay_s"]
        pair = run_matmul_pair(3, 4, "Ns", 16, 16, 16)
        assert_pair_identical(pair)  # both ran per-tile: trivially equal
        assert STAGE_TIMINGS["replay_s"] == before

    def test_custom_runtime_subclass_falls_back(self):
        class EagerRuntime(AxiRuntime):
            def send_literal(self, literal, offset):
                return self.flush_send(super().send_literal(literal, offset))

        pair = run_matmul_pair(3, 4, "Ns", 16, 16, 16,
                               runtime_cls=EagerRuntime)
        assert_pair_identical(pair)

    @pytest.mark.usefixtures("clean_faults")
    def test_without_the_c_library_every_kernel_runs_per_tile(
            self, monkeypatch):
        """Replay runs on the C kernels: without them it is not offered.
        Nothing is synthesized or replayed, and a replay called directly
        is refused before it touches the board."""
        import repro.soc._native as native_mod
        from repro.execution import STAGE_TIMINGS, TRACE_COUNTERS

        def fresh_board():
            hw, info = make_matmul_system(3, 4, flow="Ns")
            board = make_pynq_z2()
            board.attach_accelerator(hw)
            return board, info

        board, info = fresh_board()
        kernel = AXI4MLIRCompiler(info, kernel_cache=KernelCache()) \
            .compile_matmul(16, 16, 16)
        operands = [np.ones((16, 16), np.int32) for _ in range(3)]
        kernel.run(board, *operands)
        trace = kernel.trace_state.trace
        assert trace is not None

        # Every consumer resolves native_lib from _native at call time,
        # so patching the module attribute withholds all C kernels.
        monkeypatch.setattr(native_mod, "native_lib", lambda: None)
        synthesized = TRACE_COUNTERS["synthesized"]
        replay_s = STAGE_TIMINGS["replay_s"]
        assert_pair_identical(run_matmul_pair(3, 8, "Cs", 32, 32, 32))
        assert_pair_identical(run_conv_pair(4, 3, 2, 6, 1))
        assert TRACE_COUNTERS["synthesized"] == synthesized
        assert STAGE_TIMINGS["replay_s"] == replay_s

        board, _ = fresh_board()
        rt = AxiRuntime(board)
        descriptors = [rt.make_memref(array) for array in operands]
        with pytest.raises(TraceUnsupported) as refusal:
            replay_kernel(trace, board, rt, descriptors, False)
        assert refusal.value.cause is Cause.NO_TRACE
        assert board.dma is None and board.clock == 0.0

    def test_send_after_receive_is_unsupported(self):
        """Replay snapshots all staged data up front, so a driver that
        re-sends data it received earlier in the run must be rejected
        at record time (read-after-write hazard)."""
        from repro.execution import TraceUnsupported, record_trace

        def driver(rt, arg0):
            rt.dma_init(0, 0, 4096, 0, 4096)
            sub = arg0.subview((0, 0), (4, 4))
            off = rt.send_memref(sub, rt.send_literal(0x22, 0))
            rt.flush_send(off)
            rt.recv_memref(sub, 0, accumulate=False)
            off = rt.send_memref(sub, rt.send_literal(0x22, 0))
            rt.flush_send(off)
            rt.recv_memref(sub, 0, accumulate=False)

        with pytest.raises(TraceUnsupported, match="read-after-write"):
            record_trace(driver, (((8, 8), (8, 1), 4, "int32"),))

    def test_wide_dtype_changes_nothing(self):
        """i64 data cannot stream through the 32-bit accelerators; the
        trace path must preserve per-tile behaviour exactly, whatever
        that behaviour is (here: an error from the stream decoder)."""
        outcomes = []
        for trace in (False, True):
            hw, info = make_matmul_system(3, 4, flow="Ns")
            board = make_pynq_z2()
            board.attach_accelerator(hw)
            kernel = AXI4MLIRCompiler(
                info, kernel_cache=KernelCache()
            ).compile_matmul(16, 16, 16)
            a = np.ones((16, 16), np.int64)
            b = np.ones((16, 16), np.int64)
            c = np.zeros((16, 16), np.int64)
            try:
                kernel.run(board, a, b, c, trace=trace)
                outcomes.append(("ok", c.tobytes()))
            except Exception as exc:
                outcomes.append((type(exc).__name__, str(exc)))
        assert outcomes[0] == outcomes[1]


# -- the scheduled data plane: schedule once per trace, payload per call ----
#
# The replay data plane derives everything that is fixed by the trace
# and the decoded plan once (the DataSchedule, kept on the plan) and
# touches only operand bytes afterwards.  These tests pin the *reused*
# schedule — across invocations with different data, at moved
# descriptor offsets, after the trace went through the store codec and
# through pickle — to the per-tile driver and the interpreter.

_PAD = 0x5A5A5A5  # guard value around every argument's storage


def _row_major(shape):
    strides = [1] * len(shape)
    for axis in range(len(shape) - 2, -1, -1):
        strides[axis] = strides[axis + 1] * shape[axis + 1]
    return tuple(strides)


def _padded_memref(rt, array, pad, name):
    """``array`` as a memref ``pad`` elements into guarded storage."""
    guard = np.full(pad + 3, _PAD, array.dtype)
    flat = np.concatenate([guard[:pad], array.reshape(-1), guard[pad:]])
    region = rt.board.memory.allocate(int(flat.nbytes), name)
    return MemRefDescriptor(flat, pad, array.shape, _row_major(array.shape),
                            region.base, name)


def _accel_state(hw):
    names = ("_a", "_b", "_c", "tile_m", "tile_n", "tile_k") \
        if hasattr(hw, "_a") else ("_filter", "_slice", "ic", "fhw")
    return {name: np.asarray(getattr(hw, name)).tolist() for name in names}


def _fresh(case, arrays, pads):
    """A fresh board with the case's accelerator, and its arguments."""
    hw = case.make_hw()
    board = make_pynq_z2()
    board.attach_accelerator(hw)
    rt = case.make_runtime(board)
    descriptors = [_padded_memref(rt, array.copy(), pad, f"arg{i}")
                   for i, (array, pad) in enumerate(zip(arrays, pads))]
    return hw, board, rt, descriptors


def _invoke(mode, case, arrays, pads, trace=None):
    """One invocation on a fresh board; everything that must agree."""
    hw, board, rt, descriptors = _fresh(case, arrays, pads)
    before = board.snapshot()
    if mode == "per_tile":
        case.entry_point(rt, *descriptors)
    elif mode == "interpreted":
        interpret_function(case.func_op, descriptors, rt)
    else:
        replay_kernel(trace, board, rt, descriptors, False)
    counters = board.measure_since(before)
    return (counters.as_dict(),
            [d.allocated.tobytes() for d in descriptors],
            _accel_state(hw), _board_state(board, hw))


class _Case:
    """A driver under test: a compiled kernel or a hand-written body."""

    def __init__(self, make_hw, entry_point, shapes, func_op=None,
                 make_runtime=AxiRuntime, dtype=np.int32):
        self.make_hw = make_hw
        self.entry_point = entry_point
        self.shapes = shapes
        self.func_op = func_op
        self.make_runtime = make_runtime
        self.dtype = np.dtype(dtype)
        self._trace = None

    def trace(self):
        """One trace per case, so later examples reuse its schedule."""
        if self._trace is None:
            self._trace = record_trace(self.entry_point, tuple(
                (shape, _row_major(shape), self.dtype.itemsize,
                 self.dtype.name) for shape in self.shapes))
        return self._trace

    def arrays(self, rng):
        if self.dtype.kind == "f":
            return [rng.standard_normal(shape).astype(self.dtype)
                    for shape in self.shapes]
        return [rng.integers(-9, 9, shape).astype(self.dtype)
                for shape in self.shapes]


def _compiled_case(kind, **params):
    if kind == "matmul":
        m, n, k = params.pop("shape")
        system = dict(params)
        make_hw = lambda: make_matmul_system(**system)[0]  # noqa: E731
        info = make_matmul_system(**system)[1]
        kernel = AXI4MLIRCompiler(info, kernel_cache=KernelCache()) \
            .compile_matmul(m, n, k)
        shapes = [(m, k), (k, n), (m, n)]
    else:
        in_ch, f_hw, out_ch, in_hw, stride = params["shape"]
        make_hw = lambda: make_conv_system(in_ch, f_hw)[0]  # noqa: E731
        info = make_conv_system(in_ch, f_hw)[1]
        kernel = AXI4MLIRCompiler(info, kernel_cache=KernelCache()) \
            .compile_conv(1, in_ch, in_hw, out_ch, f_hw, stride)
        out_hw = (in_hw - f_hw) // stride + 1
        shapes = [(1, in_ch, in_hw, in_hw), (out_ch, in_ch, f_hw, f_hw),
                  (1, out_ch, out_hw, out_hw)]
    return _Case(make_hw, kernel.entry_point, shapes,
                 func_op=kernel.func_op, make_runtime=kernel.make_runtime,
                 dtype=params.get("dtype", np.int32))


def _conv_body(receives):
    """A hand-written 2-channel 3x3 conv body over a 4x4 image (2x2
    windows per filter, three passes of two filters);
    ``receives(rt, out, f, pass_)`` places each filter's 4-element
    slice, which is what the cases below vary."""
    def body(rt, image, weights, out):
        rt.dma_init(0, 0x4000_0000, 0x2000, 0x4010_0000, 0x2000)
        off = rt.send_literal(32, 0)            # cfg_fsize
        off = rt.send_dim(weights, 3, off)
        off = rt.send_literal(16, off)          # cfg_ic
        off = rt.send_dim(image, 1, off)
        rt.flush_send(off)
        for pass_ in range(3):
            for f in range(2):
                off = rt.send_literal(1, 0)     # sF
                off = rt.send_memref(
                    weights.subview((2 * pass_ + f, 0, 0, 0), (1, 2, 3, 3)),
                    off)
                for oh in range(2):
                    for ow in range(2):
                        off = rt.send_literal(70, off)  # sIcO
                        off = rt.send_memref(
                            image.subview((0, 0, oh, ow), (1, 2, 3, 3)), off)
                off = rt.send_literal(8, off)   # rO
                rt.flush_send(off)
                receives(rt, out, f, pass_)
    return body


def _two_classes_per_argument(rt, out, f, pass_):
    # Store, accumulate, store into the same tiles: two receive classes
    # on one argument.  Class by class (both stores, then the
    # accumulate) would keep the accumulate the last store wipes.
    rt.recv_memref(out.subview((0, f, 0, 0), (1, 1, 2, 2)), 0,
                   accumulate=pass_ == 1)


def _repeated_overwrites(rt, out, f, pass_):
    # Every pass stores into the same two tiles: one receive class whose
    # tiles repeat, so only each tile's last payload may land.
    rt.recv_memref(out.subview((0, f, 0, 0), (1, 1, 2, 2)), 0,
                   accumulate=False)


def _overlapping_tiles(rt, out, f, pass_):
    # Accumulates at rows 0..5 of a 7-row plane: distinct starts whose
    # 2x2 tiles overlap.  One vectorized round would add only the last
    # tile into each shared row.
    rt.recv_memref(out.subview((0, 0, 2 * pass_ + f, 0), (1, 1, 2, 2)), 0,
                   accumulate=True)


def _accumulated_repeats(rt, out, f, pass_):
    # Every pass accumulates into the same two tiles: the filter runs of
    # one pass fuse into one block, and each tile sums one payload from
    # each of the three.
    rt.recv_memref(out.subview((0, f, 0, 0), (1, 1, 2, 2)), 0,
                   accumulate=True)


def _conv_uneven_body(rt, image, weights, out):
    # One filter, a 4-window slice then a 2-window slice: uneven push
    # counts inside one block, landing in two receive classes on one
    # argument.
    rt.dma_init(0, 0x4000_0000, 0x2000, 0x4010_0000, 0x2000)
    off = rt.send_literal(32, 0)
    off = rt.send_dim(weights, 3, off)
    off = rt.send_literal(16, off)
    off = rt.send_dim(image, 1, off)
    off = rt.send_literal(1, off)
    off = rt.send_memref(weights.subview((0, 0, 0, 0), (1, 2, 3, 3)), off)
    for rows, target in ((2, (0, 0, 0, 0)), (1, (0, 1, 0, 0))):
        for oh in range(rows):
            for ow in range(2):
                off = rt.send_literal(70, off)
                off = rt.send_memref(
                    image.subview((0, 0, oh, ow), (1, 2, 3, 3)), off)
        off = rt.send_literal(8, off)
        rt.flush_send(off)
        rt.recv_memref(out.subview(target, (1, 1, rows, 2)), 0,
                       accumulate=True)
        off = 0


def _tile(ref, row, col):
    """The 4x4 tile at ``(row, col)`` of a hand-written matmul body."""
    return ref.subview((4 * row, 4 * col), (4, 4))


def _matmul_corner_body(never_loaded):
    """v3 opcodes by hand, each push accumulated into a C tile of its
    own: pushes that collect one and two products (uneven push counts
    inside one block), after, when ``never_loaded``, products on
    operand buffers the stream never loaded (zeros)."""
    def body(rt, a, b, c):
        rt.dma_init(0, 0x4000_0000, 0x1000, 0x4010_0000, 0x1000)
        if never_loaded:
            off = rt.send_literal(0xF0, 0)              # cC, reset state
            rt.flush_send(rt.send_literal(0x24, off))   # rC
            rt.recv_memref(_tile(c, 0, 0), 0, accumulate=True)
            off = rt.send_memref(_tile(a, 0, 0),
                                 rt.send_literal(0x22, 0))  # sA only
            off = rt.send_literal(0xF0, off)
            rt.flush_send(rt.send_literal(0x24, off))
            rt.recv_memref(_tile(c, 0, 1), 0, accumulate=True)
        for col, depth in ((0, 1), (1, 2)):
            off = 0
            for k in range(depth):
                off = rt.send_memref(_tile(a, 0, k),
                                     rt.send_literal(0x22, off))
                off = rt.send_memref(_tile(b, k, col),
                                     rt.send_literal(0x23, off))
                off = rt.send_literal(0xF0, off)
            rt.flush_send(rt.send_literal(0x24, off))
            rt.recv_memref(_tile(c, 1, col), 0, accumulate=True)
    return body


def _k_remainder_body(rt, a, b, c):
    """v4 by hand: C (8x8) += A (8x20) @ B (20x8) on 4x4 output tiles,
    k 0..16 at tk 8 (two pushes per tile), then the remainder 16..20 at
    tk 4: two geometries add into every tile."""
    rt.dma_init(0, 0x4000_0000, 0x2000, 0x4010_0000, 0x2000)
    for ks, tk in (((0, 8), 8), ((16,), 4)):
        off = rt.send_literal(0x30, 0)                  # cfg
        for extent in (4, 4, tk):
            off = rt.send_literal(extent, off)
        rt.flush_send(off)
        for row in range(2):
            for col in range(2):
                for k in ks:
                    off = rt.send_memref(
                        a.subview((4 * row, k), (4, tk)),
                        rt.send_literal(0x22, 0))       # sA
                    off = rt.send_memref(
                        b.subview((k, 4 * col), (tk, 4)),
                        rt.send_literal(0x23, off))     # sB
                    off = rt.send_literal(0xF0, off)    # cC
                    rt.flush_send(rt.send_literal(0x24, off))  # rC
                    rt.recv_memref(_tile(c, row, col), 0,
                                   accumulate=True)


def _uneven_reps_body(rt, a, b, c):
    """v3 by hand, one product per push, accumulated: C tile (0, 0)
    takes one push and (0, 1) two, inside one block."""
    rt.dma_init(0, 0x4000_0000, 0x1000, 0x4010_0000, 0x1000)
    for col, depth in ((0, 1), (1, 2)):
        for k in range(depth):
            off = rt.send_memref(_tile(a, 0, k),
                                 rt.send_literal(0x22, 0))
            off = rt.send_memref(_tile(b, k, col),
                                 rt.send_literal(0x23, off))
            off = rt.send_literal(0xF0, off)
            rt.flush_send(rt.send_literal(0x24, off))
            rt.recv_memref(_tile(c, 0, col), 0, accumulate=True)


_CASES = {}


def _case(name):
    """Cases are built on first use and kept: every hypothesis example
    of one case shares its trace and therefore its cached schedule."""
    if name not in _CASES:
        builders = {
            "v1": lambda: _compiled_case("matmul", version=1, size=4,
                                         flow="Ns", shape=(8, 12, 8)),
            "v2": lambda: _compiled_case("matmul", version=2, size=4,
                                         flow="As", shape=(8, 8, 12)),
            "v3": lambda: _compiled_case("matmul", version=3, size=4,
                                         flow="Cs", shape=(12, 8, 8)),
            "v4-flex": lambda: _compiled_case(
                "matmul", version=4, size=4, flow="Bs",
                accel_size=(8, 4, 8), shape=(16, 8, 16)),
            "conv": lambda: _compiled_case("conv", shape=(2, 3, 3, 6, 1)),
            "conv-stride": lambda: _compiled_case(
                "conv", shape=(3, 3, 2, 7, 2)),
            "conv-two-classes": lambda: _Case(
                lambda: make_conv_system(2, 3, max_slice=4)[0],
                _conv_body(_two_classes_per_argument),
                [(1, 2, 4, 4), (6, 2, 3, 3), (1, 2, 2, 2)]),
            "conv-overlap": lambda: _Case(
                lambda: make_conv_system(2, 3, max_slice=4)[0],
                _conv_body(_overlapping_tiles),
                [(1, 2, 4, 4), (6, 2, 3, 3), (1, 1, 7, 2)]),
            "conv-overwrite": lambda: _Case(
                lambda: make_conv_system(2, 3, max_slice=4)[0],
                _conv_body(_repeated_overwrites),
                [(1, 2, 4, 4), (6, 2, 3, 3), (1, 2, 2, 2)]),
            "conv-accumulate": lambda: _Case(
                lambda: make_conv_system(2, 3, max_slice=4)[0],
                _conv_body(_accumulated_repeats),
                [(1, 2, 4, 4), (6, 2, 3, 3), (1, 2, 2, 2)]),
            "v4-k-remainder": lambda: _Case(
                lambda: make_matmul_system(4, 4)[0], _k_remainder_body,
                [(8, 20), (20, 8), (8, 8)]),
            "v3-uneven-reps": lambda: _Case(
                lambda: make_matmul_system(3, 4)[0], _uneven_reps_body,
                [(4, 8), (8, 8), (4, 8)]),
            "conv-uneven": lambda: _Case(
                lambda: make_conv_system(2, 3, max_slice=4)[0],
                _conv_uneven_body,
                [(1, 2, 4, 4), (1, 2, 3, 3), (1, 2, 2, 2)]),
            "v3-corners": lambda: _Case(
                lambda: make_matmul_system(3, 4)[0],
                _matmul_corner_body(never_loaded=True),
                [(4, 8), (8, 8), (8, 8)]),
            "v3-uneven": lambda: _Case(
                lambda: make_matmul_system(3, 4)[0],
                _matmul_corner_body(never_loaded=False),
                [(4, 8), (8, 8), (8, 8)]),
            # The hot pool's slowest replays, for the election bands.
            "v3-Cs-128": lambda: _compiled_case(
                "matmul", version=3, size=16, flow="Cs",
                shape=(128, 128, 128)),
            "v4-Cs-64": lambda: _compiled_case(
                "matmul", version=4, size=16, flow="Cs",
                accel_size=(16, 16, 16), shape=(64, 64, 64)),
            "v1-Ns-32": lambda: _compiled_case(
                "matmul", version=1, size=8, flow="Ns", shape=(32, 32, 32)),
            "v2-As-32": lambda: _compiled_case(
                "matmul", version=2, size=8, flow="As", shape=(32, 32, 32)),
            "conv-16ch": lambda: _compiled_case(
                "conv", shape=(16, 3, 4, 6, 1)),
        }
        _CASES[name] = builders[name]()
    return _CASES[name]


_CASE_NAMES = ["v1", "v2", "v3", "v4-flex", "conv", "conv-stride",
               "conv-accumulate", "v4-k-remainder", "conv-two-classes",
               "conv-overlap", "conv-overwrite", "conv-uneven",
               "v3-corners", "v3-uneven", "v3-uneven-reps"]

#: The hand-written schedules no host driver emits, and the refusal
#: each meets when its DataSchedule is built.
_REFUSALS = {
    "conv-two-classes": Cause.SHARED_RECEIVE_ARGUMENT,
    "conv-overlap": Cause.OVERLAPPING_RECEIVES,
    "conv-overwrite": Cause.OVERWRITTEN_REPEAT,
    "conv-uneven": Cause.SHARED_RECEIVE_ARGUMENT,
    "v3-corners": Cause.UNLOADED_OPERAND,
    "v3-uneven": Cause.UNEVEN_PUSHES,
    "v3-uneven-reps": Cause.UNEVEN_PUSHES,
}


def _schedules(trace):
    return [getattr(plan, "_data_schedule", None)
            for plan in trace.decoded.values()]


def _refused(case, trace, arrays, pads, cause):
    """Replay refuses with ``cause`` and leaves the board, the arguments
    and the accelerator exactly as the per-tile path expects; returns
    that per-tile run."""
    hw, board, rt, descriptors = _fresh(case, arrays, pads)
    before = ([d.allocated.tobytes() for d in descriptors],
              _accel_state(hw), _board_state(board, hw))
    with pytest.raises(TraceUnsupported) as refusal:
        replay_kernel(trace, board, rt, descriptors, False)
    assert refusal.value.cause is cause
    assert ([d.allocated.tobytes() for d in descriptors],
            _accel_state(hw), _board_state(board, hw)) == before
    assert board.dma is None and rt.dma is None
    # ... so the per-tile driver picks up as if nothing happened.
    snapshot = board.snapshot()
    case.entry_point(rt, *descriptors)
    return (board.measure_since(snapshot).as_dict(),
            [d.allocated.tobytes() for d in descriptors],
            _accel_state(hw), _board_state(board, hw))


def _assert_refused(case, refusal, rng, pads=(4, 0, 2)):
    """``case``'s schedule is refused by name when it is built, and the
    cached verdict on every later call; each refusal leaves nothing
    touched, and the per-tile run equals the interpreter's."""
    arrays = case.arrays(rng)
    reference = _invoke("per_tile", case, arrays, pads)
    if case.func_op is not None:
        assert _invoke("interpreted", case, arrays, pads) == reference
    for _ in range(2):
        assert _refused(case, case.trace(), arrays, pads, refusal) \
            == reference
        assert _schedules(case.trace()) == [refusal]


@pytest.mark.usefixtures("clean_faults")
@pytest.mark.parametrize("name", _CASE_NAMES)
@settings(max_examples=5, deadline=None)
@given(
    seed=st.integers(0, 2 ** 16),
    pads=st.lists(st.tuples(*[st.integers(0, 9)] * 3), min_size=3,
                  max_size=3),
)
def test_property_scheduled_data_plane_matches_slow_tiers(name, seed, pads):
    case = _case(name)
    trace = case.trace()
    refusal = _REFUSALS.get(name)
    rng = np.random.default_rng(seed)
    for round_, round_pads in enumerate(pads):
        arrays = case.arrays(rng)  # fresh data every invocation
        reference = _invoke("per_tile", case, arrays, round_pads)
        if case.func_op is not None:
            assert _invoke("interpreted", case, arrays, round_pads) \
                == reference, "interpreter and per-tile driver differ"
        if round_ == 1:
            # The schedule is derived state: neither the store codec
            # nor pickle carries it, and the copy rebuilds its own.
            built = _schedules(trace)
            assert built and all(s is not None for s in built)
            trace = pickle.loads(pickle.dumps(trace))
            assert _schedules(trace) == [None] * len(built)
        if round_ == 2:
            # The store's copy: the trace's columns, assembled again.
            trace = assemble_trace(*decode_payload(
                *encode_payload(trace_columns(trace))))
            assert trace.decoded == {}
        if refusal is not None:
            # A schedule no host driver emits: refused at every payload
            # and offset, from a fresh verdict as from the cached one.
            for _ in range(2):
                assert _refused(case, trace, arrays, round_pads,
                                refusal) == reference
            assert _schedules(trace) == [refusal]
            continue
        got = _invoke("replay", case, arrays, round_pads, trace=trace)
        assert got[0] == reference[0], "PerfCounters differ"
        assert got[1] == reference[1], "argument storage differs"
        assert got[2] == reference[2], "accelerator end-state differs"
        assert got[3] == reference[3], "board/DMA region state differs"
        # ... and once more on the schedule that call just built.
        assert _invoke("replay", case, arrays, round_pads, trace=trace) \
            == got


# -- exact-float election: every band, pinned to the slowest rungs ----------
#
# An integer block computes through float32 or float64 BLAS when
# ``depth * max|a| * max|b|`` proves the product exact, else through
# int64; a dense block of more than one compute per tile elects on its
# fused depth: the tile's ``reps`` pushes of ``count`` computes, times
# ``tk``.  Each config runs at magnitudes in every band and just
# below and at the 2**24 bound (constant operands, so every class max
# is the bound's factor), against the per-tile driver and the
# interpreter.

#: Case name -> the reduction depth every one of its blocks elects on.
_BAND_DEPTHS = {
    "v3-Cs-128": 8 * 16,    # dense panels: 8 computes of tk 16 per push
    "v4-Cs-64": 4 * 16,     # dense panels
    "v1-Ns-32": 4 * 8,      # per-tile panels: 4 pushes of tk 8 per tile
    "v2-As-32": 4 * 8,      # per-tile panels: 4 pushes of tk 8 per tile
    "conv-16ch": 16 * 3 * 3,
}
#: Band -> (operand magnitude, or None for the 2**24 bound; elected cast).
_BANDS = {"7": (7, np.float32), "2**14": (2 ** 14, np.float64),
          "2**30": (2 ** 30, None), "below-2**24": (None, np.float32),
          "at-2**24": (None, np.float64)}


def _band_operands(case, band, depth, rng):
    magnitude = _BANDS[band][0]
    if magnitude is None:
        a_shape, b_shape, out_shape = case.shapes
        a_max = 2 ** 8
        b_max = -(-2 ** 24 // (depth * a_max))  # least b_max at the bound
        if band.startswith("below"):
            b_max -= 1
        return [np.full(a_shape, a_max, np.int32),
                np.full(b_shape, b_max, np.int32),
                np.zeros(out_shape, np.int32)]

    # Past 2**14 the conv outputs leave int32 on purpose: every rung
    # wraps them modulo the accelerator dtype.
    def signed(shape):
        values = rng.integers(magnitude // 2, magnitude + 1, shape)
        return (values * rng.choice([-1, 1], shape)).astype(np.int32)
    return [signed(shape) for shape in case.shapes]


@pytest.mark.usefixtures("clean_faults")
@pytest.mark.parametrize("band", list(_BANDS))
@pytest.mark.parametrize("name", list(_BAND_DEPTHS))
def test_every_election_band_matches_the_slow_tiers(name, band,
                                                    monkeypatch):
    from repro.execution.replay import ReplayExecutor

    elected = set()
    elect = ReplayExecutor._elect_cast

    def spy(self, block, depth):
        cast = elect(self, block, depth)
        elected.add((depth, cast))
        return cast

    monkeypatch.setattr(ReplayExecutor, "_elect_cast", spy)
    case = _case(name)
    arrays = _band_operands(case, band, _BAND_DEPTHS[name],
                            np.random.default_rng(len(band)))
    reference = _invoke("per_tile", case, arrays, (1, 2, 3))
    assert _invoke("interpreted", case, arrays, (1, 2, 3)) == reference
    got = _invoke("replay", case, arrays, (1, 2, 3), trace=case.trace())
    assert got[0] == reference[0], "PerfCounters differ"
    assert got[1] == reference[1], "argument storage differs"
    assert got[2] == reference[2], "accelerator end-state differs"
    assert got[3] == reference[3], "board/DMA region state differs"
    assert elected == {(_BAND_DEPTHS[name], _BANDS[band][1])}


@pytest.mark.usefixtures("clean_faults")
@pytest.mark.parametrize("mutant", ["saturate", "raise"])
def test_a_rung_that_stops_wrapping_is_caught(mutant, monkeypatch):
    """Pinned must-die mutants of the one integer semantics: the
    per-tile conv model saturating, or raising, on an int32 overflow
    instead of wrapping modulo its dtype fails the 2**30 band."""
    from repro.accelerators.conv import CONV_OPS_PER_CYCLE, ConvAccelerator

    def narrow(values, dtype):
        if mutant == "raise":
            return np.array([int(v) for v in values], dtype=dtype)
        info = np.iinfo(dtype)
        return np.clip(values, info.min, info.max).astype(dtype)

    def send_input_compute(self):
        window = self.read_words(self.window_elements, self.dtype)
        value = window.astype(np.int64) @ self._filter.astype(np.int64)
        self._slice.extend(narrow([value], self.dtype))
        return 2.0 * self.window_elements / CONV_OPS_PER_CYCLE

    case = _case("conv-16ch")
    arrays = _band_operands(case, "2**30", _BAND_DEPTHS["conv-16ch"],
                            np.random.default_rng(len("2**30")))
    replayed = _invoke("replay", case, arrays, (1, 2, 3), trace=case.trace())
    monkeypatch.setattr(ConvAccelerator, "_send_input_compute",
                        send_input_compute)
    try:
        per_tile = _invoke("per_tile", case, arrays, (1, 2, 3))
    except OverflowError:
        assert mutant == "raise"
    else:
        assert mutant == "saturate"
        assert per_tile[1] != replayed[1], "the mutant survived"


def _conv_reference(image, weights, stride):
    windows = np.lib.stride_tricks.sliding_window_view(
        image, weights.shape[2:], axis=(2, 3))[:, :, ::stride, ::stride]
    return np.einsum("ncyxij,ocij->noyx", windows.astype(np.int64),
                     weights.astype(np.int64)).astype(np.int32)


#: ``(spec, operand bound, tracemalloc peak bound)``: the 128**3 hot
#: matmuls (192 KiB of operands), the 256-channel hot conv (64 KiB of
#: image whose 36 windows hold 331 KiB, 147 KiB of filters) and the
#: stride-2 conv (42 KiB of image, 36 windows of 81 KiB, 36 KiB of
#: filters).
_WORKING_SETS = (
    ({"kind": "matmul", "m": 128, "n": 128, "k": 128, "version": 3,
      "size": 16, "flow": "Cs"}, 7, 1 << 20),
    ({"kind": "matmul", "m": 128, "n": 128, "k": 128, "version": 1,
      "size": 8, "flow": "Ns"}, 7, 1 << 20),
    ({"kind": "conv", "batch": 1, "in_ch": 256, "in_hw": 8, "out_ch": 16,
      "f_hw": 3, "stride": 1}, 4, 800 << 10),
    ({"kind": "conv", "batch": 1, "in_ch": 64, "in_hw": 13, "out_ch": 16,
      "f_hw": 3, "stride": 2}, 4, 425 << 10),
)


@pytest.mark.usefixtures("clean_faults")
def test_warm_replay_working_set(monkeypatch):
    """A warm replay of a hot kernel keeps its temporaries small: every
    matmul tile's payload, the sum of its pushes (8 computes each for v3
    Cs, 16 one-compute pushes for v1 Ns), comes from one product of
    deduplicated panels, not per-compute tiles; a conv gathers its
    windows once, as float32 from a channel-last cast of the image, and
    casts its filters once, each with its channel axis moved last (no
    int32 twin of either)."""
    from repro.execution.metrics import METRICS_PLAN_COUNTERS
    from repro.experiments.harness import compile_request

    monkeypatch.delenv("REPRO_CHECK", raising=False)
    rng = np.random.default_rng(30)
    for spec, bound, peak_bound in _WORKING_SETS:
        request = compile_request(spec)
        inputs = [rng.integers(-bound, bound, shape).astype(np.int32)
                  for shape in request.input_shapes]
        for _ in range(2):
            compile_request(spec).run(inputs)
        board = make_pynq_z2()
        board.attach_accelerator(request.hw)
        output = np.zeros(request.output_shape, np.int32)
        hits = METRICS_PLAN_COUNTERS["metrics_plan_hits"]
        tracemalloc.start()
        try:
            request.kernel.run(board, *inputs, output)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert METRICS_PLAN_COUNTERS["metrics_plan_hits"] == hits + 1
        expected = inputs[0] @ inputs[1] if spec["kind"] == "matmul" \
            else _conv_reference(*inputs, spec["stride"])
        assert np.array_equal(output, expected)
        assert peak <= peak_bound, f"{spec}: {peak / 1024:.0f} KiB"


@pytest.mark.usefixtures("clean_faults")
class TestScheduleIsDerivedState:
    def test_repeated_tiles_scatter_once_per_class(self):
        """An integer accumulate sums each tile's pushes in its product:
        one write per distinct tile, with no repeat entry (an overwrite
        of a repeated tile is refused)."""
        for name in ("v1-Ns-32", "v2-As-32"):
            case = _case(name)
            _invoke("replay", case, case.arrays(np.random.default_rng(0)),
                    (0, 0, 0), trace=case.trace())
            (schedule,) = _schedules(case.trace())
            starts = case.trace().recv_classes[0].starts
            tiles = np.unique(starts)
            assert starts.size == 4 * tiles.size
            ((class_id, scattered),) = schedule.scatters
            assert class_id == 0 and np.array_equal(scattered, tiles)
            (block,) = schedule.blocks
            assert (block.group, block.reps) == (4, 4)
            assert block.target == (0, slice(0, tiles.size))

    def test_conv_filters_fuse_into_one_product(self):
        """All three filters in one ``windows @ filters`` product, on
        both operand classes whole and in order: no gather copy."""
        case = _case("conv")
        _invoke("replay", case, case.arrays(np.random.default_rng(0)),
                (0, 0, 0), trace=case.trace())
        (schedule,) = _schedules(case.trace())
        (block,) = schedule.blocks
        assert block.a[1] == block.b[1] == slice(None)
        assert case.trace().send_classes[block.b[0]].starts.size == 3
        assert block.target == (0, slice(0, 3))

    def test_lone_payloads_sum_to_their_tiles(self):
        """A push's own payload (what an output region keeps when its
        tile sums several pushes) is found per ordinal: every push's,
        asked for in turn on one schedule, sums per tile to the tile's
        row."""
        from repro.execution.replay import ReplayExecutor
        from repro.execution.trace import decode_for_accelerator

        for name in ("v1-Ns-32", "conv-accumulate"):
            case = _case(name)
            trace = case.trace()
            _, board, rt, descriptors = _fresh(
                case, case.arrays(np.random.default_rng(4)), (1, 2, 3))
            executor = ReplayExecutor(
                trace, decode_for_accelerator(trace, board.accelerator),
                board, rt, descriptors, False)
            executor._compute_functional()
            rows = executor._recv_buffers
            sums = [np.zeros(buffer.shape, np.int64) for buffer in rows]
            for ordinal, (class_id, row) in enumerate(trace.recv_refs):
                tile = executor.schedule.recv_rows[class_id][row]
                sums[class_id][tile] += executor._lone_payload(ordinal)
            assert len(executor.schedule.lone) == len(trace.recv_refs) > 1
            for total, buffer in zip(sums, rows):
                assert np.array_equal(total.astype(buffer.dtype), buffer)

    def test_private_attributes_never_persist(self):
        """Anything hung on a trace or plan under a private name stays
        out of the store manifest and the pickle state."""
        case = _case("v3")
        _invoke("replay", case, case.arrays(np.random.default_rng(0)),
                (0, 0, 0), trace=case.trace())
        trace = pickle.loads(pickle.dumps(case.trace()))  # no schedule
        (plan,) = trace.decoded.values()
        manifest, npz = encode_payload(trace_columns(trace))
        state = (sorted(trace.__getstate__()), sorted(plan.__getstate__()))
        trace._scratch = np.arange(1 << 12)
        plan._scratch = {"not": "encodable", "by": object}
        assert encode_payload(trace_columns(trace)) == (manifest, npz)
        assert (sorted(trace.__getstate__()),
                sorted(plan.__getstate__())) == state
        copy = pickle.loads(pickle.dumps(trace))
        assert not hasattr(copy, "_scratch")
        assert not hasattr(next(iter(copy.decoded.values())), "_scratch")

    def test_large_class_gathers_from_the_live_window(self, monkeypatch):
        """Classes past the up-front gather bound index their window
        block by block; same results."""
        import repro.execution.replay as replay_mod

        monkeypatch.setattr(replay_mod, "_CLASS_ELEMENTS", 8)
        for name in ("v3", "conv"):
            case = _case(name)
            trace = pickle.loads(pickle.dumps(case.trace()))
            arrays = case.arrays(np.random.default_rng(3))
            assert _invoke("replay", case, arrays, (2, 0, 5), trace=trace) \
                == _invoke("per_tile", case, arrays, (2, 0, 5))
            (schedule,) = _schedules(trace)
            assert all(uniq is None for uniq, _ in schedule.send)


def _tiers_agree(kernel, make_hw, inputs, output_shape, interpreted=True):
    """``kernel`` on fresh boards with ``make_hw()`` attached: replayed,
    per tile (``trace=False``) and, unless it is a hand-written driver
    with no IR, interpreted.  Each call must count once in ``served`` as
    what ran it, and all must agree on counters, output bytes, clock
    and both LRU digests.  Returns the output."""
    seen = []
    tiers = (("replay", {"replay": 1}), ("per_tile", {"no_trace": 1}),
             ("interpreted", {}))
    for tier, served in tiers[:3 if interpreted else 2]:
        board = make_pynq_z2()
        board.attach_accelerator(make_hw())
        output = np.zeros(output_shape, np.int32)
        before = dict(SERVED_COUNTERS)
        if tier == "interpreted":
            counters = kernel.run_interpreted(board, *inputs, output)
        else:
            counters = kernel.run(board, *inputs, output,
                                  trace=tier == "replay")
        assert {key: SERVED_COUNTERS[key] - before[key]
                for key in before
                if SERVED_COUNTERS[key] != before[key]} == served
        seen.append((counters.as_dict(), output.tobytes(), board.clock,
                     _cache_digest(board.caches.l1),
                     _cache_digest(board.caches.l2)))
    assert all(other == seen[0] for other in seen[1:])
    return output


def _three_tiers(system, shape, permutation=None):
    """``system``'s ``m x n x k`` kernel through :func:`_tiers_agree`.
    Returns the kernel's trace."""
    m, n, k = shape
    kernel = AXI4MLIRCompiler(make_matmul_system(**system)[1],
                              permutation=permutation,
                              kernel_cache=KernelCache()) \
        .compile_matmul(m, n, k)
    rng = np.random.default_rng(5)
    a = rng.integers(-9, 9, (m, k)).astype(np.int32)
    b = rng.integers(-9, 9, (k, n)).astype(np.int32)
    c = _tiers_agree(kernel, lambda: make_matmul_system(**system)[0],
                     (a, b), (m, n))
    assert np.array_equal(c, a @ b)
    return kernel.trace_state.trace


@pytest.mark.usefixtures("clean_faults")
def test_the_magnitude_bound_covers_unread_storage(monkeypatch):
    """A cast is elected from each class's used storage, a superset of
    its tiles: a stride-2 1x1 conv reads no odd row or column, and 2**30
    there widens the elected cast to float64 but changes no output."""
    from repro.execution.replay import ReplayExecutor
    from repro.experiments.harness import compile_request

    elected = set()
    elect = ReplayExecutor._elect_cast

    def spy(self, block, depth):
        cast = elect(self, block, depth)
        elected.add(cast)
        return cast

    monkeypatch.setattr(ReplayExecutor, "_elect_cast", spy)
    spec = {"kind": "conv", "batch": 1, "in_ch": 64, "in_hw": 9,
            "out_ch": 8, "f_hw": 1, "stride": 2}
    rng = np.random.default_rng(9)
    image = np.full((1, 64, 9, 9), 2 ** 30, np.int32)
    image[..., ::2, ::2] = rng.integers(-4, 4, (1, 64, 5, 5))
    weights = rng.integers(-4, 4, (8, 64, 1, 1)).astype(np.int32)
    request = compile_request(spec)
    output = _tiers_agree(request.kernel, lambda: compile_request(spec).hw,
                          (image, weights), request.output_shape)
    assert np.array_equal(output, _conv_reference(image, weights, 2))
    assert elected == {np.float64}


#: ``(batch, in_ch, in_hw, out_ch, f_hw, stride)`` of the generated
#: convs replay must serve channel-innermost: the hot 256-channel one,
#: the stride-2 one, a stride-2 1x1, a single channel and a batch.
_CONV_GEOMETRIES = {
    "hot": (1, 256, 8, 16, 3, 1),
    "stride-2": (1, 64, 13, 16, 3, 2),
    "1x1-stride-2": (1, 64, 9, 8, 1, 2),
    "in_ch-1": (1, 1, 6, 3, 3, 1),
    "batch-2": (2, 4, 6, 3, 3, 1),
}


def _assert_channel_innermost(trace):
    """Every conv block of every schedule reads both operands from its
    class's channel-last copy: the period is the tile's channel stride
    and the tile's channels are the copy's unit-stride axis."""
    schedules = _schedules(trace)
    assert schedules and all(s.blocks for s in schedules)
    for schedule in schedules:
        for block in schedule.blocks:
            for class_id in (block.a[0], block.b[0]):
                tile = trace.send_classes[class_id]
                period, _, _, (sizes, strides), _ = schedule.layout[class_id]
                assert period == tile.strides[-3]
                assert (sizes[-1], strides[-1]) == (tile.sizes[-3], 1)


@pytest.mark.usefixtures("clean_faults")
@pytest.mark.parametrize("name", list(_CONV_GEOMETRIES))
def test_conv_geometries_replay_channel_innermost(name):
    from repro.experiments.harness import compile_request

    batch, in_ch, in_hw, out_ch, f_hw, stride = _CONV_GEOMETRIES[name]
    spec = {"kind": "conv", "batch": batch, "in_ch": in_ch,
            "in_hw": in_hw, "out_ch": out_ch, "f_hw": f_hw,
            "stride": stride}
    request = compile_request(spec)
    rng = np.random.default_rng(in_hw)
    inputs = [rng.integers(-9, 9, shape).astype(np.int32)
              for shape in request.input_shapes]
    output = _tiers_agree(request.kernel, lambda: compile_request(spec).hw,
                          inputs, request.output_shape)
    assert np.array_equal(output, _conv_reference(*inputs, stride))
    _assert_channel_innermost(request.kernel.trace_state.trace)


def _row_slices_body(rt, image, weights, out):
    """A hand-written 2-channel 3x3 conv over a 5x4 image that pushes
    each filter's 3x2 output plane a row at a time, as an accelerator
    whose slice holds 2 outputs must."""
    rt.dma_init(0, 0x4000_0000, 0x2000, 0x4010_0000, 0x2000)
    off = rt.send_literal(32, 0)                # cfg_fsize
    off = rt.send_dim(weights, 3, off)
    off = rt.send_literal(16, off)              # cfg_ic
    rt.flush_send(rt.send_dim(image, 1, off))
    for f in range(2):
        off = rt.send_memref(weights.subview((f, 0, 0, 0), (1, 2, 3, 3)),
                             rt.send_literal(1, 0))     # sF
        for oh in range(3):
            for ow in range(2):
                off = rt.send_memref(
                    image.subview((0, 0, oh, ow), (1, 2, 3, 3)),
                    rt.send_literal(70, off))           # sIcO
            rt.flush_send(rt.send_literal(8, off))      # rO
            rt.recv_memref(out.subview((0, f, oh, 0), (1, 1, 1, 2)), 0,
                           accumulate=False)
            off = 0


@pytest.mark.usefixtures("clean_faults")
def test_conv_slices_below_the_output_plane_replay_channel_innermost():
    shapes = [(1, 2, 5, 4), (2, 2, 3, 3), (1, 2, 3, 2)]
    kernel = CompiledKernel(func_name="row_slices")
    kernel.trace_state.entry_point = _row_slices_body
    kernel.trace_state.trace = record_trace(_row_slices_body, tuple(
        (shape, _row_major(shape), 4, "int32") for shape in shapes))
    rng = np.random.default_rng(12)
    inputs = [rng.integers(-9, 9, shape).astype(np.int32)
              for shape in shapes[:2]]
    output = _tiers_agree(
        kernel, lambda: make_conv_system(2, 3, max_slice=2)[0], inputs,
        shapes[2], interpreted=False)
    assert np.array_equal(output, _conv_reference(*inputs, 1))
    _assert_channel_innermost(kernel.trace_state.trace)


@pytest.mark.usefixtures("clean_faults")
class TestPerTileAccumulation:
    """A block groups its computes by receive tile and sums each tile's
    pushes in one product of panels; each schedule shape that grouping
    meets, pinned to the per-tile driver and the interpreter.  (Two more
    are hand-written bodies in the property test above:
    ``v4-k-remainder``, where two geometries add into one tile, and
    ``conv-accumulate``, where three blocks do; ``v3-uneven-reps``,
    whose tiles take unequal push counts, is refused by name.)"""

    NS = dict(version=1, size=8, flow="Ns")

    def test_k_outermost_pushes_are_a_pass_apart(self):
        trace = _three_tiers(self.NS, (32, 32, 32),
                             permutation=("k", "m", "n"))
        starts = trace.recv_classes[0].starts
        # Each tile is received once per pass over the 16 tiles.
        assert np.diff(np.flatnonzero(starts == starts[0])).tolist() \
            == [16] * 3
        (schedule,) = _schedules(trace)
        (block,) = schedule.blocks
        assert (block.group, block.reps) == (4, 4)
        assert block.panels is not None

    def test_block_cuts_fall_on_tile_groups(self, monkeypatch):
        import repro.execution.replay as replay_mod

        # Room for 6 of the 8x8x8 computes: the old cut fell inside the
        # second tile's 4 pushes.
        monkeypatch.setattr(replay_mod, "_BLOCK_ELEMENTS", 6 * 64)
        (schedule,) = _schedules(_three_tiers(self.NS, (32, 32, 32)))
        rows = [np.arange(16)[block.target[1]] for block in schedule.blocks]
        assert len(rows) == 16 and all(r.size == 1 for r in rows)
        assert sorted(np.concatenate(rows).tolist()) == list(range(16))
        assert all(block.group == block.reps == 4 == block.a[1].size
                   for block in schedule.blocks)

    def test_pushes_of_several_computes_add_into_one_tile(self):
        # Host cache tiling halves k: every C tile takes two pushes of
        # 16 computes each.
        (schedule,) = _schedules(_three_tiers(
            dict(version=4, size=8, flow="Cs", accel_size=(8, 16, 16)),
            (8, 128, 512)))
        (block,) = schedule.blocks
        assert (block.group, block.reps) == (32, 2)
        assert block.panels is not None

    def test_operands_from_the_live_window(self, monkeypatch):
        import repro.execution.replay as replay_mod

        monkeypatch.setattr(replay_mod, "_CLASS_ELEMENTS", 8)
        (schedule,) = _schedules(_three_tiers(self.NS, (32, 32, 32)))
        assert all(uniq is None for uniq, _ in schedule.send)
        (block,) = schedule.blocks
        assert block.reps == 4 and block.panels is not None


@pytest.mark.usefixtures("clean_faults")
class TestRefusalsLeaveNoTrace:
    """Whatever refuses a replay — an injected fault, a schedule-time
    verdict served from the cache, storage the tiles do not fit — the
    board and the arguments are exactly as the per-tile path expects."""

    def test_schedules_no_driver_emits(self):
        """Every schedule-time refusal, by name, on the hand-written
        body that meets it."""
        for name, refusal in _REFUSALS.items():
            _assert_refused(_case(name), refusal, np.random.default_rng(0))

    def test_injected_replay_fault(self, monkeypatch):
        from repro import faults

        case = _case("v2")
        arrays = case.arrays(np.random.default_rng(8))
        reference = _invoke("per_tile", case, arrays, (4, 0, 2))
        _invoke("replay", case, arrays, (4, 0, 2), trace=case.trace())
        monkeypatch.setenv("REPRO_FAULTS", "replay:fail")
        faults.reset_faults()
        try:
            assert _refused(case, case.trace(), arrays, (4, 0, 2),
                            Cause.REPLAY_FAULT) == reference
        finally:
            monkeypatch.delenv("REPRO_FAULTS")
            faults.reset_faults()

    def test_refusal_served_from_the_cached_schedule(self):
        def body(rt, a, c):
            rt.dma_init(0, 0x4000_0000, 0x1000, 0x4010_0000, 0x1000)
            off = rt.send_literal(0x22, 0)      # sA: loads, never computes
            off = rt.send_memref(a.subview((0, 0), (4, 4)), off)
            off = rt.send_literal(0x24, off)    # rC: pushes an empty sum
            rt.flush_send(off)
            rt.recv_memref(c.subview((0, 0), (4, 4)), 0, accumulate=False)

        case = _Case(lambda: make_matmul_system(3, 4)[0], body,
                     [(4, 4), (4, 4)])
        arrays = case.arrays(np.random.default_rng(9))
        reference = _invoke("per_tile", case, arrays, (4, 0))
        for _ in range(3):  # builds the verdict, then serves it twice
            assert _refused(case, case.trace(), arrays, (4, 0),
                            Cause.EMPTY_PUSH) == reference
            assert _schedules(case.trace()) == [Cause.EMPTY_PUSH]

    def test_storage_too_short_for_the_tiles(self):
        case = _case("v3")
        arrays = case.arrays(np.random.default_rng(10))
        _invoke("replay", case, arrays, (0, 0, 0), trace=case.trace())
        hw, board, rt, descriptors = _fresh(case, arrays, (0, 0, 0))
        short = descriptors[2]
        short.allocated = short.aligned = short.allocated[:-8].copy()
        before = _board_state(board, hw)
        with pytest.raises(TraceUnsupported) as refusal:
            replay_kernel(case.trace(), board, rt, descriptors, False)
        assert refusal.value.cause is Cause.TILES_BEYOND_STORAGE
        assert _board_state(board, hw) == before and board.dma is None
