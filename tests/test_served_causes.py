"""Every cause a call can run per tile under, reached by name.

``CompiledKernel.run`` counts each call once, as what served it: replay,
or the per-tile driver under one :class:`~repro.execution.trace.Cause`
(``diagnostics()["served"]``).  The enum is closed, and this file walks
it: every member has at least one scenario below, and each scenario's
call must be counted under exactly that member (and in
``trace_sources["replay_refused"]`` exactly when the member is a replay
refusal) and must equal a per-tile twin of the same call on a board with
the same history — counters, output bytes and board clock, or the same
error.  A member no scenario reaches fails ``test_the_walk_is_total``;
it is deleted with its raise site instead.

The scenarios feed the program what reaches it from outside: the
caller's arrays and board, accelerator IR a hand-written driver stands
for (a body recorded like the manual baselines'), and a forged store
entry.
"""

import contextlib

import numpy as np
import pytest

from repro import faults
from repro.accel_config import CPUInfo
from repro.accelerators import (MatMulAccelerator, make_conv_system,
                                make_matmul_system)
from repro.compiler import AXI4MLIRCompiler
from repro.execution import TRACE_COUNTERS, Cause, diagnostics, record_trace
from repro.execution.trace import REFUSALS
from repro.kernel import CompiledKernel
from repro.kernel_cache import KernelCache
from repro.runtime import AxiRuntime
from repro.soc import _native, make_pynq_z2
from repro.store import KernelStore

from test_trace_replay import (_conv_body, _matmul_corner_body,
                               _overlapping_tiles, _repeated_overwrites,
                               _row_major, _two_classes_per_argument)

#: (cause, variant) -> scenario(monkeypatch, tmp_path) -> _Call.
SCENARIOS = {}


def scenario(cause, variant=""):
    def register(build):
        SCENARIOS[(cause, variant)] = build
        return build
    return register


class _Call:
    """One call of ``kernel`` on ``make_board()`` with ``arrays``;
    ``during`` is the context the counted call (not its twin) runs in."""

    def __init__(self, kernel, make_board, arrays, during=None, **run):
        self.kernel = kernel
        self.make_board = make_board
        self.arrays = arrays
        self.during = during or contextlib.nullcontext
        self.run = run

    def outcome(self, **run):
        board = self.make_board()
        arrays = [array.copy() for array in self.arrays]
        try:
            counters = self.kernel.run(board, *arrays, **self.run, **run) \
                .as_dict()
        except Exception as exc:  # the twin must raise the same
            counters = (type(exc).__name__, str(exc))
        return counters, [array.tobytes() for array in arrays], board.clock


def _ints(rng, *shapes, dtype=np.int32):
    return [rng.integers(-9, 9, shape).astype(dtype) for shape in shapes]


def _board(make_hw, **board):
    def make():
        fresh = make_pynq_z2(**board)
        fresh.attach_accelerator(make_hw())
        return fresh
    return make


def _v3():
    return make_matmul_system(3, 4, flow="Ns")


def _matmul_call(rng, dtype=np.int32, **board):
    kernel = AXI4MLIRCompiler(_v3()[1], kernel_cache=KernelCache()) \
        .compile_matmul(8, 8, 8)
    return _Call(kernel, _board(lambda: _v3()[0], **board),
                 _ints(rng, (8, 8), (8, 8), (8, 8), dtype=dtype))


def _body_call(make_hw, body, shapes, rng, traced=True):
    """A hand-written driver as a kernel: its trace recorded, as the
    manual baselines' once were; untraced, its trace build fails."""
    kernel = CompiledKernel(func_name=body.__name__)
    state = kernel.trace_state
    state.entry_point = body
    if traced:
        state.trace = record_trace(body, tuple(
            (shape, _row_major(shape), 4, "int32") for shape in shapes))
    else:
        state.emitted = ("", None)  # no schedule table to synthesize
    return _Call(kernel, _board(make_hw), _ints(rng, *shapes))


def _faulted(monkeypatch, spec):
    @contextlib.contextmanager
    def during():
        monkeypatch.setenv("REPRO_FAULTS", spec)
        faults.reset_faults()
        try:
            yield
        finally:
            monkeypatch.delenv("REPRO_FAULTS")
            faults.reset_faults()
    return during


def _tile(ref, row, col):
    return ref.subview((4 * row, 4 * col), (4, 4))


def _init(rt):
    rt.dma_init(0, 0x4000_0000, 0x1000, 0x4010_0000, 0x1000)


def _product(rt, a, b, off=0):
    """sA, sB, cC of one v3 tile product; returns the staging offset."""
    off = rt.send_memref(_tile(a, 0, 0), rt.send_literal(0x22, off))
    off = rt.send_memref(_tile(b, 0, 0), rt.send_literal(0x23, off))
    return rt.send_literal(0xF0, off)


# -- no trace to replay ------------------------------------------------------

@scenario(Cause.NO_TRACE, "env")
def _no_trace_env(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_NO_TRACE", "1")
    return _matmul_call(np.random.default_rng(1))


@scenario(Cause.NO_TRACE, "runtime-subclass")
def _no_trace_runtime(monkeypatch, tmp_path):
    class Subclass(AxiRuntime):
        pass
    call = _matmul_call(np.random.default_rng(2))
    call.kernel.make_runtime = lambda board: Subclass(board)
    return call


@scenario(Cause.NO_TRACE, "no-c-library")
def _no_trace_library(monkeypatch, tmp_path):
    @contextlib.contextmanager
    def without_the_library():
        with monkeypatch.context() as patch:
            patch.setattr(_native, "native_lib", lambda: None)
            yield
    call = _matmul_call(np.random.default_rng(3))
    call.during = without_the_library
    return call


@scenario(Cause.SYNTH_FAULT)
def _synth_fault(monkeypatch, tmp_path):
    call = _matmul_call(np.random.default_rng(4))
    call.during = _faulted(monkeypatch, "synth:fail")
    return call


@scenario(Cause.SYNTHESIS_FAILED)
def _synthesis_failed(monkeypatch, tmp_path):
    def no_schedule(rt, a, b, c):
        _init(rt)
        rt.flush_send(rt.send_literal(0x24, _product(rt, a, b)))
        rt.recv_memref(_tile(c, 0, 0), 0, accumulate=True)
    return _body_call(lambda: _v3()[0], no_schedule, [(4, 4)] * 3,
                      np.random.default_rng(5), traced=False)


# -- refusals: the call's input or entry state -------------------------------

@scenario(Cause.REPLAY_FAULT)
def _replay_fault(monkeypatch, tmp_path):
    call = _matmul_call(np.random.default_rng(6))
    call.during = _faulted(monkeypatch, "replay:fail")
    return call


@scenario(Cause.NO_DECODER, "accelerator-subclass")
def _no_decoder(monkeypatch, tmp_path):
    class Subclass(MatMulAccelerator):
        pass
    call = _matmul_call(np.random.default_rng(7))
    call.make_board = _board(lambda: Subclass(4, 3))
    return call


@scenario(Cause.NO_DECODER, "no-accelerator")
def _no_accelerator(monkeypatch, tmp_path):
    call = _matmul_call(np.random.default_rng(8))
    call.make_board = make_pynq_z2
    return call


@scenario(Cause.ARGUMENTS_CHANGED, "shape")
def _shape_changed(monkeypatch, tmp_path):
    rng = np.random.default_rng(9)
    call = _matmul_call(rng)
    call.outcome()  # builds the trace for 8x8 operands
    call.arrays = _ints(rng, (8, 16), (16, 8), (8, 8))
    return call


@scenario(Cause.ARGUMENTS_CHANGED, "arity")
def _arity_changed(monkeypatch, tmp_path):
    call = _matmul_call(np.random.default_rng(10))
    call.outcome()
    call.arrays = call.arrays[:2]
    return call


@scenario(Cause.SUB_WORD_LINES)
def _sub_word_lines(monkeypatch, tmp_path):
    return _matmul_call(np.random.default_rng(11),
                        cpu_info=CPUInfo(line_size=4))


@scenario(Cause.STREAMS_NOT_DRAINED)
def _streams_not_drained(monkeypatch, tmp_path):
    call = _matmul_call(np.random.default_rng(12))
    clean = call.make_board

    def dirty():
        board = clean()
        rt = AxiRuntime(board)
        _init(rt)
        rt.flush_send(rt.send_literal(0x24, 0))  # rC, never received
        return board
    call.make_board = dirty
    return call


@scenario(Cause.TILE_DTYPE)
def _tile_dtype(monkeypatch, tmp_path):
    return _matmul_call(np.random.default_rng(13), dtype=np.uint32)


@scenario(Cause.PENDING_CONV_SLICE)
def _pending_slice(monkeypatch, tmp_path):
    def make_hw():
        fresh = make_conv_system(4, 3)[0]
        fresh._slice = [np.int32(5), np.int32(-2)]  # an earlier stream's
        return fresh
    return _conv_call(np.random.default_rng(14), make_hw)


def _compile_conv(cache):
    return AXI4MLIRCompiler(make_conv_system(4, 3)[1], kernel_cache=cache) \
        .compile_conv(1, 4, 6, 2, 3, 1)


def _conv_call(rng, make_hw=lambda: make_conv_system(4, 3)[0]):
    """The 4-channel 3x3 conv over a 6x6 image."""
    return _Call(_compile_conv(KernelCache()), _board(make_hw),
                 _ints(rng, (1, 4, 6, 6), (2, 4, 3, 3), (1, 2, 4, 4)))


@scenario(Cause.TILES_BEYOND_STORAGE)
def _tiles_beyond_storage(monkeypatch, tmp_path):
    def beyond(columns):
        key, pos, starts, regions = columns[3][0]
        columns[3][0] = (key, pos, starts + 10 ** 6, regions)
    cache, call = _forged(tmp_path, beyond,
                          _matmul_call(np.random.default_rng(15)))
    assert cache.disk_hits == 1
    return call


@scenario(Cause.WINDOW_OUTSIDE_PLANE)
def _window_outside_plane(monkeypatch, tmp_path):
    def shifted(columns):
        # The image's windows one pixel right: the last one (bottom
        # right) then ends one element past its channel plane.
        for i, (key, pos, starts, regions) in enumerate(columns[3]):
            if key[0] == 0:
                columns[3][i] = (key, pos, starts + 1, regions)
    cache, call = _forged(tmp_path, shifted,
                          _conv_call(np.random.default_rng(30)),
                          _compile_conv)
    assert cache.disk_hits == 1
    return call


def _forged(tmp_path, forge, call, compile_kernel=None):
    """``call``'s kernel (the v3 8x8x8 one unless ``compile_kernel``
    builds another from a cache) looked up in a cache whose store holds
    its entry with the trace columns ``forge`` edited in place; the
    cache and the call."""
    compile_kernel = compile_kernel or (lambda cache: AXI4MLIRCompiler(
        _v3()[1], kernel_cache=cache).compile_matmul(8, 8, 8))
    _Call(compile_kernel(KernelCache(disk_dir=tmp_path)), call.make_board,
          call.arrays).outcome()
    store = KernelStore(tmp_path)
    (path,) = store.objects_dir().rglob("*.entry")
    name = path.name[:-len(".entry")]
    _, payload = store.load(name)
    columns = list(payload["trace"])
    columns[3] = list(columns[3])
    forge(columns)
    payload["trace"] = tuple(columns)
    assert store.store(name, payload)
    cache = KernelCache(disk_dir=tmp_path)
    return cache, _Call(compile_kernel(cache), call.make_board, call.arrays)


# -- refusals: a schedule the data plane does not serve ----------------------

@scenario(Cause.DECODER_REFUSED, "matmul")
def _matmul_decoder_refused(monkeypatch, tmp_path):
    def partial_instruction(rt, a, c):
        _init(rt)
        rt.flush_send(rt.send_literal(0x22, 0))  # sA, its tile never sent
    return _body_call(lambda: _v3()[0], partial_instruction,
                      [(4, 4), (4, 4)], np.random.default_rng(16))


@scenario(Cause.DECODER_REFUSED, "conv")
def _conv_decoder_refused(monkeypatch, tmp_path):
    def partial_instruction(rt, image, weights, out):
        _init(rt)
        rt.flush_send(rt.send_literal(1, 0))  # sF, its filter never sent
    return _body_call(lambda: make_conv_system(2, 3)[0], partial_instruction,
                      [(1, 2, 4, 4), (2, 2, 3, 3), (1, 2, 2, 2)],
                      np.random.default_rng(17))


@scenario(Cause.PUSHES_UNMATCHED, "count")
def _push_never_received(monkeypatch, tmp_path):
    def body(rt, a, b, c):
        _init(rt)
        rt.flush_send(rt.send_literal(0x24, _product(rt, a, b)))
        rt.recv_memref(_tile(c, 0, 0), 0, accumulate=True)
        rt.flush_send(rt.send_literal(0x24, _product(rt, a, b)))
    return _body_call(lambda: _v3()[0], body, [(4, 4)] * 3,
                      np.random.default_rng(18))


@scenario(Cause.PUSHES_UNMATCHED, "size")
def _receive_of_another_size(monkeypatch, tmp_path):
    def body(rt, a, b, c):
        _init(rt)
        rt.flush_send(rt.send_literal(0x24, _product(rt, a, b)))
        rt.recv_memref(c.subview((0, 0), (4, 2)), 0, accumulate=True)
    return _body_call(lambda: _v3()[0], body, [(4, 4)] * 3,
                      np.random.default_rng(19))


@scenario(Cause.PUSHES_UNMATCHED, "order")
def _receive_before_its_push(monkeypatch, tmp_path):
    def body(rt, a, b, c):
        _init(rt)
        rt.flush_send(_product(rt, a, b))
        rt.recv_memref(_tile(c, 0, 0), 0, accumulate=True)
        rt.flush_send(rt.send_literal(0x24, 0))
    return _body_call(lambda: _v3()[0], body, [(4, 4)] * 3,
                      np.random.default_rng(20))


@scenario(Cause.NON_INTEGER)
def _non_integer(monkeypatch, tmp_path):
    def make():
        return make_matmul_system(3, 4, flow="Ns", dtype=np.float32)
    kernel = AXI4MLIRCompiler(make()[1], kernel_cache=KernelCache()) \
        .compile_matmul(8, 8, 8)
    rng = np.random.default_rng(21)
    return _Call(kernel, _board(lambda: make()[0]),
                 [rng.standard_normal((8, 8)).astype(np.float32)
                  for _ in range(3)])


@scenario(Cause.EMPTY_PUSH)
def _empty_push(monkeypatch, tmp_path):
    def body(rt, a, c):
        _init(rt)
        off = rt.send_memref(_tile(a, 0, 0), rt.send_literal(0x22, 0))
        rt.flush_send(rt.send_literal(0x24, off))  # rC of no product
        rt.recv_memref(_tile(c, 0, 0), 0, accumulate=False)
    return _body_call(lambda: _v3()[0], body, [(4, 4), (4, 4)],
                      np.random.default_rng(22))


@scenario(Cause.SPLIT_PUSH)
def _split_push(monkeypatch, tmp_path):
    def body(rt, a, a2, b, c):
        # One push sums products whose A tiles come from two arguments:
        # two operand classes, so the push spans two compute runs.
        _init(rt)
        off = _product(rt, a, b)
        off = rt.send_memref(_tile(a2, 0, 0), rt.send_literal(0x22, off))
        rt.flush_send(rt.send_literal(0x24, rt.send_literal(0xF0, off)))
        rt.recv_memref(_tile(c, 0, 0), 0, accumulate=True)
    return _body_call(lambda: _v3()[0], body, [(4, 4)] * 4,
                      np.random.default_rng(23))


@scenario(Cause.UNEVEN_PUSHES)
def _uneven_pushes(monkeypatch, tmp_path):
    return _body_call(lambda: make_matmul_system(3, 4)[0],
                      _matmul_corner_body(never_loaded=False),
                      [(4, 8), (8, 8), (8, 8)], np.random.default_rng(24))


@scenario(Cause.UNLOADED_OPERAND)
def _unloaded_operand(monkeypatch, tmp_path):
    return _body_call(lambda: make_matmul_system(3, 4)[0],
                      _matmul_corner_body(never_loaded=True),
                      [(4, 8), (8, 8), (8, 8)], np.random.default_rng(25))


def _conv_case(receives, out_shape, seed):
    return _body_call(lambda: make_conv_system(2, 3, max_slice=4)[0],
                      _conv_body(receives),
                      [(1, 2, 4, 4), (6, 2, 3, 3), out_shape],
                      np.random.default_rng(seed))


@scenario(Cause.SHARED_RECEIVE_ARGUMENT)
def _shared_receive_argument(monkeypatch, tmp_path):
    return _conv_case(_two_classes_per_argument, (1, 2, 2, 2), 26)


@scenario(Cause.OVERLAPPING_RECEIVES)
def _overlapping_receives(monkeypatch, tmp_path):
    return _conv_case(_overlapping_tiles, (1, 1, 7, 2), 27)


@scenario(Cause.OVERWRITTEN_REPEAT)
def _overwritten_repeat(monkeypatch, tmp_path):
    return _conv_case(_repeated_overwrites, (1, 2, 2, 2), 28)


# -- the walk ----------------------------------------------------------------

def test_the_walk_is_total():
    """Every member of the closed set has a scenario."""
    assert {cause for cause, _ in SCENARIOS} == set(Cause)


def _served():
    return dict(diagnostics()["served"])


@pytest.mark.usefixtures("clean_faults")
@pytest.mark.parametrize(
    "cause,variant", list(SCENARIOS),
    ids=[f"{cause.value}-{variant}" if variant else cause.value
         for cause, variant in SCENARIOS])
def test_each_cause_is_counted_and_runs_per_tile(cause, variant,
                                                 monkeypatch, tmp_path):
    call = SCENARIOS[cause, variant](monkeypatch, tmp_path)
    before, refused = _served(), TRACE_COUNTERS["replay_refused"]
    with call.during():
        seen = call.outcome()
    after = _served()
    assert {key: after[key] - before[key] for key in after
            if after[key] != before[key]} == {cause.value: 1}
    assert TRACE_COUNTERS["replay_refused"] - refused \
        == (cause in REFUSALS)
    assert seen == call.outcome(trace=False)


@pytest.mark.usefixtures("clean_faults")
def test_replay_refused_is_the_sum_of_the_refusals():
    report = diagnostics()
    assert report["trace_sources"]["replay_refused"] == sum(
        report["served"][cause.value] for cause in REFUSALS)


@pytest.mark.usefixtures("clean_faults")
def test_a_negative_stored_tile_stride_is_quarantined(tmp_path):
    """A stored tile stride is checked on load: a negative one would
    window outside the argument.  The entry is quarantined, the kernel
    compiled afresh and replayed."""
    def negative(columns):
        (arg, sizes, strides), pos, starts, regions = columns[3][0]
        columns[3][0] = ((arg, sizes, (-strides[0],) + strides[1:]),
                         pos, starts, regions)

    cache, call = _forged(tmp_path, negative,
                          _matmul_call(np.random.default_rng(29)))
    assert cache.disk_corrupt == 1 and cache.disk_hits == 0
    before = _served()["replay"]
    seen = call.outcome()
    assert _served()["replay"] == before + 1
    assert seen == call.outcome(trace=False)
