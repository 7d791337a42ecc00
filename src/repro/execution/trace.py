"""The driver trace: a kernel's static schedule as flat numpy tables.

The generated host drivers are straight-line loop nests whose ``rt.*``
call sequence is fully determined by the loop bounds — data never
influences control flow.  A :class:`DriverTrace` holds that schedule
(subview offsets, staged tile geometries, opcode literals,
flush/receive boundaries, loop-iteration markers) as flat numpy side
tables.  Its schedule columns come from the emitter's schedule table
(:mod:`repro.execution.synthesize`) or, for the hand-written baselines,
from a shadow run of the driver body (:mod:`repro.execution.recorder`);
one assembler (:func:`~repro.execution.synthesize.assemble_trace`)
turns either into the tables.  Invocations of the kernel then replay it
through :class:`~repro.execution.replay.ReplayExecutor` as batched
numpy, bit-identical to the per-tile path.

A second, accelerator-specific step (:func:`decode_for_accelerator`)
re-runs the staged word stream through a word-level model of the
accelerator's control unit — the same needs-based completion rule as
:meth:`StreamAccelerator.process_stream` — turning the flush segments
into instruction records: which staged tiles load which operand
buffers, which computes accumulate into which output pushes, and how
many accelerator cycles each flush schedules.  The decoders are C
kernels (:mod:`repro.soc._native`), like the rest of replay's
sequential loops: a process without the C library is not offered
replay at all (:func:`trace_enabled`) and runs every kernel per tile.

Anything the trace machinery does not understand raises
:class:`TraceUnsupported`; callers fall back to the per-tile path, so
tracing is always an optimization, never a semantics change.
"""

from __future__ import annotations

import ctypes
import enum
import os
from collections import OrderedDict
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

import numpy as np

from .. import counters
from ..soc import _native  # attribute reads: tests patch native_lib
from ..accelerators.base import StreamAccelerator
from ..accelerators.conv import CONV_LITERALS, CONV_OPS_PER_CYCLE, \
    ConvAccelerator
from ..accelerators.matmul import (
    MATMUL_LITERALS,
    MatMulAccelerator,
    VERSION_OPCODES,
    _MICRO_OPS,
)

#: Env kill-switch: set REPRO_NO_TRACE=1 to force per-tile execution.
TRACE_KILL_SWITCH = "REPRO_NO_TRACE"

#: Wall-clock spent per pipeline stage, cumulative for the process.
#: ``compile_s`` is fed by the compiler; ``diagnostics()`` and
#: ``repro.experiments.stage_timings()`` report it, and ``perf/`` times
#: its layers from it.
STAGE_TIMINGS: Dict[str, float] = counters.section("stage_timings", {
    "compile_s": 0.0,
    # Fed only by REPRO_CHECK=1's reference recordings.
    "trace_record_s": 0.0,
    "trace_synth_s": 0.0,
    # Never fed: kept for a frozen reader (``repro.execution.diagnostics``).
    "manual_record_s": 0.0,
    "replay_s": 0.0,
    # Metrics-plane breakdown (both are *subsets* of replay_s): building
    # a MetricsPlan from scratch vs applying a cached one in O(state).
    "metrics_plan_build_s": 0.0,
    "metrics_plan_apply_s": 0.0,
    # Kernel-store I/O at the kernel cache's two call sites: probing +
    # reconstructing an entry on a memory miss, and publishing one after
    # a replay.  Disjoint
    # from compile_s and replay_s; inside sweep_compile_s /
    # sweep_simulate_s on a sweep.
    "store_load_s": 0.0,
    "store_publish_s": 0.0,
    # Autotuning sweep breakdown: total sweep wall-clock, journal I/O,
    # and the per-point pipeline stages measured inside the workers.
    "sweep_run_s": 0.0,
    "sweep_journal_s": 0.0,
    "sweep_compile_s": 0.0,
    "sweep_estimate_s": 0.0,
    "sweep_simulate_s": 0.0,
})


def add_stage_time(stage: str, seconds: float) -> None:
    """Thread-safely accumulate wall-clock into one pipeline stage.

    Stage times come from arbitrary threads, and float ``+=`` on a
    dict slot is not atomic.
    """
    counters.count(STAGE_TIMINGS, stage, seconds)


#: How each kernel's DriverTrace was obtained this process:
#: ``synthesized`` (ahead-of-time from the schedule side table),
#: ``synth_fallback`` (synthesis failed, so the kernel runs per tile),
#: ``disk_loaded`` (deserialized from the kernel store) — generated
#: kernels and the hand-written baselines alike — and, per call,
#: ``replay_refused``: the calls :data:`SERVED_COUNTERS` counts under a
#: replay refusal (:data:`REFUSALS`).  ``recorded`` is never
#: incremented — a kernel never runs from a recording — and stays
#: declared for a frozen reader (the list is at
#: ``repro.execution.diagnostics``).
TRACE_COUNTERS: Dict[str, int] = counters.section("trace_sources", {
    "synthesized": 0,
    "recorded": 0,
    "synth_fallback": 0,
    "disk_loaded": 0,
    "replay_refused": 0,
})


def trace_enabled() -> bool:
    """Whether replay is offered: not under ``REPRO_NO_TRACE=1``, and
    only while the C library is available (a failed build, the
    ``native.compile`` fault or a :func:`~repro.soc._native.suspend_native`
    scope leaves every kernel per tile)."""
    return os.environ.get(TRACE_KILL_SWITCH, "") != "1" \
        and _native.native_lib() is not None


class Cause(str, enum.Enum):
    """Why one call of a kernel ran per tile: a closed set, one member
    per refusal site, each counted in ``diagnostics()["served"]``."""

    # No trace to replay (not a replay refusal):
    NO_TRACE = "no_trace"  # REPRO_NO_TRACE, a runtime subclass, no C lib
    SYNTH_FAULT = "synth_fault"  # REPRO_FAULTS="synth:fail"
    SYNTHESIS_FAILED = "synthesis_failed"  # detail: the exception's text
    # Replay refusals of the call's input or entry state:
    REPLAY_FAULT = "replay_fault"  # REPRO_FAULTS="replay:fail"
    NO_DECODER = "no_decoder"  # no accelerator, or not an exact class
    ARGUMENTS_CHANGED = "arguments_changed"  # arity, shape or dtype
    SUB_WORD_LINES = "sub_word_lines"  # cache lines under 8 bytes
    STREAMS_NOT_DRAINED = "streams_not_drained"  # an earlier call's words
    TILE_DTYPE = "tile_dtype"  # a tile's dtype is not the stream's
    PENDING_CONV_SLICE = "pending_conv_slice"  # left by an earlier call
    TILES_BEYOND_STORAGE = "tiles_beyond_storage"  # a forged entry's
    # Replay refusals of a schedule the data plane does not serve:
    DECODER_REFUSED = "decoder_refused"  # by the C stream decoder
    PUSHES_UNMATCHED = "pushes_unmatched"  # receives: count, size, order
    NON_INTEGER = "non_integer"
    EMPTY_PUSH = "empty_push"
    SPLIT_PUSH = "split_push"  # one push over two operand classes
    UNEVEN_PUSHES = "uneven_pushes"
    UNLOADED_OPERAND = "unloaded_operand"
    SHARED_RECEIVE_ARGUMENT = "shared_receive_argument"
    OVERLAPPING_RECEIVES = "overlapping_receives"
    OVERWRITTEN_REPEAT = "overwritten_repeat"
    WINDOW_OUTSIDE_PLANE = "window_outside_plane"  # a forged conv tile's


#: The causes a replay raises; ``trace_sources["replay_refused"]`` is
#: their sum in ``diagnostics()["served"]``.
REFUSALS = frozenset(Cause) - {Cause.NO_TRACE, Cause.SYNTH_FAULT,
                               Cause.SYNTHESIS_FAILED}


#: Per call of ``CompiledKernel.run``, what served it: ``replay``, or
#: per tile under one :class:`Cause` (by its value).
SERVED_COUNTERS: Dict[str, int] = counters.section(
    "served", dict.fromkeys(["replay"] + [cause.value for cause in Cause],
                            0))


class TraceUnsupported(RuntimeError):
    """The trace machinery cannot build or replay this call: ``cause``
    names why; the message is ``detail``, else the cause's value."""

    def __init__(self, cause: Cause, detail: str = ""):
        super().__init__(detail or cause.value)
        self.cause = cause


# -- event kinds (cost-stream entries, one per charge step) ---------------
K_LOOP = 0      #: rt.loop_iteration
K_SUB = 1       #: rt.subview_setup
K_CALL = 2      #: the per-call overhead charge of a library call
K_WORD = 3      #: stage_word (literal / dim / idx)
K_COPY = 4      #: charge_memref_copy (send or recv side)
K_FLUSH = 5     #: flush_send with a non-empty staged batch
K_RECV = 6      #: the synchronization part of recv_memref
K_INIT = 7      #: dma_init
K_RWAIT = 8     #: pre-receive wait_sends (a no-op for blocking runtimes)


class _TileClass:
    """All staged (or received) tiles sharing one geometry and operand."""

    __slots__ = ("arg", "sizes", "strides", "itemsize", "accumulate",
                 "starts", "region_offsets", "event_pos", "order")

    def __init__(self, arg, sizes, strides, itemsize, accumulate,
                 starts, region_offsets, event_pos, order):
        self.arg = arg
        self.sizes = sizes
        self.strides = strides
        self.itemsize = itemsize
        self.accumulate = accumulate      # None on the send side
        # One int64 row per tile, in event order:
        self.starts = starts              # element offsets in the arg
        self.region_offsets = region_offsets  # byte offsets in the region
        self.event_pos = event_pos        # K_COPY positions in the stream
        self.order = order                # global send/recv ordinal

    def num_elements(self) -> int:
        total = 1
        for size in self.sizes:
            total *= size
        return total


def _public_state(obj) -> Dict[str, object]:
    """Pickle state of a trace or plan: private attributes stay behind.

    Underscore-prefixed instance attributes are process-local derived
    state hung on the object for its lifetime (the replay data
    schedule, the content digest); they are rebuilt on demand wherever
    the copy lands.
    """
    return {name: value for name, value in vars(obj).items()
            if not name.startswith("_")}


class DriverTrace:
    """The compiled, runtime-independent schedule of one kernel driver."""

    def __init__(self, arg_specs):
        #: (sizes, strides, itemsize, dtype-name) per function argument.
        self.arg_specs = arg_specs
        self.kinds: np.ndarray = None
        self.num_events = 0
        self.init_params: Optional[Tuple[int, int, int]] = None
        #: Set instead of init_params for preinitialized (manual-driver)
        #: traces: (input_size, output_size) of the live engine.
        self.region_sizes: Optional[Tuple[int, int]] = None
        # Per-class tile tables (send side, then recv side).
        self.send_classes: List[_TileClass] = []
        self.recv_classes: List[_TileClass] = []
        # Scalar staged words.
        self.word_pos: np.ndarray = None
        self.word_offsets: np.ndarray = None
        self.word_values: np.ndarray = None
        # Flush / recv synchronization tables.
        self.flush_pos: np.ndarray = None
        self.flush_bytes: np.ndarray = None
        self.recv_pos: np.ndarray = None
        self.recv_bytes: np.ndarray = None
        #: Staged-item stream for the accelerator decoder, as four
        #: parallel arrays: ``staged_is_word`` (1 = scalar word, 0 =
        #: tile), ``staged_values`` (the word value, or the tile's class
        #: id), ``staged_indices`` (the tile's ordinal within its class,
        #: 0 for words), ``staged_widths`` (32-bit words per item).
        #: ``flush_item_counts`` (int64, one per ``flush_pos``) holds
        #: the item count visible at each flush boundary.
        self.staged_is_word: np.ndarray = None
        self.staged_values: np.ndarray = None
        self.staged_indices: np.ndarray = None
        self.staged_widths: np.ndarray = None
        self.flush_item_counts: np.ndarray = None
        #: ``(n_recv, 2)`` int64: recv ordinal -> (class_id, index) for
        #: push matching; a receive's tile sizes are its class's.
        self.recv_refs: np.ndarray = None
        #: Decoded plans per accelerator signature (lazily built).
        self.decoded: Dict[Tuple, object] = {}
        #: Cached MetricsPlans per runtime-config/state fingerprint.
        #: Traces of equal content adopt one shared dict on their first
        #: replay (see repro.execution.metrics.shared_plans).  A kernel
        #: store entry holds them in a slot of their own, and a pickled
        #: copy drops them.
        self.metrics_plans: "OrderedDict" = OrderedDict()
        #: Whether the scatter of each recv class is round-safe (the
        #: flat index sets of distinct tile starts are disjoint).
        self.recv_disjoint: List[bool] = []

    @property
    def num_staged_items(self) -> int:
        return 0 if self.staged_is_word is None else self.staged_is_word.size

    def __getstate__(self):
        # No production path pickles a trace: the kernel store holds its
        # schedule columns (repro.execution.synthesize.trace_columns).
        state = _public_state(self)
        state["metrics_plans"] = None
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self.metrics_plans = OrderedDict()


def _scatter_is_disjoint(tile_class: _TileClass) -> bool:
    """True when distinct tile starts address disjoint element sets.

    Receives whose tiles overlap across *different* subview offsets
    cannot be scattered in one vectorized write; replay refuses such a
    class (and one too large to prove disjoint), so its kernel runs per
    tile.
    """
    starts = np.unique(tile_class.starts)
    if starts.size <= 1:
        return True
    if starts.size * tile_class.num_elements() > (1 << 24):
        return False  # don't spend memory proving it
    indices = _tile_indices(starts, tile_class.sizes,
                            tile_class.strides).reshape(-1)
    # Bitset membership beats a sort-based unique: one linear pass over
    # a bool array bounded by the touched index range.  Sparse tiles in
    # a huge argument would make that range-sized array explode, so
    # those fall back to the sort (the count guard above only bounds
    # the index COUNT, not the range).
    base = int(indices.min())
    span = int(indices.max()) - base + 1
    if span > (1 << 26):
        return np.unique(indices).size == indices.size
    seen = np.zeros(span, dtype=bool)
    seen[indices - base] = True
    return int(np.count_nonzero(seen)) == indices.size


def _tile_indices(starts: np.ndarray, sizes, strides) -> np.ndarray:
    """Flat element indices of each tile: shape (T, *sizes)."""
    rank = len(sizes)
    idx = starts.reshape((-1,) + (1,) * rank)
    for axis, (size, stride) in enumerate(zip(sizes, strides)):
        shape = [1] * (rank + 1)
        shape[axis + 1] = size
        idx = idx + (np.arange(size, dtype=np.int64) * stride).reshape(shape)
    return idx


# -- accelerator decoding ---------------------------------------------------

class DecodedPlan:
    """Instruction-level view of one trace for one accelerator config."""

    def __init__(self):
        #: "matmul" pushes the *sum* of its pending tile products;
        #: "conv" pushes the *stack* of its pending window dot-products.
        self.kind = "matmul"
        #: Accelerator cycles scheduled at each flush (ordered float
        #: sums, replicating ``process_stream``'s accumulation), and the
        #: number of instructions retired per flush.
        self.flush_cycles: List[float] = []
        self.flush_instructions: List[int] = []
        # Compute records (matmul: tile product; conv: window dot).
        self.compute_a: List[int] = []      # packed (class, idx) or -1
        self.compute_b: List[int] = []
        self.compute_geom: List[Tuple[int, int, int]] = []
        self.compute_push: List[int] = []   # push ordinal, -1 = dropped
        self.push_counts: List[int] = []
        self.push_flush: List[int] = []
        # Final accelerator state.
        self.final_config: Tuple = ()
        self.final_a: int = -1
        self.final_b: int = -1
        self.out_words_per_push: List[int] = []

    @staticmethod
    def pack(class_id: int, index: int) -> int:
        return (class_id << 40) | index

    def __getstate__(self):
        return _public_state(self)


@lru_cache(maxsize=None)
def dtype_name(dtype: np.dtype) -> str:
    """``str(dtype)``, which numpy rebuilds on every call (~6 us)."""
    return str(dtype)


def decode_key(accelerator: StreamAccelerator) -> Tuple:
    """The key a decoded plan is cached under: the accelerator's fixed
    parameters and its entry config (matmul ``tile_m/n/k``, conv
    ``ic``/``fhw``), which the decoder's control unit starts from.

    Also folded into MetricsPlan fingerprints: the decoded plan's
    accelerator cycle charges are part of the metrics plane.
    """
    if type(accelerator) is MatMulAccelerator:
        return ("matmul", accelerator.size, accelerator.version,
                dtype_name(accelerator.dtype), accelerator.tile_m,
                accelerator.tile_n, accelerator.tile_k)
    if type(accelerator) is ConvAccelerator:
        return ("conv", accelerator.max_ic, accelerator.max_fhw,
                accelerator.max_slice, dtype_name(accelerator.dtype),
                accelerator.ic, accelerator.fhw)
    raise TraceUnsupported(Cause.NO_DECODER)


def decode_for_accelerator(trace: DriverTrace,
                           accelerator: StreamAccelerator) -> DecodedPlan:
    """Build (or fetch) the instruction plan for one accelerator config.

    A refusal of the C decoder is cached like a plan, as its cause.
    Without the C library there is no replay to plan for: that refusal
    is not cached, since a :func:`~repro.soc._native.suspend_native`
    scope ends.
    """
    if _native.native_lib() is None:
        raise TraceUnsupported(Cause.NO_TRACE)
    key = decode_key(accelerator)
    if key not in trace.decoded:
        try:
            trace.decoded[key] = _decode(trace, accelerator)
        except TraceUnsupported as exc:
            trace.decoded[key] = exc.cause
    plan = trace.decoded[key]
    if type(plan) is Cause:
        raise TraceUnsupported(plan)
    return plan


_MICRO_CODES = {"load_a": 0, "load_b": 1, "compute": 2, "push_c": 3,
                "configure": 4, "reset": 5}


def _decode(trace: DriverTrace, accel: StreamAccelerator) -> DecodedPlan:
    """The accelerator's control unit as a stream decoder (a C kernel
    per kind), started from its entry config."""
    n_items = trace.num_staged_items
    cum = np.zeros(n_items + 1, dtype=np.int64)  # words before each item
    np.cumsum(trace.staged_widths, out=cum[1:])
    is_word, values, indices, limits = map(np.ascontiguousarray, (
        trace.staged_is_word, trace.staged_values, trace.staged_indices,
        trace.flush_item_counts))
    # Per compute: operands, geometry, push; per push: its computes, its
    # flush and its words.
    (comp_a, comp_b, comp_m, comp_n, comp_k, comp_push, push_counts,
     push_flush, out_words) = np.empty((9, max(n_items, 1)), dtype=np.int64)
    flush_cycles = np.zeros(limits.size, dtype=np.float64)
    flush_instr = np.zeros(limits.size, dtype=np.int64)
    final_state = np.zeros(5, dtype=np.int64)
    counts = np.zeros(2, dtype=np.int64)

    def ptr(*arrays, kind=ctypes.c_int64):
        return [a.ctypes.data_as(ctypes.POINTER(kind)) for a in arrays]

    stream = ptr(is_word, kind=ctypes.c_uint8) \
        + ptr(values, indices, cum) + [n_items] + ptr(limits) + [limits.size]
    ends = ptr(flush_cycles, kind=ctypes.c_double) \
        + ptr(flush_instr, final_state, counts)
    lib = _native.native_lib()
    conv = type(accel) is ConvAccelerator
    if conv:
        error = lib.decode_conv_stream(
            *stream, CONV_LITERALS["sIcO"], CONV_LITERALS["sF"],
            CONV_LITERALS["rO"], CONV_LITERALS["cfg_fsize"],
            CONV_LITERALS["cfg_ic"], accel.max_ic, accel.max_fhw,
            accel.max_slice, float(CONV_OPS_PER_CYCLE), accel.ic, accel.fhw,
            *ptr(comp_a, comp_b, comp_k, comp_push, push_counts, push_flush,
                 out_words), *ends)
    else:
        names = VERSION_OPCODES[accel.version]
        literals = np.asarray([MATMUL_LITERALS[n] for n in names],
                              dtype=np.int64)
        progs = [[_MICRO_CODES[p] for p in _MICRO_OPS[n]] for n in names]
        prog_off = np.zeros(len(progs) + 1, dtype=np.int64)
        np.cumsum([len(p) for p in progs], out=prog_off[1:])
        prog = np.asarray([c for p in progs for c in p], dtype=np.int64)
        error = lib.decode_matmul_stream(
            *stream, *ptr(literals, prog_off, prog), literals.size,
            accel.size_quantum, accel.buffer_capacity,
            float(accel.ops_per_cycle), accel.tile_m, accel.tile_n,
            accel.tile_k, *ptr(comp_a, comp_b, comp_m, comp_n, comp_k,
                               comp_push, push_counts, push_flush,
                               out_words), *ends)
    if error:
        raise TraceUnsupported(Cause.DECODER_REFUSED)
    n_comp, n_push = int(counts[0]), int(counts[1])
    plan = DecodedPlan()
    plan.flush_cycles = flush_cycles
    plan.flush_instructions = flush_instr
    plan.compute_a = comp_a[:n_comp].copy()
    plan.compute_b = comp_b[:n_comp].copy()
    plan.compute_push = comp_push[:n_comp].copy()
    plan.push_counts = push_counts[:n_push].copy()
    plan.push_flush = push_flush[:n_push].copy()
    plan.out_words_per_push = out_words[:n_push].copy()
    final = [int(v) for v in final_state]
    if conv:
        plan.kind = "conv"
        plan.compute_geom = np.ones((n_comp, 3), dtype=np.int64)
        plan.compute_geom[:, 2] = comp_k[:n_comp]
        plan.final_config, plan.final_b = tuple(final[:2]), final[2]
    else:
        plan.compute_geom = np.stack(
            [comp_m[:n_comp], comp_n[:n_comp], comp_k[:n_comp]], axis=1)
        plan.final_config = tuple(final[:3])
        plan.final_a, plan.final_b = final[3:]
    _match_pushes_to_recvs(trace, plan)
    return plan


def _match_pushes_to_recvs(trace: DriverTrace, plan: DecodedPlan) -> None:
    """Receives pop pushed outputs in FIFO order: one push per receive,
    of its class's size, flushed no later than the receive."""
    class_words = np.asarray(
        [tc.num_elements() * tc.itemsize // 4
         for tc in trace.recv_classes], dtype=np.int64,
    )
    out_words = np.asarray(plan.out_words_per_push, dtype=np.int64)
    push_flush = np.asarray(plan.push_flush, dtype=np.int64)
    if out_words.size != len(trace.recv_refs) or out_words.size and (
            (out_words != class_words[trace.recv_refs[:, 0]]).any()
            or (trace.flush_pos[push_flush] > trace.recv_pos).any()):
        raise TraceUnsupported(Cause.PUSHES_UNMATCHED)
