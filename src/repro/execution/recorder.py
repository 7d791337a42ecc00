"""The shadow-runtime recorder: run a driver once, keep its schedule.

:class:`TraceRecorder` is a shadow of :class:`~repro.runtime.AxiRuntime`
that executes a driver body once against *shape-only* argument
descriptors and records the complete schedule of driver events (subview
offsets, staged tile geometries, opcode literals, flush/receive
boundaries, loop-iteration markers); :func:`record_trace` compiles the
events into the same :class:`~repro.execution.trace.DriverTrace` the
synthesizer produces.

It has exactly two callers.  The hand-written baselines
(:mod:`repro.baselines.manual`) have no schedule table to synthesize
from, so recording is how their traces are built.  And under
``REPRO_CHECK=1`` :meth:`repro.compiler.CompiledKernel._build_trace`
records every kernel it synthesized and diffs the two traces.  A
generated kernel never *runs* from a recording: when synthesis fails it
runs per tile.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from .trace import (
    DriverTrace,
    K_CALL,
    K_COPY,
    K_FLUSH,
    K_INIT,
    K_LOOP,
    K_RECV,
    K_RWAIT,
    K_SUB,
    K_WORD,
    TraceUnsupported,
    _TileClass,
    _scatter_is_disjoint,
    add_stage_time,
)


class _ShadowRef:
    """Shape-only stand-in for a MemRefDescriptor during recording."""

    __slots__ = ("arg", "offset", "sizes", "strides", "itemsize")

    def __init__(self, arg: int, offset: int, sizes: Tuple[int, ...],
                 strides: Tuple[int, ...], itemsize: int):
        self.arg = arg
        self.offset = offset
        self.sizes = sizes
        self.strides = strides
        self.itemsize = itemsize

    def subview(self, offsets, sizes) -> "_ShadowRef":
        if len(offsets) != len(self.sizes) or len(sizes) != len(self.sizes):
            raise TraceUnsupported("subview rank mismatch")
        new_offset = self.offset
        for off, size, full, stride in zip(offsets, sizes, self.sizes,
                                           self.strides):
            if off < 0 or off + size > full:
                raise TraceUnsupported("subview out of bounds")
            new_offset += off * stride
        return _ShadowRef(self.arg, new_offset, tuple(sizes), self.strides,
                          self.itemsize)

    def num_bytes(self) -> int:
        total = 1
        for size in self.sizes:
            total *= size
        return total * self.itemsize


class TraceRecorder:
    """Shadow runtime: the same call surface, recording instead of doing.

    Returned offsets replicate :class:`AxiRuntime`'s offset arithmetic
    exactly, so the emitted driver's control/data flow is unchanged.
    """

    def __init__(self, arg_specs,
                 preinitialized: Optional[Tuple[int, int]] = None):
        """``preinitialized=(input_size, output_size)`` records a driver
        body whose ``dma_init`` already happened outside the recorded
        region (the hand-written baselines initialize the engine before
        allocating their memrefs); the resulting trace replays against
        the runtime's live engine instead of installing a fresh one.
        """
        self.arg_specs = arg_specs
        self.events: List[Tuple] = []
        self.preinitialized = preinitialized is not None
        self.initialized = self.preinitialized
        self.input_size = preinitialized[0] if preinitialized else 0
        self.output_size = preinitialized[1] if preinitialized else 0

    def make_args(self) -> List[_ShadowRef]:
        return [
            _ShadowRef(i, 0, tuple(sizes), tuple(strides), itemsize)
            for i, (sizes, strides, itemsize, _dtype)
            in enumerate(self.arg_specs)
        ]

    # -- recorded library calls ------------------------------------------
    def dma_init(self, dma_id, input_address, input_buffer_size,
                 output_address, output_buffer_size) -> None:
        if self.initialized:
            raise TraceUnsupported("dma_init called twice")
        self.initialized = True
        self.input_size = int(input_buffer_size)
        self.output_size = int(output_buffer_size)
        self.events.append(("init", int(dma_id), self.input_size,
                            self.output_size))

    def _word(self, value: int, offset: int) -> int:
        if offset % 4:
            raise TraceUnsupported("misaligned staged word")
        if offset + 4 > self.input_size:
            raise TraceUnsupported("staged word beyond input region")
        self.events.append(("word", int(value) & 0xFFFFFFFF, int(offset)))
        return offset + 4

    def send_literal(self, literal, offset):
        self._check_init()
        return self._word(literal, offset)

    def send_dim(self, desc, dim, offset):
        self._check_init()
        return self._word(desc.sizes[dim], offset)

    def send_idx(self, value, offset):
        self._check_init()
        return self._word(int(value), offset)

    def send_memref(self, desc, offset):
        self._check_init()
        if not isinstance(desc, _ShadowRef):
            raise TraceUnsupported("send of a non-argument memref")
        if offset % 4 or desc.itemsize % 4:
            raise TraceUnsupported("unstageable tile")
        num_bytes = desc.num_bytes()
        if offset + num_bytes > self.input_size:
            raise TraceUnsupported("staged tile beyond input region")
        self.events.append(("send", desc.arg, desc.offset, desc.sizes,
                            desc.strides, int(offset)))
        return offset + num_bytes

    def flush_send(self, offset):
        self._check_init()
        self.events.append(("flush", int(offset)))
        return 0

    def recv_memref(self, desc, offset, accumulate=False):
        self._check_init()
        if not isinstance(desc, _ShadowRef):
            raise TraceUnsupported("recv into a non-argument memref")
        if offset % 4 or desc.itemsize % 4:
            raise TraceUnsupported("unstageable receive tile")
        if offset + desc.num_bytes() > self.output_size:
            raise TraceUnsupported("receive beyond output region")
        self.events.append(("recv", desc.arg, desc.offset, desc.sizes,
                            desc.strides, int(offset), bool(accumulate)))

    def loop_iteration(self):
        self.events.append(("loop",))

    def subview_setup(self):
        self.events.append(("sub",))

    def _check_init(self) -> None:
        if not self.initialized:
            raise TraceUnsupported("library call before dma_init")

    # Anything else the driver might call on the runtime is unsupported:
    # attribute errors propagate and the caller falls back to per-tile.


def record_trace(entry_point, arg_specs,
                 expected_events: Optional[int] = None,
                 preinitialized: Optional[Tuple[int, int]] = None,
                 stage: str = "trace_record_s") -> DriverTrace:
    """Run ``entry_point`` once against the recorder; compile the events.

    ``expected_events`` (from the emitter's schedule side table) cross-
    checks that the recording expanded the whole static loop nest.
    ``stage`` names the STAGE_TIMINGS bucket charged (the hand-written
    baselines record under ``manual_record_s``).
    """
    start = time.perf_counter()
    try:
        recorder = TraceRecorder(arg_specs, preinitialized=preinitialized)
        entry_point(recorder, *recorder.make_args())
        if expected_events is not None \
                and len(recorder.events) != expected_events:
            raise TraceUnsupported(
                f"recorded {len(recorder.events)} events, schedule table "
                f"predicts {expected_events}"
            )
        trace = _compile_events(recorder, arg_specs)
    finally:
        add_stage_time(stage, time.perf_counter() - start)
    return trace


def _compile_events(recorder: TraceRecorder, arg_specs) -> DriverTrace:
    """Flatten recorded events into the cost stream + side tables."""
    trace = DriverTrace(arg_specs)
    kinds: List[int] = []
    send_lookup: Dict[Tuple, int] = {}
    recv_lookup: Dict[Tuple, int] = {}
    word_pos: List[int] = []
    word_offsets: List[int] = []
    word_values: List[int] = []
    flush_pos: List[int] = []
    flush_bytes: List[int] = []
    recv_pos: List[int] = []
    recv_bytes: List[int] = []
    recv_refs: List[Tuple[int, int]] = []
    flush_item_counts: List[int] = []
    send_ordinal = 0
    recv_ordinal = 0
    staged_w: List[int] = []     # 1 = word, 0 = tile
    staged_v: List[int] = []     # word value / tile class id
    staged_i: List[int] = []     # tile ordinal within its class
    staged_n: List[int] = []     # 32-bit words per item

    for event in recorder.events:
        tag = event[0]
        if tag == "loop":
            kinds.append(K_LOOP)
        elif tag == "sub":
            kinds.append(K_SUB)
        elif tag == "word":
            _, value, offset = event
            kinds.append(K_CALL)
            word_pos.append(len(kinds))
            word_offsets.append(offset)
            word_values.append(value)
            kinds.append(K_WORD)
            staged_w.append(1)
            staged_v.append(value)
            staged_i.append(0)
            staged_n.append(1)
        elif tag == "send":
            _, arg, start, sizes, strides, offset = event
            key = (arg, sizes, strides)
            class_id = send_lookup.get(key)
            if class_id is None:
                class_id = len(trace.send_classes)
                send_lookup[key] = class_id
                trace.send_classes.append(_TileClass(
                    arg, sizes, strides, arg_specs[arg][2]
                ))
            tile_class = trace.send_classes[class_id]
            index = len(tile_class.starts)
            kinds.append(K_CALL)
            tile_class.starts.append(start)
            tile_class.region_offsets.append(offset)
            tile_class.event_pos.append(len(kinds))
            tile_class.order.append(send_ordinal)
            send_ordinal += 1
            kinds.append(K_COPY)
            words = tile_class.num_elements() * tile_class.itemsize // 4
            staged_w.append(0)
            staged_v.append(class_id)
            staged_i.append(index)
            staged_n.append(words)
        elif tag == "flush":
            _, offset = event
            if offset == 0:
                continue  # a no-op in AxiRuntime: no cost, no boundary
            flush_pos.append(len(kinds))
            flush_bytes.append(offset)
            kinds.append(K_FLUSH)
            flush_item_counts.append(len(staged_w))
        elif tag == "recv":
            _, arg, start, sizes, strides, offset, accumulate = event
            key = (arg, sizes, strides, accumulate)
            class_id = recv_lookup.get(key)
            if class_id is None:
                class_id = len(trace.recv_classes)
                recv_lookup[key] = class_id
                trace.recv_classes.append(_TileClass(
                    arg, sizes, strides, arg_specs[arg][2], accumulate
                ))
            tile_class = trace.recv_classes[class_id]
            index = len(tile_class.starts)
            kinds.append(K_RWAIT)
            kinds.append(K_CALL)
            recv_pos.append(len(kinds))
            recv_bytes.append(tile_class.num_elements()
                              * tile_class.itemsize)
            kinds.append(K_RECV)
            tile_class.starts.append(start)
            tile_class.region_offsets.append(offset)
            tile_class.event_pos.append(len(kinds))
            tile_class.order.append(recv_ordinal)
            recv_refs.append((class_id, index))
            recv_ordinal += 1
            kinds.append(K_COPY)
        elif tag == "init":
            _, dma_id, in_size, out_size = event
            trace.init_params = (dma_id, in_size, out_size)
            kinds.append(K_INIT)
        else:  # pragma: no cover - recorder only emits the tags above
            raise TraceUnsupported(f"unknown event {tag!r}")

    if trace.init_params is None and not recorder.preinitialized:
        raise TraceUnsupported("driver never initialized the DMA engine")
    if trace.init_params is None:
        # Preinitialized body: the replay reuses the runtime's live
        # engine, but the staged-size bounds were still enforced above.
        trace.region_sizes = (recorder.input_size, recorder.output_size)
    # Read-after-write hazard: the replay gathers all staged tile data
    # up front, so a driver that re-sends data it received earlier in
    # the same run (an argument acting as both accelerator input and
    # output, receive before send) cannot be replayed from a snapshot.
    first_recv: Dict[int, int] = {}
    for tile_class in trace.recv_classes:
        if tile_class.event_pos:
            pos = min(tile_class.event_pos)
            arg = tile_class.arg
            first_recv[arg] = min(first_recv.get(arg, pos), pos)
    for tile_class in trace.send_classes:
        if tile_class.event_pos and tile_class.arg in first_recv \
                and max(tile_class.event_pos) > first_recv[tile_class.arg]:
            raise TraceUnsupported(
                "argument is sent after being received (read-after-write)"
            )
    trace.kinds = np.asarray(kinds, dtype=np.int8)
    trace.num_events = len(kinds)
    trace.staged_is_word = np.asarray(staged_w, dtype=np.uint8)
    trace.staged_values = np.asarray(staged_v, dtype=np.int64)
    trace.staged_indices = np.asarray(staged_i, dtype=np.int64)
    trace.staged_widths = np.asarray(staged_n, dtype=np.int64)
    trace.flush_item_counts = np.asarray(flush_item_counts, dtype=np.int64)
    trace.recv_refs = np.asarray(recv_refs, dtype=np.int64).reshape(-1, 2)
    trace.word_pos = np.asarray(word_pos, dtype=np.int64)
    trace.word_offsets = np.asarray(word_offsets, dtype=np.int64)
    trace.word_values = np.asarray(word_values, dtype=np.int64)
    trace.flush_pos = np.asarray(flush_pos, dtype=np.int64)
    trace.flush_bytes = np.asarray(flush_bytes, dtype=np.int64)
    trace.recv_pos = np.asarray(recv_pos, dtype=np.int64)
    trace.recv_bytes = np.asarray(recv_bytes, dtype=np.int64)
    for tile_class in trace.send_classes + trace.recv_classes:
        tile_class.finalize()
    trace.recv_disjoint = [
        _scatter_is_disjoint(tile_class) for tile_class in trace.recv_classes
    ]
    return trace
