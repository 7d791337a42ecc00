"""The shadow-runtime recorder: run a driver once, keep its schedule.

:class:`TraceRecorder` is a shadow of :class:`~repro.runtime.AxiRuntime`
that executes a driver body once against *shape-only* argument
descriptors and collects the schedule columns of its calls (event
kinds, staged words, per-class tile rows, non-empty flushes) — the same
columns the synthesizer expands from a schedule table.
:func:`record_trace` hands them to the one table assembler,
:func:`~repro.execution.synthesize.assemble_trace`.

Its one caller in the library is
:meth:`repro.kernel.CompiledKernel._build_trace` under
``REPRO_CHECK=1``: it records every kernel it synthesized and diffs the
two traces.  No kernel ever *runs* from a recording: when synthesis
fails it runs per tile.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from .synthesize import SynthesisUnsupported, assemble_trace
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
            raise SynthesisUnsupported("subview rank mismatch")
        new_offset = self.offset
        for off, size, full, stride in zip(offsets, sizes, self.sizes,
                                           self.strides):
            if off < 0 or off + size > full:
                raise SynthesisUnsupported("subview out of bounds")
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
    ``calls`` counts the runtime calls made (the schedule table's unit,
    :func:`~repro.codegen.schedule_event_count`).
    """

    def __init__(self, arg_specs,
                 preinitialized: Optional[Tuple[int, int]] = None):
        """``preinitialized=(input_size, output_size)`` records a driver
        body whose ``dma_init`` already happened outside the recorded
        region (a kernel's ``host_dma_init``, run before its memrefs
        are allocated); the resulting trace replays against the
        runtime's live engine instead of installing a fresh one.
        """
        self.arg_specs = arg_specs
        self.calls = 0
        self.kinds: List[int] = []
        self.init_params: Optional[Tuple[int, int, int]] = None
        self.words: Tuple[List[int], List[int], List[int]] = ([], [], [])
        self.flushes: Tuple[List[int], List[int]] = ([], [])
        #: Per tile-class key: (call positions, starts, region offsets).
        self.sends: Dict[Tuple, Tuple[List[int], ...]] = {}
        self.recvs: Dict[Tuple, Tuple[List[int], ...]] = {}
        self.initialized = preinitialized is not None
        self.input_size, self.output_size = preinitialized or (0, 0)

    def make_args(self) -> List[_ShadowRef]:
        return [
            _ShadowRef(i, 0, tuple(sizes), tuple(strides), itemsize)
            for i, (sizes, strides, itemsize, _dtype)
            in enumerate(self.arg_specs)
        ]

    def _call(self, *kinds) -> int:
        """Count one runtime call with cost events ``kinds``; returns
        the position of the last (the charged event of a row)."""
        self.calls += 1
        self.kinds.extend(kinds)
        return len(self.kinds) - 1

    @staticmethod
    def _row(classes, key, pos, desc, offset) -> None:
        rows = classes.setdefault(key, ([], [], []))
        rows[0].append(pos)
        rows[1].append(desc.offset)
        rows[2].append(int(offset))

    # -- recorded library calls ------------------------------------------
    def dma_init(self, dma_id, input_address, input_buffer_size,
                 output_address, output_buffer_size) -> None:
        if self.initialized:
            raise SynthesisUnsupported("dma_init called twice")
        self.initialized = True
        self.input_size = int(input_buffer_size)
        self.output_size = int(output_buffer_size)
        self.init_params = (int(dma_id), self.input_size, self.output_size)
        self._call(K_INIT)

    def _word(self, value: int, offset: int) -> int:
        if offset % 4:
            raise SynthesisUnsupported("misaligned staged word")
        if offset + 4 > self.input_size:
            raise SynthesisUnsupported("staged word beyond input region")
        pos, offsets, values = self.words
        pos.append(self._call(K_CALL, K_WORD))
        offsets.append(int(offset))
        values.append(int(value) & 0xFFFFFFFF)
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
            raise SynthesisUnsupported("send of a non-argument memref")
        if offset % 4 or desc.itemsize % 4:
            raise SynthesisUnsupported("unstageable tile")
        num_bytes = desc.num_bytes()
        if offset + num_bytes > self.input_size:
            raise SynthesisUnsupported("staged tile beyond input region")
        self._row(self.sends, (desc.arg, desc.sizes, desc.strides),
                  self._call(K_CALL, K_COPY), desc, offset)
        return offset + num_bytes

    def flush_send(self, offset):
        self._check_init()
        if offset == 0:
            self._call()  # a no-op in AxiRuntime: no cost, no boundary
        else:
            self.flushes[0].append(self._call(K_FLUSH))
            self.flushes[1].append(int(offset))
        return 0

    def recv_memref(self, desc, offset, accumulate=False):
        self._check_init()
        if not isinstance(desc, _ShadowRef):
            raise SynthesisUnsupported("recv into a non-argument memref")
        if offset % 4 or desc.itemsize % 4:
            raise SynthesisUnsupported("unstageable receive tile")
        if offset + desc.num_bytes() > self.output_size:
            raise SynthesisUnsupported("receive beyond output region")
        self._row(self.recvs,
                  (desc.arg, desc.sizes, desc.strides, bool(accumulate)),
                  self._call(K_RWAIT, K_CALL, K_RECV, K_COPY), desc, offset)

    def loop_iteration(self):
        self._call(K_LOOP)

    def subview_setup(self):
        self._call(K_SUB)

    def _check_init(self) -> None:
        if not self.initialized:
            raise SynthesisUnsupported("library call before dma_init")

    # Anything else the driver might call on the runtime is unsupported:
    # attribute errors propagate and the caller falls back to per-tile.

    def trace(self) -> DriverTrace:
        """The recorded schedule, through the one table assembler."""
        def columns(lists):
            return tuple(np.asarray(column, dtype=np.int64)
                         for column in lists)

        # A preinitialized body replays against the runtime's live
        # engine, but the staged-size bounds were still enforced.
        return assemble_trace(
            self.arg_specs, np.asarray(self.kinds, dtype=np.int8),
            columns(self.words),
            [(key,) + columns(rows) for key, rows in self.sends.items()],
            [(key,) + columns(rows) for key, rows in self.recvs.items()],
            columns(self.flushes), self.init_params,
            (self.input_size, self.output_size)
            if self.init_params is None else None,
        )


def record_trace(entry_point, arg_specs,
                 expected_events: Optional[int] = None,
                 preinitialized: Optional[Tuple[int, int]] = None
                 ) -> DriverTrace:
    """Run ``entry_point`` once against the recorder; assemble its trace.

    ``expected_events`` (from the emitter's schedule side table) cross-
    checks that the recording expanded the whole static loop nest.
    Timed into ``trace_record_s``.
    """
    start = time.perf_counter()
    try:
        recorder = TraceRecorder(arg_specs, preinitialized=preinitialized)
        entry_point(recorder, *recorder.make_args())
        if not recorder.initialized:
            raise SynthesisUnsupported(
                "driver never initialized the DMA engine")
        if expected_events is not None \
                and recorder.calls != expected_events:
            raise SynthesisUnsupported(
                f"recorded {recorder.calls} calls, schedule table "
                f"predicts {expected_events}"
            )
        trace = recorder.trace()
    finally:
        add_stage_time("trace_record_s", time.perf_counter() - start)
    return trace
