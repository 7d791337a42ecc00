"""Ahead-of-time trace synthesis: schedule side table → DriverTrace.

:func:`~repro.execution.recorder.record_trace` discovers a kernel's
schedule by *executing* the emitted driver once against a shadow
runtime — one Python call per event, millions of events for the large
benchmark kernels.  But the driver is a fully static loop nest: every
event, operand offset, and staged byte is a pure function of the loop
bounds the emitter already wrote into its schedule side table.  This
module exploits that: :func:`synthesize_trace` expands the side table
directly into the schedule columns the recorder would have collected
— event stream, staged words, per-class tile rows, flushes — using
vectorized numpy affine-index arithmetic over the whole iteration space
instead of a per-tile shadow run.  Both then hand their columns to
:func:`assemble_trace`, the one builder of a trace's tables (tile
classes, receive and staged-item tables, scatter-disjointness flags),
so a synthesized and a recorded trace can differ only in their
columns.

The synthesizer is an abstract interpreter over the side table.  Every
SSA value in the emitted driver is represented either as a Python
scalar (loop-invariant) or as an int64 ndarray over the enclosing
iteration space: loop induction variables are ``lower + step*arange``
placed on their own broadcast axis, ``arith`` entries combine them
elementwise, and subview offsets become affine index arrays.  Event
*positions* in the flattened stream form the same lattice — a constant
prefix plus ``iv_index * body_len`` per enclosing loop — so every
global table is assembled with array sorts and scatters.

Anything the synthesizer cannot prove — data-dependent loop trip
counts, non-affine values, structurally divergent flushes, schedules
from an older emitter — raises :class:`SynthesisUnsupported` and the
kernel runs per tile, so synthesis is always an optimization, never a
semantics change.  ``REPRO_FAULTS="synth:fail"`` forces that fallback
(counted as ``synth_fallback``); ``REPRO_CHECK=1`` additionally records
every synthesized kernel and diffs the two traces' columns
(:func:`diff_traces`), failing loudly on any mismatch.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from .. import faults
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
    add_stage_time,
    _scatter_is_disjoint,
)

#: Schedules expanding past this many events run per tile rather
#: than materializing multi-GB position tables.
_MAX_EVENTS = 1 << 26


class SynthesisUnsupported(TraceUnsupported):
    """The schedule contains a construct synthesis cannot prove."""


class TraceMismatch(RuntimeError):
    """Synthesized and recorded traces disagree (cross-check mode)."""


class _Ref:
    """Shape-only memref value: the synthesizer's _ShadowRef analogue.

    ``offset`` is a scalar or an int64 ndarray over the enclosing
    iteration space (one element offset per loop iteration).
    """

    __slots__ = ("arg", "offset", "sizes", "strides", "itemsize")

    def __init__(self, arg, offset, sizes, strides, itemsize):
        self.arg = arg
        self.offset = offset
        self.sizes = sizes
        self.strides = strides
        self.itemsize = itemsize

    def num_elements(self) -> int:
        total = 1
        for size in self.sizes:
            total *= size
        return total


class _Frame:
    """One active loop: its broadcast axis, trip count, and body length."""

    __slots__ = ("axis", "trips", "rank", "body_len")

    def __init__(self, axis: int, trips: int, rank: int):
        self.axis = axis
        self.trips = trips
        self.rank = rank
        self.body_len = 0  # events per iteration, filled after the body

    def index_array(self) -> np.ndarray:
        shape = [1] * self.rank
        shape[self.axis] = self.trips
        return np.arange(self.trips, dtype=np.int64).reshape(shape)


class _Site:
    """One call statement: its event template and per-iteration values."""

    __slots__ = ("op", "template", "prefix", "chain", "payload", "pos")

    def __init__(self, op, template, prefix, chain, payload):
        self.op = op
        self.template = template
        self.prefix = prefix        # constant part of the event position
        self.chain = chain          # enclosing _Frame tuple
        self.payload = payload      # op-specific values (scalar or array)
        self.pos = None             # global event positions, filled late


_WORD_OPS = ("send_literal", "send_dim", "send_idx")
_MISSING = object()


def _nest_depth(body: list) -> int:
    depth = 0
    for entry in body:
        if entry.get("op") == "for":
            depth = max(depth, 1 + _nest_depth(entry.get("body", ())))
    return depth


class _Synthesizer:
    def __init__(self, table: dict, arg_specs):
        self.table = table
        self.arg_specs = arg_specs
        self.rank = _nest_depth(table.get("body", ()))
        self.env: Dict[str, object] = {}
        self.sites: List[_Site] = []
        self.initialized = False
        self.input_size = 0
        self.output_size = 0
        self.init_params: Optional[Tuple[int, int, int]] = None
        constants = table.get("constants")
        args = table.get("args")
        if constants is None or args is None:
            raise SynthesisUnsupported("schedule table lacks operand info")
        self.env.update(constants)
        if len(args) != len(arg_specs):
            raise SynthesisUnsupported("argument arity mismatch")
        for i, name in enumerate(args):
            sizes, strides, itemsize, _dtype = arg_specs[i]
            self.env[name] = _Ref(i, 0, tuple(sizes), tuple(strides),
                                  int(itemsize))

    # -- value plumbing ---------------------------------------------------
    def _value(self, name):
        value = self.env.get(name, _MISSING)
        if value is _MISSING:
            raise SynthesisUnsupported(f"undefined value {name!r}")
        if isinstance(value, _Ref):
            raise SynthesisUnsupported(f"memref {name!r} used as a scalar")
        return value

    def _ref(self, name) -> _Ref:
        value = self.env.get(name, _MISSING)
        if not isinstance(value, _Ref):
            raise SynthesisUnsupported(f"{name!r} is not a memref value")
        return value

    def _scalar(self, name) -> int:
        value = self._value(name)
        if isinstance(value, np.ndarray):
            raise SynthesisUnsupported(f"{name!r} varies across iterations")
        if not isinstance(value, (int, np.integer)):
            raise SynthesisUnsupported(f"{name!r} is not an integer")
        return int(value)

    def _flat(self, value, chain) -> np.ndarray:
        """Materialize one value over a site's full iteration space."""
        shape = tuple(f.trips for f in chain) \
            + (1,) * (self.rank - len(chain))
        arr = np.broadcast_to(np.asarray(value, dtype=np.int64), shape)
        return arr.ravel()

    # -- schedule walk ----------------------------------------------------
    def _walk(self, body: list, chain: Tuple[_Frame, ...],
              base: int) -> int:
        """Evaluate one body; returns its event count per iteration."""
        local = 0
        for entry in body:
            op = entry.get("op")
            if op == "for":
                local += self._walk_for(entry, chain, base + local)
            elif op == "arith":
                self._do_arith(entry)
            elif op == "subview":
                self._do_subview(entry)
            elif op == "dim":
                self._do_dim(entry)
            elif op == "loop_iteration":
                local += self._site(op, (K_LOOP,), chain, base + local, {})
            elif op == "subview_setup":
                local += self._site(op, (K_SUB,), chain, base + local, {})
            elif op == "dma_init":
                local += self._do_init(entry, chain, base + local)
            elif op in _WORD_OPS:
                local += self._do_word(entry, chain, base + local)
            elif op == "send_memref":
                local += self._do_send(entry, chain, base + local)
            elif op == "flush_send":
                local += self._do_flush(entry, chain, base + local)
            elif op == "recv_memref":
                local += self._do_recv(entry, chain, base + local)
            else:
                raise SynthesisUnsupported(f"unknown schedule op {op!r}")
        return local

    def _site(self, op, template, chain, prefix, payload) -> int:
        self.sites.append(_Site(op, template, prefix, chain, payload))
        return len(template)

    def _walk_for(self, entry, chain, base) -> int:
        names = entry.get("args")
        if not names or len(names) != 3:
            raise SynthesisUnsupported("loop bounds missing from schedule")
        lower = self._value(names[0])
        upper = self._value(names[1])
        step = self._value(names[2])
        trips = self._trip_count(lower, upper, step)
        if trips == 0:
            return 0
        # Bound the iteration space *before* materializing any array
        # over it (every loop body records at least its loop_iteration
        # event, so cells is a lower bound on total events): schedules
        # past the cap run per tile instead of allocating multi-GB
        # value tables during the walk.
        cells = trips
        for frame in chain:
            cells *= frame.trips
        if cells > _MAX_EVENTS:
            raise SynthesisUnsupported("schedule expansion too large")
        if isinstance(step, np.ndarray):  # uniform, proven by _trip_count
            step = step.reshape(-1)[0]
        frame = _Frame(len(chain), trips, self.rank)
        self.env[entry["iv"]] = lower + int(step) * frame.index_array()
        frame.body_len = self._walk(entry.get("body", ()),
                                    chain + (frame,), base)
        return trips * frame.body_len

    def _trip_count(self, lower, upper, step) -> int:
        if isinstance(step, np.ndarray):
            if step.size == 0 or (step != step.reshape(-1)[0]).any():
                raise SynthesisUnsupported("loop step varies")
            step = step.reshape(-1)[0]
        if not isinstance(step, (int, np.integer)):
            raise SynthesisUnsupported("non-integer loop step")
        step = int(step)
        if step == 0:
            raise SynthesisUnsupported("zero loop step")
        for bound in (lower, upper):
            if isinstance(bound, np.ndarray):
                if bound.dtype.kind not in "iu":
                    raise SynthesisUnsupported("non-integer loop bound")
            elif not isinstance(bound, (int, np.integer)):
                raise SynthesisUnsupported("non-integer loop bound")
        diff = upper - lower
        trips = -((-diff) // step)
        if isinstance(trips, np.ndarray):
            if trips.size == 0:
                return 0
            first = int(trips.reshape(-1)[0])
            if (trips != first).any():
                raise SynthesisUnsupported(
                    "loop trip count varies across iterations"
                )
            trips = first
        return max(0, int(trips))

    # -- pure host-side computation entries -------------------------------
    def _do_arith(self, entry) -> None:
        fn = entry.get("fn")
        lhs = self._value(entry["args"][0])
        rhs = self._value(entry["args"][1])
        if fn == "+":
            value = lhs + rhs
        elif fn == "-":
            value = lhs - rhs
        elif fn == "*":
            value = lhs * rhs
        elif fn == "min":
            if isinstance(lhs, np.ndarray) or isinstance(rhs, np.ndarray):
                value = np.minimum(lhs, rhs)
            else:
                value = min(lhs, rhs)
        else:
            raise SynthesisUnsupported(f"unknown arith fn {fn!r}")
        self.env[entry["result"]] = value

    def _do_subview(self, entry) -> None:
        source = self._ref(entry["ref"])
        offsets = [self._value(name) for name in entry["offsets"]]
        sizes = tuple(int(s) for s in entry["sizes"])
        if len(offsets) != len(source.sizes) \
                or len(sizes) != len(source.sizes):
            raise SynthesisUnsupported("subview rank mismatch")
        new_offset = source.offset
        for off, size, full, stride in zip(offsets, sizes, source.sizes,
                                           source.strides):
            if np.any(np.less(off, 0)) or np.any(np.greater(
                    np.add(off, size), full)):
                raise SynthesisUnsupported("subview out of bounds")
            new_offset = new_offset + off * stride
        self.env[entry["result"]] = _Ref(
            source.arg, new_offset, sizes, source.strides, source.itemsize
        )

    def _do_dim(self, entry) -> None:
        source = self._ref(entry["ref"])
        try:
            self.env[entry["result"]] = source.sizes[int(entry["index"])]
        except IndexError:
            raise SynthesisUnsupported("memref.dim index out of range")

    # -- runtime-call entries ---------------------------------------------
    def _check_init(self) -> None:
        if not self.initialized:
            raise SynthesisUnsupported("library call before dma_init")

    def _do_init(self, entry, chain, prefix) -> int:
        if self.initialized:
            raise SynthesisUnsupported("dma_init called twice")
        if chain:
            raise SynthesisUnsupported("dma_init inside a loop")
        values = [self._scalar(name) for name in entry["args"]]
        if len(values) != 5:
            raise SynthesisUnsupported("malformed dma_init")
        self.initialized = True
        self.input_size = values[2]
        self.output_size = values[4]
        self.init_params = (values[0], self.input_size, self.output_size)
        return self._site("dma_init", (K_INIT,), chain, prefix, {})

    def _check_word(self, offset) -> None:
        self._check_init()
        if np.any(np.remainder(offset, 4)):
            raise SynthesisUnsupported("misaligned staged word")
        if np.any(np.greater(np.add(offset, 4), self.input_size)):
            raise SynthesisUnsupported("staged word beyond input region")

    def _do_word(self, entry, chain, prefix) -> int:
        op = entry["op"]
        offset = self._value(entry["offset"])
        if op == "send_literal" or op == "send_idx":
            value = self._value(entry["value"])
        else:  # send_dim
            ref = self._ref(entry["ref"])
            try:
                value = ref.sizes[self._scalar(entry["dim"])]
            except IndexError:
                raise SynthesisUnsupported("send_dim index out of range")
        self._check_word(offset)
        self.env[entry["result"]] = offset + 4
        return self._site(op, (K_CALL, K_WORD), chain, prefix,
                          {"value": value, "offset": offset})

    def _do_send(self, entry, chain, prefix) -> int:
        self._check_init()
        ref = self._ref(entry["ref"])
        offset = self._value(entry["offset"])
        if ref.itemsize % 4 or np.any(np.remainder(offset, 4)):
            raise SynthesisUnsupported("unstageable tile")
        num_bytes = ref.num_elements() * ref.itemsize
        if np.any(np.greater(np.add(offset, num_bytes), self.input_size)):
            raise SynthesisUnsupported("staged tile beyond input region")
        self.env[entry["result"]] = offset + num_bytes
        key = (ref.arg, ref.sizes, ref.strides)
        return self._site("send_memref", (K_CALL, K_COPY), chain, prefix,
                          {"key": key, "starts": ref.offset,
                           "offset": offset})

    def _do_flush(self, entry, chain, prefix) -> int:
        self._check_init()
        offset = self._value(entry["offset"])
        self.env[entry["result"]] = 0
        if isinstance(offset, np.ndarray):
            nonzero = offset != 0
            if not nonzero.any():
                return 0
            if not nonzero.all():
                raise SynthesisUnsupported(
                    "flush alternates between empty and staged batches"
                )
        elif offset == 0:
            return 0  # a no-op in AxiRuntime: no cost, no boundary
        return self._site("flush_send", (K_FLUSH,), chain, prefix,
                          {"bytes": offset})

    def _do_recv(self, entry, chain, prefix) -> int:
        self._check_init()
        ref = self._ref(entry["ref"])
        offset = self._value(entry["offset"])
        if ref.itemsize % 4 or np.any(np.remainder(offset, 4)):
            raise SynthesisUnsupported("unstageable receive tile")
        num_bytes = ref.num_elements() * ref.itemsize
        if np.any(np.greater(np.add(offset, num_bytes), self.output_size)):
            raise SynthesisUnsupported("receive beyond output region")
        accumulate = bool(entry.get("accumulate", False))
        key = (ref.arg, ref.sizes, ref.strides, accumulate)
        return self._site("recv_memref",
                          (K_RWAIT, K_CALL, K_RECV, K_COPY), chain, prefix,
                          {"key": key, "starts": ref.offset,
                           "offset": offset})

    # -- assembly ---------------------------------------------------------
    def _positions(self, site: _Site) -> np.ndarray:
        pos = site.prefix
        for frame in site.chain:
            pos = pos + frame.index_array() * frame.body_len
        return self._flat(pos, site.chain)

    def build(self) -> DriverTrace:
        total = self._walk(self.table.get("body", ()), (), 0)
        if self.init_params is None:
            raise SynthesisUnsupported(
                "driver never initialized the DMA engine"
            )
        if total > _MAX_EVENTS:
            raise SynthesisUnsupported("schedule expansion too large")
        kinds = np.empty(total, dtype=np.int8)
        for site in self.sites:
            site.pos = self._positions(site)
            for j, kind in enumerate(site.template):
                kinds[site.pos + j] = kind
        word_pos, word_offsets, word_values = self._columns(
            _WORD_OPS, "offset", "value")
        return assemble_trace(
            self.arg_specs, kinds,
            (word_pos, word_offsets, word_values & 0xFFFFFFFF),
            self._grouped("send_memref"), self._grouped("recv_memref"),
            self._columns(("flush_send",), "bytes"), self.init_params, None,
        )

    @staticmethod
    def _row_pos(site: _Site) -> np.ndarray:
        """The position of each of ``site``'s calls' last event."""
        return site.pos + (len(site.template) - 1)

    def _columns(self, ops, *fields) -> Tuple[np.ndarray, ...]:
        """Positions, then ``fields``, of every site of ``ops`` in event
        order."""
        sites = [s for s in self.sites if s.op in ops]
        if not sites:
            return (_EMPTY,) * (1 + len(fields))
        pos = np.concatenate([self._row_pos(s) for s in sites])
        order = np.argsort(pos)
        return (pos[order],) + tuple(
            np.concatenate([self._flat(s.payload[name], s.chain)
                            for s in sites])[order]
            for name in fields)

    def _grouped(self, op: str) -> list:
        """``assemble_trace``'s per-class rows for one op."""
        groups: Dict[Tuple, List] = {}
        for site in (s for s in self.sites if s.op == op):
            entry = groups.setdefault(site.payload["key"], ([], [], []))
            entry[0].append(self._row_pos(site))
            entry[1].append(self._flat(site.payload["starts"], site.chain))
            entry[2].append(self._flat(site.payload["offset"], site.chain))
        compiled = []
        for key, (pos_parts, start_parts, region_parts) in groups.items():
            pos = np.concatenate(pos_parts)
            order = np.argsort(pos)
            compiled.append((key, pos[order],
                             np.concatenate(start_parts)[order],
                             np.concatenate(region_parts)[order]))
        return compiled


_EMPTY = np.empty(0, dtype=np.int64)


def assemble_trace(arg_specs, kinds: np.ndarray, words, sends, recvs,
                   flushes, init_params, region_sizes) -> DriverTrace:
    """The one builder of a :class:`DriverTrace`'s tables.

    Every trace comes from here: the synthesizer expands its schedule
    columns from the schedule table, the recorder
    (:mod:`repro.execution.recorder`) collects them from a shadow run,
    and the kernel store persists them (:func:`trace_columns`).
    ``kinds`` is the int8 event stream.  ``words`` is ``(pos, offsets,
    values)`` of the staged words and ``flushes`` ``(pos, bytes)`` of the
    non-empty flushes, each in event order.  ``sends`` / ``recvs`` hold
    ``(key, pos, starts, region_offsets)`` per tile class, rows in event
    order, keyed ``(arg, sizes, strides)`` (plus ``accumulate`` for
    receives).  A ``pos`` is always the position of a call's last event
    (its ``K_WORD``, ``K_COPY`` or ``K_FLUSH``), and every column is
    int64.  ``init_params`` is the driver's
    ``dma_init`` arguments, or ``None`` for a preinitialized body, whose
    ``region_sizes`` are the live engine's ``(input, output)`` sizes.

    Raises :class:`TraceUnsupported` for a driver that sends an argument
    after receiving into it: replay gathers all staged tile data up
    front, so it cannot replay from that snapshot.
    """
    trace = DriverTrace(arg_specs)
    trace.init_params = init_params
    trace.region_sizes = region_sizes
    trace.kinds = kinds
    trace.num_events = kinds.size
    trace.word_pos, trace.word_offsets, trace.word_values = words
    trace.flush_pos, trace.flush_bytes = flushes
    sends = sorted(sends, key=lambda group: int(group[1][0]))
    recvs = sorted(recvs, key=lambda group: int(group[1][0]))
    trace.send_classes = _tile_classes(arg_specs, sends)
    trace.recv_classes = _tile_classes(arg_specs, recvs)

    n_recv = sum(tc.order.size for tc in trace.recv_classes)
    trace.recv_pos = np.empty(n_recv, dtype=np.int64)
    trace.recv_bytes = np.empty(n_recv, dtype=np.int64)
    trace.recv_refs = np.empty((n_recv, 2), dtype=np.int64)
    for class_id, tc in enumerate(trace.recv_classes):
        trace.recv_pos[tc.order] = tc.event_pos - 1
        trace.recv_bytes[tc.order] = tc.num_elements() * tc.itemsize
        trace.recv_refs[tc.order, 0] = class_id
        trace.recv_refs[tc.order, 1] = np.arange(tc.order.size)

    # The staged stream the decoders consume: words and send tiles,
    # merged into event order with one argsort permutation.
    n_words = trace.word_pos.size
    widths = [tc.num_elements() * tc.itemsize // 4
              for tc in trace.send_classes]
    all_pos = np.concatenate([trace.word_pos] + [g[1] for g in sends])
    # Positions are distinct, so any sort gives this permutation; the
    # stable one merges the sorted runs fastest.
    order = np.argsort(all_pos, kind="stable")
    trace.staged_is_word = np.concatenate(
        [np.ones(n_words, dtype=np.uint8)]
        + [np.zeros(g[1].size, dtype=np.uint8) for g in sends])[order]
    trace.staged_values = np.concatenate(
        [trace.word_values] + [np.full(g[1].size, class_id, dtype=np.int64)
                               for class_id, g in enumerate(sends)])[order]
    trace.staged_indices = np.concatenate(
        [np.zeros(n_words, dtype=np.int64)]
        + [np.arange(g[1].size, dtype=np.int64) for g in sends])[order]
    trace.staged_widths = np.concatenate(
        [np.ones(n_words, dtype=np.int64)]
        + [np.full(g[1].size, width, dtype=np.int64)
           for g, width in zip(sends, widths)])[order]
    trace.flush_item_counts = np.searchsorted(
        all_pos[order], trace.flush_pos).astype(np.int64, copy=False)

    first_recv: Dict[int, int] = {}
    for tc in trace.recv_classes:
        first_recv[tc.arg] = min(first_recv.get(tc.arg, tc.event_pos[0]),
                                 tc.event_pos[0])
    for tc in trace.send_classes:
        if tc.arg in first_recv and tc.event_pos[-1] > first_recv[tc.arg]:
            raise TraceUnsupported(
                "argument is sent after being received (read-after-write)"
            )
    trace.recv_disjoint = [_scatter_is_disjoint(tc)
                           for tc in trace.recv_classes]
    return trace


def trace_columns(trace: DriverTrace) -> tuple:
    """The schedule columns ``trace`` was assembled from: exactly
    :func:`assemble_trace`'s arguments, so that
    ``assemble_trace(*trace_columns(trace))`` rebuilds every table.

    The one definition of a trace's content: a kernel store entry holds
    it, the plan registry digests it
    (``repro.execution.metrics._trace_component_digest``) and
    :func:`diff_traces` compares it.
    """
    return (trace.arg_specs, trace.kinds,
            (trace.word_pos, trace.word_offsets, trace.word_values),
            _class_rows(trace.send_classes), _class_rows(trace.recv_classes),
            (trace.flush_pos, trace.flush_bytes),
            trace.init_params, trace.region_sizes)


def _class_rows(classes) -> list:
    """Inverse of :func:`_tile_classes`."""
    return [((tc.arg, tc.sizes, tc.strides)
             + (() if tc.accumulate is None else (tc.accumulate,)),
             tc.event_pos, tc.starts, tc.region_offsets)
            for tc in classes]


def _tile_classes(arg_specs, groups) -> List[_TileClass]:
    """One tile class per group, its rows at their K_COPY events."""
    all_pos = np.sort(np.concatenate([g[1] for g in groups]),
                      kind="stable") if groups else _EMPTY
    return [
        _TileClass(key[0], key[1], key[2], arg_specs[key[0]][2],
                   key[3] if len(key) > 3 else None, starts, regions,
                   pos, np.searchsorted(all_pos, pos))
        for key, pos, starts, regions in groups
    ]


def synthesize_trace(schedule_table: Optional[dict],
                     arg_specs) -> DriverTrace:
    """Expand the emitter's schedule side table into a DriverTrace.

    Raises :class:`SynthesisUnsupported` when the schedule cannot be
    proven static/affine; the kernel then runs per tile.
    """
    start = time.perf_counter()
    try:
        if faults.fires("synth") == "fail":
            raise SynthesisUnsupported("injected synthesis fault")
        if not schedule_table:
            raise SynthesisUnsupported("no schedule side table")
        try:
            return _Synthesizer(schedule_table, arg_specs).build()
        except SynthesisUnsupported:
            raise
        except (TraceUnsupported, KeyError, IndexError, TypeError,
                ValueError, OverflowError, AttributeError) as exc:
            raise SynthesisUnsupported(
                f"schedule not synthesizable: {exc!r}"
            ) from exc
    finally:
        add_stage_time("trace_synth_s", time.perf_counter() - start)


# -- cross-check -----------------------------------------------------------

#: :func:`trace_columns`' entries, as :func:`diff_traces` names them.
_COLUMNS = ("arg_specs", "kinds", "words", "sends", "recvs", "flushes",
            "init_params", "region_sizes")


def diff_traces(synthesized: DriverTrace,
                recorded: DriverTrace) -> List[str]:
    """Column-by-column diff of :func:`trace_columns`; empty means
    bit-identical.

    :func:`assemble_trace` derives every other table (class order,
    receive and staged-item tables, disjointness flags) from them.
    """
    problems: List[str] = []

    def compare(name, left, right):
        if isinstance(left, np.ndarray) or isinstance(right, np.ndarray):
            if not (isinstance(left, np.ndarray)
                    and isinstance(right, np.ndarray)
                    and left.dtype == right.dtype
                    and np.array_equal(left, right)):
                problems.append(name)
        elif isinstance(left, (tuple, list)) \
                and isinstance(right, (tuple, list)):
            if len(left) != len(right):
                problems.append(f"{name} length")
            for i, pair in enumerate(zip(left, right)):
                compare(f"{name}[{i}]", *pair)
        elif left != right:
            problems.append(name)

    for name, left, right in zip(_COLUMNS, trace_columns(synthesized),
                                 trace_columns(recorded)):
        compare(name, left, right)
    return problems
