"""The replay metrics plane: a cached, serializable ``MetricsPlan``.

The generated host drivers have fully static schedules, so every
performance-model quantity a replay produces — per-event copy costs,
cache hit/miss classification, the clock/stall timeline, the LRU
end-state, DMA/accelerator statistics, and the last-writer maps of the
DMA staging regions — is a pure function of the
:class:`~repro.execution.trace.DriverTrace`, the decoded instruction
plan, the runtime configuration (timing model, cache geometry, copy and
call styles, double buffering), the simulated address layout, and the
board state the invocation starts from.  Only the tile *payloads* depend
on input data.

This module evaluates that function once per ``(trace content,
runtime-config fingerprint)`` into a :class:`MetricsPlan`: precomputed
counter totals, the absolute timeline end-state, the cache LRU
end-state, and region-write summaries.  Subsequent invocations with a matching
fingerprint apply the plan in O(state) — installing the final cache
contents plus a handful of scalar assignments — instead of re-simulating
O(events) work.  Plans are persisted alongside traces in the kernel
store (see ``repro.kernel_cache``), so warm processes skip the metrics
plane entirely.  A build's sequential part — the LRU classification
of every event's cache lines, each event's charges and the clock/stall
timeline — is one C walk over the events (``metrics_pass``), and the
last-writer scan of each staging region one more C call
(``last_writers``, :mod:`repro.soc._native`); Python passes them
per-group, per-kind and per-transfer tables only.  Replay is offered
only while that library is available
(:func:`repro.execution.trace.trace_enabled`), so there is no second
implementation of any of them.

Selectors (see the README tables):

* ``REPRO_FAULTS="metrics.plan:fail"`` — a cache bypass, not a rung of
  its own: every invocation runs the same build a miss runs and
  nothing is looked up or cached (counted as ``metrics_plan_fallback``);
* ``REPRO_CHECK=1`` — cross-check mode: every cached-plan hit *also*
  rebuilds the plan from the live metrics plane and raises
  :class:`MetricsPlanMismatch` on any divergence.

Plans are *shared by content*: a plan is a pure function of the trace
content (its schedule columns, digested) and the fingerprint, never of which
trace object carries that content, so traces with equal content — a
sweep's ``cpu_tiling``/version/permutation twins, a re-lowered kernel,
a synthesized trace next to its store-loaded twin — resolve to one plan
dict (see :func:`shared_plans`) and hit each other's plans.  Every
build seeds its LRU classification from the board it runs on.

Bit-identity: a plan is only ever applied when the fingerprint —
covering every input of the metrics plane, including the floating-point
timeline start state and a digest of the exact cache LRU contents —
matches, and the build itself performs the same operation sequence as
the per-tile runtime, so plan application is bit-identical to the live
computation by determinism.
"""

from __future__ import annotations

import hashlib
import pickle
import time
import weakref
from collections import OrderedDict
from typing import Dict, List, Tuple

import numpy as np

from .. import counters, faults
from ..envutil import check_requested
from ..runtime.copy import CopyKinds, copy_charge_terms, plan_for_geometry
from ..soc import _native  # attribute reads: tests patch native_lib
from ..soc.cache import (
    _export_ways,
    end_state_bytes,
    end_state_fits,
    install_ways,
    pack_ways,
)
from .synthesize import trace_columns
from .trace import (
    K_CALL,
    K_INIT,
    K_LOOP,
    K_RWAIT,
    K_SUB,
    K_WORD,
    STAGE_TIMINGS,
    add_stage_time,
)

#: How replays obtained their metrics plane this process:
#: ``hits`` (a cached plan applied in O(state)), ``misses`` (built from
#: the live metrics plane, then cached), ``fallback`` (an injected
#: ``metrics.plan`` fault bypassed the cache: the same build a miss
#: runs, neither looked up nor kept; a nonzero value under benchmark
#: configs means the plan cache was bypassed).
METRICS_PLAN_COUNTERS: Dict[str, int] = counters.section("metrics_plan", {
    "metrics_plan_hits": 0,
    "metrics_plan_misses": 0,
    "metrics_plan_fallback": 0,
    #: Never incremented: a frozen-reader key (the list is at
    #: ``repro.execution.diagnostics``).
    "plan_incremental_hits": 0,
    #: Never incremented either: the build sub-product memo they
    #: counted is gone (frozen-reader keys, same list).
    "component_memo_hits": 0,
    "component_memo_misses": 0,
})

#: Cached plans kept per trace *content* (distinct board
#: states/layouts/accelerators of every trace that shares it).
_MAX_PLANS_PER_TRACE = 8


# -- the plan cache ---------------------------------------------------------
#
# One level: content digest -> the ``fingerprint -> MetricsPlan`` dict
# that every live trace of that content carries as ``metrics_plans``.
# Keyed by content, not object identity, because that is what a plan is
# a function of: 190 distinct contents served the 512 simulated points
# of the benchmark sweep.  Held weakly — a dict lives as long as a trace
# that carries it, so what bounds traces (``KernelCache.maxsize``)
# bounds this too.

_SHARED_PLANS: "weakref.WeakValueDictionary[str, OrderedDict]" = \
    weakref.WeakValueDictionary()
#: Guards the registry and every insert/evict/reorder/snapshot of the
#: dicts in it (content-equal kernels run on different threads).
#: Fork-safe: a replay on one parent thread (a service warmup that runs
#: inline on the reader thread) holds this while a dispatcher thread
#: may be forking a replacement worker.
_PLANS_LOCK = counters.fork_safe_lock()


def reset_component_memo() -> None:
    """Forget which traces share plans (test isolation hook).

    Live traces keep the dicts they hold; a trace synthesized afterwards
    starts from its own empty one.  The name is a frozen-reader name
    (the list is at ``repro.execution.diagnostics``).
    """
    with _PLANS_LOCK:
        _SHARED_PLANS.clear()


def shared_plans(trace) -> "OrderedDict":
    """The plan dict of ``trace``'s content; ``_PLANS_LOCK`` is held.

    The first live trace of a content donates its ``metrics_plans``;
    later ones (store-loaded ones arrive with plans) merge theirs in
    and adopt the shared object.
    """
    digest = _trace_component_digest(trace)
    plans = _SHARED_PLANS.get(digest)
    if plans is None:
        _SHARED_PLANS[digest] = plans = trace.metrics_plans
    elif plans is not trace.metrics_plans:
        plans.update(trace.metrics_plans)
        _evict(plans)
        trace.metrics_plans = plans
    return plans


def _evict(plans) -> None:
    while len(plans) > _MAX_PLANS_PER_TRACE:
        plans.popitem(last=False)


def plans_snapshot(trace) -> Dict[str, "MetricsPlan"]:
    """A copy of ``trace``'s plans, consistent against concurrent
    ``obtain_plan`` calls on content-equal traces (the publish path)."""
    with _PLANS_LOCK:
        return dict(trace.metrics_plans)


def _trace_component_digest(trace) -> str:
    """Content digest of ``trace``: a hash of its schedule columns
    (:func:`~repro.execution.synthesize.trace_columns`), which every
    table a plan reads is assembled from.

    Cached on the trace as the private ``_component_digest`` and never
    persisted: a loaded trace digests its own columns, so a stored entry
    cannot claim another content's plans.
    """
    digest = getattr(trace, "_component_digest", None)
    if digest is None:
        # Every load hashes its trace's columns, so the hash is the
        # fastest collision-resistant one in hashlib on CPUs with SHA
        # extensions: sha256, 1.15 GB/s against blake2b's 0.45 GB/s on
        # a 2-vCPU x86 box with SHA-NI.
        arg_specs, kinds, words, sends, recvs, flushes, init, regions = \
            trace_columns(trace)
        arrays = [kinds, *words, *flushes]
        for _, *rows in sends + recvs:
            arrays += rows
        h = hashlib.sha256(repr((
            arg_specs, [group[0] for group in sends + recvs], len(sends),
            init, regions)).encode())
        for array in arrays:
            # Every column is 1-D, so dtype and size frame it.
            array = np.ascontiguousarray(array)
            h.update(b"%s%d;" % (array.dtype.str.encode(), array.size))
            h.update(array)  # buffer protocol: no tobytes copy
        digest = trace._component_digest = h.hexdigest()
    return digest


class MetricsPlanMismatch(RuntimeError):
    """A cached MetricsPlan diverged from the live metrics plane."""


class MetricsPlan:
    """The metrics plane of one replay, evaluated to its end-state.

    Everything here is data-independent: absolute timeline end values
    (bound to the start state via the fingerprint), exact integer
    counter deltas, each cache level's LRU end-state, and the
    last-writer summaries of the DMA staging regions (index maps only —
    the data plane supplies the payload bytes at apply time).
    """

    __slots__ = (
        "final_state", "l1_state", "l2_state",
        "l1_hits_d", "l1_misses_d", "l2_hits_d", "l2_misses_d",
        "l1_miss_total", "l2_miss_total", "stats",
        "input_word_dest", "input_word_values", "input_tile_writes",
        "output_writes",
    )

    def __init__(self):
        #: [cpu_cycles, branch_instructions, cache_references,
        #:  stall_cycles, accel_cycles, clock, accel_ready_at,
        #:  dma_busy_until, accel.total_cycles] — absolute end values.
        self.final_state: np.ndarray = None
        #: Final LRU contents per level, ``(counts, lines)``
        #: (:data:`repro.soc.cache.EndState`): one occupancy per set and
        #: the resident lines only, so a plan's size follows the lines a
        #: run touched, not the cache's way slots.  Applying installs
        #: them as the caches' lazily-expanded mirrors, uncopied.
        self.l1_state: Tuple[np.ndarray, np.ndarray] = None
        self.l2_state: Tuple[np.ndarray, np.ndarray] = None
        self.l1_hits_d = 0
        self.l1_misses_d = 0
        self.l2_hits_d = 0
        self.l2_misses_d = 0
        self.l1_miss_total = 0
        self.l2_miss_total = 0
        #: Exact integer deltas for counters / accelerator / engine.
        self.stats: Dict[str, int] = {}
        self.input_word_dest: np.ndarray = None
        self.input_word_values: np.ndarray = None
        #: Per send class: (class_id, tile_indices, dest_word_positions,
        #: flat source positions into the gathered (tiles, words) block).
        self.input_tile_writes: List[Tuple] = []
        #: Per winning receive: (ordinal, dest_word_positions,
        #: source word positions within the pushed payload).
        self.output_writes: List[Tuple] = []

    def __getstate__(self):
        return {name: getattr(self, name) for name in self.__slots__}

    def __setstate__(self, state):
        for name in self.__slots__:
            setattr(self, name, state[name])


def diff_plans(left: MetricsPlan, right: MetricsPlan) -> List[str]:
    """Field names on which two plans differ (bitwise-exact compare)."""
    problems = []

    def arrays_equal(a, b) -> bool:
        a, b = np.asarray(a), np.asarray(b)
        return (a.shape == b.shape and a.dtype == b.dtype
                and a.tobytes() == b.tobytes())

    for name in ("final_state", "input_word_dest", "input_word_values"):
        if not arrays_equal(getattr(left, name), getattr(right, name)):
            problems.append(name)
    for name in ("l1_state", "l2_state"):
        if not all(map(arrays_equal, getattr(left, name),
                       getattr(right, name))):
            problems.append(name)
    for name in ("l1_hits_d", "l1_misses_d", "l2_hits_d", "l2_misses_d",
                 "l1_miss_total", "l2_miss_total", "stats"):
        if getattr(left, name) != getattr(right, name):
            problems.append(name)
    for name in ("input_tile_writes", "output_writes"):
        lw, rw = getattr(left, name), getattr(right, name)
        if len(lw) != len(rw):
            problems.append(name)
            continue
        for entry_l, entry_r in zip(lw, rw):
            if entry_l[0] != entry_r[0] or not all(
                arrays_equal(a, b)
                for a, b in zip(entry_l[1:], entry_r[1:])
            ):
                problems.append(name)
                break
    return problems


# -- fingerprinting ---------------------------------------------------------

def _timing_sig(timing) -> tuple:
    """``dataclasses.astuple`` minus the recursive deep-copy machinery.

    ``TimingModel`` is a flat dataclass of scalars, so the instance
    dict's values in field order *are* its astuple — at a fraction of
    the cost (astuple showed up at ~0.25 ms per plan build).  The
    resulting tuple is equal to astuple's, so fingerprints persisted
    by earlier builds keep matching.
    """
    return tuple(vars(timing).values())


def _cache_digest(cache) -> bytes:
    """Exact digest of one cache's LRU contents (order included)."""
    if cache.hits == 0 and cache.misses == 0:
        # Never accessed since construction/reset: all sets are empty.
        return b"cold"
    return end_state_bytes(cache)


def plan_fingerprint(ex, decode_key: Tuple) -> str:
    """Digest of every metrics-plane input for one replay invocation."""
    board = ex.board
    caches = board.caches
    counters = board.counters
    config = (
        decode_key,
        _timing_sig(board.timing),
        (caches.l1.size_bytes, caches.l1.line_size, caches.l1.associativity),
        (caches.l2.size_bytes, caches.l2.line_size, caches.l2.associativity),
        caches.line_size,
        ex.rt.copy_style,
        ex.rt._call_cost,
        bool(ex.double_buffered),
        tuple((d.base_address, d.offset) for d in ex.descriptors),
        (ex.engine.input_region.base, ex.engine.input_region.size,
         ex.engine.output_region.base, ex.engine.output_region.size),
        ex.trace.init_params is None,
    )
    state = (
        counters.cpu_cycles, counters.branch_instructions,
        counters.cache_references, counters.stall_cycles,
        counters.accel_cycles, board.clock, board.accel_ready_at,
        board.dma_busy_until, board.accelerator.total_cycles,
    )
    digest = hashlib.sha256(pickle.dumps((config, state), protocol=4))
    digest.update(_cache_digest(caches.l1))
    digest.update(_cache_digest(caches.l2))
    return digest.hexdigest()


# -- plan acquisition -------------------------------------------------------

def obtain_plan(ex, decode_key: Tuple) -> MetricsPlan:
    """Look up (or build and cache) the MetricsPlan for one invocation."""
    trace = ex.trace
    if faults.fires("metrics.plan") == "fail":
        METRICS_PLAN_COUNTERS["metrics_plan_fallback"] += 1
        return _timed_build(ex)
    key = plan_fingerprint(ex, decode_key)
    with _PLANS_LOCK:
        plans = shared_plans(trace)
        cached = plans.get(key)
        if cached is not None:
            plans.move_to_end(key)
    caches = ex.board.caches
    # A stored plan's end-state passed the load checks, but only the
    # board tells whether it fits: one that does not is rebuilt before
    # replay writes anything.
    if cached is not None and end_state_fits(cached.l1_state, caches.l1) \
            and end_state_fits(cached.l2_state, caches.l2):
        METRICS_PLAN_COUNTERS["metrics_plan_hits"] += 1
        if check_requested():
            problems = diff_plans(cached, _timed_build(ex))
            if problems:
                raise MetricsPlanMismatch(
                    "cached MetricsPlan diverges from the live metrics "
                    "plane on: " + ", ".join(problems)
                )
        return cached
    METRICS_PLAN_COUNTERS["metrics_plan_misses"] += 1
    plan = _timed_build(ex)
    with _PLANS_LOCK:
        plans[key] = plan
        _evict(plans)
    return plan


def _timed_build(ex) -> MetricsPlan:
    start = time.perf_counter()
    try:
        return build_plan(ex)
    finally:
        add_stage_time("metrics_plan_build_s", time.perf_counter() - start)


# -- plan application -------------------------------------------------------

def apply_plan(ex, plan: MetricsPlan) -> None:
    """Install the metrics end-state into board/caches/accel/engine.

    O(state): scalar assignments plus installing the cache end-states.
    The data plane (tile scatter, region payload writes) is not touched
    here.
    """
    start = time.perf_counter()
    board = ex.board
    counters = board.counters
    # Python floats, as the per-tile charge paths leave them: the next
    # fingerprint pickles these, and an np.float64 pickles differently.
    fs = plan.final_state.tolist()
    counters.cpu_cycles = fs[0]
    counters.branch_instructions = fs[1]
    counters.cache_references = fs[2]
    counters.stall_cycles = fs[3]
    counters.accel_cycles = fs[4]
    board.clock = fs[5]
    board.accel_ready_at = fs[6]
    board.dma_busy_until = fs[7]
    board.accelerator.total_cycles = fs[8]

    stats = plan.stats
    counters.cache_misses += plan.l1_miss_total
    counters.l2_references += plan.l1_miss_total
    counters.l2_misses += plan.l2_miss_total
    counters.dma_transactions += stats["dma_transactions"]
    counters.dma_bytes_to_accel += stats["dma_bytes_to_accel"]
    counters.dma_bytes_from_accel += stats["dma_bytes_from_accel"]

    caches = board.caches
    install_ways(caches.l1, plan.l1_state)
    install_ways(caches.l2, plan.l2_state)
    caches.l1.hits += plan.l1_hits_d
    caches.l1.misses += plan.l1_misses_d
    caches.l2.hits += plan.l2_hits_d
    caches.l2.misses += plan.l2_misses_d

    accel = board.accelerator
    accel.instructions_executed += stats["accel_instructions"]
    accel.in_fifo.total_words_pushed += stats["in_fifo_words"]
    accel.in_fifo.total_transactions += stats["in_fifo_transactions"]
    accel.out_fifo.total_words_pushed += stats["out_fifo_words"]
    accel.out_fifo.total_transactions += stats["out_fifo_transactions"]
    engine = ex.engine
    engine.transactions += stats["engine_transactions"]
    engine.bytes_sent += stats["dma_bytes_to_accel"]
    engine.bytes_received += stats["dma_bytes_from_accel"]
    add_stage_time("metrics_plan_apply_s", time.perf_counter() - start)


# -- plan construction ------------------------------------------------------

def build_plan(ex) -> MetricsPlan:
    """Evaluate the live metrics plane for one invocation into a plan.

    Reads board/cache/engine state but mutates nothing — the caller
    applies the result (and may instead diff it against a cached plan).
    """
    trace = ex.trace
    decoded = ex.plan
    caches = ex.board.caches
    plan = MetricsPlan()

    ways1, ways2 = _start_ways(caches.l1), _start_ways(caches.l2)
    plan.final_state, totals = _metrics_pass(ex, ways1, ways2)
    plan.l1_state = pack_ways(ways1, caches.l1)
    plan.l2_state = pack_ways(ways2, caches.l2)
    l1_hits, l1_misses, l2_misses = totals.tolist()
    plan.l1_hits_d = l1_hits
    plan.l1_misses_d = plan.l1_miss_total = l1_misses
    plan.l2_hits_d = l1_misses - l2_misses
    plan.l2_misses_d = plan.l2_miss_total = l2_misses

    plan.stats = {
        "dma_transactions": len(trace.flush_pos) + len(trace.recv_pos),
        "dma_bytes_to_accel": int(trace.flush_bytes.sum()),
        "dma_bytes_from_accel": int(trace.recv_bytes.sum()),
        "accel_instructions": int(np.sum(decoded.flush_instructions)),
        "in_fifo_words": int(trace.flush_bytes.sum()) // 4,
        "in_fifo_transactions": len(trace.flush_bytes),
        "out_fifo_words": int(np.sum(decoded.out_words_per_push)),
        "out_fifo_transactions": len(decoded.out_words_per_push),
        "engine_transactions": (len(trace.flush_bytes)
                                + len(trace.recv_bytes)),
    }

    # Last-writer index maps of both DMA staging regions.  The regions
    # are write-before-read per flush, so their final contents never
    # influence later runs; the winning writes are precomputed so each
    # invocation rebuilds the region with a handful of vectorized
    # writes — for debugging fidelity, exactly matching the per-tile
    # path's end state.
    (plan.input_word_dest, plan.input_word_values,
     plan.input_tile_writes) = _input_winners(ex)
    plan.output_writes = _output_winners(ex)
    return plan


def _metrics_pass(ex, ways1, ways2):
    """Classification, charges and timeline of every event: one C call
    (``metrics_pass``) over small tables.

    Each tile class's rows are split into alignment groups (equal
    source/destination line offsets); a group shares one copy plan
    (``plan_for_geometry``), so one set of ``copy_charge_terms`` — the
    formulas ``charge_memref_copy`` applies per copy — and one column
    layout of lines relative to the row's first source/destination
    line.  ``ways1`` / ``ways2`` are the classifier's way buffers, left
    holding the LRU end-state.  Returns the 9-float timeline end state
    and the ``(l1 hits, l1 misses, l2 misses)`` totals.
    """
    trace = ex.trace
    board = ex.board
    timing = board.timing
    l1, l2 = board.caches.l1, board.caches.l2
    line = board.caches.line_size
    style = ex.rt.copy_style
    in_base = ex.engine.input_region.base
    M = trace.num_events
    # Per event: its alignment group (-1: a staged word, -2: no lines)
    # and its first source / destination line.
    ev_group = np.full(M, -2, dtype=np.int64)
    ev_lines = np.empty((2, M), dtype=np.int64)
    ev_group[trace.word_pos] = -1
    ev_lines[0, trace.word_pos] = (in_base + trace.word_offsets) // line
    grp_cost, columns = [], []
    for classes, region_base in (
            (trace.send_classes, in_base),
            (trace.recv_classes, ex.engine.output_region.base)):
        for tile_class in classes:
            desc = ex.descriptors[tile_class.arg]
            sizes = tile_class.sizes
            strides = tile_class.strides
            itemsize = tile_class.itemsize
            row_length, inner_stride = (sizes[-1], strides[-1]) \
                if sizes else (1, 1)
            use_fast = style == CopyKinds.SPECIALIZED and inner_stride == 1
            row_bytes = row_length * itemsize
            span_src = row_bytes if use_fast else \
                ((row_length - 1) * abs(inner_stride) + 1) * itemsize
            src_start = (desc.base_address
                         + (desc.offset + tile_class.starts) * itemsize)
            dst_start = region_base + tile_class.region_offsets
            # Alignment keys lie below line**2, so a presence table
            # groups the rows in O(rows): keys ascending, inverse their
            # ranks.
            align = (src_start % line) * line + dst_start % line
            present = np.bincount(align, minlength=line * line) > 0
            keys = np.flatnonzero(present)
            inverse = (np.cumsum(present) - 1)[align] if keys.size > 1 \
                else 0
            pos = tile_class.event_pos
            ev_group[pos] = inverse + len(grp_cost)
            ev_lines[0, pos] = src_start // line
            ev_lines[1, pos] = dst_start // line
            for key in keys.tolist():
                copy_plan = plan_for_geometry(
                    sizes, strides, itemsize, key // line, key % line,
                    span_src, row_bytes, line)
                grp_cost.append(copy_charge_terms(
                    copy_plan, style, use_fast, row_length,
                    bool(tile_class.accumulate), timing))
                columns.append(_fill_columns(copy_plan))

    grp_width = np.asarray([rel.size for _, rel in columns],
                           dtype=np.int64)
    grp_off = np.cumsum(grp_width) - grp_width
    from_dst = np.concatenate([fd for fd, _ in columns] or [[]]) \
        .astype(np.uint8, copy=False)
    rel = np.concatenate([rel for _, rel in columns] or [[]]) \
        .astype(np.int64, copy=False)
    grp_cost = np.asarray(grp_cost, dtype=np.float64).reshape(-1)

    # (cycles, branches, references) of every other event kind; the
    # K_COPY row charges a copy event that belongs to no tile class.
    kind_cost = np.zeros((K_RWAIT + 1, 3))
    init_cycles = timing.dma_init_s * timing.cpu_freq_hz
    kind_cost[K_LOOP] = (timing.loop_iteration_cycles,
                         timing.loop_iteration_branches, 0.0)
    kind_cost[K_SUB, 0] = timing.subview_cycles
    kind_cost[K_CALL, :2] = ex.rt._call_cost
    kind_cost[K_INIT, :2] = (init_cycles, init_cycles / 100.0)
    kind_cost[K_WORD] = (2.0, 0.0, 1.0)

    def transfer_s(num_bytes):
        seconds = num_bytes / timing.axi_bytes_per_cycle
        return timing.dma_latency_s + seconds / timing.accel_freq_hz

    flush_t = transfer_s(trace.flush_bytes)
    flush_ac = np.ascontiguousarray(ex.plan.flush_cycles, dtype=np.float64)
    recv_t = transfer_s(trace.recv_bytes)
    model = np.asarray([
        timing.l1_hit_extra_cycles, timing.l1_miss_penalty_cycles,
        timing.l2_miss_penalty_cycles, timing.cpu_freq_hz,
        timing.accel_freq_hz, timing.dma_start_cycles,
        timing.dma_start_branches, timing.poll_period_cycles,
        timing.poll_branches], dtype=np.float64)
    counters = board.counters
    state = np.asarray([
        counters.cpu_cycles, counters.branch_instructions,
        counters.cache_references, counters.stall_cycles,
        counters.accel_cycles, board.clock, board.accel_ready_at,
        board.dma_busy_until, board.accelerator.total_cycles,
    ], dtype=np.float64)
    totals = np.zeros(3, dtype=np.int64)
    kinds = np.ascontiguousarray(trace.kinds, dtype=np.int8)
    failed = _native.native_lib().metrics_pass(
        kinds.ctypes.data, M, ev_group.ctypes.data, ev_lines.ctypes.data,
        grp_off.ctypes.data, grp_width.ctypes.data, grp_cost.ctypes.data,
        from_dst.ctypes.data, rel.ctypes.data, kind_cost.ctypes.data,
        flush_t.ctypes.data, flush_ac.ctypes.data, flush_t.size,
        recv_t.ctypes.data, recv_t.size,
        ways1.ctypes.data, l1.num_sets, l1.associativity,
        -1 if l1.set_mask is None else l1.set_mask,
        ways2.ctypes.data, l2.num_sets, l2.associativity,
        -1 if l2.set_mask is None else l2.set_mask,
        model.ctypes.data, int(ex.double_buffered), state.ctypes.data,
        totals.ctypes.data)
    if failed:
        raise ValueError("trace events disagree with its flush and "
                         "receive tables")
    return state, totals


def _fill_columns(copy_plan):
    """Per-column (from_dst, relative-line) arrays of one copy plan.

    Column ``j`` of a copy event's line block is ``src + rel[j]`` or
    ``dst + rel[j]`` depending on ``from_dst[j]`` — the permuted
    flattening of the plan's src/dst relative-line sequences.  Memoized
    on the (globally shared) copy-plan object.
    """
    cols = getattr(copy_plan, "_fill_columns", None)
    if cols is None:
        n_src = copy_plan.src_rel.size
        rel = np.ascontiguousarray(np.concatenate(
            [copy_plan.src_rel, copy_plan.dst_rel]
        )[copy_plan.perm])
        from_dst = np.ascontiguousarray(
            (copy_plan.perm >= n_src).astype(np.uint8)
        )
        cols = (from_dst, rel)
        copy_plan._fill_columns = cols
    return cols


def _start_ways(cache) -> np.ndarray:
    """The C classifier's in/out way buffer (caller-owned), seeded with
    the cache's LRU contents — the only place a dense way array lives;
    :func:`build_plan` packs what the classifier leaves in it.

    Same never-accessed invariant as ``_cache_digest``: zero hits and
    misses since construction/reset (and no installed mirror) means no
    line was ever inserted, and most first-run plan builds start exactly
    there — no need to walk the sets to find them all empty.
    """
    if cache.hits == 0 and cache.misses == 0 and cache._mirror is None:
        return np.full(cache.num_sets * cache.associativity, -1,
                       dtype=np.int64)
    return _export_ways(cache)


# -- region-write summaries -------------------------------------------------

def last_writers(is_word, cls, idx, word_offsets, classes, region_words):
    """Every word's winning write in a staging region: one C call
    (``last_writers``).

    Items are the region's writes in order: a staged word where
    ``is_word`` (``None``: no words) is set, its byte offset the next of
    ``word_offsets``; otherwise tile ``idx[i]`` of ``classes[cls[i]]``.
    Returns ``(item, pos, src)`` in descending item, ascending word
    order — the scalar backward "first uncovered write wins" scan: the
    winning item, the region word, and the word's offset within that
    item's payload (for a staged word, its ordinal).  The scan's scratch
    is sized by the region's used span (up to the end of its last
    write), which must lie inside its ``region_words``.
    """
    used = int(word_offsets.max()) + 4 if word_offsets.size else 0
    for tile_class in classes:
        if tile_class.region_offsets.size:
            used = max(used, int(tile_class.region_offsets.max())
                       + tile_class.num_elements() * tile_class.itemsize)
    used_words = used // 4
    if used_words > region_words:
        raise ValueError("staged writes leave the staging region")
    offsets = [tc.region_offsets for tc in classes]
    class_base = np.cumsum([0] + [o.size for o in offsets[:-1]],
                           dtype=np.int64)
    class_width = np.asarray(
        [tc.num_elements() * tc.itemsize // 4 for tc in classes],
        dtype=np.int64)
    region_offsets = np.concatenate(offsets or [[]]).astype(np.int64)
    covered = np.zeros(used_words, dtype=np.uint8)
    item, pos, src = np.empty((3, used_words), dtype=np.int64)
    n = _native.native_lib().last_writers(
        cls.size, None if is_word is None else is_word.ctypes.data,
        cls.ctypes.data, idx.ctypes.data, cls.strides[0] // 8,
        word_offsets.ctypes.data, word_offsets.size,
        class_base.ctypes.data, class_width.ctypes.data,
        region_offsets.ctypes.data, used_words, covered.ctypes.data,
        item.ctypes.data, pos.ctypes.data, src.ctypes.data)
    if n < 0:
        raise ValueError("a staged write leaves the staging region")
    return item[:n], pos[:n], src[:n]


def _input_winners(ex):
    """Last-writer index map of the DMA input staging region."""
    trace = ex.trace
    ids, pos, src = last_writers(
        trace.staged_is_word, trace.staged_values, trace.staged_indices,
        np.ascontiguousarray(trace.word_offsets, dtype=np.int64),
        trace.send_classes, ex.engine.input_words.size)
    word_sel = trace.staged_is_word[ids].astype(bool)
    word_dest = pos[word_sel]
    word_vals = (trace.word_values[src[word_sel]]
                 & 0xFFFFFFFF).astype(np.uint32)

    tile_writes: List[Tuple] = []
    tile_ids = ids[~word_sel]
    tile_pos = pos[~word_sel]
    tile_src = src[~word_sel]
    if tile_ids.size:
        classes = trace.staged_values[tile_ids]
        for class_id in np.unique(classes):
            in_class = classes == class_id
            ids_c = tile_ids[in_class]
            first = np.empty(ids_c.size, dtype=bool)
            first[0] = True
            first[1:] = ids_c[1:] != ids_c[:-1]
            row_of = np.cumsum(first) - 1
            rows = ids_c[first]
            tile_class = trace.send_classes[class_id]
            width = tile_class.num_elements() * tile_class.itemsize // 4
            tile_writes.append((
                int(class_id),
                trace.staged_indices[rows].astype(np.int64, copy=False),
                tile_pos[in_class],
                row_of * width + tile_src[in_class],
            ))
    return word_dest, word_vals, tile_writes


def _output_winners(ex):
    """Last-writer index map of the DMA output staging region."""
    trace = ex.trace
    refs = trace.recv_refs
    ids, pos, src = last_writers(
        None, refs[:, 0], refs[:, 1], np.empty(0, dtype=np.int64),
        trace.recv_classes, ex.engine.output_words.size)
    writes: List[Tuple] = []
    if ids.size:
        first = np.empty(ids.size, dtype=bool)
        first[0] = True
        first[1:] = ids[1:] != ids[:-1]
        seg = np.flatnonzero(first)
        seg_end = np.append(seg[1:], ids.size)
        for s, e, ordinal in zip(seg, seg_end, ids[first]):
            writes.append((int(ordinal), pos[s:e], src[s:e]))
    return writes

