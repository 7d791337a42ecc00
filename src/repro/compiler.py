"""Top-level AXI4MLIR driver: configuration to executable host code.

Typical use (see ``examples/quickstart.py``)::

    accel_hw, accel_info = make_matmul_system(version=3, size=8, flow="Cs")
    compiler = AXI4MLIRCompiler(accel_info)
    kernel = compiler.compile_matmul(64, 64, 64)
    board = make_pynq_z2()
    board.attach_accelerator(accel_hw)
    counters = kernel.run(board, A, B, C)      # C += A @ B on the accelerator
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from . import counters
from .accel_config import AcceleratorInfo, CPUInfo
from .codegen import (
    compile_host_function,
    emit_function,
    schedule_event_count,
)
from .dialects import func, linalg
from .envutil import check_requested
from .execution import interpret_function
from .execution.metrics import METRICS_PLAN_COUNTERS, plans_snapshot
from .execution.recorder import record_trace
from .execution.replay import replay_kernel
from .execution.synthesize import (
    TraceMismatch,
    assemble_trace,
    diff_traces,
    synthesize_trace,
    trace_columns,
)
from .execution.trace import (
    K_FLUSH,
    K_LOOP,
    K_RECV,
    K_RWAIT,
    STAGE_TIMINGS,
    TRACE_COUNTERS,
    TraceUnsupported,
    add_stage_time,
    trace_enabled,
)
from .ir import Module, MemRefType, element_type_from_string, parse_module
from .runtime import (AxiRuntime, CALL_STYLE_GENERATED, CALL_STYLE_MANUAL,
                      DoubleBufferedRuntime)
from .soc import Board
from .soc.cache import check_end_state
from .store import STORE_COUNTERS, KernelStore
from .transforms import CompileError, build_axi4mlir_pipeline
from .transforms.cpu_tiling import cpu_tiling_applies
from .transforms.lower_to_accel import LoweringPlan, operand_dims

#: Environment variable holding the on-disk kernel-store directory
#: (conventionally ``.repro_cache/`` at the repo root).
KERNEL_CACHE_DIR_ENV = "REPRO_KERNEL_CACHE_DIR"

#: The one on-disk payload version, folded into every entry name and
#: checked on every load (``KernelCache._disk_load``).  One suffices: an
#: entry name already carries a digest of every ``repro`` source file
#: (:func:`store_entry_name`), so a change to the shape of a kernel
#: payload, DriverTrace or MetricsPlan renames every entry
#: before any per-artifact version could be compared.  What is left
#: for this number is a payload that reaches a current name some other
#: way (a copied or hand-written file): it is quarantined, not loaded.
#: Version 5: kernel payloads are data (IR, trace, plans) in the
#: container of :mod:`repro.store`; the driver is re-emitted from the IR.
#: Version 6: every schedule table of a trace is an ndarray.
#: Version 7: the C decoders' plans are re-derived, not persisted.
#: Version 8: a trace is stored as its schedule columns and assembled on
#: load.
#: Version 9: a MetricsPlan's cache end-states are per-set occupancies
#: plus the resident lines, not every way slot.
#: Version 10: a kernel's head carries its call style and the engine its
#: host initializes before allocating the arguments (the manual
#: baselines are kernels).
#: Version 12: an entry holds no IR; a loaded kernel that needs its
#: module rebuilds it through the compile it was looked up with.
KERNEL_STORE_VERSION = 12


# -- disk-store suspension ----------------------------------------------------
#
# Runs one scope on the no-store degradation path (memory-only
# compilation, bit-identical results) without mutating process-global
# environment.  The flag is thread-local so concurrent scopes in one
# process stay independent.  Its only caller is the perf harness's
# layer probes (``perf/perfbench/layers.py``, timing a memory-only
# compile); the service and the sweep let a store failure degrade the
# one call that meets it.

_disk_suspension = threading.local()


def disk_store_suspended() -> bool:
    """True while the calling thread is inside :func:`suspend_disk_store`."""
    return getattr(_disk_suspension, "count", 0) > 0


@contextmanager
def suspend_disk_store():
    """Temporarily disable the on-disk kernel store for this thread.

    Inside the context every :class:`KernelCache` behaves as if
    ``REPRO_KERNEL_CACHE_DIR`` were unset: compiles stay memory-only
    and no disk I/O is attempted.  Nestable; never affects other
    threads.
    """
    _disk_suspension.count = getattr(_disk_suspension, "count", 0) + 1
    try:
        yield
    finally:
        _disk_suspension.count -= 1


_SOURCE_TREE_DIGEST: Optional[str] = None


def _source_tree_digest() -> str:
    """Content hash of the installed ``repro`` package sources.

    Folded into every on-disk kernel-store entry name so that *any*
    source change — not just ones remembered in a manual version bump —
    invalidates persisted kernels/traces.  Without this, a restored
    cache (e.g. CI's ``actions/cache`` prefix restore) could silently
    serve drivers emitted by an older compiler.  Hashed once per
    process (~100 small files).
    """
    global _SOURCE_TREE_DIGEST
    if _SOURCE_TREE_DIGEST is None:
        root = Path(__file__).resolve().parent
        hasher = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            hasher.update(str(path.relative_to(root)).encode())
            hasher.update(b"\0")
            try:
                hasher.update(path.read_bytes())
            except OSError:
                pass
        _SOURCE_TREE_DIGEST = hasher.hexdigest()
    return _SOURCE_TREE_DIGEST


def store_entry_name(key) -> str:
    """Entry name: ``kernel-<src digest>-<key digest>``.

    The source-tree digest rides in the name twice over — as a
    greppable prefix (so CI can prune entries no current source can
    ever hit, see ci.yml) and folded into the key digest (so collisions
    on the truncated prefix still cannot alias).
    """
    source_digest = _source_tree_digest()
    digest = hashlib.sha256(
        repr((KERNEL_STORE_VERSION, source_digest, key)).encode()
    ).hexdigest()
    return f"kernel-{source_digest[:12]}-{digest}"


# -- the trace slots of a store entry ---------------------------------------
#
# A kernel entry carries its trace as its schedule columns
# (``synthesize.trace_columns``), which a load assembles into the trace
# and then checks, and, in a slot of its own, its MetricsPlans.  In
# memory traces of equal content share one plan dict
# (``execution.metrics.shared_plans``) but each has an entry of its
# own, so the plan keys the disk entry holds ride on the
# loaded/published trace *object* as the
# process-local ``_stored_plans``: an entry is (re)published iff its
# trace, or the plan a replay of it was just served, is not in it.
# The other plans of the shared dict ride along in that write but
# never cause one, so a store converges whatever order its entries are
# loaded in: a process that finds everything publishes nothing.  That
# rule is the only publication rule: an entry exists on disk only once
# it carries a trace, and is written once per new artifact set.

def _check_host(payload: dict) -> None:
    """Raise ``ValueError`` unless a loaded head's call style is one a
    runtime takes and its ``host_dma_init`` is ``None`` or five
    non-negative ints — the latter exactly when the trace is
    preinitialized, with that engine's region sizes."""
    init, regions = payload["host_dma_init"], payload["trace"][7]
    if payload["call_style"] not in (CALL_STYLE_GENERATED,
                                     CALL_STYLE_MANUAL) \
            or (init is None) != (regions is None) or init is not None and (
                type(init) is not tuple or len(init) != 5
                or any(type(v) is not int or v < 0 for v in init)
                or regions != (init[2], init[4])):
        raise ValueError("head of no runtime or not the trace's")


def stored_trace(payload: dict):
    """The trace ``payload`` carries, assembled from its schedule
    columns (:func:`~repro.execution.synthesize.trace_columns`), its
    stored plans attached.

    Plans are only ever attached to the trace they were built against.
    Raises unless the columns are :func:`assemble_trace`'s arguments —
    1-D int64 columns (int8 event kinds), of one length per row group,
    tile classes of arguments the trace has — and unless the assembled
    trace keeps the invariants that the C stream decoders, the metrics
    pass and the last-writer scans (:mod:`repro.soc._native`) index
    memory by: equal-length staged arrays of the dtypes the decoders
    read, one int64 flush item count per flush, nondecreasing within the
    stream, one int64 ``(class, tile)`` pair per receive, tile ordinals
    within their classes, event positions within the event stream,
    every event kind in ``K_LOOP..K_RWAIT`` (a per-kind table index),
    ``flush_pos`` / ``recv_pos`` exactly the ``K_FLUSH`` / ``K_RECV``
    events in order (the pass reads their transfer times by running
    ordinal), and staged words and tiles inside their staging regions;
    or when a stored MetricsPlan indexes outside the trace
    (:func:`_check_stored_plan`).  The C decoders' plans are not
    stored: replay re-derives them from the checked stream.
    """
    columns = payload["trace"]
    arg_specs, kinds, words, sends, recvs, flushes, _, _ = columns
    for group in sends + recvs:
        if not 0 <= group[0][0] < len(arg_specs):
            raise ValueError("tile class of no argument")
    for rows in [words, flushes] + [group[1:] for group in sends + recvs]:
        if any(column.ndim != 1 or column.dtype != np.int64
               or column.shape != rows[0].shape for column in rows):
            raise ValueError("schedule columns mis-shaped")
    if kinds.ndim != 1 or kinds.dtype != np.int8:
        raise ValueError("event kinds mis-shaped")
    trace = assemble_trace(*columns)
    items = trace.num_staged_items
    staged = (trace.staged_is_word, trace.staged_values,
              trace.staged_indices, trace.staged_widths)
    if any(array.shape != (items,) or array.dtype != dtype
           for array, dtype in zip(staged, (np.uint8,) + (np.int64,) * 3)):
        raise ValueError("staged arrays differ in length or dtype")
    counts, refs = trace.flush_item_counts, trace.recv_refs
    if counts.shape != trace.flush_pos.shape or counts.dtype != np.int64 \
            or refs.shape != (trace.recv_pos.size, 2) \
            or refs.dtype != np.int64:
        raise ValueError("flush counts or receive refs mis-shaped")
    if counts.size and (counts[0] < 0 or counts[-1] > items
                        or (np.diff(counts) < 0).any()):
        raise ValueError("flush item counts leave the staged stream")
    tiles = trace.staged_is_word == 0
    for classes, ids, indices in (
            (trace.send_classes, trace.staged_values[tiles],
             trace.staged_indices[tiles]),
            (trace.recv_classes, refs[:, 0], refs[:, 1])):
        sizes = np.asarray([tc.starts.size for tc in classes],
                           dtype=np.int64)
        if ids.size and (ids.min() < 0 or ids.max() >= len(classes)
                         or indices.min() < 0
                         or (indices >= sizes[ids]).any()):
            raise ValueError("tile ordinal outside its class")
    events = trace.num_events
    if trace.kinds.shape != (events,) \
            or trace.word_offsets.shape != trace.word_pos.shape \
            or trace.word_offsets.dtype != np.int64:
        raise ValueError("event or word tables differ in length")
    for positions in [trace.word_pos, trace.flush_pos, trace.recv_pos] + [
            tc.event_pos for tc in trace.send_classes + trace.recv_classes]:
        if positions.size and (positions.min() < 0
                               or positions.max() >= events):
            raise ValueError("event position outside the event stream")
    kinds = trace.kinds
    if events and (kinds.min() < K_LOOP or kinds.max() > K_RWAIT):
        raise ValueError("event kind outside K_LOOP..K_RWAIT")
    if not np.array_equal(np.flatnonzero(kinds == K_FLUSH),
                          trace.flush_pos) \
            or not np.array_equal(np.flatnonzero(kinds == K_RECV),
                                  trace.recv_pos):
        raise ValueError("flush or receive table is not its events")
    in_size, out_size = _region_sizes(trace)
    spans = [(trace.word_offsets, 4, in_size)] + [
        (tc.region_offsets, tc.num_elements() * tc.itemsize, size)
        for classes, size in ((trace.send_classes, in_size),
                              (trace.recv_classes, out_size))
        for tc in classes]
    if any(offsets.size and (offsets.min() < 0
                             or offsets.max() + width > size)
           for offsets, width, size in spans):
        raise ValueError("staged write outside its staging region")
    plans = payload.get("metrics_plans")
    if isinstance(plans, dict):
        for plan in plans.values():
            _check_stored_plan(trace, plan)
        trace.metrics_plans.update(plans)
    trace._stored_plans = frozenset(trace.metrics_plans)
    TRACE_COUNTERS["disk_loaded"] += 1
    return trace


def _region_sizes(trace) -> Tuple[int, int]:
    """Byte sizes of the input and output staging regions ``trace``
    replays against."""
    return trace.region_sizes if trace.init_params is None \
        else trace.init_params[1:]


def _check_stored_plan(trace, plan) -> None:
    """Raise ``ValueError`` unless a loaded MetricsPlan only indexes
    what ``trace`` has: a ``(9,)`` float64 end state, cache end-states
    that pass :func:`~repro.soc.cache.check_end_state` (whether they fit
    the board is checked when a replay is served one), staging-region
    writes inside the regions, send tiles inside their classes and
    receive ordinals below ``recv_pos.size`` — all before replay
    touches the board."""
    final = plan.final_state
    if not isinstance(final, np.ndarray) or final.shape != (9,) \
            or final.dtype != np.float64:
        raise ValueError("MetricsPlan end state mis-shaped")
    check_end_state(plan.l1_state)
    check_end_state(plan.l2_state)
    in_size, out_size = _region_sizes(trace)
    writes = [(plan.input_word_dest, in_size // 4)]
    for class_id, tiles, dest, _ in plan.input_tile_writes:
        if type(class_id) is not int \
                or not 0 <= class_id < len(trace.send_classes):
            raise ValueError("MetricsPlan tile write outside the classes")
        writes += [(tiles, trace.send_classes[class_id].starts.size),
                   (dest, in_size // 4)]
    for ordinal, dest, _ in plan.output_writes:
        if type(ordinal) is not int \
                or not 0 <= ordinal < trace.recv_pos.size:
            raise ValueError("MetricsPlan output write of no receive")
        writes.append((dest, out_size // 4))
    for positions, bound in writes:
        if not isinstance(positions, np.ndarray) \
                or positions.dtype.kind not in "iu" \
                or positions.size and (positions.min() < 0
                                       or positions.max() >= bound):
            raise ValueError("MetricsPlan index outside its trace")


def publish_due(trace) -> bool:
    """True when ``trace``, or the plan its replay was just served, is
    not on disk yet.

    That plan is the most recently used key of the trace's plan dict
    (``obtain_plan`` keeps the LRU order); the tuple is one C call, so
    a content-equal kernel inserting on another thread cannot tear it.
    """
    stored = getattr(trace, "_stored_plans", None)
    served = tuple(trace.metrics_plans)[-1:]
    return stored is None or not stored.issuperset(served)


def build_matmul_module(m: int, n: int, k: int, element_type) -> Module:
    """A module holding ``matmul_call``: C(m,n) += A(m,k) * B(k,n)."""
    module = Module()
    func_op = func.define(
        "matmul_call",
        [
            MemRefType((m, k), element_type),
            MemRefType((k, n), element_type),
            MemRefType((m, n), element_type),
        ],
    )
    module.add_function(func_op)
    b = func.builder_at_entry(func_op)
    a, rhs, out = func.arguments(func_op)
    linalg.matmul(b, a, rhs, out)
    func.ret(b)
    return module


def build_conv_module(batch: int, in_ch: int, in_hw: int, out_ch: int,
                      f_hw: int, stride: int, element_type) -> Module:
    """A module holding ``conv_call`` for one NCHW/FCHW convolution."""
    out_hw = (in_hw - f_hw) // stride + 1
    module = Module()
    func_op = func.define(
        "conv_call",
        [
            MemRefType((batch, in_ch, in_hw, in_hw), element_type),
            MemRefType((out_ch, in_ch, f_hw, f_hw), element_type),
            MemRefType((batch, out_ch, out_hw, out_hw), element_type),
        ],
    )
    module.add_function(func_op)
    b = func.builder_at_entry(func_op)
    image, weights, out = func.arguments(func_op)
    linalg.conv_2d_nchw_fchw(b, image, weights, out, stride=stride)
    func.ret(b)
    return module


#: Per named kernel: its op, its operands' dims and its module builder.
_NAMED_KERNELS = {
    name: (op, operand_dims(maps, maps[0].dim_names), build)
    for name, op, maps, build in (
        ("matmul_call", "linalg.matmul", linalg.matmul_maps(),
         build_matmul_module),
        ("conv_call", "linalg.conv_2d_nchw_fchw",
         linalg.conv_2d_nchw_fchw_maps(), build_conv_module))}


def cpu_fingerprint(cpu: CPUInfo) -> Tuple:
    """The CPU-config half of a kernel cache key (tiling decisions)."""
    return (cpu.cache_levels, cpu.cache_types, cpu.line_size,
            cpu.associativity, cpu.frequency_hz)


class KernelCache:
    """LRU cache of lowered kernels, shared across compiler instances.

    Flow-exploration sweeps (Fig. 11's 38 flows, fig12's specialized/
    unspecialized panels, ``examples/dataflow_exploration.py``) compile
    the same (accelerator, kernel, shape, flow, permutation, tiling)
    configuration repeatedly; the lowering pipeline and Python emission
    are deterministic, so each configuration is lowered at most once and
    later requests rebind the cached entry.  ``specialized_copies`` is a
    runtime knob, not a lowering input, so it is deliberately absent
    from the key.

    With ``REPRO_KERNEL_CACHE_DIR`` set (or ``disk_dir`` passed), the
    cache is additionally backed by the on-disk :class:`~repro.store.
    KernelStore` keyed by the same fingerprint: a memory miss first
    tries to load the kernel's head, trace and MetricsPlans from disk,
    so repeated processes skip lowering, synthesis and plan builds.
    **Entries persist traced kernels**: the first replay's persist
    hook is the only writer (one write per
    new artifact set, ``publish_due``), and a kernel that is compiled
    but never replayed — a pruned sweep point, ``trace=False``, a
    failed trace — leaves nothing on disk and is lowered again by the
    next process.  The rule was set when a load cost more than a
    lowering; measured again over the hot pool plus three large
    kernels, lowering costs 1.0–1.8 ms against 0.1–0.2 ms to read and
    decode a trace-less entry plus 0.6–0.8 ms to write it.
    Processes racing on one key each lower it and publish the same
    bytes atomically; nothing coordinates them.  Each write is synced
    at once unless its caller owns the commit point (a figure
    generator, a model job or a sweep point, in
    :func:`repro.store.group_commit`).  Entries are data (no
    pickle, no code, no IR): a disk hit is read + decode, and the
    module and driver are rebuilt, by the ``compile_fn`` the kernel was
    looked up with, only when a rung needs them.  The lowering is a
    function of the key, so the rebuild is the module the entry was
    published from.  Anyone can compute an entry's checksum, so trace
    indices are checked before they become C indices
    (:func:`stored_trace`), and a stored name never reaches the
    emitter.  Corrupt files are quarantined and counted as
    ``disk_corrupt``, distinct from honest ``disk_misses``.
    """

    #: The instance attributes counting lookups by outcome.
    _TALLIES = ("hits", "misses", "disk_hits", "disk_misses",
                "disk_corrupt", "disk_stale")

    def __init__(self, maxsize: int = 256,
                 disk_dir: Optional[str] = None):
        self.maxsize = maxsize
        self.disk_dir = disk_dir
        self._entries: "OrderedDict[Tuple, CompiledKernel]" = OrderedDict()
        # Fork-safe, like every lock a pool worker can reach: the
        # default cache is inherited by forked workers.
        self._lock = counters.fork_safe_lock()
        self._stores: dict = {}
        self._zero_tallies()

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._zero_tallies()

    def _zero_tallies(self) -> None:
        for name in self._TALLIES:
            setattr(self, name, 0)

    def tallies(self) -> dict:
        """The hit/miss tallies a pool worker can advance."""
        return {name: getattr(self, name) for name in self._TALLIES}

    def merge_stats(self, delta: dict) -> None:
        """Fold a pool worker's hit/miss deltas into this cache's totals."""
        with self._lock:
            for name in self._TALLIES:
                setattr(self, name, getattr(self, name) + delta.get(name, 0))

    def stats(self) -> dict:
        stats = {"hits": self.hits, "misses": self.misses,
                 "entries": len(self._entries),
                 "trace": {**TRACE_COUNTERS, **METRICS_PLAN_COUNTERS}}
        disk_dir = self._resolve_disk_dir()
        if disk_dir is not None:
            stats.update(self.tallies(), disk_dir=str(disk_dir),
                         store={**STORE_COUNTERS})
        return stats

    # -- disk store -------------------------------------------------------
    def _resolve_disk_dir(self) -> Optional[Path]:
        if disk_store_suspended():
            return None
        directory = self.disk_dir or os.environ.get(KERNEL_CACHE_DIR_ENV)
        return Path(directory) if directory else None

    def resolve_store(self) -> Optional[KernelStore]:
        """The on-disk store behind this cache, or ``None`` when there
        is none or it is suspended."""
        directory = self._resolve_disk_dir()
        if directory is None:
            return None
        with self._lock:
            store = self._stores.get(directory)
            if store is None:
                store = self._stores[directory] = KernelStore(directory)
            return store

    def _count_disk(self, status: str) -> None:
        with self._lock:
            if status == "hit":
                self.disk_hits += 1
            elif status == "corrupt":
                self.disk_corrupt += 1
            elif status == "stale":
                self.disk_stale += 1
            else:  # miss / io: the entry simply is not available
                self.disk_misses += 1

    def _disk_load(self, store: KernelStore, name: str,
                   compile_fn: Callable[[], "CompiledKernel"]
                   ) -> Optional["CompiledKernel"]:
        """Decode one stored kernel, or ``None``.

        The store quarantines container/codec failures; a payload of
        another KERNEL_STORE_VERSION is quarantined as ``"stale"``, one
        failing :func:`_check_host` or :func:`stored_trace` as
        ``"corrupt"``, and the next traced run republishes them.
        Nothing is compiled, emitted or ``exec``'d here: a
        replay-served kernel needs only the trace, and the first reader
        of the module or the driver adopts those of one call of
        ``compile_fn`` (:attr:`CompiledKernel.module`).
        """
        status, payload = store.load(name)
        if status == "hit":
            if not isinstance(payload, dict) \
                    or payload.get("store_version") != KERNEL_STORE_VERSION:
                status = "stale"
            else:
                try:
                    _check_host(payload)
                    payload["trace"] = stored_trace(payload)
                except Exception:  # a forged entry may break any access
                    status = "corrupt"
            if status != "hit":
                store.quarantine(name)
        self._count_disk(status)
        if status != "hit":
            return None
        kernel = CompiledKernel(
            func_name=payload["func_name"],
            plan=payload.get("plan"),
            parameters=payload.get("parameters", {}),
            call_style=payload["call_style"],
            host_dma_init=payload["host_dma_init"],
        )
        kernel.trace_state.rebuild = compile_fn
        # A persisted trace (+ its MetricsPlans) lets warm processes
        # skip synthesis and plan builds; the C decoders' plans are
        # re-derived from its stream on the first replay.
        kernel.trace_state.trace = payload["trace"]
        return kernel

    def _disk_store(self, key: Tuple, kernel: "CompiledKernel") -> None:
        """Publish ``kernel`` with its trace and that trace's plans
        (the persist hook, after a replay; timed into
        ``store_publish_s``) and sync it.  Unencodable payloads and write
        failures stay memory-only — ``store()`` reports, never raises.
        The plans count as stored either way, so a failed publish is not
        retried until the kernel gains a new artifact (a MetricsPlan the
        entry lacks): one failed write per artifact set, whatever the
        store's health."""
        store = self.resolve_store()
        if store is None:
            return
        start = time.perf_counter()
        trace = kernel.trace_state.trace
        plans = plans_snapshot(trace)
        store.store(store_entry_name(key), {
            "func_name": kernel.func_name,
            "parameters": kernel.parameters,
            "plan": kernel.plan,
            "call_style": kernel.call_style,
            "host_dma_init": kernel.host_dma_init,
            "store_version": KERNEL_STORE_VERSION,
            "trace": trace_columns(trace),
            "metrics_plans": plans,
        })
        trace._stored_plans = frozenset(plans)
        add_stage_time("store_publish_s", time.perf_counter() - start)
        store.sync()

    def get_or_compile(self, key: Tuple,
                       compile_fn: Callable[[], "CompiledKernel"]
                       ) -> "CompiledKernel":
        with self._lock:
            cached = self._entries.get(key)
            if cached is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                return cached
        store = self.resolve_store()
        kernel = None
        if store is not None:
            start = time.perf_counter()
            kernel = self._disk_load(store, store_entry_name(key),
                                     compile_fn)
            add_stage_time("store_load_s", time.perf_counter() - start)
        if kernel is None:
            kernel = compile_fn()
        if store is not None:
            # The only writer of this entry: a traced run publishes it
            # whenever memory holds a trace or a MetricsPlan the disk
            # lacks.  A kernel that never replays is never written —
            # see the class docstring for the measured trade.
            kernel.trace_state.persist = \
                lambda k=kernel, key=key: self._disk_store(key, k)
        with self._lock:
            self.misses += 1
            self._entries[key] = kernel
            if len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
        return kernel


#: Process-wide default cache; ``AXI4MLIRCompiler(use_kernel_cache=False)``
#: opts out, tests reset it via ``default_kernel_cache().clear()``.
_GLOBAL_KERNEL_CACHE = KernelCache()
counters.register_external("kernel_cache", _GLOBAL_KERNEL_CACHE.tallies,
                           _GLOBAL_KERNEL_CACHE.merge_stats)


def default_kernel_cache() -> KernelCache:
    return _GLOBAL_KERNEL_CACHE


class KernelTraceState:
    """Shared (mutable) state of one lowered kernel: trace, IR, driver.

    Lives outside the :class:`CompiledKernel` dataclass fields proper so
    that ``dataclasses.replace`` rebinds (``specialized_copies``
    variants) share one trace, one (rebuilt) module and one driver.
    :meth:`replay` is the trace lifecycle.
    """

    __slots__ = ("lock", "trace", "failed", "persist", "module", "rebuild",
                 "emitted", "entry_point")

    def __init__(self):
        self.lock = counters.fork_safe_lock()
        self.trace = None
        self.failed = False
        #: Set by KernelCache when a disk store is active: publishes
        #: the entry with the trace and MetricsPlans memory holds (see
        #: ``publish_due``).
        self.persist = None
        #: The kernel's IR; ``None`` until a stored kernel's module is
        #: first read (:attr:`CompiledKernel.module`).
        self.module = None
        #: A disk-loaded kernel's ``compile_fn``, which rebuilds it.
        self.rebuild = None
        #: ``(driver source, schedule table)`` and the driver callable,
        #: derived from ``module`` when first read (see CompiledKernel).
        self.emitted = None
        self.entry_point = None

    def replay(self, board, rt, descriptors, build) -> bool:
        """Replay the trace against ``descriptors``; False means the
        caller runs the driver per tile.

        The trace is loaded (by the owner) or built once, by
        ``build(arg_specs)``, under the lock.  A build that raises marks
        the state failed for good (the per-tile run surfaces any real
        error), except :class:`TraceMismatch`, which fails loudly.  A
        replay refusal leaves the state as it is and is counted
        (``replay_refused``) on every call.  A replay that served
        something the disk lacks (``publish_due``) runs ``persist``.
        """
        if self.failed:
            return False
        if self.trace is None:
            with self.lock:
                if self.trace is None and not self.failed:
                    try:
                        self.trace = build(tuple(
                            (d.sizes, d.strides, d.itemsize, str(d.dtype))
                            for d in descriptors))
                    except TraceMismatch:
                        raise
                    except Exception:
                        self.failed = True
        if self.trace is None:
            return False
        try:
            replay_kernel(self.trace, board, rt, descriptors,
                          type(rt) is DoubleBufferedRuntime)
        except TraceUnsupported:
            TRACE_COUNTERS["replay_refused"] += 1
            return False
        if self.persist is not None and publish_due(self.trace):
            self.persist()
        return True


@dataclass(init=False)
class CompiledKernel:
    """The result of one compilation: the lowered IR and its plan.

    ``module`` is an argument but not a field: it is kept in the shared
    ``trace_state``, so ``dataclasses.replace`` never reads it — which
    would rebuild a stored kernel that nothing else asked for.  The
    driver — :attr:`source`, :attr:`schedule_table`, :attr:`entry_point`
    — is derived from ``module`` by one path, cached there too: emitted
    once (at compile time; a stored kernel adopts its rebuild's) and
    ``exec``'d on the first per-tile run.

    ``call_style`` selects the runtime's call overheads and, for
    ``CALL_STYLE_MANUAL``, its raw-array copy style.  ``host_dma_init``
    is the ``dma_init`` the host runs *before* it allocates the
    arguments, for a driver whose IR holds none (the hand-written
    baselines, :mod:`repro.baselines.manual`): every run and
    :meth:`run_interpreted` does snapshot → ``dma_init`` →
    ``make_memref`` for it, and its trace is preinitialized.
    """

    func_name: str
    plan: Optional[LoweringPlan] = None
    specialized_copies: bool = True
    parameters: dict = field(default_factory=dict)
    call_style: str = CALL_STYLE_GENERATED
    host_dma_init: Optional[Tuple[int, int, int, int, int]] = None
    trace_state: KernelTraceState = field(
        default_factory=KernelTraceState, repr=False, compare=False
    )

    def __init__(self, module: Optional[Module] = None, *, func_name: str,
                 plan: Optional[LoweringPlan] = None,
                 specialized_copies: bool = True,
                 parameters: Optional[dict] = None,
                 call_style: str = CALL_STYLE_GENERATED,
                 host_dma_init: Optional[Tuple[int, int, int, int,
                                               int]] = None,
                 trace_state: Optional[KernelTraceState] = None):
        self.func_name = func_name
        self.plan = plan
        self.specialized_copies = specialized_copies
        self.parameters = {} if parameters is None else parameters
        self.call_style = call_style
        self.host_dma_init = host_dma_init
        self.trace_state = KernelTraceState() if trace_state is None \
            else trace_state
        if module is not None:
            self.trace_state.module = module

    @property
    def module(self) -> Module:
        """The lowered IR.  A stored kernel adopts, on first read, the
        module and driver of one compile through the ``compile_fn`` it
        was looked up with; a head naming another function than that
        compile's raises :class:`CompileError` before anything is
        emitted."""
        state = self.trace_state
        if state.module is None:
            # Unlocked: racing first reads each compile, to equal results.
            fresh = state.rebuild()
            if fresh.func_name != self.func_name:
                raise CompileError(
                    f"a stored kernel names {self.func_name!r}, its "
                    f"compile {fresh.func_name!r}")
            state.emitted = fresh.trace_state.emitted
            state.module = fresh.module
        return state.module

    @property
    def func_op(self):
        return self.module.lookup(self.func_name)

    @property
    def source(self) -> str:
        return self._emitted()[0]

    @property
    def schedule_table(self) -> dict:
        return self._emitted()[1]

    @property
    def entry_point(self):
        state = self.trace_state
        if state.entry_point is None:
            state.entry_point = compile_host_function(
                self.func_op, self.source)[0]
        return state.entry_point

    def _emitted(self):
        state = self.trace_state
        if state.emitted is None:
            func_op = self.func_op  # a stored kernel's rebuild emits
            if state.emitted is None:
                state.emitted = emit_function(func_op)
        return state.emitted

    def make_runtime(self, board: Board) -> AxiRuntime:
        return AxiRuntime(board, specialized_copies=self.specialized_copies,
                          call_style=self.call_style)

    @property
    def preinitialized(self) -> Optional[Tuple[int, int]]:
        """The host engine's ``(input, output)`` region sizes, or
        ``None``: what this kernel's traces are built with."""
        init = self.host_dma_init
        return None if init is None else (init[2], init[4])

    def _bind(self, board: Board, rt: AxiRuntime, arrays):
        """The counters' start and the argument descriptors, in the
        host's order: a ``host_dma_init`` runs measured, before the
        arguments are allocated."""
        before = None
        if self.host_dma_init is not None:
            before = board.snapshot()
            rt.dma_init(*self.host_dma_init)
        descriptors = [rt.make_memref(np.ascontiguousarray(a), f"arg{i}")
                       for i, a in enumerate(arrays)]
        return (board.snapshot() if before is None else before), descriptors

    def run(self, board: Board, *arrays: np.ndarray,
            runtime: Optional[AxiRuntime] = None,
            trace: Optional[bool] = None):
        """Execute the emitted host code against ``board``.

        Returns the perf counter delta for this invocation.

        ``trace`` selects trace-compiled execution: the kernel's static
        schedule is synthesized ahead-of-time from the emitter's side
        table and replayed as batched numpy, bit-identical to the
        per-tile path.  ``None`` (the default) enables it unless
        ``REPRO_NO_TRACE=1``.  The per-tile path is the only fallback:
        a schedule synthesis cannot prove (``REPRO_FAULTS="synth:fail"``
        forces that), a replay refusal (``replay:fail``) and an
        unsupported runtime all land on it, transparently.
        """
        rt = runtime or self.make_runtime(board)
        before, descriptors = self._bind(board, rt, arrays)
        if self._trace_applicable(trace, rt) and self.trace_state.replay(
                board, rt, descriptors, self._build_trace):
            return board.measure_since(before)
        self.entry_point(rt, *descriptors)
        return board.measure_since(before)

    # -- trace-compiled execution ----------------------------------------
    def _trace_applicable(self, trace: Optional[bool], rt) -> bool:
        if trace is False or not trace_enabled():
            return False
        # Exact types only: runtime subclasses may override call
        # semantics in ways the replay executor cannot see.
        return type(rt) in (AxiRuntime, DoubleBufferedRuntime)

    def _build_trace(self, specs):
        """Synthesize the trace from the schedule table.

        A synthesis failure — a proven-unsupported construct or an
        unexpected blowup (recursion/memory on a pathological schedule)
        — is counted and raised: :meth:`KernelTraceState.replay` then
        leaves the kernel per tile.  ``REPRO_CHECK=1`` also records the
        driver and raises :class:`TraceMismatch` if the two traces
        differ anywhere.
        """
        try:
            synthesized = synthesize_trace(self.schedule_table, specs,
                                           self.preinitialized)
        except Exception:
            TRACE_COUNTERS["synth_fallback"] += 1
            raise
        if check_requested():
            recorded = record_trace(
                self.entry_point, specs,
                expected_events=schedule_event_count(self.schedule_table),
                preinitialized=self.preinitialized,
            )
            mismatches = diff_traces(synthesized, recorded)
            if mismatches:
                raise TraceMismatch(
                    f"synthesized trace for {self.func_name!r} differs "
                    f"from the recorded one: {', '.join(mismatches)}"
                )
        TRACE_COUNTERS["synthesized"] += 1
        return synthesized

    def run_interpreted(self, board: Board, *arrays: np.ndarray,
                        runtime: Optional[AxiRuntime] = None):
        """Execute via the reference interpreter (tests / debugging)."""
        rt = runtime or self.make_runtime(board)
        before, descriptors = self._bind(board, rt, arrays)
        interpret_function(self.func_op, descriptors, rt)
        return board.measure_since(before)


class AXI4MLIRCompiler:
    """User-facing compiler: accelerator config in, host driver out."""

    def __init__(self, info: AcceleratorInfo, cpu: Optional[CPUInfo] = None,
                 flow_name: Optional[str] = None,
                 permutation: Optional[Sequence[str]] = None,
                 enable_cpu_tiling: bool = True,
                 specialized_copies: bool = True,
                 kernel_cache: Optional[KernelCache] = None,
                 use_kernel_cache: bool = True):
        self.info = info
        self.cpu = cpu or CPUInfo()
        self.flow_name = flow_name
        self.permutation = permutation if permutation is not None \
            else info.loop_permutation
        self.enable_cpu_tiling = enable_cpu_tiling
        self.specialized_copies = specialized_copies
        self.kernel_cache = kernel_cache if kernel_cache is not None \
            else (_GLOBAL_KERNEL_CACHE if use_kernel_cache else None)

    # -- generic entry ---------------------------------------------------
    def compile_module(self, module, func_name: Optional[str] = None,
                       parameters: Optional[dict] = None) -> CompiledKernel:
        """Compile a :class:`Module` or textual ``.mlir`` source.

        ``module`` may be an in-memory module or a string of textual IR
        (as printed by the IR printer / stored in ``tests/filecheck``
        fixtures).  ``func_name`` defaults to the module's first (and
        typically only) function.
        """
        return self._lower(module, func_name, parameters,
                           self.enable_cpu_tiling)

    def _lower(self, module, func_name: Optional[str],
               parameters: Optional[dict], cpu_tiling: bool) -> CompiledKernel:
        start = time.perf_counter()
        try:
            if isinstance(module, str):
                module = parse_module(module, verify=True)
            if func_name is None:
                functions = module.functions()
                if not functions:
                    raise CompileError(
                        "module defines no func.func to compile"
                    )
                func_name = functions[0].get_attr("sym_name").value
            pipeline = build_axi4mlir_pipeline(
                self.info,
                cpu=self.cpu,
                flow_name=self.flow_name,
                permutation=self.permutation,
                enable_cpu_tiling=cpu_tiling,
            )
            pipeline.run(module)
            # Synthesis needs the schedule table: emit now, exec on demand.
            emitted = emit_function(module.lookup(func_name))
            lower_pass = pipeline.passes[-1]
            plan = lower_pass.plans[0] \
                if getattr(lower_pass, "plans", None) else None
            kernel = CompiledKernel(
                module=module,
                func_name=func_name,
                plan=plan,
                specialized_copies=self.specialized_copies,
                parameters=dict(parameters or {}),
            )
            kernel.trace_state.emitted = emitted
            return kernel
        finally:
            add_stage_time("compile_s", time.perf_counter() - start)

    def _cache_key(self, kernel_name: str, shape: Tuple,
                   cpu_tiling: bool) -> Tuple:
        """What the lowering is a function of.  ``cpu_tiling`` is whether
        CPU tiling changes the plan, not the request's flag: a request
        whose tiling is a no-op names its untiled twin's kernel."""
        permutation = tuple(self.permutation) \
            if self.permutation is not None else None
        return (
            self.info.fingerprint,
            cpu_fingerprint(self.cpu),
            self.flow_name,
            permutation,
            cpu_tiling,
            kernel_name,
            shape,
        )

    def _compile_cached(self, kernel_name: str, extents: Tuple,
                        parameters: dict) -> CompiledKernel:
        """Look up / populate the kernel cache for one named kernel.

        Cache hits rebind the shared lowered module and driver to this
        compiler's runtime knobs; generated code never mutates its IR,
        so sharing is safe.
        """
        info = self.info
        op, operands, build_module = _NAMED_KERNELS[kernel_name]
        if info.kernel != op:
            raise CompileError(f"accelerator {info.name!r} implements "
                               f"{info.kernel!r}, not {op}")
        cpu_tiling = self.enable_cpu_tiling and cpu_tiling_applies(
            extents, info.dims, info.accel_size, operands,
            self.cpu.last_level_size)

        def build() -> CompiledKernel:
            module = build_module(**parameters, element_type=info.data_type)
            return self._lower(module, kernel_name, parameters, cpu_tiling)

        cache = self.kernel_cache
        if cache is None:
            return build()
        kernel = cache.get_or_compile(self._cache_key(
            kernel_name, tuple(parameters.values()), cpu_tiling), build)
        if kernel.specialized_copies == self.specialized_copies:
            return kernel
        return replace(kernel, specialized_copies=self.specialized_copies)

    # -- kernels -----------------------------------------------------------
    def compile_matmul(self, m: int, n: int, k: int) -> CompiledKernel:
        return self._compile_cached(
            "matmul_call", (("m", m), ("n", n), ("k", k)),
            {"m": m, "n": n, "k": k})

    def compile_conv(self, batch: int, in_ch: int, in_hw: int, out_ch: int,
                     f_hw: int, stride: int = 1) -> CompiledKernel:
        out_hw = (in_hw - f_hw) // stride + 1
        extents = (("n", batch), ("f", out_ch), ("oh", out_hw),
                   ("ow", out_hw), ("c", in_ch), ("fh", f_hw), ("fw", f_hw))
        return self._compile_cached("conv_call", extents, {
            "batch": batch, "in_ch": in_ch, "in_hw": in_hw,
            "out_ch": out_ch, "f_hw": f_hw, "stride": stride})


def element_type(name: str):
    """Re-export for callers building custom modules from dtype names."""
    return element_type_from_string(name)
