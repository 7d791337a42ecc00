"""The process-wide kernel cache and its store glue: entry names, the
checks a loaded entry passes (:func:`stored_trace`) and the one
publication rule (:func:`publish_due`)."""

from __future__ import annotations

import hashlib
import os
import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Optional, Tuple

import numpy as np

from . import counters
from .execution.metrics import METRICS_PLAN_COUNTERS, plans_snapshot
from .execution.synthesize import assemble_trace, trace_columns
from .execution.trace import (K_FLUSH, K_LOOP, K_RECV, K_RWAIT,
                              TRACE_COUNTERS, add_stage_time)
from .kernel import CompiledKernel
from .runtime import CALL_STYLE_GENERATED, CALL_STYLE_MANUAL
from .soc.cache import check_end_state
from .store import STORE_COUNTERS, KernelStore
from .transforms import CompileError

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
#: Bumped with the payload's shape; 13: the container deflates the
#: manifest too (earlier versions: see the repository history).
KERNEL_STORE_VERSION = 13


# -- disk-store suspension ----------------------------------------------------
#
# A thread-local scope without a store.  Its only caller is the perf
# harness's layer probes (``perf/perfbench/layers.py``, timing a
# memory-only compile).

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
    tile classes of arguments the trace has, with non-negative strides
    and starts (replay windows the arguments by them) — and unless the
    assembled trace keeps the invariants that the C stream decoders, the
    metrics pass and the last-writer scans (:mod:`repro.soc._native`)
    index memory by: equal-length staged arrays of the dtypes the
    decoders read, one int64 flush item count per flush, nondecreasing
    within the stream, one int64 ``(class, tile)`` pair per receive,
    tile ordinals within their classes, event positions within the
    event stream, every event kind in ``K_LOOP..K_RWAIT`` (a per-kind
    table index), ``flush_pos`` / ``recv_pos`` exactly the ``K_FLUSH`` /
    ``K_RECV`` events in order (the pass reads their transfer times by
    running ordinal), and staged words and tiles inside their staging
    regions; or when a stored MetricsPlan indexes outside the trace
    (:func:`_check_stored_plan`).  The C decoders' plans are not
    stored: replay re-derives them from the checked stream.
    """
    columns = payload["trace"]
    arg_specs, kinds, words, sends, recvs, flushes, _, _ = columns
    for group in sends + recvs:
        if not 0 <= group[0][0] < len(arg_specs):
            raise ValueError("tile class of no argument")
        if min(group[0][2], default=0) < 0 \
                or group[2].size and group[2].min() < 0:
            raise ValueError("negative tile stride or start")
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
    **Entries persist traced kernels**: the replay's persist hook is the
    only writer (one write per new artifact set, ``publish_due``); a
    kernel compiled but never replayed leaves nothing on disk (lowering
    costs 1.0–1.8 ms against 0.7–1.0 ms to write and read back a
    trace-less entry).  Racing processes each lower a key and publish
    the same bytes atomically.  Each write is synced at once unless its
    caller owns the commit point (:func:`repro.store.group_commit`).
    Entries are data (no pickle, no code, no IR): the module and driver
    are rebuilt, by the ``compile_fn`` the kernel was looked up with,
    only when a rung needs them.  Anyone can compute an entry's
    checksum, so trace indices are checked before they become C indices
    (:func:`stored_trace`).  Corrupt files are quarantined and counted
    as ``disk_corrupt``, distinct from honest ``disk_misses``.
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
        # miss / io: the entry simply is not available
        name = {"hit": "disk_hits", "corrupt": "disk_corrupt",
                "stale": "disk_stale"}.get(status, "disk_misses")
        with self._lock:
            setattr(self, name, getattr(self, name) + 1)

    def _disk_load(self, store: KernelStore, name: str,
                   compile_fn: Callable[[], CompiledKernel]
                   ) -> Optional[CompiledKernel]:
        """Decode one stored kernel, or ``None``.

        The store quarantines container/codec failures; a payload of
        another KERNEL_STORE_VERSION is quarantined as ``"stale"``, one
        failing :func:`_check_host` or :func:`stored_trace` as
        ``"corrupt"``, and the next traced run republishes them.
        Nothing is compiled, emitted or ``exec``'d here: a
        replay-served kernel needs only the trace, and the first reader
        of the module or the driver adopts those of one call of
        ``compile_fn`` (:attr:`CompiledKernel.module`, :meth:`_rebuild`).
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
        kernel.trace_state.rebuild = \
            lambda: self._rebuild(store, name, kernel, compile_fn)
        # A persisted trace (+ its MetricsPlans) lets warm processes
        # skip synthesis and plan builds; the C decoders' plans are
        # re-derived from its stream on the first replay.
        kernel.trace_state.trace = payload["trace"]
        return kernel

    def _rebuild(self, store: KernelStore, name: str,
                 kernel: CompiledKernel,
                 compile_fn: Callable[[], CompiledKernel]
                 ) -> CompiledKernel:
        """One compile of a loaded kernel, for its first module read.

        A head naming another function than that compile is forged: the
        entry is quarantined (once), the kernel publishes nothing more
        and leaves the memory cache, so the next lookup compiles afresh
        — then :class:`CompileError`, before anything is emitted.
        """
        fresh = compile_fn()
        if fresh.func_name == kernel.func_name:
            return fresh
        state = kernel.trace_state
        if state.persist is not None:
            state.persist = None
            store.quarantine(name)
            with self._lock:
                for key in [key for key, cached in self._entries.items()
                            if cached is kernel]:
                    del self._entries[key]
        raise CompileError(f"a stored kernel names {kernel.func_name!r}, "
                           f"its compile {fresh.func_name!r}")

    def _disk_store(self, key: Tuple, kernel: CompiledKernel) -> None:
        """Publish ``kernel`` with its trace and that trace's plans when
        the disk lacks one of them (:func:`publish_due`; the persist
        hook, after each replay; timed into ``store_publish_s``) and
        sync it.  Unencodable payloads and write failures stay
        memory-only — ``store()`` reports, never raises.  The plans
        count as stored either way, so a failed publish is not retried
        until the kernel gains a new artifact (a MetricsPlan the entry
        lacks): one failed write per artifact set, whatever the store's
        health."""
        trace = kernel.trace_state.trace
        if not publish_due(trace):
            return
        store = self.resolve_store()
        if store is None:
            return
        start = time.perf_counter()
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
                       compile_fn: Callable[[], CompiledKernel]
                       ) -> CompiledKernel:
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
            # The only writer of this entry, after each replay.
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
