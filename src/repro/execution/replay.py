"""Trace replay: execute a recorded driver schedule as batched numpy.

Given a :class:`~repro.execution.trace.DriverTrace` and the decoded
instruction plan for the attached accelerator, :class:`ReplayExecutor`
reproduces one kernel invocation exactly — bit-identical
:class:`PerfCounters`, output arrays, and board/accelerator state —
split into two explicit planes:

* the **data plane**, itself split the way the paper splits host code:
  everything fixed by the trace and the decoded plan is resolved once,
  only payload moves per call.

  - the *schedule* (:class:`DataSchedule`, built on the first replay of
    a ``(trace, decoded plan)`` pair and reused afterwards): per send
    class the distinct tile starts and each tile's row among them; the
    compute sequence cut into blocks of constant geometry and operand
    class with their operand rows, push ids, push counts and target
    receive rows (conv runs that differ only by filter fused into one
    ``windows @ filters`` product; a dense multi-compute matmul block's
    deduplicated operand panels); per receive class its one scatter.
    It holds tile *starts*, never element indices — tiles are reached
    through a strided window view of the argument storage — so it is
    O(tiles) resident, and descriptor offsets enter only when that view
    is made, so one schedule serves every offset.  It lives on the
    decoded plan as a private attribute, which the pickle state skips;
    the store holds a trace's schedule columns only, so a loaded or
    unpickled trace rebuilds it.
    There is no switch and no second path: the first call builds the
    schedule and then runs the same code as every later call.

  - the *payload* (every call; the only part that touches input data):
    gather each send class's distinct tiles once, elect the exact-float
    type from the class maxima (modular-arithmetic-identical to the
    per-tile path; a panel product elects on its fused depth), one
    batched product per block, fold products into pushes, scatter each
    receive class once, write the staging-region payloads.

  The data plane serves the schedules the host drivers emit: integer
  tiles, every operand loaded before it is used, pushes of one size per
  block landing in one receive class, and per argument at most one
  receive class whose distinct tiles are disjoint and, when a tile
  repeats, accumulated.  Any other schedule is refused when its
  :class:`DataSchedule` is built, and the verdict is cached with it.

* the **metrics plane** (:mod:`repro.execution.metrics`): every
  performance-model quantity — per-event copy/cache charges, the exact
  sequential clock/stall timeline, cache LRU end-state, DMA/accelerator
  statistics, and the staging regions' last-writer maps.  It is a pure
  function of the trace and the runtime configuration, so it is
  evaluated once per ``(trace, fingerprint)`` into a cached,
  serializable :class:`~repro.execution.metrics.MetricsPlan` and applied
  in O(state) on subsequent invocations.  First-time (cold) builds are
  shared: traces of equal content share their plans, and the service's
  ``warmup`` RPC can pay the whole cold path up front on a worker
  pool.  Wherever the
  build runs, its seconds land in ``metrics_plan_build_s`` — pool
  workers report stage-timing deltas that merge back into the parent,
  so the accounting is placement-independent.

Any assumption violation raises :class:`ReplayUnsupported` — from a
cached schedule as from a fresh one — before anything is mutated; the
caller counts it (``trace_sources["replay_refused"]``) and falls back to
per-tile execution.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

import numpy as np

from .. import faults
from ..accelerators.conv import ConvAccelerator
from ..numerics import max_abs
from ..soc.dma_engine import DmaEngine
from . import metrics
from .trace import (
    DecodedPlan,
    DriverTrace,
    TraceUnsupported,
    add_stage_time,
    decode_for_accelerator,
    decode_key,
    dtype_name,
)

ReplayUnsupported = TraceUnsupported

#: Upper bound on elements materialized per batched compute block.
_BLOCK_ELEMENTS = 1 << 23

#: Largest distinct-tile matrix of one send class gathered up front per
#: call; beyond it operands are gathered per block from the live window.
_CLASS_ELEMENTS = 1 << 24

_INDEX_MASK = (1 << 40) - 1


def replay_kernel(trace: DriverTrace, board, rt, descriptors,
                  double_buffered: bool) -> None:
    """Execute one invocation of a traced kernel against ``board``,
    decoded from the accelerator's current config (:func:`decode_key`),
    however an earlier call left it."""
    start = time.perf_counter()
    try:
        # Fault hook: fires before any board/descriptor mutation, so
        # the per-tile fallback starts from an untouched state.
        if faults.fires("replay") == "fail":
            raise ReplayUnsupported("injected replay fault")
        accelerator = board.accelerator
        if accelerator is None:
            raise ReplayUnsupported("no accelerator attached")
        plan = decode_for_accelerator(trace, accelerator)
        executor = ReplayExecutor(trace, plan, board, rt, descriptors,
                                  double_buffered)
        executor.execute()
    finally:
        add_stage_time("replay_s", time.perf_counter() - start)


# -- the schedule half of the data plane ------------------------------------

class _Block:
    """One batched product: computes of one geometry and operand class.

    ``a`` / ``b`` are ``(send class, value rows)``.  A matmul block has
    one row pair per compute; a conv block has its windows in ``a`` and
    one row per filter in ``b``, computes ordered filter-major.
    The computes fold, in order, into pushes of ``count`` computes each,
    whose payloads land at ``target``: ``(recv class, its rows)``.
    ``panels`` is set on a dense multi-compute matmul block (see
    :func:`_panels`).
    """

    __slots__ = ("tm", "tn", "tk", "a", "b", "count", "target", "panels")


class DataSchedule:
    """Everything the data plane derives from ``(trace, plan)`` alone:
    per send class its distinct tiles; the compute blocks, a dense
    multi-compute matmul block with its deduplicated operand panels and
    each push's ``(ia, jb)`` tile of their product; per receive class
    its one scatter.  A schedule outside what the data plane serves (see
    the module docstring) raises :class:`ReplayUnsupported` here."""

    __slots__ = ("send", "send_extent", "recv_extent", "blocks",
                 "scatters")

    def __init__(self, trace: DriverTrace, plan: DecodedPlan):
        if any(np.dtype(spec[3]).kind not in "iu"
               for spec in trace.arg_specs):
            raise ReplayUnsupported("non-integer arguments")
        #: Per send class ``(uniq, rows)``: the distinct tile starts and
        #: each tile's row among them — or ``(None, starts)`` for a
        #: class too large to gather whole.  Rows are kept 32-bit when
        #: they fit: the blocks' operand rows are drawn from them and
        #: are most of a schedule's resident bytes.
        self.send = []
        for tile_class in trace.send_classes:
            uniq, rows = np.unique(tile_class.starts, return_inverse=True)
            if uniq.size * tile_class.num_elements() > _CLASS_ELEMENTS:
                uniq, rows = None, tile_class.starts
            if int(rows.max()) < 2 ** 31:
                rows = rows.astype(np.int32)
            self.send.append((uniq, rows))
        #: Per class ``(tile span, furthest start)``: what its window
        #: view is sized and bounds-checked with.
        self.send_extent = [_extent(tc) for tc in trace.send_classes]
        self.recv_extent = [_extent(tc) for tc in trace.recv_classes]
        self._plan_scatter(trace)
        self.blocks: List[_Block] = []
        self._cut_blocks(trace, plan)

    # -- compute blocks ---------------------------------------------------
    def _cut_blocks(self, trace: DriverTrace, plan: DecodedPlan) -> None:
        push_counts = np.asarray(plan.push_counts, dtype=np.int64)
        if push_counts.size and int(push_counts.min()) == 0:
            # A push with no contributing computes has no payload the
            # functional batch can reconstruct.
            raise ReplayUnsupported("push with an empty compute set")
        comp_a = np.asarray(plan.compute_a, dtype=np.int64)
        n_computes = comp_a.size
        if n_computes == 0:
            return
        comp_b = np.asarray(plan.compute_b, dtype=np.int64)
        geom = np.asarray(plan.compute_geom, dtype=np.int64)
        push_of = np.asarray(plan.compute_push, dtype=np.int64)
        conv = plan.kind == "conv"

        # Segment the compute sequence into runs of constant
        # (geometry, operand class) — the generated loop nests produce
        # long such runs — and cut each run into bounded blocks.
        key = np.stack([geom[:, 0], geom[:, 1], geom[:, 2], comp_a >> 40,
                        comp_b >> 40], axis=1)
        change = np.any(key[1:] != key[:-1], axis=1)
        if conv:
            # Window dots share one filter per run: split on filter swaps.
            change = change | (comp_b[1:] != comp_b[:-1])
        run_starts = np.r_[0, np.flatnonzero(change) + 1, n_computes]
        for lo, hi in zip(run_starts[:-1].tolist(), run_starts[1:].tolist()):
            tm, tn, tk = (int(v) for v in geom[lo])
            limit = max(1, _BLOCK_ELEMENTS // max(tm * tk, tk * tn, tm * tn))
            start = lo
            while start < hi:
                # Block boundaries must not split a push's compute run.
                end = min(start + limit, hi)
                if end < hi:
                    while end > start and push_of[end] >= 0 \
                            and push_of[end] == push_of[end - 1]:
                        end -= 1
                    if end == start:  # one push larger than the block
                        end = start + 1
                        while end < hi and push_of[end] == push_of[start]:
                            end += 1
                # Computes no push collects (reset before a push) have
                # no observable result: drop them here, once.
                kept = start + np.flatnonzero(push_of[start:end] >= 0)
                start = end
                if kept.size == 0:
                    continue
                push_ids = push_of[kept]
                # Push ordinals are assigned in compute order, so the
                # sequence is sorted: first occurrences mark the pushes.
                pushes = push_ids[np.r_[True, push_ids[1:] != push_ids[:-1]]]
                if int(push_counts[pushes].sum()) != kept.size:
                    raise ReplayUnsupported("push runs split across blocks")
                block = _Block()
                block.tm, block.tn, block.tk = tm, tn, tk
                block.a = self._side(comp_a[kept])
                block.b = self._side(comp_b[kept[:1]] if conv
                                     else comp_b[kept])
                block.target = pushes
                if not (conv and self._fuse_filter(block)):
                    self.blocks.append(block)
        refs = trace.recv_refs
        for block in self.blocks:
            ordinals = block.target
            counts = push_counts[ordinals]
            classes = refs[ordinals, 0]
            if (counts != counts[0]).any() or (classes != classes[0]).any():
                raise ReplayUnsupported("a block's pushes differ in size "
                                        "or receive class")
            # One write per block, into one run of rows when they are
            # consecutive.
            rows = refs[ordinals, 1]
            if (np.diff(rows) == 1).all():
                rows = slice(int(rows[0]), int(rows[-1]) + 1)
            block.target = (int(classes[0]), rows)
            block.count = int(counts[0])
            block.panels = _panels(block) if block.count > 1 and not conv \
                else None

    def _side(self, packed: np.ndarray):
        if packed[0] < 0:
            raise ReplayUnsupported("a compute on a never-loaded operand")
        class_id = int(packed[0] >> 40)
        return class_id, self.send[class_id][1][packed & _INDEX_MASK]

    def _fuse_filter(self, block: _Block) -> bool:
        """Fold a conv block into its predecessor when only the filter
        differs: the windows are gathered once and all filters applied
        in one ``windows @ filters`` product."""
        if not self.blocks:
            return False
        last = self.blocks[-1]
        (a_cls, a_rows), (b_cls, b_rows) = block.a, block.b
        if last.tk != block.tk or last.a[0] != a_cls or last.b[0] != b_cls \
                or not np.array_equal(last.a[1], a_rows):
            return False
        filters = last.b[1].size + 1
        if filters * max(block.tk, a_rows.size) > _BLOCK_ELEMENTS:
            return False
        last.b = (b_cls, np.r_[last.b[1], b_rows])
        last.target = np.r_[last.target, block.target]
        return True

    # -- receive scatter --------------------------------------------------
    def _plan_scatter(self, trace: DriverTrace) -> None:
        """One write per receive class.  That needs at most one class on
        the argument and disjoint tiles; a repeated tile needs an
        accumulate, which sums its payloads first (``reduceat`` over the
        start order, in the argument's dtype: wraparound is modular, so
        any order is exact).  Anything else is refused: the receives
        would have to land in event order."""
        args = [tile_class.arg for tile_class in trace.recv_classes]
        if len(set(args)) < len(args):
            raise ReplayUnsupported("two receive classes on one argument")
        #: ``(recv class, target starts, None or the payloads' start
        #: order and its reduceat offsets)`` — every target is unique.
        self.scatters = []
        for class_id, tile_class in enumerate(trace.recv_classes):
            if not trace.recv_disjoint[class_id]:
                raise ReplayUnsupported("overlapping receive tiles")
            starts = tile_class.starts
            order, firsts = _start_groups(starts)
            if firsts.size == starts.size:
                self.scatters.append((class_id, starts, None))
            elif tile_class.accumulate:
                self.scatters.append((class_id, starts[order[firsts]],
                                      (order, firsts)))
            else:
                raise ReplayUnsupported("a receive overwrites a repeated "
                                        "tile")


def _extent(tile_class):
    if min(tile_class.strides, default=0) < 0:
        raise ReplayUnsupported("negative tile stride")
    span = sum((size - 1) * stride for size, stride
               in zip(tile_class.sizes, tile_class.strides))
    return span, int(tile_class.starts.max())


def data_schedule(trace: DriverTrace, plan: DecodedPlan) -> DataSchedule:
    """The pair's :class:`DataSchedule`, built on its first replay.

    Kept on the plan under a private name: it shares the plan's
    lifetime, and private attributes are left out of both the store
    codec and the pickle state.  A schedule-time refusal is cached as
    its message, so later calls refuse as cheaply.
    """
    schedule = getattr(plan, "_data_schedule", None)
    if schedule is None:
        try:
            schedule = DataSchedule(trace, plan)
        except ReplayUnsupported as exc:
            schedule = str(exc)
        plan._data_schedule = schedule
    if isinstance(schedule, str):
        raise ReplayUnsupported(schedule)
    return schedule


class ReplayExecutor:
    def __init__(self, trace: DriverTrace, plan: DecodedPlan, board, rt,
                 descriptors, double_buffered: bool):
        self.trace = trace
        self.plan = plan
        self.board = board
        self.rt = rt
        self.descriptors = descriptors
        self.double_buffered = double_buffered
        self.engine: Optional[DmaEngine] = None
        self._validate()
        self.schedule = data_schedule(trace, plan)
        #: This call's payload: distinct tiles per (send class, cast)
        #: and max|value| per send class.
        self._values_memo: Dict = {}
        self._max_memo: Dict[int, int] = {}

    # -- validation -------------------------------------------------------
    def _validate(self) -> None:
        trace, board = self.trace, self.board
        if len(self.descriptors) != len(trace.arg_specs):
            raise ReplayUnsupported("argument arity changed")
        for desc, (sizes, strides, itemsize, dtype) in zip(
            self.descriptors, trace.arg_specs
        ):
            if (desc.sizes != sizes or desc.strides != strides
                    or desc.itemsize != itemsize
                    or dtype_name(desc.dtype) != dtype):
                raise ReplayUnsupported("argument shape changed")
        if board.caches.line_size < 8:
            raise ReplayUnsupported("sub-word cache lines")
        if trace.init_params is None:
            # Preinitialized (manual-driver) trace: the live engine the
            # replay will reuse must exist and match the recorded
            # region geometry.  Checked here — before any mutation —
            # so execute()'s fallback guarantee holds.
            engine = self.rt.dma
            if engine is None:
                raise ReplayUnsupported("runtime engine not initialized")
            if (engine.input_region.size, engine.output_region.size) \
                    != trace.region_sizes:
                raise ReplayUnsupported("engine region sizes changed")
        accel = board.accelerator
        if len(accel.in_fifo) or len(accel.out_fifo):
            raise ReplayUnsupported("accelerator streams not drained")
        accel_dtype = dtype_name(accel.dtype)
        for tile_class in trace.send_classes + trace.recv_classes:
            if trace.arg_specs[tile_class.arg][3] != accel_dtype:
                raise ReplayUnsupported("tile dtype differs from stream "
                                        "dtype")
        # The decoder starts from the accelerator's config; a conv slice
        # pending from an earlier call is the one entry state it misses.
        if type(accel) is ConvAccelerator and accel._slice:
            raise ReplayUnsupported("a conv output slice is pending")

    # -- top level --------------------------------------------------------
    def execute(self) -> None:
        # The functional compute runs first: it is the only stage that
        # can still raise ReplayUnsupported, and it mutates nothing, so
        # a fallback to per-tile execution stays bit-identical.
        self._compute_functional()
        self._install_engine()
        # Metrics plane: cached per (trace, runtime-config/state
        # fingerprint), rebuilt from scratch on a miss.
        mplan = metrics.obtain_plan(self,
                                    decode_key(self.board.accelerator))
        # Input-region reconstruction must read the argument arrays
        # before receives land in them: the recording guard guarantees
        # every send precedes the first receive of its argument, so the
        # pre-scatter arrays hold exactly the at-send-time values.
        self._apply_input_region(mplan)
        self._scatter_receives()
        metrics.apply_plan(self, mplan)
        self._apply_output_region(mplan)
        self._finalize_accelerator(self.board.accelerator)

    def _install_engine(self) -> None:
        if self.trace.init_params is None:
            # Preinitialized (manual-driver) trace: the host's dma_init
            # already ran for real before the driver, so replay against the
            # runtime's live engine (validated by _validate) instead of
            # installing a fresh one.
            self.engine = self.rt.dma
            return
        dma_id, in_size, out_size = self.trace.init_params
        board = self.board
        self.engine = DmaEngine(dma_id, in_size, out_size, board.memory,
                                board.timing)
        board.install_dma(self.engine)
        self.rt.dma = self.engine

    # -- functional execution (data plane, payload half) ------------------
    def _window(self, tile_class, extent) -> np.ndarray:
        """Every tile-shaped window of one class's argument storage.

        ``window[start]`` is the tile whose first element sits ``start``
        elements past the descriptor offset: gathers and scatters index
        it by tile start, so no per-element index lattice is ever built
        or kept.  Checked here, before anything is mutated, against the
        furthest start the schedule uses.
        """
        span, last_start = extent
        desc = self.descriptors[tile_class.arg]
        item = desc.itemsize
        length = desc.allocated.size - desc.offset - span
        if last_start >= length:
            raise ReplayUnsupported("tiles reach beyond argument storage")
        try:
            return np.ndarray(
                (length,) + tuple(tile_class.sizes), desc.dtype,
                desc.allocated, desc.offset * item,
                (item,) + tuple(s * item for s in tile_class.strides),
            )
        except (TypeError, ValueError):
            raise ReplayUnsupported("argument storage is not one flat "
                                    "buffer") from None

    def _values(self, class_id: int, cast=None) -> np.ndarray:
        """Distinct tiles of a send class as one (tiles, elements) matrix.

        Operand tiles are referenced by many computes (every tile of A
        participates in a whole row of products), so the gather — and,
        for the exact-float compute paths, the f32/f64 conversion — is
        done once per *distinct* tile instead of once per reference; the
        schedule's rows index the result.  A class too large for that
        returns its live window, which the same rows (tile starts, then)
        index block by block.
        """
        uniq = self.schedule.send[class_id][0]
        if uniq is None:
            return self._send_windows[class_id]
        key = (class_id, cast)
        values = self._values_memo.get(key)
        if values is None:
            if cast is None:
                values = self._send_windows[class_id][uniq] \
                    .reshape(uniq.size, -1)
            else:
                values = self._values(class_id).astype(cast)
            self._values_memo[key] = values
        return values

    def _tiles(self, class_id: int, index) -> np.ndarray:
        """Tiles (as flat element rows) for a subset of one send class."""
        rows = self.schedule.send[class_id][1][index]
        tiles = self._values(class_id)[rows]
        return tiles.reshape(len(tiles), -1)

    def _class_max(self, class_id: int) -> int:
        """max(|values|) over a whole send class (exact Python int)."""
        bound = self._max_memo.get(class_id)
        if bound is None:
            if self.schedule.send[class_id][0] is None:
                # Too large to gather whole: bound it by the argument's
                # whole storage — a superset of the tiles.
                arg = self.trace.send_classes[class_id].arg
                values = self.descriptors[arg].allocated
            else:
                values = self._values(class_id)
            bound = self._max_memo[class_id] = max_abs(values)
        return bound

    def _elect_cast(self, block: _Block, depth: int):
        """Exact-float election for one integer compute block.

        Every partial sum of a product of reduction depth ``depth``
        (``tk``, or ``count * tk`` for a fused panel product) is bounded
        by ``depth * max|a| * max|b|``; below 2**24 every such integer
        is exactly representable in float32, below 2**53 in float64, so
        the BLAS product is rounding-free and bit-identical to the
        per-tile integer accumulation (and the remaining cases are
        modular-identical through int64; a float64 result goes through
        int64 too, as a float-to-int32 cast is undefined out of range).
        Uses whole-class maxima, so a block whose own maximum is lower
        may pick a wider type than the live engine's per-tile check —
        all paths are exact or modular-identical, so outputs do not
        change.  Returns the numpy cast dtype, or ``None`` for int64.
        """
        bound = depth * self._class_max(block.a[0]) \
            * self._class_max(block.b[0])
        if bound < 2 ** 24:
            return np.float32
        if bound < 2 ** 53:
            return np.float64
        return None

    def _operand(self, side, shape, cast) -> np.ndarray:
        """Gather one operand side of a block."""
        class_id, rows = side
        tiles = self._values(class_id, cast)[rows]
        if cast is not None:
            tiles = tiles.astype(cast, copy=False)  # live-window gathers
        return tiles.reshape((rows.size,) + shape)

    def _products(self, block: _Block, conv: bool) -> np.ndarray:
        """All products of a block, in compute order.

        Any exact-or-modular path is bit-identical to the per-tile
        accumulation (wraparound is mod 2^32 regardless of where it
        happens)."""
        tm, tn, tk = block.tm, block.tn, block.tk
        if conv:
            # One dot product per (filter, window) — replicates
            # ConvAccelerator._send_input_compute's exact int64
            # arithmetic (exact-float BLAS when provably safe).
            a_shape = b_shape = (tk,)
        else:
            a_shape, b_shape = (tm, tk), (tk, tn)
        cast = self._elect_cast(block, block.tk)
        a = self._operand(block.a, a_shape, cast)
        b = self._operand(block.b, b_shape, cast)
        if conv:
            b = b.T
        if cast is not None:
            products = (a @ b).astype(np.int64)
        else:
            products = a.astype(np.int64) @ b.astype(np.int64)
        # conv: (windows, filters) -> filter-major compute order.
        return products.T.reshape(-1) if conv else products

    def _panel_payloads(self, block: _Block, dtype) -> np.ndarray:
        """Every push of a block with panels, from one product
        of panels built (and cast) from the classes' distinct tiles.
        Stacked A panels make numpy issue one GEMM per panel, which for
        a 128**3 problem stays under OpenBLAS's threading threshold: as
        one threaded GEMM it waited 0.1-1.2 ms for its worker thread on
        a loaded 2-CPU host."""
        a_rows, ia, b_rows, jb = block.panels
        tm, tn, tk, count = block.tm, block.tn, block.tk, block.count
        cast = self._elect_cast(block, count * tk) or np.int64
        n_a, n_b = len(a_rows), len(b_rows)
        a = np.empty((n_a, tm, count, tk), cast)
        a[...] = self._values(block.a[0])[a_rows] \
            .reshape(n_a, count, tm, tk).transpose(0, 2, 1, 3)
        b = np.empty((count, tk, n_b, tn), cast)
        b[...] = self._values(block.b[0])[b_rows] \
            .reshape(n_b, count, tk, tn).transpose(1, 2, 0, 3)
        product = a.reshape(n_a, tm, -1) @ b.reshape(-1, n_b * tn)
        tiles = product.reshape(n_a, tm, n_b, tn)[ia, :, jb]
        if cast is np.float64:
            tiles = tiles.astype(np.int64)
        return tiles.reshape(ia.size, -1).astype(dtype)

    def _fold(self, block: _Block, products, conv: bool, dtype):
        """One payload row per push of the block, preserving order.

        A matmul push drains the *sum* of its tile products, a conv push
        the *stack* of its window dots (the slice buffer).
        """
        pushes = len(products) // block.count
        stacked = products.reshape(pushes, block.count, -1)
        if conv:
            return stacked.reshape(pushes, -1).astype(dtype, copy=False)
        return stacked.sum(axis=1).astype(dtype)

    def _compute_functional(self) -> None:
        """All accelerator outputs, one batched product per block.

        Push payloads are written straight into per-receive-class row
        matrices (``self._recv_buffers``, rows in tile-index order), so
        the scatter stage applies a whole class with zero re-packing.
        """
        trace, schedule = self.trace, self.schedule
        dtype = self.board.accelerator.dtype
        conv = self.plan.kind == "conv"
        self._send_windows = [
            self._window(tile_class, extent) for tile_class, extent
            in zip(trace.send_classes, schedule.send_extent)
        ]
        self._recv_windows = [
            self._window(tile_class, extent) for tile_class, extent
            in zip(trace.recv_classes, schedule.recv_extent)
        ]
        self._recv_buffers = [
            np.empty((tile_class.starts.size, tile_class.num_elements()),
                     dtype=dtype)
            for tile_class in trace.recv_classes
        ]
        for block in schedule.blocks:
            if block.panels is not None:
                rows = self._panel_payloads(block, dtype)
            else:
                rows = self._fold(block, self._products(block, conv), conv,
                                  dtype)
            class_id, target = block.target
            self._recv_buffers[class_id][target] = rows

    def _scatter_receives(self) -> None:
        trace = self.trace
        for class_id, starts, repeats in self.schedule.scatters:
            tile_class = trace.recv_classes[class_id]
            desc = self.descriptors[tile_class.arg]
            window = self._recv_windows[class_id]
            data = self._recv_buffers[class_id].view(desc.dtype)
            if repeats is not None:
                order, firsts = repeats
                data = np.add.reduceat(data[order], firsts, axis=0,
                                       dtype=data.dtype)
            tiles = data.reshape((starts.size,) + window.shape[1:])
            if tile_class.accumulate:
                window[starts] += tiles
            else:
                window[starts] = tiles

    # -- staging-region payloads (data plane, plan-indexed) ---------------
    def _apply_input_region(self, mplan) -> None:
        """Write the plan's winning input-region words/tiles.

        The winner index maps are schedule-only (computed once at plan
        build); the payload bytes come from the argument arrays here,
        so the rebuilt region matches the per-tile path bit-for-bit.
        """
        engine = self.engine
        if mplan.input_word_dest.size:
            engine.input_words[mplan.input_word_dest] = \
                mplan.input_word_values
        for class_id, tile_idx, dest_pos, src_pos in \
                mplan.input_tile_writes:
            rows = self._tiles(class_id, tile_idx)
            words = np.ascontiguousarray(rows).view(np.uint32)
            engine.input_words[dest_pos] = words.reshape(-1)[src_pos]

    def _apply_output_region(self, mplan) -> None:
        """Write the plan's winning output-region receive payloads: a
        push's payload is a row of its receive class's buffer."""
        engine, refs = self.engine, self.trace.recv_refs
        for ordinal, dest_pos, src_pos in mplan.output_writes:
            class_id, row = refs[ordinal]
            data = np.ascontiguousarray(self._recv_buffers[class_id][row]) \
                .view(np.uint32)
            engine.output_words[dest_pos] = data[src_pos]

    # -- accelerator end-state (data plane: final operand tiles) ----------
    def _one_tile(self, packed: int, dtype) -> Optional[np.ndarray]:
        if packed < 0:
            return None
        return self._tiles(packed >> 40, [packed & _INDEX_MASK])[0] \
            .astype(dtype, copy=False)

    def _finalize_accelerator(self, accel) -> None:
        plan = self.plan
        if plan.kind == "conv":
            accel.ic, accel.fhw = plan.final_config
            accel._refresh_needs()
            last_filter = self._one_tile(plan.final_b, accel.dtype)
            if last_filter is not None:
                accel._filter = last_filter.reshape(-1)
            accel._slice = []
            return
        tm, tn, tk = plan.final_config
        accel.tile_m, accel.tile_n, accel.tile_k = tm, tn, tk
        accel._refresh_needs()
        last_a = self._one_tile(plan.final_a, accel.dtype)
        accel._a = last_a.reshape(tm, tk) if last_a is not None \
            else np.zeros((tm, tk), accel.dtype)
        last_b = self._one_tile(plan.final_b, accel.dtype)
        accel._b = last_b.reshape(tk, tn) if last_b is not None \
            else np.zeros((tk, tn), accel.dtype)
        accel._c = np.zeros((tm, tn), accel.dtype)


def _start_groups(starts: np.ndarray):
    """``(order, firsts)``: the events stably sorted by start, and where
    each distinct start's run begins in that order."""
    order = np.argsort(starts, kind="stable")
    sorted_starts = starts[order]
    new_group = np.empty(starts.size, dtype=bool)
    new_group[0] = True
    np.not_equal(sorted_starts[1:], sorted_starts[:-1], out=new_group[1:])
    return order, np.flatnonzero(new_group)


def _panels(block: _Block):
    """``(A panel rows, ia, B panel rows, jb)`` of a multi-compute block.

    A push's sum of ``count`` products ``A_j @ B_j`` is one product of
    the panels ``[A_0 .. A_count-1]`` and ``[B_0; ..; B_count-1]``;
    pushes with equal row sequences share a panel, and push ``p`` is
    tile ``(ia[p], jb[p])`` of ``A panels @ B panels``.  ``None`` when
    that product exceeds twice the pushes' own tiles."""
    a_rows, ia = np.unique(block.a[1].reshape(-1, block.count), axis=0,
                           return_inverse=True)
    b_rows, jb = np.unique(block.b[1].reshape(-1, block.count), axis=0,
                           return_inverse=True)
    if len(a_rows) * len(b_rows) > 2 * ia.size:
        return None
    return a_rows, ia.reshape(-1), b_rows, jb.reshape(-1)
