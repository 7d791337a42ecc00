"""``cpp_MANUAL``: hand-written optimized driver code (paper Sec. IV-A).

These drivers mirror what a careful engineer writes against the SECDA-
TFLite-style runtime: loops tiled by the accelerator size only (no CPU
cache-hierarchy tiling), staging copies from bare row-major arrays, and
the fewest number of data-transfer calls for the selected dataflow.
They run against the exact same board/accelerator as the generated
code, but with :data:`~repro.runtime.CALL_STYLE_MANUAL` call overheads
and the manual (raw-array) copy cost style.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..accelerators.matmul import MATMUL_LITERALS, VERSION_OPCODES
from ..accelerators.conv import CONV_LITERALS
from ..compiler import (
    default_kernel_cache,
    load_entry,
    publish_due,
    publish_entry,
    store_entry_name,
)
from ..execution.recorder import record_trace
from ..execution.replay import replay_kernel
from ..execution.trace import (
    TRACE_COUNTERS,
    TraceUnsupported,
    trace_enabled,
)
from ..runtime import AxiRuntime, CALL_STYLE_MANUAL
from ..soc.board import Board
from ..soc.perf import PerfCounters

#: DMA region sizes matching the catalog configurations.
_DMA_WORDS = 0x2_0000


def _make_runtime(board: Board) -> AxiRuntime:
    return AxiRuntime(board, call_style=CALL_STYLE_MANUAL)


#: Recorded manual-driver schedules, keyed by (kernel, knobs, specs).
#: The manual drivers are as static as the generated ones — only their
#: dma_init runs before the memref allocations, so their bodies record
#: as *preinitialized* traces that replay against the live engine.
#: ``None`` marks a body the trace machinery could not handle.  With a
#: kernel store active each trace (+ its MetricsPlans) also lives there
#: as a ``manual-*`` entry under the same key, so only the first process
#: records.
_MANUAL_TRACES: Dict[Tuple, Optional[object]] = {}

#: Configs already counted in TRACE_COUNTERS["manual_fallback"] for a
#: replay failure, so per-invocation retries (failures can be
#: board-state-dependent, and decode results are cached on the trace)
#: don't inflate the per-kernel accounting.
_MANUAL_REPLAY_FAILED = set()


def _load_manual_trace(store, name: str):
    """The trace a ``manual-*`` entry holds, or ``None`` (the recording
    that follows then overwrites the entry)."""
    status, payload = load_entry(store, name)
    return payload["trace"] if status == "hit" else None


def _run_manual_body(body, rt, board, before, descriptors, key):
    """Replay ``body`` from its recorded trace; per-tile on fallback."""
    if trace_enabled():
        specs = tuple((d.sizes, d.strides, d.itemsize, str(d.dtype))
                      for d in descriptors)
        cache_key = key + (specs,)
        store = default_kernel_cache().resolve_store()
        if cache_key not in _MANUAL_TRACES:
            trace = _load_manual_trace(
                store, store_entry_name("manual", cache_key)
            ) if store is not None else None
            if trace is None:
                try:
                    trace = record_trace(
                        body, specs,
                        preinitialized=(_DMA_WORDS * 4, _DMA_WORDS * 4),
                        stage="manual_record_s",
                    )
                    TRACE_COUNTERS["manual_recorded"] += 1
                except Exception:
                    TRACE_COUNTERS["manual_fallback"] += 1
            _MANUAL_TRACES[cache_key] = trace
        trace = _MANUAL_TRACES[cache_key]
        if trace is not None:
            try:
                replay_kernel(trace, board, rt, descriptors, False)
                if store is not None and publish_due(trace):
                    publish_entry(store,
                                  store_entry_name("manual", cache_key),
                                  {}, trace)
                return board.measure_since(before)
            except TraceUnsupported:
                # Count the kernel once, but keep retrying: replay
                # refusals can be board-state-dependent, and repeated
                # attempts are cheap (decode caches its verdict).
                if cache_key not in _MANUAL_REPLAY_FAILED:
                    _MANUAL_REPLAY_FAILED.add(cache_key)
                    TRACE_COUNTERS["manual_fallback"] += 1
    body(rt, *descriptors)
    return board.measure_since(before)


def _matmul_literals_for(version: int, flow: str) -> Dict[str, int]:
    """The opcodes a manual driver uses for one (version, flow) pair."""
    available = VERSION_OPCODES[version]
    needs = {
        (1, "Ns"): ("sAsBcCrC",),
        (2, "Ns"): ("sA", "sB", "cCrC"),
        (2, "As"): ("sA", "sB", "cCrC"),
        (2, "Bs"): ("sA", "sB", "cCrC"),
        (3, "Ns"): ("sA", "sB", "cC", "rC"),
        (3, "As"): ("sA", "sB", "cC", "rC"),
        (3, "Bs"): ("sA", "sB", "cC", "rC"),
        (3, "Cs"): ("sA", "sB", "cC", "rC"),
    }
    needs[(4, "Ns")] = needs[(3, "Ns")]
    needs[(4, "As")] = needs[(3, "As")]
    needs[(4, "Bs")] = needs[(3, "Bs")]
    needs[(4, "Cs")] = needs[(3, "Cs")]
    key = (version, flow)
    if key not in needs:
        raise ValueError(f"v{version} has no manual {flow} driver")
    missing = [n for n in needs[key] if n not in available]
    if missing:
        raise ValueError(f"v{version} does not support opcodes {missing}")
    return {name: MATMUL_LITERALS[name] for name in needs[key]}


def manual_matmul_driver(
    board: Board,
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    version: int,
    size: int,
    flow: str = "Ns",
    tiles: Optional[Tuple[int, int, int]] = None,
) -> PerfCounters:
    """Drive a Table I accelerator by hand; C += A @ B.

    ``tiles`` overrides the square tile for flexible (v4) accelerators.
    Returns the perf counter delta of the whole offload (including DMA
    initialization, as measured in the paper's task-clock).
    """
    m, k = a.shape
    k2, n = b.shape
    if (k2, (m, n)) != (k, c.shape):
        raise ValueError("matmul operand shapes do not agree")
    tile_m, tile_n, tile_k = tiles or (size, size, size)
    for extent, tile, label in ((m, tile_m, "M"), (n, tile_n, "N"),
                                (k, tile_k, "K")):
        if extent % tile:
            raise ValueError(f"{label}={extent} not divisible by tile {tile}")

    literals = _matmul_literals_for(version, flow)
    if flow == "Cs" and "cC" not in literals:
        raise ValueError("Cs flow needs a separate cC opcode (v3/v4)")
    if flow not in ("Ns", "As", "Bs", "Cs"):
        raise ValueError(f"unknown flow {flow!r}")

    def body(rt, desc_a, desc_b, desc_c):
        if version == 4:
            offset = rt.send_literal(MATMUL_LITERALS["cfg"], 0)
            offset = rt.send_idx(tile_m, offset)
            offset = rt.send_idx(tile_n, offset)
            offset = rt.send_idx(tile_k, offset)
            rt.flush_send(offset)
        else:
            rt.flush_send(rt.send_literal(MATMUL_LITERALS["reset"], 0))

        def send_a(mi: int, ki: int, offset: int) -> int:
            offset = rt.send_literal(literals["sA"], offset)
            rt.subview_setup()
            return rt.send_memref(
                desc_a.subview((mi, ki), (tile_m, tile_k)), offset
            )

        def send_b(ki: int, ni: int, offset: int) -> int:
            offset = rt.send_literal(literals["sB"], offset)
            rt.subview_setup()
            return rt.send_memref(
                desc_b.subview((ki, ni), (tile_k, tile_n)), offset
            )

        def recv_c(mi: int, ni: int, compute_literal: Optional[int],
                   recv_literal: int, offset: int) -> None:
            if compute_literal is not None:
                offset = rt.send_literal(compute_literal, offset)
            offset = rt.send_literal(recv_literal, offset)
            rt.flush_send(offset)
            rt.subview_setup()
            rt.recv_memref(desc_c.subview((mi, ni), (tile_m, tile_n)), 0,
                           accumulate=True)

        if version == 1:
            for mi in range(0, m, tile_m):
                rt.loop_iteration()
                for ni in range(0, n, tile_n):
                    rt.loop_iteration()
                    for ki in range(0, k, tile_k):
                        rt.loop_iteration()
                        offset = rt.send_literal(literals["sAsBcCrC"], 0)
                        rt.subview_setup()
                        offset = rt.send_memref(
                            desc_a.subview((mi, ki), (tile_m, tile_k)),
                            offset
                        )
                        rt.subview_setup()
                        offset = rt.send_memref(
                            desc_b.subview((ki, ni), (tile_k, tile_n)),
                            offset
                        )
                        rt.flush_send(offset)
                        rt.subview_setup()
                        rt.recv_memref(
                            desc_c.subview((mi, ni), (tile_m, tile_n)), 0,
                            accumulate=True,
                        )
            return

        compute = literals.get("cC")
        recv_lit = literals["rC"] if "rC" in literals \
            else literals["cCrC"]
        compute_for_recv = compute if "rC" in literals else None

        if flow == "Ns":
            for mi in range(0, m, tile_m):
                rt.loop_iteration()
                for ni in range(0, n, tile_n):
                    rt.loop_iteration()
                    for ki in range(0, k, tile_k):
                        rt.loop_iteration()
                        offset = send_a(mi, ki, 0)
                        offset = send_b(ki, ni, offset)
                        recv_c(mi, ni, compute_for_recv, recv_lit, offset)
        elif flow == "As":
            for mi in range(0, m, tile_m):
                rt.loop_iteration()
                for ki in range(0, k, tile_k):
                    rt.loop_iteration()
                    offset = send_a(mi, ki, 0)
                    rt.flush_send(offset)
                    for ni in range(0, n, tile_n):
                        rt.loop_iteration()
                        offset = send_b(ki, ni, 0)
                        recv_c(mi, ni, compute_for_recv, recv_lit, offset)
        elif flow == "Bs":
            for ni in range(0, n, tile_n):
                rt.loop_iteration()
                for ki in range(0, k, tile_k):
                    rt.loop_iteration()
                    offset = send_b(ki, ni, 0)
                    rt.flush_send(offset)
                    for mi in range(0, m, tile_m):
                        rt.loop_iteration()
                        offset = send_a(mi, ki, 0)
                        recv_c(mi, ni, compute_for_recv, recv_lit, offset)
        else:  # Cs
            for mi in range(0, m, tile_m):
                rt.loop_iteration()
                for ni in range(0, n, tile_n):
                    rt.loop_iteration()
                    for ki in range(0, k, tile_k):
                        rt.loop_iteration()
                        offset = send_a(mi, ki, 0)
                        offset = send_b(ki, ni, offset)
                        offset = rt.send_literal(compute, offset)
                        rt.flush_send(offset)
                    offset = rt.send_literal(literals["rC"], 0)
                    rt.flush_send(offset)
                    rt.subview_setup()
                    rt.recv_memref(
                        desc_c.subview((mi, ni), (tile_m, tile_n)), 0,
                        accumulate=True,
                    )

    rt = _make_runtime(board)
    before = board.snapshot()
    rt.dma_init(0, 0, _DMA_WORDS * 4, 0, _DMA_WORDS * 4)

    desc_a = rt.make_memref(a, "A")
    desc_b = rt.make_memref(b, "B")
    desc_c = rt.make_memref(c, "C")

    key = ("matmul", version, size, flow, (tile_m, tile_n, tile_k))
    return _run_manual_body(body, rt, board, before,
                            [desc_a, desc_b, desc_c], key)


def manual_conv_driver(
    board: Board,
    image: np.ndarray,
    weights: np.ndarray,
    out: np.ndarray,
    stride: int = 1,
) -> PerfCounters:
    """Drive the conv accelerator by hand (filter/output stationary)."""
    batch, in_ch, in_h, in_w = image.shape
    out_ch, in_ch2, f_h, f_w = weights.shape
    if in_ch != in_ch2:
        raise ValueError("image/filter channel mismatch")
    _, out_ch2, out_h, out_w = out.shape
    if out_ch != out_ch2:
        raise ValueError("filter/output channel mismatch")

    def body(rt, desc_i, desc_w, desc_o):
        offset = rt.send_literal(CONV_LITERALS["cfg_fsize"], 0)
        offset = rt.send_idx(f_h, offset)
        offset = rt.send_literal(CONV_LITERALS["cfg_ic"], offset)
        offset = rt.send_idx(in_ch, offset)
        rt.flush_send(offset)

        for bi in range(batch):
            rt.loop_iteration()
            for oc in range(out_ch):
                rt.loop_iteration()
                offset = rt.send_literal(CONV_LITERALS["sF"], 0)
                rt.subview_setup()
                offset = rt.send_memref(
                    desc_w.subview((oc, 0, 0, 0), (1, in_ch, f_h, f_w)),
                    offset
                )
                rt.flush_send(offset)
                for oh in range(out_h):
                    rt.loop_iteration()
                    for ow in range(out_w):
                        rt.loop_iteration()
                        offset = rt.send_literal(CONV_LITERALS["sIcO"], 0)
                        rt.subview_setup()
                        offset = rt.send_memref(
                            desc_i.subview(
                                (bi, 0, oh * stride, ow * stride),
                                (1, in_ch, f_h, f_w),
                            ),
                            offset,
                        )
                        rt.flush_send(offset)
                offset = rt.send_literal(CONV_LITERALS["rO"], 0)
                rt.flush_send(offset)
                rt.subview_setup()
                rt.recv_memref(
                    desc_o.subview((bi, oc, 0, 0), (1, 1, out_h, out_w)),
                    0, accumulate=True,
                )

    rt = _make_runtime(board)
    before = board.snapshot()
    rt.dma_init(0, 0, _DMA_WORDS * 4, 0, _DMA_WORDS * 4)

    desc_i = rt.make_memref(image, "I")
    desc_w = rt.make_memref(weights, "W")
    desc_o = rt.make_memref(out, "O")

    key = ("conv", stride)
    return _run_manual_body(body, rt, board, before,
                            [desc_i, desc_w, desc_o], key)
