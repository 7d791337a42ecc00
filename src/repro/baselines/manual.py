"""``cpp_MANUAL``: hand-written optimized driver code (paper Sec. IV-A).

These drivers mirror what a careful engineer writes against the SECDA-
TFLite-style runtime: loops tiled by the accelerator size only (no CPU
cache-hierarchy tiling), staging copies from bare row-major arrays, and
the fewest number of data-transfer calls for the selected dataflow.
They run against the exact same board/accelerator as the generated
code, but with :data:`~repro.runtime.CALL_STYLE_MANUAL` call overheads
and the manual (raw-array) copy cost style.

Each driver is written by hand as accel-level IR — a ``func.func`` of
``scf.for`` tile loops, ``memref.subview`` windows of the whole operands
and ``accel`` staging ops — that never goes through the AXI4MLIR passes.
It is a :class:`~repro.kernel.CompiledKernel` like a generated one,
cached in :func:`~repro.kernel_cache.default_kernel_cache` under a
``("manual", ...)`` key, so the emitter, the trace synthesizer, the
kernel store, replay and the interpreter serve it unchanged.  What the
IR cannot say the kernel carries as data: its call style, and the DMA
engine the host initializes *before* it allocates the operands
(``host_dma_init``) — which is why the IR holds no ``accel.dma_init``.
"""

from __future__ import annotations

import contextlib
import time
from typing import Dict, Optional, Tuple

import numpy as np

from ..accelerators.matmul import MATMUL_LITERALS
from ..accelerators.conv import CONV_LITERALS
from ..codegen import emit_function
from ..kernel import CompiledKernel
from ..kernel_cache import KernelCache, default_kernel_cache
from ..dialects import accel, arith, func, memref, scf
from ..execution.trace import add_stage_time
from ..ir import MemRefType, Module, element_type_from_string
from ..ir.types import I32
from ..runtime import CALL_STYLE_MANUAL
from ..soc.board import Board
from ..soc.perf import PerfCounters

#: DMA region sizes matching the catalog configurations.
_DMA_WORDS = 0x2_0000

#: The ``dma_init`` a manual driver's host runs before allocating.
_HOST_DMA_INIT = (0, 0, _DMA_WORDS * 4, 0, _DMA_WORDS * 4)


#: Per version: the opcodes its manual driver stages, and the flows
#: it has a driver for.
_MANUAL_OPCODES = {
    1: (("sAsBcCrC",), ("Ns",)),
    2: (("sA", "sB", "cCrC"), ("Ns", "As", "Bs")),
    3: (("sA", "sB", "cC", "rC"), ("Ns", "As", "Bs", "Cs")),
    4: (("sA", "sB", "cC", "rC"), ("Ns", "As", "Bs", "Cs")),
}


def _matmul_literals_for(version: int, flow: str) -> Dict[str, int]:
    """The opcodes a manual driver uses for one (version, flow) pair."""
    names, flows = _MANUAL_OPCODES.get(version, ((), ()))
    if flow not in flows:
        raise ValueError(f"v{version} has no manual {flow!r} driver")
    return {name: MATMUL_LITERALS[name] for name in names}


def _word(b, value: int, offset):
    """Stage the i32 literal ``value`` at ``offset``."""
    return accel.send_literal(b, arith.constant(b, value, I32), offset)


def _loop(b, extent: int, step: int, name: str):
    """``scf.for`` over ``range(0, extent, step)``, as a context."""
    return scf.build_for(b, arith.index_constant(b, 0),
                         arith.index_constant(b, extent),
                         arith.index_constant(b, step), name)


def _manual_kernel(cache: Optional[KernelCache], key: Tuple, name: str,
                   shapes, dtype, body) -> CompiledKernel:
    """The kernel of one driver configuration: ``body(b, *operands)``
    builds the IR of a ``func.func`` named ``name`` over memrefs of
    ``shapes`` and ``dtype``, once per key — for a kernel loaded from
    the store, when a rung first needs its module."""
    element = element_type_from_string(np.dtype(dtype).name)
    types = [MemRefType(tuple(shape), element) for shape in shapes]

    def build() -> CompiledKernel:
        start = time.perf_counter()
        try:
            module = Module()
            func_op = func.define(name, types)
            module.add_function(func_op)
            b = func.builder_at_entry(func_op)
            body(b, *func.arguments(func_op))
            func.ret(b)
            kernel = CompiledKernel(module, func_name=name,
                                    call_style=CALL_STYLE_MANUAL,
                                    host_dma_init=_HOST_DMA_INIT)
            # Synthesis needs the schedule table: emit now, as a compile
            # does.
            kernel.trace_state.emitted = emit_function(func_op)
            return kernel
        finally:
            add_stage_time("compile_s", time.perf_counter() - start)

    cache = default_kernel_cache() if cache is None else cache
    return cache.get_or_compile(
        ("manual", name) + key + (tuple(str(t) for t in types),), build)


def manual_matmul_kernel(
    shapes: Tuple[Tuple[int, int], Tuple[int, int], Tuple[int, int]],
    version: int,
    size: int,
    flow: str = "Ns",
    tiles: Optional[Tuple[int, int, int]] = None,
    dtype=np.int32,
    cache: Optional[KernelCache] = None,
) -> CompiledKernel:
    """The hand-written driver of C += A @ B for ``shapes`` (of A, B, C)
    on a Table I accelerator, as a kernel.

    ``tiles`` overrides the square tile, on flexible (v4) accelerators
    only.  Every argument is checked before a kernel is looked up.
    """
    (m, k), (k2, n), c_shape = shapes
    if (k2, (m, n)) != (k, tuple(c_shape)):
        raise ValueError("matmul operand shapes do not agree")
    literals = _matmul_literals_for(version, flow)
    tiles = (size, size, size) if tiles is None else tuple(tiles)
    if version != 4 and tiles != (size, size, size):
        raise ValueError(f"v{version} has a fixed {size}^3 tile; "
                         f"only v4 takes tiles {tiles}")
    if len(tiles) != 3 or min(tiles) < 1:
        raise ValueError(f"tiles {tiles} are not three positive sizes")
    for extent, tile, label in zip((m, n, k), tiles, "MNK"):
        if extent % tile:
            raise ValueError(f"{label}={extent} not divisible by tile {tile}")
    recv_words = ("cC", "rC") if "rC" in literals else ("cCrC",)
    extents, tile_of = dict(zip("mnk", (m, n, k))), dict(zip("mnk", tiles))

    def body(b, ref_a, ref_b, ref_c):
        ivs, zero = {}, arith.constant(b, 0, I32)

        def word(name, offset):
            return _word(b, MATMUL_LITERALS[name], offset)

        @contextlib.contextmanager
        def loops(dims):
            with contextlib.ExitStack() as stack:
                for dim in dims:
                    ivs[dim] = stack.enter_context(
                        _loop(b, extents[dim], tile_of[dim], dim))
                yield

        def tile(ref, rows, cols):
            return memref.subview(b, ref, [ivs[rows], ivs[cols]],
                                  (tile_of[rows], tile_of[cols]))

        def send_a(offset, literal="sA"):
            offset = word(literal, offset)
            return accel.send(b, tile(ref_a, "m", "k"), offset)

        def send_b(offset, literal="sB"):
            if literal:
                offset = word(literal, offset)
            return accel.send(b, tile(ref_b, "k", "n"), offset)

        def receive(offset, *words):
            for name in words:
                offset = word(name, offset)
            accel.flush_send(b, offset)
            accel.recv(b, tile(ref_c, "m", "n"), zero, accel.RECV_ACCUMULATE)

        if version == 4:
            offset = word("cfg", zero)
            for extent in tiles:
                offset = accel.send_idx(b, arith.index_constant(b, extent),
                                        offset)
            accel.flush_send(b, offset)
        else:
            accel.flush_send(b, word("reset", zero))
        if version == 1:
            with loops("mnk"):
                receive(send_b(send_a(zero, "sAsBcCrC"), None))
        elif flow == "Ns":
            with loops("mnk"):
                receive(send_b(send_a(zero)), *recv_words)
        elif flow == "As":
            with loops("mk"):
                accel.flush_send(b, send_a(zero))
                with loops("n"):
                    receive(send_b(zero), *recv_words)
        elif flow == "Bs":
            with loops("nk"):
                accel.flush_send(b, send_b(zero))
                with loops("m"):
                    receive(send_a(zero), *recv_words)
        else:  # Cs
            with loops("mn"):
                with loops("k"):
                    accel.flush_send(b, word("cC", send_b(send_a(zero))))
                receive(zero, "rC")

    return _manual_kernel(cache, (version, size, flow, tiles),
                          "manual_matmul", shapes, dtype, body)


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
    kernel = manual_matmul_kernel((a.shape, b.shape, c.shape), version,
                                  size, flow, tiles, a.dtype)
    return kernel.run(board, a, b, c)


def manual_conv_kernel(
    shapes: Tuple[Tuple[int, ...], Tuple[int, ...], Tuple[int, ...]],
    stride: int = 1,
    dtype=np.int32,
    cache: Optional[KernelCache] = None,
) -> CompiledKernel:
    """The hand-written filter/output-stationary driver of one NCHW/FCHW
    convolution of ``shapes`` (image, filter, output), as a kernel.

    Every argument is checked before a kernel is looked up: the filter
    is square (the accelerator takes one filter size) and the output
    has exactly the extents the convolution produces.
    """
    (batch, in_ch, in_h, in_w), (out_ch, in_ch2, f_h, f_w), out_shape = \
        shapes
    if in_ch != in_ch2:
        raise ValueError("image/filter channel mismatch")
    if f_h != f_w:
        raise ValueError(f"filter {f_h}x{f_w} is not square")
    if stride < 1:
        raise ValueError(f"stride {stride} is not positive")
    if f_h > min(in_h, in_w):
        raise ValueError(f"filter {f_h}x{f_w} exceeds image {in_h}x{in_w}")
    out_h = (in_h - f_h) // stride + 1
    out_w = (in_w - f_w) // stride + 1
    if tuple(out_shape) != (batch, out_ch, out_h, out_w):
        raise ValueError(f"output {tuple(out_shape)} is not the "
                         f"{(batch, out_ch, out_h, out_w)} convolution")

    def body(b, ref_i, ref_w, ref_o):
        def word(name, offset):
            return _word(b, CONV_LITERALS[name], offset)

        def send_window(ref, offsets, literal):
            offset = word(literal, zero)
            window = memref.subview(b, ref, offsets, (1, in_ch, f_h, f_w))
            accel.flush_send(b, accel.send(b, window, offset))

        zero = arith.constant(b, 0, I32)
        origin = arith.index_constant(b, 0)
        offset = word("cfg_fsize", zero)
        offset = accel.send_idx(b, arith.index_constant(b, f_h), offset)
        offset = word("cfg_ic", offset)
        offset = accel.send_idx(b, arith.index_constant(b, in_ch), offset)
        accel.flush_send(b, offset)
        with _loop(b, batch, 1, "b") as bi, \
                _loop(b, out_ch, 1, "oc") as oc:
            send_window(ref_w, [oc, origin, origin, origin], "sF")
            # The window origins step by the stride: oh, ow are image
            # rows and columns, out_h x out_w of them.
            with _loop(b, out_h * stride, stride, "oh") as oh, \
                    _loop(b, out_w * stride, stride, "ow") as ow:
                send_window(ref_i, [bi, origin, oh, ow], "sIcO")
            accel.flush_send(b, word("rO", zero))
            accel.recv(b, memref.subview(b, ref_o, [bi, oc, origin, origin],
                                         (1, 1, out_h, out_w)),
                       zero, accel.RECV_ACCUMULATE)

    return _manual_kernel(cache, (stride,), "manual_conv", shapes, dtype,
                          body)


def manual_conv_driver(
    board: Board,
    image: np.ndarray,
    weights: np.ndarray,
    out: np.ndarray,
    stride: int = 1,
) -> PerfCounters:
    """Drive the conv accelerator by hand (filter/output stationary)."""
    kernel = manual_conv_kernel((image.shape, weights.shape, out.shape),
                                stride, image.dtype)
    return kernel.run(board, image, weights, out)
