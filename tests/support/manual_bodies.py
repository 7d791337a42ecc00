"""The cpp_MANUAL driver bodies as they were written before the drivers
became hand-built accel IR (:mod:`repro.baselines.manual`): Python
closures over an :class:`~repro.runtime.AxiRuntime`, copied verbatim.

A test-only reference.  ``tests/test_manual_kernels.py`` pins each IR
driver to its body: the synthesized trace equals a recording of the
body, and the emitted driver's per-tile run equals the body's.
"""

from typing import Dict, Optional

from repro.accelerators.conv import CONV_LITERALS
from repro.accelerators.matmul import MATMUL_LITERALS
from repro.runtime import AxiRuntime, CALL_STYLE_MANUAL

#: DMA region sizes matching the catalog configurations.
_DMA_WORDS = 0x2_0000

#: ``record_trace(..., preinitialized=...)`` of a body.
PREINITIALIZED = (_DMA_WORDS * 4, _DMA_WORDS * 4)


def run_per_tile(body, board, arrays, names):
    """The old driver's per-tile run of ``body``: the engine initialized
    inside the measured region, before the operands are allocated."""
    rt = AxiRuntime(board, call_style=CALL_STYLE_MANUAL)
    before = board.snapshot()
    rt.dma_init(0, 0, _DMA_WORDS * 4, 0, _DMA_WORDS * 4)
    descriptors = [rt.make_memref(array, name)
                   for array, name in zip(arrays, names)]
    body(rt, *descriptors)
    return board.measure_since(before)


def matmul_body(m: int, n: int, k: int, version: int, flow: str,
                tiles, literals: Dict[str, int]):
    tile_m, tile_n, tile_k = tiles

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

    return body


def conv_body(batch: int, in_ch: int, out_ch: int, f_h: int, f_w: int,
              out_h: int, out_w: int, stride: int):
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

    return body
