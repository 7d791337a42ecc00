"""One simulation request, step by step, through public ``repro`` calls.

An op builds the accelerator system, compiles through
``AXI4MLIRCompiler``, runs on a fresh ``make_pynq_z2()`` board, and
compares the output with numpy and the ``PerfCounters`` with the golden
file.  Each step sits in its own span so a traced run shows where an
op's time goes without touching the program.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from .specs import output_shape, spec_key


def make_system(spec: dict):
    """(hardware model, accelerator configuration) for one spec."""
    from repro.accelerators import make_conv_system, make_matmul_system

    if spec["kind"] == "matmul":
        return make_matmul_system(spec["version"], spec["size"],
                                  flow=spec["flow"],
                                  accel_size=spec.get("accel_size"))
    return make_conv_system(spec["in_ch"], spec["f_hw"],
                            max_slice=output_shape(spec)[-1] ** 2)


def compile_spec(spec: dict, info, kernel_cache=None):
    """The spec's kernel through ``AXI4MLIRCompiler`` (``kernel_cache``
    ``None``: the process-wide cache, as every caller of the library)."""
    from repro.compiler import AXI4MLIRCompiler

    permutation = spec.get("permutation")
    compiler = AXI4MLIRCompiler(
        info, permutation=tuple(permutation) if permutation else None,
        enable_cpu_tiling=spec.get("cpu_tiling", True),
        specialized_copies=spec.get("specialized", True),
        kernel_cache=kernel_cache)
    if spec["kind"] == "matmul":
        return compiler.compile_matmul(spec["m"], spec["n"], spec["k"])
    return compiler.compile_conv(spec["batch"], spec["in_ch"], spec["in_hw"],
                                 spec["out_ch"], spec["f_hw"],
                                 spec["stride"])


def build_kernel(spec: dict, tracer, op: Optional[int] = None):
    """(hardware model, compiled kernel) for one spec."""
    with tracer.span("accel.make_system", op):
        hw, info = make_system(spec)
    with tracer.span("compiler.compile", op):
        kernel = compile_spec(spec, info)
    return hw, kernel


def run_op(spec: dict, inputs: Sequence[np.ndarray], tier: str, tracer,
           op: Optional[int] = None) -> Tuple[object, np.ndarray]:
    """Execute one op in-process; returns ``(counters, output)``."""
    from repro.soc import make_pynq_z2

    hw, kernel = build_kernel(spec, tracer, op)
    with tracer.span("board.make", op):
        board = make_pynq_z2()
        board.attach_accelerator(hw)
    output = np.zeros(output_shape(spec), np.int32)
    with tracer.span("kernel.run", op):
        if tier == "interpreted":
            counters = kernel.run_interpreted(board, *inputs, output)
        else:
            counters = kernel.run(board, *inputs, output,
                                  trace=False if tier == "per_tile"
                                  else None)
    return counters, output


def check_op(spec: dict, counters, output, expected: np.ndarray,
             golden_counters: dict, tracer,
             op: Optional[int] = None) -> List[str]:
    """Why the op failed its checks; empty when it passed."""
    problems = []
    with tracer.span("verify.output", op):
        if not isinstance(output, np.ndarray) \
                or not np.array_equal(output, expected):
            problems.append("output")
    with tracer.span("verify.counters", op):
        if vars(counters) != golden_counters.get(spec_key(spec)):
            problems.append("counters")
    return problems
