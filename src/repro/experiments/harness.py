"""Single-measurement helpers shared by all figure harnesses.

Every ``measure_*`` helper builds a fresh board, runs one configuration,
checks the numerics against numpy, and returns the perf counter delta.
Results are memoized per parameter tuple — several figures share
configurations, and the simulations are deterministic.

The model figures (fig16/fig17) instead run whole kernel *sequences*
through the ``run_*_model`` runners below: one shared board per model
(cache warm-state carries between layers), and independent models
dispatched onto the replay worker pool.

Compilation goes through the process-wide kernel cache
(:func:`repro.compiler.default_kernel_cache`): figures that sweep the
same (accelerator, shape, flow) configuration with different *runtime*
knobs (fig11's unspecialized copies vs fig12/13's specialized ones)
lower each kernel exactly once and share the compiled entry point.

Execution opts into trace-compiled replay (``trace=True``): the driver
schedule is synthesized once per kernel and replayed as batched numpy —
bit-identical counters, a fraction of the wall-clock.  Set
``REPRO_NO_TRACE=1`` to force per-tile execution throughout.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

from ..accelerators import (
    ConvAccelerator,
    MatMulAccelerator,
    make_conv_system,
    make_matmul_system,
)
from ..baselines import (
    cpu_conv,
    cpu_matmul,
    manual_conv_driver,
    manual_matmul_driver,
)
from ..compiler import AXI4MLIRCompiler, default_kernel_cache
from ..soc import PerfCounters, make_pynq_z2


def kernel_cache_stats() -> dict:
    """Hit/miss/entry counts of the shared compiled-kernel cache."""
    return default_kernel_cache().stats()


def stage_timings() -> dict:
    """Cumulative compile / trace-record / replay seconds this process.

    Includes per-stage deltas merged back from replay pool workers
    (:func:`repro.execution.run_model_jobs`), so multiprocess figure
    harnesses report the work done, not just the fraction done in the
    parent process.
    """
    from ..execution import STAGE_TIMINGS

    return dict(STAGE_TIMINGS)


def _data(dims_m: int, dims_n: int, dims_k: int, seed: int = 7):
    rng = np.random.default_rng(seed)
    a = rng.integers(-7, 7, (dims_m, dims_k)).astype(np.int32)
    b = rng.integers(-7, 7, (dims_k, dims_n)).astype(np.int32)
    return a, b


def _expected_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact integer product, computed via BLAS.

    ``int64 @ int64`` falls back to naive loops in numpy; float64 BLAS
    is exact while ``k * max|a*b| < 2**53`` — the harness data is bounded
    at |7|, so even the 512-deep reductions stay below 2**15.
    """
    return (a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64)


#: Public aliases for the deterministic harness inputs and oracle — the
#: tuning sweep workers evaluate candidate configurations against the
#: same data the figure harnesses use, so sweep metrics and figure
#: metrics are directly comparable.
matmul_inputs = _data
expected_matmul = _expected_matmul


@lru_cache(maxsize=None)
def measure_cpu_matmul(dims: int) -> PerfCounters:
    """``mlir_CPU``: the problem run entirely on the host."""
    board = make_pynq_z2()
    a, b = _data(dims, dims, dims)
    _, counters = cpu_matmul(board, a, b)
    return counters


def compile_matmul_kernel(
    dims_m: int, dims_n: int, dims_k: int, size: int, version: int,
    flow: str, specialized: bool = True, cpu_tiling: bool = True,
    accel_size: Optional[Tuple[int, int, int]] = None,
    permutation: Optional[Tuple[str, ...]] = None,
):
    """(hardware, compiled kernel) for one generated-matmul config.

    The single compile path shared by the figure harnesses and the
    compile/simulate service worker (``repro.service.worker``), so a
    request served remotely lowers through exactly the code a local
    measurement would.
    """
    hw, info = make_matmul_system(version, size, flow=flow,
                                  accel_size=accel_size)
    compiler = AXI4MLIRCompiler(info, permutation=permutation,
                                enable_cpu_tiling=cpu_tiling,
                                specialized_copies=specialized)
    return hw, compiler.compile_matmul(dims_m, dims_n, dims_k)


def compile_conv_kernel(
    batch: int, in_ch: int, in_hw: int, out_ch: int, f_hw: int,
    stride: int = 1, specialized: bool = True,
    max_slice: Optional[int] = None,
):
    """(hardware, compiled kernel) for one generated-conv config."""
    out_hw = (in_hw - f_hw) // stride + 1
    hw, info = make_conv_system(
        in_ch, f_hw,
        max_slice=max_slice if max_slice is not None else out_hw ** 2,
    )
    compiler = AXI4MLIRCompiler(info, specialized_copies=specialized)
    return hw, compiler.compile_conv(batch, in_ch, in_hw, out_ch, f_hw,
                                     stride)


@lru_cache(maxsize=None)
def measure_generated_matmul(
    dims_m: int, dims_n: int, dims_k: int, size: int, version: int,
    flow: str, specialized: bool = True, cpu_tiling: bool = True,
    accel_size: Optional[Tuple[int, int, int]] = None,
    trace: bool = True,
) -> PerfCounters:
    """``mlir_AXI4MLIR``: compile and run the generated driver."""
    hw, kernel = compile_matmul_kernel(
        dims_m, dims_n, dims_k, size, version, flow,
        specialized=specialized, cpu_tiling=cpu_tiling,
        accel_size=accel_size,
    )
    board = make_pynq_z2()
    board.attach_accelerator(hw)
    a, b = _data(dims_m, dims_n, dims_k)
    c = np.zeros((dims_m, dims_n), np.int32)
    counters = kernel.run(board, a, b, c, trace=trace)
    if not np.array_equal(c, _expected_matmul(a, b)):
        raise AssertionError(
            f"generated driver produced wrong results for "
            f"({dims_m},{dims_n},{dims_k}) v{version} {flow}"
        )
    return counters


@lru_cache(maxsize=None)
def measure_manual_matmul(
    dims_m: int, dims_n: int, dims_k: int, size: int, version: int,
    flow: str, tiles: Optional[Tuple[int, int, int]] = None,
) -> PerfCounters:
    """``cpp_MANUAL``: the hand-written driver baseline."""
    board = make_pynq_z2()
    board.attach_accelerator(MatMulAccelerator(size, version))
    a, b = _data(dims_m, dims_n, dims_k)
    c = np.zeros((dims_m, dims_n), np.int32)
    counters = manual_matmul_driver(board, a, b, c, version, size, flow,
                                    tiles=tiles)
    if not np.array_equal(c, _expected_matmul(a, b)):
        raise AssertionError("manual driver produced wrong results")
    return counters


def _conv_data(layer, seed: int = 11):
    rng = np.random.default_rng(seed)
    image = rng.integers(-4, 4, layer.input_shape()).astype(np.int32)
    weights = rng.integers(-4, 4, layer.filter_shape()).astype(np.int32)
    return image, weights


@lru_cache(maxsize=None)
def measure_generated_conv(layer, specialized: bool = True,
                           trace: bool = True) -> PerfCounters:
    hw, kernel = compile_conv_kernel(
        layer.batch, layer.in_ch, layer.in_hw, layer.out_ch, layer.f_hw,
        layer.stride, specialized=specialized,
        max_slice=layer.out_hw ** 2,
    )
    board = make_pynq_z2()
    board.attach_accelerator(hw)
    image, weights = _conv_data(layer)
    expected, _ = cpu_conv(make_pynq_z2(), image, weights, layer.stride)
    out = np.zeros(layer.output_shape(), np.int32)
    counters = kernel.run(board, image, weights, out, trace=trace)
    if not np.array_equal(out, expected):
        raise AssertionError(f"generated conv wrong for {layer.label}")
    return counters


@lru_cache(maxsize=None)
def measure_manual_conv(layer) -> PerfCounters:
    board = make_pynq_z2()
    board.attach_accelerator(
        ConvAccelerator(max_ic=layer.in_ch, max_fhw=layer.f_hw,
                        max_slice=layer.out_hw ** 2)
    )
    image, weights = _conv_data(layer)
    expected, _ = cpu_conv(make_pynq_z2(), image, weights, layer.stride)
    out = np.zeros(layer.output_shape(), np.int32)
    counters = manual_conv_driver(board, image, weights, out, layer.stride)
    if not np.array_equal(out, expected):
        raise AssertionError(f"manual conv wrong for {layer.label}")
    return counters


@lru_cache(maxsize=None)
def measure_cpu_conv(layer) -> PerfCounters:
    board = make_pynq_z2()
    image, weights = _conv_data(layer)
    _, counters = cpu_conv(board, image, weights, layer.stride)
    return counters


# ---------------------------------------------------------------------------
# Model-granularity runs (fig16 / fig17)
# ---------------------------------------------------------------------------
#
# The model figures measure kernel *sequences*, not isolated kernels:
# every step of one model runs on a single shared board, so the cache
# warm-state carries between layers (the OfflineLruSimulator starts
# each step from the previous step's live LRU contents).  The runners
# are module-level so run_model_jobs can fork them into pool workers.

@lru_cache(maxsize=None)
def _conv_golden(layer) -> np.ndarray:
    """Memoized numpy reference output for one conv layer.

    Module-level (not per-model) so the parent process can warm it for
    every layer before forking: pool workers inherit the cache and the
    golden cost drops off the parallel legs' critical path.
    """
    image, weights = _conv_data(layer)
    expected, _ = cpu_conv(make_pynq_z2(), image, weights, layer.stride)
    return expected


def run_conv_model(layers: Tuple, impl: str) -> Tuple[PerfCounters, ...]:
    """One conv-layer sequence (fig16) on a single shared warm board.

    ``impl`` selects the hand-written driver (``"manual"``) or the
    compiled one (``"generated"``); both run every layer back-to-back
    on the same board so the comparison sees the same warm caches.
    Returns the per-layer perf-counter deltas, in order.
    """
    board = make_pynq_z2()
    results = []
    for layer in layers:
        image, weights = _conv_data(layer)
        expected = _conv_golden(layer)
        out = np.zeros(layer.output_shape(), np.int32)
        if impl == "manual":
            board.attach_accelerator(
                ConvAccelerator(max_ic=layer.in_ch, max_fhw=layer.f_hw,
                                max_slice=layer.out_hw ** 2)
            )
            counters = manual_conv_driver(board, image, weights, out,
                                          layer.stride)
        else:
            hw, info = make_conv_system(layer.in_ch, layer.f_hw,
                                        max_slice=layer.out_hw ** 2)
            board.attach_accelerator(hw)
            compiler = AXI4MLIRCompiler(info, specialized_copies=True)
            kernel = compiler.compile_conv(
                layer.batch, layer.in_ch, layer.in_hw,
                layer.out_ch, layer.f_hw, layer.stride,
            )
            counters = kernel.run(board, image, weights, out)
        if not np.array_equal(out, expected):
            raise AssertionError(f"{impl} conv wrong for {layer.label}")
        results.append(counters)
    return tuple(results)


def run_matmul_model(specs: Tuple) -> Tuple[PerfCounters, ...]:
    """One matmul sequence (fig17 strategy) on a single shared board.

    ``specs`` is an ordered tuple of ``(m, n, k, size, version, flow,
    accel_size)`` kernel configurations; they run back-to-back on the
    one board so consecutive matmuls see realistically warm caches.
    """
    board = make_pynq_z2()
    results = []
    for spec in specs:
        dims_m, dims_n, dims_k, size, version, flow, accel_size = spec
        hw, info = make_matmul_system(version, size, flow=flow,
                                      accel_size=accel_size)
        board.attach_accelerator(hw)
        compiler = AXI4MLIRCompiler(info)
        kernel = compiler.compile_matmul(dims_m, dims_n, dims_k)
        a, b = _data(dims_m, dims_n, dims_k)
        c = np.zeros((dims_m, dims_n), np.int32)
        counters = kernel.run(board, a, b, c)
        if not np.array_equal(c, _expected_matmul(a, b)):
            raise AssertionError(f"model matmul wrong for {spec}")
        results.append(counters)
    return tuple(results)


@lru_cache(maxsize=None)
def conv_model_counters(layers: Tuple) -> Tuple[Tuple[PerfCounters, ...],
                                                Tuple[PerfCounters, ...]]:
    """(manual, generated) per-layer counters, the two legs pooled."""
    from ..execution import run_model_jobs

    for layer in layers:
        _conv_golden(layer)
    manual, generated = run_model_jobs([
        (run_conv_model, (layers, "manual")),
        (run_conv_model, (layers, "generated")),
    ])
    return manual, generated


@lru_cache(maxsize=None)
def matmul_model_counters(*spec_groups: Tuple
                          ) -> Tuple[Tuple[PerfCounters, ...], ...]:
    """Per-spec counters for several matmul models, pooled."""
    from ..execution import run_model_jobs

    return tuple(run_model_jobs(
        [(run_matmul_model, (specs,)) for specs in spec_groups]
    ))
