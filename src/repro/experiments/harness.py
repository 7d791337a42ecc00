"""Single-measurement helpers shared by all figure harnesses.

Every ``measure_*`` helper builds a fresh board, runs one configuration,
checks the numerics against numpy, and returns the perf counter delta.
Results are memoized per parameter tuple — several figures share
configurations, and the simulations are deterministic.

The model figures (fig16/fig17) instead run whole kernel *sequences*
through the ``run_*_model`` runners below: one shared board per model
(cache warm-state carries between layers), and independent models
dispatched onto the replay worker pool.

A generated kernel goes from configuration to board through one
function of a request spec, :func:`compile_request` (with
:func:`request_shapes` for its operand and output shapes): the figure
measurements, the model legs, the sweep's points
(:func:`repro.tuning.driver.evaluate_point`) and the service's requests
and warmups (:mod:`repro.service.worker`) all build the hardware model,
the accelerator configuration and the compiled kernel there, so a
request served remotely lowers and runs through exactly the code a
local measurement would.

Compilation goes through the process-wide kernel cache
(:func:`repro.compiler.default_kernel_cache`): figures that sweep the
same (accelerator, shape, flow) configuration with different *runtime*
knobs (fig11's unspecialized copies vs fig12/13's specialized ones)
lower each kernel exactly once and share the compiled entry point.

Execution replays the kernel's synthesized trace when the C kernels are
available — bit-identical counters, a fraction of the wall-clock.  Set
``REPRO_NO_TRACE=1`` to force per-tile execution throughout.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Dict, NamedTuple, Optional, Sequence, Tuple

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


Shape = Tuple[int, ...]


def request_shapes(spec: Dict[str, Any]) -> Tuple[Tuple[Shape, ...], Shape]:
    """(operand shapes, output shape) of one request spec."""
    kind = spec.get("kind")
    if kind == "matmul":
        m, n, k = spec["m"], spec["n"], spec["k"]
        return ((m, k), (k, n)), (m, n)
    if kind == "conv":
        batch, in_ch, in_hw = spec["batch"], spec["in_ch"], spec["in_hw"]
        out_ch, f_hw = spec["out_ch"], spec["f_hw"]
        out_hw = (in_hw - f_hw) // spec.get("stride", 1) + 1
        return (((batch, in_ch, in_hw, in_hw), (out_ch, in_ch, f_hw, f_hw)),
                (batch, out_ch, out_hw, out_hw))
    raise ValueError(f"unknown kernel kind {kind!r}")


class CompiledRequest(NamedTuple):
    """What :func:`compile_request` builds for one request spec."""

    hw: Any
    info: Any
    kernel: Any
    input_shapes: Tuple[Shape, ...]
    output_shape: Shape

    def run(self, inputs: Sequence[np.ndarray], board=None,
            trace: Optional[bool] = None) -> Tuple[PerfCounters, np.ndarray]:
        """Run the kernel on ``board`` (a fresh PYNQ-Z2 when ``None``)
        with this request's accelerator attached; ``(counters, output)``."""
        if board is None:
            board = make_pynq_z2()
        board.attach_accelerator(self.hw)
        output = np.zeros(self.output_shape, np.int32)
        return self.kernel.run(board, *inputs, output, trace=trace), output


def compile_request(spec: Dict[str, Any]) -> CompiledRequest:
    """Build one request spec's accelerator system and compile its kernel.

    ``spec`` is in the service's request vocabulary: ``kind``
    (``"matmul"`` / ``"conv"``); the shape (``m``/``n``/``k``, or
    ``batch``/``in_ch``/``in_hw``/``out_ch``/``f_hw``/``stride``, stride
    1 when absent); the matmul accelerator (``version``/``size``/
    ``flow``, ``accel_size`` when set) or the conv one (``max_slice``,
    default the output plane ``out_hw ** 2``); and the lowering knobs
    ``permutation`` (default: the accelerator's loop order),
    ``cpu_tiling`` and ``specialized`` (both default True).  Other keys
    (``inputs``) are ignored.  This is the only place outside
    :mod:`repro.accelerators` and :mod:`repro.compiler` that builds a
    generated kernel's system and compiler.
    """
    input_shapes, output_shape = request_shapes(spec)
    permutation = spec.get("permutation")
    knobs = dict(permutation=tuple(permutation) if permutation else None,
                 enable_cpu_tiling=spec.get("cpu_tiling", True),
                 specialized_copies=spec.get("specialized", True))
    if spec["kind"] == "matmul":
        accel_size = spec.get("accel_size")
        hw, info = make_matmul_system(
            spec["version"], spec["size"], flow=spec["flow"],
            accel_size=tuple(accel_size) if accel_size else None)
        kernel = AXI4MLIRCompiler(info, **knobs).compile_matmul(
            spec["m"], spec["n"], spec["k"])
    else:
        max_slice = spec.get("max_slice")
        hw, info = make_conv_system(
            spec["in_ch"], spec["f_hw"],
            max_slice=output_shape[-1] ** 2 if max_slice is None
            else max_slice)
        kernel = AXI4MLIRCompiler(info, **knobs).compile_conv(
            spec["batch"], spec["in_ch"], spec["in_hw"], spec["out_ch"],
            spec["f_hw"], spec.get("stride", 1))
    return CompiledRequest(hw, info, kernel, input_shapes, output_shape)


def _matmul_spec(dims_m: int, dims_n: int, dims_k: int, size: int,
                 version: int, flow: str, accel_size=None, **knobs) -> dict:
    return {"kind": "matmul", "m": dims_m, "n": dims_n, "k": dims_k,
            "size": size, "version": version, "flow": flow,
            "accel_size": accel_size, **knobs}


def _conv_spec(layer, **knobs) -> dict:
    return {"kind": "conv", "batch": layer.batch, "in_ch": layer.in_ch,
            "in_hw": layer.in_hw, "out_ch": layer.out_ch,
            "f_hw": layer.f_hw, "stride": layer.stride, **knobs}


@lru_cache(maxsize=None)
def measure_generated_matmul(
    dims_m: int, dims_n: int, dims_k: int, size: int, version: int,
    flow: str, specialized: bool = True, cpu_tiling: bool = True,
    accel_size: Optional[Tuple[int, int, int]] = None,
    trace: bool = True,
) -> PerfCounters:
    """``mlir_AXI4MLIR``: compile and run the generated driver."""
    request = compile_request(_matmul_spec(
        dims_m, dims_n, dims_k, size, version, flow, accel_size,
        specialized=specialized, cpu_tiling=cpu_tiling))
    a, b = _data(dims_m, dims_n, dims_k)
    counters, c = request.run((a, b), trace=trace)
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
def _conv_golden(layer) -> np.ndarray:
    """Memoized numpy reference output for one conv layer.

    The conv measurements and both model legs check against it; the
    parent process warms it for every layer before forking, so pool
    workers inherit the cache and the golden cost drops off the
    parallel legs' critical path.
    """
    image, weights = _conv_data(layer)
    expected, _ = cpu_conv(make_pynq_z2(), image, weights, layer.stride)
    return expected


@lru_cache(maxsize=None)
def measure_generated_conv(layer, specialized: bool = True,
                           trace: bool = True) -> PerfCounters:
    request = compile_request(_conv_spec(layer, specialized=specialized))
    counters, out = request.run(_conv_data(layer), trace=trace)
    if not np.array_equal(out, _conv_golden(layer)):
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
    out = np.zeros(layer.output_shape(), np.int32)
    counters = manual_conv_driver(board, image, weights, out, layer.stride)
    if not np.array_equal(out, _conv_golden(layer)):
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
# warm-state carries between layers (replay classifies each step's
# accesses in the ``metrics_pass`` C kernel, starting from the previous
# step's live LRU contents).  The runners
# are module-level so run_model_jobs can fork them into pool workers.

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
        if impl == "manual":
            board.attach_accelerator(
                ConvAccelerator(max_ic=layer.in_ch, max_fhw=layer.f_hw,
                                max_slice=layer.out_hw ** 2)
            )
            out = np.zeros(layer.output_shape(), np.int32)
            counters = manual_conv_driver(board, image, weights, out,
                                          layer.stride)
        else:
            counters, out = compile_request(_conv_spec(layer)).run(
                (image, weights), board)
        if not np.array_equal(out, _conv_golden(layer)):
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
        a, b = _data(*spec[:3])
        counters, c = compile_request(_matmul_spec(*spec)).run((a, b), board)
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
