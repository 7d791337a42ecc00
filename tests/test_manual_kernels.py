"""The cpp_MANUAL drivers are hand-built accel IR, pinned to the Python
bodies they replaced (``tests/support/manual_bodies.py``).

For every (version, flow) a manual matmul driver accepts — v4 with
non-square tiles — and for conv at strides 1 and 2:

* the trace synthesized from the kernel's schedule table is, column for
  column (:func:`~repro.execution.synthesize.diff_traces`), the
  recording of the old body, both preinitialized;
* the emitted driver's per-tile run equals the old body's per-tile run
  in counters, output bytes, board clock and both cache levels' LRU
  digests.
"""

import numpy as np
import pytest

from repro.accelerators import ConvAccelerator, MatMulAccelerator
from repro.baselines.manual import (
    _matmul_literals_for,
    manual_conv_kernel,
    manual_matmul_kernel,
)
from repro.compiler import KernelCache
from repro.execution.metrics import _cache_digest
from repro.execution.recorder import record_trace
from repro.execution.synthesize import diff_traces, synthesize_trace
from repro.soc import make_pynq_z2

from support.manual_bodies import (
    PREINITIALIZED,
    conv_body,
    matmul_body,
    run_per_tile,
)

#: Every (version, flow) pair ``_matmul_literals_for`` accepts.
MATMUL_PAIRS = [(1, "Ns"), (2, "Ns"), (2, "As"), (2, "Bs")] + [
    (version, flow) for version in (3, 4)
    for flow in ("Ns", "As", "Bs", "Cs")]

#: (image, filter, output) shapes and stride.
CONV_CASES = [
    ((2, 4, 7, 7), (3, 4, 3, 3), (2, 3, 5, 5), 1),
    ((1, 4, 9, 9), (2, 4, 3, 3), (1, 2, 4, 4), 2),
    ((1, 2, 10, 10), (3, 2, 2, 2), (1, 3, 5, 5), 2),
]


def test_the_pairs_are_every_pair_the_drivers_accept():
    for version in (1, 2, 3, 4):
        for flow in ("Ns", "As", "Bs", "Cs"):
            if (version, flow) in MATMUL_PAIRS:
                _matmul_literals_for(version, flow)
            else:
                with pytest.raises(ValueError):
                    _matmul_literals_for(version, flow)


def _specs(arrays):
    return tuple((a.shape, tuple(s // a.itemsize for s in a.strides),
                  a.itemsize, str(a.dtype)) for a in arrays)


def _observe(hw, run, arrays):
    board = make_pynq_z2()
    board.attach_accelerator(hw)
    arrays = [array.copy() for array in arrays]
    counters = run(board, arrays)
    return (counters.as_dict(), arrays[-1].tobytes(), board.clock,
            _cache_digest(board.caches.l1), _cache_digest(board.caches.l2))


def _assert_pinned(kernel, body, hw, arrays, names):
    specs = _specs(arrays)
    assert kernel.preinitialized == PREINITIALIZED
    synthesized = synthesize_trace(kernel.schedule_table, specs,
                                   kernel.preinitialized)
    recorded = record_trace(body, specs, preinitialized=PREINITIALIZED)
    assert diff_traces(synthesized, recorded) == []
    new = _observe(hw, lambda board, operands: kernel.run(
        board, *operands, trace=False), arrays)
    old = _observe(hw, lambda board, operands: run_per_tile(
        body, board, operands, names), arrays)
    assert new == old


@pytest.mark.parametrize("version,flow", MATMUL_PAIRS)
def test_matmul_driver_is_the_old_body(version, flow):
    size, (m, n, k) = 4, (16, 8, 32)
    tiles = (8, 4, 16) if version == 4 else (size,) * 3
    rng = np.random.default_rng(version)
    arrays = [rng.integers(-5, 5, (m, k)).astype(np.int32),
              rng.integers(-5, 5, (k, n)).astype(np.int32),
              np.zeros((m, n), np.int32)]
    kernel = manual_matmul_kernel(
        ((m, k), (k, n), (m, n)), version, size, flow,
        tiles if version == 4 else None, cache=KernelCache())
    body = matmul_body(m, n, k, version, flow, tiles,
                       _matmul_literals_for(version, flow))
    _assert_pinned(kernel, body, MatMulAccelerator(size, version), arrays,
                   "ABC")


@pytest.mark.parametrize("shapes_and_stride", CONV_CASES,
                         ids=["stride1-batch2", "stride2", "stride2-f2"])
def test_conv_driver_is_the_old_body(shapes_and_stride):
    *shapes, stride = shapes_and_stride
    (batch, in_ch, _, _), (out_ch, _, f_hw, _), (_, _, out_hw, _) = shapes
    rng = np.random.default_rng(stride)
    arrays = [rng.integers(-4, 4, shapes[0]).astype(np.int32),
              rng.integers(-4, 4, shapes[1]).astype(np.int32),
              np.zeros(shapes[2], np.int32)]
    kernel = manual_conv_kernel(tuple(shapes), stride, cache=KernelCache())
    body = conv_body(batch, in_ch, out_ch, f_hw, f_hw, out_hw, out_hw,
                     stride)
    _assert_pinned(kernel, body, ConvAccelerator(max_ic=4, max_fhw=3),
                   arrays, "IWO")
