"""The cpp_MANUAL drivers are hand-built accel IR, served on every rung.

For every (version, flow) a manual matmul driver accepts — v4 with
non-square tiles — and for conv at strides 1 and 2, the kernel's
replay, its emitted driver's per-tile run and the interpreter agree in
counters, output bytes, board clock and both cache levels' LRU digests,
and the replay is never refused: no manual schedule falls outside what
the replay data plane serves.
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
from repro.execution import TRACE_COUNTERS
from repro.execution.metrics import _cache_digest
from repro.soc import make_pynq_z2

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


def _observe(make_hw, run, arrays):
    board = make_pynq_z2()
    board.attach_accelerator(make_hw())
    arrays = [array.copy() for array in arrays]
    counters = run(board, arrays)
    return (counters.as_dict(), arrays[-1].tobytes(), board.clock,
            _cache_digest(board.caches.l1), _cache_digest(board.caches.l2))


def _assert_rungs_agree(kernel, make_hw, arrays):
    refused = TRACE_COUNTERS["replay_refused"]
    replayed = _observe(make_hw, lambda board, operands: kernel.run(
        board, *operands, trace=True), arrays)
    assert kernel.trace_state.trace is not None
    assert TRACE_COUNTERS["replay_refused"] == refused
    per_tile = _observe(make_hw, lambda board, operands: kernel.run(
        board, *operands, trace=False), arrays)
    interpreted = _observe(make_hw, lambda board, operands:
                           kernel.run_interpreted(board, *operands), arrays)
    assert replayed == per_tile == interpreted


@pytest.mark.usefixtures("clean_faults")
@pytest.mark.parametrize("version,flow", MATMUL_PAIRS)
def test_matmul_driver_replays_like_its_slow_tiers(version, flow):
    size, (m, n, k) = 4, (16, 8, 32)
    tiles = (8, 4, 16) if version == 4 else None
    rng = np.random.default_rng(version)
    arrays = [rng.integers(-5, 5, (m, k)).astype(np.int32),
              rng.integers(-5, 5, (k, n)).astype(np.int32),
              np.zeros((m, n), np.int32)]
    kernel = manual_matmul_kernel(((m, k), (k, n), (m, n)), version, size,
                                  flow, tiles, cache=KernelCache())
    _assert_rungs_agree(kernel, lambda: MatMulAccelerator(size, version),
                        arrays)


@pytest.mark.usefixtures("clean_faults")
@pytest.mark.parametrize("shapes_and_stride", CONV_CASES,
                         ids=["stride1-batch2", "stride2", "stride2-f2"])
def test_conv_driver_replays_like_its_slow_tiers(shapes_and_stride):
    *shapes, stride = shapes_and_stride
    rng = np.random.default_rng(stride)
    arrays = [rng.integers(-4, 4, shapes[0]).astype(np.int32),
              rng.integers(-4, 4, shapes[1]).astype(np.int32),
              np.zeros(shapes[2], np.int32)]
    kernel = manual_conv_kernel(tuple(shapes), stride, cache=KernelCache())
    _assert_rungs_agree(kernel, lambda: ConvAccelerator(max_ic=4, max_fhw=3),
                        arrays)
