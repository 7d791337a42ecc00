"""Tests for the cpp_MANUAL drivers and the mlir_CPU reference model."""

import numpy as np
import pytest

from repro.accelerators import ConvAccelerator, MatMulAccelerator
from repro.baselines import (
    cpu_conv,
    cpu_matmul,
    manual_conv_driver,
    manual_matmul_driver,
)
from repro.compiler import default_kernel_cache
from repro.soc import make_pynq_z2


def assert_rejected_up_front(drive):
    """``drive()`` raises ValueError before any kernel is looked up."""
    cache = default_kernel_cache()
    looked_up = (cache.hits, cache.misses)
    with pytest.raises(ValueError):
        drive()
    assert (cache.hits, cache.misses) == looked_up


def run_manual(version, size, flow, dims, rng, tiles=None):
    board = make_pynq_z2()
    board.attach_accelerator(MatMulAccelerator(size, version))
    a = rng.integers(-7, 7, (dims, dims)).astype(np.int32)
    b = rng.integers(-7, 7, (dims, dims)).astype(np.int32)
    c = np.zeros((dims, dims), np.int32)
    counters = manual_matmul_driver(board, a, b, c, version, size, flow,
                                    tiles=tiles)
    return a, b, c, counters


class TestManualMatmul:
    @pytest.mark.parametrize("version,flow", [
        (1, "Ns"), (2, "Ns"), (2, "As"), (2, "Bs"),
        (3, "Ns"), (3, "As"), (3, "Bs"), (3, "Cs"),
    ])
    def test_correct(self, version, flow, rng):
        a, b, c, _ = run_manual(version, 8, flow, 32, rng)
        assert np.array_equal(c, a @ b)

    def test_v4_flexible_tiles(self, rng):
        board = make_pynq_z2()
        board.attach_accelerator(MatMulAccelerator(16, version=4))
        a = rng.integers(-7, 7, (64, 128)).astype(np.int32)
        b = rng.integers(-7, 7, (128, 32)).astype(np.int32)
        c = np.zeros((64, 32), np.int32)
        manual_matmul_driver(board, a, b, c, 4, 16, "Cs",
                             tiles=(32, 16, 64))
        assert np.array_equal(c, a @ b)

    def test_bad_shapes_rejected(self, rng):
        board = make_pynq_z2()
        board.attach_accelerator(MatMulAccelerator(8, version=3))
        a = np.zeros((10, 10), np.int32)
        with pytest.raises(ValueError):
            manual_matmul_driver(board, a, a, a.copy(), 3, 8, "Ns")

    def test_unsupported_flow_rejected(self, rng):
        board = make_pynq_z2()
        board.attach_accelerator(MatMulAccelerator(8, version=2))
        a = np.zeros((16, 16), np.int32)
        with pytest.raises(ValueError):
            manual_matmul_driver(board, a, a, a.copy(), 2, 8, "Cs")

    @pytest.mark.parametrize("tiles", [(16, 16, 16), (4, 4, 4), (8, 8, 4)])
    def test_fixed_tile_versions_reject_tiles(self, tiles):
        """Only the flexible v4 accelerator takes tiles other than its
        size (v3 used to die inside the accelerator instead)."""
        board = make_pynq_z2()
        board.attach_accelerator(MatMulAccelerator(8, version=3))
        a = np.zeros((32, 32), np.int32)
        assert_rejected_up_front(lambda: manual_matmul_driver(
            board, a, a, a.copy(), 3, 8, "Ns", tiles=tiles))

    def test_stationary_flows_move_less_data(self, rng):
        _, _, _, ns = run_manual(3, 8, "Ns", 64, rng)
        _, _, _, as_ = run_manual(3, 8, "As", 64, rng)
        _, _, _, cs = run_manual(3, 8, "Cs", 64, rng)
        assert as_.dma_bytes_to_accel < ns.dma_bytes_to_accel
        assert cs.dma_bytes_from_accel < ns.dma_bytes_from_accel


class TestManualConv:
    def test_correct(self, rng):
        board = make_pynq_z2()
        board.attach_accelerator(ConvAccelerator(max_ic=8, max_fhw=3))
        image = rng.integers(-4, 4, (1, 8, 7, 7)).astype(np.int32)
        weights = rng.integers(-4, 4, (4, 8, 3, 3)).astype(np.int32)
        expected, _ = cpu_conv(make_pynq_z2(), image, weights)
        out = np.zeros_like(expected)
        manual_conv_driver(board, image, weights, out)
        assert np.array_equal(out, expected)

    def test_strided(self, rng):
        board = make_pynq_z2()
        board.attach_accelerator(ConvAccelerator(max_ic=4, max_fhw=3))
        image = rng.integers(-4, 4, (1, 4, 9, 9)).astype(np.int32)
        weights = rng.integers(-4, 4, (2, 4, 3, 3)).astype(np.int32)
        expected, _ = cpu_conv(make_pynq_z2(), image, weights, stride=2)
        out = np.zeros_like(expected)
        manual_conv_driver(board, image, weights, out, stride=2)
        assert np.array_equal(out, expected)

    def test_channel_mismatch_rejected(self):
        board = make_pynq_z2()
        board.attach_accelerator(ConvAccelerator())
        with pytest.raises(ValueError):
            manual_conv_driver(
                board,
                np.zeros((1, 4, 7, 7), np.int32),
                np.zeros((2, 8, 3, 3), np.int32),
                np.zeros((1, 2, 5, 5), np.int32),
            )

    @pytest.mark.parametrize("filter_shape,out_shape,stride", [
        # An output short of the 5x5 the convolution produces (it used
        # to return the counters of a partial convolution).
        ((2, 4, 3, 3), (1, 2, 4, 4), 1),
        ((2, 4, 3, 3), (1, 2, 5, 4), 1),
        ((2, 4, 3, 3), (1, 2, 2, 2), 2),
        # A non-square filter (the accelerator takes one filter size).
        ((2, 4, 3, 2), (1, 2, 5, 6), 1),
        # A stride that does not move.
        ((2, 4, 3, 3), (1, 2, 5, 5), 0),
    ], ids=["short-output", "short-width", "short-strided", "non-square",
            "zero-stride"])
    def test_bad_geometry_rejected(self, filter_shape, out_shape, stride):
        board = make_pynq_z2()
        board.attach_accelerator(ConvAccelerator(max_ic=4, max_fhw=3))
        assert_rejected_up_front(lambda: manual_conv_driver(
            board, np.zeros((1, 4, 7, 7), np.int32),
            np.zeros(filter_shape, np.int32), np.zeros(out_shape, np.int32),
            stride))


class TestCpuReference:
    def test_exact_matmul_extreme_values(self, board):
        # INT32_MIN wraps under np.abs; the float64 fast-path guard must
        # reject such inputs and fall back to exact int64 arithmetic.
        from repro.numerics import exact_int_matmul as _exact_int_matmul

        a = np.full((1, 4), -2 ** 31, dtype=np.int32)
        b = np.full((4, 1), 2 ** 31 - 1, dtype=np.int32)
        expected = a.astype(np.int64) @ b.astype(np.int64)
        assert _exact_int_matmul(a, b)[0, 0] == expected[0, 0]

    def test_matmul_functional(self, rng, board):
        a = rng.integers(-7, 7, (16, 16)).astype(np.int32)
        b = rng.integers(-7, 7, (16, 16)).astype(np.int32)
        c, counters = cpu_matmul(board, a, b)
        assert np.array_equal(c, a @ b)
        assert counters.cpu_cycles > 0
        assert counters.task_clock_ms() > 0

    def test_matmul_accumulates_into_given_c(self, rng, board):
        a = rng.integers(-7, 7, (8, 8)).astype(np.int32)
        b = rng.integers(-7, 7, (8, 8)).astype(np.int32)
        c = np.ones((8, 8), np.int32)
        cpu_matmul(board, a, b, c)
        assert np.array_equal(c, a @ b + 1)

    def test_matmul_cost_scales_cubically(self, board, rng):
        a64 = np.ones((64, 64), np.int32)
        a128 = np.ones((128, 128), np.int32)
        _, small = cpu_matmul(board, a64, a64)
        _, large = cpu_matmul(board, a128, a128)
        ratio = large.cpu_cycles / small.cpu_cycles
        assert 7.5 <= ratio <= 8.5

    def test_large_working_set_pays_misses(self, rng):
        board_small = make_pynq_z2()
        board_large = make_pynq_z2()
        a = np.ones((32, 32), np.int32)
        big = np.ones((512, 512), np.int32)
        _, small = cpu_matmul(board_small, a, a)
        _, large = cpu_matmul(board_large, big, big)
        per_mac_small = small.cpu_cycles / 32 ** 3
        per_mac_large = large.cpu_cycles / 512 ** 3
        assert per_mac_large > per_mac_small

    def test_conv_functional_matches_direct(self, rng, board):
        image = rng.integers(-4, 4, (2, 3, 8, 8)).astype(np.int32)
        weights = rng.integers(-4, 4, (4, 3, 3, 3)).astype(np.int32)
        out, _ = cpu_conv(board, image, weights, stride=1)
        # direct reference
        expected = np.zeros_like(out)
        for n in range(2):
            for f in range(4):
                for oh in range(6):
                    for ow in range(6):
                        expected[n, f, oh, ow] = np.sum(
                            image[n, :, oh:oh + 3, ow:ow + 3] * weights[f]
                        )
        assert np.array_equal(out, expected)

    def test_conv_shape_validation(self, board):
        with pytest.raises(ValueError):
            cpu_conv(board, np.zeros((1, 3, 8, 8), np.int32),
                     np.zeros((4, 5, 3, 3), np.int32))

    def test_matmul_shape_validation(self, board):
        with pytest.raises(ValueError):
            cpu_matmul(board, np.zeros((4, 5), np.int32),
                       np.zeros((4, 5), np.int32))
