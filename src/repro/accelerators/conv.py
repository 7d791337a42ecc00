"""Convolution accelerator (paper Sec. IV-D).

The device computes one output slice (all spatial elements of one output
channel) per ``rO``: the host configures the filter spatial size and the
input-channel depth, sends one 3-D filter, then streams 3-D input windows
(``sIcO`` — send input and compute); every window produces one output
element accumulated into an internal slice buffer, which ``rO`` drains.

Opcode literals follow Fig. 15a: ``sIcO``=70, ``sF``=1, ``rO``=8,
``rst`` = configuration pair (32 -> filter size word, 16 -> iC word).
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..numerics import float64_exact_bound
from .base import StreamAccelerator

CONV_LITERALS = {
    "sIcO": 70,
    "sF": 1,
    "rO": 8,
    "cfg_fsize": 32,
    "cfg_ic": 16,
}

#: Parallel multiply-accumulate lanes of the window dot-product engine.
CONV_OPS_PER_CYCLE = 64.0


class ConvAccelerator(StreamAccelerator):
    """Filter- and output-stationary convolution engine."""

    def __init__(self, max_ic: int = 512, max_fhw: int = 7,
                 max_slice: int = 64 * 64, dtype=np.int32):
        super().__init__("conv2d")
        self.dtype = np.dtype(dtype)
        self.max_ic = max_ic
        self.max_fhw = max_fhw
        self.max_slice = max_slice
        self.ic = 1
        self.fhw = 1
        self._filter = np.zeros(1, self.dtype)
        self._slice: List[np.ndarray] = []
        self.register_opcode(CONV_LITERALS["cfg_fsize"], self._cfg_fsize,
                             needs=1)
        self.register_opcode(CONV_LITERALS["cfg_ic"], self._cfg_ic,
                             needs=1)
        self.register_opcode(CONV_LITERALS["sF"], self._send_filter)
        self.register_opcode(CONV_LITERALS["sIcO"],
                             self._send_input_compute)
        self.register_opcode(CONV_LITERALS["rO"], self._recv_output,
                             needs=0)
        self._refresh_needs()

    def _refresh_needs(self) -> None:
        """Window-sized opcodes track the configured geometry."""
        self._needs[CONV_LITERALS["sF"]] = self.window_elements
        self._needs[CONV_LITERALS["sIcO"]] = self.window_elements

    @property
    def window_elements(self) -> int:
        return self.ic * self.fhw * self.fhw

    # -- opcode handlers ------------------------------------------------------
    def _cfg_fsize(self) -> float:
        value = int(self.read_words(1)[0])
        if not 1 <= value <= self.max_fhw:
            raise ValueError(f"{self.name}: filter size {value} out of range")
        self.fhw = value
        self._refresh_needs()
        return 0.0

    def _cfg_ic(self) -> float:
        value = int(self.read_words(1)[0])
        if not 1 <= value <= self.max_ic:
            raise ValueError(f"{self.name}: iC {value} out of range")
        self.ic = value
        self._refresh_needs()
        return 0.0

    def _send_filter(self) -> float:
        self._filter = self.read_words(self.window_elements, self.dtype)
        self._slice = []
        return 0.0

    def _send_input_compute(self) -> float:
        window = self.read_words(self.window_elements, self.dtype)
        if len(self._slice) >= self.max_slice:
            raise RuntimeError(
                f"{self.name}: output slice buffer overflow "
                f"({self.max_slice} elements)"
            )
        value = np.dot(window.astype(np.int64),
                       self._filter.astype(np.int64))
        # Wraps modulo the dtype, as the batch path and replay do.
        self._slice.append(value.astype(self.dtype))
        return 2.0 * self.window_elements / CONV_OPS_PER_CYCLE

    def _send_window_batch(self, windows: np.ndarray) -> float:
        """Vectorized fast path used by the board for whole-row streaming.

        Functionally identical to repeated ``sIcO`` instructions; exists
        so large ResNet layers simulate in reasonable time.  Small-value
        batches (the common int8-ish quantized data) go through float64
        BLAS — exact while every partial sum fits the f64 mantissa.
        """
        if float64_exact_bound(self.window_elements, windows, self._filter):
            values = (windows.astype(np.float64)
                      @ self._filter.astype(np.float64)).astype(np.int64)
        else:
            values = windows.astype(np.int64) @ self._filter.astype(np.int64)
        self._slice.extend(np.asarray(values, dtype=self.dtype))
        return 2.0 * self.window_elements * len(windows) / CONV_OPS_PER_CYCLE

    def _recv_output(self) -> float:
        if not self._slice:
            raise RuntimeError(f"{self.name}: rO with empty slice buffer")
        self.write_words(np.asarray(self._slice, dtype=self.dtype))
        self._slice = []
        return 0.0
