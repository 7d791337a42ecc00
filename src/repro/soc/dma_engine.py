"""DMA engine model: staging regions + transfers to/from an accelerator.

The host CPU programs the engine via the runtime library; the engine
moves bytes between its memory-mapped regions and the accelerator's
AXI-Stream FIFOs.  Timing: each transaction costs CPU setup cycles
(charged by the runtime), a fixed engine latency, and the stream
transfer time at the AXI payload bandwidth.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .memory import MainMemory, MemoryRegion
from .timing import TimingModel


class DmaEngine:
    """One DMA engine bound to one accelerator's in/out streams."""

    def __init__(self, dma_id: int, input_size: int, output_size: int,
                 memory: MainMemory, timing: TimingModel):
        self.dma_id = dma_id
        self.timing = timing
        if input_size % 4 or output_size % 4:
            raise ValueError("DMA region sizes must be word multiples")
        self.input_region: MemoryRegion = memory.allocate(
            input_size, f"dma{dma_id}.in"
        )
        self.output_region: MemoryRegion = memory.allocate(
            output_size, f"dma{dma_id}.out"
        )
        self.input_words = np.zeros(input_size // 4, dtype=np.uint32)
        self.output_words = np.zeros(output_size // 4, dtype=np.uint32)
        self.accelerator = None
        self.transactions = 0
        self.bytes_sent = 0
        self.bytes_received = 0

    def attach(self, accelerator) -> None:
        self.accelerator = accelerator

    # -- send path ---------------------------------------------------------
    def start_send(self, length_bytes: int, offset_bytes: int = 0) -> float:
        """Push ``length_bytes`` from the input region into the stream.

        Returns the transfer time in seconds (the caller blocks on it,
        mirroring ``dma_wait_send_completion``).
        """
        if self.accelerator is None:
            raise RuntimeError("DMA engine has no attached accelerator")
        if length_bytes % 4 or offset_bytes % 4:
            raise ValueError("DMA transfers are word-aligned")
        start = offset_bytes // 4
        count = length_bytes // 4
        if start + count > self.input_words.size:
            raise ValueError(
                f"send of {length_bytes}B at offset {offset_bytes} exceeds "
                f"input region of {self.input_words.size * 4}B"
            )
        if count == 0:
            return 0.0
        burst = self.input_words[start:start + count].copy().view(np.int32)
        self.accelerator.in_fifo.push(burst)
        self.transactions += 1
        self.bytes_sent += length_bytes
        return self.timing.dma_latency_s + self.timing.axi_transfer_seconds(
            length_bytes
        )

    # -- receive path -----------------------------------------------------

    def start_recv(self, length_bytes: int, offset_bytes: int = 0) -> float:
        """Pull ``length_bytes`` from the stream into the output region."""
        if self.accelerator is None:
            raise RuntimeError("DMA engine has no attached accelerator")
        if length_bytes % 4 or offset_bytes % 4:
            raise ValueError("DMA transfers are word-aligned")
        start = offset_bytes // 4
        count = length_bytes // 4
        if start + count > self.output_words.size:
            raise ValueError(
                f"recv of {length_bytes}B at offset {offset_bytes} exceeds "
                f"output region of {self.output_words.size * 4}B"
            )
        if count == 0:
            return 0.0
        words = self.accelerator.out_fifo.pop(count, dtype=np.uint32)
        self.output_words[start:start + count] = words
        self.transactions += 1
        self.bytes_received += length_bytes
        return self.timing.dma_latency_s + self.timing.axi_transfer_seconds(
            length_bytes
        )
