"""Base class for AXI-Stream micro-ISA accelerators."""

from __future__ import annotations

from typing import Callable, Dict

import numpy as np

from ..soc.axi import AxiStreamFifo, StreamUnderflow


class UnknownOpcodeError(RuntimeError):
    """The stream contained a word that is not a supported opcode.

    On real hardware this wedges the accelerator state machine; the
    simulation fails loudly so compiler bugs surface in tests.
    """


class StreamAccelerator:
    """An accelerator driven by opcode-prefixed AXI-Stream bursts.

    Subclasses register handlers per opcode literal with
    :meth:`register_opcode`.  A handler consumes its data words from
    ``in_fifo``, optionally pushes results to ``out_fifo``, and returns
    the accelerator cycles spent.
    """

    def __init__(self, name: str):
        self.name = name
        self.in_fifo = AxiStreamFifo(f"{name}.in")
        self.out_fifo = AxiStreamFifo(f"{name}.out")
        self._handlers: Dict[int, Callable[[], float]] = {}
        self._needs: Dict[int, int] = {}
        self.total_cycles = 0.0
        self.instructions_executed = 0

    def register_opcode(self, literal: int,
                        handler: Callable[[], float],
                        needs: int = None) -> None:
        """Bind ``handler`` to an opcode literal.

        ``needs`` optionally reports how many data words the handler
        will consume (subclasses with configurable tile sizes refresh
        ``self._needs`` when reconfigured); when present, partial
        instructions are detected up front and the checkpoint/rollback
        machinery is skipped.
        """
        if literal in self._handlers:
            raise ValueError(
                f"{self.name}: opcode {literal:#x} registered twice"
            )
        self._handlers[literal] = handler
        if needs is not None:
            self._needs[literal] = needs

    @property
    def supported_literals(self) -> tuple:
        return tuple(sorted(self._handlers))

    def process_stream(self) -> float:
        """Execute every complete instruction waiting in the input FIFO.

        Returns the accelerator cycles consumed by this batch.  Called by
        the DMA engine after each send transaction completes.  An
        instruction whose data words have not fully arrived yet is left
        in the FIFO untouched (the hardware state machine stalls until
        the next burst delivers the rest).
        """
        cycles = 0.0
        fifo = self.in_fifo
        handlers = self._handlers
        needs_map = self._needs
        while len(fifo):
            literal = fifo.peek_word() & 0xFFFFFFFF
            handler = handlers.get(literal)
            if handler is None:
                raise UnknownOpcodeError(
                    f"{self.name}: word {literal:#x} is not an opcode "
                    f"(supported: "
                    f"{[hex(x) for x in self.supported_literals]})"
                )
            needs = needs_map.get(literal)
            if needs is not None:
                if len(fifo) - 1 < needs:
                    # Partial instruction: wait for the rest of the burst.
                    break
                fifo.pop_word()
                try:
                    cycles += handler()
                except StreamUnderflow as exc:
                    # needs promised the words were there: the declared
                    # count and the handler's consumption diverged.
                    # Fail loudly — the opcode word is already gone, so
                    # a graceful wait would corrupt the stream.
                    raise RuntimeError(
                        f"{self.name}: opcode {literal:#x} declared "
                        f"{needs} data words but consumed more"
                    ) from exc
            else:
                snapshot = fifo.checkpoint()
                fifo.pop_word()
                try:
                    cycles += handler()
                except StreamUnderflow:
                    # Partial instruction: wait for the rest of the burst.
                    fifo.restore(snapshot)
                    break
            self.instructions_executed += 1
        self.total_cycles += cycles
        return cycles

    # -- helpers for subclasses ---------------------------------------------
    def read_words(self, count: int, dtype=np.int32) -> np.ndarray:
        return self.in_fifo.pop(count, dtype=dtype)

    def write_words(self, words: np.ndarray) -> None:
        self.out_fifo.push(words)
