"""The simulated board: CPU + caches + memory + DMA + accelerator.

``Board`` owns the global timeline (``clock`` in seconds) and the
:class:`~repro.soc.perf.PerfCounters`.  Host work advances the clock at
the CPU frequency; DMA transfers and accelerator compute advance it via
the blocking runtime calls, with busy-wait polling charged while the CPU
is stalled (that is what the paper's ``task-clock`` measures).
"""

from __future__ import annotations

from typing import Optional

from .cache import CacheHierarchy, hierarchy_from_cpu_info
from .memory import MainMemory
from .perf import PerfCounters
from .timing import TimingModel


class Board:
    """One simulated SoC instance."""

    def __init__(self, timing: Optional[TimingModel] = None,
                 caches: Optional[CacheHierarchy] = None,
                 memory: Optional[MainMemory] = None):
        self.timing = timing or TimingModel()
        self.memory = memory or MainMemory()
        self.caches = caches or CacheHierarchy(self.timing)
        self.counters = PerfCounters()
        self.clock = 0.0
        self.accelerator = None
        self.dma = None
        #: Timestamp at which the accelerator finishes its queued work.
        self.accel_ready_at = 0.0
        #: Timestamp at which the DMA engine finishes its queued sends
        #: (used by non-blocking transfers / double buffering).
        self.dma_busy_until = 0.0

    # -- timeline ---------------------------------------------------------
    # ``counters.elapsed_seconds`` mirrors ``clock`` but is only synced
    # when a measurement is taken (snapshot/measure_since) — the wall
    # clock advances millions of times per run and writing the mirror
    # on every step showed up in profiles.

    def advance_cpu(self, cycles: float) -> None:
        """Advance the wall clock by CPU-busy cycles (counters unchanged)."""
        self.clock += cycles / self.timing.cpu_freq_hz

    def host_work(self, cycles: float, branches: float = 0.0,
                  references: float = 0.0) -> None:
        """Charge plain host instructions (loop bookkeeping, address math)."""
        counters = self.counters
        counters.cpu_cycles += cycles
        counters.branch_instructions += branches
        counters.cache_references += references
        self.clock += cycles / self.timing.cpu_freq_hz

    def stall_until(self, timestamp: float) -> None:
        """Busy-wait until ``timestamp``, charging poll loop costs."""
        if timestamp <= self.clock:
            return
        stall_seconds = timestamp - self.clock
        stall_cycles = stall_seconds * self.timing.cpu_freq_hz
        polls = stall_cycles / self.timing.poll_period_cycles
        self.counters.stall_cycles += stall_cycles
        self.counters.branch_instructions += polls * self.timing.poll_branches
        self.clock = timestamp

    def advance_transfer(self, seconds: float) -> None:
        """Block the CPU for a DMA transfer (send/recv wait)."""
        if seconds <= 0:
            return
        self.stall_until(self.clock + seconds)

    # -- attachments -----------------------------------------------------------
    def attach_accelerator(self, accelerator) -> None:
        self.accelerator = accelerator
        if self.dma is not None:
            self.dma.attach(accelerator)

    def install_dma(self, dma) -> None:
        self.dma = dma
        if self.accelerator is not None:
            dma.attach(self.accelerator)

    # -- accelerator scheduling ---------------------------------------------
    def schedule_accel_cycles(self, cycles: float,
                              data_arrival: Optional[float] = None) -> None:
        """Queue accelerator compute after the just-delivered data.

        ``data_arrival`` defaults to "now"; non-blocking transfers pass
        the future completion time of the in-flight DMA burst.
        """
        start = max(self.accel_ready_at,
                    data_arrival if data_arrival is not None else self.clock)
        self.accel_ready_at = start + cycles / self.timing.accel_freq_hz
        self.counters.accel_cycles += cycles

    def wait_for_accelerator(self) -> None:
        self.stall_until(self.accel_ready_at)

    # -- measurement ----------------------------------------------------------
    def sync_elapsed(self) -> None:
        """Bring ``counters.elapsed_seconds`` up to date with the clock."""
        self.counters.elapsed_seconds = self.clock

    def snapshot(self) -> PerfCounters:
        self.sync_elapsed()
        return self.counters.copy()

    def measure_since(self, snapshot: PerfCounters) -> PerfCounters:
        self.sync_elapsed()
        return self.counters.delta_since(snapshot)


def make_pynq_z2(cpu_info=None, timing: Optional[TimingModel] = None) -> Board:
    """A board shaped like the paper's PYNQ-Z2 evaluation platform."""
    timing = timing or TimingModel()
    if cpu_info is not None:
        timing.cpu_freq_hz = cpu_info.frequency_hz
        caches = hierarchy_from_cpu_info(cpu_info, timing)
        return Board(timing=timing, caches=caches)
    return Board(timing=timing)
