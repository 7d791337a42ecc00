"""Performance counters mirroring the paper's ``perf`` metrics (Sec. IV-B).

The paper profiles three CPU events with the Linux ``perf`` tool:
``task-clock``, ``cache-references``, and ``branch-instructions``.  The
simulation populates the same counters (plus a few internal ones useful
for debugging and ablations).  Counters are plain floats/ints; arithmetic
helpers support the normalized plots (Figs. 12 and 16).
"""

from __future__ import annotations

from dataclasses import dataclass, fields


@dataclass
class PerfCounters:
    """Counter bundle for one measured execution."""

    #: CPU busy cycles (instructions, address arithmetic, copies).
    cpu_cycles: float = 0.0
    #: Cycles the CPU spent blocked on DMA/accelerator completion.
    stall_cycles: float = 0.0
    #: Branch instructions retired (loop back-edges, call/ret, polling).
    branch_instructions: float = 0.0
    #: L1D cache accesses (the ``perf`` ``cache-references`` proxy).
    cache_references: float = 0.0
    #: L1D misses (simulated).
    cache_misses: float = 0.0
    #: L2 accesses / misses (simulated).
    l2_references: float = 0.0
    l2_misses: float = 0.0
    #: DMA traffic in bytes and discrete transactions.
    dma_bytes_to_accel: int = 0
    dma_bytes_from_accel: int = 0
    dma_transactions: int = 0
    #: Accelerator busy cycles (at accelerator frequency).
    accel_cycles: float = 0.0
    #: Wall-clock seconds of the simulated timeline.
    elapsed_seconds: float = 0.0

    def task_clock_ms(self) -> float:
        """The ``perf task-clock`` analogue: time the task occupied a CPU.

        The host driver blocks (busy-waits) on transfers, so stall time
        counts toward task-clock, exactly as on the real board.
        """
        return self.elapsed_seconds * 1e3

    # -- arithmetic -------------------------------------------------------
    # The field-name tuple is hoisted to module level (_COUNTER_FIELDS,
    # below) so snapshot/delta pairs taken around every measurement skip
    # the dataclasses.fields() introspection.
    def add(self, other: "PerfCounters") -> "PerfCounters":
        for name in _COUNTER_FIELDS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        return self

    def copy(self) -> "PerfCounters":
        clone = PerfCounters()
        for name in _COUNTER_FIELDS:
            setattr(clone, name, getattr(self, name))
        return clone

    def delta_since(self, snapshot: "PerfCounters") -> "PerfCounters":
        result = PerfCounters()
        for name in _COUNTER_FIELDS:
            setattr(result, name,
                    getattr(self, name) - getattr(snapshot, name))
        return result

    def normalized_to(self, baseline: "PerfCounters") -> dict:
        """Fractions of a baseline run, as plotted in Figs. 12 and 16."""

        def ratio(value: float, reference: float) -> float:
            return value / reference if reference else 0.0

        return {
            "branch-instructions": ratio(self.branch_instructions,
                                         baseline.branch_instructions),
            "cache-references": ratio(self.cache_references,
                                      baseline.cache_references),
            "task-clock": ratio(self.task_clock_ms(),
                                baseline.task_clock_ms()),
        }

    def as_dict(self) -> dict:
        result = {name: getattr(self, name) for name in _COUNTER_FIELDS}
        result["task_clock_ms"] = self.task_clock_ms()
        return result

    def __str__(self) -> str:
        return (
            f"task-clock {self.task_clock_ms():.3f} ms, "
            f"cache-references {self.cache_references:.0f}, "
            f"branch-instructions {self.branch_instructions:.0f}"
        )


_COUNTER_FIELDS = tuple(f.name for f in fields(PerfCounters))

