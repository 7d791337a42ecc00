"""Flat main-memory model with a bump allocator.

The simulation does not store bytes here — numpy arrays hold the data —
but every host buffer needs a distinct *address range* so the cache
simulator sees realistic line addresses and conflict behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List


@dataclass(frozen=True)
class MemoryRegion:
    name: str
    base: int
    size: int

    @property
    def end(self) -> int:
        return self.base + self.size

    def contains(self, address: int) -> bool:
        return self.base <= address < self.end


class MainMemory:
    """Bump allocator over a simulated physical address space."""

    #: Default base keeps address 0 unused (catches uninitialized addrs).
    DEFAULT_BASE = 0x1000_0000

    def __init__(self, base: int = DEFAULT_BASE, alignment: int = 64):
        self._next = base
        self.alignment = alignment
        self.regions: List[MemoryRegion] = []
        self._by_name: Dict[str, MemoryRegion] = {}

    def allocate(self, size: int, name: str = "buffer",
                 alignment: int = 0) -> MemoryRegion:
        """Reserve an address range; returns the region descriptor."""
        if size <= 0:
            raise ValueError(f"allocation size must be positive, got {size}")
        align = alignment or self.alignment
        base = (self._next + align - 1) // align * align
        # Pad between regions by one line to avoid false sharing in the sim.
        self._next = base + size + align
        region = MemoryRegion(name=name, base=base, size=size)
        self.regions.append(region)
        unique = name
        suffix = 1
        while unique in self._by_name:
            suffix += 1
            unique = f"{name}#{suffix}"
        self._by_name[unique] = region
        return region

    def region_named(self, name: str) -> MemoryRegion:
        return self._by_name[name]

    def find_region(self, address: int) -> MemoryRegion:
        for region in self.regions:
            if region.contains(address):
                return region
        raise KeyError(f"address {address:#x} is not in any region")
