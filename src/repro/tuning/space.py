"""Declarative sweep-space enumeration with deterministic point digests.

A :class:`SweepSpace` describes the grid ROADMAP item 5 asks for —
(shape x accelerator version x size x flow x tile x permutation x
host-tiling) matmul configurations — and enumerates it as an ordered
list of :class:`SweepPoint` candidates.  Everything downstream hangs
off two deterministic identities:

* ``point.digest`` — SHA-256 of the point's canonical JSON spec.  The
  journal checkpoints results under it, the fault registry keys
  per-point crash/poison draws on it, and ties in best-config ranking
  break on it.  It never depends on enumeration order or process
  state, so an interrupted sweep and its resume agree on what every
  point *is*.
* ``space.digest()`` — SHA-256 over the ordered point digests.  The
  journal's meta record pins it; resuming against a journal written
  for a different space fails loudly instead of silently merging
  incompatible results.

Infeasible combinations (sizes that do not divide the problem, flows a
version does not support, v4 tiles that overflow the accelerator
buffers) are filtered during enumeration, so every emitted point is
compilable.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from itertools import permutations as _permutations
from typing import Dict, Iterator, List, Optional, Tuple

from ..accelerators.catalog import VERSION_FLOWS
from ..heuristics.flexible import _fits, candidate_tiles, transfer_cost_model

#: v4 buffer capacity in elements, as configured by the catalog
#: (``buffer_capacity = 16 * size**2`` for flex quantum ``size``).
_V4_CAPACITY_FACTOR = 16


@dataclass(frozen=True)
class SweepPoint:
    """One candidate configuration: a fully determined compile+run."""

    m: int
    n: int
    k: int
    version: int
    size: int
    flow: str
    #: Accelerator tile per dim.  ``(size, size, size)`` for v1-v3;
    #: rectangular multiples of the quantum for the flexible v4.
    tiles: Tuple[int, int, int]
    cpu_tiling: bool = False
    permutation: Optional[Tuple[str, str, str]] = None
    kernel: str = "matmul"

    def spec(self) -> Dict:
        """Canonical JSON-ready description (the digest's preimage)."""
        spec = {
            "kernel": self.kernel,
            "m": self.m, "n": self.n, "k": self.k,
            "version": self.version, "size": self.size,
            "flow": self.flow, "tiles": list(self.tiles),
            "cpu_tiling": self.cpu_tiling,
        }
        if self.permutation is not None:
            spec["permutation"] = list(self.permutation)
        return spec

    @property
    def digest(self) -> str:
        body = json.dumps(self.spec(), sort_keys=True,
                          separators=(",", ":"))
        return hashlib.sha256(body.encode()).hexdigest()[:16]

    @property
    def family(self) -> "SweepPoint":
        """The point without its ``cpu_tiling`` choice (its twins)."""
        return replace(self, cpu_tiling=False)

    @property
    def group(self) -> str:
        """Best-config reports rank within one (kernel, shape) group."""
        return f"{self.kernel}-{self.m}x{self.n}x{self.k}"

    @property
    def accel_size(self) -> Optional[Tuple[int, int, int]]:
        """``accel_size`` argument for the system builder (v4 only)."""
        return self.tiles if self.version == 4 else None

    def modeled_bytes(self) -> int:
        """Closed-form Sec. IV-C transfer volume, in bytes.

        The pruner compares the *exact* per-point traffic estimate
        against the group's cheapest modeled configuration; both sides
        count tile payload, so the comparison is apples-to-apples.
        """
        words, _ = transfer_cost_model(self.m, self.n, self.k,
                                       *self.tiles, self.flow)
        return words * 4


@dataclass(frozen=True)
class SweepSpace:
    """The declarative grid; :meth:`points` enumerates it."""

    shapes: Tuple[Tuple[int, int, int], ...]
    versions: Tuple[int, ...] = (1, 2, 3, 4)
    sizes: Tuple[int, ...] = (4,)
    #: Host loop orders to try on top of each version's derived order.
    #: Only ``Ns``-flow points fan out over permutations: stationary
    #: flows pin their reuse dim's position, so permuting them mostly
    #: re-measures the derived order.
    permutations: Tuple[Tuple[str, str, str], ...] = ()
    #: Host-level cache tiling settings to sweep.  ``True`` points that
    #: tile are not traffic-prunable (the analyzer raises
    #: ``TrafficUnsupported``) and are always simulated.
    cpu_tiling_options: Tuple[bool, ...] = (False,)

    def points(self) -> List[SweepPoint]:
        return list(self._iter_points())

    def _iter_points(self) -> Iterator[SweepPoint]:
        for shape in self.shapes:
            m, n, k = shape
            for version in self.versions:
                for size in self.sizes:
                    if m % size or n % size or k % size:
                        continue
                    yield from self._version_points(m, n, k, version, size)

    def _version_points(self, m: int, n: int, k: int, version: int,
                        size: int) -> Iterator[SweepPoint]:
        if version == 4:
            capacity = _V4_CAPACITY_FACTOR * size * size
            tile_grid = [
                (tm, tn, tk)
                for tm in candidate_tiles(m, size)
                for tn in candidate_tiles(n, size)
                for tk in candidate_tiles(k, size)
                if _fits(tm, tn, tk, capacity)
            ]
        else:
            tile_grid = [(size, size, size)]
        for flow in VERSION_FLOWS[version]:
            for tiles in tile_grid:
                for cpu_tiling in self.cpu_tiling_options:
                    yield SweepPoint(m, n, k, version, size, flow,
                                     tiles, cpu_tiling=cpu_tiling)
                    if flow == "Ns":
                        for order in self.permutations:
                            yield SweepPoint(m, n, k, version, size,
                                             flow, tiles,
                                             cpu_tiling=cpu_tiling,
                                             permutation=order)

    def digest(self) -> str:
        hasher = hashlib.sha256()
        for point in self._iter_points():
            hasher.update(point.digest.encode())
            hasher.update(b"\n")
        return hasher.hexdigest()[:16]

    def describe(self) -> Dict:
        points = self.points()
        return {
            "digest": self.digest(),
            "points": len(points),
            "groups": sorted({p.group for p in points}),
        }


def group_floors(points: List[SweepPoint]) -> Dict[str, int]:
    """Cheapest modeled transfer bytes per (kernel, shape) group.

    The pruning threshold for a point is ``prune_ratio`` times its
    group's floor: a candidate predicted to move several times more
    data than the best closed-form configuration of the same problem
    cannot win and is not worth simulating.
    """
    floors: Dict[str, int] = {}
    for point in points:
        modeled = point.modeled_bytes()
        best = floors.get(point.group)
        if best is None or modeled < best:
            floors[point.group] = modeled
    return floors


def all_permutations() -> Tuple[Tuple[str, str, str], ...]:
    """All six host loop orders of a matmul, in lexicographic order."""
    return tuple(_permutations(("m", "n", "k")))


def smoke_space(shapes: Optional[Tuple[Tuple[int, int, int], ...]] = None,
                versions: Tuple[int, ...] = (1, 2, 3, 4),
                permutations: bool = False) -> SweepSpace:
    """The small space the CLI preset, tests, and CI smoke leg share."""
    return SweepSpace(
        shapes=shapes or ((8, 8, 8), (16, 16, 8)),
        versions=versions,
        sizes=(4,),
        permutations=(("k", "n", "m"),) if permutations else (),
        cpu_tiling_options=(False, True),
    )
