"""CPU cache-hierarchy tiling heuristic (paper Fig. 4 step 4).

AXI4MLIR tiles twice: the inner tiling matches the accelerator size, and
an outer tiling keeps the per-iteration working set resident in the CPU
caches so the staging copies hit instead of streaming from DRAM.  This
module picks the outer (CPU) tile sizes.

The heuristic: grow per-dim CPU tiles (multiples of the accelerator tile
that evenly divide the extent, so no remainder loops are needed) until
the combined operand footprint reaches a fraction of the last-level
cache.  Dims are grown round-robin starting from the innermost loop,
which favours reuse of the tiles that move most often.

When the full extents fit, tiling is a no-op: :func:`cpu_tiling_applies`
says so in closed form, and the compiler keys kernels on its answer.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

#: Use at most this fraction of the last-level cache for the working set.
CACHE_BUDGET_FRACTION = 0.5

#: Element size (bytes) the footprint estimate assumes.
FOOTPRINT_ITEMSIZE = 4


def _divisor_multiples(extent: int, quantum: int) -> List[int]:
    """Multiples of ``quantum`` that evenly divide ``extent``, ascending."""
    options = []
    candidate = quantum
    while candidate <= extent:
        if extent % candidate == 0:
            options.append(candidate)
        candidate += quantum
    return options or [extent]


def footprint_elements(tiles: Dict[str, int],
                       operand_dims: Sequence[Sequence[str]]) -> int:
    """Combined tile footprint (elements) across all operands."""
    total = 0
    for dims in operand_dims:
        product = 1
        for dim in dims:
            product *= tiles.get(dim, 1)
        total += product
    return total


def choose_cpu_tiles(
    extents: Dict[str, int],
    accel_tiles: Dict[str, int],
    operand_dims: Sequence[Sequence[str]],
    itemsize: int,
    cache_bytes: int,
    loop_order: Optional[Sequence[str]] = None,
) -> Dict[str, int]:
    """Pick an outer (CPU) tile size per dim.

    Returns a dim -> tile mapping; a dim whose CPU tile equals its full
    extent needs no outer loop.  ``operand_dims`` lists, per operand, the
    dims indexing it (used for the footprint estimate).
    """
    budget_elements = int(cache_bytes * CACHE_BUDGET_FRACTION) // itemsize
    order = list(loop_order) if loop_order else list(extents)

    options = {
        dim: _divisor_multiples(extents[dim], max(1, accel_tiles.get(dim, 1)))
        for dim in extents
    }
    chosen = {dim: opts[0] for dim, opts in options.items()}
    if footprint_elements(chosen, operand_dims) > budget_elements:
        # Even single accelerator tiles exceed the budget; nothing to do —
        # the accelerator dictates the minimum working set.
        return chosen

    # Grow innermost-first, round-robin, while the footprint fits.
    grow_order = list(reversed(order))
    progressed = True
    while progressed:
        progressed = False
        for dim in grow_order:
            opts = options[dim]
            index = opts.index(chosen[dim])
            if index + 1 >= len(opts):
                continue
            trial = dict(chosen)
            trial[dim] = opts[index + 1]
            if footprint_elements(trial, operand_dims) <= budget_elements:
                chosen = trial
                progressed = True
    return chosen


@lru_cache(maxsize=1024)  # the compiler asks on every kernel-cache hit
def cpu_tiling_applies(extents: Tuple[Tuple[str, int], ...],
                       dims: Tuple[str, ...], accel_size: Tuple[int, ...],
                       operand_dims: Tuple[Tuple[str, ...], ...],
                       cache_bytes: int) -> bool:
    """Whether the lowering's :func:`choose_cpu_tiles` call changes the
    host dims (untiled, or tiled below their extent): the footprint only
    grows, so exactly when their extents overflow the budget and some
    dim has a smaller option."""
    tiles = dict(zip(dims, accel_size))
    host = {d: e for d, e in extents if e > tiles.get(d, 0)}
    budget = int(cache_bytes * CACHE_BUDGET_FRACTION) // FOOTPRINT_ITEMSIZE
    if footprint_elements(host, operand_dims) <= budget:
        return False
    return any(q < e and e % q == 0 for d, e in host.items()
               for q in [max(1, tiles.get(d, 1))])
