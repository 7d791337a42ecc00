"""Set-associative LRU cache simulation.

The simulator works at cache-line granularity: callers pass byte address
ranges (or precomputed line addresses) and receive hit/miss counts.  The
hierarchy wires L1D in front of a shared L2, charges the timing model's
penalties, and updates a :class:`~repro.soc.perf.PerfCounters`.

Two access paths share one cache state:

* the scalar reference — :meth:`Cache.access_line` /
  :meth:`CacheHierarchy.touch_lines` — processes one line at a time and
  defines the semantics;
* the batched engine — :meth:`CacheHierarchy.touch_lines_batch` (and
  the array-in entry point :meth:`Cache.access_batch`) — takes a whole
  line sequence (the copy kernels feed memoized per-tile sequences,
  see ``repro.runtime.copy``) and charges it in one pass: a single
  fused L1→L2 loop over C-speed insertion-ordered dicts, with hit/miss
  totals and the miss penalty computed analytically per batch instead
  of per line.

Each set is one ``dict`` keyed by line address: insertion order is
recency order, so a hit is ``del``+reinsert (move to MRU) and eviction
pops the first key (LRU) — every operation is a C-level dict primitive.
A numpy tag/age table was benchmarked for the batch path and loses
badly here: copy batches are a few dozen lines (one tile), far below
the break-even point of vectorized set lookups, and power-of-two tile
strides make rows conflict in the same sets, which forces multi-round
scatter resolution.  Property tests assert the batched path produces
bit-identical counters to the scalar reference.

For speed the copy kernels deduplicate intra-copy line reuse analytically
and only feed *first-touch* line sequences here (a tile is far smaller
than L1, so intra-copy reuse always hits).  Unit tests cross-check the
two paths on small tiles.

Replay does not use this module to classify its traffic: a metrics-plane
build classifies the whole run's lines in its one C walk over the
events (``metrics_pass`` in :mod:`repro.soc._native`, via
:mod:`repro.execution.metrics`) and hands the end state back in the
one form this module owns (:data:`EndState`, :func:`install_ways`).
:class:`OfflineLruSimulator` — the same
classification over a materialized line stream, in C or in vectorized
numpy — is kept for the frozen layer benchmark that measures both
(the list is at ``repro.execution.diagnostics``).
"""

from __future__ import annotations

import hashlib
import itertools
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from .perf import PerfCounters
from .timing import TimingModel

#: A cache's LRU contents, ``(counts, lines)``: one uint16 occupancy
#: per set, and the resident lines (int64) set by set, MRU first within
#: a set.  The one form of an end-state outside the C state machines;
#: a set with a hole (an occupied way behind an empty one) has no
#: spelling in it.
EndState = Tuple[np.ndarray, np.ndarray]


class Cache:
    """One set-associative LRU cache level."""

    def __init__(self, size_bytes: int, line_size: int = 32,
                 associativity: int = 4, name: str = "cache"):
        if size_bytes % (line_size * associativity):
            raise ValueError(
                f"{name}: size {size_bytes} not divisible by "
                f"line_size*associativity"
            )
        self.size_bytes = size_bytes
        self.line_size = line_size
        self.associativity = associativity
        self.name = name
        self.num_sets = size_bytes // (line_size * associativity)
        #: ``line & set_mask`` == ``line % num_sets`` when the set count
        #: is a power of two (the realistic geometries) — the batched
        #: loop prefers the cheaper AND.
        self.set_mask = self.num_sets - 1 \
            if self.num_sets & (self.num_sets - 1) == 0 else None
        # Per set: resident line addresses in LRU order (dict insertion
        # order; front = least recent).  Stored behind the ``_sets``
        # property: replay installs end-states in packed form (see
        # :func:`install_ways`), and the dict expansion is deferred
        # until someone actually needs the dict form.  The dicts
        # themselves are only built on first use (``None`` = all sets
        # empty): a replayed board installs packed end-states and never
        # reads them, and a hierarchy has thousands of sets.
        self._mirror: Optional[EndState] = None
        self._sets_store: Optional[List[Dict[int, None]]] = None
        self.hits = 0
        self.misses = 0

    @property
    def _sets(self) -> List[Dict[int, None]]:
        """The per-set LRU dicts, materializing any pending end-state.

        Accessing this invalidates the mirror — callers are free to
        mutate the dicts — so replay-to-replay sequences (apply a plan,
        export for the next build) never pay the expansion.
        """
        if self._sets_store is None:
            self._sets_store = [{} for _ in range(self.num_sets)]
        mirror = self._mirror
        if mirror is not None:
            self._mirror = None
            _expand_ways(self, mirror)
        return self._sets_store

    @_sets.setter
    def _sets(self, value: List[Dict[int, None]]) -> None:
        self._mirror = None
        self._sets_store = value

    def reset(self) -> None:
        self._sets = [{} for _ in range(self.num_sets)]
        self.hits = 0
        self.misses = 0

    def access_line(self, line: int) -> bool:
        """Touch one line address; returns True on hit.

        This is the scalar reference path; :meth:`access_batch` must
        produce identical counts for any access sequence.
        """
        ways = self._sets[line % self.num_sets]
        if line in ways:
            del ways[line]
            ways[line] = None
            self.hits += 1
            return True
        ways[line] = None
        if len(ways) > self.associativity:
            del ways[next(iter(ways))]
        self.misses += 1
        return False

    def access_batch(self, lines: np.ndarray) -> np.ndarray:
        """Touch a line-address array; returns the per-line hit mask.

        Exactly equivalent to calling :meth:`access_line` per entry in
        order, but runs as one tight pass with the counters updated
        once per batch.
        """
        seq = lines.tolist() if isinstance(lines, np.ndarray) else lines
        sets = self._sets
        num_sets = self.num_sets
        associativity = self.associativity
        mask = []
        append = mask.append
        hits = 0
        for line in seq:
            ways = sets[line % num_sets]
            if line in ways:
                del ways[line]
                ways[line] = None
                hits += 1
                append(True)
            else:
                ways[line] = None
                if len(ways) > associativity:
                    del ways[next(iter(ways))]
                append(False)
        self.hits += hits
        self.misses += len(mask) - hits
        return np.asarray(mask, dtype=bool)

    def access_lines(self, lines: Iterable[int]) -> Tuple[int, int]:
        """Touch many lines; returns (hits, misses) for this batch."""
        mask = self.access_batch(
            lines if isinstance(lines, (list, np.ndarray)) else list(lines)
        )
        hits = int(mask.sum())
        return hits, mask.size - hits

    def contains_line(self, line: int) -> bool:
        return line in self._sets[line % self.num_sets]

    def occupancy(self) -> int:
        """Number of resident lines (for tests)."""
        return sum(len(ways) for ways in self._sets)


def lines_of_range(start_byte: int, num_bytes: int, line_size: int) -> range:
    """Line addresses covering ``[start, start+num_bytes)``."""
    if num_bytes <= 0:
        return range(0)
    first = start_byte // line_size
    last = (start_byte + num_bytes - 1) // line_size
    return range(first, last + 1)


class CacheHierarchy:
    """L1D backed by a shared L2, charging miss penalties to counters."""

    def __init__(self, timing: TimingModel,
                 l1: Optional[Cache] = None, l2: Optional[Cache] = None,
                 line_size: int = 32):
        self.timing = timing
        self.line_size = line_size
        self.l1 = l1 or Cache(32 * 1024, line_size, 4, "L1D")
        self.l2 = l2 or Cache(512 * 1024, line_size, 8, "L2")
        if self.l1.line_size != self.l2.line_size:
            raise ValueError("L1/L2 line sizes must agree")

    def reset(self) -> None:
        self.l1.reset()
        self.l2.reset()

    def touch_lines(self, lines: Iterable[int],
                    counters: PerfCounters) -> float:
        """Access lines through the hierarchy (scalar reference path).

        Updates miss counters and returns the *extra* CPU cycles incurred
        by misses (the base access cost is charged by the caller as part
        of its instruction cost).  Does not bump ``cache_references`` —
        the caller decides how many architectural references the access
        pattern performs (element-wise vs vectorized).
        """
        penalty = 0.0
        timing = self.timing
        for line in lines:
            if self.l1.access_line(line):
                penalty += timing.l1_hit_extra_cycles
                continue
            counters.cache_misses += 1
            counters.l2_references += 1
            if self.l2.access_line(line):
                penalty += timing.l1_miss_penalty_cycles
            else:
                counters.l2_misses += 1
                penalty += (timing.l1_miss_penalty_cycles
                            + timing.l2_miss_penalty_cycles)
        return penalty

    def touch_lines_batch(self, lines: np.ndarray,
                          counters: PerfCounters) -> float:
        """Batched :meth:`touch_lines`: one fused L1→L2 pass.

        Processes the batch with both levels inlined into a single loop
        over C-speed dict operations, then updates counters and computes
        the penalty analytically from the per-batch totals — the per-
        line decision sequence is identical to the scalar reference, so
        the counts (and the penalty, a sum of per-line constants) are
        bit-identical.
        """
        seq = lines.tolist() if isinstance(lines, np.ndarray) else lines
        if not seq:
            return 0.0
        l1, l2 = self.l1, self.l2
        sets1, num_sets1, assoc1 = l1._sets, l1.num_sets, l1.associativity
        sets2, num_sets2, assoc2 = l2._sets, l2.num_sets, l2.associativity
        l1_hits = 0
        l2_hits = 0
        l2_misses = 0
        missing = False
        mask1 = l1.set_mask
        mask2 = l2.set_mask
        if mask1 is not None and mask2 is not None:
            # pop-and-reinsert moves the line to MRU with two dict
            # operations; the default (False, never a stored value)
            # distinguishes a miss without a second lookup.
            for line in seq:
                ways = sets1[line & mask1]
                if ways.pop(line, missing) is None:
                    ways[line] = None
                    l1_hits += 1
                    continue
                ways[line] = None
                if len(ways) > assoc1:
                    del ways[next(iter(ways))]
                ways2 = sets2[line & mask2]
                if ways2.pop(line, missing) is None:
                    ways2[line] = None
                    l2_hits += 1
                else:
                    ways2[line] = None
                    if len(ways2) > assoc2:
                        del ways2[next(iter(ways2))]
                    l2_misses += 1
        else:
            for line in seq:
                ways = sets1[line % num_sets1]
                if ways.pop(line, missing) is None:
                    ways[line] = None
                    l1_hits += 1
                    continue
                ways[line] = None
                if len(ways) > assoc1:
                    del ways[next(iter(ways))]
                ways2 = sets2[line % num_sets2]
                if ways2.pop(line, missing) is None:
                    ways2[line] = None
                    l2_hits += 1
                else:
                    ways2[line] = None
                    if len(ways2) > assoc2:
                        del ways2[next(iter(ways2))]
                    l2_misses += 1
        total = len(seq)
        l1_misses = total - l1_hits
        l1.hits += l1_hits
        l1.misses += l1_misses
        l2.hits += l2_hits
        l2.misses += l2_misses
        counters.cache_misses += l1_misses
        counters.l2_references += l1_misses
        counters.l2_misses += l2_misses
        timing = self.timing
        return (l1_hits * timing.l1_hit_extra_cycles
                + l1_misses * timing.l1_miss_penalty_cycles
                + l2_misses * timing.l2_miss_penalty_cycles)

    def touch_range(self, start_byte: int, num_bytes: int,
                    counters: PerfCounters) -> float:
        return self.touch_lines(
            lines_of_range(start_byte, num_bytes, self.line_size), counters
        )

    def touch_word(self, start_byte: int, counters: PerfCounters) -> float:
        """Touch one aligned 32-bit word (at most one line straddle)."""
        line_size = self.line_size
        first = start_byte // line_size
        last = (start_byte + 3) // line_size
        if first != last:
            return self.touch_lines_batch((first, last), counters)
        # Aligned words never straddle: inline the single access.
        l1 = self.l1
        timing = self.timing
        ways = l1._sets[first % l1.num_sets]
        if ways.pop(first, False) is None:
            ways[first] = None
            l1.hits += 1
            return timing.l1_hit_extra_cycles
        ways[first] = None
        if len(ways) > l1.associativity:
            del ways[next(iter(ways))]
        l1.misses += 1
        counters.cache_misses += 1
        counters.l2_references += 1
        l2 = self.l2
        ways2 = l2._sets[first % l2.num_sets]
        if ways2.pop(first, False) is None:
            ways2[first] = None
            l2.hits += 1
            return timing.l1_miss_penalty_cycles
        ways2[first] = None
        if len(ways2) > l2.associativity:
            del ways2[next(iter(ways2))]
        l2.misses += 1
        counters.l2_misses += 1
        return timing.l1_miss_penalty_cycles + timing.l2_miss_penalty_cycles


def _classify_lru_offline(lines: np.ndarray, num_sets: int,
                          associativity: int,
                          set_mask: Optional[int]) -> np.ndarray:
    """Exact LRU hit/miss classification for a known access sequence.

    Equivalent to feeding ``lines`` through :meth:`Cache.access_line`
    one at a time (same per-access decisions, in order), but computed
    offline from the whole sequence at once: an access hits iff fewer
    than ``associativity`` *distinct* lines of its set were touched
    since the previous access to the same line — the classic stack-
    distance characterization of set-associative LRU.  The heavy work
    (previous-occurrence chains, per-set ranks, bounded window scans)
    is vectorized; only rare long-window stragglers fall back to a
    per-query count.

    The caller is responsible for modelling any warm (non-empty) cache
    state by prepending one synthetic access per resident line, in
    LRU-to-MRU order, and discarding the prefix of the returned mask.
    """
    n = int(lines.size)
    if n == 0:
        return np.zeros(0, dtype=bool)
    lines = np.ascontiguousarray(lines, dtype=np.int64)
    sets = (lines & set_mask) if set_mask is not None else (lines % num_sets)

    # Per-set local ranks: a stable sort by set groups each set's
    # sub-stream in time order.
    order = np.argsort(sets, kind="stable")
    sorted_sets = sets[order]
    new_group = np.empty(n, dtype=bool)
    new_group[0] = True
    np.not_equal(sorted_sets[1:], sorted_sets[:-1], out=new_group[1:])
    group_start_pos = np.flatnonzero(new_group)
    positions = np.arange(n, dtype=np.int64)
    base_sorted = np.repeat(group_start_pos,
                            np.diff(np.r_[group_start_pos, n]))
    local_sorted = positions - base_sorted
    rank = np.empty(n, dtype=np.int64)
    rank[order] = local_sorted
    base = np.empty(n, dtype=np.int64)
    base[order] = base_sorted

    # Previous occurrence of the same line (global indices; same line
    # implies same set).
    by_line = np.argsort(lines, kind="stable")
    same = lines[by_line][1:] == lines[by_line][:-1]
    prev = np.full(n, -1, dtype=np.int64)
    prev[by_line[1:][same]] = by_line[:-1][same]

    hit = np.zeros(n, dtype=bool)
    seen = prev >= 0
    prev_rank = np.full(n, -1, dtype=np.int64)
    prev_rank[seen] = rank[prev[seen]]
    gap = rank - prev_rank - 1  # intervening same-set accesses
    # Fewer than `associativity` accesses in between bounds the distinct
    # count: a guaranteed hit.  Cold lines are guaranteed misses.
    hit[seen & (gap < associativity)] = True

    # Remaining queries need the exact distinct count over their window.
    # ``pr_sorted[s] <= a`` marks a first-occurrence-in-window access
    # (its own previous occurrence predates the window).
    pending = np.flatnonzero(seen & (gap >= associativity))
    if pending.size:
        pr_sorted = prev_rank[order]
        q_base = base[pending]
        q_a = prev_rank[pending]
        q_b = rank[pending]
        count = np.zeros(pending.size, dtype=np.int64)
        alive = np.arange(pending.size)
        step = 1
        # The set of unresolved queries shrinks rapidly (misses resolve
        # at the associativity'th distinct line, hits at their window
        # end); a work budget guards the pathological long-window case,
        # and the short tail finishes with per-query window counts.
        work_budget = 64 * n + (1 << 20)
        while alive.size > 1024 and work_budget > 0:
            work_budget -= alive.size
            scan = q_a[alive] + step
            reached = scan == q_b[alive]
            if reached.any():
                hit[pending[alive[reached]]] = True
                alive = alive[~reached]
                scan = q_a[alive] + step
            if alive.size:
                cand = pr_sorted[q_base[alive] + scan] <= q_a[alive]
                count[alive] += cand
                full_now = count[alive] >= associativity
                alive = alive[~full_now]  # classified miss (hit stays 0)
            step += 1
        # Tail: count each remaining window directly (vectorized within
        # the window; the partial scan count is not reused).
        for qi in alive:
            q = pending[qi]
            lo = q_base[qi] + q_a[qi] + 1
            hi = q_base[qi] + q_b[qi]
            window = pr_sorted[lo:hi]
            if np.count_nonzero(window <= q_a[qi]) < associativity:
                hit[q] = True
    return hit


def _final_lru_state(lines: np.ndarray, num_sets: int, associativity: int,
                     set_mask: Optional[int]) -> Dict[int, List[int]]:
    """Resident lines per touched set after an access sequence.

    For LRU, the final contents of a set are its last ``associativity``
    distinct lines, ordered by last access (LRU first) — extracted here
    without simulating the sequence.
    """
    if lines.size == 0:
        return {}
    lines = np.ascontiguousarray(lines, dtype=np.int64)
    by_line = np.argsort(lines, kind="stable")
    vals = lines[by_line]
    is_last = np.empty(vals.size, dtype=bool)
    is_last[-1] = True
    np.not_equal(vals[1:], vals[:-1], out=is_last[:-1])
    distinct = vals[is_last]
    last_occ = by_line[is_last]
    line_sets = (distinct & set_mask) if set_mask is not None \
        else (distinct % num_sets)
    by_set = np.lexsort((last_occ, line_sets))
    line_sets = line_sets[by_set]
    distinct = distinct[by_set]
    boundaries = np.flatnonzero(
        np.r_[True, line_sets[1:] != line_sets[:-1]]
    ).tolist() + [line_sets.size]
    state: Dict[int, List[int]] = {}
    distinct_list = distinct.tolist()
    set_list = line_sets.tolist()
    for start, end in zip(boundaries[:-1], boundaries[1:]):
        keep = max(start, end - associativity)
        state[set_list[start]] = distinct_list[keep:end]
    return state


class OfflineLruSimulator:
    """Replays a known line-access sequence through a hierarchy offline.

    Produces the exact per-access L1 hit mask and (for L1 misses) L2
    hit mask that :meth:`CacheHierarchy.touch_lines_batch` would; the
    live :class:`Cache` objects are read, never written.  Warm caches
    are honoured, so a replay can start from any hierarchy state.

    Two backends share the exact per-access semantics: a compiled C
    state machine (:mod:`repro.soc._native`) and, without the C library,
    a vectorized stack-distance classifier with synthetic warm-state
    prefixes.  Chunked use is supported: each :meth:`process` call
    carries the evolving state forward, so arbitrarily long sequences
    classify in bounded memory.  One simulator serves one stream: it is
    seeded from the hierarchy it is constructed on and its counts are
    that stream's totals.
    """

    def __init__(self, hierarchy: "CacheHierarchy"):
        from ._native import native_lib

        self.hierarchy = hierarchy
        self._lib = native_lib()
        self._counts = {hierarchy.l1.name: [0, 0], hierarchy.l2.name: [0, 0]}
        if self._lib is not None:
            self._ways = {
                cache.name: _export_ways(cache)
                for cache in (hierarchy.l1, hierarchy.l2)
            }
            return
        self._state = {}
        for cache in (hierarchy.l1, hierarchy.l2):
            self._state[cache.name] = {
                index: list(ways)
                for index, ways in enumerate(cache._sets) if ways
            }

    def _classify_level(self, cache: Cache, lines: np.ndarray) -> np.ndarray:
        state = self._state[cache.name]
        if state:
            warm = np.asarray(
                [line for ways in state.values() for line in ways],
                dtype=np.int64,
            )
            full = np.concatenate([warm, lines])
        else:
            warm = np.zeros(0, dtype=np.int64)
            full = lines
        hit = _classify_lru_offline(full, cache.num_sets,
                                    cache.associativity, cache.set_mask)
        hit = hit[warm.size:]
        new_state = _final_lru_state(full, cache.num_sets,
                                     cache.associativity, cache.set_mask)
        state.update(new_state)
        counts = self._counts[cache.name]
        hits = int(np.count_nonzero(hit))
        counts[0] += hits
        counts[1] += int(hit.size) - hits
        return hit

    def process(self, lines: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Classify one chunk; returns (l1_hit_mask, l2_hit_of_l1_miss).

        The second mask is aligned to the subsequence of L1 misses, as
        in the live hierarchy where only L1 misses reach L2.
        """
        lines = np.ascontiguousarray(lines, dtype=np.int64)
        if self._lib is not None:
            return self._process_native(lines)
        l1_hit = self._classify_level(self.hierarchy.l1, lines)
        l2_hit = self._classify_level(self.hierarchy.l2, lines[~l1_hit])
        return l1_hit, l2_hit

    def _process_native(self, lines) -> Tuple[np.ndarray, np.ndarray]:
        import ctypes

        l1, l2 = self.hierarchy.l1, self.hierarchy.l2
        codes = np.empty(lines.size, dtype=np.uint8)
        if lines.size:
            i64p = ctypes.POINTER(ctypes.c_int64)
            self._lib.lru_hierarchy_batch(
                lines.ctypes.data_as(i64p), lines.size,
                self._ways[l1.name].ctypes.data_as(i64p),
                l1.num_sets, l1.associativity,
                -1 if l1.set_mask is None else l1.set_mask,
                self._ways[l2.name].ctypes.data_as(i64p),
                l2.num_sets, l2.associativity,
                -1 if l2.set_mask is None else l2.set_mask,
                codes.ctypes.data_as(ctypes.POINTER(ctypes.c_uint8)),
            )
        tallies = np.bincount(codes, minlength=3)
        self._counts[l1.name][0] += int(tallies[0])
        self._counts[l1.name][1] += int(tallies[1] + tallies[2])
        self._counts[l2.name][0] += int(tallies[1])
        self._counts[l2.name][1] += int(tallies[2])
        l1_hit = codes == 0
        l2_hit = codes[~l1_hit] == 1
        return l1_hit, l2_hit


def end_state(cache: Cache) -> EndState:
    """The cache's LRU contents as an :data:`EndState`.

    An installed mirror is returned as is: callers only read it.
    """
    if cache._mirror is not None:
        return cache._mirror
    sets = cache._sets_store
    if sets is None:
        return (np.zeros(cache.num_sets, dtype=np.uint16),
                np.zeros(0, dtype=np.int64))
    counts = np.fromiter(map(len, sets), np.uint16, cache.num_sets)
    lines = np.fromiter(itertools.chain.from_iterable(map(reversed, sets)),
                        np.int64, int(counts.sum()))
    return counts, lines


def end_state_bytes(cache: Cache) -> bytes:
    """The cache's :data:`EndState` as bytes, equal iff the LRU contents
    are: whatever form the cache holds them in, per-set dicts or an
    installed mirror."""
    counts, lines = end_state(cache)
    return counts.tobytes() + lines.tobytes()


def check_end_state(state) -> None:
    """Raise ``ValueError`` unless ``state`` is an :data:`EndState` some
    cache could hold: a 1-D uint16 ``counts``, a 1-D int64 ``lines`` of
    ``counts.sum()`` non-negative lines.  What needs the geometry is
    :func:`end_state_fits`."""
    if type(state) is not tuple or len(state) != 2:
        raise ValueError("end state is not a (counts, lines) pair")
    counts, lines = state
    if not isinstance(counts, np.ndarray) or counts.ndim != 1 \
            or counts.dtype != np.uint16 \
            or not isinstance(lines, np.ndarray) or lines.ndim != 1 \
            or lines.dtype != np.int64:
        raise ValueError("end state mis-shaped")
    if lines.size != counts.sum() or lines.size and lines.min() < 0:
        raise ValueError("end state lines differ from its occupancy")


def end_state_fits(state: EndState, cache: Cache) -> bool:
    """True when a checked ``state`` has one count per set of ``cache``
    and none above its associativity — what the C state machines need
    to index its ways by set and way."""
    counts = state[0]
    return counts.size == cache.num_sets \
        and counts.max() <= cache.associativity


def pack_ways(ways: np.ndarray, cache: Cache) -> EndState:
    """The :data:`EndState` of a C state machine's way buffer (MRU-first
    slots, -1 empty, occupied slots a prefix of each set's row)."""
    grid = ways.reshape(cache.num_sets, cache.associativity)
    occupied = grid >= 0
    return occupied.sum(axis=1, dtype=np.uint16), grid[occupied]


def _export_ways(cache: Cache) -> np.ndarray:
    """Way slots (MRU first, -1 empty) for the native state machines.

    The one dense form of an end-state: a fresh, caller-owned in/out
    buffer, ``num_sets * associativity`` slots long.
    """
    counts, lines = end_state(cache)
    assoc = cache.associativity
    ways = np.full(cache.num_sets * assoc, -1, dtype=np.int64)
    ways.reshape(-1, assoc)[np.arange(assoc) < counts[:, None]] = lines
    return ways


def warm_state_digest(hierarchy: "CacheHierarchy") -> str:
    """Hex digest of the exact LRU contents of both cache levels.

    Order-sensitive (MRU-first lines per set), so two boards agree iff
    their warm states are bit-identical — the pin the model-granularity
    replay tests use to prove the inter-kernel warm-state carry matches
    the sequential per-kernel path exactly.
    """
    digest = hashlib.sha256()
    for cache in (hierarchy.l1, hierarchy.l2):
        digest.update(np.int64(cache.hits).tobytes())
        digest.update(np.int64(cache.misses).tobytes())
        digest.update(end_state_bytes(cache))
    return digest.hexdigest()


def install_ways(cache: Cache, state: EndState) -> None:
    """Adopt ``state`` as the cache's LRU contents.

    O(1): the arrays themselves become the cache's mirror, no copy, and
    are only expanded into the per-set dicts when ``Cache._sets`` is
    next read — which a replay-to-replay step sequence never does, so a
    model's kernels hand cache end-states from one step's plan to the
    next build as arrays.  Neither side mutates them afterwards.  The
    caller has checked ``state`` (:func:`check_end_state`) and that it
    fits (:func:`end_state_fits`).
    """
    cache._mirror = state


def _expand_ways(cache: Cache, state: EndState) -> None:
    """Eagerly expand an end-state into the per-set dicts."""
    counts, lines = state
    flat = lines.tolist()
    sets = cache._sets_store
    end = 0
    for index, count in enumerate(counts.tolist()):
        start, end = end, end + count
        sets[index] = dict.fromkeys(reversed(flat[start:end]))


def hierarchy_from_cpu_info(cpu_info, timing: TimingModel) -> CacheHierarchy:
    """Build a hierarchy from a parsed CPU config section (Fig. 5 L1-L2)."""
    levels = list(cpu_info.cache_levels)
    associativity = list(cpu_info.associativity)
    while len(associativity) < len(levels):
        associativity.append(8)
    line = cpu_info.line_size
    l1 = Cache(levels[0], line, associativity[0], "L1D")
    l2 = Cache(levels[-1] if len(levels) > 1 else levels[0] * 16,
               line, associativity[-1], "L2")
    return CacheHierarchy(timing, l1, l2, line)
