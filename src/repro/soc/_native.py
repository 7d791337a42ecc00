"""The C kernels that trace replay runs on.

The loops of the trace/replay machinery that are inherently sequential
and would dominate its runtime if executed in Python:

* the set-associative LRU state machine over a cache-line stream
  (integer decisions only): ``lru_hierarchy_batch`` over a flat line
  array, for :class:`~repro.soc.cache.OfflineLruSimulator`;
* a MetricsPlan build's one walk over the events, ``metrics_pass``: it
  classifies each copy or word event's lines (generated on the fly from
  the alignment-group tables, no materialized line stream) with that
  same state machine, turns the hit/miss counts into the event's cycles
  from per-group and per-kind cost tables, and advances the exact chain
  of clock/stall/accelerator floating-point operations (summation order
  fixes the bits) — so a build makes one native call for all three;
* the backward last-writer scan of a DMA staging region,
  ``last_writers``, which emits each region word's winning write;
* the accelerator stream decoders (matmul and conv control units):
  per-item state machines that turn the staged word/tile stream into
  instruction records.

All are tiny, dependency-free state machines, so when a system C
compiler is available they are compiled into a shared library and
driven through :mod:`ctypes`.  The C code performs exactly the same
operations as the per-tile runtime (IEEE double arithmetic with
contraction disabled), so a replay is bit-identical to a per-tile run —
the tier matrix pins both to the interpreter.

The library is built once per user and machine, not once per process
(:func:`native_lib`): it is kept as ``kernels-<key>.so`` in the private
directory ``<tempfile.gettempdir()>/repro-native-<euid>/``, where the
key is a SHA-256 of the C source, the flags and the compiler's resolved
path, size and mtime.  That directory is trusted only while it is a
real directory owned by this user with no group or other permission
bits; otherwise the library is built in a throw-away directory as
before and nothing is kept.

No compiler, a failed compile, the ``native.compile`` fault or a
:func:`suspend_native` scope leaves replay unavailable
(:func:`repro.execution.trace.trace_enabled` is False): every kernel,
the manual baselines included, runs per tile, with the same bits.  The one other
reader, :class:`~repro.soc.cache.OfflineLruSimulator`, keeps a
vectorized numpy backend for that case.
"""

from __future__ import annotations

import atexit
import ctypes
import hashlib
import os
import shutil
import stat
import subprocess
import sys
import tempfile
import threading as _threading
import warnings
from contextlib import contextmanager as _contextmanager
from typing import Optional, Tuple

from .. import faults
from ..store import durable_publish

_SOURCE = r"""
#include <stdint.h>

/* One level of a set-associative LRU cache: way arrays hold MRU at
 * slot 0, LRU last; -1 marks an empty slot.  mask >= 0 selects the set
 * by bit mask, otherwise by modulo. */
typedef struct { int64_t *ways; int64_t sets, assoc, mask; } level_t;

/* One access; returns 1 on a hit.  Semantics match Cache.access_line
 * exactly (a hit moves to MRU; a miss inserts at MRU and evicts LRU).
 * A hit on the MRU slot changes nothing, so it writes nothing. */
static inline int lru_touch(level_t level, int64_t line)
{
    int64_t set = (level.mask >= 0) ? (line & level.mask)
                                    : (line % level.sets);
    int64_t *w = level.ways + set * level.assoc;
    if (w[0] == line) return 1;
    int64_t j = 1;
    while (j < level.assoc && w[j] != line) j++;
    int hit = j < level.assoc;
    if (!hit) j = level.assoc - 1;
    for (; j > 0; j--) w[j] = w[j - 1];
    w[0] = line;
    return hit;
}

/* Fused L1->L2 LRU pass over a line-address stream.
 * codes[i]: 0 = L1 hit, 1 = L1 miss/L2 hit, 2 = L1 miss/L2 miss
 * (CacheHierarchy.touch_lines_batch). */
void lru_hierarchy_batch(const int64_t *lines, int64_t n,
                         int64_t *s1, int64_t ns1, int64_t a1, int64_t m1,
                         int64_t *s2, int64_t ns2, int64_t a2, int64_t m2,
                         uint8_t *codes)
{
    level_t l1 = {s1, ns1, a1, m1}, l2 = {s2, ns2, a2, m2};
    for (int64_t i = 0; i < n; i++)
        codes[i] = lru_touch(l1, lines[i]) ? 0
                   : (lru_touch(l2, lines[i]) ? 1 : 2);
}

#define K_COPY 4
#define K_FLUSH 5
#define K_RECV 6
#define K_RWAIT 8

/* Busy-wait until `until` (seconds): the poll loop's stall cycles and
 * branches, as Board.stall_until charges them. */
static inline void stall_to(double until, double f, double pollp,
                            double pollb, double *clock, double *stall,
                            double *branch)
{
    if (until > *clock) {
        double sc = (until - *clock) * f;
        *stall += sc;
        *branch += (sc / pollp) * pollb;
        *clock = until;
    }
}

/* A whole MetricsPlan build's sequential part in one walk over the
 * events, with the exact operation sequence of the per-tile runtime.
 *
 * Cache: ev_group[e] is the event's alignment group (-1 = one staged
 * word; -2 = no cache traffic), src = ev_lines[e] its (first) source
 * line and dst = ev_lines[n_events + e] its first destination line.
 * Column j of group g is src+rel[grp_off[g]+j] or dst+rel[grp_off[g]+j]
 * (from_dst), so the touch order (and every LRU decision) is the
 * per-tile copy kernels'.
 * A touch of the line accessed immediately before is an L1 hit without
 * a lookup: that access left the line at MRU of its set.
 *
 * Charges: a K_COPY event of group g costs grp_cost[5g..5g+4] =
 * (cycles, references, branches, accumulate cycles, accumulate
 * references) (copy_charge_terms); any other event kind_cost[3k..3k+2]
 * = (cycles, branches, references).  Its cycles are
 * base + ((l1 hits * t1 + l1 misses * t2) + l2 misses * t3).
 *
 * Timeline: model = (t1, t2, t3, cpu Hz, accel Hz, DMA start cycles,
 * DMA start branches, poll period, poll branches); the i-th K_FLUSH
 * takes flush_t[i] seconds on the bus and flush_ac[i] accelerator
 * cycles, the i-th K_RECV recv_t[i] seconds.  state is the 9-double
 * start state, replaced by the end state; totals receives the
 * (l1 hits, l1 misses, l2 misses) counts.  Returns nonzero, with the
 * outputs unspecified, when a kind is unknown or the K_FLUSH / K_RECV
 * events are not exactly n_flush / n_recv. */
int64_t metrics_pass(const int8_t *kinds, int64_t n_events,
                     const int64_t *ev_group, const int64_t *ev_lines,
                     const int64_t *grp_off, const int64_t *grp_width,
                     const double *grp_cost, const uint8_t *from_dst,
                     const int64_t *rel, const double *kind_cost,
                     const double *flush_t, const double *flush_ac,
                     int64_t n_flush, const double *recv_t, int64_t n_recv,
                     int64_t *s1, int64_t ns1, int64_t a1, int64_t m1,
                     int64_t *s2, int64_t ns2, int64_t a2, int64_t m2,
                     const double *model, int32_t db,
                     double *state, int64_t *totals)
{
    level_t l1 = {s1, ns1, a1, m1}, l2 = {s2, ns2, a2, m2};
    double t1 = model[0], t2 = model[1], t3 = model[2], f = model[3];
    double af = model[4], dsc = model[5], dsb = model[6];
    double pollp = model[7], pollb = model[8];
    double cpu = state[0], branch = state[1], refs = state[2];
    double stall = state[3], accel = state[4], clock = state[5];
    double ready = state[6], busy = state[7], accel_total = state[8];
    int64_t last = INT64_MIN, fo = 0, ro = 0;
    int64_t h1_total = 0, m1_total = 0, m2_total = 0;
    for (int64_t e = 0; e < n_events; e++) {
        int k = kinds[e];
        if (k < 0 || k > K_RWAIT) return 1;
        int64_t g = ev_group[e];
        int64_t h1 = 0, mi1 = 0, mi2 = 0;
        if (g != -2) {
            int64_t width = 1, off = 0;
            int64_t src = ev_lines[e], dst = ev_lines[n_events + e];
            if (g >= 0) {
                width = grp_width[g];
                off = grp_off[g];
            }
            for (int64_t j = 0; j < width; j++) {
                int64_t line = (g == -1) ? src
                    : ((from_dst[off + j] ? dst : src) + rel[off + j]);
                if (line == last) { h1++; continue; }
                last = line;
                if (lru_touch(l1, line)) { h1++; continue; }
                mi1++;
                if (!lru_touch(l2, line)) mi2++;
            }
            h1_total += h1; m1_total += mi1; m2_total += mi2;
        }
        if (k == K_FLUSH) {
            if (fo >= n_flush) return 1;
            cpu += dsc; branch += dsb; clock += dsc / f;
            double t = flush_t[fo], arrival;
            if (db) {
                busy = (clock > busy ? clock : busy) + t;
                arrival = busy;
            } else {
                if (t > 0.0)
                    stall_to(clock + t, f, pollp, pollb,
                             &clock, &stall, &branch);
                arrival = clock;
            }
            double ac = flush_ac[fo++];
            ready = (ready > arrival ? ready : arrival) + ac / af;
            accel += ac;
            accel_total += ac;
        } else if (k == K_RECV) {
            if (ro >= n_recv) return 1;
            cpu += dsc; branch += dsb; clock += dsc / f;
            stall_to(ready, f, pollp, pollb, &clock, &stall, &branch);
            double t = recv_t[ro++];
            if (t > 0.0)
                stall_to(clock + t, f, pollp, pollb,
                         &clock, &stall, &branch);
        } else if (k == K_RWAIT && db) {
            stall_to(busy, f, pollp, pollb, &clock, &stall, &branch);
        } else {
            double c, b, r, xr = 0.0;
            if (k == K_COPY && g >= 0) {
                const double *terms = grp_cost + 5 * g;
                c = terms[0] + terms[3];
                r = terms[1];
                b = terms[2];
                xr = terms[4];
            } else {
                c = kind_cost[3 * k];
                b = kind_cost[3 * k + 1];
                r = kind_cost[3 * k + 2];
            }
            double cyc = c + (((double)h1 * t1 + (double)mi1 * t2)
                              + (double)mi2 * t3);
            cpu += cyc;
            branch += b;
            refs += r;
            if (xr != 0.0) refs += xr;
            clock += cyc / f;
        }
    }
    if (fo != n_flush || ro != n_recv) return 1;
    state[0] = cpu; state[1] = branch; state[2] = refs; state[3] = stall;
    state[4] = accel; state[5] = clock; state[6] = ready; state[7] = busy;
    state[8] = accel_total;
    totals[0] = h1_total; totals[1] = m1_total; totals[2] = m2_total;
    return 0;
}

/* Backward last-writer scan of a DMA staging region's used span of
 * `used` words.  Item i is a staged word when is_word && is_word[i] (its
 * byte offset the next word_offsets entry, walking back from n_words)
 * and otherwise row idx[i*step] of class c = cls[i*step]: byte offset
 * region_offsets[class_base[c] + row], class_width[c] words wide.
 * Walking the items backward, each word of the span goes to the first
 * (= last-written) item covering it; the scan stops once every word is
 * covered.  Winners come out in descending item, ascending word order:
 * win_item, win_pos (word in the region) and win_src (the word's
 * offset within its item's payload; for a staged word, its ordinal).
 * covered is `used` zeroed bytes of scratch, the outputs hold `used`
 * entries.  Returns the number of winners, or -1 if an item leaves
 * the span. */
int64_t last_writers(int64_t n_items, const uint8_t *is_word,
                     const int64_t *cls, const int64_t *idx, int64_t step,
                     const int64_t *word_offsets, int64_t n_words,
                     const int64_t *class_base, const int64_t *class_width,
                     const int64_t *region_offsets, int64_t used,
                     uint8_t *covered, int64_t *win_item, int64_t *win_pos,
                     int64_t *win_src)
{
    int64_t n = 0, word = n_words;
    for (int64_t i = n_items - 1; i >= 0 && n < used; i--) {
        int64_t offset, width, ordinal = -1;
        if (is_word && is_word[i]) {
            if (word == 0) return -1;
            ordinal = --word;
            offset = word_offsets[ordinal];
            width = 1;
        } else {
            int64_t c = cls[i * step];
            offset = region_offsets[class_base[c] + idx[i * step]];
            width = class_width[c];
        }
        if (offset < 0 || width < 0 || offset / 4 + width > used) return -1;
        int64_t start = offset / 4;
        for (int64_t w = start; w < start + width; w++) {
            if (covered[w]) continue;
            covered[w] = 1;
            win_item[n] = i;
            win_pos[n] = w;
            win_src[n] = ordinal >= 0 ? ordinal : w - start;
            n++;
        }
    }
    return n;
}

/* Accelerator stream decoders.  The staged stream arrives as parallel
 * arrays (is_word, value = word value or tile class, index = tile
 * ordinal within its class, cum = word-count prefix sum) plus per-flush
 * item limits.  Both decoders apply the accelerators' needs-based
 * completion rule (StreamAccelerator.process_stream) word for word;
 * any assumption violation returns nonzero, which trace.py caches as a
 * refusal, so the kernel runs per tile.  Packed operand refs are
 * (class << 40) | index, matching DecodedPlan.pack. */

#define MICRO_LOAD_A 0
#define MICRO_LOAD_B 1
#define MICRO_COMPUTE 2
#define MICRO_PUSH_C 3
#define MICRO_CONFIGURE 4
#define MICRO_RESET 5

int64_t decode_matmul_stream(
    const uint8_t *is_word, const int64_t *value, const int64_t *index,
    const int64_t *cum, int64_t n_items,
    const int64_t *flush_limits, int64_t n_flush,
    const int64_t *literals, const int64_t *prog_off, const int64_t *prog,
    int64_t n_opcodes,
    int64_t quantum, int64_t capacity, double ops_per_cycle, int64_t tile0,
    int64_t *comp_a, int64_t *comp_b, int64_t *comp_m, int64_t *comp_n,
    int64_t *comp_k, int64_t *comp_push,
    int64_t *push_counts, int64_t *push_flush, int64_t *out_words,
    double *flush_cycles, int64_t *flush_instr,
    int64_t *final_state, int64_t *counts)
{
    int64_t tm = tile0, tn = tile0, tk = tile0;
    int64_t a_src = -1, b_src = -1;
    int64_t n_comp = 0, n_push = 0, pending_start = 0;
    int64_t head = 0;
    int64_t needs[32];
    if (n_opcodes > 32) return 1;
    for (int64_t o = 0; o < n_opcodes; o++) {
        int64_t total = 0;
        for (int64_t p = prog_off[o]; p < prog_off[o + 1]; p++) {
            if (prog[p] == MICRO_LOAD_A) total += tm * tk;
            else if (prog[p] == MICRO_LOAD_B) total += tk * tn;
            else if (prog[p] == MICRO_CONFIGURE) total += 3;
        }
        needs[o] = total;
    }
    for (int64_t f = 0; f < n_flush; f++) {
        int64_t limit = flush_limits[f];
        double cycles = 0.0;
        int64_t instructions = 0;
        while (head < limit) {
            if (!is_word[head]) return 1;
            int64_t lit = value[head];
            int64_t op = -1;
            for (int64_t o = 0; o < n_opcodes; o++)
                if (literals[o] == lit) { op = o; break; }
            if (op < 0) return 1;
            if (cum[limit] - cum[head] - 1 < needs[op]) break;
            head++;
            double oc = 0.0;
            for (int64_t p = prog_off[op]; p < prog_off[op + 1]; p++) {
                int64_t micro = prog[p];
                if (micro == MICRO_LOAD_A) {
                    if (head >= limit || is_word[head]
                            || cum[head + 1] - cum[head] != tm * tk)
                        return 1;
                    a_src = (value[head] << 40) | index[head];
                    head++;
                } else if (micro == MICRO_LOAD_B) {
                    if (head >= limit || is_word[head]
                            || cum[head + 1] - cum[head] != tk * tn)
                        return 1;
                    b_src = (value[head] << 40) | index[head];
                    head++;
                } else if (micro == MICRO_COMPUTE) {
                    comp_a[n_comp] = a_src;
                    comp_b[n_comp] = b_src;
                    comp_m[n_comp] = tm;
                    comp_n[n_comp] = tn;
                    comp_k[n_comp] = tk;
                    comp_push[n_comp] = -1;
                    n_comp++;
                    oc += 2.0 * (double)(tm * tn * tk) / ops_per_cycle;
                } else if (micro == MICRO_PUSH_C) {
                    for (int64_t j = pending_start; j < n_comp; j++)
                        comp_push[j] = n_push;
                    push_counts[n_push] = n_comp - pending_start;
                    push_flush[n_push] = f;
                    out_words[n_push] = tm * tn;
                    n_push++;
                    pending_start = n_comp;
                } else if (micro == MICRO_CONFIGURE) {
                    int64_t cfg[3];
                    for (int64_t c = 0; c < 3; c++) {
                        if (head >= limit || !is_word[head]) return 1;
                        cfg[c] = value[head];
                        head++;
                    }
                    tm = cfg[0]; tn = cfg[1]; tk = cfg[2];
                    if (tm <= 0 || tn <= 0 || tk <= 0) return 1;
                    if (tm % quantum || tn % quantum || tk % quantum)
                        return 1;
                    if (tm * tk > capacity || tk * tn > capacity
                            || tm * tn > capacity)
                        return 1;
                    a_src = -1; b_src = -1;
                    pending_start = n_comp;
                    for (int64_t o = 0; o < n_opcodes; o++) {
                        int64_t total = 0;
                        for (int64_t p = prog_off[o]; p < prog_off[o + 1];
                             p++) {
                            if (prog[p] == MICRO_LOAD_A) total += tm * tk;
                            else if (prog[p] == MICRO_LOAD_B)
                                total += tk * tn;
                            else if (prog[p] == MICRO_CONFIGURE) total += 3;
                        }
                        needs[o] = total;
                    }
                } else if (micro == MICRO_RESET) {
                    a_src = -1; b_src = -1;
                    pending_start = n_comp;
                } else {
                    return 1;
                }
            }
            cycles += oc;
            instructions++;
        }
        flush_cycles[f] = cycles;
        flush_instr[f] = instructions;
    }
    if (head != n_items) return 1;
    if (pending_start != n_comp) return 1;
    final_state[0] = tm; final_state[1] = tn; final_state[2] = tk;
    final_state[3] = a_src; final_state[4] = b_src;
    counts[0] = n_comp; counts[1] = n_push;
    return 0;
}

int64_t decode_conv_stream(
    const uint8_t *is_word, const int64_t *value, const int64_t *index,
    const int64_t *cum, int64_t n_items,
    const int64_t *flush_limits, int64_t n_flush,
    int64_t lit_sico, int64_t lit_sf, int64_t lit_ro,
    int64_t lit_fsize, int64_t lit_ic,
    int64_t max_ic, int64_t max_fhw, int64_t max_slice,
    double ops_per_cycle,
    int64_t *comp_a, int64_t *comp_b, int64_t *comp_k, int64_t *comp_push,
    int64_t *push_counts, int64_t *push_flush, int64_t *out_words,
    double *flush_cycles, int64_t *flush_instr,
    int64_t *final_state, int64_t *counts)
{
    int64_t ic = 1, fhw = 1;
    int64_t filter_src = -1, filter_words = 1;
    int64_t n_comp = 0, n_push = 0, pending_start = 0;
    int64_t head = 0;
    for (int64_t f = 0; f < n_flush; f++) {
        int64_t limit = flush_limits[f];
        double cycles = 0.0;
        int64_t instructions = 0;
        while (head < limit) {
            if (!is_word[head]) return 1;
            int64_t lit = value[head];
            int64_t window = ic * fhw * fhw;
            int64_t needs;
            if (lit == lit_sico || lit == lit_sf) needs = window;
            else if (lit == lit_ro) needs = 0;
            else if (lit == lit_fsize || lit == lit_ic) needs = 1;
            else return 1;
            if (cum[limit] - cum[head] - 1 < needs) break;
            head++;
            if (lit == lit_fsize) {
                if (head >= limit || !is_word[head]) return 1;
                int64_t v = value[head];
                head++;
                if (v < 1 || v > max_fhw) return 1;
                fhw = v;
            } else if (lit == lit_ic) {
                if (head >= limit || !is_word[head]) return 1;
                int64_t v = value[head];
                head++;
                if (v < 1 || v > max_ic) return 1;
                ic = v;
            } else if (lit == lit_sf) {
                if (head >= limit || is_word[head]
                        || cum[head + 1] - cum[head] != window)
                    return 1;
                filter_src = (value[head] << 40) | index[head];
                head++;
                filter_words = window;
                pending_start = n_comp;
            } else if (lit == lit_sico) {
                if (n_comp - pending_start >= max_slice) return 1;
                if (filter_words != window) return 1;
                if (head >= limit || is_word[head]
                        || cum[head + 1] - cum[head] != window)
                    return 1;
                comp_a[n_comp] = (value[head] << 40) | index[head];
                head++;
                comp_b[n_comp] = filter_src;
                comp_k[n_comp] = window;
                comp_push[n_comp] = -1;
                n_comp++;
                cycles += 2.0 * (double)window / ops_per_cycle;
            } else {  /* rO */
                if (pending_start == n_comp) return 1;
                for (int64_t j = pending_start; j < n_comp; j++)
                    comp_push[j] = n_push;
                push_counts[n_push] = n_comp - pending_start;
                push_flush[n_push] = f;
                out_words[n_push] = n_comp - pending_start;
                n_push++;
                pending_start = n_comp;
            }
            instructions++;
        }
        flush_cycles[f] = cycles;
        flush_instr[f] = instructions;
    }
    if (head != n_items) return 1;
    if (pending_start != n_comp) return 1;
    final_state[0] = ic; final_state[1] = fhw; final_state[2] = filter_src;
    counts[0] = n_comp; counts[1] = n_push;
    return 0;
}
"""

_lib: Optional[ctypes.CDLL] = None
_tried = False
_build_dir: Optional[str] = None

#: Scoped suppression (see suspend_native): a caller measures or pins
#: the per-tile rung without disturbing the probe memo.
_suspension = _threading.local()


def native_suspended() -> bool:
    """True while inside a :func:`suspend_native` scope on this thread."""
    return getattr(_suspension, "count", 0) > 0


@_contextmanager
def suspend_native():
    """Withhold the C library for the duration of the scope.

    Works after a successful probe too: the memoized library is simply
    not handed out, so no replay is offered and every kernel runs per
    tile.  Results are bit-identical either way; only latency changes.
    """
    _suspension.count = getattr(_suspension, "count", 0) + 1
    try:
        yield
    finally:
        _suspension.count -= 1

#: Why the library is (un)available: "untried", "ok", "no-compiler",
#: "compile-failed", "load-failed", or "fault-injected".  The memo makes degradation one-shot: the
#: failed toolchain probe is never re-attempted (and re-paid) on later
#: calls this process.
_status = "untried"


def native_status() -> dict:
    """Availability + reason memo (surfaced via ``diagnostics()``)."""
    return {"available": _lib is not None, "status": _status}


def _degrade(status: str, detail: str = "") -> None:
    """Record a degradation and warn exactly once.

    A silently missing fast path is the kind of 10x slowdown users
    should hear about once.
    """
    global _status
    _status = status
    message = f"native fast path unavailable ({status})"
    if detail:
        message += f": {detail}"
    message += "; no replay is offered, every kernel runs per tile"
    warnings.warn(message, RuntimeWarning, stacklevel=3)


def _cleanup() -> None:
    if _build_dir is not None:
        shutil.rmtree(_build_dir, ignore_errors=True)


class _CompileFailed(Exception):
    """The compiler ran and refused the source (message: its stderr)."""


def _compile(compiler: str, flags: Tuple[str, ...], shared: str) -> None:
    """Compile :data:`_SOURCE` into ``shared`` via a sibling ``.c`` file."""
    source = shared + ".c"
    try:
        with open(source, "w") as handle:
            handle.write(_SOURCE)
        result = subprocess.run([compiler, *flags, source, "-o", shared],
                                capture_output=True, timeout=120)
    finally:
        try:
            os.unlink(source)
        except OSError:
            pass
    if result.returncode != 0:
        raise _CompileFailed(
            result.stderr.decode(errors="replace").strip()[:200])


def _private_dir() -> Optional[str]:
    """This user's library directory, or ``None`` if it is not trusted.

    Anyone who can write into the directory can replace the library
    this process is about to ``dlopen``, so it is used only while
    ``lstat`` shows a real directory (no symlink) owned by the effective
    user with no group or other permission bits.
    """
    if not hasattr(os, "geteuid"):
        return None
    euid = os.geteuid()
    path = os.path.join(tempfile.gettempdir(), f"repro-native-{euid}")
    try:
        os.mkdir(path, 0o700)
    except FileExistsError:
        pass
    except OSError:
        return None
    try:
        info = os.lstat(path)
    except OSError:
        return None
    if not stat.S_ISDIR(info.st_mode) or info.st_uid != euid \
            or info.st_mode & 0o077:
        return None
    return path


def _library_key(compiler: str, flags: Tuple[str, ...]) -> str:
    """SHA-256 of what the library is a function of.

    The compiler is identified by its resolved path, size and mtime
    (ccache's default ``compiler_check``), not by running it: an
    upgrade in place changes the mtime.
    """
    real = os.path.realpath(shutil.which(compiler) or compiler)
    info = os.stat(real)
    identity = (_SOURCE, flags, real, info.st_size, info.st_mtime_ns,
                sys.platform, os.uname().machine)
    return hashlib.sha256(repr(identity).encode()).hexdigest()


def _owned_file(path: str) -> bool:
    """A regular file of this user that nobody else can write."""
    try:
        info = os.lstat(path)
    except OSError:
        return False
    return stat.S_ISREG(info.st_mode) and info.st_uid == os.geteuid() \
        and not info.st_mode & 0o022


def _cached_library(compiler: str, flags: Tuple[str, ...],
                    directory: str) -> ctypes.CDLL:
    """Load this machine's library, building and publishing it on a miss.

    A kept file that fails to load is unlinked and rebuilt once; the
    build is published by :func:`repro.store.durable_publish`, so
    concurrent processes converge on one file and a reader never maps a
    torn one.
    """
    path = os.path.join(directory,
                        f"kernels-{_library_key(compiler, flags)}.so")
    if _owned_file(path):
        try:
            return _load(path)
        except (OSError, AttributeError):
            try:
                os.unlink(path)
            except OSError:
                pass
    with durable_publish(path) as tmp:
        _compile(compiler, flags, str(tmp))
        os.chmod(tmp, 0o700)
    return _load(path)


def _temporary_library(compiler: str,
                       flags: Tuple[str, ...]) -> ctypes.CDLL:
    """Build in a throw-away directory removed at exit; keep nothing."""
    global _build_dir
    _build_dir = tempfile.mkdtemp(prefix="repro-native-")
    atexit.register(_cleanup)
    shared = os.path.join(_build_dir, "kernels.so")
    _compile(compiler, flags, shared)
    return _load(shared)


def native_lib() -> Optional[ctypes.CDLL]:
    """The compiled kernel library, or ``None`` when unavailable.

    The ``native.compile`` fault is decided before any kept library is
    looked at, so it still withholds the library on a machine that has
    one.
    """
    global _lib, _tried, _status
    if native_suspended():
        return None
    if _tried:
        return _lib
    _tried = True
    if faults.fires("native.compile") == "fail":
        _degrade("fault-injected")
        return None
    compiler = (os.environ.get("CC") or shutil.which("cc")
                or shutil.which("gcc") or shutil.which("clang"))
    if compiler is None:
        _degrade("no-compiler")
        return None
    # -ffp-contract=off: no fused multiply-adds — the timeline must
    # round after every operation exactly like the Python runtime.
    flags = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")
    try:
        directory = _private_dir()
        if directory is None:
            _lib = _temporary_library(compiler, flags)
        else:
            _lib = _cached_library(compiler, flags, directory)
        _status = "ok"
    except _CompileFailed as exc:
        _degrade("compile-failed", str(exc))
    except Exception as exc:
        _degrade("load-failed", str(exc)[:200])
    return _lib


def _load(path: str) -> ctypes.CDLL:
    """``dlopen`` one built library and declare its signatures."""
    lib = ctypes.CDLL(path)
    i64p = ctypes.POINTER(ctypes.c_int64)
    f64p = ctypes.POINTER(ctypes.c_double)
    u8p = ctypes.POINTER(ctypes.c_uint8)
    i8p = ctypes.POINTER(ctypes.c_int8)
    lib.lru_hierarchy_batch.argtypes = [
        i64p, ctypes.c_int64,
        i64p, ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
        i64p, ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
        u8p,
    ]
    lib.lru_hierarchy_batch.restype = None
    # The metrics build passes numpy buffers by address (``.ctypes.data``):
    # a typed pointer per argument costs more than the whole C walk of
    # a small trace.
    vp = ctypes.c_void_p
    lib.metrics_pass.argtypes = [
        vp, ctypes.c_int64, vp, vp, vp, vp, vp, vp, vp, vp,
        vp, vp, ctypes.c_int64, vp, ctypes.c_int64,
        vp, ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
        vp, ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
        vp, ctypes.c_int32, vp, vp,
    ]
    lib.metrics_pass.restype = ctypes.c_int64
    lib.last_writers.argtypes = [
        ctypes.c_int64, vp, vp, vp, ctypes.c_int64, vp, ctypes.c_int64,
        vp, vp, vp, ctypes.c_int64, vp, vp, vp, vp,
    ]
    lib.last_writers.restype = ctypes.c_int64
    lib.decode_matmul_stream.argtypes = [
        u8p, i64p, i64p, i64p, ctypes.c_int64,
        i64p, ctypes.c_int64,
        i64p, i64p, i64p, ctypes.c_int64,
        ctypes.c_int64, ctypes.c_int64, ctypes.c_double,
        ctypes.c_int64,
        i64p, i64p, i64p, i64p, i64p, i64p,
        i64p, i64p, i64p,
        f64p, i64p,
        i64p, i64p,
    ]
    lib.decode_matmul_stream.restype = ctypes.c_int64
    lib.decode_conv_stream.argtypes = [
        u8p, i64p, i64p, i64p, ctypes.c_int64,
        i64p, ctypes.c_int64,
        ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
        ctypes.c_int64, ctypes.c_int64,
        ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
        ctypes.c_double,
        i64p, i64p, i64p, i64p,
        i64p, i64p, i64p,
        f64p, i64p,
        i64p, i64p,
    ]
    lib.decode_conv_stream.restype = ctypes.c_int64
    return lib
