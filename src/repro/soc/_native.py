"""The C kernels that trace replay runs on.

Four loops in the trace/replay machinery are inherently sequential and
would dominate its runtime if executed in Python:

* the set-associative LRU state machine over the run's full cache-line
  stream (integer decisions only) — the flat per-line variant and the
  descriptor-driven variant ``lru_copy_event_stream`` the
  metrics-plane build uses, with per-event hit/miss tallies: it generates
  each copy event's lines on the fly from the alignment-group tables,
  so a whole build is one native call with no materialized line
  stream;
* the timeline replay (the exact chain of clock/stall/accelerator
  floating-point operations, where summation order fixes the bits);
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

/* Fused L1->L2 set-associative LRU pass over a line-address stream.
 * Way arrays hold MRU at slot 0, LRU last; -1 marks an empty slot.
 * codes[i]: 0 = L1 hit, 1 = L1 miss/L2 hit, 2 = L1 miss/L2 miss.
 * Semantics match Cache.access_line / CacheHierarchy.touch_lines_batch
 * exactly (hit moves to MRU; miss inserts at MRU and evicts LRU). */
void lru_hierarchy_batch(const int64_t *lines, int64_t n,
                         int64_t *s1, int64_t ns1, int64_t a1, int64_t m1,
                         int64_t *s2, int64_t ns2, int64_t a2, int64_t m2,
                         uint8_t *codes)
{
    for (int64_t i = 0; i < n; i++) {
        int64_t line = lines[i];
        int64_t set = (m1 >= 0) ? (line & m1) : (line % ns1);
        int64_t *w = s1 + set * a1;
        int found = 0;
        for (int64_t j = 0; j < a1; j++) {
            if (w[j] == line) {
                for (int64_t k = j; k > 0; k--) w[k] = w[k - 1];
                w[0] = line;
                found = 1;
                break;
            }
        }
        if (found) { codes[i] = 0; continue; }
        for (int64_t k = a1 - 1; k > 0; k--) w[k] = w[k - 1];
        w[0] = line;
        set = (m2 >= 0) ? (line & m2) : (line % ns2);
        int64_t *w2 = s2 + set * a2;
        found = 0;
        for (int64_t j = 0; j < a2; j++) {
            if (w2[j] == line) {
                for (int64_t k = j; k > 0; k--) w2[k] = w2[k - 1];
                w2[0] = line;
                found = 1;
                break;
            }
        }
        if (found) { codes[i] = 1; continue; }
        for (int64_t k = a2 - 1; k > 0; k--) w2[k] = w2[k - 1];
        w2[0] = line;
        codes[i] = 2;
    }
}

/* One-call fused classification of a whole metrics-plane build: the
 * same LRU hierarchy state machine as lru_hierarchy_batch, but the
 * line stream is generated on the fly from per-event descriptors
 * instead of being materialized first (no O(lines) temporary, no
 * chunking).  ev_group[e] is the event's alignment-group
 * id (-1 = single staged word, -2 = no cache traffic); ev_row[e]
 * indexes the concatenated src/dst line-start arrays for copy events,
 * or word_lines for word events.  Column j of group g is
 * src+rel[grp_off[g]+j] or dst+rel[grp_off[g]+j] depending on
 * from_dst (rel already permuted to the access order of the copy
 * plan), so the touch order (and therefore every LRU decision) is
 * the per-tile copy kernels' line order.
 * A touch of the line accessed immediately before is short-circuited
 * to an L1 hit without consulting the way arrays: the previous access
 * left that line at MRU of its L1 set, so the full lookup would count
 * a hit and shift nothing.  Staged-word streams are dominated by such
 * runs (16 consecutive words per 64-byte line). */
void lru_copy_event_stream(const int64_t *ev_group, const int64_t *ev_row,
                           int64_t n_events,
                           const int64_t *grp_off, const int64_t *grp_width,
                           const int64_t *src_rows, const int64_t *dst_rows,
                           const uint8_t *from_dst, const int64_t *rel,
                           const int64_t *word_lines,
                           int64_t *s1, int64_t ns1, int64_t a1, int64_t m1,
                           int64_t *s2, int64_t ns2, int64_t a2, int64_t m2,
                           int64_t *l1_hits, int64_t *l1_miss,
                           int64_t *l2_miss)
{
    int64_t last = INT64_MIN;
    for (int64_t e = 0; e < n_events; e++) {
        int64_t g = ev_group[e];
        if (g == -2) continue;
        int64_t width, off = 0, src = 0, dst = 0;
        if (g == -1) {
            int64_t line = word_lines[ev_row[e]];
            if (line == last) { l1_hits[e] += 1; continue; }
            width = 1;
            src = line;
        } else {
            width = grp_width[g];
            off = grp_off[g];
            src = src_rows[ev_row[e]];
            dst = dst_rows[ev_row[e]];
        }
        int64_t h1 = 0, mi1 = 0, mi2 = 0;
        for (int64_t j = 0; j < width; j++) {
            int64_t line = (g == -1) ? src
                : ((from_dst[off + j] ? dst : src) + rel[off + j]);
            if (line == last) { h1++; continue; }
            last = line;
            int64_t set = (m1 >= 0) ? (line & m1) : (line % ns1);
            int64_t *w = s1 + set * a1;
            int found = 0;
            for (int64_t j1 = 0; j1 < a1; j1++) {
                if (w[j1] == line) {
                    for (int64_t k = j1; k > 0; k--) w[k] = w[k - 1];
                    w[0] = line;
                    found = 1;
                    break;
                }
            }
            if (found) { h1++; continue; }
            for (int64_t k = a1 - 1; k > 0; k--) w[k] = w[k - 1];
            w[0] = line;
            mi1++;
            set = (m2 >= 0) ? (line & m2) : (line % ns2);
            int64_t *w2 = s2 + set * a2;
            found = 0;
            for (int64_t j2 = 0; j2 < a2; j2++) {
                if (w2[j2] == line) {
                    for (int64_t k = j2; k > 0; k--) w2[k] = w2[k - 1];
                    w2[0] = line;
                    found = 1;
                    break;
                }
            }
            if (found) continue;
            for (int64_t k = a2 - 1; k > 0; k--) w2[k] = w2[k - 1];
            w2[0] = line;
            mi2++;
        }
        l1_hits[e] += h1;
        l1_miss[e] += mi1;
        l2_miss[e] += mi2;
    }
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

/* The replay timeline: one entry per charge step, with the exact
 * floating-point operation sequence of the per-tile runtime. */
void timeline_batch(const int8_t *sync, const double *cyc,
                    const double *brs, const double *rfs,
                    const double *rf2, const double *taux,
                    const double *acaux, int64_t n, int32_t db,
                    double f, double af, double dsc, double dsb,
                    double pollp, double pollb, double *state)
{
    double cpu = state[0], branch = state[1], refs = state[2];
    double stall = state[3], accel = state[4], clock = state[5];
    double ready = state[6], busy = state[7], accel_total = state[8];
    for (int64_t i = 0; i < n; i++) {
        int s = sync[i];
        if (s == 0) {
            double c = cyc[i];
            cpu += c;
            branch += brs[i];
            refs += rfs[i];
            double r2 = rf2[i];
            if (r2 != 0.0) refs += r2;
            clock += c / f;
        } else if (s == 1) {
            cpu += dsc; branch += dsb; clock += dsc / f;
            double t = taux[i];
            double arrival;
            if (db) {
                double start = clock > busy ? clock : busy;
                busy = start + t;
                arrival = busy;
            } else {
                if (t > 0.0) {
                    double ts = clock + t;
                    if (ts > clock) {
                        double sc = (ts - clock) * f;
                        stall += sc;
                        branch += (sc / pollp) * pollb;
                        clock = ts;
                    }
                }
                arrival = clock;
            }
            double ac = acaux[i];
            double s2v = ready > arrival ? ready : arrival;
            ready = s2v + ac / af;
            accel += ac;
            accel_total += ac;
        } else if (s == 2) {
            cpu += dsc; branch += dsb; clock += dsc / f;
            if (ready > clock) {
                double sc = (ready - clock) * f;
                stall += sc;
                branch += (sc / pollp) * pollb;
                clock = ready;
            }
            double t = taux[i];
            if (t > 0.0) {
                double ts = clock + t;
                if (ts > clock) {
                    double sc = (ts - clock) * f;
                    stall += sc;
                    branch += (sc / pollp) * pollb;
                    clock = ts;
                }
            }
        } else {
            if (busy > clock) {
                double sc = (busy - clock) * f;
                stall += sc;
                branch += (sc / pollp) * pollb;
                clock = busy;
            }
        }
    }
    state[0] = cpu; state[1] = branch; state[2] = refs; state[3] = stall;
    state[4] = accel; state[5] = clock; state[6] = ready; state[7] = busy;
    state[8] = accel_total;
}
"""

_lib: Optional[ctypes.CDLL] = None
_tried = False
_build_dir: Optional[str] = None

#: Scoped suppression (see suspend_native): service workers run
#: requests with the native seam pre-disabled while the server's
#: native circuit breaker is open, without disturbing the probe memo.
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


def native_healthy() -> bool:
    """False once the toolchain failed — the native breaker's evidence.

    "untried" and "no-compiler" are not failures: nothing broke, there
    is just no fast path to protect.
    """
    return _status not in ("compile-failed", "load-failed", "fault-injected")


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
    lib.lru_copy_event_stream.argtypes = [
        i64p, i64p, ctypes.c_int64,
        i64p, i64p, i64p, i64p, u8p, i64p, i64p,
        i64p, ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
        i64p, ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
        i64p, i64p, i64p,
    ]
    lib.lru_copy_event_stream.restype = None
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
    lib.timeline_batch.argtypes = [
        i8p, f64p, f64p, f64p, f64p, f64p, f64p,
        ctypes.c_int64, ctypes.c_int32,
        ctypes.c_double, ctypes.c_double, ctypes.c_double,
        ctypes.c_double, ctypes.c_double, ctypes.c_double, f64p,
    ]
    lib.timeline_batch.restype = None
    return lib
