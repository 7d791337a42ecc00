"""The one counter registry, and the one fork hook.

Every cumulative counter table of the process — stage timings, trace
sources, plan/store/fault/tuning/service events — is a *section*: a
plain ``dict`` its owning module creates with :func:`section` and keeps
under its historical name (``STORE_COUNTERS``, ``STAGE_TIMINGS``, ...).
Hot paths bump a section directly (``d[k] += 1``, no lock: a lost
update under threads costs a diagnostic count, never a result).
Everything else takes the one lock here: :func:`count` for bumps that
threads race on, :func:`snapshot` / :func:`delta` / :func:`merge` for
carrying work done in forked pool workers back to the parent.  State
kept elsewhere (the default ``KernelCache``'s tallies) joins through
:func:`register_external`, so no caller lists sections by hand.

This module also registers the only at-fork hook in ``repro``.  A child
forked while another parent thread holds a lock inherits it held, with
no thread left to release it, and deadlocks on first use (PR 8's bug).
Every lock a forked worker can reach is therefore made by
:func:`fork_safe_lock`, and the hook releases them all in the child.
Never fork while the forking thread itself holds one.

Leaf module: imports nothing from ``repro``.
"""

from __future__ import annotations

import os
import threading
import weakref
from typing import Callable, Dict, Tuple

_FORK_SAFE_LOCKS: "weakref.WeakSet" = weakref.WeakSet()


def fork_safe_lock():
    """A plain ``threading.Lock`` (same cost to take), remembered
    weakly so the at-fork hook can release it in a forked child."""
    lock = threading.Lock()
    _FORK_SAFE_LOCKS.add(lock)
    return lock


def fork_safe_locks() -> list:
    """Every live fork-safe lock (the fork regression test holds them)."""
    return list(_FORK_SAFE_LOCKS)


def _release_locks_in_child() -> None:
    # Only the forking thread survives into the child, so a lock that
    # is held here was held by a thread that no longer exists.  The
    # data the locks guard is kept as inherited: restarted workers
    # seeing the parent's fault streams is part of the determinism
    # contract.
    for lock in fork_safe_locks():
        if lock.locked():
            lock.release()


os.register_at_fork(after_in_child=_release_locks_in_child)


_LOCK = fork_safe_lock()
_SECTIONS: Dict[str, dict] = {}
_EXTERNAL: Dict[str, Tuple[Callable[[], dict], Callable[[dict], None]]] = {}


def section(name: str, initial: dict) -> dict:
    """Create the section ``name``; returns the live dict.  (If a
    worker's delta was merged into it before its module was imported
    here, what was merged is kept.)"""
    with _LOCK:
        values = _SECTIONS.setdefault(name, {})
        for key, value in initial.items():
            values.setdefault(key, value)
    return values


def register_external(name: str, read: Callable[[], dict],
                      merge_into: Callable[[dict], None]) -> None:
    """Let state kept outside a section ride ``snapshot``/``merge``."""
    _EXTERNAL[name] = (read, merge_into)


def count(values: dict, key: str, amount=1) -> None:
    """Thread-safe ``values[key] += amount`` (missing keys start at 0)."""
    with _LOCK:
        values[key] = values.get(key, 0) + amount


def read(values: dict) -> dict:
    """A consistent copy of one section."""
    with _LOCK:
        return dict(values)


def reset(values: dict) -> None:
    """Zero every key of one section (tests)."""
    with _LOCK:
        for key in values:
            values[key] = 0


def snapshot() -> Dict[str, dict]:
    """Copy of every cumulative counter a pool worker can advance."""
    with _LOCK:
        snap = {name: dict(values) for name, values in _SECTIONS.items()}
    for name, (read_external, _) in _EXTERNAL.items():
        snap[name] = read_external()
    return snap


def delta(end: Dict[str, dict], base: Dict[str, dict]) -> Dict[str, dict]:
    """The non-zero per-key differences ``end - base``, by section."""
    return {
        name: {
            key: value - base.get(name, {}).get(key, 0)
            for key, value in values.items()
            if value - base.get(name, {}).get(key, 0)
        }
        for name, values in end.items()
    }


def merge(worker_delta: Dict[str, dict]) -> None:
    """Fold one pool worker's delta into this process's totals.

    **The stage-accounting rule** is enforced here, by construction.
    A forked worker inherits the parent's cumulative counters, takes a
    :func:`snapshot` when it starts, and after every job (and once more
    at shutdown, for what it did between jobs) reports the
    :func:`delta` since its previous report.  Consecutive deltas of one
    worker are disjoint, workers are separate processes, and
    :class:`repro.pool.Pool` passes each delta to this function exactly
    once — so every counted event and every stage-second, wherever it
    ran, is counted exactly once: never twice, never dropped.  Inline
    fallbacks advance the sections directly and report no delta.
    Consequences for reading ``stage_timings``: fanning work onto N
    workers does *not* shrink a stage's seconds (the workers' seconds
    merge back, so stage totals can exceed wall clock — parallel wins
    show up in wall clock only), and a stage-second belongs to the
    stage that ran, wherever it ran (a plan built by
    ``prebuild_plans()`` lands in ``metrics_plan_build_s`` exactly as
    an inline build would).
    """
    with _LOCK:
        for name, values in worker_delta.items():
            if name not in _EXTERNAL:
                totals = _SECTIONS.setdefault(name, {})
                for key, value in values.items():
                    totals[key] = totals.get(key, 0) + value
    for name, (_, merge_into) in _EXTERNAL.items():
        if name in worker_delta:
            merge_into(worker_delta[name])
