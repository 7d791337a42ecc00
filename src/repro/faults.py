"""Deterministic fault injection for the degradation ladder.

Every layer of the execution pipeline has a graceful-degradation
fallback (trace synthesis or replay -> per-tile execution, no C
library -> every kernel per tile, disk store -> memory-only, service
worker -> restart + requeue).  This module lets tests and CI *prove* those rungs: a seeded
registry decides, per call site, whether an injected fault fires, and
the hook points in ``store.py``, ``soc/_native.py``,
``execution/metrics.py``, ``execution/replay.py``,
``execution/synthesize.py`` and the ``service`` package translate a
firing into the exact failure the fallback is designed to absorb
(``service.worker:crash`` kills a pool worker mid-request).

An always-firing clause is also how the fallback rung is *selected*
(only the per-tile oracle has a switch of its own, ``REPRO_NO_TRACE``):
``replay:fail``, ``synth:fail`` and ``native.compile:fail`` are three
doors to the same rung — each runs every generated kernel per tile,
the first by refusing each replay, the second by leaving the kernel
without a trace, the third by withholding the C library that replay
runs on (no replay is offered, nothing is synthesized).  ``metrics.plan:fail`` selects no rung: it bypasses
the per-trace plan cache, so every replay runs the build a cache miss
runs.  Each firing counts itself in ``diagnostics()["faults"]``.

The autotuning sweep adds three sites of its own:
``tuning.journal:io`` fails journal appends (the sweep degrades to
memory-only progress tracking), ``tuning.worker:crash`` kills sweep
workers mid-point, and ``tuning.point:poison`` makes specific points
crash every worker that touches them until quarantined.

Grammar (``REPRO_FAULTS``)::

    REPRO_FAULTS="store.read:io@0.3;native.compile:fail;store.write:io@0.1"

i.e. ``;``-separated ``site:kind[@probability]`` clauses.  Probability
defaults to 1.0 (always fire).  Unknown sites or kinds raise
``FaultConfigError`` at parse time so typos fail loudly instead of
silently injecting nothing.

Determinism: each site draws from its own ``random.Random`` stream
seeded by ``(REPRO_FAULTS_SEED, site)``, so the firing schedule of one
site never depends on how often other sites are consulted, and a fixed
seed reproduces the exact same schedule across runs and platforms.  A
malformed (non-integer) ``REPRO_FAULTS_SEED`` warns once and falls
back to the default seed 0 — like every other ``REPRO_*`` knob, it
degrades instead of erroring.
"""

from __future__ import annotations

import os
import random
from typing import Dict, Optional, Tuple

from . import counters

#: Env var holding the fault spec (see module docstring for grammar).
FAULTS_ENV = "REPRO_FAULTS"

#: Env var holding the integer seed for the per-site streams.
FAULTS_SEED_ENV = "REPRO_FAULTS_SEED"

#: Hook points wired into the codebase.  Keys are the canonical site
#: names; values document which failure each kind simulates.
SITES = {
    "store.read": ("io", "corrupt"),
    "store.write": ("io",),
    "native.compile": ("fail",),
    "metrics.plan": ("fail",),
    "replay": ("fail",),
    "synth": ("fail",),
    "service.worker": ("crash",),
    "service.rpc": ("io",),
    "service.queue": ("full",),
    "tuning.journal": ("io",),
    "tuning.worker": ("crash",),
    "tuning.point": ("poison",),
}


class FaultConfigError(ValueError):
    """REPRO_FAULTS contains an unknown site/kind or a bad probability."""


class _FaultClause:
    __slots__ = ("site", "kind", "probability", "seed", "stream")

    def __init__(self, site: str, kind: str, probability: float,
                 seed: int) -> None:
        self.site = site
        self.kind = kind
        self.probability = probability
        # Kept for keyed_fires(), whose draws are pure functions of
        # (seed, site, key) rather than stream positions.
        self.seed = seed
        # Seed folds in the site name so each site has an independent,
        # reproducible stream regardless of consultation order.
        self.stream = random.Random(f"{seed}:{site}")


def parse_faults(spec: str, seed: int = 0) -> Dict[str, _FaultClause]:
    """Parse a ``REPRO_FAULTS`` spec into per-site clauses."""
    clauses: Dict[str, _FaultClause] = {}
    for raw in spec.split(";"):
        clause = raw.strip()
        if not clause:
            continue
        head, _, prob_text = clause.partition("@")
        site_text, sep, kind = head.partition(":")
        if not sep or not kind:
            raise FaultConfigError(
                f"fault clause {clause!r} is not of the form "
                f"'site:kind[@probability]'"
            )
        site = site_text.strip()
        kind = kind.strip()
        if site not in SITES:
            raise FaultConfigError(
                f"unknown fault site {site!r}; known sites: "
                f"{sorted(SITES)}"
            )
        if kind not in SITES[site]:
            raise FaultConfigError(
                f"site {site!r} does not support kind {kind!r}; "
                f"supported: {list(SITES[site])}"
            )
        if prob_text:
            try:
                probability = float(prob_text)
            except ValueError:
                raise FaultConfigError(
                    f"bad probability {prob_text!r} in {clause!r}"
                ) from None
            if not 0.0 <= probability <= 1.0:
                raise FaultConfigError(
                    f"probability {probability} out of [0, 1] in {clause!r}"
                )
        else:
            probability = 1.0
        if site in clauses:
            raise FaultConfigError(f"duplicate clause for site {site!r}")
        clauses[site] = _FaultClause(site, kind, probability, seed)
    return clauses


#: Counters of fired faults per site, surfaced via ``diagnostics()``.
FAULT_COUNTERS: Dict[str, int] = counters.section("faults", {})

#: Guards the memo and the per-site streams.  Fork-safe: a child forked
#: while another thread held it (e.g. a service worker replacement
#: forked mid-dispatch) would otherwise deadlock on its first fires()
#: call.  Stream/memo state is deliberately inherited — restarted
#: workers seeing the parent's pristine streams is part of the
#: determinism contract.
_lock = counters.fork_safe_lock()
_memo_key: Optional[Tuple[str, str]] = None
_memo_clauses: Dict[str, _FaultClause] = {}


def _active_clauses() -> Dict[str, _FaultClause]:
    """Clauses for the current env, re-read each call.

    Memoized on the (spec, seed) text so monkeypatched env changes take
    effect immediately while the common no-faults path stays cheap.
    """
    global _memo_key, _memo_clauses
    spec = os.environ.get(FAULTS_ENV, "")
    seed_text = os.environ.get(FAULTS_SEED_ENV, "0")
    key = (spec, seed_text)
    if key == _memo_key:
        return _memo_clauses
    try:
        seed = int(seed_text)
    except ValueError:
        # A bad seed degrades (default seed) instead of erroring: the
        # same one-shot-warning contract as every other REPRO_* knob.
        from .envutil import warn_once_malformed_env

        warn_once_malformed_env(FAULTS_SEED_ENV, seed_text, 0)
        seed = 0
    clauses = parse_faults(spec, seed) if spec else {}
    with _lock:
        _memo_key = key
        _memo_clauses = clauses
    return clauses


def faults_active() -> bool:
    """True when any fault clause is configured."""
    return bool(_active_clauses())


def fires(site: str) -> Optional[str]:
    """Consult the registry at a hook point.

    Returns the fault *kind* to inject (e.g. ``"io"``) when the site's
    clause fires this draw, else ``None``.  Each consultation advances
    the site's private stream, so a probability clause yields a
    deterministic firing schedule for a fixed seed.
    """
    clauses = _active_clauses()
    clause = clauses.get(site)
    if clause is None:
        return None
    if clause.probability < 1.0:
        with _lock:
            draw = clause.stream.random()
        if draw >= clause.probability:
            return None
    counters.count(FAULT_COUNTERS, site)
    return clause.kind


def keyed_fires(site: str, key: str) -> Optional[str]:
    """Consult the registry with a caller-supplied identity key.

    Unlike :func:`fires`, the draw is a pure function of
    ``(seed, site, key)`` — no stream position — so the verdict for a
    given key is identical no matter how many times or in what order
    sites were consulted, across processes, and across restarts.  The
    sweep driver keys on point digests: whether a candidate point
    crashes its worker must not depend on where a previous run was
    SIGKILLed, or resumed sweeps could not reproduce an uninterrupted
    run's report bit for bit.  Fired draws are counted; non-firing
    consultations are free and repeatable.
    """
    clause = _active_clauses().get(site)
    if clause is None:
        return None
    draw = random.Random(f"{clause.seed}:{site}:{key}").random()
    if draw >= clause.probability:
        return None
    counters.count(FAULT_COUNTERS, site)
    return clause.kind


def reset_faults() -> None:
    """Clear counters and memoized clauses (tests)."""
    global _memo_key, _memo_clauses
    with _lock:
        FAULT_COUNTERS.clear()
        _memo_key = None
        _memo_clauses = {}


class InjectedFault(RuntimeError):
    """Raised by hook points for kinds simulating hard failures."""
