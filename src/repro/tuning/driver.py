"""Supervised, resumable execution of a sweep space.

:class:`SweepDriver` walks a :class:`~repro.tuning.space.SweepSpace`
and produces one journaled outcome record per point.  Failure is the
common case it is built for:

* **Pruning before paying** — each point is compiled, then its exact
  DMA traffic is predicted with
  :func:`repro.analysis.traffic.estimate_traffic`; points predicted to
  move more than ``prune_ratio`` times their group's cheapest
  closed-form configuration are journaled as ``pruned`` without
  simulating.  Plans the analyzer cannot model
  (:class:`~repro.analysis.traffic.TrafficUnsupported`) are counted
  and simulated anyway.
* **Supervision** — points run on the supervised fork pool
  (:mod:`repro.pool`: duplex pipes, crash detection via process
  sentinels, restarts at the same slot, where the point retries).  A
  worker death costs one attempt of one point, never the sweep.
  Per-point deadlines are enforced both cooperatively in the worker
  and by a hard parent-side kill.
* **Retries with taxonomy** — crashes and deadline kills are
  retryable (seeded :class:`~repro.retry.BackoffSchedule` per point);
  in-worker exceptions are permanent (``failed``).  A point whose
  workers crash ``max_attempts`` times is quarantined as ``poisoned``
  instead of wedging the run.
* **Degradation over abortion** — store and native seams sit behind
  :class:`~repro.service.breaker.CircuitBreaker` instances; repeated
  seam failures route subsequent points through the memory-only store
  or the per-tile driver (both bit-identical rungs).  Journal I/O
  failures degrade to memory-only progress tracking.
* **One build per kernel** — no two points of one kernel family run at
  once, so a twin finds its sibling's kernel in memory or in the store.
* **One commit point per group** — the journal is fsynced when a
  report group's last point resolves; store entries (written under
  :func:`repro.store.group_commit`) when their worker shuts down.

Determinism is the load-bearing property: evaluation is deterministic
per point, injected crash/poison verdicts are keyed on point digests
(:func:`repro.faults.keyed_fires` — pure functions of the digest, not
of consultation order), and interrupted points resume from attempt
zero.  Whether a point completes, gets pruned, or is poisoned is
therefore a function of the point alone, which is what makes a resumed
sweep's report bit-identical to an uninterrupted one.

:func:`evaluate_point` maps a journaled point spec onto the service's
request vocabulary and builds and runs it through
:func:`repro.experiments.harness.compile_request`, the builder the
figures and the service use.

Knobs: ``REPRO_WORKERS`` (the pool size every :mod:`repro.pool` caller
reads, default ``min(4, cpus)``) and ``REPRO_TUNING_DEADLINE_S``
(per-point deadline, default 60) — both with the envutil one-shot-warning
fallback on malformed values.
"""

from __future__ import annotations

import collections
import os
import time
import traceback
from typing import Dict, NamedTuple, Optional, Tuple

from .. import faults, pool, store
from ..envutil import env_float
from ..execution.trace import add_stage_time
from ..retry import BackoffSchedule, retryable
from ..service import protocol
from ..service.breaker import SeamBreakers
from .counters import count
from .journal import SweepJournal
from .report import build_report, write_report
from .space import SweepSpace, group_floors

#: Per-point deadline knob, seconds (default 60).
TUNING_DEADLINE_ENV = "REPRO_TUNING_DEADLINE_S"

_DEFAULT_DEADLINE_S = 60.0

#: Exit code of an injected sweep-worker crash (tests assert on it).
CRASH_EXIT_CODE = 23

#: Crashes are quarantined as poisoned after this many attempts.
DEFAULT_MAX_ATTEMPTS = 3

#: Outcome codes the retry ladder considers transient.
RETRYABLE_OUTCOMES = frozenset({"crash", "deadline"})


def tuning_deadline_s() -> float:
    """Per-point deadline: REPRO_TUNING_DEADLINE_S, else 60 seconds."""
    return env_float(TUNING_DEADLINE_ENV, _DEFAULT_DEADLINE_S,
                     minimum=0.001)


class DeadlinePassed(RuntimeError):
    """Cooperative cancellation: the point's deadline expired."""


def _injected_crash(digest: str, attempt: int) -> bool:
    """Prefix-budget crash verdict for ``tuning.worker:crash``.

    Attempt ``a`` crashes iff the keyed draws for attempts ``1..a``
    *all* fire.  The set of crashing attempts per point is then a
    prefix ``1..budget`` — a pure function of the digest — so a point
    completes at attempt ``budget+1`` (or is poisoned when the budget
    reaches ``max_attempts``) regardless of where any earlier run of
    the sweep was interrupted.  Independent per-attempt draws would
    not have this property: a clean run and a resumed run could
    classify the same point differently.
    """
    return all(
        faults.keyed_fires("tuning.worker", f"{digest}:attempt{j}")
        == "crash"
        for j in range(1, attempt + 1)
    )


def _poisoned(digest: str) -> bool:
    return faults.keyed_fires("tuning.point", digest) == "poison"


# -- point evaluation (runs in pool workers and inline) ---------------------

def evaluate_point(spec: dict, prune_bytes: Optional[int] = None,
                   deadline: Optional[float] = None) -> dict:
    """Compile, maybe prune, simulate, verify one point.

    Returns the outcome payload (metric, counters, traffic estimate);
    deterministic for a given spec.  ``deadline`` is absolute
    wall-clock (cooperative checkpoints between the pipeline stages).
    """
    import numpy as np

    from ..analysis import TrafficUnsupported, estimate_traffic
    from ..dialects import linalg
    from ..experiments.harness import (
        compile_request,
        expected_matmul,
        matmul_inputs,
    )

    def check_deadline(stage: str) -> None:
        if deadline is not None and time.time() >= deadline:
            raise DeadlinePassed(f"deadline expired before {stage}")

    check_deadline("compile")
    started = time.perf_counter()
    # The point's tiles are the flexible (v4) accelerator's size; the
    # fixed versions take theirs from ``size``.
    request = compile_request(dict(
        spec, kind=spec["kernel"],
        accel_size=spec["tiles"] if spec["version"] == 4 else None))
    add_stage_time("sweep_compile_s", time.perf_counter() - started)

    started = time.perf_counter()
    est_bytes: Optional[int] = None
    try:
        estimate = estimate_traffic(request.kernel.plan,
                                    request.info.opcode_map,
                                    linalg.matmul_maps())
        est_bytes = estimate.bytes_to_accel + estimate.bytes_from_accel
    except TrafficUnsupported:
        # CPU-tiled plans are outside the traffic model: count, then
        # simulate unconditionally instead of guessing.
        count("tuning_prune_unsupported")
    add_stage_time("sweep_estimate_s", time.perf_counter() - started)
    if est_bytes is not None and prune_bytes is not None \
            and est_bytes > prune_bytes:
        return {"status": "pruned", "est_bytes": est_bytes,
                "prune_bytes": prune_bytes}

    check_deadline("simulation")
    started = time.perf_counter()
    a, b = matmul_inputs(spec["m"], spec["n"], spec["k"])
    counters, out = request.run((a, b))
    add_stage_time("sweep_simulate_s", time.perf_counter() - started)
    if not np.array_equal(out, expected_matmul(a, b)):
        raise AssertionError("sweep point produced wrong results")
    return {
        "status": "ok",
        "metric": counters.elapsed_seconds,
        "counters": protocol.encode_value(counters),
        "est_bytes": est_bytes,
    }


def evaluate_job(job: dict) -> dict:
    """Evaluate one job's point; the outcome as reply fields.

    Runs in pool workers and on the inline rung alike.  An expired
    deadline is retryable (``code="deadline"``); any other exception is
    a deterministic failure of the point (``code="error"``).
    """
    try:
        with store.group_commit():
            outcome = evaluate_point(job["spec"], job.get("prune_bytes"),
                                     job.get("deadline"))
    except DeadlinePassed as exc:
        return {"ok": False, "code": "deadline", "error": str(exc)}
    except Exception as exc:
        return {"ok": False, "code": "error",
                "error": f"{type(exc).__name__}: {exc}",
                "trace": traceback.format_exc(limit=8)}
    return {"ok": True, "outcome": outcome}


def worker_job(job: dict) -> dict:
    """Pool handler: the injected crash/poison rule, then the point."""
    if _poisoned(job["digest"]) \
            or _injected_crash(job["digest"], job["attempt"]):
        # Hard process death, skipping every Python cleanup layer —
        # exactly what the parent's crash ladder must absorb.
        os._exit(CRASH_EXIT_CODE)
    return evaluate_job(job)


class _Flight(NamedTuple):
    """One dispatched attempt: the point, its breaker verdicts, and —
    on the pool — the monotonic time of its hard parent-side kill."""

    point: object
    job: dict
    verdicts: dict
    kill_at: float

    @property
    def digest(self) -> str:
        """The point's digest, hashed once per sweep in ``run()``."""
        return self.job["digest"]


class SweepDriver:
    """Run (or resume) one sweep; see the module docstring."""

    def __init__(self, space: SweepSpace, journal_path,
                 report_path=None,
                 workers: Optional[int] = None,
                 deadline_s: Optional[float] = None,
                 max_attempts: int = DEFAULT_MAX_ATTEMPTS,
                 prune_ratio: Optional[float] = 4.0,
                 seed: int = 0,
                 breaker_threshold: int = 3,
                 breaker_cooldown_s: float = 1.0,
                 sleep=time.sleep) -> None:
        self.space = space
        self.journal = SweepJournal(journal_path)
        self.report_path = report_path
        self.workers = workers if workers is not None \
            else pool.worker_count()
        self.deadline_s = deadline_s if deadline_s is not None \
            else tuning_deadline_s()
        self.max_attempts = max(1, max_attempts)
        self.prune_ratio = prune_ratio
        self.seed = seed
        self.breakers = SeamBreakers(breaker_threshold, breaker_cooldown_s)
        self._sleep = sleep
        self._stop = False
        self._attempts: Dict[str, int] = {}
        self._crashes: Dict[str, int] = {}
        self._backoffs: Dict[str, BackoffSchedule] = {}
        #: Points backing off right now (digest -> monotonic retry
        #: time, and the restarted slot the point waits for or None);
        #: an entry lives from retry_later to its re-dispatch.
        self._retry_at: Dict[str, Tuple[float, Optional[int]]] = {}
        self._results: Dict[str, dict] = {}
        #: Unresolved points per report group (journal commit at 0).
        self._open_points: collections.Counter = collections.Counter()

    # -- public control ------------------------------------------------------
    def request_stop(self) -> None:
        """Graceful drain: stop dispatching, finish in-flight points."""
        self._stop = True

    # -- helpers -------------------------------------------------------------
    def _backoff(self, digest: str) -> BackoffSchedule:
        if digest not in self._backoffs:
            self._backoffs[digest] = BackoffSchedule(
                self.seed, site=f"tuning.point.{digest}")
        return self._backoffs[digest]

    def _prune_thresholds(self, keyed) -> Dict[str, Optional[int]]:
        # ``prune_ratio <= 0`` disables pruning, same as the CLI flag:
        # a zero threshold would prune every point.
        if self.prune_ratio is None or self.prune_ratio <= 0:
            return {digest: None for digest, _ in keyed}
        floors = group_floors([point for _, point in keyed])
        return {
            digest: int(self.prune_ratio * floors[point.group])
            for digest, point in keyed
        }

    def _resolve(self, digest: str, point, record_fields: dict) -> None:
        """Journal one point's final outcome and account for it."""
        record = {"digest": digest, "spec": point.spec(),
                  **record_fields}
        self._results[digest] = record
        self.journal.append_result(digest, record)
        self._open_points[point.group] -= 1
        if not self._open_points[point.group]:
            self.journal.commit()
        status = record["status"]
        count({"ok": "tuning_points_completed",
               "pruned": "tuning_points_pruned",
               "poisoned": "tuning_points_poisoned",
               "failed": "tuning_points_failed"}[status])

    def _classify_failure(self, digest: str, point, code: str,
                          error: str) -> Optional[float]:
        """One failed attempt: retry delay, or None when final.

        Crashes and deadline kills are transient
        (:data:`RETRYABLE_OUTCOMES`); anything a worker *reported* is a
        deterministic failure and final on the first occurrence.
        """
        if code == "crash":
            self._crashes[digest] = self._crashes.get(digest, 0) + 1
        attempts = self._attempts.get(digest, 0)
        if retryable(RuntimeError(error), code=code,
                     retryable_codes=RETRYABLE_OUTCOMES) \
                and attempts < self.max_attempts:
            count("tuning_retries")
            return self._backoff(digest).next_delay()
        if code == "crash" \
                and self._crashes.get(digest, 0) >= attempts:
            self._resolve(digest, point,
                          {"status": "poisoned",
                           "crashes": self._crashes[digest]})
        else:
            self._resolve(digest, point,
                          {"status": "failed", "error": error})
        return None

    def _begin_attempt(self, digest: str) -> int:
        attempt = self._attempts.get(digest, 0) + 1
        self._attempts[digest] = attempt
        self.journal.append_attempt(digest, attempt)
        return attempt

    def _flight(self, digest: str, point, attempt: int,
                thresholds) -> _Flight:
        """Consult the breakers and build the attempt's job."""
        flags, verdicts = self.breakers.admit()
        if flags["disable_store"]:
            count("tuning_store_degraded")
        if flags["disable_native"]:
            count("tuning_native_degraded")
        job = {
            "digest": digest, "spec": point.spec(),
            "attempt": attempt,
            "prune_bytes": thresholds[digest],
            "deadline": time.time() + self.deadline_s,
            **flags,
        }
        return _Flight(point, job, verdicts,
                       time.monotonic() + self.deadline_s * 1.5 + 0.25)

    def _settle(self, flight: _Flight, reply: dict) -> Optional[float]:
        """Account for one attempt's reply; retry delay, or None."""
        self.breakers.settle(flight.verdicts, reply)
        if reply["ok"]:
            self._resolve(flight.digest, flight.point, reply["outcome"])
            return None
        if reply["code"] == "deadline":
            count("tuning_deadline_kills")
        return self._classify_failure(flight.digest, flight.point,
                                      reply["code"], reply["error"])

    # -- the run -------------------------------------------------------------
    def run(self) -> dict:
        started = time.perf_counter()
        points = self.space.points()
        # Every point is hashed here, once: the event loops below carry
        # (digest, point) pairs and never ask a point for its digest.
        keyed = [(point.digest, point) for point in points]
        space_digest = self.space.digest()
        count("tuning_points_total", len(points))

        journal_started = time.perf_counter()
        replay = self.journal.replay(expect_space=space_digest)
        add_stage_time("sweep_journal_s",
                       time.perf_counter() - journal_started)
        known = {digest for digest, _ in keyed}
        for digest, record in replay.results.items():
            if digest in known:
                self._results[digest] = record
        count("tuning_points_resumed", len(self._results))
        count("tuning_points_inflight",
              len([d for d in replay.inflight() if d in known]))
        if replay.meta is None:
            self.journal.append_meta(space_digest)

        thresholds = self._prune_thresholds(keyed)
        pending = collections.deque(
            pair for pair in keyed if pair[0] not in self._results)
        self._open_points.update(point.group for _, point in pending)
        if pending:
            if self.workers > 1 and pool.fork_available():
                self._run_pool(pending, thresholds)
            else:
                self._run_inline(pending, thresholds)
                store.sync_all()

        complete = all(digest in self._results for digest in known)
        report = None
        if complete:
            journal_started = time.perf_counter()
            self.journal.compact(space_digest, self._results)
            add_stage_time("sweep_journal_s",
                           time.perf_counter() - journal_started)
            report = build_report(self.space, self._results)
            if self.report_path is not None:
                write_report(self.report_path, report)
        self.journal.close()
        add_stage_time("sweep_run_s", time.perf_counter() - started)
        return {
            "complete": complete,
            "points": len(points),
            "resolved": len(self._results),
            "report": report,
        }

    # -- inline execution (workers <= 1 or no fork) --------------------------
    def _run_inline(self, pending, thresholds) -> None:
        """Sequential fallback: same classification ladder, no forks.

        Injected crash/poison verdicts are simulated as failed attempts
        (killing the only process would end the sweep, not degrade it);
        the resulting outcome records are identical to the pool's.
        """
        while pending and not self._stop:
            digest, point = pending.popleft()
            attempt = self._begin_attempt(digest)
            if _poisoned(digest) or _injected_crash(digest, attempt):
                count("tuning_worker_crashes")
                delay = self._classify_failure(digest, point, "crash",
                                               "injected crash")
            else:
                flight = self._flight(digest, point, attempt, thresholds)
                delay = self._settle(
                    flight, pool.run_seamed(evaluate_job, flight.job))
            if delay is not None:
                self._sleep(delay)
                pending.appendleft((digest, point))

    # -- pool execution -------------------------------------------------------
    def _run_pool(self, pending, thresholds) -> None:
        size = min(self.workers, len(pending))
        started = time.time()
        restarted = False
        workers = pool.Pool(size, worker_job)
        flights: Dict[int, _Flight] = {}  # busy slot -> its attempt

        def retry_later(flight: _Flight, delay: Optional[float],
                        slot: Optional[int] = None) -> None:
            if delay is not None:
                self._retry_at[flight.digest] = (time.monotonic() + delay,
                                                 slot)
                pending.append((flight.digest, flight.point))

        def replace_worker(slot: int, code: str, error: str) -> None:
            # Dead or hung alike: the attempt failed, and a fresh
            # worker takes over the same slot, and the retry with it.
            nonlocal restarted
            flight = flights.pop(slot)
            retry_later(flight, self._classify_failure(
                flight.digest, flight.point, code, error), slot)
            workers.restart(slot)
            restarted = True
            count("tuning_worker_restarts")

        try:
            while pending or flights:
                now = time.monotonic()
                # Dispatch ready work onto idle workers.
                if not self._stop:
                    busy = {flight.point.family for flight in flights.values()}
                    for slot in range(size):
                        if slot in flights:
                            continue
                        ready = self._next_ready(pending, now, slot, busy)
                        if ready is None:
                            continue
                        digest, point = ready
                        flight = self._flight(
                            digest, point, self._begin_attempt(digest),
                            thresholds)
                        workers.submit(slot, flight.job)
                        flights[slot] = flight
                        busy.add(point.family)
                elif not flights:
                    break  # drained: nothing in flight, stop dispatching
                if not flights:
                    wait_until = self._next_event_time()
                    if wait_until is None:
                        continue
                    self._sleep(min(0.05, max(0.0,
                                              wait_until - time.monotonic())))
                    continue
                for slot, reply in workers.wait(
                        list(flights), self._wait_timeout(flights)):
                    if reply is not None:
                        flight = flights.pop(slot)
                        retry_later(flight, self._settle(flight, reply))
                        continue
                    # The worker died (injected crash, OOM-shaped failure).
                    process = workers.workers[slot].process
                    process.join(timeout=5)
                    count("tuning_worker_crashes")
                    replace_worker(
                        slot, "crash",
                        f"worker {slot} crashed (exit {process.exitcode})")
                # Hard deadline kills for hung workers.
                now = time.monotonic()
                for slot, flight in list(flights.items()):
                    if now >= flight.kill_at:
                        count("tuning_deadline_kills")
                        replace_worker(slot, "deadline",
                                       "hard deadline kill")
        finally:
            count("tuning_workers_merged", workers.shutdown())
            if restarted:  # a dead worker never synced its entries
                from ..compiler import default_kernel_cache
                disk = default_kernel_cache().resolve_store()
                if disk is not None:
                    disk.sync(since=started - 1.0)

    def _next_ready(self, pending, now: float, slot: int, busy):
        """Take the first pending pair whose retry backoff has elapsed,
        that is not held for another slot, and whose kernel family is
        not in flight (``busy``)."""
        passed_over = False
        for index, (digest, point) in enumerate(pending):
            when, held_for = self._retry_at.get(digest, (0.0, None))
            if when > now or held_for not in (None, slot):
                continue
            if point.family in busy:
                passed_over = True
                continue
            count("tuning_family_waits", int(passed_over))
            del pending[index]
            self._retry_at.pop(digest, None)
            return digest, point
        count("tuning_family_waits", int(passed_over))
        return None

    def _next_event_time(self) -> Optional[float]:
        """When the earliest backing-off point becomes dispatchable."""
        return min((when for when, _ in self._retry_at.values()),
                   default=None)

    def _wait_timeout(self, flights) -> float:
        deadlines = [flight.kill_at for flight in flights.values()]
        event = self._next_event_time()
        if event is not None:
            deadlines.append(event)
        return min(0.25, max(0.01, min(deadlines) - time.monotonic()))
