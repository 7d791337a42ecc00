"""The one supervised fork pool.

Model jobs and service warmups (:func:`run_model_jobs`, the ordered map
at the bottom of this module), service requests (``ServiceServer``) and
sweep points (``SweepDriver``) all run on this pool; it is the only
place in ``repro`` that creates fork contexts or processes.  All of them
size it from one knob, ``REPRO_WORKERS`` (:func:`worker_count`), unless
the caller passes an explicit size.  What to run, when to give up on a
job and what a crash means for it stay with the caller; the pool owns
the mechanism.

* **Child side** — :func:`worker_loop` over one duplex pipe: receive a
  job dict, run the caller's *handler* under the job's breaker verdicts
  (:func:`run_seamed`), reply with the handler's fields, the seam
  evidence and the counter *delta* since the previous reply.  ``None``
  asks for shutdown: the worker syncs the store entries its jobs left
  to it (:func:`repro.store.group_commit`), answers ``bye`` with its
  residue delta and exits.  A handler may ``os._exit`` (the callers'
  injected-crash rules) — to the parent that is a crash like any other.
* **Parent side** — :class:`Pool`: slot-stable :class:`Worker` handles
  with ``submit``, ``wait``, ``restart`` and ``shutdown``.

Without ``fork`` (or inside a pool worker) callers run the same handler
inline through the same :func:`run_seamed`; counters then advance
directly and there is no delta to merge.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import multiprocessing.connection
import os
import time
from collections import deque
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import counters
from .envutil import env_int
from .store import STORE_COUNTERS, sync_all

#: Size of every pool: model jobs, service workers, sweep workers
#: (default: min(4, cpu_count)).
WORKERS_ENV = "REPRO_WORKERS"

#: ``diagnostics()["model_plan"]``: ``model_plan_workers`` counts pool
#: workers whose deltas merged back into the parent (model jobs here,
#: the service's drain).  ``model_plan_step_hits`` is a frozen-reader
#: key (the list is at ``repro.execution.diagnostics``).
MODEL_PLAN_COUNTERS: Dict[str, int] = counters.section("model_plan", {
    "model_plan_step_hits": 0,
    "model_plan_workers": 0,
})

#: Seconds a worker gets to answer the shutdown handshake, and a killed
#: process to be reaped.
_HANDSHAKE_S = 5.0

_in_worker = False


def fork_available() -> bool:
    """Can this platform fork pool workers?  (The only such probe.)"""
    return "fork" in multiprocessing.get_all_start_methods()


def worker_count() -> int:
    """Requested pool size: REPRO_WORKERS, else min(4, cpus)."""
    return env_int(WORKERS_ENV, max(1, min(4, os.cpu_count() or 1)),
                   minimum=1)


def in_worker() -> bool:
    """True inside a pool worker: nested fan-outs must stay inline
    (workers are daemonic and may not have children)."""
    return _in_worker


# -- child side ---------------------------------------------------------------

def _store_failures() -> int:
    return STORE_COUNTERS["store_io_errors"] \
        + STORE_COUNTERS["store_write_failures"]


def run_seamed(handler: Callable[[dict], dict], job: dict) -> dict:
    """Run ``handler(job)`` under the job's breaker verdicts.

    An open store breaker routes the job through the memory-only
    compile path (``suspend_disk_store``); an open native breaker
    withholds the C library (``suspend_native``), so every kernel runs
    per tile.  Both are existing degradation rungs — bit-identical,
    just different latency.

    Returns the handler's reply fields plus the breaker evidence:
    ``store_failures`` (store I/O and write failures during the job)
    and ``native_ok``.  Used by :func:`worker_loop` and by the callers'
    no-fork rungs alike, so a breaker sees the same evidence either way.
    """
    from .compiler import suspend_disk_store
    from .soc._native import native_healthy, suspend_native

    failures_before = _store_failures()
    with contextlib.ExitStack() as seams:
        if job.get("disable_store"):
            seams.enter_context(suspend_disk_store())
        if job.get("disable_native"):
            seams.enter_context(suspend_native())
        reply = handler(job)
    reply["store_failures"] = _store_failures() - failures_before
    reply["native_ok"] = native_healthy()
    return reply


def worker_loop(conn, index: int, handler: Callable[[dict], dict]) -> None:
    """Job loop of one pool worker (runs in a forked child)."""
    global _in_worker
    _in_worker = True
    reported = counters.snapshot()
    while True:
        try:
            job = conn.recv()
        except (EOFError, OSError):
            break  # parent went away; nothing left to report to
        if job is None:
            sync_all()
            reply = {"op": "bye"}
        else:
            reply = run_seamed(handler, job)
            reply["op"] = "result"
        reply["worker"] = index
        now = counters.snapshot()
        reply["delta"] = counters.delta(now, reported)
        reported = now
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            break
        if job is None:
            break
    conn.close()


# -- parent side --------------------------------------------------------------

class WorkerDied(RuntimeError):
    """A pool worker died while running a job the caller does not retry."""


class Worker:
    """One forked worker and its duplex pipe."""

    def __init__(self, context, slot: int, handler) -> None:
        self.slot = slot
        # The parent's end is close-on-fork: while a copy of it is open
        # in a forked child — this worker or any sibling forked later —
        # the worker never sees EOF, so a SIGKILLed parent would leave it
        # blocked in recv() for good.
        self.conn, child_conn = context.Pipe(duplex=True)
        counters.close_on_fork(self.conn)
        self.process = context.Process(
            target=worker_loop, args=(child_conn, slot, handler),
            name=f"repro-pool-{slot}", daemon=True,
        )
        self.process.start()
        child_conn.close()

    def kill(self) -> None:
        self.process.kill()
        self.process.join(timeout=_HANDSHAKE_S)
        try:
            self.conn.close()
        except OSError:
            pass


class Pool:
    """``size`` forked workers running ``handler``, at stable slots.

    A slot holds one job at a time; the caller tracks which slots are
    busy and passes exactly those to :meth:`wait`.  Threads may share a
    pool as long as no two use the same slot (the service runs one
    dispatcher thread per slot).
    """

    def __init__(self, size: int, handler: Callable[[dict], dict]) -> None:
        # Load the native fast path once in the parent: forked workers
        # inherit the compiled library instead of each re-running the C
        # compiler probe (~0.2s of duplicated subprocess work per worker).
        from .soc._native import native_lib

        native_lib()
        self._context = multiprocessing.get_context("fork")
        self._handler = handler
        self.workers: List[Worker] = [
            Worker(self._context, slot, handler) for slot in range(size)
        ]

    def submit(self, slot: int, job: dict) -> None:
        """Send one job to the slot's worker.  If it is already dead,
        :meth:`wait` reports that (its sentinel is ready), so a failed
        send is not an error here."""
        try:
            self.workers[slot].conn.send(job)
        except (BrokenPipeError, OSError):
            pass

    def wait(self, slots: Sequence[int],
             timeout: Optional[float]) -> List[Tuple[int, Optional[dict]]]:
        """Block until a worker in ``slots`` replied or died.

        Waits on each worker's pipe *and* process sentinel, so a death
        is seen at once, with or without a half-written reply.  Returns
        ``(slot, reply)`` pairs — ``reply`` is ``None`` for a dead
        worker — or ``[]`` on timeout.  This is the only place replies
        are read: each one's counter delta is merged here, exactly once
        (the rule is at :func:`repro.counters.merge`).
        """
        by_waitable: Dict[object, int] = {}
        for slot in slots:
            worker = self.workers[slot]
            by_waitable[worker.conn] = slot
            by_waitable[worker.process.sentinel] = slot
        ready = multiprocessing.connection.wait(list(by_waitable), timeout)
        events = []
        for slot in sorted({by_waitable[waitable] for waitable in ready}):
            conn = self.workers[slot].conn
            try:
                reply = conn.recv() if conn.poll() else None
            except (EOFError, OSError):
                reply = None
            if isinstance(reply, dict):
                counters.merge(reply.pop("delta", {}))
            else:
                reply = None
            events.append((slot, reply))
        return events

    def restart(self, slot: int) -> None:
        """Kill the slot's worker and fork a fresh one at the same slot
        (after a crash or a deadline kill alike): a deterministic
        restart point, same index, same parent image."""
        self.workers[slot].kill()
        self.workers[slot] = Worker(self._context, slot, self._handler)

    def shutdown(self) -> int:
        """Drain handshake: every live worker says ``bye``.

        Returns how many workers' residue deltas were merged.  A reply
        still in a pipe from a job the caller abandoned is merged too,
        not dropped.  Workers that do not answer in time are killed.
        """
        waiting = []
        for slot, worker in enumerate(self.workers):
            if worker.process.is_alive():
                self.submit(slot, None)
                waiting.append(slot)
        merged = 0
        deadline = time.monotonic() + _HANDSHAKE_S
        while waiting:
            events = self.wait(waiting,
                               max(0.0, deadline - time.monotonic()))
            if not events:
                break
            for slot, reply in events:
                if reply is None:
                    waiting.remove(slot)
                elif reply["op"] == "bye":
                    waiting.remove(slot)
                    merged += 1
        for worker in self.workers:
            if worker.process.is_alive() and worker.slot not in waiting:
                worker.process.join(timeout=_HANDSHAKE_S)
            worker.kill()
        return merged


# -- the ordered map over the pool --------------------------------------------

def _call_job(job: dict) -> dict:
    """Pool handler: one ``(callable, args)`` model job."""
    try:
        return {"result": job["fn"](*job["args"])}
    except Exception as exc:  # noqa: BLE001 — re-raised in the parent
        return {"error": exc}


def run_model_jobs(jobs: Sequence[Tuple[Callable, tuple]],
                   workers: Optional[int] = None) -> list:
    """Run independent model jobs, in parallel when the pool allows.

    The jobs are the independent legs of the model figures (the manual
    and generated legs of fig16, the two fig17 strategies) and the
    service's warmups, over the shared sharded store.  ``jobs`` is a
    sequence of ``(callable, args)`` pairs; both must be picklable
    (module-level functions, plain-data args).  Results come back in submission
    order; a job's exception is re-raised here.  Falls back to inline
    sequential execution — bit-identical, the jobs are deterministic —
    when the pool is sized <= 1, fork is unavailable, or we are already
    inside a pool worker.  A worker that dies mid-job raises
    :class:`WorkerDied`; nothing is retried.  Workers report counter
    *deltas* which :meth:`Pool.wait` merges back, so ``diagnostics()``
    keeps counting work that happened in workers.

    ``workers`` overrides the REPRO_WORKERS sizing.
    """
    jobs = list(jobs)
    if workers is None:
        workers = worker_count()
    workers = min(workers, len(jobs))
    if workers <= 1 or in_worker() or not fork_available():
        return [fn(*args) for fn, args in jobs]
    results: list = [None] * len(jobs)
    queued = deque(enumerate(jobs))
    idle = list(range(workers))
    running: Dict[int, int] = {}
    job_pool = Pool(workers, _call_job)
    try:
        while queued or running:
            while idle and queued:
                index, (fn, args) = queued.popleft()
                slot = idle.pop()
                job_pool.submit(slot, {"fn": fn, "args": args})
                running[slot] = index
            for slot, reply in job_pool.wait(list(running), None):
                index = running.pop(slot)
                if reply is None:
                    raise WorkerDied(
                        f"pool worker {slot} died running model job "
                        f"{index}")
                if "error" in reply:
                    raise reply["error"]
                results[index] = reply["result"]
                idle.append(slot)
    finally:
        MODEL_PLAN_COUNTERS["model_plan_workers"] += job_pool.shutdown()
    return results
