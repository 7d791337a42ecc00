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
  job dict, run the caller's ``handler(job)``, reply with the handler's
  fields and the counter *delta* since the previous reply.  ``None``
  asks for shutdown: the worker syncs the store entries its jobs left
  to it (:func:`repro.store.group_commit`), answers ``bye`` with its
  residue delta and exits.  A handler dies as a crashed worker would by
  raising :class:`WorkerCrash` (the callers' injected-crash rules): the
  worker exits at once (``os._exit``), and to the parent that is a
  crash like any other.
* **Parent side** — :class:`Pool`: slot-stable :class:`Worker` handles
  with ``submit``, ``wait``, ``restart`` and ``shutdown``.
* **Inline slots** — a pool asked not to fork, or that cannot (no
  ``fork`` start method, or already inside a pool worker), runs the same
  handler on the submitting thread behind the same four calls; counters
  then advance directly and there is no delta to merge.  Callers keep
  one loop either way.

A failing seam (store I/O, the C toolchain) degrades only the call that
meets it, inside the handler; the pool keeps no memory of it.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import time
from collections import deque
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import counters
from .envutil import env_int
from .store import group_commit, sync_all

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

#: Exit status of a worker whose handler raised :class:`WorkerCrash`.
CRASH_EXIT_CODE = 23

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
            try:
                reply = handler(job)
            except WorkerCrash:
                # Hard process death, skipping every Python cleanup
                # layer: what a segfault or an OOM kill leaves behind.
                os._exit(CRASH_EXIT_CODE)
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

class WorkerCrash(Exception):
    """Raised by a handler to die as a crashed worker would."""


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
    """``size`` workers running ``handler``, at stable slots.

    A slot holds one job at a time; the caller tracks which slots are
    busy and passes exactly those to :meth:`wait`.  Threads may share a
    pool as long as no two use the same slot (the service runs one
    dispatcher thread per slot).  With ``fork`` false, without the
    ``fork`` start method, or inside a pool worker the slots are inline
    (``workers`` holds ``None`` for each): :meth:`submit` runs the job
    on the calling thread, :meth:`wait` hands its reply back — ``None``
    when the handler raised :class:`WorkerCrash` — and :meth:`restart`
    has nothing to replace.
    """

    def __init__(self, size: int, handler: Callable[[dict], dict],
                 fork: bool = True) -> None:
        self._handler = handler
        self._forked = fork and fork_available() and not in_worker()
        self._replies: Dict[int, Optional[dict]] = {}
        self._started = time.time()
        self._restarted = False
        if not self._forked:
            self.workers: List[Optional[Worker]] = [None] * size
            return
        # Load the native fast path once in the parent: forked workers
        # inherit the compiled library instead of each re-running the C
        # compiler probe (~0.2s of duplicated subprocess work per worker).
        from .soc._native import native_lib

        native_lib()
        self._context = multiprocessing.get_context("fork")
        self.workers = [
            Worker(self._context, slot, handler) for slot in range(size)
        ]

    def submit(self, slot: int, job: dict) -> None:
        """Send one job to the slot's worker.  If it is already dead,
        :meth:`wait` reports that (its sentinel is ready), so a failed
        send is not an error here."""
        if not self._forked:
            # Run now, as a worker would start now: a job stamps its
            # deadline just before it is submitted.
            try:
                self._replies[slot] = self._handler(job)
            except WorkerCrash:
                self._replies[slot] = None
            return
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
        if not self._forked:
            return [(slot, self._replies.pop(slot)) for slot in sorted(slots)
                    if slot in self._replies]
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
        if not self._forked:
            return
        self._restarted = True
        self.workers[slot].kill()
        self.workers[slot] = Worker(self._context, slot, self._handler)

    def shutdown(self) -> int:
        """Drain handshake: every live worker says ``bye``.

        Returns how many workers' residue deltas were merged.  A reply
        still in a pipe from a job the caller abandoned is merged too,
        not dropped.  Workers that do not answer in time are killed.
        Inline slots sync this process's stores, as a worker does at
        ``bye``, and merge nothing.
        """
        if not self._forked:
            sync_all()
            return 0
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
        if self._restarted:  # a dead worker never synced its entries
            from .kernel_cache import default_kernel_cache

            disk = default_kernel_cache().resolve_store()
            if disk is not None:
                disk.sync(since=self._started - 1.0)
        return merged


# -- the ordered map over the pool --------------------------------------------

def _call_job(job: dict) -> dict:
    """Pool handler: one ``(callable, args)`` model job, whose store
    entries the worker syncs at ``bye``."""
    try:
        with group_commit():
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
    order; a job's exception is re-raised here.  A pool of one slot (or
    one that cannot fork) runs the jobs inline, in order — bit-identical,
    the jobs are deterministic.  A worker that dies mid-job raises
    :class:`WorkerDied`; nothing is retried.  Workers report counter
    *deltas* which :meth:`Pool.wait` merges back, so ``diagnostics()``
    keeps counting work that happened in workers.

    ``workers`` overrides the REPRO_WORKERS sizing.
    """
    jobs = list(jobs)
    if workers is None:
        workers = worker_count()
    workers = min(workers, len(jobs))
    results: list = [None] * len(jobs)
    queued = deque(enumerate(jobs))
    idle = list(range(workers))
    running: Dict[int, int] = {}
    job_pool = Pool(workers, _call_job, fork=workers > 1)
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
