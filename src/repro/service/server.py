"""The multi-tenant compile/simulate server.

One long-lived process owns a listener socket, a bounded admission
queue, and a :class:`repro.pool.Pool` of forked workers sharing the
on-disk :class:`~repro.store.KernelStore` (``REPRO_KERNEL_CACHE_DIR``).
Clients submit kernel requests (:mod:`repro.service.protocol`) and get
back ``PerfCounters`` + outputs bit-identical to a local run.

The robustness ladder, top to bottom:

* **Deadlines** — every request carries one (``deadline_s``, default
  ``REPRO_SERVICE_TIMEOUT_S``).  Expired-while-queued requests are shed
  without touching a worker; expired-while-executing requests get a
  ``TIMEOUT`` response immediately while the worker cancels
  cooperatively at its next stage boundary.  A worker that blows
  through the cooperative grace window is killed and restarted.
* **Backpressure** — the admission queue is bounded
  (``REPRO_SERVICE_QUEUE_MAX``); an overflowing submit is answered
  with a structured ``BUSY`` + ``retry_after_s`` instead of stalling
  the socket, so load sheds at the edge.
* **Single-flight coalescing** — identical in-flight requests (same
  spec digest, inputs included) execute once; followers receive the
  leader's response.  The computation is deterministic, so this is
  observationally identical and strictly cheaper.
* **Idempotency** — completed ``request_id``s are remembered (LRU);
  a client retrying because a *response* was lost gets the cached
  result instead of a re-execution.
* **Circuit breakers** — consecutive store-I/O or native-compile
  failures open a breaker (:mod:`repro.service.breaker`); requests
  then run with that seam pre-disabled (memory-only compile / every
  kernel per tile — bit-identical rungs) until a half-open probe heals
  it.
* **Crash recovery** — a worker death (including injected
  ``service.worker:crash`` faults) is detected on its pipe, the worker
  is restarted deterministically, and the request is requeued at the
  front of the queue; past the requeue budget the client gets
  ``WORKER_CRASH``.
* **Graceful drain** — :meth:`ServiceServer.drain` (SIGTERM in the
  ``python -m repro.service`` runner) stops admissions, finishes every
  in-flight request, and runs the pool's shutdown handshake, which
  merges each worker's final counter delta into
  :func:`repro.execution.diagnostics` (:meth:`repro.pool.Pool.shutdown`).

``health``/``stats`` RPCs expose queue depth, breaker states, fault
counters, and the full diagnostics bundle for observability.
"""

from __future__ import annotations

import collections
import os
import socket
import shutil
import tempfile
import threading
import time
import uuid
from typing import Any, Dict, List, Optional, Tuple

from .. import counters, faults, pool
from ..envutil import env_float, env_int
from ..pool import MODEL_PLAN_COUNTERS
from . import errors, protocol
from .breaker import SeamBreakers
from .worker import execute_job, warmup_job, worker_job

#: Env knobs (see README switch matrix; the pool size is
#: ``repro.pool.WORKERS_ENV``).
QUEUE_MAX_ENV = "REPRO_SERVICE_QUEUE_MAX"
TIMEOUT_ENV = "REPRO_SERVICE_TIMEOUT_S"

_DEFAULT_QUEUE_MAX = 32
_DEFAULT_TIMEOUT_S = 60.0

#: Grace period for cooperative cancellation: how long after a
#: deadline expiry the dispatcher waits for the worker to abort at a
#: stage boundary before killing and restarting it.
_KILL_GRACE_S = 10.0

#: Times a request is requeued after worker crashes before the client
#: sees WORKER_CRASH (so a single unlucky crash never fails a request).
_MAX_ATTEMPTS = 3

#: Completed request_id -> response LRU (idempotent retries).
_IDEMPOTENCY_LRU = 64

#: Process-wide service event counters, surfaced via
#: ``repro.execution.diagnostics()["service"]`` and the health RPC.
SERVICE_COUNTERS: Dict[str, int] = counters.section("service", {
    "service_requests": 0,        # submits admitted into the queue
    "service_ok": 0,              # successful responses
    "service_errors": 0,          # error responses (all codes)
    "service_coalesced": 0,       # submits served by an in-flight leader
    "service_idempotent_hits": 0, # submits served from the response LRU
    "service_shed_busy": 0,       # submits answered BUSY at admission
    "service_timeouts": 0,        # deadline expiries (queued + executing)
    "service_worker_crashes": 0,  # worker deaths observed
    "service_requeues": 0,        # requests requeued after a crash
    "service_worker_restarts": 0, # workers restarted (crash or hang)
    "service_workers_merged": 0,  # drain-time worker deltas merged
    "service_rpc_errors": 0,      # connection-level failures observed
    "service_warmups": 0,         # warmup RPCs accepted
})


def _count(key: str, amount: int = 1) -> None:
    counters.count(SERVICE_COUNTERS, key, amount)


class _Connection:
    """One accepted client socket plus its write lock.

    Reader thread and dispatcher threads both write responses; the
    lock keeps frames whole.
    """

    __slots__ = ("sock", "lock")

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.lock = threading.Lock()

    def respond(self, message: dict) -> bool:
        try:
            with self.lock:
                protocol.send_message(self.sock, message)
            return True
        except (OSError, errors.ProtocolError):
            _count("service_rpc_errors")
            return False


class _Pending:
    """One admitted request: the leader plus coalesced followers."""

    __slots__ = ("spec", "digest", "deadline", "attempts", "waiters",
                 "responded")

    def __init__(self, spec: dict, digest: str, deadline: float) -> None:
        self.spec = spec
        self.digest = digest
        self.deadline = deadline
        self.attempts = 0
        #: [(connection, request_id)] — leader first.
        self.waiters: List[Tuple[_Connection, str]] = []
        self.responded = False


class ServiceServer:
    """The long-lived compile/simulate service (see module docstring).

    Construct, :meth:`start`, hand :attr:`address` to clients, and
    :meth:`drain` when done.  ``workers``, ``queue_max`` and
    ``timeout_s`` fall back to their environment variables, then to
    defaults.
    """

    def __init__(self, socket_path: Optional[str] = None,
                 workers: Optional[int] = None,
                 queue_max: Optional[int] = None,
                 timeout_s: Optional[float] = None,
                 breaker_threshold: int = 3,
                 breaker_cooldown_s: float = 1.0) -> None:
        self.socket_path = socket_path
        self.workers = workers if workers is not None \
            else pool.worker_count()
        self.queue_max = queue_max if queue_max is not None else env_int(
            QUEUE_MAX_ENV, _DEFAULT_QUEUE_MAX, minimum=1)
        self.timeout_s = timeout_s if timeout_s is not None else env_float(
            TIMEOUT_ENV, _DEFAULT_TIMEOUT_S, minimum=0.001)
        self.breakers = SeamBreakers(breaker_threshold, breaker_cooldown_s)

        self._cond = threading.Condition()
        self._queue: "collections.deque[_Pending]" = collections.deque()
        self._inflight: Dict[str, _Pending] = {}
        self._completed: "collections.OrderedDict[str, dict]" = \
            collections.OrderedDict()
        self._executing = 0
        self._draining = False
        self._stopping = False
        self._stopped = False
        self._listener: Optional[socket.socket] = None
        self._threads: List[threading.Thread] = []
        #: None until :meth:`start`, and for good on platforms without
        #: fork — dispatchers then run jobs inline (a ladder rung).
        self._pool: Optional[pool.Pool] = None
        #: The pool's live slot list (``None`` entries without fork).
        self._handles: List[Optional[pool.Worker]] = [None] * self.workers
        self._tmpdir: Optional[str] = None

    # -- lifecycle ---------------------------------------------------------
    @property
    def address(self) -> str:
        if self.socket_path is None:
            raise RuntimeError("server not started")
        return self.socket_path

    def start(self) -> "ServiceServer":
        if self.socket_path is None:
            self._tmpdir = tempfile.mkdtemp(prefix="repro-service-")
            self.socket_path = os.path.join(self._tmpdir, "service.sock")
        # The listener and every accepted connection are close-on-fork:
        # a pool worker forked (or restarted) while they are open must
        # not keep them open, or a connection this process closes never
        # reaches EOF at its client while that worker lives.
        self._listener = counters.close_on_fork(
            socket.socket(socket.AF_UNIX, socket.SOCK_STREAM))
        self._listener.bind(self.socket_path)
        self._listener.listen(128)
        if pool.fork_available():
            self._pool = pool.Pool(self.workers, worker_job)
            self._handles = self._pool.workers
        for index in range(self.workers):
            thread = threading.Thread(target=self._dispatch_loop,
                                      args=(index,), daemon=True,
                                      name=f"service-dispatch-{index}")
            thread.start()
            self._threads.append(thread)
        acceptor = threading.Thread(target=self._accept_loop, daemon=True,
                                    name="service-accept")
        acceptor.start()
        self._threads.append(acceptor)
        return self

    def drain(self, timeout_s: float = 60.0) -> dict:
        """Graceful shutdown: finish in-flight work, merge worker deltas.

        Returns a summary dict (final service counters + queue state).
        Idempotent; safe to call from a signal handler's main thread.
        """
        with self._cond:
            already = self._stopped
            self._draining = True
            self._cond.notify_all()
        self._close_listener()
        if already:
            return self._summary()
        deadline = time.monotonic() + timeout_s
        with self._cond:
            while (self._queue or self._executing) \
                    and time.monotonic() < deadline:
                self._cond.wait(timeout=0.1)
            self._stopping = True
            self._cond.notify_all()
        for thread in self._threads:
            if thread is not threading.current_thread():
                thread.join(timeout=5)
        # Dispatchers are parked; the pipes are ours now.
        if self._pool is not None:
            merged = self._pool.shutdown()
            _count("service_workers_merged", merged)
            MODEL_PLAN_COUNTERS["model_plan_workers"] += merged
        with self._cond:
            self._stopped = True
        return self._summary()

    def _close_listener(self) -> None:
        if self._listener is not None:
            # close() alone does not wake a thread blocked in accept();
            # shutdown() does, so drain's join returns at once.
            try:
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # already shut down: drain is idempotent
            try:
                self._listener.close()
            except OSError:
                pass
        if self.socket_path and os.path.exists(self.socket_path):
            try:
                os.unlink(self.socket_path)
            except OSError:
                pass
        if self._tmpdir is not None:  # start() made it for the socket
            shutil.rmtree(self._tmpdir, ignore_errors=True)

    def _summary(self) -> dict:
        with self._cond:
            queued, executing = len(self._queue), self._executing
        return {
            "counters": counters.read(SERVICE_COUNTERS),
            "queued": queued,
            "executing": executing,
            "breakers": self.breakers.snapshot(),
        }

    # -- accept / read -----------------------------------------------------
    def _accept_loop(self) -> None:
        while True:
            try:
                sock, _ = self._listener.accept()
            except OSError:
                return  # listener closed: draining
            connection = _Connection(counters.close_on_fork(sock))
            thread = threading.Thread(target=self._read_loop,
                                      args=(connection,), daemon=True)
            thread.start()

    def _read_loop(self, connection: _Connection) -> None:
        try:
            while True:
                try:
                    message = protocol.recv_message(connection.sock)
                except (errors.ProtocolError, OSError):
                    _count("service_rpc_errors")
                    return
                if message is None:
                    return
                self._handle_message(connection, message)
        finally:
            try:
                connection.sock.close()
            except OSError:
                pass

    def _handle_message(self, connection: _Connection,
                        message: dict) -> None:
        op = message.get("op")
        request_id = message.get("request_id") or uuid.uuid4().hex
        if op == "health":
            connection.respond({"request_id": request_id, "status": "ok",
                                "health": self.health()})
        elif op == "stats":
            from ..execution import diagnostics

            connection.respond({"request_id": request_id, "status": "ok",
                                "health": self.health(),
                                "diagnostics": diagnostics()})
        elif op == "submit":
            self._handle_submit(connection, request_id, message)
        elif op == "warmup":
            self._handle_warmup(connection, request_id, message)
        else:
            self._respond_error(connection, request_id,
                                errors.BAD_REQUEST,
                                f"unknown op {op!r}")

    # -- warmup ------------------------------------------------------------
    def _handle_warmup(self, connection: _Connection, request_id: str,
                       message: dict) -> None:
        """Pay the cold path (compile, trace, plan) for a list of specs.

        Each spec is one :func:`~repro.service.worker.warmup_job` on
        :func:`repro.pool.run_model_jobs`; each run persists its
        kernel/trace/MetricsPlan into the shared store, so later
        ``submit`` requests for the same shapes are warm hits in the
        request workers, and the jobs' counter deltas merge into this
        process's diagnostics.  Runs inline on this connection's reader
        thread — it blocks only this client, never the dispatchers —
        and per-spec failures come back as data, not an error reply.
        """
        specs = message.get("specs")
        if not isinstance(specs, (list, tuple)) \
                or not all(isinstance(spec, dict) for spec in specs):
            self._respond_error(connection, request_id,
                                errors.BAD_REQUEST,
                                "warmup needs a list of spec dicts")
            return
        with self._cond:
            draining = self._draining
        if draining:
            self._respond_error(connection, request_id,
                                errors.SHUTTING_DOWN, "draining")
            return
        _count("service_warmups")
        results = pool.run_model_jobs(
            [(warmup_job, (spec,)) for spec in specs])
        connection.respond({"request_id": request_id, "status": "ok",
                            "results": results})

    # -- admission ---------------------------------------------------------
    def _handle_submit(self, connection: _Connection, request_id: str,
                       message: dict) -> None:
        spec = message.get("spec")
        if not isinstance(spec, dict):
            self._respond_error(connection, request_id,
                                errors.BAD_REQUEST, "missing spec")
            return
        deadline_s = message.get("deadline_s")
        if deadline_s is None:
            deadline_s = self.timeout_s
        if not isinstance(deadline_s, (int, float)) or deadline_s <= 0:
            self._respond_error(connection, request_id,
                                errors.BAD_REQUEST,
                                f"bad deadline_s {deadline_s!r}")
            return
        digest = protocol.canonical_spec_digest(spec)
        # Decide under the lock, respond outside it: a slow client
        # socket must never stall dispatchers waiting on the condition.
        cached = None
        verdict = None
        retry_after = None
        with self._cond:
            cached = self._completed.get(request_id)
            if cached is not None:
                self._completed.move_to_end(request_id)
                _count("service_idempotent_hits")
            elif self._draining:
                verdict = errors.SHUTTING_DOWN
            elif digest in self._inflight:
                self._inflight[digest].waiters.append(
                    (connection, request_id))
                _count("service_coalesced")
                return
            else:
                depth = len(self._queue)
                if depth >= self.queue_max \
                        or faults.fires("service.queue") == "full":
                    verdict = errors.BUSY
                    retry_after = round(
                        0.05 * (1.0 + depth / max(1, self.workers)), 3)
                    _count("service_shed_busy")
                else:
                    pending = _Pending(spec, digest,
                                       time.time() + float(deadline_s))
                    pending.waiters.append((connection, request_id))
                    self._inflight[digest] = pending
                    self._queue.append(pending)
                    _count("service_requests")
                    self._cond.notify()
                    return
        if cached is not None:
            connection.respond({**cached, "request_id": request_id,
                                "idempotent": True})
        elif verdict == errors.SHUTTING_DOWN:
            self._respond_error(connection, request_id,
                                errors.SHUTTING_DOWN,
                                "server is draining")
        elif verdict == errors.BUSY:
            self._respond_error(
                connection, request_id, errors.BUSY,
                "admission queue full",
                retry_after_s=retry_after)

    # -- responses ---------------------------------------------------------
    def _respond_error(self, connection: _Connection, request_id: str,
                       code: str, message_text: str,
                       retry_after_s: Optional[float] = None) -> None:
        _count("service_errors")
        payload: Dict[str, Any] = {"request_id": request_id,
                                   "status": "error", "code": code,
                                   "message": message_text}
        if retry_after_s is not None:
            payload["retry_after_s"] = retry_after_s
        connection.respond(payload)

    def _finish(self, pending: _Pending, payload: dict,
                cache: bool = True) -> None:
        """Respond to the leader and every coalesced follower."""
        with self._cond:
            if self._inflight.get(pending.digest) is pending:
                del self._inflight[pending.digest]
            if pending.responded:
                return
            pending.responded = True
            waiters = list(pending.waiters)
            if cache:
                for _, request_id in waiters:
                    self._completed[request_id] = payload
                while len(self._completed) > _IDEMPOTENCY_LRU:
                    self._completed.popitem(last=False)
        ok = payload.get("status") == "ok"
        _count("service_ok" if ok else "service_errors", len(waiters))
        for connection, request_id in waiters:
            connection.respond({**payload, "request_id": request_id})

    # -- dispatch ----------------------------------------------------------
    def _next_pending(self) -> Optional[_Pending]:
        with self._cond:
            while True:
                if self._stopping:
                    return None
                if self._queue:
                    pending = self._queue.popleft()
                    self._executing += 1
                    return pending
                self._cond.wait(timeout=0.5)

    def _done_executing(self) -> None:
        with self._cond:
            self._executing -= 1
            self._cond.notify_all()

    def _requeue_front(self, pending: _Pending) -> None:
        with self._cond:
            self._queue.appendleft(pending)
            self._cond.notify()

    def _dispatch_loop(self, index: int) -> None:
        while True:
            pending = self._next_pending()
            if pending is None:
                return
            try:
                self._dispatch_one(index, pending)
            finally:
                self._done_executing()

    def _dispatch_one(self, index: int, pending: _Pending) -> None:
        if time.time() >= pending.deadline:
            _count("service_timeouts")
            self._finish(pending, {
                "status": "error", "code": errors.TIMEOUT,
                "message": "deadline expired while queued",
            }, cache=False)
            return
        pending.attempts += 1
        flags, verdicts = self.breakers.admit()
        job = {"spec": pending.spec, "deadline": pending.deadline, **flags}
        reply = self._run_job(index, job, pending)
        if reply is None:
            # Worker crashed mid-request: restart the slot and requeue
            # (or fail) the request.
            _count("service_worker_crashes")
            if not self._stopping:
                # Restart eagerly, not at the next dispatch: the pool
                # keeps its capacity, and a crash on a slot's *last*
                # job doesn't leave the slot dead at drain time (its
                # replacement's delta still gets merged).
                self._pool.restart(index)
                _count("service_worker_restarts")
            if pending.responded:
                return
            if pending.attempts < _MAX_ATTEMPTS:
                _count("service_requeues")
                self._requeue_front(pending)
                return
            self._finish(pending, {
                "status": "error", "code": errors.WORKER_CRASH,
                "message": f"worker died {pending.attempts} times "
                           "running this request",
            }, cache=False)
            return
        self.breakers.settle(verdicts, reply)
        if reply.get("ok"):
            self._finish(pending, {
                "status": "ok",
                "counters": reply.get("counters"),
                "output": reply.get("output"),
                "worker": reply.get("worker", index),
            })
        else:
            code = reply.get("code", errors.INTERNAL)
            if code == errors.TIMEOUT:
                _count("service_timeouts")
            self._finish(pending, {
                "status": "error", "code": code,
                "message": reply.get("message", "worker error"),
            }, cache=False)

    def _run_job(self, index: int, job: dict,
                 pending: _Pending) -> Optional[dict]:
        """Execute one job on the slot's worker; None = worker crashed.

        Handles the deadline-while-executing case: the waiters get a
        TIMEOUT response the moment the deadline passes, then the
        worker gets a cooperative-cancellation grace window before the
        slot is recycled.
        """
        if self._pool is None:
            # No-fork platforms: run the job in this thread (a ladder
            # rung).  Counters advance directly in this process, so
            # there is no delta to merge.
            reply = pool.run_seamed(execute_job, job)
            reply["worker"] = -1
            return reply
        self._pool.submit(index, job)
        timed_out = False
        while True:
            remaining = pending.deadline - time.time()
            if not timed_out and remaining <= 0:
                _count("service_timeouts")
                self._finish(pending, {
                    "status": "error", "code": errors.TIMEOUT,
                    "message": "deadline expired during execution "
                               "(cooperative cancellation)",
                }, cache=False)
                timed_out = True
            wait = _KILL_GRACE_S if timed_out else max(0.01, remaining)
            events = self._pool.wait([index], wait)
            if events:
                return events[0][1]
            if timed_out:
                # The worker ignored its cooperative checkpoints for a
                # whole grace window: recycle the slot.
                return None

    # -- observability -----------------------------------------------------
    def health(self) -> dict:
        with self._cond:
            queued, executing = len(self._queue), self._executing
            draining = self._draining
        return {
            "status": "draining" if draining else "ok",
            "queue_depth": queued,
            "queue_max": self.queue_max,
            "executing": executing,
            "workers": self.workers,
            "breakers": self.breakers.snapshot(),
            "counters": counters.read(SERVICE_COUNTERS),
            "faults": counters.read(faults.FAULT_COUNTERS),
        }
