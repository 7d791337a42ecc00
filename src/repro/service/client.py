"""Client library for the compile/simulate service.

:class:`ServiceClient` wraps the socket protocol in a synchronous API
and owns the client half of the robustness ladder:

* **Typed errors** — wire error codes become the matching
  :class:`~repro.service.errors.ServiceError` subclass.
* **Retries** — ``BUSY`` (after the server's advertised
  ``retry_after_s``), ``WORKER_CRASH``, and connection-level failures
  (resets, torn frames — including injected ``service.rpc:io`` faults)
  are retried up to ``max_attempts`` times.
* **Seeded backoff** — retry delays come from a
  :class:`BackoffSchedule`: deterministic per ``(seed, site)`` exactly
  like the fault streams in :mod:`repro.faults`, so chaos runs are
  reproducible end to end and tests can assert the exact schedule.
* **Idempotent request keys** — each submit carries a stable
  ``request_id`` across its retries; if the first attempt executed but
  the response was lost, the retry hits the server's idempotency cache
  instead of re-executing.
"""

from __future__ import annotations

import random
import socket
import time
import uuid
from typing import (Any, Dict, FrozenSet, Iterator, Optional, Sequence,
                    Tuple, Type)

import numpy as np

from ..soc import PerfCounters
from . import errors, protocol

#: Transport-level failures where the request may not have executed:
#: always worth a retry (the idempotent request_id makes it safe).
_TRANSIENT_WIRE = (OSError, errors.ProtocolError)


class BackoffSchedule:
    """Deterministic exponential backoff with bounded jitter.

    The delay for attempt ``i`` (0-based) is
    ``min(base * factor**i, max_delay) * (1 + jitter * u_i)`` with
    ``u_i`` drawn from ``random.Random(f"{seed}:{site}")`` — the same
    per-site stream idiom :mod:`repro.faults` uses, so one seed pins
    the whole chaos run: fault points *and* retry timing.
    """

    def __init__(self, seed: int = 0, site: str = "client",
                 base: float = 0.05, factor: float = 2.0,
                 max_delay: float = 2.0, jitter: float = 0.5) -> None:
        self.base = base
        self.factor = factor
        self.max_delay = max_delay
        self.jitter = jitter
        self._rng = random.Random(f"{seed}:{site}")
        self._attempt = 0

    def next_delay(self) -> float:
        delay = min(self.base * self.factor ** self._attempt,
                    self.max_delay)
        delay *= 1.0 + self.jitter * self._rng.random()
        self._attempt += 1
        return delay

    def delays(self, count: int) -> Iterator[float]:
        return (self.next_delay() for _ in range(count))


def retryable(error: Exception,
              transient_types: Tuple[Type[BaseException], ...] = (OSError,),
              code: Optional[str] = None,
              retryable_codes: FrozenSet[str] = frozenset()) -> bool:
    """Classify one failure: is another attempt worth making?

    ``transient_types`` covers transport-level failures where the
    operation may simply not have happened (connection resets, torn
    frames).  ``code`` is an optional application-level error code
    checked against ``retryable_codes`` — the service's ``BUSY`` /
    ``WORKER_CRASH`` taxonomy.  An error matching neither is permanent.
    """
    if code is not None:
        return code in retryable_codes
    return isinstance(error, transient_types)


class ServiceClient:
    """Synchronous client for one :class:`ServiceServer` address."""

    def __init__(self, address: str, seed: int = 0,
                 max_attempts: int = 5,
                 connect_timeout_s: float = 5.0,
                 response_timeout_s: Optional[float] = 60.0,
                 sleep=time.sleep) -> None:
        self.address = address
        self.seed = seed
        self.max_attempts = max(1, max_attempts)
        self.connect_timeout_s = connect_timeout_s
        #: Per-attempt cap on waiting for a response frame.  A lost
        #: response (e.g. an injected ``service.rpc:io`` fault on the
        #: server's send) would otherwise block recv() forever.  The
        #: timed-out retry resends the same ``request_id``: if the
        #: request is still executing it coalesces onto it, if it
        #: completed it hits the idempotency cache — never a second
        #: execution.
        self.response_timeout_s = response_timeout_s
        self._sleep = sleep
        self._sock: Optional[socket.socket] = None

    # -- connection management --------------------------------------------
    def _connect(self) -> socket.socket:
        if self._sock is None:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(self.connect_timeout_s)
            sock.connect(self.address)
            sock.settimeout(None)
            self._sock = sock
        return self._sock

    def _drop_connection(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def close(self) -> None:
        self._drop_connection()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- RPC core ----------------------------------------------------------
    def _roundtrip(self, message: dict,
                   timeout_s: Optional[float] = None) -> dict:
        """One request/response exchange; raises ``OSError`` (including
        ``socket.timeout``) or :class:`~repro.service.errors.ProtocolError`
        on wire failure."""
        sock = self._connect()
        try:
            sock.settimeout(timeout_s if timeout_s is not None
                            else self.response_timeout_s)
            protocol.send_message(sock, message)
            reply = protocol.recv_message(sock)
        except (OSError, errors.ProtocolError):
            self._drop_connection()
            raise
        else:
            sock.settimeout(None)
        if reply is None:
            self._drop_connection()
            raise errors.ProtocolError("server closed the connection")
        return reply

    def _call(self, message: dict, site: str) -> dict:
        """Roundtrip with the retry ladder (see module docstring)."""
        backoff = BackoffSchedule(self.seed, site)
        last_error: Optional[Exception] = None
        for attempt in range(self.max_attempts):
            try:
                reply = self._roundtrip(message)
            except _TRANSIENT_WIRE as exc:
                last_error = exc
                if attempt + 1 < self.max_attempts:
                    self._sleep(backoff.next_delay())
                continue
            if reply.get("status") == "ok":
                return reply
            code = reply.get("code", errors.INTERNAL)
            error = errors.error_from_code(
                code, reply.get("message", ""),
                reply.get("retry_after_s"))
            if not retryable(error, code=code,
                             retryable_codes=errors.RETRYABLE_CODES) \
                    or attempt + 1 >= self.max_attempts:
                raise error
            last_error = error
            delay = backoff.next_delay()
            if error.retry_after_s is not None:
                # BUSY: honor the server's estimate, but keep the
                # seeded jittered component so herds still spread out.
                delay += error.retry_after_s
            self._sleep(delay)
        if isinstance(last_error, errors.ServiceError):
            raise last_error
        raise errors.InternalServiceError(
            f"no response after {self.max_attempts} attempts: "
            f"{last_error!r}")

    # -- public API --------------------------------------------------------
    def submit(self, spec: Dict[str, Any],
               deadline_s: Optional[float] = None,
               request_id: Optional[str] = None) -> dict:
        """Submit one raw spec; returns the full ``ok`` response dict.

        The ``request_id`` is generated once and reused across retries
        so a lost-response retry is idempotent on the server.
        """
        message: Dict[str, Any] = {
            "op": "submit",
            "request_id": request_id or uuid.uuid4().hex,
            "spec": spec,
        }
        if deadline_s is not None:
            message["deadline_s"] = deadline_s
        return self._call(message, site="submit")

    def matmul(self, a: np.ndarray, b: np.ndarray, *, size: int,
               version: int, flow: str = "Ns",
               permutation: Optional[Tuple[str, ...]] = None,
               specialized: bool = True, cpu_tiling: bool = True,
               accel_size: Optional[Tuple[int, int, int]] = None,
               deadline_s: Optional[float] = None,
               ) -> Tuple[PerfCounters, np.ndarray]:
        m, k = a.shape
        k2, n = b.shape
        if k != k2:
            raise errors.BadRequest(
                f"matmul shapes {a.shape} x {b.shape} do not chain")
        spec: Dict[str, Any] = {
            "kind": "matmul", "m": int(m), "n": int(n), "k": int(k),
            "size": size, "version": version, "flow": flow,
            "specialized": specialized, "cpu_tiling": cpu_tiling,
            "inputs": [a, b],
        }
        if permutation is not None:
            spec["permutation"] = list(permutation)
        if accel_size is not None:
            spec["accel_size"] = list(accel_size)
        reply = self.submit(spec, deadline_s=deadline_s)
        return reply["counters"], reply["output"]

    def conv(self, image: np.ndarray, weights: np.ndarray, *,
             stride: int = 1, specialized: bool = True,
             max_slice: Optional[int] = None,
             deadline_s: Optional[float] = None,
             ) -> Tuple[PerfCounters, np.ndarray]:
        batch, in_ch, in_hw, in_hw2 = image.shape
        out_ch, in_ch2, f_hw, f_hw2 = weights.shape
        if in_hw != in_hw2 or f_hw != f_hw2 or in_ch != in_ch2:
            raise errors.BadRequest(
                f"conv shapes {image.shape} x {weights.shape} "
                "do not chain")
        spec: Dict[str, Any] = {
            "kind": "conv", "batch": int(batch), "in_ch": int(in_ch),
            "in_hw": int(in_hw), "out_ch": int(out_ch),
            "f_hw": int(f_hw), "stride": stride,
            "specialized": specialized,
            "inputs": [image, weights],
        }
        if max_slice is not None:
            spec["max_slice"] = max_slice
        reply = self.submit(spec, deadline_s=deadline_s)
        return reply["counters"], reply["output"]

    def warmup(self, specs: Sequence[Dict[str, Any]],
               request_id: Optional[str] = None) -> list:
        """Prebuild the cold-path artifacts for ``specs`` on the server.

        ``specs`` use the same vocabulary as :meth:`submit` minus the
        ``inputs`` (the server synthesizes deterministic placeholders —
        plans are keyed by shape and configuration, never input
        values).  Returns one ``{"ok": ...}`` summary per spec; a
        failed spec reports its error there instead of failing the
        whole warmup.  Issue this once at deploy time so first-request
        tails hit a warm store.
        """
        message: Dict[str, Any] = {
            "op": "warmup",
            "request_id": request_id or uuid.uuid4().hex,
            "specs": list(specs),
        }
        return self._call(message, site="warmup")["results"]

    def health(self) -> dict:
        return self._call({"op": "health"}, site="health")["health"]

    def stats(self) -> dict:
        reply = self._call({"op": "stats"}, site="stats")
        return {"health": reply["health"],
                "diagnostics": reply["diagnostics"]}
