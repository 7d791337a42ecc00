"""Circuit breakers for the service's two fallible infrastructure seams.

The execution pipeline already degrades gracefully *per call* (a store
I/O error falls back to a redundant compile, a native-compile failure
to the Python kernels).  A breaker adds the cross-request memory real
serving systems need: after ``threshold`` consecutive failures of a
seam the breaker *opens* and subsequent requests run with that seam
pre-disabled — the known-good degradation rung — instead of paying the
failure latency every time.  After ``cooldown_s`` the breaker goes
*half-open* and exactly one probe request re-enables the seam; its
outcome closes the breaker or re-opens it for another cooldown.

Because every rung is bit-identical by the PR 6 guarantees, a breaker
can only ever change *latency*, never results — which is what makes it
safe to trip on probabilistic evidence.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Tuple

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


class CircuitBreaker:
    """One seam's breaker; thread-safe, monotonic-clock based."""

    def __init__(self, name: str, threshold: int = 3,
                 cooldown_s: float = 1.0) -> None:
        self.name = name
        self.threshold = max(1, threshold)
        self.cooldown_s = cooldown_s
        self._lock = threading.Lock()
        self._state = CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probe_in_flight = False
        self._trips = 0

    # -- dispatch-side ----------------------------------------------------
    def allow(self) -> Dict[str, bool]:
        """Decide one request's use of the seam.

        Returns ``{"enabled": ..., "probe": ...}``: ``enabled`` is
        whether the request should use the seam (False = run on the
        degradation rung), ``probe`` marks the single half-open trial
        request whose outcome will close or re-open the breaker.
        """
        with self._lock:
            if self._state == CLOSED:
                return {"enabled": True, "probe": False}
            if self._state == OPEN and \
                    time.monotonic() - self._opened_at >= self.cooldown_s:
                self._state = HALF_OPEN
                self._probe_in_flight = False
            if self._state == HALF_OPEN and not self._probe_in_flight:
                self._probe_in_flight = True
                return {"enabled": True, "probe": True}
            return {"enabled": False, "probe": False}

    # -- outcome-side -----------------------------------------------------
    def record(self, ok: bool, probe: bool = False) -> None:
        """Feed one request's seam outcome back into the state machine.

        Outcomes of requests that ran with the seam disabled must not
        be reported — they carry no evidence about the seam.
        """
        with self._lock:
            if probe:
                self._probe_in_flight = False
                if ok:
                    self._state = CLOSED
                    self._consecutive_failures = 0
                else:
                    self._state = OPEN
                    self._opened_at = time.monotonic()
                    self._trips += 1
                return
            if ok:
                self._consecutive_failures = 0
                return
            self._consecutive_failures += 1
            if self._state == CLOSED \
                    and self._consecutive_failures >= self.threshold:
                self._state = OPEN
                self._opened_at = time.monotonic()
                self._trips += 1

    # -- observability ----------------------------------------------------
    @property
    def state(self) -> str:
        with self._lock:
            if self._state == OPEN and \
                    time.monotonic() - self._opened_at >= self.cooldown_s:
                return HALF_OPEN
            return self._state

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "state": self._state,
                "consecutive_failures": self._consecutive_failures,
                "trips": self._trips,
                "threshold": self.threshold,
                "cooldown_s": self.cooldown_s,
            }


class SeamBreakers:
    """A supervisor's store and native breakers, consulted as a pair.

    The handshake around one pool job (the service's requests, the
    sweep's points): :meth:`admit` before dispatch, :meth:`settle` with
    the reply — or not at all when the worker died, which says nothing
    about either seam.
    """

    def __init__(self, threshold: int, cooldown_s: float) -> None:
        self.store = CircuitBreaker("store", threshold, cooldown_s)
        self.native = CircuitBreaker("native", threshold, cooldown_s)

    def admit(self) -> Tuple[Dict[str, bool], Dict[str, dict]]:
        """Decide one job's use of both seams.

        Returns ``(flags, verdicts)``: ``flags`` are the job fields
        :func:`repro.pool.run_seamed` reads (``disable_store`` /
        ``disable_native``), ``verdicts`` goes back into
        :meth:`settle`.
        """
        verdicts = {"store": self.store.allow(),
                    "native": self.native.allow()}
        flags = {"disable_" + seam: not verdict["enabled"]
                 for seam, verdict in verdicts.items()}
        return flags, verdicts

    def settle(self, verdicts: Dict[str, dict], reply: dict) -> None:
        """Feed one reply's seam evidence (``store_failures``,
        ``native_ok``) back.  Only an enabled seam carries evidence: a
        job that ran with a seam disabled says nothing about its
        health."""
        if verdicts["store"]["enabled"]:
            self.store.record(reply["store_failures"] == 0,
                              probe=verdicts["store"]["probe"])
        if verdicts["native"]["enabled"]:
            self.native.record(reply["native_ok"],
                               probe=verdicts["native"]["probe"])

    def snapshot(self) -> dict:
        return {"store": self.store.snapshot(),
                "native": self.native.snapshot()}
