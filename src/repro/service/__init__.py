"""Multi-tenant compile/simulate service (server + client).

The service turns the in-process experiment pipeline into a long-lived
shared resource: one :class:`~repro.service.server.ServiceServer`
owns a pool of forked workers sharing the kernel store, and any number
of :class:`~repro.service.client.ServiceClient` processes submit
matmul/conv requests over a Unix socket, getting back ``PerfCounters``
and outputs bit-identical to a local run.  See the submodule
docstrings for the robustness ladder each layer contributes.

Run a standalone server with ``python -m repro.service``.
"""

from .breaker import CircuitBreaker
from .client import BackoffSchedule, ServiceClient
from .errors import (
    BadRequest,
    InternalServiceError,
    ProtocolError,
    RETRYABLE_CODES,
    ServiceBusy,
    ServiceError,
    ServiceShuttingDown,
    ServiceTimeout,
    WorkerCrashed,
)
from .server import SERVICE_COUNTERS, ServiceServer
from .worker import run_request

__all__ = [
    "BackoffSchedule",
    "BadRequest",
    "CircuitBreaker",
    "InternalServiceError",
    "ProtocolError",
    "RETRYABLE_CODES",
    "SERVICE_COUNTERS",
    "ServiceBusy",
    "ServiceClient",
    "ServiceError",
    "ServiceServer",
    "ServiceShuttingDown",
    "ServiceTimeout",
    "WorkerCrashed",
    "run_request",
]
