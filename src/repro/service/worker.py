"""Worker-side execution of compile/simulate requests.

:func:`run_request` is the *only* execution path: the server's pool
workers call it, and "direct in-process execution" (the stress tests'
bit-identity baseline) is literally the same function — so a result
served over the socket can only differ from a local run if the wire
codec breaks, which the protocol tests pin.  What it adds to
:func:`repro.experiments.harness.compile_request` (the one builder the
figures and the sweep use too) is the edge: every field is type- and
range-checked here, and a malformed one is ``BAD_REQUEST``, never a
wrong answer or an ``INTERNAL`` traceback.

A ``warmup`` RPC runs :func:`warmup_job` once per spec, through
:func:`repro.pool.run_model_jobs`: the spec on zero inputs, so its
kernel, trace and plan land in the shared store before real requests
ask for them.

The server's pool workers (:mod:`repro.pool`) run :func:`worker_job`:
jobs carry a decoded spec and its deadline; :func:`execute_job` turns
the outcome into reply fields, and the pool adds the counter delta.  A
store or native-compile failure degrades inside the request that meets
it.  On platforms without fork the server calls :func:`execute_job` in
its own thread.

The ``service.worker:crash`` fault site fires at the top of each
worker job and terminates the process with ``os._exit`` — the hardest
failure a worker can produce short of SIGKILL — so the parent's
crash-detection, deterministic-restart, and requeue ladder is
chaos-testable.
"""

from __future__ import annotations

import os
import time
import traceback
from typing import Any, Dict, Optional, Tuple

import numpy as np

from .. import faults
from ..soc import PerfCounters
from . import errors

#: Exit code of an injected worker crash (tests assert on it).
CRASH_EXIT_CODE = 17


class DeadlineExceeded(errors.ServiceTimeout):
    """Cooperative cancellation: the request's deadline passed."""


def _check_deadline(deadline: Optional[float], stage: str) -> None:
    """Cancellation checkpoint between pipeline stages.

    Deadlines are absolute wall-clock (``time.time()``) so client,
    server, and worker — separate processes — agree on them.
    """
    if deadline is not None and time.time() >= deadline:
        raise DeadlineExceeded(
            f"deadline expired before {stage} (cooperative cancellation)"
        )


def _require(spec: Dict[str, Any], name: str, kind=int):
    """``spec[name]`` checked against ``kind``; every numeric field is a
    size, count or stride, so an ``int`` must also be positive, and only
    a JSON boolean is a ``bool`` (``"false"`` is a string)."""
    value = spec.get(name)
    if isinstance(value, bool) != (kind is bool) \
            or not isinstance(value, kind):
        raise errors.BadRequest(
            f"spec field {name!r} must be {kind.__name__}, "
            f"got {type(value).__name__}"
        )
    if kind is int and value < 1:
        raise errors.BadRequest(
            f"spec field {name!r} must be positive, got {value}")
    return value


def _checked_shapes(spec: Dict[str, Any]):
    """Edge validation of every field
    :func:`~repro.experiments.harness.compile_request` reads; then the
    spec's :func:`~repro.experiments.harness.request_shapes`."""
    from ..experiments.harness import request_shapes

    kind = spec.get("kind")
    if kind == "matmul":
        for name in ("m", "n", "k", "size", "version"):
            _require(spec, name)
        _require(spec, "flow", str)
        accel_size = spec.get("accel_size")
        if accel_size is not None and not (
                isinstance(accel_size, (list, tuple)) and len(accel_size) == 3
                and all(type(value) is int and value > 0
                        for value in accel_size)):
            raise errors.BadRequest(
                "spec field 'accel_size' must be three positive ints")
        permutation = spec.get("permutation")
        if permutation is not None and not (
                isinstance(permutation, (list, tuple))
                and sorted(map(str, permutation)) == ["k", "m", "n"]):
            raise errors.BadRequest(
                "spec field 'permutation' must order 'm', 'n' and 'k'")
    elif kind == "conv":
        for name in ("batch", "in_ch", "in_hw", "out_ch", "f_hw"):
            _require(spec, name)
        if "stride" in spec:
            _require(spec, "stride")
        if spec.get("max_slice") is not None:
            _require(spec, "max_slice")
        if spec.get("permutation") is not None:
            raise errors.BadRequest(
                "spec field 'permutation' applies to matmul only")
        if spec["f_hw"] > spec["in_hw"]:
            raise errors.BadRequest("conv filter larger than its input")
    else:
        raise errors.BadRequest(f"unknown kernel kind {kind!r}")
    for name in ("cpu_tiling", "specialized"):
        if name in spec:
            _require(spec, name, bool)
    return request_shapes(spec)


def _input_arrays(spec: Dict[str, Any], shapes) -> list:
    arrays = spec.get("inputs")
    if not isinstance(arrays, (list, tuple)) or len(arrays) != len(shapes):
        raise errors.BadRequest(
            f"spec needs exactly {len(shapes)} input arrays"
        )
    checked = []
    for index, (array, shape) in enumerate(zip(arrays, shapes)):
        if not isinstance(array, np.ndarray):
            raise errors.BadRequest(f"input {index} is not an array")
        if not np.issubdtype(array.dtype, np.integer):
            raise errors.BadRequest(
                f"input {index} has dtype {array.dtype}; "
                "inputs must be integer arrays")
        if tuple(array.shape) != tuple(shape):
            raise errors.BadRequest(
                f"input {index} has shape {tuple(array.shape)}, "
                f"expected {tuple(shape)}"
            )
        checked.append(
            np.ascontiguousarray(array.astype(np.int32, copy=False)))
    return checked


def run_request(spec: Dict[str, Any],
                deadline: Optional[float] = None
                ) -> Tuple[PerfCounters, np.ndarray]:
    """Execute one request spec; returns ``(counters, output)``.

    ``spec`` is the decoded request: ``kind`` (``"matmul"`` /
    ``"conv"``), the kernel shape, the accelerator configuration
    (``version``/``size``/``flow``/``accel_size``), the lowering knobs
    (``permutation``/``cpu_tiling``/``specialized``), and ``inputs``.
    The fields are checked here, at the edge (a malformed one is
    ``BAD_REQUEST``); building and running the kernel is
    :func:`repro.experiments.harness.compile_request`'s, on a fresh
    board per request, so results are deterministic and independent of
    whatever the worker ran before — the property the bit-identity
    acceptance test leans on.
    """
    from ..experiments.harness import compile_request

    input_shapes, _ = _checked_shapes(spec)
    inputs = _input_arrays(spec, input_shapes)
    _check_deadline(deadline, "compile")
    request = compile_request(spec)
    _check_deadline(deadline, "simulation")
    return request.run(inputs)


def warmup_job(spec: Dict[str, Any]) -> Dict[str, Any]:
    """One spec of a ``warmup`` RPC: run it on zero inputs.

    Every artifact the run persists (kernel, trace, plan) is keyed by
    shape and configuration, never by input values, so zero inputs warm
    exactly the entries real data will hit.  A failure is this spec's
    data, not the warmup's: the rest still warm.  Runs as a
    :func:`repro.pool.run_model_jobs` job, so a worker's counter delta
    merges back into the server's diagnostics.
    """
    try:
        input_shapes, _ = _checked_shapes(spec)
        counters, _ = run_request(dict(spec, inputs=[
            np.zeros(shape, np.int32) for shape in input_shapes]))
    except Exception as exc:  # noqa: BLE001 — summarised for the caller
        return {"ok": False, "kind": spec.get("kind"),
                "error": f"{type(exc).__name__}: {exc}"}
    return {"ok": True, "kind": spec.get("kind"),
            "cycles": int(counters.cpu_cycles)}


# -- the pool job ----------------------------------------------------------

def execute_job(job: Dict[str, Any]) -> Dict[str, Any]:
    """Run one job's request; the outcome as reply fields."""
    try:
        counters, output = run_request(job["spec"], job.get("deadline"))
    except errors.ServiceError as exc:
        return {"ok": False, "code": exc.code, "message": str(exc)}
    except Exception:
        return {"ok": False, "code": errors.INTERNAL,
                "message": traceback.format_exc(limit=8)}
    return {"ok": True, "counters": counters, "output": output}


def worker_job(job: Dict[str, Any]) -> Dict[str, Any]:
    """Pool handler: the injected-crash rule, then :func:`execute_job`."""
    if faults.fires("service.worker") == "crash":
        # The chaos profile's hard worker death: skip every Python
        # cleanup layer so the parent sees exactly what a segfault
        # or OOM kill would produce.
        os._exit(CRASH_EXIT_CODE)
    return execute_job(job)
