"""Worker-side execution of compile/simulate requests.

:func:`run_request` is the *only* execution path: the server's pool
workers call it, and "direct in-process execution" (the stress tests'
bit-identity baseline) is literally the same function — so a result
served over the socket can only differ from a local run if the wire
codec breaks, which the protocol tests pin.

The server's pool workers (:mod:`repro.pool`) run :func:`worker_job`:
jobs carry a decoded spec plus per-request degradation flags (store /
native seams pre-disabled when the server's circuit breakers are
open); :func:`execute_job` turns the outcome into reply fields, and
the pool adds the seam evidence and the counter delta.  On platforms
without fork the server calls :func:`execute_job` in its own thread.

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
from ..soc import PerfCounters, make_pynq_z2
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
    size, count or stride, so an ``int`` must also be positive."""
    value = spec.get(name)
    if isinstance(value, bool) or not isinstance(value, kind):
        raise errors.BadRequest(
            f"spec field {name!r} must be {kind.__name__}, "
            f"got {type(value).__name__}"
        )
    if kind is int and value < 1:
        raise errors.BadRequest(
            f"spec field {name!r} must be positive, got {value}")
    return value


def _input_arrays(spec: Dict[str, Any], shapes, dtype) -> list:
    arrays = spec.get("inputs")
    if not isinstance(arrays, (list, tuple)) or len(arrays) != len(shapes):
        raise errors.BadRequest(
            f"spec needs exactly {len(shapes)} input arrays"
        )
    checked = []
    for index, (array, shape) in enumerate(zip(arrays, shapes)):
        if not isinstance(array, np.ndarray):
            raise errors.BadRequest(f"input {index} is not an array")
        if tuple(array.shape) != tuple(shape):
            raise errors.BadRequest(
                f"input {index} has shape {tuple(array.shape)}, "
                f"expected {tuple(shape)}"
            )
        checked.append(np.ascontiguousarray(array.astype(dtype, copy=False)))
    return checked


def run_request(spec: Dict[str, Any],
                deadline: Optional[float] = None
                ) -> Tuple[PerfCounters, np.ndarray]:
    """Execute one request spec; returns ``(counters, output)``.

    ``spec`` is the decoded request: ``kind`` (``"matmul"`` /
    ``"conv"``), the kernel shape, the accelerator configuration
    (``version``/``size``/``flow``/``accel_size``), the lowering knobs
    (``permutation``/``cpu_tiling``/``specialized``), and ``inputs``.
    A fresh board is built per request, so results are deterministic
    and independent of whatever the worker ran before — the property
    the bit-identity acceptance test leans on.
    """
    from ..experiments.harness import (
        compile_conv_kernel,
        compile_matmul_kernel,
    )

    kind = spec.get("kind")
    _check_deadline(deadline, "compile")
    if kind == "matmul":
        m = _require(spec, "m")
        n = _require(spec, "n")
        k = _require(spec, "k")
        permutation = spec.get("permutation")
        hw, kernel = compile_matmul_kernel(
            m, n, k, _require(spec, "size"), _require(spec, "version"),
            _require(spec, "flow", str),
            specialized=bool(spec.get("specialized", True)),
            cpu_tiling=bool(spec.get("cpu_tiling", True)),
            accel_size=tuple(spec["accel_size"])
            if spec.get("accel_size") else None,
            permutation=tuple(permutation) if permutation else None,
        )
        a, b = _input_arrays(spec, [(m, k), (k, n)], np.int32)
        output = np.zeros((m, n), np.int32)
        arrays = (a, b, output)
    elif kind == "conv":
        batch = _require(spec, "batch")
        in_ch = _require(spec, "in_ch")
        in_hw = _require(spec, "in_hw")
        out_ch = _require(spec, "out_ch")
        f_hw = _require(spec, "f_hw")
        stride = _require(spec, "stride") if "stride" in spec else 1
        if f_hw > in_hw:
            raise errors.BadRequest("conv filter larger than its input")
        out_hw = (in_hw - f_hw) // stride + 1
        hw, kernel = compile_conv_kernel(
            batch, in_ch, in_hw, out_ch, f_hw, stride,
            specialized=bool(spec.get("specialized", True)),
            max_slice=None if spec.get("max_slice") is None
            else _require(spec, "max_slice"),
        )
        image, weights = _input_arrays(
            spec,
            [(batch, in_ch, in_hw, in_hw), (out_ch, in_ch, f_hw, f_hw)],
            np.int32,
        )
        output = np.zeros((batch, out_ch, out_hw, out_hw), np.int32)
        arrays = (image, weights, output)
    else:
        raise errors.BadRequest(f"unknown kernel kind {kind!r}")

    _check_deadline(deadline, "simulation")
    board = make_pynq_z2()
    board.attach_accelerator(hw)
    counters = kernel.run(board, *arrays)
    return counters, output


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
