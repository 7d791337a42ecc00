"""Parallel first-run plan prebuilding: pay the cold-start tax early.

A first run of any kernel pays the full cold path — compile, trace
synthesis, metrics-plan build — before the warm O(state) replay ever
applies.  When the set of upcoming shapes is known (a tuning sweep's
points, a service's expected request mix, a model's layer schedule),
that tax can be paid *up front and in parallel*: :func:`prebuild_plans`
fans the independent first-run builds onto the same forked worker pool
:func:`~repro.pool.run_model_jobs` uses, each worker
persisting its compiled kernel, synthesized trace, and MetricsPlan
into the shared sharded store and returning its diagnostics *delta*
(stage timings, plan counters, store counters) for the parent to merge
— so ``diagnostics()["metrics_plan"]`` keeps counting builds that
happened in workers, and the later "real" runs are pure warm hits.

Specs use the service request vocabulary (``kind`` = ``"matmul"`` /
``"conv"`` plus the shape and lowering knobs — see
:func:`repro.service.worker.run_request`); ``inputs`` may be omitted,
in which case deterministic zero arrays are synthesized — every
store-persisted artifact (kernel, trace, plan) is keyed by shape and
configuration, never by input *values*, so zero inputs warm exactly
the entries real data will hit.

Pool sizing is ``run_model_jobs``'s (``REPRO_MODEL_WORKERS``, default
``min(4, cpus)``).  Sized <= 1 — or inside a worker, or without fork —
the builds run inline, bit-identical.

Entry points: :func:`prebuild_plans` directly and the service's
``warmup`` RPC.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

import numpy as np


def _zero_inputs(spec: Dict[str, Any]) -> List[np.ndarray]:
    """Deterministic placeholder inputs matching the spec's shapes."""
    kind = spec.get("kind")
    if kind == "matmul":
        m, n, k = spec["m"], spec["n"], spec["k"]
        shapes = [(m, k), (k, n)]
    elif kind == "conv":
        shapes = [
            (spec["batch"], spec["in_ch"], spec["in_hw"], spec["in_hw"]),
            (spec["out_ch"], spec["in_ch"], spec["f_hw"], spec["f_hw"]),
        ]
    else:
        shapes = []
    return [np.zeros(shape, np.int32) for shape in shapes]


def _prebuild_job(spec: Dict[str, Any]) -> Dict[str, Any]:
    """One worker-side prebuild: run the spec, report a small summary.

    Failures are per-spec data, not pool-wide exceptions — a warmup
    with one bad spec still warms the rest.  The heavyweight products
    (kernel, trace, plan) land in the shared store; only the summary
    and the counter delta travel back over the pipe.
    """
    from ..service.worker import run_request

    spec = dict(spec)
    if "inputs" not in spec:
        spec["inputs"] = _zero_inputs(spec)
    try:
        counters, _ = run_request(spec)
    except Exception as exc:  # noqa: BLE001 — summarised for the caller
        return {"ok": False, "kind": spec.get("kind"),
                "error": f"{type(exc).__name__}: {exc}"}
    return {"ok": True, "kind": spec.get("kind"),
            "cycles": int(counters.cpu_cycles)}


def prebuild_plans(specs: Sequence[Dict[str, Any]],
                   workers: Optional[int] = None) -> List[Dict[str, Any]]:
    """Build (and persist) the cold-path artifacts for ``specs``.

    Returns one summary dict per spec, in order: ``{"ok": True,
    "kind": ..., "cycles": ...}`` or ``{"ok": False, "error": ...}``.
    Worker counter deltas merge back into this process's diagnostics,
    so the prebuilt plan builds appear in ``metrics_plan_build_s`` and
    ``metrics_plan_misses`` exactly as if they had run inline — the
    accounting rule of :func:`repro.counters.merge`.
    """
    from ..pool import run_model_jobs

    return run_model_jobs([(_prebuild_job, (spec,)) for spec in specs],
                          workers=workers)
