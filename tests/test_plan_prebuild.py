"""Plan prebuilding by the service's ``warmup`` RPC.

The contract under test: a warmup pays a spec's whole cold path
(compile, trace, metrics-plan build) up front — one
:func:`repro.service.worker.warmup_job` per spec on
:func:`repro.pool.run_model_jobs`, persisting the artifacts into the
shared store so a later real run of the same shape is a pure warm hit —
without changing a single bit of what that run produces.  Per-spec
failures are data, worker counter deltas merge back into the parent's
diagnostics, and the RPC exposes the same jobs over the service wire.
"""

import numpy as np
import pytest

from repro.execution import METRICS_PLAN_COUNTERS
from repro.pool import run_model_jobs
from repro.service import errors as service_errors
from repro.service.client import ServiceClient
from repro.service.server import SERVICE_COUNTERS, ServiceServer
from repro.service.worker import run_request, warmup_job


def _matmul_spec(m=16, n=16, k=16, **extra):
    spec = {"kind": "matmul", "m": m, "n": n, "k": k,
            "size": 8, "version": 3, "flow": "Ns"}
    spec.update(extra)
    return spec


def _matmul_inputs(m=16, n=16, k=16, seed=11):
    rng = np.random.default_rng(seed)
    return [rng.integers(-7, 7, (m, k)).astype(np.int32),
            rng.integers(-7, 7, (k, n)).astype(np.int32)]


def _warmup(specs, workers=None):
    """What the ``warmup`` RPC runs for ``specs``."""
    return run_model_jobs([(warmup_job, (spec,)) for spec in specs],
                          workers=workers)


class TestPrebuildPlans:
    @pytest.mark.usefixtures("clean_faults")
    def test_prebuild_then_run_is_warm(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_KERNEL_CACHE_DIR", str(tmp_path))
        summaries = _warmup([_matmul_spec()])
        assert summaries[0]["ok"] and summaries[0]["kind"] == "matmul"
        # The real run (real inputs this time) finds everything warm:
        # the plan was persisted keyed by shape/configuration, never by
        # input values, so the zero-input prebuild warms it exactly.
        before = dict(METRICS_PLAN_COUNTERS)
        a, b = _matmul_inputs()
        counters, output = run_request(_matmul_spec(inputs=[a, b]))
        assert np.array_equal(
            output, a.astype(np.int64) @ b.astype(np.int64))
        assert METRICS_PLAN_COUNTERS["metrics_plan_hits"] \
            > before["metrics_plan_hits"]
        assert METRICS_PLAN_COUNTERS["metrics_plan_misses"] \
            == before["metrics_plan_misses"]

    def test_prebuilt_run_bit_identical_to_cold(self, monkeypatch,
                                                tmp_path):
        a, b = _matmul_inputs(seed=29)
        spec = _matmul_spec(inputs=[a, b])

        monkeypatch.setenv("REPRO_KERNEL_CACHE_DIR",
                           str(tmp_path / "cold"))
        cold_counters, cold_output = run_request(dict(spec))

        monkeypatch.setenv("REPRO_KERNEL_CACHE_DIR",
                           str(tmp_path / "warm"))
        _warmup([_matmul_spec()])
        warm_counters, warm_output = run_request(dict(spec))

        assert warm_counters.as_dict() == cold_counters.as_dict()
        assert warm_output.tobytes() == cold_output.tobytes()

    def test_bad_spec_is_reported_not_raised(self, monkeypatch,
                                             tmp_path):
        monkeypatch.setenv("REPRO_KERNEL_CACHE_DIR", str(tmp_path))
        summaries = _warmup([{"kind": "bogus"}, _matmul_spec()])
        assert not summaries[0]["ok"]
        assert "bogus" in summaries[0]["error"]
        assert summaries[1]["ok"]

    @pytest.mark.usefixtures("clean_faults")
    def test_pool_matches_inline_and_merges_deltas(self, monkeypatch,
                                                   tmp_path):
        specs = [_matmul_spec(), _matmul_spec(m=32)]
        monkeypatch.setenv("REPRO_KERNEL_CACHE_DIR",
                           str(tmp_path / "inline"))
        inline = _warmup(specs, workers=1)

        monkeypatch.setenv("REPRO_KERNEL_CACHE_DIR",
                           str(tmp_path / "pool"))
        monkeypatch.setenv("REPRO_WORKERS", "2")
        before = dict(METRICS_PLAN_COUNTERS)
        pooled = _warmup(specs)
        assert pooled == inline
        # The forked workers' plan lookups merged back into this
        # process's counters — the accounting rule of
        # repro.counters.merge.  (They are hits here, not misses: the children
        # inherit the inline leg's in-memory caches across the fork.)
        served = before["metrics_plan_misses"] + before["metrics_plan_hits"]
        assert METRICS_PLAN_COUNTERS["metrics_plan_misses"] \
            + METRICS_PLAN_COUNTERS["metrics_plan_hits"] \
            >= served + len(specs)

    def test_empty_spec_list_is_a_no_op(self):
        assert _warmup([]) == []


@pytest.mark.usefixtures("clean_service_env")
class TestServiceWarmup:
    def test_warmup_rpc_prebuilds_and_reports(self, monkeypatch,
                                              tmp_path):
        monkeypatch.setenv("REPRO_KERNEL_CACHE_DIR", str(tmp_path))
        server = ServiceServer(workers=1, queue_max=4).start()
        try:
            with ServiceClient(server.address) as client:
                results = client.warmup([_matmul_spec(),
                                         {"kind": "bogus"}])
                assert results[0]["ok"]
                assert not results[1]["ok"]
                a, b = _matmul_inputs(seed=7)
                reply = client.submit(_matmul_spec(inputs=[a, b]))
                assert np.array_equal(
                    reply["output"],
                    a.astype(np.int64) @ b.astype(np.int64))
            assert SERVICE_COUNTERS["service_warmups"] == 1
        finally:
            server.drain()

    def test_warmup_rejects_malformed_specs(self):
        server = ServiceServer(workers=1, queue_max=4).start()
        try:
            with ServiceClient(server.address,
                               max_attempts=1) as client:
                with pytest.raises(service_errors.BadRequest):
                    client.warmup(["not-a-dict"])
        finally:
            server.drain()
