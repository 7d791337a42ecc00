"""Shared fixtures for the test suite."""

import os

import numpy as np
import pytest

from repro import counters, faults
from repro.execution.metrics import reset_component_memo
from repro.service import SERVICE_COUNTERS
from repro.soc import Board, make_pynq_z2


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "ambient_faults_incompatible: exact store- or replay-counter "
        "assertions that cannot hold when the environment injects "
        "REPRO_FAULTS (store I/O faults; native.compile:fail, under "
        "which every kernel runs per tile)",
    )
    config.addinivalue_line(
        "markers",
        "matrix: the tier matrix repeated inside pool workers; deselected "
        "unless run with -m matrix",
    )


def pytest_collection_modifyitems(config, items):
    """The ``matrix`` cases only run when asked for (``-m matrix``);
    CI's chaos leg runs the whole tier-1 suite under REPRO_FAULTS.

    Numeric results must stay bit-identical under injected faults —
    that is the point of the leg — but tests asserting *exact disk
    counter values* are definitionally invalid when reads/writes fail
    probabilistically, and tests pinning the replay path cannot hold
    when ``native.compile:fail`` leaves every kernel per tile, so they
    are skipped there.  (Tests that set
    REPRO_FAULTS themselves via monkeypatch are unaffected: the marker
    covers only ambient, externally injected faults.)
    """
    if "matrix" not in (config.getoption("-m") or ""):
        extra = [item for item in items if item.get_closest_marker("matrix")]
        if extra:
            config.hook.pytest_deselected(items=extra)
            items[:] = [item for item in items if item not in extra]
    if not os.environ.get("REPRO_FAULTS"):
        return
    skip = pytest.mark.skip(
        reason="exact-counter assertions invalid under ambient REPRO_FAULTS"
    )
    for item in items:
        if item.get_closest_marker("ambient_faults_incompatible"):
            item.add_marker(skip)


@pytest.fixture(autouse=True)
def _isolate_kernel_store(monkeypatch):
    """Unit tests manage their own disk stores via tmp_path.

    CI exports REPRO_KERNEL_CACHE_DIR so the *benchmarks* reuse
    `.repro_cache` across runs; the unit tests assert exact cache
    stats and must not see an ambient store.
    """
    monkeypatch.delenv("REPRO_KERNEL_CACHE_DIR", raising=False)


@pytest.fixture(autouse=True)
def _isolate_shared_plans():
    """Traces of equal content share their MetricsPlans process-wide;
    a test's exact hit/miss counts must not depend on which kernels an
    earlier test left alive."""
    reset_component_memo()


@pytest.fixture
def fresh_native_probe(monkeypatch):
    """Forget this process's toolchain probe for one test, so whether
    the C library (and with it replay) is there follows the test's own
    ``REPRO_FAULTS``, not an ambient ``native.compile:fail``."""
    from repro.soc import _native

    monkeypatch.setattr(_native, "_tried", False)
    monkeypatch.setattr(_native, "_lib", None)
    monkeypatch.setattr(_native, "_status", "untried")


@pytest.fixture
def clean_service_env(monkeypatch, fresh_native_probe):
    """Every test that starts a ``ServiceServer`` owns its fault spec
    and counters — even under the CI chaos leg, whose ambient
    REPRO_FAULTS would otherwise leak into forked workers (and, at
    ``service.worker:crash`` seed 1, crash-loop a single worker)."""
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    monkeypatch.delenv("REPRO_FAULTS_SEED", raising=False)
    for var in ("REPRO_WORKERS", "REPRO_SERVICE_QUEUE_MAX",
                "REPRO_SERVICE_TIMEOUT_S"):
        monkeypatch.delenv(var, raising=False)
    faults.reset_faults()
    counters.reset(SERVICE_COUNTERS)
    yield
    faults.reset_faults()
    counters.reset(SERVICE_COUNTERS)


@pytest.fixture
def board() -> Board:
    return make_pynq_z2()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


def random_int_matrix(rng, rows, cols, low=-8, high=8):
    return rng.integers(low, high, (rows, cols)).astype(np.int32)
