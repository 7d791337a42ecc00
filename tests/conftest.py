"""Shared fixtures for the test suite."""

import numpy as np
import pytest

from repro import counters, faults
from repro.execution.metrics import reset_component_memo
from repro.service import SERVICE_COUNTERS
from repro.soc import Board, make_pynq_z2


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "matrix: the tier matrix repeated inside pool workers; deselected "
        "unless run with -m matrix",
    )
    # An out-of-range float-to-int cast is undefined, not modular: it
    # returns wrong numbers with only this warning to show for it.
    config.addinivalue_line(
        "filterwarnings",
        "error:invalid value encountered in cast:RuntimeWarning",
    )


def pytest_collection_modifyitems(config, items):
    """The ``matrix`` cases only run when asked for (``-m matrix``).

    CI's chaos leg runs the whole tier-1 suite under REPRO_FAULTS and
    skips nothing: numeric results must stay bit-identical under
    injected faults, and a test asserting exact store or replay
    counters owns a clean fault spec (the ``clean_faults`` fixture).
    """
    if "matrix" not in (config.getoption("-m") or ""):
        extra = [item for item in items if item.get_closest_marker("matrix")]
        if extra:
            config.hook.pytest_deselected(items=extra)
            items[:] = [item for item in items if item not in extra]


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
def clean_faults(monkeypatch, fresh_native_probe):
    """The test owns a clean fault spec: under the CI chaos leg it runs
    fault-free (C library and replay included)."""
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    monkeypatch.delenv("REPRO_FAULTS_SEED", raising=False)
    faults.reset_faults()
    yield
    faults.reset_faults()


@pytest.fixture
def clean_service_env(monkeypatch, clean_faults):
    """Every test that starts a ``ServiceServer`` owns its fault spec
    and counters — even under the CI chaos leg, whose ambient
    REPRO_FAULTS would otherwise leak into forked workers (and, at
    ``service.worker:crash`` seed 1, crash-loop a single worker)."""
    for var in ("REPRO_WORKERS", "REPRO_SERVICE_QUEUE_MAX",
                "REPRO_SERVICE_TIMEOUT_S"):
        monkeypatch.delenv(var, raising=False)
    counters.reset(SERVICE_COUNTERS)
    yield
    counters.reset(SERVICE_COUNTERS)


@pytest.fixture
def board() -> Board:
    return make_pynq_z2()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


def random_int_matrix(rng, rows, cols, low=-8, high=8):
    return rng.integers(low, high, (rows, cols)).astype(np.int32)
