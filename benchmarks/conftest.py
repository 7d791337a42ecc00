"""Benchmark support: the result-table writer.

Each figure/ablation harness renders its table through ``write_table``
into ``benchmarks/results/``; those files are the counter contract
(``git diff benchmarks/results`` stays empty unless simulation
semantics moved).  Timings are measured by ``perf/run.py``, not here.
"""

from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).resolve().parent / "results"


@pytest.fixture
def write_table():
    """Persist a rendered result table under ``benchmarks/results/``."""

    def write(name: str, text: str) -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
        print(f"\n{name}:\n{text}")

    return write
