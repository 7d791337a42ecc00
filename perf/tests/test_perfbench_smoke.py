"""``--smoke``: every workload at toy size through the real command."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench import harness, metrics, report  # noqa: E402

RUN = [sys.executable, str(harness.PERF_DIR / "run.py")]


@pytest.fixture(scope="module")
def smoke_document(tmp_path_factory):
    out = tmp_path_factory.mktemp("perfbench") / "smoke.json"
    roots_before = set(harness.OUT_DIR.glob("run-*"))
    done = subprocess.run(RUN + ["--smoke", "--seed", "5", "--out", str(out)],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    left_behind = set(harness.OUT_DIR.glob("run-*")) - roots_before
    return json.loads(out.read_text()), done.stdout, left_behind


def test_smoke_runs_all_six_workloads_without_a_failed_op(smoke_document):
    document, printed, _ = smoke_document
    results = document["runs"][0]["end_to_end"]
    assert list(results) == list(metrics.WORKLOADS)
    for name, result in results.items():
        assert result["failed"] == 0 and result["attempted"] >= 1, name
        assert set(result["values"]) == set(metrics.END_TO_END)
        assert all(value > 0 for value in result["values"].values()), name
        assert name in printed
    for metric in list(metrics.END_TO_END) + ["failed_share"]:
        assert metric in printed
    assert document["env"]["native"]["status"] == "ok"


def test_contract_line_has_exactly_the_drivers_keys(smoke_document):
    document, _, _ = smoke_document
    result = document["runs"][0]["end_to_end"]["steady_replay"]
    line = json.loads(report.contract_line(result, metrics.END_TO_END))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert set(line["metrics"]) == set(metrics.END_TO_END)
    for name, entry in line["metrics"].items():
        assert set(entry) == {"value", "unit"}
        assert entry["unit"] == metrics.END_TO_END[name][0]


def test_a_run_leaves_no_temporary_root_behind(smoke_document):
    assert not smoke_document[2]


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(harness.PERF_DIR, tmp_path / "perf",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(harness.REPO_DIR / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", "steady_replay",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
