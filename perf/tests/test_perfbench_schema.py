"""BENCHMARK.json against the metric tables; environment scrubbing;
the comparison verdicts."""

import json
import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench import harness, metrics, report  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_matches_the_metric_tables():
    contract = json.loads((harness.REPO_DIR / "BENCHMARK.json").read_text())
    assert contract == metrics.benchmark_json(contract["run_seconds"])
    assert set(contract) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert contract["paths"] == ["perf"]
    assert 1 <= contract["run_seconds"] <= 60


def test_names_units_and_limits_fit_the_contract():
    names = list(metrics.WORKLOADS) + list(metrics.END_TO_END) \
        + list(metrics.PER_LAYER)
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert 2 <= len(metrics.WORKLOADS) <= 8
    assert 1 <= len(metrics.END_TO_END) <= 16
    assert 1 <= len(metrics.PER_LAYER) <= 128
    for why in metrics.WORKLOADS.values():
        assert len(why) <= 200 and "\n" not in why
    for unit, better, bound in metrics.END_TO_END.values():
        assert UNIT.match(unit) and better in ("lower", "higher")
        assert 0 < bound <= 0.25
    for unit, better, exact in metrics.PER_LAYER.values():
        assert UNIT.match(unit) and better in ("lower", "higher")
        assert isinstance(exact, bool)
    assert metrics.END_TO_END["setup_s"][:2] == ("s", "lower")
    assert metrics.END_TO_END["setup_s"][2] == max(
        bound for _, _, bound in metrics.END_TO_END.values())


def test_scrubbed_env_drops_ambient_switches_and_pins_blas(monkeypatch,
                                                           tmp_path):
    monkeypatch.setenv("REPRO_NO_NATIVE", "1")
    monkeypatch.setenv("REPRO_KERNEL_CACHE_DIR", "/somewhere/else")
    monkeypatch.setenv("OMP_NUM_THREADS", "8")
    env = harness.scrubbed_env(tmp_path, tmp_path / "store")
    assert [key for key in env if key.startswith("REPRO_")] \
        == ["REPRO_KERNEL_CACHE_DIR"]
    assert env["REPRO_KERNEL_CACHE_DIR"] == str(tmp_path / "store")
    assert all(env[pin] == "1" for pin in harness.BLAS_PINS)
    assert env["PYTHONHASHSEED"] == "0"
    assert env["TMPDIR"] == str(tmp_path / "tmp")
    assert env["PYTHONPATH"].split(":")[0].endswith("src")
    assert "REPRO_KERNEL_CACHE_DIR" not in harness.scrubbed_env(tmp_path)


def test_verdicts_within_bound_regressed_unresolved():
    steady = [10.0, 10.1, 9.9, 10.0, 10.05]
    assert report.verdict(steady, [10.4, 10.5, 10.3, 10.4, 10.45],
                          0.10) == "within-bound"
    assert report.verdict(steady, [11.4, 11.5, 11.3, 11.4, 11.45],
                          0.10) == "regressed"
    noisy = [8.0, 12.0, 9.0, 13.0, 10.0]
    assert report.verdict(noisy, [9.0, 13.5, 10.0, 14.0, 11.0],
                          0.10) == "unresolved"
    # Wide spread, but every run of one side beats every run of the other.
    assert report.verdict(noisy, [20.0, 26.0, 22.0, 28.0, 24.0],
                          0.10) == "regressed"
