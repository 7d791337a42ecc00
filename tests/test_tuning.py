"""The autotuning sweep engine: space, journal, driver, reports.

The acceptance bar is the resume property: a sweep interrupted at any
instant — drained, killed, or limping through injected journal/worker
faults — must resume from its journal, serve completed points without
recomputing them, and produce a final best-config report bit-identical
to an uninterrupted run's.
"""

import json
import multiprocessing
import os
import time
import warnings

import pytest

from repro import counters, faults
from repro.tuning import (
    TUNING_COUNTERS,
    JournalMismatch,
    SweepDriver,
    SweepJournal,
    SweepSpace,
    build_report,
    render_report,
    smoke_space,
)
from repro.pool import WORKERS_ENV, worker_count
from repro.tuning.driver import TUNING_DEADLINE_ENV, tuning_deadline_s
from repro.tuning.space import all_permutations, group_floors

SMALL = smoke_space(shapes=((8, 8, 8),), versions=(1, 2))


@pytest.fixture(autouse=True)
def _clean_tuning_env(monkeypatch):
    """Sweep tests own their fault spec and counters."""
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    monkeypatch.delenv("REPRO_FAULTS_SEED", raising=False)
    monkeypatch.delenv(WORKERS_ENV, raising=False)
    monkeypatch.delenv(TUNING_DEADLINE_ENV, raising=False)
    faults.reset_faults()
    counters.reset(TUNING_COUNTERS)
    yield
    faults.reset_faults()
    counters.reset(TUNING_COUNTERS)


def _driver(space, tmp_path, name="j", **kwargs):
    kwargs.setdefault("workers", 1)
    kwargs.setdefault("deadline_s", 60.0)
    return SweepDriver(space, journal_path=tmp_path / f"{name}.jsonl",
                       report_path=tmp_path / f"{name}.json", **kwargs)


class TestSpace:
    def test_digest_is_canonical_and_spec_sensitive(self):
        points = SMALL.points()
        assert len(points) == len({p.digest for p in points})
        a, b = points[0], points[1]
        assert a.digest != b.digest
        # Digest depends only on the spec, not on identity or order.
        clone = type(a)(**{**a.__dict__})
        assert clone.digest == a.digest

    def test_enumeration_is_feasible(self):
        from repro.accelerators.catalog import VERSION_FLOWS
        from repro.heuristics.flexible import _fits

        space = smoke_space(shapes=((16, 16, 8),))
        for point in space.points():
            assert point.m % point.size == 0
            assert point.flow in VERSION_FLOWS[point.version]
            if point.version == 4:
                capacity = 16 * point.size * point.size
                assert _fits(*point.tiles, capacity)
            else:
                assert point.tiles == (point.size,) * 3

    def test_space_digest_pins_the_point_set(self):
        assert SMALL.digest() == SMALL.digest()
        other = smoke_space(shapes=((8, 8, 8),), versions=(1, 3))
        assert SMALL.digest() != other.digest()

    def test_permutations_fan_out_only_on_ns_flow(self):
        space = SweepSpace(shapes=((8, 8, 8),), versions=(2,),
                           permutations=all_permutations())
        permuted = [p for p in space.points() if p.permutation]
        assert permuted and all(p.flow == "Ns" for p in permuted)

    def test_group_floors_take_the_minimum(self):
        points = SMALL.points()
        floors = group_floors(points)
        for point in points:
            assert floors[point.group] <= point.modeled_bytes()


class TestJournal:
    def _journal(self, tmp_path):
        return SweepJournal(tmp_path / "sweep.jsonl")

    def test_round_trip(self, tmp_path):
        journal = self._journal(tmp_path)
        assert journal.append_meta("space0")
        assert journal.append_attempt("p1", 1)
        assert journal.append_result("p1", {"status": "ok", "metric": 1.5})
        journal.close()
        replay = self._journal(tmp_path).replay(expect_space="space0")
        assert replay.meta["space"] == "space0"
        assert replay.results == {"p1": {"status": "ok", "metric": 1.5}}
        assert replay.attempts == {"p1": 1}
        assert not replay.inflight()
        assert (replay.torn_tail, replay.corrupt, replay.duplicates) \
            == (0, 0, 0)

    def test_truncated_final_record_is_dropped(self, tmp_path):
        journal = self._journal(tmp_path)
        journal.append_meta("space0")
        journal.append_result("p1", {"status": "ok"})
        journal.close()
        path = tmp_path / "sweep.jsonl"
        raw = path.read_bytes()
        # Simulate dying mid-append: half a record, no newline.
        path.write_bytes(raw + b'{"t":"result","digest":"p2","rec')
        replay = self._journal(tmp_path).replay()
        assert replay.torn_tail == 1
        assert set(replay.results) == {"p1"}

    def test_flipped_bit_fails_the_checksum(self, tmp_path):
        journal = self._journal(tmp_path)
        journal.append_meta("space0")
        journal.append_result("p1", {"status": "ok", "metric": 2.0})
        journal.append_result("p2", {"status": "ok", "metric": 3.0})
        journal.close()
        path = tmp_path / "sweep.jsonl"
        lines = path.read_bytes().splitlines(keepends=True)
        lines[1] = lines[1].replace(b'"metric":2.0', b'"metric":2.5')
        path.write_bytes(b"".join(lines))
        replay = self._journal(tmp_path).replay()
        assert replay.corrupt == 1
        # The tampered record is gone; its neighbours survive.
        assert set(replay.results) == {"p2"}

    def test_duplicate_results_keep_the_first(self, tmp_path):
        journal = self._journal(tmp_path)
        journal.append_meta("space0")
        journal.append_result("p1", {"status": "ok", "metric": 1.0})
        journal.append_result("p1", {"status": "ok", "metric": 9.0})
        journal.close()
        replay = self._journal(tmp_path).replay()
        assert replay.duplicates == 1
        assert replay.results["p1"]["metric"] == 1.0

    def test_space_mismatch_refuses_to_resume(self, tmp_path):
        journal = self._journal(tmp_path)
        journal.append_meta("space0")
        journal.close()
        with pytest.raises(JournalMismatch):
            self._journal(tmp_path).replay(expect_space="other")

    def test_injected_io_fault_loses_one_append(self, tmp_path,
                                                monkeypatch):
        journal = self._journal(tmp_path)
        assert journal.append_meta("space0")
        monkeypatch.setenv("REPRO_FAULTS", "tuning.journal:io")
        faults.reset_faults()
        assert not journal.append_result("p1", {"status": "ok"})
        monkeypatch.delenv("REPRO_FAULTS")
        faults.reset_faults()
        # The journal recovers: the next append lands.
        assert journal.append_result("p2", {"status": "ok"})
        journal.close()
        replay = self._journal(tmp_path).replay()
        assert set(replay.results) == {"p2"}
        assert TUNING_COUNTERS["tuning_journal_io_errors"] == 1

    def test_compaction_under_a_concurrent_reader(self, tmp_path):
        journal = self._journal(tmp_path)
        journal.append_meta("space0")
        for index in range(4):
            journal.append_attempt(f"p{index}", 1)
            journal.append_result(f"p{index}", {"status": "ok",
                                                "metric": float(index)})
        journal.close()
        path = tmp_path / "sweep.jsonl"
        old = path.read_bytes()
        results = self._journal(tmp_path).replay().results
        with open(path, "rb") as reader:
            assert journal.compact("space0", results)
            # A reader holding the pre-compaction descriptor still
            # sees the complete old journal (os.replace, not truncate).
            assert reader.read() == old
        replay = self._journal(tmp_path).replay(expect_space="space0")
        assert replay.results == results
        assert not replay.attempts  # attempt records compacted away
        assert not list(tmp_path.glob("*.tmp-*"))

    def test_appends_flush_and_commit_fsyncs_once(self, tmp_path,
                                                  monkeypatch):
        """A flushed append is readable by another process at once
        (it survives SIGKILL); only a commit pays an fsync."""
        fsyncs = []
        real = os.fsync
        monkeypatch.setattr(os, "fsync",
                            lambda fd: fsyncs.append(fd) or real(fd))
        journal = self._journal(tmp_path)
        journal.append_meta("space0")
        journal.append_result("p1", {"status": "ok"})
        assert set(self._journal(tmp_path).replay().results) == {"p1"}
        assert fsyncs == []
        assert journal.commit()
        assert len(fsyncs) == 1
        journal.append_result("p2", {"status": "ok"})
        journal.close()  # commits what is open
        assert len(fsyncs) == 2
        assert TUNING_COUNTERS["tuning_journal_commits"] == 2

    def test_compaction_io_failure_keeps_the_old_journal(self, tmp_path,
                                                         monkeypatch):
        journal = self._journal(tmp_path)
        journal.append_meta("space0")
        journal.append_result("p1", {"status": "ok"})
        journal.close()
        path = tmp_path / "sweep.jsonl"
        old = path.read_bytes()
        monkeypatch.setenv("REPRO_FAULTS", "tuning.journal:io")
        faults.reset_faults()
        assert not journal.compact("space0", {"p1": {"status": "ok"}})
        assert path.read_bytes() == old
        assert not list(tmp_path.glob("*.tmp-*"))


class TestDriver:
    def test_clean_sweep_completes_and_reports(self, tmp_path):
        from repro.execution import TRACE_COUNTERS

        refused = TRACE_COUNTERS["replay_refused"]
        driver = _driver(SMALL, tmp_path)
        result = driver.run()
        assert result["complete"]
        # Every point's kernel replays: none drops to the per-tile rung.
        assert TRACE_COUNTERS["replay_refused"] == refused
        report = result["report"]
        assert report["totals"]["completed"] == len(SMALL.points())
        assert report["totals"]["poisoned"] == 0
        group = report["groups"]["matmul-8x8x8"]
        assert group["best"]["metric"] == \
            min(r["metric"] for r in group["ranked"])
        # The report file is the canonical rendering, atomically placed.
        assert (tmp_path / "j.json").read_text() == render_report(report)
        assert not list(tmp_path.glob("*.tmp-*"))
        seen = counters.read(TUNING_COUNTERS)
        assert seen["tuning_points_completed"] == len(SMALL.points())
        assert seen["tuning_journal_compactions"] == 1

    @pytest.mark.usefixtures("clean_faults")
    def test_content_equal_points_are_served_one_plan(self, tmp_path,
                                                      monkeypatch):
        """``cpu_tiling`` is a no-op at 8^3, so every ``cpu_tiling=True``
        point replays a trace with its twin's content and is served the
        twin's MetricsPlan — and the report cannot tell: it is
        byte-identical to the one where every plan was built."""
        from repro.compiler import default_kernel_cache
        from repro.execution import METRICS_PLAN_COUNTERS

        twins = sum(point.cpu_tiling for point in SMALL.points())
        default_kernel_cache().clear()
        hits = METRICS_PLAN_COUNTERS["metrics_plan_hits"]
        _driver(SMALL, tmp_path, name="shared").run()
        assert METRICS_PLAN_COUNTERS["metrics_plan_hits"] - hits \
            >= twins >= 1
        monkeypatch.setenv("REPRO_FAULTS", "metrics.plan:fail")
        faults.reset_faults()
        default_kernel_cache().clear()
        built = METRICS_PLAN_COUNTERS["metrics_plan_fallback"]
        _driver(SMALL, tmp_path, name="built").run()
        assert METRICS_PLAN_COUNTERS["metrics_plan_fallback"] - built \
            == len(SMALL.points())
        assert (tmp_path / "built.json").read_bytes() \
            == (tmp_path / "shared.json").read_bytes()

    def test_diagnostics_expose_tuning_counters(self, tmp_path):
        from repro.execution import diagnostics

        _driver(SMALL, tmp_path).run()
        section = diagnostics()["tuning"]
        assert section["tuning_points_completed"] == len(SMALL.points())

    def test_resume_serves_completed_points_from_the_journal(
            self, tmp_path, monkeypatch):
        # Interrupt a sweep after two points via the drain hook.
        driver = _driver(SMALL, tmp_path, name="resumed")
        from repro.tuning import driver as driver_module

        real_evaluate = driver_module.evaluate_point
        resolved = []

        def interrupting(spec, prune_bytes=None, deadline=None):
            outcome = real_evaluate(spec, prune_bytes, deadline)
            resolved.append(spec)
            if len(resolved) == 2:
                driver.request_stop()
            return outcome

        monkeypatch.setattr(driver_module, "evaluate_point", interrupting)
        partial = driver.run()
        assert not partial["complete"]
        assert partial["resolved"] == 2
        assert not (tmp_path / "resumed.json").exists()

        # Resume: completed points must not be recomputed.
        recomputed = []

        def counting(spec, prune_bytes=None, deadline=None):
            recomputed.append(spec)
            return real_evaluate(spec, prune_bytes, deadline)

        monkeypatch.setattr(driver_module, "evaluate_point", counting)
        counters.reset(TUNING_COUNTERS)
        resumed = _driver(SMALL, tmp_path, name="resumed").run()
        assert resumed["complete"]
        assert len(recomputed) == len(SMALL.points()) - 2
        assert TUNING_COUNTERS["tuning_points_resumed"] == 2

        # And the final report is bit-identical to an uninterrupted run.
        monkeypatch.setattr(driver_module, "evaluate_point", real_evaluate)
        clean = _driver(SMALL, tmp_path, name="clean").run()
        assert clean["complete"]
        assert (tmp_path / "resumed.json").read_bytes() \
            == (tmp_path / "clean.json").read_bytes()

    def test_wrong_space_journal_is_rejected(self, tmp_path):
        _driver(SMALL, tmp_path, name="shared").run()
        other = smoke_space(shapes=((8, 8, 8),), versions=(1, 3))
        with pytest.raises(JournalMismatch):
            _driver(other, tmp_path, name="shared").run()

    def test_poisoned_points_are_quarantined(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "tuning.point:poison")
        faults.reset_faults()
        driver = _driver(SMALL, tmp_path, max_attempts=3)
        result = driver.run()
        assert result["complete"]
        totals = result["report"]["totals"]
        assert totals["poisoned"] == len(SMALL.points())
        assert totals["completed"] == 0
        for record in result["report"]["poisoned"]:
            assert record["crashes"] == 3
        seen = counters.read(TUNING_COUNTERS)
        assert seen["tuning_worker_crashes"] == 3 * len(SMALL.points())

    def test_injected_crashes_retry_then_succeed(self, tmp_path,
                                                 monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "tuning.worker:crash@0.5")
        monkeypatch.setenv("REPRO_FAULTS_SEED", "3")
        faults.reset_faults()
        chaotic = _driver(SMALL, tmp_path, name="chaotic").run()
        assert chaotic["complete"]
        assert TUNING_COUNTERS["tuning_worker_crashes"] > 0
        # Bit-identical to the fault-free report: crashes cost retries,
        # never results.
        monkeypatch.delenv("REPRO_FAULTS")
        faults.reset_faults()
        _driver(SMALL, tmp_path, name="calm").run()
        assert (tmp_path / "chaotic.json").read_bytes() \
            == (tmp_path / "calm.json").read_bytes()

    def test_worker_errors_fail_without_retry(self, tmp_path, monkeypatch):
        from repro.tuning import driver as driver_module

        calls = []

        def exploding(spec, prune_bytes=None, deadline=None):
            calls.append(spec)
            raise ValueError("synthetic evaluation failure")

        monkeypatch.setattr(driver_module, "evaluate_point", exploding)
        result = _driver(SMALL, tmp_path).run()
        assert result["complete"]
        totals = result["report"]["totals"]
        assert totals["failed"] == len(SMALL.points())
        # Deterministic failures are final: exactly one attempt each.
        assert len(calls) == len(SMALL.points())
        for record in result["report"]["failed"]:
            assert record["error"] \
                == "ValueError: synthetic evaluation failure"

    def test_pruning_skips_expensive_configs(self, tmp_path):
        space = SweepSpace(shapes=((16, 16, 16),), versions=(2,),
                           sizes=(4,))
        # The exact estimate includes opcode-stream overhead above the
        # closed-form floor (~6% here); 1.1x keeps the stationary
        # flows and prunes the none-stationary one.
        result = _driver(space, tmp_path, prune_ratio=1.1).run()
        totals = result["report"]["totals"]
        assert totals["pruned"] >= 1
        assert totals["completed"] >= 1
        for record in result["report"]["pruned"]:
            assert record["est_bytes"] > record["prune_bytes"]

    def test_prune_ratio_zero_disables_pruning(self, tmp_path):
        # Same contract as the CLI flag: a non-positive ratio means
        # "simulate everything", not "threshold of zero bytes".
        result = _driver(SMALL, tmp_path, prune_ratio=0).run()
        totals = result["report"]["totals"]
        assert totals["pruned"] == 0
        assert totals["completed"] == len(SMALL.points())

    def test_journal_io_chaos_still_completes(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "tuning.journal:io@0.3")
        monkeypatch.setenv("REPRO_FAULTS_SEED", "1")
        faults.reset_faults()
        result = _driver(SMALL, tmp_path, name="durable").run()
        assert result["complete"]
        assert result["report"]["totals"]["completed"] \
            == len(SMALL.points())


def _fake_outcome(spec, prune_bytes=None, deadline=None):
    """An evaluate_point stand-in that reports which pool worker ran it."""
    return {"status": "ok", "metric": 1.0, "counters": {},
            "est_bytes": None,
            "ran_on": multiprocessing.current_process().name}


class TestPool:
    """The sweep on the supervised pool (workers > 1)."""

    def test_deadline_killed_worker_restarts_at_the_same_slot(
            self, tmp_path, monkeypatch):
        from repro.tuning import driver as driver_module

        hang_once = tmp_path / "hung"

        def evaluate(spec, prune_bytes=None, deadline=None):
            try:
                hang_once.touch(exist_ok=False)
            except FileExistsError:
                return _fake_outcome(spec)
            time.sleep(60)  # ignores its cooperative deadline

        monkeypatch.setattr(driver_module, "evaluate_point", evaluate)
        result = _driver(SMALL, tmp_path, workers=2, deadline_s=0.1).run()
        assert result["complete"]
        assert result["report"]["totals"]["completed"] \
            == len(SMALL.points())
        seen = counters.read(TUNING_COUNTERS)
        assert seen["tuning_deadline_kills"] == 1
        assert seen["tuning_worker_restarts"] == 1
        assert seen["tuning_workers_merged"] == 2
        # The replacement took over the killed worker's slot: two slots
        # ran every point, before and after the kill.
        names = {record["ran_on"] for group in
                 result["report"]["groups"].values()
                 for record in group["ranked"]}
        assert names == {"repro-pool-0", "repro-pool-1"}

    def test_pool_report_matches_inline_and_merges_worker_deltas(
            self, tmp_path):
        from repro.execution import STAGE_TIMINGS

        _driver(SMALL, tmp_path, name="inline", workers=1).run()
        simulated = STAGE_TIMINGS["sweep_simulate_s"]
        counters.reset(TUNING_COUNTERS)
        _driver(SMALL, tmp_path, name="pooled", workers=2).run()
        assert (tmp_path / "pooled.json").read_bytes() \
            == (tmp_path / "inline.json").read_bytes()
        # The points ran in workers; their stage seconds came home.
        assert STAGE_TIMINGS["sweep_simulate_s"] > simulated
        assert TUNING_COUNTERS["tuning_workers_merged"] == 2

    def test_no_fork_rung_is_bit_identical_and_merges_nothing(
            self, tmp_path, monkeypatch):
        from repro import pool

        _driver(SMALL, tmp_path, name="forked", workers=2).run()
        counters.reset(TUNING_COUNTERS)
        monkeypatch.setattr(pool, "fork_available", lambda: False)
        result = _driver(SMALL, tmp_path, name="noforked",
                         workers=2).run()
        assert result["complete"]
        assert (tmp_path / "noforked.json").read_bytes() \
            == (tmp_path / "forked.json").read_bytes()
        seen = counters.read(TUNING_COUNTERS)
        assert seen["tuning_points_completed"] == len(SMALL.points())
        assert seen["tuning_workers_merged"] == 0

    CRASHY = "tuning.worker:crash@0.5;tuning.point:poison@0.2"

    def test_an_inline_retry_goes_out_at_once(self, tmp_path, monkeypatch):
        """No backoff clock: a crashed attempt is retried on the next
        turn of the loop, so the sweep never calls ``time.sleep``.  A
        profile hook watches the real function, so a reference bound
        before the test (a ``sleep=time.sleep`` default) is seen too."""
        import sys

        from repro.tuning import driver as driver_module

        monkeypatch.setattr(driver_module, "evaluate_point", _fake_outcome)
        monkeypatch.setenv("REPRO_FAULTS", self.CRASHY)
        monkeypatch.setenv("REPRO_FAULTS_SEED", "3")
        faults.reset_faults()
        slept = []

        def watch(frame, event, arg):
            if event == "c_call" and arg is time.sleep:
                slept.append(frame.f_code.co_name)

        sys.setprofile(watch)
        try:
            result = SweepDriver(SMALL, journal_path=tmp_path / "j.jsonl",
                                 workers=1).run()
        finally:
            sys.setprofile(None)
        assert result["complete"] and slept == []
        assert TUNING_COUNTERS["tuning_retries"] > 0
        assert TUNING_COUNTERS["tuning_worker_crashes"] > 0

    def test_crash_reports_match_inline_pooled_and_no_fork(
            self, tmp_path, monkeypatch):
        from repro import pool

        monkeypatch.setenv("REPRO_FAULTS", self.CRASHY)
        monkeypatch.setenv("REPRO_FAULTS_SEED", "2")
        tallies = {}
        for name, workers in (("inline", 1), ("pooled", 2),
                              ("nofork", 2)):
            if name == "nofork":
                monkeypatch.setattr(pool, "fork_available", lambda: False)
            faults.reset_faults()
            counters.reset(TUNING_COUNTERS)
            assert _driver(SMALL, tmp_path, name=name,
                           workers=workers).run()["complete"]
            seen = counters.read(TUNING_COUNTERS)
            tallies[name] = (seen["tuning_retries"],
                             seen["tuning_worker_crashes"])
        assert tallies["inline"][1] > 0
        assert tallies["inline"] == tallies["pooled"] == tallies["nofork"]
        reports = {(tmp_path / f"{name}.json").read_bytes()
                   for name in tallies}
        assert len(reports) == 1


#: 224 points: enough pending work that a supervisor re-hashing the
#: queue on every event is quadratic in plain sight.
WIDE = SweepSpace(shapes=((16, 16, 16), (8, 16, 16), (8, 8, 8)),
                  versions=(3, 4), sizes=(4,))


class TestSupervisorCost:
    """The event loop is O(events): points are hashed once per sweep,
    never per pending point per event (before, this sweep hashed
    ~70-110 digests per point on the pool and ~17 inline)."""

    @pytest.mark.parametrize("profile", ["", "tuning.worker:crash@0.2"])
    @pytest.mark.parametrize("rung", ["pool", "inline", "nofork"])
    def test_digest_computations_are_linear_in_points(
            self, tmp_path, monkeypatch, rung, profile):
        import hashlib
        import types

        from repro import pool
        from repro.tuning import driver as driver_module
        from repro.tuning import space as space_module

        hashed = []

        def counting_sha256(*args):
            hashed.append(1)
            return hashlib.sha256(*args)

        monkeypatch.setattr(space_module, "hashlib",
                            types.SimpleNamespace(sha256=counting_sha256))
        monkeypatch.setattr(driver_module, "evaluate_point", _fake_outcome)
        if rung == "nofork":
            monkeypatch.setattr(pool, "fork_available", lambda: False)
        if profile:
            monkeypatch.setenv("REPRO_FAULTS", profile)
            monkeypatch.setenv("REPRO_FAULTS_SEED", "3")
            faults.reset_faults()
        points = len(WIDE.points())
        assert points >= 200
        hashed.clear()
        result = _driver(WIDE, tmp_path,
                         workers=1 if rung == "inline" else 2).run()
        assert result["complete"]
        totals = result["report"]["totals"]
        assert totals["completed"] + totals["poisoned"] == points
        if profile:  # the retry path is inside the bound
            assert TUNING_COUNTERS["tuning_retries"] > 0
        assert len(hashed) <= 8 * points


class TestSweepStore:
    """A sweep writes one store entry per *simulated* kernel, once."""

    @pytest.fixture
    def store(self, tmp_path, monkeypatch):
        from repro.compiler import default_kernel_cache
        from repro.store import STORE_COUNTERS

        directory = tmp_path / "store"
        monkeypatch.setenv("REPRO_KERNEL_CACHE_DIR", str(directory))
        default_kernel_cache().clear()
        counters.reset(STORE_COUNTERS)
        yield directory
        default_kernel_cache().clear()

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.usefixtures("clean_faults")
    def test_one_write_and_one_entry_per_simulated_point(
            self, tmp_path, store, workers):
        from repro.store import STORE_COUNTERS

        space = SweepSpace(shapes=((16, 16, 16),), versions=(2, 3),
                           sizes=(4,))
        result = _driver(space, tmp_path, prune_ratio=1.1,
                         workers=workers).run()
        totals = result["report"]["totals"]
        simulated = len(space.points()) - totals["pruned"]
        assert totals["pruned"] >= 1
        assert totals["completed"] == simulated >= 1
        # Pruned points compile but never replay: nothing is written
        # for them, and nothing is written twice for the rest.
        assert STORE_COUNTERS["store_writes"] == simulated
        assert len(list(store.glob("objects/*/*.entry"))) == simulated
        assert not (store / "locks").exists()

    @pytest.mark.usefixtures("clean_faults")
    def test_an_inline_sweep_is_made_durable_once_per_group(
            self, tmp_path, store, monkeypatch):
        """One journal commit per report group and one store sync batch
        (before: an fsync per journal record, two per store entry)."""
        from repro.store import STORE_COUNTERS

        space = smoke_space(versions=(1, 2))
        fsyncs = []
        real = os.fsync
        monkeypatch.setattr(os, "fsync",
                            lambda fd: fsyncs.append(fd) or real(fd))
        result = SweepDriver(space, journal_path=tmp_path / "j.jsonl",
                             workers=1).run()
        assert result["complete"]
        groups = len({point.group for point in space.points()})
        entries = list(store.glob("objects/*/*.entry"))
        shards = {path.parent for path in entries}
        assert groups == 2 and entries
        assert TUNING_COUNTERS["tuning_journal_commits"] == groups
        assert STORE_COUNTERS["store_syncs"] == 1
        # The store is new: objects/, its root and the root's parent
        # are fsynced once, for the names of the directories made.
        new_directories = 3
        assert len(fsyncs) <= len(entries) + len(shards) \
            + new_directories + groups + 3

    @pytest.mark.parametrize("workers,crashes", [(1, True), (2, False),
                                                 (2, True)])
    @pytest.mark.usefixtures("clean_faults")
    def test_every_entry_is_fsynced_before_run_returns(
            self, tmp_path, store, monkeypatch, workers, crashes):
        """Pool workers sync at shutdown; one that crashed cannot, so
        the parent syncs what it left."""
        log = tmp_path / "fsynced.log"
        real = os.fsync

        def fsync(fd):  # forked workers inherit it and log to the file
            with open(log, "a") as fh:
                fh.write(os.readlink(f"/proc/self/fd/{fd}") + "\n")
            real(fd)

        monkeypatch.setattr(os, "fsync", fsync)
        if crashes:
            monkeypatch.setenv("REPRO_FAULTS", "tuning.worker:crash@0.5")
            monkeypatch.setenv("REPRO_FAULTS_SEED", "3")
            faults.reset_faults()
        space = smoke_space(versions=(1, 2))
        assert _driver(space, tmp_path, workers=workers).run()["complete"]
        assert bool(TUNING_COUNTERS["tuning_worker_crashes"]) == crashes
        entries = {str(path) for path in store.glob("objects/*/*.entry")}
        assert entries
        assert entries <= set(log.read_text().splitlines())

    @pytest.mark.usefixtures("clean_faults")
    def test_an_inline_sweep_builds_one_kernel_per_printed_ir(
            self, tmp_path, store):
        """``cpu_tiling`` is a no-op on the smoke space, so a twin is
        served its sibling's kernel: one build, one entry, one write per
        distinct lowering (before: one per point)."""
        from repro.accelerators import make_matmul_system
        from repro.compiler import AXI4MLIRCompiler, default_kernel_cache
        from repro.ir.printer import print_module
        from repro.store import STORE_COUNTERS

        space = smoke_space(versions=(1, 2))
        printed = set()
        for point in space.points():
            _, info = make_matmul_system(point.version, point.size,
                                         flow=point.flow,
                                         accel_size=point.accel_size)
            printed.add(print_module(AXI4MLIRCompiler(
                info, enable_cpu_tiling=point.cpu_tiling,
                use_kernel_cache=False).compile_matmul(
                    point.m, point.n, point.k).module))
        assert _driver(space, tmp_path).run()["complete"]
        assert default_kernel_cache().misses == len(printed) \
            == len({point.family for point in space.points()}) \
            < len(space.points())
        assert STORE_COUNTERS["store_writes"] == len(printed)
        assert TUNING_COUNTERS["tuning_family_waits"] == 0

    @pytest.mark.usefixtures("clean_faults")
    def test_a_pooled_sweep_runs_a_twin_after_its_sibling(
            self, tmp_path, store, monkeypatch):
        """No two points of one kernel family are ever in flight, so a
        twin finds its sibling's kernel in memory or in the store: the
        pool builds each kernel once, and its report is the inline
        one's."""
        from repro import pool
        from repro.compiler import default_kernel_cache

        in_flight, overlaps = {}, []

        class Recording(pool.Pool):
            def submit(self, slot, job):
                if job is not None:  # None: the shutdown handshake
                    family = {**job["spec"], "cpu_tiling": None}
                    overlaps.extend(other for other in in_flight.values()
                                    if other == family)
                    in_flight[slot] = family
                super().submit(slot, job)

            def wait(self, slots, timeout):
                replies = super().wait(slots, timeout)
                for slot, _ in replies:
                    in_flight.pop(slot, None)
                return replies

        monkeypatch.setattr(pool, "Pool", Recording)
        space = smoke_space(versions=(1, 2))
        families = len({point.family for point in space.points()})
        assert _driver(space, tmp_path, name="pooled", workers=2).run()[
            "complete"]
        assert overlaps == []
        assert TUNING_COUNTERS["tuning_family_waits"] > 0
        cache = default_kernel_cache()
        assert cache.misses - cache.disk_hits == families
        _driver(space, tmp_path, name="inline").run()
        assert (tmp_path / "pooled.json").read_bytes() \
            == (tmp_path / "inline.json").read_bytes()


class TestSweepHygiene:
    """Sweeps clean up what they make, and resume what they leave."""

    @pytest.fixture
    def private_tmp(self, tmp_path, monkeypatch):
        import tempfile

        directory = tmp_path / "tmp"
        directory.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(directory))
        return directory

    def test_sweep_rows_removes_its_journal_directory(self, private_tmp,
                                                      monkeypatch):
        from repro.experiments.figures import sweep_rows
        from repro.tuning import driver as driver_module

        monkeypatch.setattr(driver_module, "evaluate_point", _fake_outcome)
        assert sweep_rows()
        assert not list(private_tmp.glob("repro-sweep-*"))

    def test_an_interrupted_sweep_rows_names_its_journal(self, private_tmp,
                                                         monkeypatch):
        from repro import tuning
        from repro.experiments.figures import sweep_rows

        class Drained(SweepDriver):
            def run(self):
                self.request_stop()
                return super().run()

        monkeypatch.setattr(tuning, "SweepDriver", Drained)
        with pytest.raises(RuntimeError) as excinfo:
            sweep_rows()
        (journal,) = private_tmp.glob("repro-sweep-*/sweep.jsonl")
        assert str(journal) in str(excinfo.value)

    @pytest.mark.usefixtures("clean_faults")
    def test_a_sigkilled_sweep_resumes_byte_identical(self, tmp_path,
                                                      monkeypatch):
        """A sweep process killed with SIGKILL inside its third point
        resumes on the pool, from its journal and the entries it left
        in the store, to the uninterrupted report byte for byte."""
        import signal
        import subprocess
        import sys
        import textwrap

        from repro.compiler import default_kernel_cache

        script = textwrap.dedent("""
            import os, signal, sys
            from repro.tuning import SweepDriver, driver, smoke_space
            real, seen = driver.evaluate_point, []
            def evaluate(spec, *args, **kwargs):
                seen.append(spec)
                if len(seen) == 3:
                    os.kill(os.getpid(), signal.SIGKILL)
                return real(spec, *args, **kwargs)
            driver.evaluate_point = evaluate
            SweepDriver(smoke_space(versions=(1, 2)), sys.argv[1],
                        sys.argv[2], workers=1).run()
        """)
        store = tmp_path / "store"
        monkeypatch.setenv("REPRO_KERNEL_CACHE_DIR", str(store))
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        killed = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "killed.jsonl"),
             str(tmp_path / "killed.json")],
            env=dict(os.environ, PYTHONPATH=src), timeout=300)
        assert killed.returncode == -signal.SIGKILL
        assert not (tmp_path / "killed.json").exists()
        assert list(store.glob("objects/*/*.entry"))
        space = smoke_space(versions=(1, 2))
        default_kernel_cache().clear()
        assert _driver(space, tmp_path, name="killed", workers=2).run()[
            "complete"]
        assert TUNING_COUNTERS["tuning_points_resumed"] == 2
        assert TUNING_COUNTERS["tuning_points_inflight"] == 1
        _driver(space, tmp_path, name="clean").run()
        assert (tmp_path / "killed.json").read_bytes() \
            == (tmp_path / "clean.json").read_bytes()
        default_kernel_cache().clear()


class TestEnvKnobs:
    def test_defaults(self):
        assert worker_count() >= 1
        assert tuning_deadline_s() == 60.0

    def test_malformed_workers_warns_once_and_falls_back(
            self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "many")
        with pytest.warns(RuntimeWarning, match=WORKERS_ENV):
            value = worker_count()
        assert value == max(1, min(4, os.cpu_count() or 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert worker_count() == value  # one-shot: no second warning

    def test_malformed_deadline_warns_once_and_falls_back(
            self, monkeypatch):
        monkeypatch.setenv(TUNING_DEADLINE_ENV, "soon")
        with pytest.warns(RuntimeWarning, match=TUNING_DEADLINE_ENV):
            assert tuning_deadline_s() == 60.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert tuning_deadline_s() == 60.0

    def test_valid_values_are_used(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "2")
        monkeypatch.setenv(TUNING_DEADLINE_ENV, "1.5")
        assert worker_count() == 2
        assert tuning_deadline_s() == 1.5


class TestReport:
    def test_report_is_a_pure_function_of_results(self):
        results = {}
        for index, point in enumerate(SMALL.points()):
            results[point.digest] = {
                "digest": point.digest, "spec": point.spec(),
                "status": "ok", "metric": float(index), "counters": {},
                "est_bytes": None,
            }
        one = render_report(build_report(SMALL, results))
        two = render_report(build_report(SMALL, dict(reversed(
            list(results.items())))))
        assert one == two
        assert json.loads(one)["totals"]["missing"] == 0

    def test_missing_points_are_accounted(self):
        report = build_report(SMALL, {})
        assert report["totals"]["missing"] == len(SMALL.points())
        assert report["groups"] == {}

    def test_a_failed_publish_leaves_no_litter(self, tmp_path, monkeypatch):
        """A report whose ``os.replace`` fails leaves the old report in
        place and no ``*.tmp-*`` file beside it."""
        from repro.tuning.report import write_report

        path = tmp_path / "report.json"
        write_report(path, {"old": 1})

        def refuse(src, dst):
            raise OSError("injected replace failure")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="injected"):
            write_report(path, {"new": 2})
        assert json.loads(path.read_text()) == {"old": 1}
        assert sorted(tmp_path.iterdir()) == [path]
