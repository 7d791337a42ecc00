"""The supervised fork pool and the counter registry, on a toy handler.

No kernel is compiled here: the handler only sleeps, bumps counters and
reports where it ran, so every assertion is about the pool's own
mechanism — crash detection through the sentinel, slot-stable restarts,
the shutdown handshake, and the rule that every counted event and every
stage-second a worker produced is merged into the parent exactly once.
"""

import multiprocessing
import os
import re
import select
import signal
import sys
import threading
import time
from pathlib import Path

import pytest

from repro import counters, pool
from repro.execution import STAGE_TIMINGS, run_model_jobs
from repro.execution.metrics import _PLANS_LOCK
from repro.execution.trace import add_stage_time
from repro.store import STORE_COUNTERS
from repro.tuning.counters import TUNING_COUNTERS, count as tuning_count

pytestmark = pytest.mark.skipif(not pool.fork_available(),
                                reason="needs the fork start method")

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def _bump(job):
    STORE_COUNTERS["store_hits"] += job["n"]
    tuning_count("tuning_retries", job["n"])
    add_stage_time("manual_record_s", job["seconds"])


def toy_handler(job):
    kind = job["kind"]
    if kind == "sleep":
        time.sleep(job["seconds"])
    elif kind == "bump":
        _bump(job)
    elif kind == "bump_later":
        # Work a worker does *between* replies: only the shutdown
        # handshake's residue delta can carry it home.
        threading.Timer(0.05, _bump, args=(job,)).start()
    elif kind == "nested":
        return {"pids": run_model_jobs([(os.getpid, ()), (os.getpid, ())],
                                       workers=2)}
    return {"pid": os.getpid(),
            "name": multiprocessing.current_process().name}


@pytest.fixture
def toy_pool():
    workers = pool.Pool(2, toy_handler)
    yield workers
    workers.shutdown()


def _watched():
    return (STORE_COUNTERS["store_hits"], TUNING_COUNTERS["tuning_retries"],
            STAGE_TIMINGS["manual_record_s"])


class TestSupervision:
    def test_sigkill_mid_job_is_a_crash_and_the_slot_is_reused(
            self, toy_pool):
        toy_pool.submit(0, {"kind": "sleep", "seconds": 60})
        victim = toy_pool.workers[0].process
        os.kill(victim.pid, signal.SIGKILL)
        assert toy_pool.wait([0], 10) == [(0, None)]
        toy_pool.restart(0)
        replacement = toy_pool.workers[0]
        assert replacement.slot == 0
        assert replacement.process.pid != victim.pid
        assert not victim.is_alive()
        # The job can be resubmitted to the same slot.
        toy_pool.submit(0, {"kind": "bump", "n": 0, "seconds": 0.0})
        [(slot, reply)] = toy_pool.wait([0], 10)
        assert slot == 0 and reply["op"] == "result"
        assert reply["worker"] == 0
        assert reply["name"] == "repro-pool-0"
        assert reply["pid"] == replacement.process.pid

    def test_a_job_past_its_kill_time_is_killed_and_the_slot_recycled(
            self, toy_pool):
        toy_pool.submit(1, {"kind": "sleep", "seconds": 60})
        hung = toy_pool.workers[1].process
        started = time.monotonic()
        assert toy_pool.wait([1], 0.2) == []  # the caller's kill time
        toy_pool.restart(1)
        assert not hung.is_alive()
        assert time.monotonic() - started < 10
        toy_pool.submit(1, {"kind": "sleep", "seconds": 0})
        [(slot, reply)] = toy_pool.wait([1], 10)
        assert (slot, reply["worker"], reply["name"]) \
            == (1, 1, "repro-pool-1")

    def test_wait_reports_only_the_slots_it_was_given(self, toy_pool):
        toy_pool.submit(0, {"kind": "sleep", "seconds": 0})
        toy_pool.submit(1, {"kind": "sleep", "seconds": 0})
        seen = set()
        deadline = time.monotonic() + 10
        while seen != {0, 1} and time.monotonic() < deadline:
            waiting = sorted({0, 1} - seen)
            for slot, reply in toy_pool.wait(waiting, 10):
                assert slot in waiting and reply is not None
                seen.add(slot)
        assert seen == {0, 1}

    def test_a_dead_worker_is_reported_even_when_idle(self, toy_pool):
        toy_pool.workers[0].process.kill()
        toy_pool.workers[0].process.join(timeout=10)
        toy_pool.submit(0, {"kind": "sleep", "seconds": 0})
        assert toy_pool.wait([0], 10) == [(0, None)]

    def test_workers_exit_when_their_parent_is_sigkilled(self):
        """A worker that kept its inherited copy of the parent's pipe end
        would never see EOF, and outlive a SIGKILLed sweep or server."""
        # Every process forked below holds alive_w; reading EOF from
        # alive_r therefore means all of them are gone.
        alive_r, alive_w = os.pipe()
        ready_r, ready_w = os.pipe()
        owner = os.fork()
        if owner == 0:
            try:
                pool.Pool(2, toy_handler)
                os.write(ready_w, b"1")
                time.sleep(60)
            finally:
                os._exit(1)
        os.close(alive_w)
        os.close(ready_w)
        try:
            assert os.read(ready_r, 1) == b"1"
            os.kill(owner, signal.SIGKILL)
            os.waitpid(owner, 0)
            readable, _, _ = select.select([alive_r], [], [], 10)
            assert readable and os.read(alive_r, 1) == b""
        finally:
            os.close(alive_r)
            os.close(ready_r)


class TestDeltaAccounting:
    JOBS = [{"kind": "bump", "n": 3, "seconds": 0.25},
            {"kind": "bump_later", "n": 5, "seconds": 0.5},
            {"kind": "bump", "n": 7, "seconds": 1.0},
            {"kind": "bump_later", "n": 11, "seconds": 2.0}]

    def test_replies_plus_residues_equal_the_inline_run(self):
        before = _watched()
        for job in self.JOBS:
            pool.run_seamed(toy_handler, dict(job))
        time.sleep(0.3)  # let the inline run's timers fire too
        inline = tuple(b - a for a, b in zip(before, _watched()))
        assert inline == (26, 26, 3.75)

        before = _watched()
        workers = pool.Pool(2, toy_handler)
        for index, job in enumerate(self.JOBS):
            slot = index % 2
            workers.submit(slot, dict(job))
            [(_, reply)] = workers.wait([slot], 10)
            # wait() merged the delta and took it off the reply.
            assert reply["op"] == "result" and "delta" not in reply
        replies_only = tuple(b - a for a, b in zip(before, _watched()))
        assert replies_only[0] < 26  # the late bumps are still out there
        time.sleep(0.3)
        assert workers.shutdown() == 2
        pooled = tuple(b - a for a, b in zip(before, _watched()))
        assert pooled == inline
        # Each residue was merged exactly once: nothing arrives later.
        assert workers.shutdown() == 0
        assert tuple(b - a for a, b in zip(before, _watched())) == inline

    def test_shutdown_merges_a_reply_the_caller_never_read(self):
        before = _watched()
        workers = pool.Pool(1, toy_handler)
        workers.submit(0, {"kind": "bump", "n": 2, "seconds": 0.125})
        assert workers.shutdown() == 1
        assert tuple(b - a for a, b in zip(before, _watched())) \
            == (2, 2, 0.125)

    def test_count_loses_no_update_between_racing_threads(self):
        def bump():
            for _ in range(2000):
                tuning_count("tuning_retries")

        before = TUNING_COUNTERS["tuning_retries"]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=bump) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert TUNING_COUNTERS["tuning_retries"] == before + 8 * 2000

    def test_delta_keeps_only_what_moved(self):
        base = counters.snapshot()
        STORE_COUNTERS["store_hits"] += 4
        moved = counters.delta(counters.snapshot(), base)
        STORE_COUNTERS["store_hits"] -= 4
        assert moved["store"] == {"store_hits": 4}
        assert all(not values for name, values in moved.items()
                   if name != "store")
        assert "kernel_cache" in moved  # the registered external pair

    def test_merge_reaches_sections_and_the_kernel_cache(self):
        from repro.compiler import default_kernel_cache

        cache = default_kernel_cache()
        before = (cache.disk_hits, STAGE_TIMINGS["replay_s"])
        counters.merge({"kernel_cache": {"disk_hits": 2},
                        "stage_timings": {"replay_s": 0.5}})
        assert (cache.disk_hits, STAGE_TIMINGS["replay_s"]) \
            == (before[0] + 2, before[1] + 0.5)
        counters.merge({"kernel_cache": {"disk_hits": -2},
                        "stage_timings": {"replay_s": -0.5}})


class TestNesting:
    def test_run_model_jobs_inside_a_pool_worker_stays_inline(
            self, toy_pool):
        assert not pool.in_worker()
        toy_pool.submit(0, {"kind": "nested"})
        [(_, reply)] = toy_pool.wait([0], 30)
        assert reply["pids"] == [toy_pool.workers[0].process.pid] * 2

    def test_a_dead_model_worker_raises_the_named_error(self):
        with pytest.raises(pool.WorkerDied):
            run_model_jobs([(os._exit, (3,)), (os.getpid, ())], workers=2)

    def test_a_model_job_exception_is_reraised_in_the_parent(self):
        with pytest.raises(ZeroDivisionError):
            run_model_jobs([(divmod, (1, 0)), (os.getpid, ())], workers=2)


class TestForkSafety:
    @staticmethod
    def _fork_while_held(locks):
        """Hold ``locks`` in another thread, fork, and return the exit
        code of a child that must acquire each one within 2 s."""
        held, release = threading.Event(), threading.Event()

        def holder():
            for lock in locks:
                lock.acquire()
            held.set()
            release.wait(timeout=60)
            for lock in locks:
                lock.release()

        thread = threading.Thread(target=holder, daemon=True)
        thread.start()
        assert held.wait(timeout=10)
        try:
            pid = os.fork()
            if pid == 0:
                code = 0
                for lock in locks:
                    if not lock.acquire(timeout=2):
                        code = 1
                        break
                os._exit(code)
            _, status = os.waitpid(pid, 0)
        finally:
            release.set()
            thread.join(timeout=10)
        return os.waitstatus_to_exitcode(status)

    def test_child_forked_while_component_memo_lock_is_held(self):
        """A warmup replay on the server's reader thread holds
        ``_PLANS_LOCK`` (the plan registry's; the former component-memo
        lock) while a dispatcher forks a replacement worker; the child
        must not inherit it held."""
        assert self._fork_while_held([_PLANS_LOCK]) == 0

    def test_child_can_take_every_fork_safe_lock(self):
        from repro import faults
        from repro import store

        import repro.service.server  # noqa: F401 — registers its section
        locks = counters.fork_safe_locks()
        for lock in (_PLANS_LOCK, counters._LOCK, faults._lock,
                     store._tmp_counter_lock):
            assert any(lock is known for known in locks)
        assert self._fork_while_held(locks) == 0


class TestStructure:
    """One fork hook, one module that makes processes."""

    @pytest.mark.parametrize("pattern, home", [
        (r"register_at_fork\(", "counters.py"),
        (r"get_context\(", "pool.py"),
        (r"\bProcess\(", "pool.py"),
        (r"ProcessPoolExecutor|concurrent\.futures", None),
        (r"^\w*\s*=\s*threading\.R?Lock\(\)", None),
    ])
    def test_pattern_lives_only_in_its_home(self, pattern, home):
        offenders = sorted(
            str(path.relative_to(SRC)) for path in SRC.rglob("*.py")
            if path.name != home
            and re.search(pattern, path.read_text(), re.MULTILINE))
        assert offenders == []

    def test_environment_names_are_the_pinned_fourteen(self):
        """One selector per axis: a new ``REPRO_*`` name is a new axis
        of the configuration product tests/test_tier_matrix.py covers."""
        names = {name for path in SRC.rglob("*.py")
                 for name in re.findall(r"REPRO_[A-Z_]+", path.read_text())}
        assert names == {"REPRO_" + suffix for suffix in (
            "CHECK", "FAULTS", "FAULTS_SEED", "FULL_SCALE",
            "KERNEL_CACHE_DIR", "KERNEL_CACHE_MAX_BYTES", "MODEL_WORKERS",
            "NO_NATIVE", "NO_TRACE", "SERVICE_QUEUE_MAX",
            "SERVICE_TIMEOUT_S", "SERVICE_WORKERS", "TUNING_DEADLINE_S",
            "TUNING_WORKERS")}

    def test_the_store_has_one_version(self):
        """Entry names carry the source digest, so only the sweep
        journal and its report — files that outlive a source change —
        version themselves."""
        homes = sorted(
            str(path.relative_to(SRC)) for path in SRC.rglob("*.py")
            if "SCHEMA_VERSION" in path.read_text())
        assert homes == ["tuning/journal.py", "tuning/report.py"]

    def test_exactly_one_fork_hook(self):
        text = (SRC / "counters.py").read_text()
        assert len(re.findall(r"os\.register_at_fork\(", text)) == 1
