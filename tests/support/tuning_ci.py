"""CI smoke for the autotuning sweep engine (run as a script).

Exercises the acceptance bar end-to-end with real processes:

1. runs a small sweep to completion (the reference report);
2. starts the same sweep against a fresh journal and SIGKILLs it, with
   its pool workers, inside the Nth point evaluation (counted across
   the workers) — no drain, no cleanup;
3. resumes from the half-written journal and lets it finish;
4. asserts the resumed report is **bit-identical** to the reference,
   that completed points were served from the journal rather than
   recomputed, and that neither run littered temp files.

``REPRO_FAULTS`` / ``REPRO_FAULTS_SEED`` pass through to every run, so
the CI chaos leg layers injected journal I/O errors, worker crashes,
and poisoned points on top of the SIGKILL.

Exit code 0 on success; prints a JSON summary either way.
"""

import glob
import json
import os
import signal
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

WORKDIR = os.environ.get("TUNING_CI_DIR", "tuning_ci")
KILL_AT_POINT = int(os.environ.get("TUNING_CI_KILL_AT", "3"))
TIMEOUT_S = 300

#: Runs ``python -m repro.tuning`` with ``evaluate_point`` wrapped: the
#: Nth call, counted in memory shared with the forked workers (a
#: restarted worker included), SIGKILLs the sweep's process group.
#: The kill lands mid-sweep however fast the points run.
KILLED_SWEEP = r"""
import multiprocessing, os, runpy, signal, sys
from repro.tuning import driver
kill_at = int(sys.argv.pop(1))
calls = multiprocessing.Value("i", 0)
evaluate_point = driver.evaluate_point
def counted(*args, **kwargs):
    with calls.get_lock():
        calls.value += 1
        if calls.value == kill_at:
            os.killpg(0, signal.SIGKILL)
    return evaluate_point(*args, **kwargs)
driver.evaluate_point = counted
runpy.run_module("repro.tuning", run_name="__main__", alter_sys=True)
"""


def sweep_args(journal, report):
    return ["--journal", journal, "--report", report,
            "--versions", "1", "2", "--workers", "2"]


def run_to_completion(journal, report, env):
    proc = subprocess.run(
        [sys.executable, "-m", "repro.tuning", *sweep_args(journal, report)],
        env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    if proc.returncode != 0:
        print(proc.stdout[-2000:], file=sys.stderr)
        print(proc.stderr[-2000:], file=sys.stderr)
        raise SystemExit(f"sweep exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def journaled_results(journal):
    try:
        with open(journal, "r", encoding="utf-8") as fh:
            return fh.read().count('"t":"result"')
    except FileNotFoundError:
        return 0


def main():
    os.makedirs(WORKDIR, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
    clean_journal = os.path.join(WORKDIR, "clean.jsonl")
    clean_report = os.path.join(WORKDIR, "clean.json")
    killed_journal = os.path.join(WORKDIR, "killed.jsonl")
    killed_report = os.path.join(WORKDIR, "killed.json")

    # 1. Reference: one uninterrupted sweep.
    clean_done = run_to_completion(clean_journal, clean_report, env)
    assert clean_done["complete"], clean_done

    # 2. Same sweep, SIGKILLed inside its KILL_AT_POINT-th evaluation.
    #    Its own session, so the kill takes its workers and nothing else.
    killed = subprocess.run(
        [sys.executable, "-c", KILLED_SWEEP, str(KILL_AT_POINT),
         *sweep_args(killed_journal, killed_report)],
        env=env, stdout=subprocess.DEVNULL, start_new_session=True,
        timeout=TIMEOUT_S)
    killed_mid_run = killed.returncode == -signal.SIGKILL
    assert killed_mid_run, \
        f"the sweep exited {killed.returncode} before its kill"
    results_at_kill = journaled_results(killed_journal)
    assert not os.path.exists(killed_report), \
        "an interrupted sweep must not publish a report"

    # 3. Resume from the torn journal.
    resumed_done = run_to_completion(killed_journal, killed_report, env)
    assert resumed_done["complete"], resumed_done
    counters = resumed_done["counters"]
    if results_at_kill:
        assert counters["tuning_points_resumed"] >= 1, counters

    # 4. Bit-identity + hygiene.
    with open(clean_report, "rb") as fh:
        reference = fh.read()
    with open(killed_report, "rb") as fh:
        resumed = fh.read()
    identical = reference == resumed
    litter = glob.glob(os.path.join(WORKDIR, "*.tmp-*"))
    cache_dir = env.get("REPRO_KERNEL_CACHE_DIR")
    if cache_dir and os.path.isdir(cache_dir):
        litter += glob.glob(os.path.join(cache_dir, "*.tmp-*"))

    summary = {
        "killed_mid_run": killed_mid_run,
        "results_at_kill": results_at_kill,
        "resumed_points": counters["tuning_points_resumed"],
        "replayed_records": counters["tuning_journal_replayed"],
        "bit_identical": identical,
        "litter": litter,
    }
    print(json.dumps(summary, indent=2))
    if not identical:
        raise SystemExit("resumed report differs from the reference")
    if litter:
        raise SystemExit(f"temp-file litter: {litter}")
    print("TUNING CI SMOKE PASSED")


if __name__ == "__main__":
    main()
