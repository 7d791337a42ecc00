"""CI smoke for the compile/simulate service (run as a script).

Starts a standalone server (``python -m repro.service``), fires a
fleet of concurrent client *processes* at it — mixed matmul/conv
requests, some duplicated across clients to exercise coalescing and
the idempotency cache — then SIGTERMs the server and checks the whole
robustness contract at once:

* every request succeeded (through whatever retries/requeues the
  ambient ``REPRO_FAULTS`` chaos profile forced);
* every response is bit-identical to direct in-process execution;
* the drain summary shows a clean shutdown: empty queue, nothing
  executing, and one merged diagnostics delta per surviving worker;
* the shared kernel store has no ``*.tmp-*`` litter and an empty
  ``corrupt/`` directory;
* before the SIGTERM, no live worker of the server (its children, found
  through ``/proc/<pid>/task/*/children``) holds the listener's socket
  inode — crash-restarted workers included.  Skipped without ``/proc``.

Environment: ``SERVICE_CI_CLIENTS`` (default 8) client processes with
``SERVICE_CI_REQUESTS`` (default 4) requests each; ``REPRO_FAULTS`` /
``REPRO_FAULTS_SEED`` / ``REPRO_KERNEL_CACHE_DIR`` pass through to
server, workers, and clients alike.

Exit code 0 on success; prints a JSON summary either way.
"""

import glob
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time

import numpy as np

REPO_ROOT = os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.service import ServiceClient  # noqa: E402
from repro.service.worker import run_request  # noqa: E402

N_CLIENTS = int(os.environ.get("SERVICE_CI_CLIENTS", "8"))
N_REQUESTS = int(os.environ.get("SERVICE_CI_REQUESTS", "4"))
WORKERS = int(os.environ.get("SERVICE_CI_WORKERS", "4"))


def spec_corpus():
    """Deterministic mixed request corpus (small shapes: the smoke
    bar is robustness, not throughput)."""
    specs = []
    for index, (m, n, k) in enumerate(
            [(8, 8, 8), (16, 8, 8), (8, 16, 8), (12, 12, 8),
             (16, 16, 8), (8, 8, 16)]):
        rng = np.random.default_rng(100 + index)
        specs.append({
            "kind": "matmul", "m": m, "n": n, "k": k, "size": 4,
            "version": 1 + index % 3, "flow": ("Ns", "As", "Cs")[index % 3],
            "inputs": [rng.integers(-8, 8, (m, k)).astype(np.int32),
                       rng.integers(-8, 8, (k, n)).astype(np.int32)],
        })
    for index, in_ch in enumerate((2, 3)):
        rng = np.random.default_rng(200 + index)
        specs.append({
            "kind": "conv", "batch": 1, "in_ch": in_ch, "in_hw": 8,
            "out_ch": 3, "f_hw": 3, "stride": 1,
            "inputs": [
                rng.integers(-4, 4, (1, in_ch, 8, 8)).astype(np.int32),
                rng.integers(-4, 4, (3, in_ch, 3, 3)).astype(np.int32),
            ],
        })
    return specs


def client_proc(address, client_index, corpus_len, queue):
    try:
        corpus = spec_corpus()
        with ServiceClient(address, seed=client_index,
                           max_attempts=12,
                           response_timeout_s=20.0) as client:
            for i in range(N_REQUESTS):
                spec_index = (client_index * N_REQUESTS + i) % corpus_len
                reply = client.submit(corpus[spec_index],
                                      deadline_s=180.0)
                queue.put((spec_index, reply["counters"].as_dict(),
                           reply["output"].tobytes()))
    except BaseException as exc:  # noqa: BLE001 - reported to parent
        queue.put(("error", f"client {client_index}: {exc!r}", None))


def store_hygiene(store_dir):
    litter, quarantined = [], []
    if store_dir and os.path.isdir(store_dir):
        for root, _dirs, files in os.walk(store_dir):
            for name in files:
                if ".tmp-" in name:
                    litter.append(os.path.join(root, name))
                if os.path.basename(root) == "corrupt":
                    quarantined.append(os.path.join(root, name))
    return litter, quarantined


def listener_inode(address):
    """Inode of the socket listening on ``address`` (/proc/net/unix)."""
    with open("/proc/net/unix") as table:
        next(table)
        for line in table:
            fields = line.split()
            # Flags 0x10000 is __SO_ACCEPTCON: a listening socket.
            if len(fields) == 8 and fields[7] == address \
                    and int(fields[3], 16) & 0x10000:
                return int(fields[6])
    raise RuntimeError(f"no listening socket at {address}")


def workers_holding(server_pid, inode):
    """(children of the server, those holding socket ``inode``)."""
    children, holders = [], []
    for listing in glob.glob(f"/proc/{server_pid}/task/*/children"):
        with open(listing) as pids:
            children.extend(int(pid) for pid in pids.read().split())
    for pid in children:
        try:
            fds = os.listdir(f"/proc/{pid}/fd")
        except OSError:
            continue  # exited meanwhile
        for fd in fds:
            try:
                target = os.readlink(f"/proc/{pid}/fd/{fd}")
            except OSError:
                continue
            if target == f"socket:[{inode}]":
                holders.append(pid)
                break
    return children, holders


def main():
    corpus = spec_corpus()

    # Direct in-process baselines, ambient chaos stripped: the service
    # must reproduce the *clean* results bit-for-bit even under faults.
    ambient = {name: os.environ.pop(name, None)
               for name in ("REPRO_FAULTS", "REPRO_FAULTS_SEED")}
    baselines = []
    for spec in corpus:
        counters, output = run_request(dict(spec))
        baselines.append((counters.as_dict(), output.tobytes()))
    for name, value in ambient.items():
        if value is not None:
            os.environ[name] = value

    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    server = subprocess.Popen(
        [sys.executable, "-m", "repro.service",
         "--workers", str(WORKERS)],
        stdout=subprocess.PIPE, text=True, env=env, cwd=REPO_ROOT,
    )
    ready = json.loads(server.stdout.readline())
    address = ready["socket"]
    print(f"server up: {address} workers={ready['workers']} "
          f"faults={os.environ.get('REPRO_FAULTS', '')!r}", flush=True)

    started = time.time()
    context = multiprocessing.get_context("fork")
    queue = context.Queue()
    clients = [
        context.Process(target=client_proc,
                        args=(address, index, len(corpus), queue))
        for index in range(N_CLIENTS)
    ]
    for process in clients:
        process.start()
    results = []
    for _ in range(N_CLIENTS * N_REQUESTS):
        results.append(queue.get(timeout=600))
    for process in clients:
        process.join(timeout=60)

    workers, holders = None, []
    if os.path.isdir(f"/proc/{server.pid}/task"):
        workers, holders = workers_holding(server.pid,
                                           listener_inode(address))

    server.send_signal(signal.SIGTERM)
    drain_line = server.stdout.readline()
    server.wait(timeout=120)
    summary = json.loads(drain_line)

    failures = [r[1] for r in results if r[0] == "error"]
    mismatches = 0
    for spec_index, counters_dict, output_bytes in results:
        if spec_index == "error":
            continue
        if (counters_dict, output_bytes) != baselines[spec_index]:
            mismatches += 1
    litter, quarantined = store_hygiene(
        os.environ.get("REPRO_KERNEL_CACHE_DIR"))
    counters = summary["counters"]
    report = {
        "clients": N_CLIENTS,
        "requests": len(results),
        "elapsed_s": round(time.time() - started, 2),
        "failures": failures,
        "result_mismatches": mismatches,
        "drain_queued": summary["queued"],
        "drain_executing": summary["executing"],
        "workers_merged": counters["service_workers_merged"],
        "worker_crashes": counters["service_worker_crashes"],
        "shed_busy": counters["service_shed_busy"],
        "coalesced": counters["service_coalesced"],
        "timeouts": counters["service_timeouts"],
        "store_tmp_litter": litter,
        "store_quarantined": quarantined,
        "workers_checked": None if workers is None else len(workers),
        "workers_holding_listener": holders,
        "server_returncode": server.returncode,
    }
    print(json.dumps(report, indent=2))

    ok = (not failures
          and mismatches == 0
          and len(results) == N_CLIENTS * N_REQUESTS
          and summary["queued"] == 0
          and summary["executing"] == 0
          and counters["service_workers_merged"] >= 1
          and not litter and not quarantined
          and (workers is None or (bool(workers) and not holders))
          and server.returncode == 0)
    print("service smoke:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
