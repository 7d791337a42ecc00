"""One repetition of one workload, run as ``python -m perfbench.worker``.

The parent (``perfbench.harness``) starts this module in a fresh
process with a scrubbed environment and the bench root as working
directory, passes the job as one JSON argument and reads one JSON
object from the last line of stdout.  The timed section is timed here
and the parent charges the rest of the process's life to set-up; for
the ``figures_*`` workloads the whole process is the timed section.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from . import specs
from .spans import NullTracer, Tracer

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "golden"
CLIENTS = 2
SERVER_STOP_TIMEOUT_S = 60.0


def load_golden(name: str) -> dict:
    with open(GOLDEN_DIR / f"{name}.json", encoding="utf-8") as handle:
        return json.load(handle)


def rows_digest(rows) -> str:
    """Digest of a row list; floats print by ``repr``, so bit-exact."""
    body = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(body.encode()).hexdigest()[:16]


def sweep_group_digests(report: dict) -> Dict[str, str]:
    """Digest per (kernel, shape) group: ranked results + pruned points."""
    pruned: Dict[str, list] = {}
    for record in report["pruned"]:
        spec = record["spec"]
        group = f"{spec['kernel']}-{spec['m']}x{spec['n']}x{spec['k']}"
        pruned.setdefault(group, []).append(record)
    groups = set(report["groups"]) | set(pruned)
    return {
        group: rows_digest({
            "ranked": report["groups"].get(group, {}).get("ranked", []),
            "pruned": sorted(pruned.get(group, []),
                             key=lambda record: record["digest"]),
        })
        for group in groups
    }


def cpu_seconds() -> Tuple[float, float]:
    """(total, children-only) user+system CPU seconds so far; children
    are the processes this one started and has reaped."""
    times = os.times()
    children = times.children_user + times.children_system
    return times.user + times.system + children, children


def process_tree_cpu(pid: int) -> float:
    """CPU seconds of a live process tree, from ``/proc``."""
    ticks = os.sysconf("SC_CLK_TCK")
    cpu, children = {}, {}
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            # Fields after the parenthesised command name: state, ppid,
            # ... utime, stime, cutime, cstime at offsets 11..14.
            fields = (entry / "stat").read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue  # the process ended between listing and reading
        cpu[int(entry.name)] = sum(int(fields[i]) for i in range(11, 15))
        children.setdefault(int(fields[1]), []).append(int(entry.name))
    total, pending = 0, [pid]
    while pending:
        current = pending.pop()
        total += cpu.get(current, 0)
        pending.extend(children.get(current, ()))
    return total / ticks


def _since(base: Tuple[float, float],
           now: Optional[Tuple[float, float]] = None) -> Tuple[float, float]:
    now = now or cpu_seconds()
    return now[0] - base[0], now[1] - base[1]


def snapshot() -> dict:
    """``diagnostics()`` plus the shared kernel cache's hit/miss counts."""
    from repro.execution import diagnostics
    from repro.experiments import kernel_cache_stats

    stats = kernel_cache_stats()
    return dict(diagnostics(), kernel_cache={
        key: stats.get(key, 0)
        for key in ("hits", "misses", "disk_hits", "disk_misses")})


def diagnostics_delta(end: dict, base: dict) -> dict:
    """Numeric per-section deltas of two ``diagnostics()`` snapshots."""
    delta = {}
    for section, values in end.items():
        if not isinstance(values, dict):
            continue
        before = base.get(section, {})
        delta[section] = {
            key: value - before.get(key, 0)
            for key, value in values.items()
            if isinstance(value, (int, float))
            and not isinstance(value, bool)
        }
    return delta


def directory_bytes(path: str) -> int:
    return sum(entry.stat().st_size for entry in Path(path).rglob("*")
               if entry.is_file())


def environment_record() -> dict:
    import numpy

    from repro.soc._native import native_status

    return {"python": platform.python_version(),
            "numpy": numpy.__version__,
            "nproc": os.cpu_count(),
            "native": native_status()}


# -- workloads --------------------------------------------------------------

def probe(job: dict, tracer) -> dict:
    """Import the program and build its native library: the set-up a
    figure run's own process pays inside its timed section."""
    from repro.soc._native import native_lib

    native_lib()
    return {"reps": []}


def figures(job: dict, tracer) -> dict:
    """The figure suite; process start and import are timed (by the
    parent, around this whole process)."""
    with tracer.span("import"):
        from repro import experiments
    golden = load_golden("figures")
    names = specs.SMOKE_FIGURE_OPS if job["smoke"] else specs.FIGURE_OPS
    latencies, failures, wrong = [], [], 0
    for index, name in enumerate(names):
        started = time.perf_counter()
        try:
            with tracer.span(name, index):
                rows = getattr(experiments, name)(
                    *specs.figure_arguments(name, job["smoke"]))
            key = specs.figure_key(name, job["smoke"])
            if rows_digest(rows) != golden.get(key):
                wrong += 1
                failures.append(f"{name}: row digest differs from golden")
        except Exception as exc:  # noqa: BLE001 — a raising op is a failed op
            failures.append(f"{name}: raised {type(exc).__name__}: {exc}")
        latencies.append(time.perf_counter() - started)
    cpu_s, worker_cpu_s = cpu_seconds()
    return {"reps": [{
        "wall_s": None, "cpu_s": cpu_s, "worker_cpu_s": worker_cpu_s,
        "latencies_s": latencies, "attempted": len(names),
        "failed": len(failures), "failures": failures,
        "mismatches": {"output": wrong, "counters": 0},
        "diag": diagnostics_delta(snapshot(), {}),
        "store_bytes": directory_bytes(job["store"])}]}


def _prepared_pool(job: dict) -> Tuple[tuple, list, dict, dict]:
    """(pool, ops, inputs and numpy references per (spec, set), golden)."""
    pool_name = specs.WORKLOAD_POOL[job["workload"]]
    pool = specs.POOLS[pool_name]
    ops = specs.op_list(job["workload"], job["seed"], job["smoke"])
    data = {}
    for op in ops:
        key = (op["spec"], op["set"])
        if key not in data:
            inputs = specs.make_inputs(pool_name, *key, job["seed"])
            data[key] = (inputs,
                         specs.expected_output(pool[key[0]], inputs))
    return pool, ops, data, load_golden("counters")


class _Outcome:
    """Latency and check results of one repetition's ops."""

    def __init__(self, ops: int) -> None:
        self.latencies = [0.0] * ops
        self.failures: List[str] = []
        self.mismatches = {"output": 0, "counters": 0}
        self._lock = threading.Lock()  # client threads share one outcome

    def record(self, number: int, started: float, spec: dict,
               problems: List[str]) -> None:
        self.latencies[number] = time.perf_counter() - started
        if problems:
            with self._lock:
                for kind in self.mismatches:
                    self.mismatches[kind] += kind in problems
                self.failures.append(
                    f"op {number} ({specs.spec_key(spec)}): "
                    + ", ".join(problems))

    def fields(self) -> dict:
        return {"latencies_s": self.latencies,
                "attempted": len(self.latencies),
                "failed": len(self.failures), "failures": self.failures,
                "mismatches": self.mismatches}


def _windows(job: dict, tracer, run_window) -> dict:
    """Set up once, then time one window of ops after another.

    The windows are the workload's repetitions: they stop by the same
    rule the parent applies (:func:`stats.more_reps`).  A traced job
    records spans in its last window only, so the window before it
    gives the untraced wall the traced one is compared with.
    """
    from .stats import more_reps

    reps: List[dict] = []
    while more_reps([rep["wall_s"] for rep in reps], **job["rule"]):
        last = len(reps) + 1 >= job["rule"]["min_reps"]
        reps.append(run_window(tracer if last else NullTracer()))
    return {"reps": reps}


def op_loop(job: dict, tracer) -> dict:
    """``steady_replay`` and ``per_tile_oracle``: in-process ops."""
    from .ops import check_op, run_op

    pool, ops, data, golden = _prepared_pool(job)
    main_tier = "replay" if job["workload"] == "steady_replay" \
        else "per_tile"
    quiet = NullTracer()
    for index in sorted({op["spec"] for op in ops}):
        inputs = next(v[0] for k, v in data.items() if k[0] == index)
        for _ in range(2):
            run_op(pool[index], inputs, main_tier, quiet)

    def run_window(tracer) -> dict:
        outcome = _Outcome(len(ops))
        base, cpu_base = snapshot(), cpu_seconds()
        started = time.perf_counter()
        with tracer.span("rep"):
            for number, op in enumerate(ops):
                spec = pool[op["spec"]]
                inputs, expected = data[(op["spec"], op["set"])]
                op_started = time.perf_counter()
                try:
                    with tracer.span("op", number):
                        counters, output = run_op(
                            spec, inputs, op["tier"], tracer, number)
                        problems = check_op(spec, counters, output,
                                            expected, golden, tracer,
                                            number)
                except Exception as exc:  # noqa: BLE001 — a raising op
                    problems = [f"raised {type(exc).__name__}: {exc}"]
                outcome.record(number, op_started, spec, problems)
        wall_s = time.perf_counter() - started
        cpu_s, worker_cpu_s = _since(cpu_base)
        return dict(outcome.fields(), wall_s=wall_s, cpu_s=cpu_s,
                    worker_cpu_s=worker_cpu_s,
                    diag=diagnostics_delta(snapshot(), base),
                    store_bytes=directory_bytes(job["store"]))

    return _windows(job, tracer, run_window)


def stop_server(server: subprocess.Popen) -> str:
    """SIGTERM-drain the server and return what it printed."""
    if server.poll() is None:
        server.send_signal(signal.SIGTERM)
    try:
        output, _ = server.communicate(timeout=SERVER_STOP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        server.kill()
        output, _ = server.communicate()
    return output or ""


def _client_loop(address: str, index: int, job_ops, tracer,
                 outcome: _Outcome) -> None:
    """One closed-loop caller: the next request goes out only after the
    reply to the previous one arrived."""
    from repro.service import ServiceClient

    from .ops import check_op

    pool, ops, data, golden = job_ops
    with ServiceClient(address, seed=index) as client:
        for number in range(index, len(ops), CLIENTS):
            op = ops[number]
            spec = pool[op["spec"]]
            inputs, expected = data[(op["spec"], op["set"])]
            request = dict(spec, inputs=inputs)
            op_started = time.perf_counter()
            try:
                with tracer.span("op", number):
                    with tracer.span("client.submit", number):
                        reply = client.submit(request)
                    problems = check_op(spec, reply["counters"],
                                        reply["output"], expected, golden,
                                        tracer, number)
            except Exception as exc:  # noqa: BLE001 — refused, timed out
                # or errored after the client's retries: a failed op
                problems = [f"raised {type(exc).__name__}: {exc}"]
            outcome.record(number, op_started, spec, problems)


def service_closed_loop(job: dict, tracer) -> dict:
    """One server, started and warmed once; every window is a closed
    loop of requests from ``CLIENTS`` connections."""
    from repro.service import ServiceClient

    job_ops = _prepared_pool(job)
    with open("server.err", "w") as errors:
        server = subprocess.Popen(
            [sys.executable, "-m", "repro.service", "--socket",
             "service.sock"],
            stdout=subprocess.PIPE, stderr=errors, text=True)
    try:
        address = json.loads(server.stdout.readline())["socket"]
        with ServiceClient(address) as admin:
            warmed = admin.warmup([dict(spec) for spec in job_ops[0]])
            if not all(entry.get("ok") for entry in warmed):
                raise RuntimeError(f"service warmup failed: {warmed}")

            def run_window(tracer) -> dict:
                outcome = _Outcome(len(job_ops[1]))
                threads = [threading.Thread(
                    target=_client_loop,
                    args=(address, index, job_ops, tracer, outcome))
                    for index in range(CLIENTS)]
                base = admin.stats()["diagnostics"]
                cpu_base = cpu_seconds()[0], process_tree_cpu(server.pid)
                started = time.perf_counter()
                with tracer.span("rep"):
                    for thread in threads:
                        thread.start()
                    for thread in threads:
                        thread.join()
                wall_s = time.perf_counter() - started
                own_cpu_s, server_cpu_s = _since(
                    cpu_base,
                    (cpu_seconds()[0], process_tree_cpu(server.pid)))
                return dict(
                    outcome.fields(), wall_s=wall_s,
                    cpu_s=own_cpu_s + server_cpu_s,
                    worker_cpu_s=server_cpu_s,
                    diag=diagnostics_delta(admin.stats()["diagnostics"],
                                           base),
                    store_bytes=directory_bytes(job["store"]))

            result = _windows(job, tracer, run_window)
    finally:
        printed = stop_server(server)
    summary = json.loads(printed.strip().splitlines()[-1])
    if summary["queued"] or summary["executing"]:
        raise RuntimeError(f"server drained with work left: {summary}")
    return result


def sweep_fresh(job: dict, tracer) -> dict:
    """One autotuning sweep on a fresh journal and store."""
    from repro.tuning import SweepDriver

    golden = load_golden("sweep")
    space = specs.sweep_space(job["seed"], job["smoke"])

    base, cpu_base = snapshot(), cpu_seconds()
    started = time.perf_counter()
    failures = []
    try:
        with tracer.span("SweepDriver.run"):
            result = SweepDriver(space, "sweep.jsonl", "report.json").run()
    except Exception as exc:  # noqa: BLE001 — the whole sweep failed
        result = {"points": len(space.points()), "resolved": 0,
                  "complete": False, "report": None}
        failures.append(f"sweep raised {type(exc).__name__}: {exc}")
    wall_s = time.perf_counter() - started
    cpu_s, worker_cpu_s = _since(cpu_base)

    points = result["points"]
    failed = points - result["resolved"]
    if result["report"] is not None:
        per_group: Dict[str, int] = {}
        for point in space.points():
            per_group[point.group] = per_group.get(point.group, 0) + 1
        prefix = "smoke." if job["smoke"] else ""
        digests = sweep_group_digests(result["report"])
        for group, count in sorted(per_group.items()):
            if digests.get(group) != golden.get(prefix + group):
                failures.append(f"{group}: report digest differs "
                                "from golden")
                failed += count
    if not result["complete"] and not failures:
        failures.append("sweep incomplete")
    return {"reps": [{
        "wall_s": wall_s, "cpu_s": cpu_s, "worker_cpu_s": worker_cpu_s,
        # Per-point latency is not visible from outside the driver:
        # report the amortized time per point.
        "latencies_s": [wall_s / points],
        "attempted": points, "failed": min(failed, points),
        "failures": failures,
        "mismatches": {"output": len(failures), "counters": 0},
        "diag": diagnostics_delta(snapshot(), base),
        "store_bytes": directory_bytes(job["store"])}]}


WORKLOADS = {
    "probe": probe,
    "figures_cold": figures,
    "figures_warm": figures,
    "steady_replay": op_loop,
    "per_tile_oracle": op_loop,
    "service_closed_loop": service_closed_loop,
    "sweep_fresh": sweep_fresh,
}


def main(argv: List[str]) -> int:
    job = json.loads(argv[1])
    tracer = Tracer(job["workload"]) if job.get("trace") else NullTracer()
    if job["workload"] == "layers":
        from .layers import run as workload
    else:
        workload = WORKLOADS[job["workload"]]
    result = workload(job, tracer)
    for rep in result.get("reps", ()):
        rep["failures"] = rep["failures"][:5]
    usage = max(resource.getrusage(who).ru_maxrss for who in
                (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    result.update(peak_rss_mb=usage / 1024.0, env=environment_record(),
                  spans=tracer.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
