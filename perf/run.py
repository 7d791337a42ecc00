#!/usr/bin/env python3
"""The repo benchmark: ``python3 perf/run.py`` (see ``perf/README.md``).

With ``--workload`` the last line printed is the one JSON object the
acceptance driver reads: end-to-end metrics under ``--trace 0``,
per-layer metrics under ``--trace 1``.  Without it every workload runs
and the numbers land in ``perf/out/latest.json``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

PERF_DIR = Path(__file__).resolve().parent
if not (PERF_DIR.parent / "src" / "repro").is_dir():
    sys.exit("perf/run.py: src/repro not found next to perf/ — run it "
             "from a checkout of the repository")
sys.path.insert(0, str(PERF_DIR))

from perfbench import harness, metrics, report  # noqa: E402

RUN_SECONDS = 10


def execute(args, root: Path, seed: int) -> dict:
    """One run: every selected workload, untraced and/or traced."""
    names = [args.workload] if args.workload else list(metrics.WORKLOADS)
    run = {"seed": seed, "end_to_end": {}, "per_layer": {}, "spans": []}
    # The driver's traced run of one workload wants per-layer metrics only.
    if not (args.trace and args.workload):
        for name in names:
            result = harness.run_workload(name, seed, args.seconds, root,
                                          smoke=args.smoke)
            run["end_to_end"][name] = result
            report.print_end_to_end(result)
    if args.trace:
        layer_values = harness.run_layers(root, args.smoke)
        for name in names:
            result = harness.run_traced(name, seed, root, layer_values,
                                        smoke=args.smoke)
            run["spans"].extend(result.pop("spans"))
            run["per_layer"][name] = result
            report.print_per_layer(result)
    return run


def document(runs: list) -> dict:
    results = runs[0]["end_to_end"] or runs[0]["per_layer"]
    return {"env": next(iter(results.values()))["env"], "runs": runs}


def save(doc: dict, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    spans = [span for run in doc["runs"] for span in run.pop("spans", [])]
    path.write_text(json.dumps(doc, indent=1) + "\n")
    if spans:
        with open(path.parent / "trace.jsonl", "w") as handle:
            for span in spans:
                handle.write(json.dumps(span) + "\n")
        print(f"\n{len(spans)} spans written to "
              f"{path.parent / 'trace.jsonl'}")


def regenerate_golden(root: Path) -> int:
    from perfbench.golden import SLOW_TIER_ENV

    env = harness.scrubbed_env(root)
    env.update(SLOW_TIER_ENV)
    return subprocess.run(
        [sys.executable, "-m", "perfbench.golden", str(root)],
        env=env, cwd=root).returncode


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=list(metrics.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="timed work per workload before stopping "
                             "(at least 3 repetitions always run)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at toy size, one repetition")
    parser.add_argument("--out", type=Path,
                        default=harness.OUT_DIR / "latest.json")
    parser.add_argument("--compare", nargs=2, type=Path,
                        metavar=("A.json", "B.json"))
    parser.add_argument("--aa", action="store_true",
                        help="run twice on this tree; fail on disagreement")
    parser.add_argument("--spread", type=int, metavar="N",
                        help="N runs with seeds SEED..SEED+N-1; print the "
                             "quartile spread of every metric")
    parser.add_argument("--regenerate-golden", action="store_true")
    args = parser.parse_args(argv)

    if args.compare:
        docs = [json.loads(path.read_text()) for path in args.compare]
        return 0 if report.compare(*docs) else 1
    with harness.bench_root() as root:
        if args.regenerate_golden:
            return regenerate_golden(root)
        if args.aa:
            docs = [document([execute(args, root, args.seed)])
                    for _ in range(2)]
            save(docs[0], args.out.with_suffix(".a.json"))
            save(docs[1], args.out.with_suffix(".b.json"))
            return 0 if report.compare(*docs) else 1
        seeds = range(args.seed, args.seed + (args.spread or 1))
        doc = document([execute(args, root, seed) for seed in seeds])
    save(doc, args.out)
    if args.spread:
        report.print_spread(doc)
    run = doc["runs"][-1]
    failed = sum(result["failed"] for section in ("end_to_end", "per_layer")
                 for result in run[section].values())
    if args.workload:
        if args.trace:
            print(report.contract_line(run["per_layer"][args.workload],
                                       metrics.PER_LAYER))
        else:
            print(report.contract_line(run["end_to_end"][args.workload],
                                       metrics.END_TO_END))
        return 0
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
