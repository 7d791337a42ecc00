"""CLI for the autotuning sweep engine: ``python -m repro.tuning``.

Runs (or resumes) a sweep against a journal and prints one JSON event
line per lifecycle step, so harnesses — including the CI smoke leg
that SIGKILLs a sweep mid-run and resumes it — can script against the
output.  SIGTERM requests a graceful drain: in-flight points finish,
nothing new dispatches, and the process exits 3 so callers can tell an
interrupted sweep from a finished one (the report file is written only
by complete runs).
"""

from __future__ import annotations

import argparse
import json
import signal
import sys

from .. import counters
from .counters import TUNING_COUNTERS
from .driver import SweepDriver
from .space import SweepSpace, all_permutations, smoke_space

#: Exit code of a drained-but-incomplete sweep (SIGTERM mid-run).
EXIT_INCOMPLETE = 3


def _parse_shapes(texts):
    shapes = []
    for text in texts:
        parts = text.lower().split("x")
        if len(parts) != 3:
            raise SystemExit(f"bad shape {text!r}: expected MxNxK")
        shapes.append(tuple(int(part) for part in parts))
    return tuple(shapes)


def _build_space(args) -> SweepSpace:
    if args.shapes:
        return SweepSpace(
            shapes=_parse_shapes(args.shapes),
            versions=tuple(args.versions),
            sizes=tuple(args.sizes),
            permutations=all_permutations() if args.permutations else (),
            cpu_tiling_options=(False, True) if args.cpu_tiling
            else (False,),
        )
    return smoke_space(versions=tuple(args.versions),
                       permutations=args.permutations)


def _emit(event: str, **fields) -> None:
    print(json.dumps({"event": event, **fields}, sort_keys=True),
          flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tuning",
        description="Run or resume a crash-safe autotuning sweep.",
    )
    parser.add_argument("--journal", required=True,
                        help="journal path (created, or resumed from)")
    parser.add_argument("--report", default=None,
                        help="best-config report path (written on "
                             "completion only)")
    parser.add_argument("--shapes", nargs="*", default=None,
                        metavar="MxNxK",
                        help="problem shapes; default: the smoke preset")
    parser.add_argument("--versions", nargs="*", type=int,
                        default=(1, 2, 3, 4), choices=(1, 2, 3, 4))
    parser.add_argument("--sizes", nargs="*", type=int, default=(4,))
    parser.add_argument("--permutations", action="store_true",
                        help="also sweep host loop permutations")
    parser.add_argument("--cpu-tiling", action="store_true",
                        help="also sweep host cache tiling on/off")
    parser.add_argument("--workers", type=int, default=None,
                        help="pool size (default: REPRO_TUNING_WORKERS "
                             "or min(4, cpus))")
    parser.add_argument("--deadline-s", type=float, default=None,
                        help="per-point deadline (default: "
                             "REPRO_TUNING_DEADLINE_S or 60)")
    parser.add_argument("--max-attempts", type=int, default=3)
    parser.add_argument("--prune-ratio", type=float, default=4.0,
                        help="prune points whose predicted traffic "
                             "exceeds ratio x group floor; <= 0 "
                             "disables pruning")
    parser.add_argument("--seed", type=int, default=0,
                        help="retry-backoff jitter seed")
    args = parser.parse_args(argv)

    space = _build_space(args)
    driver = SweepDriver(
        space,
        journal_path=args.journal,
        report_path=args.report,
        workers=args.workers,
        deadline_s=args.deadline_s,
        max_attempts=args.max_attempts,
        prune_ratio=args.prune_ratio if args.prune_ratio
        and args.prune_ratio > 0 else None,
        seed=args.seed,
    )

    def drain(signum, frame):
        _emit("drain", signal=signum)
        driver.request_stop()

    previous = signal.signal(signal.SIGTERM, drain)
    try:
        _emit("start", **space.describe())
        result = driver.run()
    finally:
        signal.signal(signal.SIGTERM, previous)
    _emit("done", complete=result["complete"], points=result["points"],
          resolved=result["resolved"],
          counters=counters.read(TUNING_COUNTERS))
    return 0 if result["complete"] else EXIT_INCOMPLETE


if __name__ == "__main__":
    sys.exit(main())
