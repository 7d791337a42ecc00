"""The architecture contract, checked where a change is made.

Each case is one structural rule that used to be a grep step of the CI
workflow, under that step's name: the same patterns over the same
paths, which must match nothing.  Run with the rest of tier-1, a break
shows before a push.  This file names every forbidden pattern, so it
skips itself, as the grep steps skipped their own lines.
"""

import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]

#: What the repo-wide rules search.
TREE = ("src/", "tests/", "benchmarks/", "README.md", ".github/")

#: Step name -> ``(pattern, paths)`` pairs, each to match no line.
STEPS = {
    # The stream decoders, the cache classification, the charges and
    # the timeline of a replay exist once, in C (repro/soc/_native.py):
    # a MetricsPlan build is one walk over the events (metrics_pass)
    # plus one last-writer scan per staging region (last_writers).
    # Without the library no replay is offered and every kernel runs
    # per tile (execution/trace.py: trace_enabled).  A Python copy of
    # any of them, or a switch selecting one, is a tier nobody
    # measures; neither do the separate classifier and timeline
    # kernels and the per-event cost tables the one pass replaced.
    # Timings come from perf/run.py alone, so the pytest timing record
    # and its guard stay gone too.  (``_word_lines`` not after a
    # letter: ``Cause.SUB_WORD_LINES`` is ``"sub_word_lines"``.)
    "Replay is the C kernels": [(
        r"_decode_matmul_inner|_decode_conv_inner|_ItemQueue"
        r"|_chunked_line_streams|_ways_from_sim_state|REPRO_NO_NATIVE"
        r"|BENCH_perf|perf_guard|lru_copy_event_stream|timeline_batch"
        r"|_run_timeline|_scan_last_writers|_WINNER_BLOCK_WORDS"
        r"|_WINNER_BLOCK_MIN_WORDS|_winning_items|_cost_tables"
        r"|_CostTables|_classify_cache|_line_groups|_flat_streams"
        r"|(?<![A-Za-z])_word_lines", TREE)],
    # The replay data plane (execution/replay.py) is integer-only.  A
    # float argument, an overwrite of a repeated tile, two receive
    # classes on one argument, overlapping tiles, uneven pushes in a
    # block and a compute on a never-loaded operand are refused when the
    # DataSchedule is built, and the kernel runs per tile; no driver
    # emits one (tests/test_manual_kernels.py), so the paths that served
    # them stay gone, as do the public names nothing called.  A tile's
    # pushes are summed in its product (a reduceat is the per-push rows
    # that replaced); the decoders start from the accelerator's current
    # config (trace.py: decode_key), so no default-config refusal; and
    # an operand is gathered once, in its product's type, from its
    # storage cast once (a cast of the gathered int32 class matrix is
    # the second copy that replaced).
    "Replay serves the schedules drivers emit": [
        (r"\.sequential\b|\.offsets\b|None, packed\.size"
         r'|(a_cls|b_cls|class_id) is None|dtype\.kind (!=|==) "i"'
         r"|reduceat|not in default config|_values\([^)]*\)\.astype",
         ("src/repro/execution/replay.py",)),
        (r"PerfReport|InjectedFault|FunctionPass|LambdaPass|manual_bodies",
         TREE + ("examples/",)),
    ],
}


def _files(path: pathlib.Path):
    if path.is_file():
        yield path
        return
    for found in sorted(path.rglob("*")):
        if found.is_file() and "__pycache__" not in found.parts \
                and found != pathlib.Path(__file__).resolve():
            yield found


def matching_lines(pattern: str, paths) -> list:
    """``grep -rnE pattern paths`` from the repo root: each line that
    matches, as ``path:number: text``."""
    regex = re.compile(pattern)
    return [f"{file.relative_to(ROOT)}:{number}: {line.strip()}"
            for path in paths for file in _files(ROOT / path)
            for number, line in enumerate(
                file.read_text(errors="replace").splitlines(), 1)
            if regex.search(line)]


@pytest.mark.parametrize("step", list(STEPS))
def test_architecture(step):
    for pattern, paths in STEPS[step]:
        assert matching_lines(pattern, paths) == []
