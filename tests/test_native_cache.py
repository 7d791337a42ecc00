"""The native kernel library is built once per user and machine.

Every case runs fresh processes with ``TMPDIR`` pointed at its own
``tmp_path``, so the library directory they share is
``tmp_path/repro-native-<euid>`` and nothing leaks between tests.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

COMPILER = shutil.which("cc") or shutil.which("gcc") or shutil.which("clang")

pytestmark = [
    pytest.mark.skipif(COMPILER is None, reason="no C compiler"),
    pytest.mark.skipif(not hasattr(os, "geteuid"), reason="POSIX only"),
]

SRC = str(Path(__file__).resolve().parent.parent / "src")

_PROBE = r"""
import json
from repro.soc._native import native_lib, native_status
lib = native_lib()
print(json.dumps({"status": native_status(),
                  "path": None if lib is None else lib._name}))
"""

OK = {"available": True, "status": "ok"}


def _env(tmp_path, **overrides):
    """The ambient environment minus switches, temp files in ``tmp_path``."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_") and key != "CC"}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env["TMPDIR"] = str(tmp_path)
    return {**env, **overrides}


def _probe(tmp_path, **env):
    """``native_status()`` and the loaded file of one fresh process."""
    done = subprocess.run([sys.executable, "-c", _PROBE],
                          env=_env(tmp_path, **env), capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def _library_dir(tmp_path) -> Path:
    return tmp_path / f"repro-native-{os.geteuid()}"


@pytest.fixture(scope="module")
def kept(tmp_path_factory):
    """One build, by a process that also has a kernel store set."""
    root = tmp_path_factory.mktemp("kept")
    store = root / "store"
    return root, store, _probe(root, REPRO_KERNEL_CACHE_DIR=str(store))


def _seed(tmp_path, kept) -> str:
    """Give ``tmp_path`` the kept library; returns its file name."""
    root, _, _ = kept
    shutil.copytree(_library_dir(root), _library_dir(tmp_path))
    (name,) = _libraries(tmp_path)
    return name


def _libraries(tmp_path) -> list:
    """The kept libraries; a ``.tmp-*`` file left behind fails."""
    names = sorted(path.name for path in _library_dir(tmp_path).iterdir())
    assert not [name for name in names if ".tmp-" in name], names
    return names


def _wrapper(path: Path, body: str) -> str:
    path.write_text(body)
    path.chmod(0o755)
    return str(path)


def _forwarding(path: Path) -> str:
    """A compiler at ``path`` that is the real one under another name."""
    return _wrapper(path, f'#!/bin/sh\nexec "{COMPILER}" "$@"\n')


def test_a_second_process_loads_without_compiling(tmp_path):
    """The second process's compiler now fails, but by path, size and
    mtime it is the one that built the library: it is never run."""
    compiler = tmp_path / "bin-cc"
    good = _forwarding(compiler)
    built = compiler.stat()
    first = _probe(tmp_path, CC=good)
    assert first["status"] == OK
    failing = "#!/bin/sh\nexit 1\n"
    _wrapper(compiler, failing.ljust(built.st_size - 1, "#") + "\n")
    os.utime(compiler, ns=(built.st_atime_ns, built.st_mtime_ns))
    second = _probe(tmp_path, CC=good)
    assert second == first
    assert len(_libraries(tmp_path)) == 1
    # Touched: another compiler by the key, so it runs — and fails.
    os.utime(compiler)
    assert _probe(tmp_path, CC=good)["status"] \
        == {"available": False, "status": "compile-failed"}
    assert len(_libraries(tmp_path)) == 1


def test_kept_library_is_private_and_outside_the_store(kept):
    root, store, result = kept
    # perf/perfbench/report.py refuses to compare runs whose dicts differ.
    assert result["status"] == OK
    directory = _library_dir(root)
    assert oct(directory.stat().st_mode & 0o777) == oct(0o700)
    (name,) = _libraries(root)
    assert name.startswith("kernels-") and name.endswith(".so")
    assert result["path"] == str(directory / name)
    assert not (directory / name).stat().st_mode & 0o022
    assert not store.exists() or not list(store.rglob("*.so*"))


def test_garbage_library_is_rebuilt_and_replaced(tmp_path, kept):
    library = _library_dir(tmp_path) / _seed(tmp_path, kept)
    library.write_bytes(b"not a shared object")
    assert _probe(tmp_path) == {"status": OK, "path": str(library)}
    assert library.read_bytes().startswith(b"\x7fELF")
    assert len(_libraries(tmp_path)) == 1


@pytest.mark.parametrize("unsafe", ["world-writable", "symlink"])
def test_untrusted_dir_is_not_used(tmp_path, unsafe):
    directory = _library_dir(tmp_path)
    if unsafe == "world-writable":
        directory.mkdir()
        directory.chmod(0o777)
    else:
        target = tmp_path / "elsewhere"
        target.mkdir(mode=0o700)
        directory.symlink_to(target)
    result = _probe(tmp_path)
    assert result["status"] == OK
    # (The private build directory's random suffix may start with the
    # euid's digits, so compare directories, not string prefixes.)
    assert Path(result["path"]).parent != directory
    assert list(directory.iterdir()) == []
    # The private build directory went away with its process.
    assert sorted(path.name for path in tmp_path.iterdir()
                  if path.name.startswith("repro-native-")) \
        == [directory.name]


def test_switches_fire_before_the_kept_library(tmp_path, kept):
    """The compile fault withholds a kept library too, and with it
    replay: such a process runs every kernel per tile."""
    _seed(tmp_path, kept)
    assert _probe(tmp_path, REPRO_FAULTS="native.compile:fail")["status"] \
        == {"available": False, "status": "fault-injected"}


def test_another_compiler_path_is_another_library(tmp_path, kept):
    seeded = _seed(tmp_path, kept)
    other = _probe(tmp_path, CC=_forwarding(tmp_path / "cc-other"))
    assert other["status"] == OK
    assert Path(other["path"]).name != seeded
    assert len(_libraries(tmp_path)) == 2


def test_concurrent_first_builds_converge(tmp_path):
    racers = [subprocess.Popen([sys.executable, "-c", _PROBE],
                               env=_env(tmp_path), stdout=subprocess.PIPE,
                               text=True)
              for _ in range(3)]
    results = [json.loads(racer.communicate(timeout=300)[0])
               for racer in racers]
    assert all(result["status"] == OK for result in results)
    assert len({result["path"] for result in results}) == 1
    assert len(_libraries(tmp_path)) == 1


#: One double-buffered 32**3 matmul run per tile and replayed, in a
#: process whose C library is built from ``_SOURCE`` with ``argv[1]``
#: replaced by ``argv[2]``.  Prints the counters that differ between
#: the two runs, the plans built and the loaded library's path.
_MUTANT_RUN = r"""
import json, sys
import numpy as np
from repro.soc import _native
original, mutated = sys.argv[1:3]
assert not original or _native._SOURCE.count(original) == 1
_native._SOURCE = _native._SOURCE.replace(original, mutated)
from repro.accelerators import make_matmul_system
from repro.compiler import AXI4MLIRCompiler
from repro.execution import METRICS_PLAN_COUNTERS
from repro.runtime import DoubleBufferedRuntime
from repro.soc import make_pynq_z2
rng = np.random.default_rng(7)
a, b = (rng.integers(-7, 7, (32, 32)).astype(np.int32) for _ in range(2))
def run(trace):
    hw, info = make_matmul_system(3, 8, flow="Ns")
    board = make_pynq_z2()
    board.attach_accelerator(hw)
    kernel = AXI4MLIRCompiler(info).compile_matmul(32, 32, 32)
    c = np.zeros((32, 32), np.int32)
    return kernel.run(board, a, b, c, runtime=DoubleBufferedRuntime(board),
                      trace=trace).as_dict()
per_tile, replayed = run(False), run(True)
print(json.dumps([
    {key: (per_tile[key], replayed[key]) for key in per_tile
     if per_tile[key] != replayed[key]},
    METRICS_PLAN_COUNTERS["metrics_plan_misses"],
    _native.native_lib()._name]))
"""

#: Pinned must-die mutants of the one metrics pass (``metrics_pass``).
_MUTANTS = {
    "intact": ("", ""),
    # Accumulating receives (every compiled one) charge their copy's
    # read-modify-write cycles on top of the base copy cycles.
    "no accumulate cycles": ("c = terms[0] + terms[3];", "c = terms[0];"),
    # A double-buffered runtime waits for its in-flight sends before
    # each receive.
    "no double-buffered wait": (
        "stall_to(busy, f, pollp, pollb, &clock, &stall, &branch);", ";"),
}


@pytest.mark.parametrize("mutant", list(_MUTANTS))
def test_replay_against_per_tile_kills_metrics_pass_mutants(tmp_path,
                                                            mutant):
    """A mutated metrics pass diverges from the per-tile runtime on a
    config that reaches the mutated path; the intact one does not.  The
    mutant library is kept under ``tmp_path``, not in the directory the
    rest of the suite shares."""
    done = subprocess.run([sys.executable, "-c", _MUTANT_RUN,
                           *_MUTANTS[mutant]],
                          env=_env(tmp_path), capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    diverged, plans_built, path = json.loads(done.stdout.splitlines()[-1])
    assert plans_built == 1
    assert Path(path).parent == _library_dir(tmp_path)
    if mutant == "intact":
        assert diverged == {}
    else:
        assert diverged, "the mutant survived"
