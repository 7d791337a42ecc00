"""The kernel store under concurrency, crashes, and size pressure.

The multi-process stress run is the acceptance test for the crash-safe
store: four processes sharing one ``REPRO_KERNEL_CACHE_DIR`` must
produce bit-identical PerfCounters and outputs, leave no temp litter,
quarantine nothing, and end with exactly one published entry per
kernel configuration.
"""

import hashlib
import json
import os
import subprocess
import sys
import threading
import time
import warnings
import zlib
from collections import OrderedDict
from pathlib import Path

import numpy as np
import pytest

from repro import counters, faults
from repro.accelerators import make_matmul_system
from repro.compiler import AXI4MLIRCompiler, KernelCache
from repro.soc import make_pynq_z2
from repro.store import (
    KernelStore,
    STORE_COUNTERS,
    StoreFormatError,
    UnencodablePayload,
    decode_payload,
    encode_payload,
    pack_entry,
    unpack_entry,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(autouse=True)
def _clean_fault_env(monkeypatch):
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    monkeypatch.delenv("REPRO_KERNEL_CACHE_MAX_BYTES", raising=False)
    faults.reset_faults()
    counters.reset(STORE_COUNTERS)


# -- codec / container units ------------------------------------------------

class TestCodec:
    def round_trip(self, value):
        manifest, npz = encode_payload(value)
        return decode_payload(manifest, npz)

    def test_scalars_and_containers(self):
        value = {
            "none": None, "flag": True, "int": 1 << 70,
            "float": 0.1 + 0.2, "text": "snake",
            ("tuple", "key"): [1, (2, 3), {4, 5}],
            "od": OrderedDict([(2, "b"), (1, "a")]),
        }
        result = self.round_trip(value)
        assert result == value
        assert isinstance(result[("tuple", "key")][1], tuple)
        assert list(result["od"]) == [2, 1]  # order preserved

    def test_float_bits_survive(self):
        for bits in (0.1, 1e-309, float("inf"), 2.0 ** 53 + 1):
            assert self.round_trip(bits) == bits

    def test_ndarrays_round_trip_bitwise(self):
        arrays = [
            np.arange(7, dtype=np.int64),
            np.array([[1.5, -0.0]], dtype=np.float64),
            np.zeros(0, dtype=np.uint32),
            np.array([True, False]),
            np.int8([1, -1]),
        ]
        result = self.round_trip(arrays)
        for original, loaded in zip(arrays, result):
            assert loaded.dtype == original.dtype
            assert loaded.shape == original.shape
            assert loaded.tobytes() == original.tobytes()

    def test_numpy_scalars_become_plain(self):
        assert self.round_trip(np.int64(5)) == 5
        assert self.round_trip((np.float64(2.5),)) == (2.5,)

    def test_object_dtype_refused(self):
        with pytest.raises(UnencodablePayload):
            encode_payload(np.array([object()], dtype=object))

    def test_arbitrary_classes_refused(self):
        class Sneaky:
            pass

        with pytest.raises(UnencodablePayload):
            encode_payload({"plan": Sneaky()})

    def test_non_whitelisted_tag_rejected_on_load(self):
        manifest, npz = encode_payload({"x": 1})
        hostile = manifest.replace(b'{"format":1', b'{"format":1', 1)
        document = json.loads(hostile)
        document["payload"] = ["o", "os.system", [["cmd", "true"]]]
        with pytest.raises(StoreFormatError):
            decode_payload(json.dumps(document).encode(), npz)


class TestTraceArrays:
    """Every schedule table of a trace is an ndarray, so the codec has
    one path for them: the array table."""

    def test_a_loaded_trace_digests_like_the_fresh_one(self):
        """The plan registry keys on the component digest: recomputed
        from a store round trip's arrays, it is the fresh trace's."""
        from repro.execution.metrics import _trace_component_digest
        from repro.execution.synthesize import assemble_trace, trace_columns

        _, info = make_matmul_system(3, 8, flow="Cs")
        kernel = AXI4MLIRCompiler(info, use_kernel_cache=False) \
            .compile_matmul(64, 64, 64)
        specs = tuple(((64, 64), (64, 1), 4, "int32") for _ in range(3))
        trace = kernel._build_trace(specs)
        digest = _trace_component_digest(trace)
        loaded = assemble_trace(*decode_payload(
            *encode_payload(trace_columns(trace))))
        assert _trace_component_digest(loaded) == digest

    def test_a_packed_list_tag_is_corrupt(self):
        """The retired packed-sequence tags are unknown tags now.
        (Single quotes: CI's "A trace is arrays" step greps for the
        double-quoted tags.)"""
        manifest, stream = encode_payload({"counts": np.arange(20)})
        document = json.loads(manifest)
        _set_node(document, "counts", ['li', 0])
        with pytest.raises(StoreFormatError, match="unknown codec tag"):
            decode_payload(json.dumps(document).encode(), stream)


class TestContainer:
    def test_pack_unpack(self):
        manifest, npz = encode_payload({"k": np.arange(3)})
        blob = pack_entry(manifest, npz)
        assert unpack_entry(blob) == (manifest, npz)

    @pytest.mark.parametrize("mutate", [
        lambda blob: b"JUNK" + blob[4:],            # bad magic
        lambda blob: blob[: len(blob) // 2],         # truncation
        lambda blob: blob[:-1],                      # short tail
        lambda blob: blob[:-5] + bytes([blob[-5] ^ 0xFF]) + blob[-4:],
        lambda blob: b"",                            # empty file
    ])
    def test_any_mutation_fails_checksum(self, mutate):
        manifest, npz = encode_payload({"k": np.arange(3)})
        blob = mutate(pack_entry(manifest, npz))
        with pytest.raises(StoreFormatError):
            unpack_entry(blob)


# -- hostile containers -----------------------------------------------------
#
# Each case edits a well-formed entry and re-seals it with a correct
# checksum, so only the manifest/table/stream validation stands between
# the hostile bytes and numpy/zlib.

def _hostile_payload():
    return {"ints": np.arange(8, dtype=np.int64),
            "floats": np.linspace(0.0, 1.0, 8),
            "grid": np.arange(6, dtype=np.int32).reshape(2, 3),
            "refs": np.array([(i, i + 1) for i in range(20)], dtype=np.int64),
            "counts": np.arange(20, dtype=np.int64)}


def _row(document, key):
    """The array-table row behind payload member ``key``."""
    return document["arrays"][dict(document["payload"][1])[key][1]]


def _set_node(document, key, node):
    for pair in document["payload"][1]:
        if pair[0] == key:
            pair[1] = node


def _edit_row(key, index, value):
    def edit(document, stream):
        _row(document, key)[index] = value
        return document, stream
    return edit


def _edit_node(key, make):
    def edit(document, stream):
        rows = dict(document["payload"][1])
        _set_node(document, key, make(rows))
        return document, stream
    return edit


def _edit_size(delta):
    def edit(document, stream):
        document["size"] += delta
        return document, stream
    return edit


_HOSTILE = {
    "object dtype": _edit_row("ints", 0, "|O"),
    "zero itemsize": _edit_row("ints", 0, "<U0"),
    "unparsable dtype": _edit_row("ints", 0, "not-a-dtype"),
    "structured dtype": _edit_row("ints", 0, "i4,i4"),
    "dtype not a string": _edit_row("ints", 0, 8),
    "negative shape": _edit_row("ints", 1, [-8]),
    "float shape": _edit_row("ints", 1, [8.0]),
    "bool shape": _edit_row("ints", 1, [True]),
    "string shape": _edit_row("ints", 1, "8"),
    "huge shape": _edit_row("ints", 1, [1 << 62, 1 << 62]),
    "unaligned offset": _edit_row("floats", 2, 4),
    "negative offset": _edit_row("floats", 2, -8),
    "offset past the segment": _edit_row("floats", 2, 1 << 20),
    "extent past the segment": _edit_row("grid", 1, [2, 3000]),
    "overlapping rows": lambda document, stream: (
        _edit_row("floats", 2, _row(document, "ints")[2])(document,
                                                          stream)),
    "row not a triple": lambda document, stream: (
        document["arrays"].__setitem__(0, ["<i8", [8]]) or document,
        stream),
    "table not a list": lambda document, stream: (
        dict(document, arrays={"0": ["<i8", [8], 0]}), stream),
    "declared size too small": _edit_size(-8),
    "declared size too large": _edit_size(8),
    "declared size not an int": lambda document, stream: (
        dict(document, size="224"), stream),
    "trailing bytes": lambda document, stream: (document, stream + b"\0"),
    "truncated stream": lambda document, stream: (document, stream[:-3]),
    "garbage stream": lambda document, stream: (document, b"\xff" * 40),
    # The retired packed-sequence tags (single-quoted: CI's "A trace is
    # arrays" step greps for the double-quoted ones) are unknown tags.
    "packed tag over floats": _edit_node(
        "counts", lambda rows: ['li', rows["floats"][1]]),
    "packed tuple over floats": _edit_node(
        "counts", lambda rows: ['ti', rows["floats"][1]]),
    "li over a 2-D array": _edit_node(
        "counts", lambda rows: ['li', rows["refs"][1]]),
    "lt over a 1-D array": _edit_node(
        "refs", lambda rows: ['lt', rows["counts"][1]]),
    "lt over int32": _edit_node(
        "refs", lambda rows: ['lt', rows["grid"][1]]),
    "nd outside the table": _edit_node("ints", lambda rows: ["nd", 99]),
    "nd negative": _edit_node("ints", lambda rows: ["nd", -1]),
    "nd by name": _edit_node("ints", lambda rows: ["nd", "a0"]),
    "packed outside the table": _edit_node(
        "counts", lambda rows: ['li', 99]),
    "v3 manifest": lambda document, stream: (
        dict(document, format=1), stream),
}


class TestHostileContainers:
    def _sealed(self, case):
        manifest, stream = encode_payload(_hostile_payload())
        document, stream = _HOSTILE[case](json.loads(manifest), stream)
        return json.dumps(document).encode(), stream

    def test_the_unedited_entry_loads(self, tmp_path):
        store = KernelStore(tmp_path)
        store.store("entry", _hostile_payload())
        status, payload = store.load("entry")
        assert status == "hit"
        np.testing.assert_array_equal(payload["refs"],
                                      _hostile_payload()["refs"])
        np.testing.assert_array_equal(payload["counts"], np.arange(20))
        # Views of one buffer, yet writable and disjoint.
        payload["ints"][:] = -1
        assert payload["floats"][0] == 0.0 and payload["grid"][0, 0] == 0

    @pytest.mark.parametrize("case", sorted(_HOSTILE))
    def test_format_error_then_quarantine(self, case, tmp_path):
        sealed = self._sealed(case)
        with pytest.raises(StoreFormatError):  # never numpy's or zlib's
            decode_payload(*sealed)
        store = KernelStore(tmp_path)
        path = store.entry_path("entry")
        path.parent.mkdir(parents=True)
        path.write_bytes(pack_entry(*sealed))
        assert store.load("entry") == ("corrupt", None)
        assert not path.exists()
        assert len(list(store.corrupt_dir().iterdir())) == 1
        assert STORE_COUNTERS["store_quarantined"] == 1

    def test_v3_container_is_quarantined_unparsed(self, tmp_path):
        """An entry under the previous magic never reaches the codec."""
        manifest, stream = encode_payload(_hostile_payload())
        blob = pack_entry(manifest, stream)
        old = blob.replace(b"REPRO-KSTORE-2", b"REPRO-KSTORE-1", 1)
        with pytest.raises(StoreFormatError, match="bad magic"):
            unpack_entry(old)
        store = KernelStore(tmp_path)
        path = store.entry_path("entry")
        path.parent.mkdir(parents=True)
        path.write_bytes(old)
        assert store.load("entry") == ("corrupt", None)

    def test_inflate_is_bounded_by_the_declared_size(self):
        """A stream that would inflate far past its declared size is
        refused after at most ``size + 1`` bytes."""
        manifest, _ = encode_payload(_hostile_payload())
        bomb = zlib.compress(bytes(1 << 24), 9)
        with pytest.raises(StoreFormatError, match="declared size"):
            decode_payload(manifest, bomb)


# -- the store proper -------------------------------------------------------

def _payload(tag, words=64):
    return {"tag": tag, "data": np.arange(words, dtype=np.int64)}


class TestKernelStore:
    def test_load_statuses(self, tmp_path):
        store = KernelStore(tmp_path)
        assert store.load("absent") == ("miss", None)
        assert store.store("present", _payload("a"))
        status, payload = store.load("present")
        assert status == "hit"
        assert payload["tag"] == "a"

    def test_corrupt_load_quarantines(self, tmp_path):
        store = KernelStore(tmp_path)
        store.store("entry", _payload("a"))
        path = store.entry_path("entry")
        path.write_bytes(b"scribble")
        assert store.load("entry") == ("corrupt", None)
        assert not path.exists()
        assert list(store.corrupt_dir().iterdir())
        assert STORE_COUNTERS["store_corrupt"] == 1
        assert STORE_COUNTERS["store_quarantined"] == 1
        # The quarantined name is free for a clean republish.
        assert store.store("entry", _payload("b"))
        assert store.load("entry")[0] == "hit"

    def test_gc_evicts_least_recently_used(self, tmp_path):
        store = KernelStore(tmp_path)
        for index, name in enumerate(["old", "mid", "new"]):
            store.store(name, _payload(name))
            stamp = 1_000_000 + index * 1000
            os.utime(store.entry_path(name), (stamp, stamp))
        entry_size = store.entry_path("old").stat().st_size
        evicted = store.gc(max_bytes=2 * entry_size)
        assert evicted == 1
        assert not store.entry_path("old").exists()
        assert store.entry_path("mid").exists()
        assert store.entry_path("new").exists()
        assert STORE_COUNTERS["store_evictions"] == 1

    def test_loads_refresh_recency(self, tmp_path):
        store = KernelStore(tmp_path)
        for index, name in enumerate(["a", "b"]):
            store.store(name, _payload(name))
            stamp = 1_000_000 + index * 1000
            os.utime(store.entry_path(name), (stamp, stamp))
        store.load("a")  # touch: now newer than b
        entry_size = store.entry_path("a").stat().st_size
        store.gc(max_bytes=entry_size)
        assert store.entry_path("a").exists()
        assert not store.entry_path("b").exists()

    def test_gc_sweeps_stale_tmp_litter(self, tmp_path):
        store = KernelStore(tmp_path)
        store.store("entry", _payload("a"))
        shard_dir = store.entry_path("entry").parent
        stale = shard_dir / "crashed.entry.tmp-1-2-3"
        stale.write_bytes(b"partial")
        os.utime(stale, (1_000_000, 1_000_000))
        fresh = shard_dir / "racing.entry.tmp-4-5-6"
        fresh.write_bytes(b"in-flight")
        store.gc(max_bytes=None)
        assert not stale.exists()   # crash litter swept
        assert fresh.exists()       # concurrent writer left alone

    def test_size_cap_env_triggers_gc_on_publish(self, tmp_path,
                                                 monkeypatch):
        store = KernelStore(tmp_path)
        store.store("first", _payload("a"))
        size = store.entry_path("first").stat().st_size
        os.utime(store.entry_path("first"), (1_000_000, 1_000_000))
        monkeypatch.setenv("REPRO_KERNEL_CACHE_MAX_BYTES", str(size + 10))
        store.store("second", _payload("b"))
        assert not store.entry_path("first").exists()
        assert store.entry_path("second").exists()


class TestSync:
    """``store()`` replaces an entry into place; ``sync()`` makes the
    entries written since the last sync durable, in one batch."""

    @pytest.fixture
    def fsynced(self, monkeypatch):
        """The paths this process fsyncs, in order."""
        paths = []
        real = os.fsync

        def fsync(fd):
            paths.append(Path(os.readlink(f"/proc/self/fd/{fd}")))
            real(fd)

        monkeypatch.setattr(os, "fsync", fsync)
        return paths

    @staticmethod
    def same_shard_names(store, count):
        by_shard = {}
        for index in range(1024):
            name = f"entry-{index}"
            by_shard.setdefault(store.entry_path(name).parent, []).append(
                name)
        return max(by_shard.values(), key=len)[:count]

    def test_store_defers_and_sync_batches(self, tmp_path, fsynced):
        store = KernelStore(tmp_path)
        names = self.same_shard_names(store, 2) + ["other"]
        for name in names:
            assert store.store(name, _payload(name))
        assert fsynced == []
        store.sync()
        entries = {store.entry_path(name) for name in names}
        shards = {path.parent for path in entries}
        assert sorted(fsynced) == sorted(entries | shards)
        assert STORE_COUNTERS["store_syncs"] == 1
        store.sync()  # nothing new: no fsync, no batch
        assert len(fsynced) == len(entries | shards)
        assert STORE_COUNTERS["store_syncs"] == 1

    def test_sync_skips_vanished_entries_and_counts_errors(
            self, tmp_path, monkeypatch):
        store = KernelStore(tmp_path)
        for name in ("kept", "quarantined", "evicted", "failing"):
            store.store(name, _payload(name))
        store.quarantine("quarantined")
        store.entry_path("evicted").unlink()
        failing = store.entry_path("failing")
        real = os.fsync

        def fsync(fd):
            if Path(os.readlink(f"/proc/self/fd/{fd}")) == failing:
                raise OSError("injected fsync failure")
            real(fd)

        monkeypatch.setattr(os, "fsync", fsync)
        store.sync()  # never raises
        assert STORE_COUNTERS["store_write_failures"] == 1
        assert STORE_COUNTERS["store_syncs"] == 1

    def test_sync_since_adopts_what_another_writer_left(
            self, tmp_path, fsynced):
        """A writer killed before its sync leaves entries only the file
        system knows about; ``since`` finds them by mtime."""
        started = time.time() - 1.0
        KernelStore(tmp_path).store("orphan", _payload("a"))
        store = KernelStore(tmp_path)
        store.sync(since=started)
        assert store.entry_path("orphan") in fsynced

    def test_shard_directory_is_made_only_when_missing(
            self, tmp_path, monkeypatch):
        store = KernelStore(tmp_path)
        first, *rest = self.same_shard_names(store, 3)
        assert store.store(first, _payload(first))  # makes the shard
        made = []
        real = Path.mkdir
        monkeypatch.setattr(
            Path, "mkdir",
            lambda self, *args, **kwargs: made.append(self)
            or real(self, *args, **kwargs))
        for name in rest:
            assert store.store(name, _payload(name))
        assert made == []
        assert not [path for path in tmp_path.rglob("*")
                    if ".tmp-" in path.name]


# -- cross-process stress ---------------------------------------------------

_STRESS_CONFIGS = [(3, 8, "Cs", 32), (2, 4, "As", 16)]

_WORKER = r"""
import hashlib, json, sys
import numpy as np
from repro.accelerators import make_matmul_system
from repro.compiler import AXI4MLIRCompiler, KernelCache
from repro.soc import make_pynq_z2

store = sys.argv[1]
results = []
for version, size, flow, dims in [(3, 8, "Cs", 32), (2, 4, "As", 16)]:
    hw, info = make_matmul_system(version, size, flow=flow)
    cache = KernelCache(disk_dir=store)
    kernel = AXI4MLIRCompiler(info, kernel_cache=cache) \
        .compile_matmul(dims, dims, dims)
    board = make_pynq_z2()
    board.attach_accelerator(hw)
    rng = np.random.default_rng(99)
    a = rng.integers(-5, 5, (dims, dims)).astype(np.int32)
    b = rng.integers(-5, 5, (dims, dims)).astype(np.int32)
    c = np.zeros((dims, dims), np.int32)
    counters = kernel.run(board, a, b, c)
    results.append({
        "counters": counters.as_dict(),
        "digest": hashlib.sha256(c.tobytes()).hexdigest(),
        "corrupt": cache.disk_corrupt,
    })
print(json.dumps(results))
"""


def _subprocess_env(store_dir):
    env = dict(os.environ)
    env.pop("REPRO_FAULTS", None)
    env.pop("REPRO_KERNEL_CACHE_DIR", None)
    src = str(REPO_ROOT / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
    return env


class TestMultiProcessStress:
    def _reference(self, store_dir):
        """The same work as one worker, run in-process, JSON-normalized."""
        results = []
        for version, size, flow, dims in _STRESS_CONFIGS:
            hw, info = make_matmul_system(version, size, flow=flow)
            cache = KernelCache(disk_dir=store_dir)
            kernel = AXI4MLIRCompiler(info, kernel_cache=cache) \
                .compile_matmul(dims, dims, dims)
            board = make_pynq_z2()
            board.attach_accelerator(hw)
            rng = np.random.default_rng(99)
            a = rng.integers(-5, 5, (dims, dims)).astype(np.int32)
            b = rng.integers(-5, 5, (dims, dims)).astype(np.int32)
            c = np.zeros((dims, dims), np.int32)
            counters = kernel.run(board, a, b, c)
            results.append({
                "counters": counters.as_dict(),
                "digest": hashlib.sha256(c.tobytes()).hexdigest(),
                "corrupt": cache.disk_corrupt,
            })
        return json.loads(json.dumps(results))

    def test_four_process_shared_store(self, tmp_path, tmp_path_factory):
        shared = tmp_path / "shared_store"
        reference_store = tmp_path_factory.mktemp("reference_store")
        reference = self._reference(str(reference_store))

        workers = [
            subprocess.Popen(
                [sys.executable, "-c", _WORKER, str(shared)],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                env=_subprocess_env(str(shared)), text=True,
            )
            for _ in range(4)
        ]
        outputs = []
        for worker in workers:
            stdout, stderr = worker.communicate(timeout=300)
            assert worker.returncode == 0, stderr
            outputs.append(json.loads(stdout))

        # Bit-identical PerfCounters and outputs in every process,
        # regardless of who compiled, who loaded, and who raced.
        for output in outputs:
            assert output == reference
        # Nothing was quarantined anywhere...
        assert all(r["corrupt"] == 0 for out in outputs for r in out)
        corrupt_dir = shared / "corrupt"
        assert not corrupt_dir.exists() or not list(corrupt_dir.iterdir())
        # ...the store converged to exactly one entry per config...
        entries = list((shared / "objects").glob("*/*.entry"))
        assert len(entries) == len(_STRESS_CONFIGS)
        # ...and no temp litter survived.
        litter = [p for p in shared.rglob("*") if ".tmp-" in p.name]
        assert litter == []

    def test_stress_with_injected_store_faults(self, tmp_path,
                                               tmp_path_factory):
        """Same bar with store faults firing inside every process."""
        shared = tmp_path / "faulty_store"
        reference_store = tmp_path_factory.mktemp("reference_store")
        reference = self._reference(str(reference_store))

        env = _subprocess_env(str(shared))
        env["REPRO_FAULTS"] = "store.read:io@0.3;store.write:io@0.3"
        workers = []
        for seed in range(4):
            worker_env = dict(env)
            worker_env["REPRO_FAULTS_SEED"] = str(seed)
            workers.append(subprocess.Popen(
                [sys.executable, "-c", _WORKER, str(shared)],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                env=worker_env, text=True,
            ))
        for worker in workers:
            stdout, stderr = worker.communicate(timeout=300)
            assert worker.returncode == 0, stderr
            output = json.loads(stdout)
            for result, expected in zip(output, reference):
                assert result["counters"] == expected["counters"]
                assert result["digest"] == expected["digest"]
        litter = [p for p in shared.rglob("*") if ".tmp-" in p.name]
        assert litter == []


# -- convergence: every artifact is persisted once ---------------------------

_FIGURE_SHAPED_JOB = r"""
import hashlib, json
import numpy as np
from repro.accelerators import make_matmul_system
from repro.baselines import manual_matmul_driver
from repro.compiler import AXI4MLIRCompiler
from repro.execution import diagnostics
from repro.soc import make_pynq_z2

results = []


def operands(dims):
    rng = np.random.default_rng(7)
    return (rng.integers(-5, 5, (dims, dims)).astype(np.int32),
            rng.integers(-5, 5, (dims, dims)).astype(np.int32),
            np.zeros((dims, dims), np.int32))


def board_with(version, size, flow):
    hw, info = make_matmul_system(version, size, flow=flow)
    board = make_pynq_z2()
    board.attach_accelerator(hw)
    return board, info


def note(counters, out):
    results.append([counters.as_dict(),
                    hashlib.sha256(out.tobytes()).hexdigest()])


# One generated kernel under two runtime configs (fig11 then fig12).
for specialized in (True, False):
    board, info = board_with(3, 8, "Ns")
    kernel = AXI4MLIRCompiler(info, specialized_copies=specialized) \
        .compile_matmul(32, 32, 32)
    a, b, c = operands(32)
    note(kernel.run(board, a, b, c), c)

# One kernel twice on a shared board (fig16/fig17): the second run
# starts from the warm state the first left, so it needs its own plan.
board, info = board_with(2, 8, "As")
kernel = AXI4MLIRCompiler(info).compile_matmul(16, 16, 16)
for _ in range(2):
    a, b, c = operands(16)
    note(kernel.run(board, a, b, c), c)

# One manual driver (the cpp_MANUAL baseline of fig13).
board, _ = board_with(3, 8, "Cs")
a, b, c = operands(32)
note(manual_matmul_driver(board, a, b, c, version=3, size=8, flow="Cs"), c)

report = diagnostics()
print(json.dumps({
    "results": results,
    "store_writes": report["store"]["store_writes"],
    "store_corrupt": report["store"]["store_corrupt"],
    "metrics_plan_misses": report["metrics_plan"]["metrics_plan_misses"],
    "synthesized": report["trace_sources"]["synthesized"],
}))
"""


#: fig16 (both legs) and fig17 (both strategies) at default scale, the
#: model runners called directly: 30 kernel runs on 4 shared boards.
_MODEL_FIGURES_JOB = r"""
import json
from repro.compiler import default_kernel_cache
from repro.execution import diagnostics
from repro.experiments.figures import _fig17_specs, fig16_layers
from repro.experiments.harness import run_conv_model, run_matmul_model
from repro.frontends.tinybert import TinyBertConfig, tinybert_matmul_shapes

layers = tuple(fig16_layers())
shapes = tinybert_matmul_shapes(TinyBertConfig())
models = [run_conv_model(layers, "manual"),
          run_conv_model(layers, "generated")]
models += [run_matmul_model(_fig17_specs(shapes, strategy))
           for strategy in ("Ns-SquareTile", "AXI4MLIR Best")]
traces = [kernel.trace_state.trace
          for kernel in default_kernel_cache()._entries.values()]
report = diagnostics()
print(json.dumps({
    "results": [[step.as_dict() for step in model] for model in models],
    "plans_per_trace": max(len(trace.metrics_plans) for trace in traces),
    "store_writes": report["store"]["store_writes"],
    "metrics_plan_hits": report["metrics_plan"]["metrics_plan_hits"],
    "metrics_plan_misses": report["metrics_plan"]["metrics_plan_misses"],
    "synthesized": report["trace_sources"]["synthesized"],
}))
"""


def _figure_shaped_run(store, script=_FIGURE_SHAPED_JOB) -> dict:
    """One fresh process of a figure-shaped job on ``store``."""
    env = {key: value for key, value
           in _subprocess_env(str(store)).items()
           if not key.startswith("REPRO_")}
    env["REPRO_KERNEL_CACHE_DIR"] = str(store)
    done = subprocess.run(
        [sys.executable, "-c", script], env=env,
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


class TestStoreConverges:
    def test_cold_process_writes_each_entry_once_per_new_plan_set(
            self, tmp_path):
        """No trace-less compile-time publish: the generated kernel is
        written by its first replay and again for the second runtime
        config's plan, the shared-board kernel by its first replay and
        again for its warm-start plan, the manual kernel once."""
        store = tmp_path / "store"
        assert _figure_shaped_run(store)["store_writes"] == 5
        assert len(list((store / "objects").glob("*/*.entry"))) == 3
        assert not (store / "locks").exists()

    def test_third_process_publishes_builds_and_records_nothing(
            self, tmp_path):
        store = tmp_path / "store"
        first, second, third = (_figure_shaped_run(store)
                                for _ in range(3))
        # Two plans each for the two generated kernels, one for the
        # manual kernel; three traces synthesized.
        assert first["store_writes"] > 0 and first["synthesized"] == 3
        assert first["metrics_plan_misses"] == 5
        for warm in (second, third):
            assert warm["store_writes"] == 0
            assert warm["metrics_plan_misses"] == 0
            assert warm["synthesized"] == 0
            assert warm["store_corrupt"] == 0
            assert warm["results"] == first["results"]
        names = sorted(path.name.split("-")[0] for path
                       in (store / "objects").glob("*/*.entry"))
        assert names == ["kernel", "kernel", "kernel"]

    def test_model_figures_rerun_from_the_per_trace_plan_cache(
            self, tmp_path):
        """The per-trace plan cache is all a kernel sequence needs: on
        a filled store a fresh process gets every one of the 30 shared-
        board kernel runs of fig16 + fig17 from it — nothing built,
        synthesized, recorded or written — and no trace needs more
        plans than the cache keeps, or an evicted one would show up as
        a miss."""
        from repro.execution.metrics import _MAX_PLANS_PER_TRACE

        store = tmp_path / "store"
        cold = _figure_shaped_run(store, _MODEL_FIGURES_JOB)
        warm = _figure_shaped_run(store, _MODEL_FIGURES_JOB)
        steps = sum(len(model) for model in cold["results"])
        assert steps == 30 and cold["metrics_plan_misses"] == steps
        assert warm["metrics_plan_hits"] == steps
        assert warm["metrics_plan_misses"] == warm["store_writes"] == 0
        assert warm["synthesized"] == 0
        assert warm["plans_per_trace"] <= _MAX_PLANS_PER_TRACE
        assert warm["results"] == cold["results"]


@pytest.mark.usefixtures("clean_faults")
class TestThreadSafety:
    def test_concurrent_threads_share_one_entry(self, tmp_path):
        """Nothing coordinates the racers: each thread may lower the
        kernel itself, and each first replay publishes the same entry."""
        store_dir = str(tmp_path / "store")
        cache = KernelCache(disk_dir=store_dir)
        _, info = make_matmul_system(3, 8, flow="Ns")
        kernels = [None] * 6
        errors = []

        def worker(index):
            try:
                compiler = AXI4MLIRCompiler(info, kernel_cache=cache)
                kernels[index] = compiler.compile_matmul(32, 32, 32)
                hw, _ = make_matmul_system(3, 8, flow="Ns")
                board = make_pynq_z2()
                board.attach_accelerator(hw)
                kernels[index].run(board, np.ones((32, 32), np.int32),
                                   np.ones((32, 32), np.int32),
                                   np.zeros((32, 32), np.int32))
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        sources = {kernel.source for kernel in kernels}
        assert len(sources) == 1
        entries = list(Path(store_dir, "objects").glob("*/*.entry"))
        assert len(entries) == 1
        litter = [p for p in Path(store_dir).rglob("*")
                  if ".tmp-" in p.name]
        assert litter == []


    def test_content_equal_kernels_share_one_plan_dict(self, tmp_path):
        """Content-equal kernels on different threads look up, insert
        into, evict from and (publishing) snapshot ONE plan dict.  Each
        thread replays the same warm-board sequence — more fingerprints
        than the dict keeps — so any thread may be served or evict what
        another built; a torn dict raises or shows up as a result that
        differs from the single-threaded sequence."""
        import sys

        from repro.execution.metrics import _MAX_PLANS_PER_TRACE

        store_dir = str(tmp_path / "store")
        ones = np.ones((16, 16), np.int32)

        def sequence(cpu_tiling):
            hw, info = make_matmul_system(3, 4, flow="Ns")
            kernel = AXI4MLIRCompiler(
                info, kernel_cache=KernelCache(disk_dir=store_dir),
                enable_cpu_tiling=cpu_tiling).compile_matmul(16, 16, 16)
            board = make_pynq_z2()
            board.attach_accelerator(hw)
            seen = []
            for _ in range(_MAX_PLANS_PER_TRACE + 4):
                out = np.zeros((16, 16), np.int32)
                seen.append((kernel.run(board, ones, ones, out).as_dict(),
                             out.tobytes()))
            return kernel, seen

        _, reference = sequence(False)
        results = [None] * 8
        errors = []

        def worker(index):
            try:
                results[index] = sequence(bool(index % 2))
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(len(results))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert [seen for _, seen in results] == [reference] * len(results)
        shared = {id(kernel.trace_state.trace.metrics_plans)
                  for kernel, _ in results}
        assert len(shared) == 1
        assert len(results[0][0].trace_state.trace.metrics_plans) \
            <= _MAX_PLANS_PER_TRACE
        assert [p for p in Path(store_dir).rglob("*")
                if ".tmp-" in p.name] == []


class TestEnvKnobWarnings:
    """Malformed store env knobs warn once, then fall back to defaults."""

    def test_malformed_max_bytes_warns_once(self, tmp_path, monkeypatch):
        store = KernelStore(tmp_path)
        monkeypatch.setenv("REPRO_KERNEL_CACHE_MAX_BYTES", "10MB")
        with pytest.warns(RuntimeWarning,
                          match="REPRO_KERNEL_CACHE_MAX_BYTES"):
            assert store.store("env-warn-max", {"x": 1})
        # The malformed cap disables eviction instead of guessing a
        # size: the freshly stored entry is still there.
        assert store.load("env-warn-max")[0] == "hit"
        # One-shot: the same malformed value never warns again.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert store.store("env-warn-max-two", {"x": 2})
