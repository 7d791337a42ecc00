"""Crash-safe, concurrency-safe, corruption-tolerant kernel store.

This is the disk half of :class:`repro.compiler.KernelCache`, split out
so its failure semantics can be reasoned about (and fault-injected)
independently of the compilation pipeline.  Design points:

**Layout.**  Entries live under ``<root>/objects/<shard>/<name>.entry``
where ``shard`` is the first two hex digits of the entry-name digest —
directories stay small even for many thousands of kernels.  Quarantined
files move to ``<root>/corrupt/``.  Legacy flat ``kernel-*.pkl`` entries
(store version <= 2) are never consulted: they simply age out of the
directory (CI prunes them; ``gc()`` ignores them).

**Atomic publish.**  Writers create a uniquely named temporary file
(pid + thread id + counter, so neither concurrent processes nor threads
collide) and ``os.replace`` it over the final name.  Readers therefore
observe either the old entry, the new entry, or no entry — never a torn
write — and a writer killed at any instant leaves at most one stray
``*.tmp-*`` file, which is removed on error paths and swept by ``gc()``.

**Durability is the caller's.**  :meth:`KernelStore.sync` fsyncs the
entries written since the last sync and their shard directories.  The
kernel cache syncs after each write, except inside :func:`group_commit`,
whose owner syncs at its own commit point; an entry an OS crash tears
before then fails its SHA-256 and is quarantined and rebuilt.

**Entry container.**  Each ``.entry`` file is::

    REPRO-KSTORE-2\\n
    <sha256 hex of manifest+segment>\\n
    <manifest byte length>\\n
    <JSON manifest><zlib stream>

The manifest and segment are :class:`Codec`'s (see the codec below):
a JSON manifest holding the payload's whitelisted tagged tree, one
``[dtype.str, shape, offset]`` row per array, and the segment's size;
the segment is the 8-byte-aligned concatenation of every ndarray
member's C-contiguous bytes, stored as **one** zlib stream.  Decode
inflates it once, bounded by the declared size, into a ``bytearray``
and hands out one ``np.frombuffer`` view per row: **an entry's arrays
are writable, disjoint, and share that one buffer**.  The service's
frames carry the same manifest and segment (uncompressed), so this
module is the one parser of untrusted array bytes.

The SHA-256 is checked before anything is parsed, and there is **no
pickle and no object dtype anywhere in the load path**, so a hostile
manifest or array table can at worst fail to load.  Entries are data:
a kernel entry holds its IR, never driver code (the driver is
re-emitted from the IR by an emitter that accepts only identifiers and
numeric literals), and no derived state the loader does not check (the
C decoders' plans are re-derived).  The SHA-256 is computed by whoever
wrote the entry, so the kernel cache also checks a loaded trace's index
tables and MetricsPlans before they are used
(``repro.compiler.stored_trace``); a forged entry that passes can make
results wrong, not run code.  Any violation (bad magic, short file,
checksum mismatch, malformed JSON, an inflated size other than the
declared one, bytes after the stream, a bad table row, an unknown tag,
class or field) *quarantines* the file into ``corrupt/`` and reports
status ``"corrupt"``, which callers count separately from an honest
miss.

**What gets published.**  Traced kernels only, from the kernel cache's
persist hook (:class:`repro.compiler.KernelCache`); processes racing on
one key each publish atomically and the entry converges.

**Garbage collection.**  ``gc(max_bytes)`` (env:
``REPRO_KERNEL_CACHE_MAX_BYTES``) evicts least-recently-*used* entries
— loads touch the file mtime — until the store fits, and sweeps stale
temporaries.  It runs opportunistically after each publish.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import math
import os
import threading
import time
import weakref
import zlib
from collections import OrderedDict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from . import counters, faults
from .envutil import env_int

#: Container magic line; bump with the container *framing*, not the
#: payload schema (that is KERNEL_STORE_VERSION in the manifest).
MAGIC = b"REPRO-KSTORE-2\n"

#: Env knob: total bytes the object tree may occupy before the LRU
#: garbage collector evicts oldest-used entries.  Unset/empty = no cap.
MAX_BYTES_ENV = "REPRO_KERNEL_CACHE_MAX_BYTES"

#: Temp files older than this are considered crash litter by gc().
_TMP_MAX_AGE_S = 300.0

#: Process-wide store event counters (mirrors TRACE_COUNTERS /
#: METRICS_PLAN_COUNTERS); surfaced via ``diagnostics()``.
STORE_COUNTERS: Dict[str, int] = counters.section("store", {
    "store_hits": 0,
    "store_misses": 0,
    "store_corrupt": 0,
    "store_stale": 0,
    "store_io_errors": 0,
    "store_writes": 0,
    "store_write_failures": 0,
    "store_quarantined": 0,
    "store_evictions": 0,
    "store_syncs": 0,
})


class StoreFormatError(ValueError):
    """The entry container or its manifest violates the format."""


class UnencodablePayload(ValueError):
    """The payload contains values outside the codec whitelist."""


# ---------------------------------------------------------------------------
# Codec: whitelisted tagged JSON + one array segment
# ---------------------------------------------------------------------------
#
# JSON scalars (None/bool/int/float/str) encode as themselves; every
# container becomes a ``[tag, payload]`` array so tuples, sets, and
# non-string dict keys survive the round trip:
#
#   ["l", [...]]            list
#   ["t", [...]]            tuple
#   ["s", [...]]            set (sorted for determinism)
#   ["d", [[k, v], ...]]    dict
#   ["od", [[k, v], ...]]   OrderedDict
#   ["nd", 3]               ndarray, row 3 of the array table
#   ["o", cls, [[f, v]..]]  whitelisted object, rebuilt field-by-field
#   ["flow", "..."]         OpcodeFlow, via its textual form
#
# A manifest is the JSON object ``{"payload": tree, "arrays": table,
# "size": n}``.  The array table is ``[[dtype.str, shape, offset], ...]``
# in reference order; offsets are into the ``n``-byte segment that
# follows the manifest in its container.  Store entries and service
# frames (repro.service.protocol) both carry this pair, each through a
# codec over its own class whitelist: this is the one parser of
# untrusted array bytes.
#
# Objects are reconstructed with ``object.__new__`` + ``setattr`` over
# an explicit per-class field list — no constructors run on untrusted
# data and nothing outside the whitelist can ever be instantiated.

#: Every array starts on a multiple of this in the segment.
_ALIGN = 8

_MANIFEST_KEYS = {"payload", "arrays", "size"}

#: Types that encode as themselves, and all JSON scalars decode to.
_JSON_SCALARS = frozenset((type(None), bool, int, float, str))

def _is_count(value: Any) -> bool:
    """A plain non-negative ``int`` (``bool`` is not one)."""
    return type(value) is int and value >= 0


class Codec:
    """The tagged tree and array table over one class whitelist.

    ``classes`` maps a tag to ``(class, field names)``.  Each container
    builds one codec from a table of its own.
    """

    def __init__(self, classes: Dict[str, Tuple[type, Any]]) -> None:
        self.classes = classes
        self._tags = {cls: tag for tag, (cls, _) in classes.items()}

    def encode(self, value: Any) -> Tuple[bytes, List[Any]]:
        """``value`` -> (manifest JSON bytes, the segment as buffers).

        The buffers are byte views of the arrays and their padding, so
        the container's one ``b"".join`` is the only copy.  Raises
        :class:`UnencodablePayload` when ``value`` reaches outside the
        whitelist (e.g. an object-dtype array).
        """
        arrays: List[np.ndarray] = []
        tree = self._encode(value, arrays)
        table: List[Any] = []
        chunks: List[Any] = []
        offset = 0
        for array in arrays:
            table.append([array.dtype.str, list(array.shape), offset])
            padding = -array.nbytes % _ALIGN
            chunks += (np.ascontiguousarray(array).reshape(-1)
                       .view(np.uint8), bytes(padding))
            offset += array.nbytes + padding
        manifest = json.dumps({"payload": tree, "arrays": table,
                               "size": offset}, separators=(",", ":"))
        return manifest.encode(), chunks

    def _encode(self, value: Any, arrays: List[np.ndarray]) -> Any:
        if type(value) in _JSON_SCALARS:
            return value
        if isinstance(value, (int, float, str)) \
                and not isinstance(value, (np.integer, np.floating)):
            return value
        if isinstance(value, (np.integer, np.bool_)):
            return int(value)
        if isinstance(value, np.floating):
            return float(value)
        if isinstance(value, np.ndarray):
            dtype = value.dtype
            if dtype.hasobject or not dtype.itemsize \
                    or np.dtype(dtype.str) != dtype:
                raise UnencodablePayload(f"{dtype} ndarray")
            arrays.append(value)
            return ["nd", len(arrays) - 1]
        if isinstance(value, (list, tuple)):
            return ["l" if isinstance(value, list) else "t",
                    [self._encode(v, arrays) for v in value]]
        if isinstance(value, (set, frozenset)):
            return ["s", [self._encode(v, arrays)
                          for v in sorted(value, key=repr)]]
        if isinstance(value, dict):
            return ["od" if isinstance(value, OrderedDict) else "d",
                    [[self._encode(k, arrays), self._encode(v, arrays)]
                     for k, v in value.items()]]
        tag = self._tags.get(type(value))
        if tag is not None:
            return ["o", tag, [[name, self._encode(getattr(value, name),
                                                   arrays)]
                               for name in self.classes[tag][1]]]
        from .opcodes import OpcodeFlow
        if isinstance(value, OpcodeFlow):
            return ["flow", str(value)]
        raise UnencodablePayload(
            f"cannot persist value of type {type(value).__name__}"
        )

    def decode(self, manifest: bytes,
               read_segment: Callable[[int], bytearray]) -> Any:
        """Inverse of :meth:`encode`; raises :class:`StoreFormatError`.

        ``read_segment(size)`` returns the container's segment as one
        ``bytearray`` of the manifest's declared ``size``.  Every table
        row is checked before numpy sees it, so a hostile manifest can
        only ever raise StoreFormatError; the decoded arrays are
        writable, disjoint views of that one buffer.
        """
        try:
            try:
                document = json.loads(manifest)
            except ValueError as exc:
                raise StoreFormatError(f"bad manifest JSON: {exc}") \
                    from None
            if not isinstance(document, dict) \
                    or document.keys() != _MANIFEST_KEYS \
                    or not _is_count(document["size"]):
                raise StoreFormatError("malformed manifest")
            arrays = _view_arrays(document["arrays"],
                                  read_segment(document["size"]))
            return self._decode(document["payload"], arrays)
        except StoreFormatError:
            raise
        except RecursionError:
            raise StoreFormatError("manifest nests too deeply") from None
        except Exception as exc:
            # Anything else a hostile manifest provokes (bad flow text,
            # setattr on slots, ...) is still just a malformed one.
            raise StoreFormatError(f"undecodable payload: {exc}") from None

    def _decode(self, value: Any, arrays: List[np.ndarray]) -> Any:
        if type(value) in _JSON_SCALARS:
            return value
        if not isinstance(value, list) or not value \
                or not isinstance(value[0], str):
            raise StoreFormatError(f"malformed codec node: {value!r:.80}")
        tag = value[0]
        if tag == "l":
            return [self._decode(v, arrays) for v in value[1]]
        if tag == "t":
            return tuple(self._decode(v, arrays) for v in value[1])
        if tag == "s":
            return {self._decode(v, arrays) for v in value[1]}
        if tag == "d":
            return {self._decode(k, arrays): self._decode(v, arrays)
                    for k, v in value[1]}
        if tag == "od":
            return OrderedDict((self._decode(k, arrays),
                                self._decode(v, arrays)) for k, v in value[1])
        if tag == "nd":
            index = value[1]
            if not _is_count(index) or index >= len(arrays):
                raise StoreFormatError(
                    f"manifest references missing array {index!r}")
            return arrays[index]
        if tag == "flow":
            from .opcodes import parse_opcode_flow
            return parse_opcode_flow(value[1])
        if tag == "o":
            return self._decode_object(value[1], value[2], arrays)
        raise StoreFormatError(f"unknown codec tag {tag!r:.80}")

    def _decode_object(self, tag: Any, items: Any,
                       arrays: List[np.ndarray]) -> Any:
        if tag not in self.classes:
            raise StoreFormatError(f"non-whitelisted class tag {tag!r:.80}")
        cls, fields = self.classes[tag]
        if not isinstance(items, list) or not all(
                isinstance(item, list) and len(item) == 2 for item in items):
            raise StoreFormatError(f"malformed {tag} fields")
        names = [name for name, _ in items]
        for name in names:
            if not isinstance(name, str) or name not in fields:
                raise StoreFormatError(
                    f"field {name!r:.80} not allowed on {tag}")
        if len(set(names)) != len(names) or len(names) != len(fields):
            raise StoreFormatError(f"incomplete {tag} fields")
        obj = object.__new__(cls)
        for name, encoded in items:
            setattr(obj, name, self._decode(encoded, arrays))
        return obj


def _view_arrays(table: Any, buffer: bytearray) -> List[np.ndarray]:
    """One ``np.frombuffer`` view of ``buffer`` per array-table row."""
    if not isinstance(table, list):
        raise StoreFormatError("malformed array table")
    arrays: List[np.ndarray] = []
    extents: List[Tuple[int, int]] = []
    for row in table:
        if not isinstance(row, list) or len(row) != 3:
            raise StoreFormatError(f"malformed array table row: {row!r:.80}")
        text, shape, offset = row
        try:
            dtype = np.dtype(text) if isinstance(text, str) else None
        except (TypeError, ValueError):
            dtype = None
        if dtype is None or dtype.hasobject or not dtype.itemsize \
                or dtype.str != text:
            raise StoreFormatError(f"bad array dtype {text!r:.80}")
        if not isinstance(shape, list) or not all(map(_is_count, shape)):
            raise StoreFormatError(f"bad array shape {shape!r:.80}")
        if not _is_count(offset) or offset % _ALIGN:
            raise StoreFormatError(f"bad array offset {offset!r:.80}")
        count = math.prod(shape)
        end = offset + count * dtype.itemsize
        if end > len(buffer):
            raise StoreFormatError("array runs past the segment")
        extents.append((offset, end))
        arrays.append(np.frombuffer(buffer, dtype, count, offset)
                      .reshape(shape))
    extents.sort()
    for (_, end), (start, _) in zip(extents, extents[1:]):
        if start < end:
            raise StoreFormatError("array table rows overlap")
    return arrays


@functools.lru_cache(maxsize=None)
def _store_codec() -> Codec:
    """The kernel store's codec, its whitelist built once per process.

    Imported lazily so ``repro.store`` stays importable on its own (the
    execution/transform modules import numpy-heavy machinery).
    """
    from .execution.metrics import MetricsPlan
    from .transforms.flow_analysis import (
        FlowPlacement,
        PlacedGroup,
        PlacedOpcode,
    )
    from .transforms.lower_to_accel import LoweringPlan

    return Codec({
        "LoweringPlan": (LoweringPlan, (
            "dim_names", "extents", "tiles", "loop_order", "cpu_tiles",
            "placement", "operand_host_dims", "init_flow",
        )),
        "FlowPlacement": (FlowPlacement, (
            "root", "loop_order", "levels_by_opcode",
        )),
        "PlacedGroup": (PlacedGroup, ("items", "level")),
        "PlacedOpcode": (PlacedOpcode, ("name", "level", "min_level")),
        "MetricsPlan": (MetricsPlan, MetricsPlan.__slots__),
    })


def encode_payload(payload: Any) -> Tuple[bytes, bytes]:
    """Payload -> (manifest JSON bytes, zlib stream of the segment).

    Raises :class:`UnencodablePayload` when the payload reaches outside
    the codec whitelist (e.g. an object-dtype array); callers keep such
    entries memory-only.
    """
    manifest, segment = _store_codec().encode(payload)
    # Level 1: the arrays are mostly small-valued integers, where the
    # higher levels buy a few percent for several times the CPU.
    return manifest, zlib.compress(b"".join(segment), 1)


def decode_payload(manifest: bytes, stream: bytes) -> Any:
    """Inverse of :func:`encode_payload`; raises StoreFormatError.

    The stream is inflated once, bounded by the declared size.
    """

    def inflate(size: int) -> bytearray:
        inflater = zlib.decompressobj()
        try:
            data = inflater.decompress(stream, size + 1)
        except zlib.error as exc:
            raise StoreFormatError(f"bad array segment: {exc}") from None
        if len(data) != size or not inflater.eof:
            raise StoreFormatError("array segment is not the declared size")
        if inflater.unused_data:
            raise StoreFormatError("trailing bytes after the array segment")
        return bytearray(data)

    return _store_codec().decode(manifest, inflate)


# ---------------------------------------------------------------------------
# Container framing
# ---------------------------------------------------------------------------

def pack_entry(manifest: bytes, stream: bytes) -> bytes:
    digest = hashlib.sha256(manifest + stream).hexdigest()
    header = MAGIC + digest.encode() + b"\n" + \
        str(len(manifest)).encode() + b"\n"
    return header + manifest + stream


def unpack_entry(blob: bytes) -> Tuple[bytes, bytes]:
    if not blob.startswith(MAGIC):
        raise StoreFormatError("bad magic")
    rest = blob[len(MAGIC):]
    try:
        digest_line, rest = rest.split(b"\n", 1)
        length_line, rest = rest.split(b"\n", 1)
        manifest_len = int(length_line)
    except ValueError:
        raise StoreFormatError("truncated header") from None
    if manifest_len < 0 or manifest_len > len(rest):
        raise StoreFormatError("truncated entry")
    manifest, stream = rest[:manifest_len], rest[manifest_len:]
    actual = hashlib.sha256(manifest + stream).hexdigest().encode()
    if actual != digest_line:
        raise StoreFormatError("checksum mismatch")
    return manifest, stream


# ---------------------------------------------------------------------------
# The store
# ---------------------------------------------------------------------------

_tmp_counter_lock = counters.fork_safe_lock()
_tmp_counter = 0


def _next_tmp_suffix() -> str:
    """Unique per (pid, thread, counter): concurrent writers anywhere
    on the same filesystem never collide on a temp name."""
    global _tmp_counter
    with _tmp_counter_lock:
        _tmp_counter += 1
        count = _tmp_counter
    return f".tmp-{os.getpid()}-{threading.get_ident()}-{count}"


def _fsync(path) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _fsync_dir(directory: Path) -> None:
    with contextlib.suppress(OSError):
        _fsync(directory)


@contextmanager
def _replacing(path: Path) -> Iterator[Path]:
    """Yield a ``*.tmp-*`` sibling to ``os.replace`` over ``path``."""
    tmp = path.with_name(path.name + _next_tmp_suffix())
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise


@contextmanager
def durable_publish(path) -> Iterator[Path]:
    """Atomically publish the file written to the yielded temp path.

    The temp path is a collision-free ``*.tmp-*`` sibling of ``path``.
    On a clean exit it is fsynced and ``os.replace``d over ``path``, and
    the directory is fsynced; on any exception it is unlinked and the
    exception propagates.  The sweep journal's compaction and report
    and the C library are published here; store entries are replaced
    the same way and fsynced in batches (:meth:`KernelStore.sync`).  A
    crash leaves the old file, the new one, or ``*.tmp-*`` litter.
    """
    path = Path(path)
    with _replacing(path) as tmp:
        yield tmp
        _fsync(tmp)
    _fsync_dir(path.parent)


_group_commit = threading.local()


@contextmanager
def group_commit() -> Iterator[None]:
    """Defer :meth:`KernelStore.sync` on this thread (nestable); the
    caller runs :func:`sync_all` at its commit point."""
    _group_commit.depth = getattr(_group_commit, "depth", 0) + 1
    try:
        yield
    finally:
        _group_commit.depth -= 1


_STORES: "weakref.WeakSet[KernelStore]" = weakref.WeakSet()


def sync_all() -> None:
    """:meth:`KernelStore.sync` every store of this process."""
    for store in list(_STORES):
        store.sync()


def _count(key: str, amount: int = 1) -> None:
    STORE_COUNTERS[key] += amount


class KernelStore:
    """One on-disk store rooted at a directory (see module docstring).

    ``load``/``store`` report status strings instead of raising: every
    failure mode maps onto a degradation the caller already supports
    (rebuild, or stay memory-only).
    """

    def __init__(self, root, max_bytes: Optional[int] = None) -> None:
        self.root = Path(root)
        self._max_bytes = max_bytes
        self._unsynced: set = set()  # entry paths sync() has not seen
        self._lock = counters.fork_safe_lock()
        _STORES.add(self)

    # -- paths ------------------------------------------------------------
    def objects_dir(self) -> Path:
        return self.root / "objects"

    def corrupt_dir(self) -> Path:
        return self.root / "corrupt"

    def entry_path(self, name: str) -> Path:
        shard = hashlib.sha256(name.encode()).hexdigest()[:2]
        return self.objects_dir() / shard / f"{name}.entry"

    def _resolve_max_bytes(self) -> Optional[int]:
        if self._max_bytes is not None:
            return self._max_bytes
        return env_int(MAX_BYTES_ENV, None)

    # -- load -------------------------------------------------------------
    def load(self, name: str) -> Tuple[str, Optional[Any]]:
        """Read one entry.

        Returns ``(status, payload)`` with status one of ``"hit"``
        (payload decoded), ``"miss"`` (honest absence), ``"io"``
        (filesystem error — the entry may exist but is unreadable right
        now), or ``"corrupt"`` (container/codec violation; the file has
        been quarantined into ``corrupt/``).
        """
        path = self.entry_path(name)
        injected = faults.fires("store.read")
        try:
            if injected == "io":
                raise OSError("injected store.read io fault")
            blob = path.read_bytes()
        except FileNotFoundError:
            _count("store_misses")
            return "miss", None
        except OSError:
            _count("store_io_errors")
            return "io", None
        try:
            if injected == "corrupt":
                raise StoreFormatError("injected store.read corruption")
            payload = decode_payload(*unpack_entry(blob))
        except StoreFormatError:
            self.quarantine(name)
            _count("store_corrupt")
            return "corrupt", None
        _count("store_hits")
        try:
            os.utime(path)  # LRU recency for gc()
        except OSError:
            pass
        return "hit", payload

    def quarantine(self, name: str) -> None:
        """Move an entry into ``corrupt/`` (atomic, never raises).

        Quarantining rather than deleting keeps the evidence for
        inspection while guaranteeing the bad bytes are never read
        again; the next traced run republishes a fresh entry.
        """
        path = self.entry_path(name)
        target_dir = self.corrupt_dir()
        try:
            target_dir.mkdir(parents=True, exist_ok=True)
            target = target_dir / path.name
            if target.exists():
                target = target_dir / (path.name + _next_tmp_suffix())
            os.replace(path, target)
            _count("store_quarantined")
        except OSError:
            return

    # -- store ------------------------------------------------------------
    def store(self, name: str, payload: Any) -> bool:
        """Atomically publish one entry; False = not persisted.

        Durable once :meth:`sync` ran.  Encode failures (payload outside
        the whitelist) and filesystem errors both leave the store exactly
        as it was — no partial entry, no leaked temp file.
        """
        try:
            blob = pack_entry(*encode_payload(payload))
        except UnencodablePayload:
            return False
        path = self.entry_path(name)
        try:
            if faults.fires("store.write") == "io":
                raise OSError("injected store.write io fault")
            with _replacing(path) as tmp:
                try:
                    tmp.write_bytes(blob)
                except FileNotFoundError:  # the shard's first entry
                    path.parent.mkdir(parents=True, exist_ok=True)
                    tmp.write_bytes(blob)
        except OSError:
            _count("store_write_failures")
            return False
        with self._lock:
            self._unsynced.add(path)
        _count("store_writes")
        max_bytes = self._resolve_max_bytes()
        if max_bytes is not None:
            self.gc(max_bytes)
        return True

    def sync(self, since: Optional[float] = None) -> None:
        """Fsync the entries written since the last sync, then their
        shard directories, once each; timed into ``store_publish_s``.

        A no-op inside :func:`group_commit`.  ``since`` adds the entries
        modified since then (what a killed writer could not sync).
        Entries evicted or quarantined meanwhile are skipped; an
        ``OSError`` is counted, never raised.
        """
        if getattr(_group_commit, "depth", 0):
            return
        with self._lock:
            paths, self._unsynced = self._unsynced, set()
        if since is not None:
            paths.update(path for path, stat in self._files()
                         if path.name.endswith(".entry")
                         and stat.st_mtime >= since)
        if not paths:
            return
        started = time.perf_counter()
        for path in paths:
            try:
                _fsync(path)
            except FileNotFoundError:
                continue
            except OSError:
                _count("store_write_failures")
        for directory in {path.parent for path in paths}:
            _fsync_dir(directory)
        _count("store_syncs")
        from .execution.trace import add_stage_time
        add_stage_time("store_publish_s", time.perf_counter() - started)

    # -- garbage collection ------------------------------------------------
    def _files(self) -> Iterator[Tuple[Path, os.stat_result]]:
        """``(path, stat)`` of every file in the shard directories."""
        for path in self.objects_dir().glob("*/*"):
            try:
                yield path, path.stat()
            except OSError:
                continue

    def gc(self, max_bytes: Optional[int] = None) -> int:
        """Evict least-recently-used entries over the size cap.

        Also sweeps crash litter: temp files older than five minutes.
        Returns the number of entries evicted.
        """
        entries: List[Tuple[float, int, Path]] = []
        total = 0
        now = time.time()
        for path, stat in self._files():
            if ".tmp-" in path.name:
                if now - stat.st_mtime > _TMP_MAX_AGE_S:
                    try:
                        path.unlink()
                    except OSError:
                        pass
                continue
            if path.name.endswith(".entry"):
                entries.append((stat.st_mtime, stat.st_size, path))
                total += stat.st_size
        if max_bytes is None:
            max_bytes = self._resolve_max_bytes()
        if max_bytes is None:
            return 0
        evicted = 0
        entries.sort()  # oldest mtime first
        for _mtime, size, path in entries:
            if total <= max_bytes:
                break
            try:
                path.unlink()
            except OSError:
                continue
            total -= size
            evicted += 1
            _count("store_evictions")
        return evicted
