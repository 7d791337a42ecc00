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
collide), ``fsync`` it, ``os.replace`` it over the final name, then
``fsync`` the directory.  Readers therefore observe either the old
entry, the new entry, or no entry — never a torn write — and a writer
killed at any instant leaves at most one stray ``*.tmp-*`` file, which
is removed in a ``finally`` on error paths and swept by ``gc()``.

**Entry container.**  Each ``.entry`` file is::

    REPRO-KSTORE-2\\n
    <sha256 hex of manifest+segment>\\n
    <manifest byte length>\\n
    <JSON manifest><zlib stream>

The manifest is JSON: a whitelisted tagged encoding of the payload (see
the codec below), an array table with one ``[dtype.str, shape, offset]``
row per array, and the inflated size of the segment.  The segment is
**one** zlib stream over the 8-byte-aligned concatenation of every
array's C-contiguous bytes — ndarray members first, then the int64
arrays that carry long integer sequences (``recv_refs`` and friends),
which are turned back into lists at decode and are dead afterwards.
Decode inflates the stream once, bounded by the declared size, into a
``bytearray`` and hands out one ``np.frombuffer`` view per table row:
**an entry's arrays are writable, disjoint, and share that one buffer**,
so any one of them keeps the whole inflated segment alive.

The SHA-256 is checked before anything is parsed, and there is **no
pickle and no object dtype anywhere in the load path**, so a hostile
manifest or array table can at worst fail to load.  Entries are data:
a kernel entry holds its IR, never driver code (the driver is
re-emitted from the IR by an emitter that accepts only identifiers and
numeric literals).  The SHA-256 is computed by whoever wrote the
entry, so the kernel cache also checks a loaded trace's index tables
before the C kernels read them (``repro.compiler.stored_trace``); a
forged entry that passes can make results wrong, not run code.  Any
container violation (bad magic, short file, checksum mismatch,
malformed JSON, an inflated size other than the declared one, bytes
after the stream, a table row whose dtype has objects, whose offset is
unaligned or whose extent leaves the segment or overlaps another row, a
non-whitelisted tag) *quarantines* the file into ``corrupt/`` and
reports status ``"corrupt"``, which callers count separately from an
honest miss.

**What gets published.**  Entries persist *traced* kernels: the kernel
cache publishes an entry from the first replay's persist hook, never at
compile time (see :class:`repro.compiler.KernelCache` for the measured
cost of lowering against loading).  There is no cross-process build
lock: processes racing on one key each lower it and publish
atomically, and the entry converges (``repro.compiler.publish_due``).

**Garbage collection.**  ``gc(max_bytes)`` (env:
``REPRO_KERNEL_CACHE_MAX_BYTES``) evicts least-recently-*used* entries
— loads touch the file mtime — until the store fits, and sweeps stale
temporaries.  It runs opportunistically after each publish.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
import zlib
from collections import OrderedDict
from itertools import chain
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

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
#   ["li", 4]               list of plain ints, as the 1-D int64 row 4
#   ["ti", 5]               tuple of plain ints, as the 1-D int64 row 5
#   ["lt", 6]               list of equal-width tuples of plain ints,
#                           as the 2-D int64 row 6
#   ["o", cls, [[f, v]..]]  whitelisted object, rebuilt field-by-field
#   ["flow", "..."]         OpcodeFlow, via its textual form
#
# The packed tags (``li``/``ti``/``lt``) take sequences of at least
# ``_PACK_MIN`` members whose every leaf is exactly ``int`` and fits
# int64; anything else — bools, numpy scalars, ragged or empty tuples,
# big ints, short sequences — stays on the element-wise path, so the
# round trip is type-exact either way (``.tolist()`` yields plain ints).
#
# The array table is ``[[dtype.str, shape, offset], ...]`` in reference
# order; offsets are into the inflated segment, which lays the ``nd``
# rows out first and the packed rows after them.
#
# Objects are reconstructed with ``object.__new__`` + ``setattr`` over
# an explicit per-class field list — no constructors run on untrusted
# data and nothing outside the registry can ever be instantiated.

#: Sequences shorter than this are not worth an array-table row.
_PACK_MIN = 16

#: Every array starts on a multiple of this in the inflated segment.
_ALIGN = 8

_INT64 = np.dtype(np.int64)


def _class_registry() -> Dict[str, Tuple[type, Optional[Tuple[str, ...]]]]:
    """Tag -> (class, field whitelist).  ``None`` fields = instance dict.

    Imported lazily so ``repro.store`` stays importable on its own (the
    execution/transform modules import numpy-heavy machinery).
    """
    from .execution.metrics import MetricsPlan
    from .execution.trace import DecodedPlan, DriverTrace, _TileClass
    from .transforms.flow_analysis import (
        FlowPlacement,
        PlacedGroup,
        PlacedOpcode,
    )
    from .transforms.lower_to_accel import LoweringPlan

    return {
        "LoweringPlan": (LoweringPlan, (
            "dim_names", "extents", "tiles", "loop_order", "cpu_tiles",
            "placement", "operand_host_dims", "init_flow",
        )),
        "FlowPlacement": (FlowPlacement, (
            "root", "loop_order", "levels_by_opcode",
        )),
        "PlacedGroup": (PlacedGroup, ("items", "level")),
        "PlacedOpcode": (PlacedOpcode, ("name", "level", "min_level")),
        "DriverTrace": (DriverTrace, None),
        "_TileClass": (_TileClass, (
            "arg", "sizes", "strides", "itemsize", "accumulate",
            "starts", "region_offsets", "event_pos", "order",
        )),
        "DecodedPlan": (DecodedPlan, None),
        "MetricsPlan": (MetricsPlan, (
            "final_state", "l1_ways", "l2_ways",
            "l1_hits_d", "l1_misses_d", "l2_hits_d", "l2_misses_d",
            "l1_miss_total", "l2_miss_total", "stats",
            "input_word_dest", "input_word_values", "input_tile_writes",
            "output_writes",
        )),
    }


#: DriverTrace attributes never persisted: ``metrics_plans`` has its
#: own slot in the kernel payload; ``decoded`` is filtered to
#: drop cached TraceUnsupported sentinels (cheap to rediscover).
#: Private (underscore-prefixed) instance attributes of a DriverTrace or
#: DecodedPlan are process-local derived state (e.g. the replay data
#: schedule): the encoder takes the same ``_public_state`` pickling
#: does, and the decoder has always dropped them.
_TRACE_SKIP = ("metrics_plans",)


class _Encoder:
    def __init__(self) -> None:
        #: Array-table rows in reference order, and which of them carry
        #: a packed sequence (laid out after the ndarray members).
        self.arrays: List[np.ndarray] = []
        self.packed: set = set()
        self._registry = _class_registry()
        self._tag_of = {cls: tag for tag, (cls, _) in
                        self._registry.items()}

    def encode(self, value: Any) -> Any:
        if value is None or value is True or value is False:
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
            self.arrays.append(value)
            return ["nd", len(self.arrays) - 1]
        if isinstance(value, (list, tuple)):
            is_list = isinstance(value, list)
            if len(value) >= _PACK_MIN:
                packed = self._pack(value, is_list)
                if packed is not None:
                    return packed
            return ["l" if is_list else "t",
                    [self.encode(v) for v in value]]
        if isinstance(value, (set, frozenset)):
            return ["s", [self.encode(v)
                          for v in sorted(value, key=repr)]]
        if isinstance(value, OrderedDict):
            return ["od", [[self.encode(k), self.encode(v)]
                           for k, v in value.items()]]
        if isinstance(value, dict):
            return ["d", [[self.encode(k), self.encode(v)]
                          for k, v in value.items()]]
        tag = self._tag_of.get(type(value))
        if tag is not None:
            return ["o", tag, self._encode_fields(tag, value)]
        from .opcodes import OpcodeFlow
        if isinstance(value, OpcodeFlow):
            return ["flow", str(value)]
        raise UnencodablePayload(
            f"cannot persist value of type {type(value).__name__}"
        )

    def _pack(self, value: Any, is_list: bool) -> Optional[List[Any]]:
        """``value`` as an int64 table row, or None to go element-wise."""
        kinds = set(map(type, value))
        if kinds == {int}:
            tag = "li" if is_list else "ti"
        elif is_list and kinds == {tuple} \
                and len(set(map(len, value))) == 1 and value[0] \
                and set(map(type, chain.from_iterable(value))) == {int}:
            tag = "lt"
        else:
            return None
        try:
            array = np.array(value, dtype=_INT64)
        except OverflowError:  # a member outside int64
            return None
        self.packed.add(len(self.arrays))
        self.arrays.append(array)
        return [tag, len(self.arrays) - 1]

    def segment(self) -> Tuple[List[List[Any]], bytes]:
        """(array table, the aligned concatenation the table indexes)."""
        table: List[Any] = [None] * len(self.arrays)
        chunks: List[bytes] = []
        offset = 0
        # Stable sort: reference order within each group, packed last.
        for index in sorted(range(len(table)),
                            key=self.packed.__contains__):
            array = self.arrays[index]
            table[index] = [array.dtype.str, list(array.shape), offset]
            padding = -array.nbytes % _ALIGN
            chunks += (array.tobytes(), bytes(padding))
            offset += array.nbytes + padding
        return table, b"".join(chunks)

    def _encode_fields(self, tag: str, value: Any) -> List[List[Any]]:
        from .execution.trace import TraceUnsupported, _public_state

        _, fields = self._registry[tag]
        items: List[List[Any]] = []
        if fields is None:
            pairs = list(_public_state(value).items())
        else:
            pairs = [(name, getattr(value, name)) for name in fields]
        for name, field in pairs:
            if tag == "DriverTrace":
                if name in _TRACE_SKIP:
                    continue
                if name == "decoded":
                    field = {k: v for k, v in field.items()
                             if not isinstance(v, TraceUnsupported)}
            items.append([name, self.encode(field)])
        return items


def _is_count(value: Any) -> bool:
    """A plain non-negative ``int`` (``bool`` is not one)."""
    return type(value) is int and value >= 0


def _open_segment(table: Any, size: Any, stream: bytes) -> List[np.ndarray]:
    """Inflate ``stream`` once and view it through the array table.

    Every row is validated before numpy sees it, so a hostile table can
    only ever raise :class:`StoreFormatError`.
    """
    if not _is_count(size) or not isinstance(table, list):
        raise StoreFormatError("malformed array table")
    inflater = zlib.decompressobj()
    try:
        data = inflater.decompress(stream, size + 1)
    except zlib.error as exc:
        raise StoreFormatError(f"bad array segment: {exc}") from None
    if len(data) != size or not inflater.eof:
        raise StoreFormatError("array segment is not the declared size")
    if inflater.unused_data:
        raise StoreFormatError("trailing bytes after the array segment")
    buffer = bytearray(data)
    arrays: List[np.ndarray] = []
    extents: List[Tuple[int, int]] = []
    for row in table:
        if not isinstance(row, list) or len(row) != 3 \
                or not isinstance(row[0], str) \
                or not isinstance(row[1], list) \
                or not all(map(_is_count, row[1])) \
                or not _is_count(row[2]) or row[2] % _ALIGN:
            raise StoreFormatError(f"malformed array table row: {row!r}")
        text, shape, offset = row
        try:
            dtype = np.dtype(text)
        except (TypeError, ValueError):
            raise StoreFormatError(f"bad dtype {text!r}") from None
        if dtype.hasobject or not dtype.itemsize or dtype.str != text:
            raise StoreFormatError(f"dtype {text!r} not allowed")
        count = 1
        for extent in shape:
            count *= extent
        end = offset + count * dtype.itemsize
        if end > size:
            raise StoreFormatError("array extends past the segment")
        extents.append((offset, end))
        arrays.append(np.frombuffer(buffer, dtype, count, offset)
                      .reshape(shape))
    extents.sort()
    for (_, end), (start, _) in zip(extents, extents[1:]):
        if start < end:
            raise StoreFormatError("array table rows overlap")
    return arrays


class _Decoder:
    def __init__(self, arrays: List[np.ndarray]) -> None:
        self.arrays = arrays
        self._registry = _class_registry()

    def _array(self, index: Any) -> np.ndarray:
        if not _is_count(index) or index >= len(self.arrays):
            raise StoreFormatError(
                f"manifest references missing array {index!r}")
        return self.arrays[index]

    def _unpack(self, index: Any, ndim: int) -> list:
        array = self._array(index)
        if array.dtype != _INT64 or array.ndim != ndim:
            raise StoreFormatError("packed sequence over a "
                                   f"{array.dtype} {array.ndim}-D array")
        return array.tolist()

    def decode(self, value: Any) -> Any:
        if value is None or isinstance(value, (bool, int, float, str)):
            return value
        if not isinstance(value, list) or not value \
                or not isinstance(value[0], str):
            raise StoreFormatError(f"malformed codec node: {value!r}")
        tag = value[0]
        if tag == "l":
            return [self.decode(v) for v in value[1]]
        if tag == "t":
            return tuple(self.decode(v) for v in value[1])
        if tag == "s":
            return {self.decode(v) for v in value[1]}
        if tag == "d":
            return {self.decode(k): self.decode(v) for k, v in value[1]}
        if tag == "od":
            return OrderedDict(
                (self.decode(k), self.decode(v)) for k, v in value[1]
            )
        if tag == "nd":
            return self._array(value[1])
        if tag == "li":
            return self._unpack(value[1], 1)
        if tag == "ti":
            return tuple(self._unpack(value[1], 1))
        if tag == "lt":
            return list(map(tuple, self._unpack(value[1], 2)))
        if tag == "flow":
            from .opcodes import parse_opcode_flow
            return parse_opcode_flow(value[1])
        if tag == "o":
            return self._decode_object(value[1], value[2])
        raise StoreFormatError(f"unknown codec tag {tag!r}")

    def _decode_object(self, tag: str, items: Any) -> Any:
        entry = self._registry.get(tag)
        if entry is None:
            raise StoreFormatError(f"non-whitelisted class tag {tag!r}")
        cls, fields = entry
        obj = object.__new__(cls)
        allowed = set(fields) if fields is not None else None
        seen = set()
        for name, encoded in items:
            if not isinstance(name, str) \
                    or (allowed is not None and name not in allowed):
                if tag in ("DriverTrace", "DecodedPlan"):
                    # Instance-dict classes tolerate extra fields from
                    # newer writers; drop anything unexpected.
                    if not isinstance(name, str) \
                            or name.startswith("_") \
                            or name in _TRACE_SKIP:
                        continue
                else:
                    raise StoreFormatError(
                        f"field {name!r} not allowed on {tag}"
                    )
            setattr(obj, name, self.decode(encoded))
            seen.add(name)
        if allowed is not None and seen != allowed:
            raise StoreFormatError(f"incomplete {tag} entry")
        if tag == "DriverTrace":
            obj.metrics_plans = OrderedDict()
        return obj


def encode_payload(payload: Any) -> Tuple[bytes, bytes]:
    """Payload -> (manifest JSON bytes, zlib stream of the arrays).

    Raises :class:`UnencodablePayload` when the payload reaches outside
    the codec whitelist (e.g. an object-dtype array); callers keep such
    entries memory-only.
    """
    encoder = _Encoder()
    tree = encoder.encode(payload)
    table, data = encoder.segment()
    manifest = json.dumps({"format": 2, "payload": tree, "arrays": table,
                           "size": len(data)},
                          separators=(",", ":")).encode()
    # Level 1: the arrays are mostly small-valued integers, where the
    # higher levels buy a few percent for several times the CPU.
    return manifest, zlib.compress(data, 1)


def decode_payload(manifest: bytes, stream: bytes) -> Any:
    """Inverse of :func:`encode_payload`; raises StoreFormatError."""
    try:
        document = json.loads(manifest)
    except ValueError as exc:
        raise StoreFormatError(f"bad manifest JSON: {exc}") from None
    if not isinstance(document, dict) or document.get("format") != 2:
        raise StoreFormatError("unknown manifest format")
    try:
        arrays = _open_segment(document.get("arrays"),
                               document.get("size"), stream)
        return _Decoder(arrays).decode(document["payload"])
    except StoreFormatError:
        raise
    except Exception as exc:
        # Anything else a hostile manifest provokes (bad flow text,
        # setattr on slots, ...) is still just a corrupt entry.
        raise StoreFormatError(f"undecodable payload: {exc}") from None


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


def _fsync_dir(directory: Path) -> None:
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


#: Public names for the atomic-publish building blocks (write to a
#: collision-free ``*.tmp-*`` sibling, fsync, ``os.replace``, fsync the
#: directory).  The tuning journal's rotation/compaction reuses them so
#: every durable artifact in the repo follows one idiom — and one
#: hygiene rule: a crash at any instant leaves either the old file, the
#: new file, or removable ``*.tmp-*`` litter, never a torn target.
next_tmp_suffix = _next_tmp_suffix
fsync_dir = _fsync_dir


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

        Encode failures (payload outside the whitelist) and filesystem
        errors both leave the store exactly as it was — no partial
        entry, no leaked temp file.
        """
        try:
            blob = pack_entry(*encode_payload(payload))
        except UnencodablePayload:
            return False
        path = self.entry_path(name)
        tmp = path.parent / (path.name + _next_tmp_suffix())
        try:
            if faults.fires("store.write") == "io":
                raise OSError("injected store.write io fault")
            path.parent.mkdir(parents=True, exist_ok=True)
            with open(tmp, "wb") as handle:
                handle.write(blob)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
            _fsync_dir(path.parent)
        except OSError:
            _count("store_write_failures")
            return False
        finally:
            # os.replace consumed the tmp on success; anything left
            # behind here is the failure-path residue.
            try:
                tmp.unlink()
            except OSError:
                pass
        _count("store_writes")
        max_bytes = self._resolve_max_bytes()
        if max_bytes is not None:
            self.gc(max_bytes)
        return True

    # -- garbage collection ------------------------------------------------
    def gc(self, max_bytes: Optional[int] = None) -> int:
        """Evict least-recently-used entries over the size cap.

        Also sweeps crash litter: temp files older than five minutes.
        Returns the number of entries evicted.
        """
        objects = self.objects_dir()
        if not objects.is_dir():
            return 0
        entries: List[Tuple[float, int, Path]] = []
        total = 0
        now = time.time()
        for path in objects.glob("*/*"):
            try:
                stat = path.stat()
            except OSError:
                continue
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
