"""Length-prefixed wire protocol of the compile/simulate service.

A frame is ``<u32 body length><u32 manifest length><manifest><segment>``
(lengths big-endian).  The manifest and segment are the kernel store's
codec's (:class:`repro.store.Codec`), with every array raw where a
store entry narrows its integer arrays: a JSON manifest
``{"payload", "arrays", "size"}`` holding the message as the store's
tagged tree plus the ``[dtype.str, shape, offset]`` array table, then
the ``size``-byte segment with every array's C-contiguous bytes,
8-byte aligned.  The JSON keeps the protocol stdlib-only and
language-agnostic; the wire's class whitelist is
:class:`~repro.soc.perf.PerfCounters` alone, with every field present.
Python's JSON float serialization is ``repr``-based and round-trips
exactly, so counters survive the wire bit-identical — the service's
acceptance bar.

There is no pickle anywhere on the socket, and the store's decoder is
the one parser of the bytes: a hostile peer can at worst produce a
:class:`~repro.service.errors.ProtocolError` (every store format error
maps onto one) or a ``BAD_REQUEST``.  Besides the store's table checks,
:func:`decode_body` rejects a manifest length past the body and a
segment other than the declared size.  Decoded arrays are writable,
disjoint views of one private copy of the segment.

:func:`encode_value` / :func:`decode_value` are a JSON value codec with
arrays inline as base64 (``{"__nd__": {"dtype", "shape", "data"}}``)
and counters as ``{"__perf__": {field: value}}``.  The tuning journal
persists ``PerfCounters`` through it; the socket never carries it.

The ``service.rpc:io`` fault site (:mod:`repro.faults`) fires inside
:func:`send_message`/:func:`recv_message` and turns into the exact
failure the retry ladder absorbs: a connection reset mid-frame.
"""

from __future__ import annotations

import base64
import dataclasses
import hashlib
import socket
import struct
from typing import Any, Optional

import numpy as np

from .. import faults
from ..soc import PerfCounters
from ..store import Codec, StoreFormatError, UnencodablePayload
from .errors import ProtocolError

#: One unsigned 32-bit big-endian length: the frame's body length, and
#: inside the body the manifest's length.
_LENGTH = struct.Struct(">I")

#: Upper bound on a frame body; anything larger is a protocol
#: violation, not a legitimate kernel request.
MAX_FRAME_BYTES = 256 * 1024 * 1024

#: The wire's class whitelist: counters, every field required.
_CODEC = Codec({"PerfCounters": (PerfCounters, tuple(
    field.name for field in dataclasses.fields(PerfCounters)))})


# -- JSON value codec (the tuning journal's) --------------------------------

def encode_value(value: Any) -> Any:
    """JSON-ready form of ``value``, arrays inline as base64."""
    if isinstance(value, np.ndarray):
        data = np.require(value, requirements="C")
        return {"__nd__": {
            "dtype": data.dtype.str, "shape": list(data.shape),
            "data": base64.b64encode(data.tobytes()).decode("ascii")}}
    if isinstance(value, PerfCounters):
        return {"__perf__": {name: encode_value(field)
                             for name, field in vars(value).items()}}
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, dict):
        return {key: encode_value(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [encode_value(item) for item in value]
    return value


def decode_value(value: Any) -> Any:
    """Inverse of :func:`encode_value`.

    Python's JSON float serialization is repr-based and round-trips
    exactly, so a result replayed from the journal is bit-identical to
    the freshly computed one — the property the resume acceptance test
    pins.
    """
    if isinstance(value, dict):
        if set(value) == {"__nd__"}:
            spec = value["__nd__"]
            try:
                dtype = np.dtype(spec["dtype"])
                if dtype.hasobject:
                    raise ProtocolError("object-dtype array on the wire")
                raw = base64.b64decode(spec["data"])
                array = np.frombuffer(raw, dtype=dtype)
                return array.reshape([int(n) for n in spec["shape"]]).copy()
            except ProtocolError:
                raise
            except Exception as exc:
                raise ProtocolError(f"bad array envelope: {exc}") from None
        if set(value) == {"__perf__"}:
            fields = value["__perf__"]
            if not isinstance(fields, dict):
                raise ProtocolError("PerfCounters envelope is not an object")
            counters = PerfCounters()
            known = vars(counters)
            for name, item in fields.items():
                if name not in known:
                    raise ProtocolError(
                        f"unknown PerfCounters field {name!r}"
                    )
                setattr(counters, name, decode_value(item))
            return counters
        return {key: decode_value(item) for key, item in value.items()}
    if isinstance(value, list):
        return [decode_value(item) for item in value]
    return value


# -- frames -----------------------------------------------------------------

def encode_message(message: dict) -> bytes:
    """One whole frame: length prefixes, manifest, segment."""
    try:
        manifest, segment = _CODEC.encode(message)
    except UnencodablePayload as exc:
        raise ProtocolError(str(exc)) from None
    length = _LENGTH.size + len(manifest) + sum(map(len, segment))
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {length} bytes exceeds cap")
    return b"".join([_LENGTH.pack(length), _LENGTH.pack(len(manifest)),
                     manifest, *segment])


def decode_body(body: bytes) -> dict:
    """The message in one frame body (see the module docstring)."""
    if len(body) < _LENGTH.size:
        raise ProtocolError("frame body shorter than its manifest length")
    (manifest_length,) = _LENGTH.unpack_from(body)
    start = _LENGTH.size + manifest_length
    if start > len(body):
        raise ProtocolError(f"manifest length {manifest_length} runs past "
                            f"the {len(body)}-byte body")

    def read_segment(size: int) -> bytearray:
        extra = len(body) - start - size
        if extra > 0:
            raise StoreFormatError(f"{extra} bytes left over after the "
                                   "declared segment")
        if extra < 0:
            raise StoreFormatError(f"the {size}-byte segment runs past "
                                   "the frame")
        return bytearray(memoryview(body)[start:])

    try:
        message = _CODEC.decode(body[_LENGTH.size:start], read_segment)
    except StoreFormatError as exc:
        raise ProtocolError(str(exc)) from None
    if not isinstance(message, dict):
        raise ProtocolError("frame payload is not a dict")
    return message


# -- socket framing ---------------------------------------------------------

def _injected_io() -> None:
    if faults.fires("service.rpc") == "io":
        raise ConnectionResetError("injected service.rpc io fault")


def send_message(sock: socket.socket, message: dict) -> None:
    """Write one frame; raises ``OSError`` on a broken connection."""
    _injected_io()
    sock.sendall(encode_message(message))


def _recv_exact(sock: socket.socket, count: int) -> Optional[bytes]:
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            return None  # orderly EOF
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_message(sock: socket.socket) -> Optional[dict]:
    """Read one frame; ``None`` on orderly EOF before a header.

    EOF *inside* a frame is a :class:`ProtocolError` (torn write), and
    injected ``service.rpc:io`` faults surface as connection resets —
    both land on the client's retry rung.
    """
    _injected_io()
    prefix = _recv_exact(sock, _LENGTH.size)
    if prefix is None:
        return None
    (length,) = _LENGTH.unpack(prefix)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"peer announced {length}-byte frame")
    body = _recv_exact(sock, length)
    if body is None:
        raise ProtocolError("connection closed mid-frame")
    return decode_body(body)


# -- request identity -------------------------------------------------------

def canonical_spec_digest(spec: dict) -> str:
    """Deterministic digest of a request spec, inputs included.

    Used for single-flight coalescing: two in-flight requests with
    equal digests are the same deterministic computation, so one
    execution serves both.  Array data is hashed raw (dtype/shape
    prefixed), from its own buffer when C-contiguous, for speed.
    """
    hasher = hashlib.sha256()

    def feed(value: Any) -> None:
        if isinstance(value, np.ndarray):
            data = np.ascontiguousarray(value)
            hasher.update(f"nd:{data.dtype.str}:{data.shape}".encode())
            hasher.update(data)
        elif isinstance(value, dict):
            hasher.update(b"{")
            for key in sorted(value):
                hasher.update(repr(key).encode())
                feed(value[key])
            hasher.update(b"}")
        elif isinstance(value, (list, tuple)):
            hasher.update(b"[")
            for item in value:
                feed(item)
            hasher.update(b"]")
        else:
            hasher.update(repr(value).encode())

    feed(spec)
    return hasher.hexdigest()
