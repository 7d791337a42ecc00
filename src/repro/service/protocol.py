"""Length-prefixed wire protocol of the compile/simulate service.

A frame is ``<u32 body length><body>`` and a body is
``<u32 header length><JSON header><array bytes>`` (all lengths
big-endian).  The JSON header keeps the protocol stdlib-only and
language-agnostic; the two non-JSON value kinds a request/response
needs ride in tagged envelopes:

* ``{"__nd__": {"dtype": ..., "shape": [...]}}`` — a
  :class:`numpy.ndarray`.  Its C-contiguous bytes follow the header,
  in the order the envelopes appear in the message, with nothing in
  between and nothing after the last one.  ``dtype`` is numpy's
  ``dtype.str`` (byte order included).
* ``{"__perf__": {field: value, ...}}`` — a
  :class:`~repro.soc.perf.PerfCounters` bundle.  Python's JSON float
  serialization is ``repr``-based and round-trips exactly, so counters
  survive the wire bit-identical — the service's acceptance bar.

There is no pickle anywhere on the socket (mirroring the kernel-store
container): a hostile peer can at worst produce a
:class:`~repro.service.errors.ProtocolError` or a ``BAD_REQUEST``.
:func:`decode_body` lays out every array before it allocates one, and
rejects a header length past the body, an object or zero-itemsize
dtype, a shape that is not a list of non-negative ints, an array that
runs past the frame, bytes left over after the last array, and a
base64 array envelope.  Decoded arrays are fresh, writable copies.

:func:`encode_value` / :func:`decode_value` are the JSON value codec
without the trailing bytes: arrays inline as base64 in a ``"data"``
field.  The tuning journal persists ``PerfCounters`` through it; the
socket never carries that array form.

The ``service.rpc:io`` fault site (:mod:`repro.faults`) fires inside
:func:`send_message`/:func:`recv_message` and turns into the exact
failure the retry ladder absorbs: a connection reset mid-frame.
"""

from __future__ import annotations

import base64
import hashlib
import json
import math
import socket
import struct
from typing import Any, Iterator, List, Optional

import numpy as np

from .. import faults
from ..soc import PerfCounters
from .errors import ProtocolError

#: One unsigned 32-bit big-endian length: the frame's body length, and
#: inside the body the JSON header's length.
_HEADER = struct.Struct(">I")

#: Upper bound on a frame body; anything larger is a protocol
#: violation, not a legitimate kernel request.
MAX_FRAME_BYTES = 256 * 1024 * 1024


# -- value codec ------------------------------------------------------------

def _encode_value(value: Any, arrays: Optional[List[np.ndarray]] = None
                  ) -> Any:
    """JSON-ready form of ``value``.  Arrays go inline as base64, or,
    given an ``arrays`` list, are appended to it for the frame's tail."""
    if isinstance(value, np.ndarray):
        data = np.require(value, requirements="C")
        spec = {"dtype": data.dtype.str, "shape": list(data.shape)}
        if arrays is None:
            spec["data"] = base64.b64encode(data.tobytes()).decode("ascii")
        elif data.dtype.hasobject:
            raise ProtocolError("object-dtype array on the wire")
        else:
            arrays.append(data)
        return {"__nd__": spec}
    if isinstance(value, PerfCounters):
        return {"__perf__": {
            name: _encode_value(field, arrays)
            for name, field in vars(value).items()
        }}
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, dict):
        return {key: _encode_value(item, arrays)
                for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_encode_value(item, arrays) for item in value]
    return value


def _decode_value(value: Any,
                  arrays: Optional[Iterator[np.ndarray]] = None) -> Any:
    """Inverse of :func:`_encode_value`; with ``arrays``, each array
    envelope takes the next of the frame's already decoded arrays."""
    if isinstance(value, dict):
        if set(value) == {"__nd__"}:
            if arrays is not None:
                return next(arrays)
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
                setattr(counters, name, _decode_value(item, arrays))
            return counters
        return {key: _decode_value(item, arrays)
                for key, item in value.items()}
    if isinstance(value, list):
        return [_decode_value(item, arrays) for item in value]
    return value


#: Public names for the JSON value codec.  The tuning journal persists
#: PerfCounters through the same envelopes the wire uses: Python's JSON
#: float serialization is repr-based and round-trips exactly, so a
#: result replayed from the journal is bit-identical to the freshly
#: computed one — the property the resume acceptance test pins.
encode_value = _encode_value
decode_value = _decode_value


def encode_message(message: dict) -> bytes:
    """One whole frame: length prefix, JSON header, array bytes."""
    arrays: List[np.ndarray] = []
    header = json.dumps(_encode_value(message, arrays),
                        separators=(",", ":")).encode()
    length = _HEADER.size + len(header) \
        + sum(array.nbytes for array in arrays)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {length} bytes exceeds cap")
    return b"".join([_HEADER.pack(length), _HEADER.pack(len(header)),
                     header,
                     *(array.reshape(-1).view(np.uint8)
                       for array in arrays)])


def _array_envelopes(value: Any) -> Iterator[Any]:
    """Every ``__nd__`` envelope's spec in ``value``, in wire order (the
    order :func:`_decode_value` visits them)."""
    if isinstance(value, dict):
        if set(value) == {"__nd__"}:
            yield value["__nd__"]
            return
        for item in value.values():
            yield from _array_envelopes(item)
    elif isinstance(value, list):
        for item in value:
            yield from _array_envelopes(item)


def _array_layout(spec: Any):
    """``(dtype, shape, nbytes)`` of one wire array envelope."""
    if not isinstance(spec, dict):
        raise ProtocolError("array envelope is not an object")
    if "data" in spec:
        raise ProtocolError("base64 array envelope on the wire")
    if set(spec) != {"dtype", "shape"}:
        raise ProtocolError(f"array envelope keys {sorted(spec)}")
    text = spec["dtype"]
    try:
        dtype = np.dtype(text) if isinstance(text, str) else None
    except (TypeError, ValueError):
        dtype = None
    if dtype is None or dtype.hasobject or dtype.itemsize == 0 \
            or dtype.shape != ():
        raise ProtocolError(f"bad array dtype {text!r}")
    shape = spec["shape"]
    if not isinstance(shape, list) \
            or not all(type(n) is int and n >= 0 for n in shape):
        raise ProtocolError(f"bad array shape {shape!r}")
    return dtype, shape, dtype.itemsize * math.prod(shape)


def decode_body(body: bytes) -> dict:
    """The message in one frame body (see the module docstring)."""
    try:
        return _decode_frame(body)
    except RecursionError:
        raise ProtocolError("frame header nests too deeply") from None


def _decode_frame(body: bytes) -> dict:
    if len(body) < _HEADER.size:
        raise ProtocolError("frame body shorter than its header length")
    (header_length,) = _HEADER.unpack_from(body)
    offset = _HEADER.size + header_length
    if offset > len(body):
        raise ProtocolError(
            f"header length {header_length} runs past the "
            f"{len(body)}-byte body")
    try:
        message = json.loads(body[_HEADER.size:offset])
    except ValueError as exc:
        raise ProtocolError(f"bad JSON header: {exc}") from None
    if not isinstance(message, dict):
        raise ProtocolError("frame header is not a JSON object")
    layout = []
    for spec in _array_envelopes(message):
        dtype, shape, nbytes = _array_layout(spec)
        if offset + nbytes > len(body):
            raise ProtocolError("array runs past the frame")
        layout.append((dtype, shape, offset))
        offset += nbytes
    if offset != len(body):
        raise ProtocolError(
            f"{len(body) - offset} bytes left over after the last array")
    try:
        arrays = [np.frombuffer(body, dtype, math.prod(shape), start)
                  .reshape(shape).copy()
                  for dtype, shape, start in layout]
    except ValueError as exc:  # e.g. more than numpy's 64 dimensions
        raise ProtocolError(f"bad array envelope: {exc}") from None
    return _decode_value(message, iter(arrays))


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
    header = _recv_exact(sock, _HEADER.size)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
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
    prefixed) rather than base64-encoded for speed.
    """
    hasher = hashlib.sha256()

    def feed(value: Any) -> None:
        if isinstance(value, np.ndarray):
            data = np.ascontiguousarray(value)
            hasher.update(f"nd:{data.dtype.str}:{data.shape}".encode())
            hasher.update(data.tobytes())
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
