"""The compile/simulate service: protocol, ladder rungs, bit-identity.

The acceptance bar mirrors the rest of the degradation ladder: a
request served over the socket — through admission queues, retries,
coalescing, breakers, worker crashes, and drain — must produce exactly
the PerfCounters and output bytes of a direct in-process call to
``repro.service.worker.run_request``.
"""

import json
import multiprocessing
import os
import socket
import struct
import subprocess
import sys
import time

import numpy as np
import pytest

from repro import counters, faults
from repro.pool import MODEL_PLAN_COUNTERS
from repro.service import (
    SERVICE_COUNTERS,
    BackoffSchedule,
    CircuitBreaker,
    ServiceBusy,
    ServiceClient,
    ServiceServer,
    ServiceShuttingDown,
    ServiceTimeout,
    WorkerCrashed,
    errors,
)
from repro.service import protocol
from repro.service.worker import run_request
from repro.soc import PerfCounters

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


pytestmark = pytest.mark.usefixtures("clean_service_env")


def matmul_spec(m=8, n=8, k=8, seed=0, size=4, version=1, flow="Ns"):
    rng = np.random.default_rng(seed)
    return {
        "kind": "matmul", "m": m, "n": n, "k": k,
        "size": size, "version": version, "flow": flow,
        "inputs": [rng.integers(-8, 8, (m, k)).astype(np.int32),
                   rng.integers(-8, 8, (k, n)).astype(np.int32)],
    }


def conv_spec(batch=1, in_ch=2, in_hw=8, out_ch=3, f_hw=3, seed=0):
    rng = np.random.default_rng(seed)
    return {
        "kind": "conv", "batch": batch, "in_ch": in_ch, "in_hw": in_hw,
        "out_ch": out_ch, "f_hw": f_hw, "stride": 1,
        "inputs": [
            rng.integers(-4, 4, (batch, in_ch, in_hw, in_hw))
            .astype(np.int32),
            rng.integers(-4, 4, (out_ch, in_ch, f_hw, f_hw))
            .astype(np.int32),
        ],
    }


def result_tuple(counters, output):
    return counters.as_dict(), output.tobytes()


def frame_body(manifest, tail: bytes = b"") -> bytes:
    """A frame body laid out by hand: manifest length, manifest (a dict
    is JSON-encoded), tail."""
    if isinstance(manifest, dict):
        manifest = json.dumps(manifest).encode()
    return struct.pack(">I", len(manifest)) + manifest + tail


def message_manifest(field, node, arrays=(), size=0) -> dict:
    """The manifest of ``{field: <node>}`` over an array table."""
    return {"payload": ["d", [[field, node]]], "arrays": list(arrays),
            "size": size}


def array_manifest(dtype, shape, size) -> dict:
    """The manifest of ``{"a": <one array>}`` at segment offset 0."""
    return message_manifest("a", ["nd", 0], [[dtype, shape, 0]], size)


def socket_inodes(pid) -> set:
    """Inodes of the sockets process ``pid`` (or ``"self"``) holds."""
    inodes = set()
    for fd in os.listdir(f"/proc/{pid}/fd"):
        try:
            target = os.readlink(f"/proc/{pid}/fd/{fd}")
        except OSError:
            continue  # closed while we listed
        if target.startswith("socket:["):
            inodes.add(int(target[len("socket:["):-1]))
    return inodes


# -- wire protocol ----------------------------------------------------------

class TestProtocol:
    def test_array_roundtrip_bit_identical(self):
        rng = np.random.default_rng(0)
        array = rng.integers(-1000, 1000, (7, 5)).astype(np.int32)
        frame = protocol.encode_message({"x": array})
        decoded = protocol.decode_body(frame[4:])
        assert decoded["x"].dtype == array.dtype
        assert decoded["x"].tobytes() == array.tobytes()

    def test_perf_counters_roundtrip_bit_identical(self):
        counters = PerfCounters(cpu_cycles=1234.5678901234567,
                                stall_cycles=0.1 + 0.2,
                                elapsed_seconds=1e-9,
                                dma_transactions=42)
        frame = protocol.encode_message({"c": counters})
        decoded = protocol.decode_body(frame[4:])["c"]
        assert isinstance(decoded, PerfCounters)
        assert vars(decoded) == vars(counters)

    def test_unknown_perf_field_rejected(self):
        body = frame_body(message_manifest(
            "c", ["o", "PerfCounters", [["not_a_field", 1]]]))
        with pytest.raises(errors.ProtocolError, match="not_a_field"):
            protocol.decode_body(body)

    def test_bad_json_rejected(self):
        with pytest.raises(errors.ProtocolError, match="JSON"):
            protocol.decode_body(frame_body(b"\xff not json"))

    @pytest.mark.parametrize("array", [
        np.array(7, dtype=np.int32),                       # 0-d
        np.zeros((0, 3), dtype=np.int32),                  # zero-size
        np.arange(-6, 6, dtype=np.int64).reshape(3, 4),
        np.linspace(-1.0, 1.0, 9) / 3.0,                   # float64
        np.arange(40, dtype=np.int32).reshape(5, 8)[::2, 1::3],
    ], ids=["0d", "zero-size", "int64", "float64", "non-contiguous"])
    def test_array_kinds_roundtrip(self, array):
        frame = protocol.encode_message({"a": array, "list": [array, 1]})
        decoded = protocol.decode_body(frame[4:])
        for copy in (decoded["a"], decoded["list"][0]):
            assert (copy.dtype, copy.shape) == (array.dtype, array.shape)
            assert copy.tobytes() == np.ascontiguousarray(array).tobytes()
            assert copy.flags.writeable
        assert not np.shares_memory(decoded["a"], decoded["list"][0])

    def test_arrays_ride_as_raw_bytes(self):
        """Two 128x128 int32 operands cost their 131,072 raw bytes plus
        a small header; base64 inside JSON made the same submit
        174,764 bytes of array text alone."""
        block = np.ones((128, 128), dtype=np.int32)
        spec = dict(matmul_spec(m=128, n=128, k=128),
                    inputs=[block, block * 2])
        frame = protocol.encode_message(
            {"op": "submit", "request_id": "r" * 32, "spec": spec})
        assert len(frame) <= 2 * block.nbytes + 2048
        assert frame.endswith(block.tobytes() + (block * 2).tobytes())

    @pytest.mark.parametrize("body, match", [
        (struct.pack(">I", 64) + b"{}", "runs past"),
        (frame_body(array_manifest("|O", [1], 8), bytes(8)), "dtype"),
        (frame_body(array_manifest("|V0", [1], 0)), "dtype"),
        (frame_body(array_manifest("<i4", [-1], 0)), "shape"),
        (frame_body(array_manifest("<i4", [1.0], 8), bytes(8)), "shape"),
        (frame_body(array_manifest("<i4", 1, 8), bytes(8)), "shape"),
        # A shape no process could allocate: refused from its layout.
        (frame_body(array_manifest("<i4", [1099511627776], 16),
                    bytes(16)), "past the segment"),
        (frame_body(array_manifest("<i4", [2], 8), bytes(9)), "left over"),
        (frame_body(message_manifest("a", 1), b"x"), "left over"),
        (frame_body(message_manifest("a", {"__nd__": {
            "dtype": "<i4", "shape": [1], "data": "AAAAAA=="}})),
         "codec node"),
        # Both used to escape as non-protocol errors and kill the
        # connection's reader thread with a traceback.
        (frame_body(b'{"payload": ' + b'["l", [' * 900 + b"]]" * 900
                    + b', "arrays": [], "size": 0}'), "deep"),
        (frame_body(message_manifest("c", ["o", "PerfCounters", [1]])),
         "PerfCounters"),
    ], ids=["header-past-body", "object-dtype", "zero-itemsize",
            "negative-dim", "float-dim", "shape-not-list", "huge-array",
            "trailing-bytes", "trailing-bytes-no-array", "base64-envelope",
            "deep-nesting", "perf-not-object"])
    def test_malformed_frame_rejected(self, body, match):
        with pytest.raises(errors.ProtocolError, match=match):
            protocol.decode_body(body)

    def test_oversized_frame_rejected(self):
        header = struct.pack(">I", protocol.MAX_FRAME_BYTES + 1)

        class FakeSock:
            def __init__(self):
                self.data = header

            def recv(self, n):
                chunk, self.data = self.data[:n], self.data[n:]
                return chunk

        with pytest.raises(errors.ProtocolError, match="announced"):
            protocol.recv_message(FakeSock())

    def test_spec_digest_keys_on_content(self):
        spec_a = matmul_spec(seed=1)
        spec_b = matmul_spec(seed=1)
        spec_c = matmul_spec(seed=2)
        assert protocol.canonical_spec_digest(spec_a) \
            == protocol.canonical_spec_digest(spec_b)
        assert protocol.canonical_spec_digest(spec_a) \
            != protocol.canonical_spec_digest(spec_c)


class TestRequestValidation:
    @pytest.mark.parametrize("kind, field, value", [
        ("conv", "stride", 1.7),       # was served as stride 1
        ("conv", "stride", None),
        ("conv", "max_slice", "big"),  # reached the C decoder's ctypes call
        ("conv", "max_slice", 0),
        ("conv", "max_slice", -3),
        ("matmul", "m", -8),
        ("matmul", "size", 0),
    ])
    def test_out_of_range_numeric_field_is_a_bad_request(self, kind, field,
                                                         value):
        from repro.service.worker import execute_job

        spec = matmul_spec() if kind == "matmul" else conv_spec()
        spec[field] = value
        reply = execute_job({"spec": spec})
        assert (reply["ok"], reply["code"]) == (False, errors.BAD_REQUEST), \
            reply["message"]
        assert field in reply["message"]

    @pytest.mark.parametrize("kind, field, value", [
        ("matmul", "specialized", "false"),  # bool("false") ran specialized
        ("matmul", "cpu_tiling", 0),
        ("conv", "specialized", "no"),
        ("matmul", "inputs", [np.full((8, 8), 1.7)] * 2),  # ran as 1
        ("matmul", "accel_size", "abc"),     # INTERNAL with a traceback
        ("matmul", "accel_size", [4, 4]),
        ("matmul", "accel_size", [4, 4, 0]),
        ("matmul", "permutation", "xyz"),
        ("matmul", "permutation", [1, 2, 3]),
        ("matmul", "permutation", ["m", "n", "n"]),
        ("conv", "permutation", ["m", "n", "k"]),  # was silently ignored
    ])
    def test_mistyped_field_is_a_bad_request(self, kind, field, value):
        from repro.service.worker import execute_job

        spec = matmul_spec() if kind == "matmul" else conv_spec()
        spec[field] = value
        reply = execute_job({"spec": spec})
        assert (reply["ok"], reply.get("code")) \
            == (False, errors.BAD_REQUEST), reply.get("message")
        assert field in reply["message"]


# -- seeded backoff (satellite: retry-schedule determinism) -----------------

class TestBackoffDeterminism:
    def test_same_seed_same_site_same_schedule(self):
        first = list(BackoffSchedule(7, "submit").delays(8))
        second = list(BackoffSchedule(7, "submit").delays(8))
        assert first == second  # exact float equality, across instances

    def test_different_seed_different_schedule(self):
        assert list(BackoffSchedule(7, "submit").delays(8)) \
            != list(BackoffSchedule(8, "submit").delays(8))

    def test_different_site_different_schedule(self):
        assert list(BackoffSchedule(7, "submit").delays(8)) \
            != list(BackoffSchedule(7, "health").delays(8))

    def test_jitter_and_cap_bounds(self):
        schedule = BackoffSchedule(3, "submit", base=0.05, factor=2.0,
                                   max_delay=2.0, jitter=0.5)
        for attempt, delay in enumerate(schedule.delays(12)):
            floor = min(0.05 * 2.0 ** attempt, 2.0)
            assert floor <= delay <= floor * 1.5

    def test_client_uses_schedule_between_retries(self, monkeypatch):
        """The sleeps a retrying client performs are exactly the seeded
        schedule — pinned against a stub server that sheds then serves."""
        import socket as socket_mod
        import tempfile
        import threading

        path = os.path.join(tempfile.mkdtemp(), "stub.sock")
        listener = socket_mod.socket(socket_mod.AF_UNIX,
                                     socket_mod.SOCK_STREAM)
        listener.bind(path)
        listener.listen(4)

        def stub():
            conn, _ = listener.accept()
            for attempt in range(3):
                msg = protocol.recv_message(conn)
                if attempt < 2:
                    protocol.send_message(conn, {
                        "request_id": msg["request_id"],
                        "status": "error", "code": errors.BUSY,
                        "message": "shed",
                    })
                else:
                    protocol.send_message(conn, {
                        "request_id": msg["request_id"],
                        "status": "ok", "echo": True,
                    })
            conn.close()

        thread = threading.Thread(target=stub, daemon=True)
        thread.start()
        slept = []
        client = ServiceClient(path, seed=5, max_attempts=4,
                               sleep=slept.append)
        reply = client._call({"op": "submit", "request_id": "r",
                              "spec": {}}, site="submit")
        client.close()
        thread.join(timeout=5)
        assert reply["echo"] is True
        assert slept == list(BackoffSchedule(5, "submit").delays(2))

    def test_lost_response_times_out_and_retries_same_request_id(self):
        """A server that swallows a response (the ``service.rpc:io``
        failure mode) must not wedge the client: the recv times out,
        the client reconnects, and the retry carries the *same*
        request_id so the server can serve it idempotently."""
        import socket as socket_mod
        import tempfile
        import threading

        path = os.path.join(tempfile.mkdtemp(), "stub.sock")
        listener = socket_mod.socket(socket_mod.AF_UNIX,
                                     socket_mod.SOCK_STREAM)
        listener.bind(path)
        listener.listen(4)
        seen_ids = []

        def stub():
            # First connection: read the request, never respond.
            conn, _ = listener.accept()
            seen_ids.append(protocol.recv_message(conn)["request_id"])
            # Second connection (client reconnected after recv timeout).
            conn2, _ = listener.accept()
            msg = protocol.recv_message(conn2)
            seen_ids.append(msg["request_id"])
            protocol.send_message(conn2, {
                "request_id": msg["request_id"],
                "status": "ok", "echo": True,
            })
            conn.close()
            conn2.close()

        thread = threading.Thread(target=stub, daemon=True)
        thread.start()
        slept = []
        client = ServiceClient(path, seed=5, max_attempts=3,
                               response_timeout_s=0.2,
                               sleep=slept.append)
        reply = client.submit({"kind": "noop"}, request_id="stable-id")
        client.close()
        thread.join(timeout=5)
        assert reply["echo"] is True
        assert seen_ids == ["stable-id", "stable-id"]
        assert len(slept) == 1  # one backoff between the two attempts


# -- circuit breaker state machine ------------------------------------------

class TestCircuitBreaker:
    def test_trips_after_threshold_consecutive_failures(self):
        breaker = CircuitBreaker("b", threshold=3, cooldown_s=60)
        for _ in range(2):
            breaker.record(ok=False)
        assert breaker.allow()["enabled"]
        breaker.record(ok=False)
        assert breaker.state == "open"
        assert not breaker.allow()["enabled"]
        assert breaker.snapshot()["trips"] == 1

    def test_success_resets_the_count(self):
        breaker = CircuitBreaker("b", threshold=2, cooldown_s=60)
        breaker.record(ok=False)
        breaker.record(ok=True)
        breaker.record(ok=False)
        assert breaker.state == "closed"

    def test_half_open_single_probe_then_close(self):
        breaker = CircuitBreaker("b", threshold=1, cooldown_s=0.0)
        breaker.record(ok=False)
        first = breaker.allow()
        assert first == {"enabled": True, "probe": True}
        # Only one probe at a time; the next request stays degraded.
        assert breaker.allow() == {"enabled": False, "probe": False}
        breaker.record(ok=True, probe=True)
        assert breaker.state == "closed"
        assert breaker.allow() == {"enabled": True, "probe": False}

    def test_failed_probe_reopens(self):
        breaker = CircuitBreaker("b", threshold=1, cooldown_s=0.0)
        breaker.record(ok=False)
        assert breaker.allow()["probe"]
        breaker.record(ok=False, probe=True)
        assert breaker.snapshot()["trips"] == 2


# -- server integration -----------------------------------------------------

class TestService:
    def test_matmul_and_conv_bit_identical_to_direct(self):
        specs = [matmul_spec(seed=3), conv_spec(seed=4)]
        direct = [result_tuple(*run_request(dict(s))) for s in specs]
        server = ServiceServer(workers=2, queue_max=8).start()
        try:
            with ServiceClient(server.address) as client:
                for spec, expected in zip(specs, direct):
                    reply = client.submit(spec)
                    assert result_tuple(reply["counters"],
                                        reply["output"]) == expected
        finally:
            server.drain()

    def test_drain_removes_the_socket_directory(self, monkeypatch):
        import shutil
        import tempfile
        from pathlib import Path

        # Its own temp dir, short enough for a Unix socket path.
        private = Path(tempfile.mkdtemp(prefix="svc-"))
        monkeypatch.setattr(tempfile, "tempdir", str(private))
        try:
            server = ServiceServer(workers=1, queue_max=4).start()
            assert server.address.startswith(str(private))
            server.drain()
            assert not list(private.glob("repro-service-*"))
        finally:
            shutil.rmtree(private)

    def test_busy_shed_carries_retry_after(self, monkeypatch):
        server = ServiceServer(workers=1, queue_max=4).start()
        try:
            monkeypatch.setenv("REPRO_FAULTS", "service.queue:full")
            with ServiceClient(server.address, max_attempts=1) as client:
                with pytest.raises(ServiceBusy) as excinfo:
                    client.submit(matmul_spec())
            assert excinfo.value.retry_after_s > 0
            assert SERVICE_COUNTERS["service_shed_busy"] == 1
        finally:
            monkeypatch.delenv("REPRO_FAULTS")
            server.drain()

    def test_retry_absorbs_probabilistic_shedding(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "service.queue:full@0.5")
        monkeypatch.setenv("REPRO_FAULTS_SEED", "0")
        server = ServiceServer(workers=1, queue_max=4).start()
        try:
            slept = []
            with ServiceClient(server.address, seed=2, max_attempts=10,
                               sleep=slept.append) as client:
                reply = client.submit(matmul_spec(seed=9))
            assert reply["status"] == "ok"
            seen = counters.read(SERVICE_COUNTERS)
            # The seeded queue stream shed at least one admission, and
            # every shed produced one client-side backoff sleep.
            assert seen["service_shed_busy"] >= 1
            assert len(slept) == seen["service_shed_busy"]
        finally:
            server.drain()

    def test_deadline_timeout_is_structured(self):
        server = ServiceServer(workers=1, queue_max=4).start()
        try:
            with ServiceClient(server.address, max_attempts=1) as client:
                with pytest.raises(ServiceTimeout):
                    client.submit(matmul_spec(m=32, n=32, k=32),
                                  deadline_s=1e-6)
            assert SERVICE_COUNTERS["service_timeouts"] >= 1
        finally:
            server.drain()

    def test_bad_request_is_not_retried(self):
        server = ServiceServer(workers=1, queue_max=4).start()
        try:
            slept = []
            with ServiceClient(server.address, max_attempts=5,
                               sleep=slept.append) as client:
                with pytest.raises(errors.BadRequest):
                    client.submit({"kind": "fft", "inputs": []})
                spec = matmul_spec()
                spec["inputs"] = [spec["inputs"][0]]
                with pytest.raises(errors.BadRequest):
                    client.submit(spec)
            assert slept == []  # BAD_REQUEST must fail fast
        finally:
            server.drain()

    def test_idempotent_request_id_returns_cached_response(self):
        server = ServiceServer(workers=1, queue_max=4).start()
        try:
            with ServiceClient(server.address) as client:
                spec = matmul_spec(seed=5)
                first = client.submit(spec, request_id="req-1")
                replay = client.submit(matmul_spec(seed=6),
                                       request_id="req-1")
            # Same request_id → the cached response, even though the
            # replayed submit carried a different spec (lost-response
            # retries resend the same id, never a new computation).
            assert replay.get("idempotent") is True
            assert result_tuple(replay["counters"], replay["output"]) \
                == result_tuple(first["counters"], first["output"])
            assert SERVICE_COUNTERS["service_idempotent_hits"] == 1
        finally:
            server.drain()

    def test_single_flight_coalesces_identical_inflight(self, monkeypatch):
        import threading

        # Per tile, the blocker holds the one worker for ~0.2 s.  A warm
        # replay of it takes about a millisecond and could finish before
        # the probe below ever sees it executing.
        monkeypatch.setenv("REPRO_NO_TRACE", "1")
        server = ServiceServer(workers=1, queue_max=8).start()
        try:
            blocker = matmul_spec(m=64, n=64, k=64, seed=7)
            shared = matmul_spec(seed=8)
            results = []

            def submit(spec):
                with ServiceClient(server.address) as client:
                    reply = client.submit(spec)
                    results.append(result_tuple(reply["counters"],
                                                reply["output"]))

            threads = [threading.Thread(target=submit, args=(blocker,))]
            threads[0].start()
            with ServiceClient(server.address) as probe:
                while probe.health()["executing"] == 0:
                    time.sleep(0.005)
                # Worker busy: both identical submits are now queued
                # together, so the second must coalesce onto the first.
                for _ in range(2):
                    threads.append(threading.Thread(target=submit,
                                                    args=(shared,)))
                    threads[-1].start()
                    while True:
                        health = probe.health()
                        if health["queue_depth"] >= 1 or \
                                health["counters"]["service_coalesced"]:
                            break
                        time.sleep(0.005)
            for thread in threads:
                thread.join(timeout=60)
            assert len(results) == 3
            assert SERVICE_COUNTERS["service_coalesced"] >= 1
            direct = result_tuple(*run_request(dict(shared)))
            assert sum(r == direct for r in results) == 2
        finally:
            server.drain()

    def test_worker_crash_exhausts_requeues_then_recovers(
            self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "service.worker:crash")
        server = ServiceServer(workers=1, queue_max=4).start()
        try:
            with ServiceClient(server.address, max_attempts=1) as client:
                with pytest.raises(WorkerCrashed):
                    client.submit(matmul_spec(seed=11))
            seen = counters.read(SERVICE_COUNTERS)
            assert seen["service_worker_crashes"] == 3
            assert seen["service_requeues"] == 2
            # Every crash restarts the slot eagerly — including the
            # last one, so the pool never sits with a dead slot.
            assert seen["service_worker_restarts"] == 3
            # Fault lifted.  The eagerly-restarted slot was forked
            # *before* the env change, so it still carries the crash
            # fault and dies once more; its replacement (forked after)
            # runs clean and the requeued request succeeds.
            monkeypatch.delenv("REPRO_FAULTS")
            faults.reset_faults()
            spec = matmul_spec(seed=12)
            with ServiceClient(server.address) as client:
                reply = client.submit(spec)
            assert result_tuple(reply["counters"], reply["output"]) \
                == result_tuple(*run_request(dict(spec)))
            assert SERVICE_COUNTERS["service_worker_restarts"] == 4
        finally:
            server.drain()

    def test_killed_worker_is_detected_and_request_requeued(self):
        server = ServiceServer(workers=1, queue_max=4).start()
        try:
            handle = server._handles[0]
            if handle is None:
                pytest.skip("no fork: workers run inline")
            handle.process.kill()
            handle.process.join(timeout=5)
            spec = matmul_spec(seed=13)
            with ServiceClient(server.address) as client:
                reply = client.submit(spec)
            assert result_tuple(reply["counters"], reply["output"]) \
                == result_tuple(*run_request(dict(spec)))
            seen = counters.read(SERVICE_COUNTERS)
            assert seen["service_worker_crashes"] == 1
            assert seen["service_requeues"] == 1
            assert seen["service_worker_restarts"] == 1
        finally:
            server.drain()

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="needs /proc")
    def test_restarted_worker_holds_no_server_socket(self):
        """A worker forked while a client is connected keeps neither the
        listener nor that connection open, so a connection the server
        drops reads EOF at once, not when the worker exits."""
        server = ServiceServer(workers=1, queue_max=4).start()
        client = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            if server._handles[0] is None:
                pytest.skip("no fork: workers run inline")
            before = socket_inodes("self")
            client.connect(server.address)
            protocol.send_message(client, {"op": "health"})
            assert protocol.recv_message(client)["status"] == "ok"
            server_side = socket_inodes("self") - before \
                - {os.fstat(client.fileno()).st_ino}
            assert len(server_side) == 1
            server._pool.restart(0)
            # A served request proves the new worker is past its fork.
            protocol.send_message(client, {
                "op": "submit", "request_id": "r", "spec": matmul_spec()})
            assert protocol.recv_message(client)["status"] == "ok"
            held = socket_inodes(server._handles[0].process.pid)
            listener = os.fstat(server._listener.fileno()).st_ino
            assert not held & (server_side | {listener})
            # A frame the server cannot parse makes it drop the client.
            client.sendall(struct.pack(">I", 4) + b"\xff" * 4)
            client.settimeout(5.0)
            assert client.recv(1) == b""
        finally:
            client.close()
            server.drain()

    def test_store_breaker_trips_on_injected_store_failures(
            self, monkeypatch, tmp_path):
        from repro.compiler import default_kernel_cache

        # Forked workers inherit the process-wide memory cache; clear
        # it so each request actually compiles and publishes (and so
        # the injected write failures actually happen).
        default_kernel_cache().clear()
        monkeypatch.setenv("REPRO_KERNEL_CACHE_DIR", str(tmp_path / "s"))
        monkeypatch.setenv("REPRO_FAULTS", "store.write:io")
        server = ServiceServer(workers=1, queue_max=8,
                               breaker_threshold=2,
                               breaker_cooldown_s=60.0).start()
        try:
            with ServiceClient(server.address) as client:
                # Distinct shapes: every request compiles fresh and
                # attempts (and fails) a store publish.
                for seed, m in ((1, 8), (2, 12)):
                    client.submit(matmul_spec(m=m, seed=seed))
                health = client.health()
                assert health["breakers"]["store"]["state"] == "open"
                assert health["breakers"]["store"]["trips"] == 1
                # Open breaker: requests run store-suspended (and still
                # succeed bit-identically).
                spec = matmul_spec(m=16, seed=3)
                reply = client.submit(spec)
                assert client.health()["breakers"]["store"]["state"] \
                    == "open"
            monkeypatch.delenv("REPRO_FAULTS")
            monkeypatch.delenv("REPRO_KERNEL_CACHE_DIR")
            faults.reset_faults()
            assert result_tuple(reply["counters"], reply["output"]) \
                == result_tuple(*run_request(dict(spec)))
        finally:
            server.drain()

    def test_drain_merges_worker_deltas_and_refuses_new_work(self):
        workers_before = MODEL_PLAN_COUNTERS.get("model_plan_workers", 0)
        server = ServiceServer(workers=2, queue_max=8).start()
        spec = matmul_spec(seed=14)
        with ServiceClient(server.address) as client:
            client.submit(spec)
        # Draining: in-flight work finishes, then submits are refused.
        server._draining = True
        with ServiceClient(server.address, max_attempts=1) as client:
            with pytest.raises(ServiceShuttingDown):
                client.submit(matmul_spec(seed=15))
        summary = server.drain()
        assert summary["counters"]["service_workers_merged"] == 2
        assert MODEL_PLAN_COUNTERS["model_plan_workers"] \
            == workers_before + 2
        # The socket is gone: connecting is a hard error, not a hang.
        with pytest.raises((OSError, errors.InternalServiceError)):
            with ServiceClient(server.address, max_attempts=2,
                               sleep=lambda _s: None) as client:
                client.submit(matmul_spec(seed=16))

    def test_idle_server_drains_promptly(self):
        """Closing the listener must wake the thread parked in
        accept(); drain used to sit out its whole 5 s join timeout."""
        server = ServiceServer(workers=1, queue_max=4).start()
        acceptor = server._threads[-1]
        assert acceptor.name == "service-accept"
        start = time.monotonic()
        summary = server.drain()
        elapsed = time.monotonic() - start
        assert elapsed < 1.0, f"idle drain took {elapsed:.2f} s"
        assert not acceptor.is_alive()
        assert summary["queued"] == 0 and summary["executing"] == 0

    def test_health_reports_queue_breakers_and_faults(self):
        server = ServiceServer(workers=1, queue_max=4).start()
        try:
            with ServiceClient(server.address) as client:
                client.submit(matmul_spec(seed=17))
                health = client.health()
                stats = client.stats()
            assert health["status"] == "ok"
            assert health["queue_max"] == 4
            assert set(health["breakers"]) == {"store", "native"}
            assert health["counters"]["service_requests"] == 1
            assert "service" in stats["diagnostics"]
            assert stats["diagnostics"]["service"][
                "service_requests"] == 1
        finally:
            server.drain()


class TestNoForkRung:
    """Platforms without fork: dispatchers run jobs in their own thread.

    Same handler, same seam evidence (``repro.pool.run_seamed``) as the
    forked workers — so results are bit-identical and the breakers see
    what they would have seen."""

    @pytest.fixture(autouse=True)
    def _no_fork(self, monkeypatch):
        from repro import pool

        monkeypatch.setattr(pool, "fork_available", lambda: False)

    def test_bit_identical_and_counters_advance_directly(self):
        from repro.execution import METRICS_PLAN_COUNTERS

        specs = [matmul_spec(m=8, seed=31), conv_spec(seed=32)]
        direct = [result_tuple(*run_request(dict(s))) for s in specs]
        workers_before = MODEL_PLAN_COUNTERS["model_plan_workers"]
        served_before = METRICS_PLAN_COUNTERS["metrics_plan_hits"] \
            + METRICS_PLAN_COUNTERS["metrics_plan_misses"]
        server = ServiceServer(workers=2, queue_max=8).start()
        try:
            assert server._handles == [None, None]
            with ServiceClient(server.address) as client:
                for spec, expected in zip(specs, direct):
                    reply = client.submit(spec)
                    assert reply["worker"] == -1
                    assert result_tuple(reply["counters"],
                                        reply["output"]) == expected
        finally:
            summary = server.drain()
        # The work was counted where it ran; there was no delta to merge.
        assert METRICS_PLAN_COUNTERS["metrics_plan_hits"] \
            + METRICS_PLAN_COUNTERS["metrics_plan_misses"] \
            >= served_before + len(specs)
        assert summary["counters"]["service_workers_merged"] == 0
        assert MODEL_PLAN_COUNTERS["model_plan_workers"] == workers_before

    def test_store_breaker_opens_on_injected_write_failures(
            self, monkeypatch, tmp_path):
        from repro.compiler import default_kernel_cache

        default_kernel_cache().clear()
        monkeypatch.setenv("REPRO_KERNEL_CACHE_DIR", str(tmp_path / "s"))
        monkeypatch.setenv("REPRO_FAULTS", "store.write:io")
        server = ServiceServer(workers=1, queue_max=8,
                               breaker_threshold=2,
                               breaker_cooldown_s=60.0).start()
        try:
            with ServiceClient(server.address) as client:
                for seed, m in ((1, 8), (2, 12)):
                    client.submit(matmul_spec(m=m, seed=seed))
                breaker = client.health()["breakers"]["store"]
                assert (breaker["state"], breaker["trips"]) == ("open", 1)
                spec = matmul_spec(m=16, seed=3)
                reply = client.submit(spec)
            monkeypatch.delenv("REPRO_FAULTS")
            monkeypatch.delenv("REPRO_KERNEL_CACHE_DIR")
            faults.reset_faults()
            assert result_tuple(reply["counters"], reply["output"]) \
                == result_tuple(*run_request(dict(spec)))
        finally:
            server.drain()


# -- multi-client stress: the acceptance criterion --------------------------

STRESS_SPECS = [
    ("matmul", dict(m=8, n=8, k=8, seed=21)),
    ("matmul", dict(m=16, n=8, k=8, seed=22)),
    ("matmul", dict(m=8, n=16, k=8, seed=23, version=2, flow="As")),
    ("conv", dict(seed=24)),
    ("conv", dict(in_ch=3, seed=25)),
    ("matmul", dict(m=12, n=12, k=8, seed=26)),
]


def build_spec(kind, params):
    return matmul_spec(**params) if kind == "matmul" \
        else conv_spec(**params)


def _stress_client(address, client_index, n_requests, queue):
    try:
        with ServiceClient(address, seed=client_index,
                           max_attempts=12) as client:
            for i in range(n_requests):
                spec_index = (client_index + i) % len(STRESS_SPECS)
                spec = build_spec(*STRESS_SPECS[spec_index])
                reply = client.submit(spec, deadline_s=120.0)
                queue.put((spec_index,
                           reply["counters"].as_dict(),
                           reply["output"].tobytes()))
    except BaseException as exc:  # noqa: BLE001 - reported to parent
        queue.put(("error", repr(exc), None))


def _run_stress(n_clients, n_requests, server_kwargs):
    """Fork N client processes against one in-process server; returns
    the list of (spec_index, counters_dict, output_bytes) results."""
    server = ServiceServer(**server_kwargs).start()
    context = multiprocessing.get_context("fork")
    queue = context.Queue()
    clients = [
        context.Process(target=_stress_client,
                        args=(server.address, index, n_requests, queue))
        for index in range(n_clients)
    ]
    try:
        for process in clients:
            process.start()
        results = []
        for _ in range(n_clients * n_requests):
            results.append(queue.get(timeout=300))
        for process in clients:
            process.join(timeout=30)
    finally:
        summary = server.drain()
    failures = [r for r in results if r[0] == "error"]
    assert not failures, failures
    return results, summary


class TestMultiClientStress:
    @pytest.fixture(scope="class")
    def direct_baselines(self):
        """Direct in-process execution of every stress spec — computed
        with ambient faults stripped (the class also runs on the CI
        chaos leg, where results must match these bit-for-bit)."""
        ambient = {name: os.environ.pop(name, None)
                   for name in ("REPRO_FAULTS", "REPRO_FAULTS_SEED")}
        faults.reset_faults()
        try:
            return [result_tuple(*run_request(build_spec(kind, params)))
                    for kind, params in STRESS_SPECS]
        finally:
            for name, value in ambient.items():
                if value is not None:
                    os.environ[name] = value

    def test_stress_clean_bit_identity(self, direct_baselines):
        results, summary = _run_stress(
            n_clients=4, n_requests=3,
            server_kwargs=dict(workers=2, queue_max=16))
        assert len(results) == 12
        for spec_index, counters_dict, output_bytes in results:
            assert (counters_dict, output_bytes) \
                == direct_baselines[spec_index]
        assert summary["counters"]["service_workers_merged"] == 2

    def test_stress_chaos_bit_identity(self, direct_baselines,
                                       monkeypatch):
        # The CI chaos profile plus the service sites.  Seed 2 keeps
        # the crash stream's first draws above 0.1: a restarted
        # worker's first job never immediately re-crashes, so every
        # request completes within the requeue budget.  (Each restart
        # re-forks the parent's pristine stream state — a seed whose
        # first draw fired would crash-loop deterministically.)
        monkeypatch.setenv(
            "REPRO_FAULTS",
            "store.read:io@0.2;store.write:io@0.1;"
            "native.compile:fail;"
            "service.worker:crash@0.1;service.queue:full@0.1")
        monkeypatch.setenv("REPRO_FAULTS_SEED", "2")
        faults.reset_faults()
        results, summary = _run_stress(
            n_clients=4, n_requests=3,
            server_kwargs=dict(workers=2, queue_max=16))
        assert len(results) == 12
        for spec_index, counters_dict, output_bytes in results:
            assert (counters_dict, output_bytes) \
                == direct_baselines[spec_index]
        # Every worker still alive at drain reported its delta.
        assert summary["counters"]["service_workers_merged"] == 2


# -- the example script doubles as a subprocess smoke test ------------------

class TestExampleScript:
    def test_service_client_example_runs(self):
        env = dict(os.environ,
                   PYTHONPATH=os.path.join(REPO_ROOT, "src"))
        # The example demonstrates clean-path behavior; scrub the CI
        # chaos leg's ambient faults so its single worker stays up.
        env.pop("REPRO_FAULTS", None)
        env.pop("REPRO_FAULTS_SEED", None)
        result = subprocess.run(
            [sys.executable,
             os.path.join(REPO_ROOT, "examples", "service_client.py")],
            capture_output=True, text=True, timeout=300, env=env,
            cwd=REPO_ROOT,
        )
        assert result.returncode == 0, result.stderr
        for marker in ("matmul:", "conv:", "flood:", "backoff:",
                       "health:", "drain:"):
            assert marker in result.stdout, result.stdout
