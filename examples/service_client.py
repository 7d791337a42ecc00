"""Submit kernels to the compile/simulate service and ride its retries.

The service (``repro.service``) turns the in-process pipeline into a
shared long-lived resource: one server owns a pool of workers and the
kernel store; many clients submit (accelerator config, kernel, shape,
inputs) and get back PerfCounters + outputs bit-identical to a local
run.  This example shows the client-side ladder end to end:

1. start a tiny server in-process (one worker, a two-slot queue);
2. submit a matmul and a conv and check the results;
3. saturate the queue so a submit is shed with a structured ``BUSY``
   + ``retry_after_s``, and watch the client's seeded backoff absorb
   it transparently;
4. read the ``health`` RPC: queue depth, counters, injected faults.

Run:  python examples/service_client.py
"""

import threading

import numpy as np

from repro.service import BackoffSchedule, ServiceClient, ServiceServer

# -- 1. A deliberately tiny server ----------------------------------------
# One worker and a short queue make backpressure easy to demonstrate;
# production-shaped deployments run `python -m repro.service` with the
# REPRO_SERVICE_* knobs instead.
server = ServiceServer(workers=1, queue_max=2).start()
print(f"server: {server.address} ({server.workers} worker)")

client = ServiceClient(server.address, seed=7)

# -- 2. A matmul and a conv over the wire ---------------------------------
rng = np.random.default_rng(0)
a = rng.integers(-8, 8, (16, 8)).astype(np.int32)
b = rng.integers(-8, 8, (8, 12)).astype(np.int32)
counters, product = client.matmul(a, b, size=4, version=1, flow="Ns")
assert np.array_equal(product, a @ b)
print(f"matmul:  {counters.task_clock_ms():.3f} ms task-clock, "
      f"output {product.shape} verified")

image = rng.integers(-4, 4, (1, 2, 8, 8)).astype(np.int32)
weights = rng.integers(-4, 4, (3, 2, 3, 3)).astype(np.int32)
counters, feature_map = client.conv(image, weights)
print(f"conv:    {counters.task_clock_ms():.3f} ms task-clock, "
      f"output {feature_map.shape}")

# -- 3. Backpressure + retry ----------------------------------------------
# Flood the one-worker server from background threads until the
# admission queue fills; the client's submit() retries BUSY responses
# with the server's retry_after hint plus seeded jitter, so every
# request still completes.
shapes = [(16, 8, 12), (24, 8, 8), (16, 16, 8), (8, 8, 24), (32, 8, 8)]


def submit_one(m, k, n, results, index):
    left = rng_pool[index].integers(-8, 8, (m, k)).astype(np.int32)
    right = rng_pool[index].integers(-8, 8, (k, n)).astype(np.int32)
    with ServiceClient(server.address, seed=index) as flood_client:
        _, out = flood_client.matmul(left, right, size=4, version=1,
                                     flow="Ns")
    results[index] = np.array_equal(out, left @ right)


rng_pool = [np.random.default_rng(index) for index in range(len(shapes))]
results = [None] * len(shapes)
threads = [
    threading.Thread(target=submit_one, args=(m, k, n, results, index))
    for index, (m, k, n) in enumerate(shapes)
]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join()
assert all(results), results
health = client.health()
print(f"flood:   {len(shapes)} concurrent submits OK "
      f"({health['counters']['service_shed_busy']} shed BUSY, "
      f"{health['counters']['service_coalesced']} coalesced)")

# The retry schedule itself is deterministic per (seed, site) — the
# same idiom the fault-injection streams use:
schedule = [round(delay, 4) for delay in BackoffSchedule(7, "submit").delays(4)]
print(f"backoff: seed 7 schedule {schedule}")

# -- 4. Observability -----------------------------------------------------
print(f"health:  status={health['status']} "
      f"queue={health['queue_depth']}/{health['queue_max']} "
      f"faults={health['faults'] or 'none'}")

client.close()
summary = server.drain()
print(f"drain:   {summary['counters']['service_ok']} served, "
      f"{summary['counters']['service_workers_merged']} worker "
      f"deltas merged")
