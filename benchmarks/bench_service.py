"""Load harness for the resident-network query service (DESIGN.md §8).

Two acceptance criteria of the service layer, asserted directly:

* **Coalescing throughput** — serving concurrent SINR queries against a
  resident n = 20,000 sparse deployment through the batch coalescer is
  at least **5x** the throughput of the uncoalesced baseline, with
  identical responses.  The baseline is an in-process loop of one
  ``B = 1`` masked batched-resolver call per request: the kernel cost
  of serving without the coalescer, with no socket or event loop in
  it.  Coalesced serving is additionally asserted bitwise identical to
  *sequential* single-request serving through the same server — the
  coalescing contract itself.
* **Concurrency soak** — 1,000 simultaneous client connections each
  issuing a query all receive bitwise-correct answers; requests/s and
  p50/p99 latency are recorded.

The server serializes kernel calls through a single worker
(`ServiceServer._kernel_executor`), so both numbers measure batch
efficiency rather than how many cores the host happens to have.

CI uploads the pytest-benchmark JSON as ``BENCH_service.json``
alongside the other ``BENCH_*`` artifacts; the headline numbers also
land in ``extra_info`` so the artifact is self-describing.
"""

import asyncio
import math
import time

import numpy as np
import pytest

from repro.network.network import Network
from repro.service import NetworkPool, ServiceServer, connect
from repro.sinr.reception import (
    NO_SENDER,
    resolve_reception_batch,
    resolve_reception_many,
)
from repro.sysmem import available_memory_bytes

SEED = 2014
N = 20_000
DENSITY = 6.0   # sparse regime: per-request far-field setup dominates
CUTOFF = 1.0

REQUESTS = 256          # concurrent queries in the throughput shootout
TX_PER_REQUEST = 8
THROUGHPUT_FLOOR = 5.0  # coalesced rps >= 5x uncoalesced rps
SOAK_CLIENTS = 1000     # simultaneous connections in the soak
SOAK_CONNECT_WAVE = 100  # connections established per setup wave

needs_memory = pytest.mark.skipif(
    available_memory_bytes() < 2 * 10**9,
    reason="needs ~2 GB available memory for the 20k sparse build",
)


@pytest.fixture(scope="module")
def resident_network():
    """One hot n=20k sparse deployment shared by every load scenario."""
    side = math.sqrt(N / DENSITY)
    coords = np.random.default_rng(SEED).uniform(0, side, size=(N, 2))
    net = Network(coords, name=f"svc-{N}", backend="sparse", cutoff=CUTOFF)
    net.gain_operator  # build outside every timed region
    return net


def _transmitter_sets(count, seed=SEED + 1):
    rng = np.random.default_rng(seed)
    return [
        rng.choice(N, size=TX_PER_REQUEST, replace=False)
        for _ in range(count)
    ]


def _pairs(row):
    """A ``heard`` row in the service's ``[receiver, sender]`` reply form."""
    receivers = np.flatnonzero(row != NO_SENDER)
    return [[int(u), int(row[u])] for u in receivers]


def _expected_receptions(net, sets):
    """Reference replies straight from the serving resolver."""
    heard = resolve_reception_many(
        net.gain_operator, sets, net.params.noise, net.params.beta
    )
    return [_pairs(row) for row in heard]


def _solo_loop(net, sets):
    """The uncoalesced baseline; return (elapsed, heard).

    One ``B = 1`` masked batched-resolver call per request, in process:
    every request pays its own cell and far-field setup, as it would
    without the coalescer.
    """
    heard = []
    t0 = time.perf_counter()
    for tx in sets:
        mask = np.zeros((1, net.size), dtype=bool)
        mask[0, tx] = True
        heard.append(resolve_reception_batch(
            net.gain_operator, mask, net.params.noise, net.params.beta
        )[0])
    elapsed = time.perf_counter() - t0
    return elapsed, [_pairs(row) for row in heard]


def _serve_load(net, sets, *, sequential=False, window=0.002):
    """Serve ``sets`` through one server; return (elapsed, lat, heard).

    ``sequential=True`` awaits each request before issuing the next —
    the one-at-a-time serving the coalescing contract is anchored to.
    Otherwise all requests are issued concurrently over one pipelined
    connection.
    """

    async def go():
        server = ServiceServer(
            pool=NetworkPool(), window=window, max_batch=128
        )
        fingerprint, _ = server.pool.add(net)
        await server.start_tcp("127.0.0.1", 0)
        host, port = server.tcp_address
        client = await connect(f"tcp:{host}:{port}")
        latencies = [0.0] * len(sets)
        heard = [None] * len(sets)

        async def one(i, tx):
            t0 = time.perf_counter()
            reply = await client.sinr(fingerprint, tx)
            latencies[i] = time.perf_counter() - t0
            heard[i] = reply["receptions"]

        try:
            t0 = time.perf_counter()
            if sequential:
                for i, tx in enumerate(sets):
                    await one(i, tx)
            else:
                await asyncio.gather(
                    *(one(i, tx) for i, tx in enumerate(sets))
                )
            elapsed = time.perf_counter() - t0
        finally:
            await client.aclose()
            await server.aclose()
        return elapsed, latencies, heard

    return asyncio.run(go())


def _percentile(latencies, q):
    return float(np.percentile(np.asarray(latencies), q))


@needs_memory
def test_coalesced_throughput_floor(resident_network, benchmark, capsys):
    """Acceptance: coalesced serving >= 5x uncoalesced, same answers."""
    net = resident_network
    sets = _transmitter_sets(REQUESTS)

    co_elapsed, co_lat, co_heard = _serve_load(net, sets)
    un_elapsed, un_heard = _solo_loop(net, sets)
    _, _, seq_heard = _serve_load(net, sets, sequential=True)

    # The coalescing contract: a coalesced batch is bitwise identical
    # to the same queries served one at a time through the same server.
    assert co_heard == seq_heard
    # The serving resolver is the reference arithmetic.
    assert co_heard == _expected_receptions(net, sets)
    # The B = 1 baseline agrees decision-for-decision here (its far
    # term is a different rounding of the same certified sum).
    assert co_heard == un_heard

    rps_coalesced = REQUESTS / co_elapsed
    rps_uncoalesced = REQUESTS / un_elapsed
    speedup = rps_coalesced / rps_uncoalesced
    with capsys.disabled():
        print(
            f"\nservice n={N} sparse, {REQUESTS} concurrent queries: "
            f"coalesced {rps_coalesced:.0f} req/s "
            f"(p99 {_percentile(co_lat, 99) * 1e3:.0f} ms) vs "
            f"in-process B=1 loop {rps_uncoalesced:.0f} req/s "
            f"-> {speedup:.1f}x (floor {THROUGHPUT_FLOOR}x)"
        )
    benchmark.extra_info.update(
        n=N,
        requests=REQUESTS,
        tx_per_request=TX_PER_REQUEST,
        rps_coalesced=rps_coalesced,
        rps_uncoalesced=rps_uncoalesced,
        speedup=speedup,
        p99_coalesced_s=_percentile(co_lat, 99),
    )
    assert speedup >= THROUGHPUT_FLOOR, (
        f"coalesced serving only {speedup:.1f}x the uncoalesced "
        f"throughput (floor {THROUGHPUT_FLOOR}x)"
    )
    benchmark.pedantic(
        lambda: _serve_load(net, sets[:64]),
        rounds=1, iterations=1,
    )


@needs_memory
def test_thousand_client_soak(resident_network, benchmark, capsys, tmp_path):
    """1k simultaneous connections, every answer bitwise correct."""
    resource = pytest.importorskip("resource")
    need = SOAK_CLIENTS * 2 + 256
    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    if soft < need:
        if hard < need:
            pytest.skip(f"RLIMIT_NOFILE hard limit {hard} < {need}")
        resource.setrlimit(resource.RLIMIT_NOFILE, (need, hard))

    net = resident_network
    sets = _transmitter_sets(SOAK_CLIENTS, seed=SEED + 2)
    sock = str(tmp_path / "soak.sock")

    async def go():
        server = ServiceServer(pool=NetworkPool(), window=0.002,
                               max_batch=128)
        fingerprint, _ = server.pool.add(net)
        await server.start_unix(sock)
        latencies = [0.0] * SOAK_CLIENTS
        heard = [None] * SOAK_CLIENTS

        # Establish the thousand connections in waves so the connect
        # burst itself doesn't trip accept-queue / fd-rate limits; the
        # queries then all go out simultaneously.
        clients = []
        try:
            for base in range(0, SOAK_CLIENTS, SOAK_CONNECT_WAVE):
                clients.extend(await asyncio.gather(*(
                    connect(f"unix:{sock}")
                    for _ in range(
                        base, min(base + SOAK_CONNECT_WAVE, SOAK_CLIENTS)
                    )
                )))

            async def one_client(i, tx):
                t0 = time.perf_counter()
                reply = await clients[i].sinr(fingerprint, tx)
                latencies[i] = time.perf_counter() - t0
                heard[i] = reply["receptions"]

            t0 = time.perf_counter()
            await asyncio.gather(
                *(one_client(i, tx) for i, tx in enumerate(sets))
            )
            elapsed = time.perf_counter() - t0
        finally:
            for client in clients:
                await client.aclose()
            await server.aclose()
        return elapsed, latencies, heard, server

    elapsed, latencies, heard, server = asyncio.run(go())

    assert all(h is not None for h in heard)
    assert heard == _expected_receptions(net, sets)

    rps = SOAK_CLIENTS / elapsed
    p50 = _percentile(latencies, 50)
    p99 = _percentile(latencies, 99)
    batched = max(
        co.stats.max_batch for co in server._coalescers.values()
    )
    with capsys.disabled():
        print(
            f"\nsoak n={N} sparse, {SOAK_CLIENTS} concurrent clients: "
            f"{rps:.0f} req/s, p50 {p50 * 1e3:.0f} ms, "
            f"p99 {p99 * 1e3:.0f} ms, largest batch {batched}"
        )
    benchmark.extra_info.update(
        n=N, clients=SOAK_CLIENTS, rps=rps, p50_s=p50, p99_s=p99,
        max_batch=batched,
    )
    assert batched > 1  # the soak actually exercised coalescing
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
