"""The resident-network query service (DESIGN.md §8).

Every entry point before this package was a batch CLI run that paid the
full network-build cost per invocation and threw the hot state away.
This package is the long-running alternative: an asyncio daemon
(``python -m repro.service``) holds a pool of resident
:class:`~repro.network.network.Network` objects — sparse CSR backends,
compiled kernels, lazy caches all warm — and serves SINR / ball /
mobility-advance / sweep queries over newline-delimited JSON on a unix
or TCP socket.

The performance core is the **batch coalescer**
(:class:`~repro.service.coalescer.BatchCoalescer`): SINR queries
arriving within a short window — or while a kernel call is already in
flight — against the same network are folded into a single invocation
of the batched resolver
(:func:`repro.sinr.reception.resolve_reception_many`), whose
exact-zero-neutral fold contract makes every answer bitwise identical
to a dedicated single-query call.  Throughput therefore scales with the
kernel's batch efficiency instead of per-request Python overhead
(``benchmarks/bench_service.py`` gates the floor: at least 5x an
in-process loop of one ``B = 1`` resolver call per query).

Grid sweeps become clients of the same pool through
``run_grid(workers=[...])`` (:mod:`repro.fastsim.grid`), and sweep
results flow through the ordinary content-addressed result cache, whose
keys are shared with CLI runs by construction.
"""

from repro.service.client import ServiceClient, connect
from repro.service.coalescer import BatchCoalescer, CoalescerStats
from repro.service.pool import NetworkPool
from repro.service.protocol import (
    ServiceConnectionError,
    ServiceCorruptPayload,
    ServiceError,
    ServiceTimeout,
)
from repro.service.server import ServiceServer

__all__ = [
    "BatchCoalescer",
    "CoalescerStats",
    "NetworkPool",
    "ServiceClient",
    "ServiceConnectionError",
    "ServiceCorruptPayload",
    "ServiceError",
    "ServiceServer",
    "ServiceTimeout",
    "connect",
]
