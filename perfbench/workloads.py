"""The benchmark's three workloads, each run in the benchmark's process.

Every workload draws all of its inputs from the ``--seed`` it is given,
drives only public entry points of ``repro`` (``python -m
repro.experiments``, ``Network``, ``run_sweep``, ``run_traffic``),
checks every output, and returns a :class:`Outcome`.

``trace`` runs repeat the workload's set-up and main operation once
untraced and once under a :class:`tracer.Tracer`; the per-layer numbers
come from the traced pass, the overhead from comparing the two.
"""

from __future__ import annotations

import hashlib
import importlib.util
import math
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    setup_s: list = field(default_factory=list)
    work_s: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    digest: str = ""
    #: Workload-specific figures named as in the workload's docs.
    named: dict = field(default_factory=dict)
    #: Exact counts that repeat run to run.
    counts: dict = field(default_factory=dict)
    #: Execution path and problem size.
    info: dict = field(default_factory=dict)
    #: Traced-pass span summaries plus walls (trace runs only).
    traces: list = field(default_factory=list)
    untraced_wall_s: float = 0.0
    traced_wall_s: float = 0.0
    #: Whether peak memory is the children's (the work ran in them).
    rss_children: bool = False


class _NoTrace:
    """Span interface of :class:`tracer.Tracer` that records nothing."""

    def span(self, name, absorb=False):
        return nullcontext()


NO_TRACE = _NoTrace()


def path_info(**extra) -> dict:
    """Interpreter, library and machine facts that decide the code path."""
    from repro import kernels

    info = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "nproc": os.cpu_count(),
        "kernel_kind": kernels.resolve_kernel(None),
    }
    info.update(extra)
    return info


def _sha(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


def _seeds(seed: int, k: int) -> list:
    """``k`` independent integer seeds spawned from the workload seed."""
    children = np.random.SeedSequence(seed).spawn(k)
    return [int(c.generate_state(1, dtype=np.uint32)[0]) for c in children]


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def _timed_run(cmd: list, log: Path, timeout: float = 170) -> tuple:
    """Run ``cmd`` from the checkout root, output appended to ``log``;
    ``(wall_s, exit_code)``."""
    with open(log, "ab") as handle:
        started = time.perf_counter()
        proc = subprocess.run(
            cmd, cwd=ROOT, env=_env(), stdout=handle, stderr=handle,
            timeout=timeout, check=False,
        )
        return time.perf_counter() - started, proc.returncode


# ----------------------------------------------------------------------
# suite-quick
# ----------------------------------------------------------------------
SUITE_TARGETS = {"full": "all", "toy": "E16"}
SUITE_WARM_PASSES = 2
SUITE_IMPORTS = 5
_SECTION = re.compile(r"^## ", re.MULTILINE)


def _sections(markdown: str) -> list:
    """Per-experiment sections of a Markdown report."""
    return _SECTION.split(markdown)[1:]


def suite_quick(seed: int, seconds: float, trace: bool, size: str,
                work: Path) -> Outcome:
    """Cold then warm ``python -m repro.experiments <target> --scale quick``.

    Set-up is interpreter start plus the CLI's import of ``repro``
    (``--help``).  The cold pass computes every grid point into a fresh
    cache and journal (one pass per run, so ``seconds`` does not
    lengthen it); warm passes replay that cache and must write a
    Markdown report identical to the cold one, experiment by
    experiment.  Traced passes run through ``suite_child.py``.
    """
    out = Outcome(rss_children=True)
    target = SUITE_TARGETS[size]
    log = work / "suite.log"
    cli = [sys.executable, "-m", "repro.experiments"]
    child = [sys.executable, str(HERE / "suite_child.py")]
    for _ in range(0 if trace else SUITE_IMPORTS):
        wall, code = _timed_run(cli + ["--help"], log)
        if code != 0:
            raise RuntimeError(f"`-m repro.experiments --help` exited {code}")
        out.setup_s.append(wall)

    def run_pass(name: str, cache: str, traced: bool) -> tuple:
        markdown = work / f"{name}.md"
        args = [
            target, "--scale", "quick", "--jobs", "1", "--seed", str(seed),
            "--cache-dir", str(work / cache), "--markdown", str(markdown),
        ]
        if traced:
            dump = work / f"{name}.trace.json"
            wall, code = _timed_run(child + [str(dump)] + args, log)
            out.traces.append((dump, wall))
        else:
            wall, code = _timed_run(cli + args, log)
        return wall, markdown.read_text() if code == 0 else ""

    cold_s, cold = run_pass("cold", "cache", traced=False)
    want = _sections(cold)
    if not want:
        raise RuntimeError(f"the cold pass wrote no report; see {log}")
    out.attempted += len(want)
    out.digest = _sha([cold.encode()])

    def check(report: str) -> None:
        got = _sections(report)
        out.attempted += len(want)
        out.failed += (sum(a != b for a, b in zip(want, got))
                       + max(0, len(want) - len(got)))

    warm_walls = []
    if trace:
        out.untraced_wall_s = cold_s
        out.traced_wall_s, traced_cold = run_pass(
            "traced-cold", "traced-cache", traced=True
        )
        check(traced_cold)
        wall, warm = run_pass("traced-warm", "traced-cache", traced=True)
        check(warm)
        warm_walls.append(wall)
    else:
        out.work_s = [cold_s]
        for k in range(SUITE_WARM_PASSES):
            wall, warm = run_pass(f"warm{k}", "cache", traced=False)
            check(warm)
            warm_walls.append(wall)

    out.named = {
        "suite_cold_s": (cold_s, "s"),
        "suite_warm_s": (statistics.median(warm_walls), "s"),
    }
    out.counts = {"experiments": len(want), "warm_passes": len(warm_walls)}
    out.info = path_info(backend="dense+sparse", target=target,
                         scale="quick", jobs=1)
    return out


# ----------------------------------------------------------------------
# shared sparse deployment
# ----------------------------------------------------------------------
DENSITY = 12.0
CUTOFF = 2.0
MAX_DEPLOY_ATTEMPTS = 8


def _sparse_square(n: int, rng, name: str, tracer, connected: bool):
    """Uniform square at :data:`DENSITY` in sparse mode, fully built:
    cell index, CSR near field and far-field kernels."""
    from repro.network.network import Network

    side = math.sqrt(n / DENSITY)
    for _ in range(MAX_DEPLOY_ATTEMPTS):
        coords = rng.uniform(0.0, side, size=(n, 2))
        with tracer.span("network.build", absorb=True):
            net = Network(coords, name=name, backend="sparse", cutoff=CUTOFF)
            backend = net.sparse_backend
            # An all-silent far band builds the far-field FFT kernels.
            backend.far_band(np.zeros((1, n), dtype=bool))
        if not connected or net.is_connected:
            return net
    raise RuntimeError(
        f"no connected deployment of n={n} in {MAX_DEPLOY_ATTEMPTS} draws"
    )


def _sparse_info(net, **extra) -> dict:
    desc = net.sparse_backend.describe()
    return path_info(
        backend=net.backend_kind, kernel_kind=net.kernel_kind, n=net.size,
        near_entries=desc["nnz"], cells=desc["cells"],
        far_empty=desc["far_empty"], **extra,
    )


def _repeat(fn, seconds: float, at_least: int) -> list:
    """Call ``fn`` until ``seconds`` have passed and ``at_least`` calls
    were made; the list of results."""
    results = []
    started = time.perf_counter()
    while len(results) < at_least or time.perf_counter() - started < seconds:
        results.append(fn())
    return results


def _drive(out: Outcome, trace: bool, seconds: float, setups: int,
           at_least: int, setup, operate, digest) -> tuple:
    """Measure an in-process workload; ``(last state, runs)``.

    Untraced: ``setups`` timed set-ups, then ``operate`` repeated for
    ``seconds`` (at least ``at_least`` times).  Traced: one set-up and
    one operation untraced, then the same under a :class:`Tracer`.
    ``operate(state)`` returns ``(wall_s, result)``; every run's
    ``digest(result)`` must agree, or all of its operations failed.
    """
    from tracer import Tracer, install

    state = None
    if not trace:
        for _ in range(setups):
            state = None  # free the previous deployment first
            started = time.perf_counter()
            state = setup(NO_TRACE)
            out.setup_s.append(time.perf_counter() - started)
        runs = _repeat(lambda: operate(state), seconds, at_least)
        out.work_s = [wall for wall, _ in runs]
    else:
        runs = [operate(setup(NO_TRACE))]
        tracer = install(Tracer())
        started = time.perf_counter()
        try:
            with tracer.span("bench.setup"):
                state = setup(tracer)
            runs.append(operate(state))
        finally:
            tracer.uninstall()
        out.traces.append((tracer.summary(), time.perf_counter() - started))
        # Overhead compares the operations alone: the first set-up in a
        # process also pays one-off imports and page faults.
        out.untraced_wall_s, out.traced_wall_s = runs[0][0], runs[1][0]
    digests = [digest(result) for _, result in runs]
    out.digest = digests[0]
    if len(set(digests)) != 1:
        out.failed = out.attempted
    return state, runs


# ----------------------------------------------------------------------
# broadcast-sparse-2k
# ----------------------------------------------------------------------
BROADCAST_SIZES = {"full": (2048, 8), "toy": (128, 2)}
BROADCAST_SETUPS = 5


def _round_budget(net, budget_scale: int = 16) -> int:
    """``budget_scale * (hops log n + log^2 n)`` with ``hops`` the box
    diagonal over the communication radius (the E14/E15 budget)."""
    n = net.size
    span = net.coords.max(axis=0) - net.coords.min(axis=0)
    hops = math.ceil(float(np.linalg.norm(span)) / net.params.comm_radius)
    logn = max(1, math.ceil(math.log2(n)))
    return budget_scale * (hops * logn + logn * logn)


def broadcast_sparse(seed: int, seconds: float, trace: bool, size: str,
                     work: Path) -> Outcome:
    """``run_sweep("spont_broadcast", ...)`` of B replications on a
    connected sparse uniform square (E14's first full-scale point)."""
    # Looked up at call time, so the tracer's wrapper is the one called.
    from repro.fastsim import sweep as sweeps

    n, batch = BROADCAST_SIZES[size]
    deploy_seed, sweep_seed = _seeds(seed, 2)
    out = Outcome()

    def setup(tracer):
        net = _sparse_square(n, np.random.default_rng(deploy_seed),
                             f"bench-broadcast-{n}", tracer, connected=True)
        return net, _round_budget(net)

    def sweep(state):
        net, budget = state
        started = time.perf_counter()
        result = sweeps.run_sweep("spont_broadcast", net, batch, sweep_seed,
                                  source=0, round_budget=budget)
        return time.perf_counter() - started, result

    def digest(result):
        out.attempted += result.n_replications
        out.failed += int(np.count_nonzero(~result.success))
        return _sha(
            (o.success, o.completion_round, o.total_rounds,
             o.informed_round.astype(np.int64).tobytes())
            for o in result.outcomes
        )

    state, runs = _drive(out, trace, seconds, BROADCAST_SETUPS, 1,
                         setup, sweep, digest)
    rounds = sum(o.total_rounds for o in runs[0][1].outcomes)
    wall = statistics.median(out.work_s) if out.work_s else runs[0][0]
    out.named = {"rep_rounds_per_s": (rounds / wall, "1/s")}
    out.counts = {
        "replications": batch,
        "replication_rounds": rounds,
        "completion_rounds": [int(o.completion_round)
                              for o in runs[0][1].outcomes],
    }
    net, budget = state
    out.info = _sparse_info(net, B=batch, round_budget=budget,
                            kind="spont_broadcast")
    return out


# ----------------------------------------------------------------------
# traffic-csma-20k
# ----------------------------------------------------------------------
#: (stations, flows, slots per run)
TRAFFIC_SIZES = {"full": (20_000, 32, 400), "toy": (2_000, 4, 20)}
TRAFFIC_SETUPS = 3
HOPS = 3
RATE = 0.5
PERSIST = 0.6
QUEUE_CAP = 32


def _choose_flows(net, count: int, rng) -> list:
    """``count`` Poisson flows from random sources to a station exactly
    :data:`HOPS` hops away."""
    import networkx as nx

    from repro.traffic import Flow, Poisson

    graph = net.graph
    flows = []
    for src in rng.permutation(net.size).tolist():
        if len(flows) == count:
            return flows
        depths = nx.single_source_shortest_path_length(graph, src,
                                                       cutoff=HOPS)
        far = sorted(v for v, d in depths.items() if d == HOPS)
        if far:
            dst = far[int(rng.integers(len(far)))]
            flows.append(Flow(src=src, dst=dst, arrivals=Poisson(RATE)))
    raise RuntimeError("deployment too sparse for the traffic workload")


def traffic_csma(seed: int, seconds: float, trace: bool, size: str,
                 work: Path) -> Outcome:
    """``run_traffic`` of Poisson multihop flows under CSMA on a sparse
    deployment (the ``bench_traffic.py`` workload)."""
    from repro import traffic
    from repro.mac import CSMA

    n, n_flows, slots = TRAFFIC_SIZES[size]
    deploy_seed, flow_seed, arrival_seed, mac_seed = _seeds(seed, 4)
    out = Outcome()

    def setup(tracer):
        net = _sparse_square(n, np.random.default_rng(deploy_seed),
                             f"bench-traffic-{n}", tracer, connected=False)
        return net, _choose_flows(net, n_flows,
                                  np.random.default_rng(flow_seed))

    def play(state):
        net, flows = state
        started = time.perf_counter()
        result = traffic.run_traffic(
            net, flows, slots, np.random.default_rng(arrival_seed),
            mac=CSMA(persist=PERSIST, seed=mac_seed), queue_cap=QUEUE_CAP,
        )
        return time.perf_counter() - started, result

    def digest(result):
        out.attempted += 1
        out.failed += int(not result.conservation_ok())
        return _sha(
            [(fs.injected, fs.delivered, fs.dropped, fs.queued,
              fs.collisions, tuple(fs.latencies)) for fs in result.flows]
            + [result.transmissions, result.collisions]
        )

    state, runs = _drive(out, trace, seconds, TRAFFIC_SETUPS, 3,
                         setup, play, digest)
    first = runs[0][1]
    wall = statistics.median(out.work_s) if out.work_s else runs[0][0]
    out.named = {"slots_per_s": (slots / wall, "1/s")}
    out.counts = {
        "injected": sum(fs.injected for fs in first.flows),
        "delivered": first.delivered(),
        "dropped": sum(fs.dropped for fs in first.flows),
        "transmissions": first.transmissions,
        "collisions": first.collisions,
    }
    net, flows = state
    out.info = _sparse_info(net, B=1, flows=len(flows), slots=slots,
                            mac=f"CSMA(persist={PERSIST})",
                            queue_cap=QUEUE_CAP)
    return out


WORKLOADS = {
    "suite-quick": suite_quick,
    "broadcast-sparse-2k": broadcast_sparse,
    "traffic-csma-20k": traffic_csma,
}
