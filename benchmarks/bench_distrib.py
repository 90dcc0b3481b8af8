"""Multi-host sweep sharding: throughput and identity gates (DESIGN.md §9).

Two acceptance criteria of the distributed execution layer, asserted
directly against *real* ``python -m repro.service`` daemons (separate
processes — separate GILs — coordinating through a shared cache
directory, exactly the production shape):

* **Sharding is invisible** — ``run_grid(workers=[a, b])`` on a
  cache-cold grid is bitwise identical to ``jobs=1`` (always checked;
  seeds are fixed at preparation time, so placement cannot matter).
* **Sharding scales** — two workers complete the cache-cold grid at
  **>= 1.8x** the point throughput of one worker (checked where >= 3
  cores exist: two daemons plus the coordinating client; wall-clock
  parallelism cannot exceed the core count, so smaller boxes record
  the JSON without gating).

Every timed run gets fresh daemons and a fresh cache directory —
nothing is warm, so the measured win is sharding, not pool reuse.
CI uploads the pytest-benchmark JSON as ``BENCH_distrib.json``; the
headline numbers land in ``extra_info`` so the artifact is
self-describing, and ``tools/bench_report.py`` merges it with the
other ``BENCH_*`` artifacts into one trajectory record.
"""

import os
import pathlib
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.core.constants import ProtocolConstants
from repro.deploy import uniform_square
from repro.fastsim import GridPoint, GridSpec, run_grid

SEED = 2014
N_REPLICATIONS = 8
#: Irregular sizes so the work-stealing queue must balance, not stripe.
POINT_SIZES = (96, 104, 112, 120, 128, 136, 144, 152)
WORKERS = 2
THROUGHPUT_FLOOR = 1.8  # two-worker points/s >= 1.8x one-worker points/s

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

needs_cores = pytest.mark.skipif(
    (os.cpu_count() or 1) < WORKERS + 1,
    reason=f"needs >= {WORKERS + 1} cores ({WORKERS} daemons + "
    "coordinator) for a wall-clock throughput gate",
)


def _spec() -> GridSpec:
    points = [
        GridPoint(
            kind="spont_broadcast",
            deployment=lambda rng, n=n: uniform_square(
                n=n, side=2.0, rng=rng
            ),
            n_replications=N_REPLICATIONS,
            label=f"n={n}",
            constants=ProtocolConstants.practical(),
            kwargs={"source": 0},
        )
        for n in POINT_SIZES
    ]
    return GridSpec(points=points, seed=SEED, name="distrib-bench")


def _spawn_daemons(count, cache_dir):
    """``count`` real service daemons sharing ``cache_dir``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    daemons, addresses = [], []
    for _ in range(count):
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.service",
                "--tcp", "127.0.0.1:0", "--cache-dir", str(cache_dir),
            ],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            env=env, text=True,
        )
        line = proc.stdout.readline().strip()
        assert line.startswith("serving on "), line
        daemons.append(proc)
        addresses.append(line[len("serving on "):])
    return daemons, addresses


def _cold_sharded_run(n_workers, cache_dir):
    """One cache-cold sharded run on fresh daemons; returns
    ``(results, elapsed_s)`` with daemon lifetime outside the timing."""
    daemons, addresses = _spawn_daemons(n_workers, cache_dir)
    try:
        start = time.perf_counter()
        results = run_grid(
            _spec(), workers=addresses, cache_dir=str(cache_dir)
        )
        elapsed = time.perf_counter() - start
    finally:
        for proc in daemons:
            proc.kill()
        for proc in daemons:
            proc.wait(10)
    assert not any(r.cached for r in results)  # genuinely cold
    return results, elapsed


def _assert_same_results(a, b):
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        assert np.array_equal(
            ra.sweep.rounds, rb.sweep.rounds, equal_nan=True
        )
        assert np.array_equal(ra.sweep.success, rb.sweep.success)


def test_sharded_identity(benchmark, tmp_path, capsys):
    """``workers=2`` output is bitwise identical to ``jobs=1``."""
    serial = run_grid(_spec(), jobs=1)
    results = benchmark.pedantic(
        lambda: _cold_sharded_run(WORKERS, tmp_path / "cold")[0],
        rounds=1, iterations=1,
    )
    _assert_same_results(serial, results)
    benchmark.extra_info.update(points=len(serial), workers=WORKERS)


@needs_cores
def test_two_worker_throughput_floor(tmp_path, capsys):
    """Cache-cold point throughput at 2 workers >= 1.8x one worker."""
    single_results, single_s = _cold_sharded_run(1, tmp_path / "one")
    double_results, double_s = _cold_sharded_run(
        WORKERS, tmp_path / "two"
    )
    _assert_same_results(single_results, double_results)
    points = len(single_results)
    single_rate = points / single_s
    double_rate = points / double_s
    speedup = double_rate / single_rate
    with capsys.disabled():
        print(
            f"\ncold grid of {points} points: 1 worker "
            f"{single_rate:.2f} pts/s vs {WORKERS} workers "
            f"{double_rate:.2f} pts/s ({speedup:.2f}x)"
        )
    assert speedup >= THROUGHPUT_FLOOR, (
        f"sharding only {speedup:.2f}x point throughput at {WORKERS} "
        f"workers (need >= {THROUGHPUT_FLOOR}x)"
    )
