"""E11 — leader election elects a unique leader whp (Sect. 5).

Random IDs from ``{1..n^3}`` plus consensus; every trial should end with
all stations agreeing on one ID held by exactly one station, in
``O(D log^2 n + log^3 n)`` rounds (~``3 log n`` consensus bit boxes).
One grid point per network size.
"""

from __future__ import annotations

from repro.analysis.stats import aggregate_trials, success_rate
from repro.core.constants import ProtocolConstants, log2ceil
from repro.deploy import uniform_square
from repro.experiments.base import (
    ExperimentReport,
    check_scale,
    fmt,
    run_grid_points,
)
from repro.fastsim.grid import GridPoint, grid_stats

SWEEP = {
    "quick": {"ns": [16, 32], "trials": 4},
    "full": {"ns": [16, 32, 64, 128], "trials": 8},
}


def run(scale: str = "quick", seed: int = 2014, **grid) -> ExperimentReport:
    """Run E11 at ``scale``; see the module docstring and DESIGN.md §5."""
    check_scale(scale)
    cfg = SWEEP[scale]
    constants = ProtocolConstants.practical()
    report = ExperimentReport(
        exp_id="E11",
        title="Leader election",
        claim="Sect. 5: unique leader whp in O(D log^2 n + log^3 n) rounds",
        headers=["n", "mean rounds", "rounds/log^3 n", "unique-leader rate"],
    )
    results = run_grid_points(
        [
            GridPoint(
                kind="leader_election",
                deployment=lambda rng, n=n: uniform_square(
                    n=n, side=2.0, rng=rng
                ),
                n_replications=cfg["trials"],
                label=f"n={n}",
                constants=constants,
            )
            for n in cfg["ns"]
        ],
        seed,
        "e11",
        **grid,
    )
    report.grid = grid_stats(results, report.exp_id)
    all_ok = []
    for n, res in zip(cfg["ns"], results):
        ok = res.sweep.success.tolist()
        all_ok.extend(ok)
        stats = aggregate_trials(res.sweep.rounds)
        logn = log2ceil(n)
        report.rows.append(
            [
                n, fmt(stats.mean), fmt(stats.mean / logn ** 3, 2),
                fmt(success_rate(ok), 2),
            ]
        )
    report.metrics["unique_rate"] = success_rate(all_ok)
    return report
