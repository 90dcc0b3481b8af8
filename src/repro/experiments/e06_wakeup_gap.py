"""E06 — spontaneous wake-up buys roughly a ``log n`` factor at large D.

Theorem 1 vs Theorem 2: on long chains, ``NoSBroadcast`` pays
``Theta(log^2 n)`` per hop (a fresh coloring every phase) while
``SBroadcast`` pays ``Theta(log n)`` per hop after one global coloring.
The measured ratio of completion rounds should grow with ``n`` (roughly
like ``log n``) and be visibly larger than 1 at every length.
"""

from __future__ import annotations

from repro.analysis.stats import aggregate_trials
from repro.core.constants import ProtocolConstants, log2ceil
from repro.deploy import grid_chain
from repro.experiments.base import (
    ExperimentReport,
    check_scale,
    fmt,
    run_grid_points,
)
from repro.fastsim.grid import GridPoint, grid_stats

SWEEP = {
    "quick": {"lengths": [8, 16, 24], "trials": 3},
    "full": {"lengths": [8, 16, 32, 48, 64], "trials": 5},
}


def run(scale: str = "quick", seed: int = 2014, **grid) -> ExperimentReport:
    """Run E06 at ``scale``; see the module docstring and DESIGN.md §5."""
    check_scale(scale)
    cfg = SWEEP[scale]
    constants = ProtocolConstants.practical()
    report = ExperimentReport(
        exp_id="E06",
        title="Non-spontaneous vs spontaneous broadcast",
        claim="Theorems 1+2: NoSBroadcast/SBroadcast ratio ~ log n on "
              "large-diameter networks",
        headers=["n", "depth", "NoS rounds", "S rounds", "ratio", "log n"],
    )
    # Two points per chain — the two protocols on the *same* deployment
    # (share_deployment), so the ratio compares like with like.
    points = []
    for length in cfg["lengths"]:
        deployment = (
            lambda rng, L=length: grid_chain(L, width=2, spacing=0.5)
        )
        for kind in ("nospont_broadcast", "spont_broadcast"):
            points.append(
                GridPoint(
                    kind=kind,
                    deployment=deployment,
                    n_replications=cfg["trials"],
                    label=f"{kind}-chain-{length}",
                    constants=constants,
                    kwargs={"source": 0},
                    share_deployment=f"chain-{length}",
                )
            )
    results = run_grid_points(points, seed, "e06", **grid)
    report.grid = grid_stats(results, report.exp_id)
    ratios = []
    for i, length in enumerate(cfg["lengths"]):
        nos_res, spont_res = results[2 * i], results[2 * i + 1]
        net = nos_res.network
        depth = net.eccentricity(0)
        # Trials where both protocols completed, as in the original
        # paired loop.
        both = nos_res.sweep.success & spont_res.sweep.success
        nos_stats = aggregate_trials(nos_res.sweep.rounds[both])
        spont_stats = aggregate_trials(spont_res.sweep.rounds[both])
        ratio = nos_stats.mean / max(spont_stats.mean, 1.0)
        ratios.append(ratio)
        report.rows.append(
            [
                net.size, depth, fmt(nos_stats.mean), fmt(spont_stats.mean),
                fmt(ratio, 2), log2ceil(net.size),
            ]
        )
    report.metrics["min_ratio"] = round(min(ratios), 2)
    report.metrics["max_ratio"] = round(max(ratios), 2)
    report.notes.append(
        "ratio > 1 everywhere and growing with n validates the log n gap"
    )
    return report
