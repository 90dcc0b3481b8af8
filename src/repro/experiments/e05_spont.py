"""E05 — Theorem 2: ``SBroadcast`` completes in ``O(D log n + log^2 n)``.

Mirrors E04's two sweeps for the spontaneous-wake-up algorithm.  On the
diameter sweep the post-coloring per-hop cost is ``Theta(log n)`` (the
pipeline of Fact 11); on the size sweep at bounded diameter the one-off
coloring dominates, giving the additive ``log^2 n``.
"""

from __future__ import annotations

from repro.analysis.fitting import paper_bound_spont
from repro.core.constants import ProtocolConstants
from repro.experiments.base import (
    ExperimentReport,
    check_scale,
    run_grid_points,
)
from repro.experiments.e04_nospont import broadcast_points, broadcast_report
from repro.fastsim.grid import grid_stats

SWEEP = {
    "quick": {
        "shapes": [(2, 64), (4, 32), (8, 16)],
        "ks": [5, 7, 10, 14],
        "trials": 3,
    },
    "full": {
        "shapes": [(2, 256), (4, 128), (8, 64), (16, 32)],
        "ks": [5, 7, 10, 14, 20, 28],
        "trials": 5,
    },
}


def run(scale: str = "quick", seed: int = 2014, **grid) -> ExperimentReport:
    """Run E05 at ``scale``; see the module docstring and DESIGN.md §5."""
    check_scale(scale)
    cfg = SWEEP[scale]
    constants = ProtocolConstants.practical()
    report = ExperimentReport(
        exp_id="E05",
        title="SBroadcast round complexity",
        claim="Theorem 2: broadcast in O(D log n + log^2 n) rounds whp "
              "(spontaneous wake-up)",
        headers=[
            "workload", "n", "depth", "mean rounds",
            "rounds/(D log n + log^2 n)", "success",
        ],
    )
    results = run_grid_points(
        broadcast_points("spont_broadcast", cfg, constants), seed, "e05",
        **grid,
    )
    report.grid = grid_stats(results, report.exp_id)
    # Fixed n: rounds ~ slope * D + intercept, with the intercept carrying
    # the one-off log^2 n coloring and slope ~ the log n per-hop cost; at
    # pinned depth the coloring term log^2 n dominates the size sweep.
    slope, intercept, r2, size_exponent = broadcast_report(
        report, cfg, results, paper_bound_spont
    )
    report.notes.append(
        f"fixed-n depth sweep: rounds ~ {slope:.1f} * D {intercept:+.0f} "
        f"(R^2={r2:.3f}); slope is the Theta(log n) per-hop cost, the "
        "intercept the one-off coloring; fixed-extent size sweep: "
        f"log-log slope {size_exponent:.2f} vs n (sub-polynomial)"
    )
    return report
