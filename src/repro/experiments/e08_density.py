"""E08 — the paper's algorithms are flat in the maximum degree ``Delta``.

Workload: uniform squares of fixed side with growing ``n``, so the degree
``Delta`` grows linearly in ``n`` while the diameter stays constant.

The local-broadcast composition (Sect. 1.2 comparison, shape
``O(D (Delta + log n) log n)``) slows down linearly with ``Delta``;
``SBroadcast`` pays only the ``log^2 n`` coloring.  The crossover — the
density beyond which the paper's algorithm wins — is the experiment's
headline number.
"""

from __future__ import annotations

from repro.analysis.fitting import growth_exponent
from repro.analysis.stats import aggregate_trials, success_rate
from repro.core.constants import ProtocolConstants
from repro.deploy import uniform_square
from repro.experiments.base import (
    ExperimentReport,
    check_scale,
    fmt,
    run_grid_points,
)
from repro.fastsim.grid import GridPoint, grid_stats

#: Trial counts raised from the pre-grid 3/5 — the batched sweep engine
#: plus grid parallelism make replications cheap, and the Delta-growth
#: exponents are far too noisy at 3 trials to discriminate reliably.
SWEEP = {
    "quick": {"ns": [32, 64, 128, 256], "trials": 6},
    "full": {"ns": [32, 64, 128, 256, 512, 1024], "trials": 8},
}

SIDE = 2.5


def run(scale: str = "quick", seed: int = 2014, **grid) -> ExperimentReport:
    """Run E08 at ``scale``; see the module docstring and DESIGN.md §5."""
    check_scale(scale)
    cfg = SWEEP[scale]
    constants = ProtocolConstants.practical()
    report = ExperimentReport(
        exp_id="E08",
        title="Density independence (vs local-broadcast composition)",
        claim="Sect. 1.2: avoid the Delta factor of "
              "O(D (Delta + log n) log n) local-broadcast-based broadcast",
        headers=[
            "n", "Delta", "SB rounds", "local-bc rounds", "ratio",
            "SB success",
        ],
    )
    # Both algorithms measured on the *same* deployment per n
    # (share_deployment); per-point sweep seeds are spawned by the grid
    # layer, replacing the collision-prone ``seed + n`` arithmetic.
    points = []
    for n in cfg["ns"]:
        deployment = (
            lambda rng, n=n: uniform_square(n=n, side=SIDE, rng=rng)
        )
        points.append(
            GridPoint(
                kind="spont_broadcast",
                deployment=deployment,
                n_replications=cfg["trials"],
                label=f"sb-{n}",
                constants=constants,
                kwargs={"source": 0},
                share_deployment=f"us-{n}",
            )
        )
        points.append(
            GridPoint(
                kind="local_broadcast",
                deployment=deployment,
                n_replications=cfg["trials"],
                label=f"lb-{n}",
                kwargs={"source": 0},
                share_deployment=f"us-{n}",
            )
        )
    results = run_grid_points(points, seed, "e08", **grid)
    report.grid = grid_stats(results, report.exp_id)
    deltas, sb_means, lb_means = [], [], []
    for i, n in enumerate(cfg["ns"]):
        sb_res, lb_res = results[2 * i], results[2 * i + 1]
        delta = sb_res.network.max_degree
        succ = (sb_res.sweep.success & lb_res.sweep.success).tolist()
        sb_mean = aggregate_trials(sb_res.sweep.successful_rounds()).mean
        lb_mean = aggregate_trials(lb_res.sweep.successful_rounds()).mean
        deltas.append(delta)
        sb_means.append(sb_mean)
        lb_means.append(lb_mean)
        report.rows.append(
            [
                n, delta, fmt(sb_mean), fmt(lb_mean),
                fmt(lb_mean / max(sb_mean, 1.0), 2),
                fmt(success_rate(succ), 2),
            ]
        )
    report.metrics["sb_vs_delta_exponent"] = round(
        growth_exponent(deltas, sb_means), 3
    )
    report.metrics["lb_vs_delta_exponent"] = round(
        growth_exponent(deltas, lb_means), 3
    )
    report.metrics["final_ratio"] = round(lb_means[-1] / sb_means[-1], 2)
    report.notes.append(
        "local-broadcast rounds grow ~linearly with Delta "
        f"(exponent {report.metrics['lb_vs_delta_exponent']}); SBroadcast "
        f"stays near-flat (exponent {report.metrics['sb_vs_delta_exponent']})"
    )
    return report
