"""E07 — the paper's algorithms are flat in granularity ``Rs``.

Workload: chains of dense clusters (fixed number of hops, growing cluster
size with a microscopic intra-cluster span), which drive the granularity
``Rs = max/min communication-edge length`` up exponentially while the
diameter stays fixed.

Measured columns: ``SBroadcast`` (ours), the Decay sweep and the uniform
flood (density-oblivious baselines).  Analytic column: the Daum et al. [5]
bound ``D log n log^(alpha+1) Rs``, the formula the paper improves on —
at these granularities it exceeds the measured rounds of ``SBroadcast`` by
orders of magnitude.  (We compare against [5]'s *bound* rather than a
reimplementation: no closed pseudo-code of [5] is available, and the
measured baselines already exhibit the qualitative density coupling; see
DESIGN.md §2.)

The key metric is the log-log growth exponent of ``SBroadcast`` rounds vs
``Rs`` — the paper predicts ~0 (flat), while the [5] bound grows
polynomially in ``log Rs``.
"""

from __future__ import annotations

from repro.analysis.fitting import daum_bound, growth_exponent
from repro.analysis.stats import aggregate_trials, success_rate
from repro.core.constants import ProtocolConstants
from repro.deploy import clustered_chain
from repro.experiments.base import (
    ExperimentReport,
    check_scale,
    fmt,
    run_grid_points,
)
from repro.fastsim.grid import GridPoint, grid_stats

SWEEP = {
    "quick": {"pers": [2, 4, 8], "spans": [2e-2, 2e-4, 2e-6], "trials": 3},
    "full": {
        "pers": [2, 4, 8, 16, 32],
        "spans": [2e-2, 2e-4, 2e-6, 2e-8],
        "trials": 5,
    },
}

HOPS = 12

#: The three measured algorithms per (per, span) cell, in row order.
KINDS = ("spont_broadcast", "decay_broadcast", "uniform_broadcast")


def run(scale: str = "quick", seed: int = 2014, **grid) -> ExperimentReport:
    """Run E07 at ``scale``; see the module docstring and DESIGN.md §5."""
    check_scale(scale)
    cfg = SWEEP[scale]
    constants = ProtocolConstants.practical()
    report = ExperimentReport(
        exp_id="E07",
        title="Granularity independence (vs Daum et al. [5])",
        claim="Sect. 1.3: O(D log n + log^2 n) with no dependence on Rs; "
              "improves [5]'s O(D log n log^(alpha+1) Rs) for large Rs",
        headers=[
            "n", "Rs", "SB rounds", "decay rounds", "uniform rounds",
            "[5] bound", "SB success",
        ],
    )
    cells = [(per, span) for per in cfg["pers"] for span in cfg["spans"]]
    points = []
    for per, span in cells:
        deployment = (
            lambda rng, p=per, s=span: clustered_chain(
                HOPS, p, s, hop=0.55, rng=rng
            )
        )
        points.extend(
            GridPoint(
                kind=kind,
                deployment=deployment,
                n_replications=cfg["trials"],
                label=f"{kind}-per{per}-span{span:g}",
                constants=constants if kind == "spont_broadcast" else None,
                kwargs={"source": 0},
                share_deployment=f"cc-{per}-{span!r}",
            )
            for kind in KINDS
        )
    results = run_grid_points(points, seed, "e07", **grid)
    report.grid = grid_stats(results, report.exp_id)
    rs_series, sb_series = [], []
    for c, (per, span) in enumerate(cells):
        sb_res, dc_res, un_res = results[3 * c: 3 * c + 3]
        net = sb_res.network
        rs = net.granularity
        depth = net.diameter
        sb = sb_res.sweep.successful_rounds()
        dc = dc_res.sweep.successful_rounds()
        un = un_res.sweep.successful_rounds()
        sb_mean = aggregate_trials(sb).mean if sb.size else float("nan")
        report.rows.append(
            [
                net.size,
                f"{rs:.1e}",
                fmt(sb_mean),
                fmt(aggregate_trials(dc).mean) if dc.size else "-",
                fmt(aggregate_trials(un).mean) if un.size else "-",
                f"{daum_bound(depth, net.size, rs, net.params.alpha):.1e}",
                fmt(success_rate(sb_res.sweep.success.tolist()), 2),
            ]
        )
        if sb.size:
            rs_series.append(rs)
            sb_series.append(sb_mean)
    exponent = growth_exponent(rs_series, sb_series)
    report.metrics["sb_vs_rs_exponent"] = round(exponent, 4)
    report.notes.append(
        f"SBroadcast rounds vs Rs grow with log-log slope {exponent:.4f} "
        "(0 = granularity-independent); the [5] bound spans "
        "orders of magnitude over the same sweep"
    )
    return report
