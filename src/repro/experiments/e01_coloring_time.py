"""E01 — coloring round complexity (Fact 7: ``O(log^2 n)``).

The length of ``StabilizeProbability`` is deterministic given ``n`` (the
lockstep schedule), so this experiment both *measures* it (running the
vectorized coloring end to end, confirming the schedule is exercised in
full) and *fits* the series against candidate shapes — ``log^2 n`` must
win by R^2.
"""

from __future__ import annotations

from repro.analysis.fitting import fit_models, fit_two_term, growth_exponent
from repro.core.constants import ProtocolConstants
from repro.deploy import uniform_square
from repro.experiments.base import (
    ExperimentReport,
    check_scale,
    fmt,
    run_grid_points,
)
from repro.fastsim.grid import GridPoint, grid_stats

SWEEP = {
    "quick": [32, 64, 128, 256, 512],
    "full": [32, 64, 128, 256, 512, 1024, 2048],
}


def _deployment(n: int):
    # Density held constant: side grows as sqrt(n).
    side = max(1.0, (n / 16.0) ** 0.5)
    return lambda rng: uniform_square(n=n, side=side, rng=rng)


def run(scale: str = "quick", seed: int = 2014, **grid) -> ExperimentReport:
    """Run E01 at ``scale``; see the module docstring and DESIGN.md §5."""
    check_scale(scale)
    constants = ProtocolConstants.practical()
    report = ExperimentReport(
        exp_id="E01",
        title="StabilizeProbability round complexity",
        claim="Fact 7: the coloring finishes in O(log^2 n) rounds",
        headers=["n", "levels", "colors avail", "rounds", "rounds/log^2 n"],
    )
    ns = SWEEP[scale]
    results = run_grid_points(
        [
            GridPoint(
                kind="coloring",
                deployment=_deployment(n),
                n_replications=1,
                label=f"n={n}",
                constants=constants,
            )
            for n in ns
        ],
        seed,
        "e01",
        **grid,
    )
    report.grid = grid_stats(results, report.exp_id)
    rounds_series = []
    for n, res in zip(ns, results):
        result = res.sweep.outcomes[0]
        rounds_series.append(result.rounds)
        logn = max(1, (n - 1).bit_length())
        report.rows.append(
            [
                n,
                result.schedule.levels,
                constants.num_colors(n),
                result.rounds,
                fmt(result.rounds / logn ** 2, 2),
            ]
        )
    # The exact shape is a*log^2 n + b*log n (levels ~ log n - const times
    # blocks ~ log n); fit that two-term log polynomial and compare with a
    # linear-in-n alternative.
    a, b, r2 = fit_two_term(ns, rounds_series, "log^2 n", "log n")
    linear = fit_models(ns, rounds_series, ["n"])[0]
    exponent = growth_exponent(ns, rounds_series)
    report.metrics["log_poly_r2"] = round(r2, 4)
    report.metrics["linear_r2"] = round(linear.r_squared, 4)
    report.metrics["growth_exponent"] = round(exponent, 3)
    report.metrics["max_rounds"] = max(rounds_series)
    report.notes.append(
        f"two-term fit rounds ~ {a:.1f} log^2 n {b:+.1f} log n "
        f"(R^2={r2:.4f}); log-log slope vs n = {exponent:.3f} "
        "(polylogarithmic, far below linear)"
    )
    return report
