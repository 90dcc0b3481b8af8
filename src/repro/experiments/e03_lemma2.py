"""E03 — Lemma 2: a constant-mass color near every station.

Reports the minimum (over stations) of the best per-color mass in the
close neighbourhood, at two radii:

* the paper's ``eps/2`` — at practical densities the interference needed
  to seal this radius exactly is unreachable (see the calibration note on
  :class:`~repro.core.constants.ProtocolConstants`), so the value there is
  informational;
* the *effective* proximity radius 0.4 — the radius the calibrated
  constants actually guarantee; the lemma's content (a lower bound
  independent of ``n`` and geometry) is asserted here.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.fitting import growth_exponent
from repro.core.constants import ProtocolConstants
from repro.core.properties import lemma2_best_masses
from repro.deploy import dumbbell, uniform_square
from repro.experiments.base import (
    ExperimentReport,
    check_scale,
    fmt,
    run_grid_points,
)
from repro.fastsim.grid import GridPoint, grid_stats

#: Effective close-proximity radius guaranteed by the calibrated constants.
EFFECTIVE_RADIUS = 0.4

SWEEP = {
    "quick": [32, 64, 128, 256],
    "full": [32, 64, 128, 256, 512, 1024],
}


def _families(n: int):
    yield "uniform", lambda rng: uniform_square(
        n=n, side=max(1.0, (n / 16.0) ** 0.5), rng=rng
    )
    per_side = max(4, n // 3)
    yield "dumbbell", lambda rng: dumbbell(per_side, 6, rng)


def _post(net, sweep):
    result = sweep.outcomes[0]
    at_eps = float(lemma2_best_masses(net, result).min())
    eff = lemma2_best_masses(net, result, radius=EFFECTIVE_RADIUS)
    # The min over stations samples deeper tails as n grows; the claim
    # "bounded below by a constant" is asserted on a fixed quantile, with
    # the min reported alongside.
    return {
        "at_eps": at_eps,
        "eff_min": float(eff.min()),
        "p10": float(np.percentile(eff, 10)),
    }


def run(scale: str = "quick", seed: int = 2014, **grid) -> ExperimentReport:
    """Run E03 at ``scale``; see the module docstring and DESIGN.md §5."""
    check_scale(scale)
    constants = ProtocolConstants.practical()
    report = ExperimentReport(
        exp_id="E03",
        title="Coloring lower-density property",
        claim=(
            "Lemma 2: every station has a color of mass >= C2 in its "
            "close neighbourhood"
        ),
        headers=[
            "deployment", "n", "min @ eps/2",
            f"min @ {EFFECTIVE_RADIUS}", f"p10 @ {EFFECTIVE_RADIUS}",
        ],
    )
    ns = SWEEP[scale]
    cells = [
        (n, name, deployment)
        for n in ns
        for name, deployment in _families(n)
    ]
    results = run_grid_points(
        [
            GridPoint(
                kind="coloring",
                deployment=deployment,
                n_replications=1,
                label=f"{name}-{n}",
                constants=constants,
                post=_post,
            )
            for n, name, deployment in cells
        ],
        seed,
        "e03",
        **grid,
    )
    report.grid = grid_stats(results, report.exp_id)
    by_family: dict[str, list[float]] = {}
    mins = []
    for (n, name, _), res in zip(cells, results):
        p10 = res.extras["p10"]
        by_family.setdefault(name, []).append(p10)
        mins.append(res.extras["eff_min"])
        report.rows.append(
            [
                name, res.network.size, fmt(res.extras["at_eps"], 4),
                fmt(res.extras["eff_min"], 4), fmt(p10, 4),
            ]
        )
    all_p10 = [m for ms in by_family.values() for m in ms]
    report.metrics["min_effective_mass"] = round(min(mins), 4)
    report.metrics["min_p10_mass"] = round(min(all_p10), 4)
    exponents = {
        name: growth_exponent(ns[: len(ms)], ms)
        for name, ms in by_family.items()
        if len(ms) >= 2 and all(m > 0 for m in ms)
    }
    if exponents:
        worst = min(exponents.values())  # most negative = decaying with n
        report.metrics["worst_growth_exponent"] = round(worst, 3)
        report.notes.append(
            "growth exponents vs n (0 = constant, negative = decaying): "
            + ", ".join(f"{k}={v:.2f}" for k, v in exponents.items())
        )
    report.notes.append(
        "eps/2 column is informational: sealing the paper's exact radius "
        "needs interference levels only reachable at much higher densities "
        "(see ProtocolConstants calibration note)."
    )
    return report
