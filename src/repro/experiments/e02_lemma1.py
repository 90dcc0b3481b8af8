"""E02 — Lemma 1: per-color unit-ball mass stays below a constant.

Runs the coloring over deployments of growing size and diverse geometry
and reports the extremal per-color station-centered unit-ball mass; the
lemma predicts a bound independent of ``n`` and of the deployment family
(growth exponent vs ``n`` near zero).
"""

from __future__ import annotations

from repro.analysis.fitting import growth_exponent
from repro.core.constants import ProtocolConstants
from repro.core.properties import lemma1_max_color_mass
from repro.deploy import clustered_chain, uniform_square
from repro.experiments.base import (
    ExperimentReport,
    check_scale,
    fmt,
    run_grid_points,
)
from repro.fastsim.grid import GridPoint, grid_stats

SWEEP = {
    "quick": [32, 64, 128, 256],
    "full": [32, 64, 128, 256, 512, 1024],
}


def _families(n: int):
    yield "uniform", lambda rng: uniform_square(
        n=n, side=max(1.0, (n / 16.0) ** 0.5), rng=rng
    )
    yield "dense", lambda rng: uniform_square(n=n, side=2.0, rng=rng)
    per = max(2, n // 16)
    yield "clusters", lambda rng: clustered_chain(
        16, per, 0.05, hop=0.55, rng=rng
    )


def _post(net, sweep):
    result = sweep.outcomes[0]
    return {
        "mass": lemma1_max_color_mass(net, result),
        "colors_used": len(result.distinct_colors()),
    }


def run(scale: str = "quick", seed: int = 2014, **grid) -> ExperimentReport:
    """Run E02 at ``scale``; see the module docstring and DESIGN.md §5."""
    check_scale(scale)
    constants = ProtocolConstants.practical()
    report = ExperimentReport(
        exp_id="E02",
        title="Coloring upper-density property",
        claim="Lemma 1: per color and unit ball, sum of p_w < C1 (constant)",
        headers=["deployment", "n", "colors used", "max color mass"],
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
        "e02",
        **grid,
    )
    report.grid = grid_stats(results, report.exp_id)
    by_family: dict[str, list[float]] = {}
    for (n, name, _), res in zip(cells, results):
        mass = res.extras["mass"]
        by_family.setdefault(name, []).append(mass)
        report.rows.append(
            [name, res.network.size, res.extras["colors_used"], fmt(mass, 3)]
        )
    all_masses = [m for ms in by_family.values() for m in ms]
    report.metrics["max_mass"] = round(max(all_masses), 3)
    exponents = {
        name: growth_exponent(ns[: len(ms)], ms)
        for name, ms in by_family.items()
        if len(ms) >= 2
    }
    worst = max(exponents.values(), key=abs)
    report.metrics["worst_growth_exponent"] = round(worst, 3)
    report.notes.append(
        "growth exponents vs n (0 = constant): "
        + ", ".join(f"{k}={v:.2f}" for k, v in exponents.items())
    )
    return report
