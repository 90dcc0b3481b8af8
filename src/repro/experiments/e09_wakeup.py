"""E09 — ad hoc wake-up under adversarial schedules (Sect. 5).

An adversary staggers spontaneous wake-ups; the claim is that all
stations are awake within ``O(D log^2 n)`` rounds of the *first*
spontaneous wake-up, for every schedule.  Each (workload, schedule) cell
is one grid point — the four schedules of a workload share the deployment
and their schedules are ``Derived`` kwargs, built from the deployed
network with the point's derive-rng, so serial and parallel execution see
identical adversaries.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.fitting import paper_bound_nospont
from repro.analysis.stats import aggregate_trials, success_rate
from repro.core.constants import ProtocolConstants
from repro.deploy import grid_chain, uniform_square
from repro.experiments.base import (
    ExperimentReport,
    check_scale,
    fmt,
    run_grid_points,
)
from repro.fastsim.grid import Derived, GridPoint, grid_stats
from repro.sim.wakeup import WakeupSchedule

SWEEP = {
    "quick": {"workloads": ["chain-8", "uniform-40"], "trials": 4},
    "full": {
        "workloads": ["chain-8", "chain-16", "uniform-40", "uniform-80"],
        "trials": 8,
    },
}


def _build(name: str, rng: np.random.Generator):
    kind, size = name.split("-")
    if kind == "chain":
        return grid_chain(int(size), width=2, spacing=0.5)
    return uniform_square(n=int(size), side=2.5, rng=rng)


def _schedule_builders(constants):
    def single(net, rng):
        return WakeupSchedule.single(net.size, 0)

    def all_at_0(net, rng):
        return WakeupSchedule.all_at(net.size)

    def staggered(net, rng):
        phase = constants.phase_rounds(net.size)
        return WakeupSchedule.staggered(
            net.size, spread=2 * phase, rng=rng, fraction=0.5
        )

    def far_last(net, rng):
        phase = constants.phase_rounds(net.size)
        order = np.argsort(net.distances[0])  # far-from-station-0 wake last
        return WakeupSchedule.adversarial_far_last(
            net.size, spread=2 * phase, order=order
        )

    return [
        ("single", single),
        ("all-at-0", all_at_0),
        ("staggered", staggered),
        ("far-last", far_last),
    ]


def run(scale: str = "quick", seed: int = 2014, **grid) -> ExperimentReport:
    """Run E09 at ``scale``; see the module docstring and DESIGN.md §5."""
    check_scale(scale)
    cfg = SWEEP[scale]
    constants = ProtocolConstants.practical()
    report = ExperimentReport(
        exp_id="E09",
        title="Ad hoc wake-up under adversarial schedules",
        claim="Sect. 5: all stations awake O(D log^2 n) rounds after the "
              "first spontaneous wake-up",
        headers=[
            "workload", "schedule", "n", "mean wake time",
            "time/(D log^2 n)", "success",
        ],
    )
    builders = _schedule_builders(constants)
    cells = [
        (wname, sname, builder)
        for wname in cfg["workloads"]
        for sname, builder in builders
    ]
    results = run_grid_points(
        [
            GridPoint(
                kind="adhoc_wakeup",
                deployment=lambda rng, w=wname: _build(w, rng),
                n_replications=cfg["trials"],
                label=f"{wname}/{sname}",
                constants=constants,
                kwargs={"schedule": Derived(builder)},
                share_deployment=wname,
            )
            for wname, sname, builder in cells
        ],
        seed,
        "e09",
        **grid,
    )
    report.grid = grid_stats(results, report.exp_id)
    normalized = []
    all_success = []
    for (wname, sname, _), res in zip(cells, results):
        net = res.network
        depth = net.diameter
        bound = paper_bound_nospont(max(depth, 1), net.size)
        succ = res.sweep.success.tolist()
        times = [
            out.extras["wakeup_time"]
            for out in res.sweep.outcomes
            if out.success
        ]
        all_success.extend(succ)
        stats = aggregate_trials(times) if times else None
        mean = stats.mean if stats else float("nan")
        normalized.append(mean / bound)
        report.rows.append(
            [
                wname, sname, net.size, fmt(mean),
                fmt(mean / bound, 2), fmt(success_rate(succ), 2),
            ]
        )
    report.metrics["success_rate"] = success_rate(all_success)
    report.metrics["max_normalized_time"] = round(max(normalized), 2)
    report.notes.append(
        "normalized wake time bounded across adversarial schedules "
        "validates the O(D log^2 n) claim"
    )
    return report
