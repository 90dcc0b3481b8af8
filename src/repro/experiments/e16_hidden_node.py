"""E16 — hidden nodes: CSMA asymmetry vs the coloring-derived TDMA.

The classic hidden-node scenario (SiNE's exemplar, SNIPPETS.md
snippet 1) built from this repo's own geometry: two saturated
single-hop flows converge on one receiver in each of two clusters,

* **hidden cluster** — senders ``A`` and ``B`` sit just inside
  communication range of relay ``R`` but *outside each other's
  carrier-sense range* (which :mod:`repro.mac` derives from the gain
  operator: the distance where ``P d^-alpha`` falls to the noise floor,
  ``beta^(1/alpha) r = 1.0`` under default parameters, vs the ``A-B``
  separation of 1.30).  CSMA's listen-before-talk cannot see the
  contention, so simultaneous persists collide at ``R`` — and because
  ``A`` and ``B`` are equidistant from ``R``, neither captures the
  channel;
* **sensed cluster** — senders ``S1`` and ``S2`` converge on ``E`` at
  comparable communication distances but *within* sense range of each
  other (0.9 < 1.0), so CSMA's backoff arbitration serializes them
  and only equal-backoff ties are ever lost.

The same workload runs under three MACs: :class:`~repro.mac.CSMA`
(the asymmetry: sensed flows fly, hidden flows collide),
:class:`~repro.mac.SlottedAloha` at the same persistence (the control:
no sensing, both clusters behave like the hidden one), and
:class:`~repro.mac.TdmaFromColoring` (the paper's answer: slots from a
proper coloring of the *interference* graph, where ``A`` and ``B`` are
neighbours even though they cannot hear each other — so the hidden
conflict is scheduled away entirely and collisions drop to zero).
"""

from __future__ import annotations

import numpy as np

from repro.experiments.base import (
    ExperimentReport,
    check_scale,
    fmt,
    run_grid_points,
)
from repro.fastsim.grid import GridPoint, grid_stats
from repro.mac import CSMA, SlottedAloha, TdmaFromColoring
from repro.network.network import Network
from repro.sinr.params import SINRParameters
from repro.traffic import CBR, Flow

#: Per-slot persistence of the contention MACs — saturated CBR sources
#: at persist 1.0 would collide every slot in the hidden cluster (a
#: degenerate deadlock); 0.6 keeps both collision and success visible.
PERSIST = 0.6

#: Per-scale sweep costs (the shape ``tools/gen_docs.py`` renders).
SWEEP = {
    "quick": {"rounds": 300, "persist": 0.6},
    "full": {"rounds": 3000, "persist": 0.6},
}

#: Flow indices of the two clusters (order of :func:`_flows`).
HIDDEN_FLOWS = (0, 1)
SENSED_FLOWS = (2, 3)


def _network() -> Network:
    """The two-cluster hidden-node deployment (deterministic coords).

    Hidden cluster ``A=(0,0), R=(0.65,0), B=(1.30,0)``: both senders
    0.65 from ``R`` (inside the 0.7 communication radius), 1.30 apart
    (outside the 1.0 derived sense range, but inside the 1.4
    interference radius — so TDMA's coloring still sees the conflict).
    Sensed cluster ``S1=(20,0), E=(20.55,0), S2=(20.9,0)``: 0.55 and
    0.35 from ``E``, 0.9 apart (inside sense range).  The ~19-unit gap
    makes cross-cluster interference negligible without decoupling the
    clusters from one shared channel.
    """
    coords = np.array(
        [
            [0.00, 0.0],   # 0: A   (hidden sender)
            [0.65, 0.0],   # 1: R   (hidden-cluster receiver)
            [1.30, 0.0],   # 2: B   (hidden sender)
            [20.00, 0.0],  # 3: S1  (sensed sender)
            [20.55, 0.0],  # 4: E   (sensed-cluster receiver)
            [20.90, 0.0],  # 5: S2  (sensed sender)
        ]
    )
    return Network(
        coords, params=SINRParameters.default(), name="e16-hidden-node"
    )


def _flows() -> list:
    """Four saturated single-hop flows, two per cluster."""
    return [
        Flow(src=0, dst=1, arrivals=CBR(1.0)),   # A  -> R
        Flow(src=2, dst=1, arrivals=CBR(1.0)),   # B  -> R
        Flow(src=3, dst=4, arrivals=CBR(1.0)),   # S1 -> E
        Flow(src=5, dst=4, arrivals=CBR(1.0)),   # S2 -> E
    ]


def _macs(seed: int) -> list:
    """The three contenders, labelled."""
    return [
        ("csma", CSMA(persist=PERSIST, seed=seed)),
        ("aloha", SlottedAloha(p=PERSIST, seed=seed)),
        ("tdma", TdmaFromColoring(seed=seed)),
    ]


def _cluster_stats(result, flow_ids) -> tuple[float, float]:
    """(total throughput, collisions per round) of one cluster's flows."""
    thr = sum(result.flows[k].throughput(result.rounds) for k in flow_ids)
    col = sum(result.flows[k].collisions for k in flow_ids) / result.rounds
    return thr, col


def run(scale: str = "quick", seed: int = 2014, **grid) -> ExperimentReport:
    """Run E16 at ``scale``; see the module docstring and DESIGN.md §11."""
    check_scale(scale)
    rounds = SWEEP[scale]["rounds"]
    report = ExperimentReport(
        exp_id="E16",
        title="Hidden nodes: CSMA asymmetry vs coloring-derived TDMA",
        claim="Carrier sensing cannot arbitrate conflicts it cannot "
              "hear — hidden senders collide at rates an order above "
              "sensed ones — while a TDMA schedule colored on the "
              "interference graph (the paper's backbone coloring made "
              "operational) eliminates the asymmetry entirely",
        headers=[
            "mac", "hidden thr", "sensed thr", "hidden col/rd",
            "sensed col/rd", "jain", "delivered",
        ],
    )

    net = _network()
    flows = _flows()
    macs = _macs(seed)
    points = [
        GridPoint(
            kind="traffic",
            deployment=lambda rng, m=net: m,
            n_replications=2,
            label=f"e16 {label}",
            kwargs={"flows": flows, "rounds": rounds, "mac": mac},
            share_deployment="e16",
        )
        for label, mac in macs
    ]
    results = run_grid_points(points, seed, "e16", **grid)
    report.grid = grid_stats(results, report.exp_id)

    per_mac: dict[str, dict] = {}
    for (label, mac), res in zip(macs, results):
        traffic = res.sweep.outcomes[0]
        hidden_thr, hidden_col = _cluster_stats(traffic, HIDDEN_FLOWS)
        sensed_thr, sensed_col = _cluster_stats(traffic, SENSED_FLOWS)
        per_mac[label] = {
            "hidden_thr": hidden_thr,
            "sensed_thr": sensed_thr,
            "hidden_col": hidden_col,
            "sensed_col": sensed_col,
            "jain": traffic.jain(),
            "conserved": traffic.conservation_ok(),
        }
        report.rows.append(
            [
                label, fmt(hidden_thr, 3), fmt(sensed_thr, 3),
                fmt(hidden_col, 3), fmt(sensed_col, 3),
                fmt(traffic.jain(), 3), traffic.delivered(),
            ]
        )
        report.metrics[f"{label}_hidden_throughput"] = round(hidden_thr, 4)
        report.metrics[f"{label}_sensed_throughput"] = round(sensed_thr, 4)
        report.metrics[f"{label}_hidden_collisions"] = round(hidden_col, 4)
        report.metrics[f"{label}_sensed_collisions"] = round(sensed_col, 4)
        report.metrics[f"{label}_jain"] = round(per_mac[label]["jain"], 4)

    csma, aloha, tdma = per_mac["csma"], per_mac["aloha"], per_mac["tdma"]
    # The asymmetry: sensing rescues the sensed cluster only.
    report.metrics["csma_asymmetry"] = round(
        csma["hidden_col"] / max(csma["sensed_col"], 1e-12), 2
    )
    # The control: without sensing, the sensed cluster collides like the
    # hidden one — sensing, not geometry, is what CSMA adds there.
    report.metrics["aloha_sensed_collisions"] = round(
        aloha["sensed_col"], 4
    )
    # The paper's answer: interference-graph TDMA schedules the hidden
    # conflict away (A and B are interference-graph neighbours even
    # though they cannot sense each other).
    report.metrics["tdma_collision_free"] = (
        tdma["hidden_col"] == 0.0 and tdma["sensed_col"] == 0.0
    )
    report.metrics["tdma_beats_csma_hidden"] = bool(
        tdma["hidden_thr"] > csma["hidden_thr"]
    )
    report.metrics["all_conserved"] = all(
        m["conserved"] for m in per_mac.values()
    )
    report.notes.append(
        f"saturated CBR(1.0) single-hop flows, persist={PERSIST}, "
        f"{rounds} slots; sense range derived from the gain operator "
        "(beta^(1/alpha) r = 1.0): A-B at 1.30 are hidden from each "
        "other, S1-S2 at 0.9 are not; TDMA colors the interference "
        "graph (2 comm radii = 1.4), under which both clusters are "
        "triangles -> frame 3, every sender owns a conflict-free slot"
    )
    return report
