"""Benchmark entry point for the ``repro`` reproduction.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload suite-quick --seed 2014 \\
        --seconds 10 --trace 0

Workloads and metrics are declared in ``BENCHMARK.json`` at the root;
``workloads.py`` says what each workload runs.  With ``--trace 0`` the
end-to-end metrics are reported:

* ``setup_s`` -- median of several set-ups (interpreter start plus the
  ``repro`` import for the suite, the deployment build otherwise);
* ``work_s`` -- median wall time of the workload's operation, repeated
  for ``--seconds`` (the suite's cold pass and the broadcast sweep each
  take longer than that and run once);
* ``peak_rss_mb`` -- peak resident memory of the process doing the work.

With ``--trace 1`` the workload runs once untraced and once with every
layer boundary wrapped by ``tracer.py``, and the per-layer metrics are
reported.  Human-readable lines come first (execution path, exact
counts, samples, the failed fraction and the workload's own figures);
the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.

On the reference seed the outputs' digest must equal the one pinned in
``reference.json``; a mismatch fails every operation of the run.
``--toy`` shrinks every workload to seconds (``smoke.py`` uses it) and
``--reference`` points at another digest file.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Seed whose output digests are pinned in ``reference.json``.
DEFAULT_SEED = 2014

#: Experiments whose wall time the traced suite reports one by one.
EXPERIMENTS = [f"E{k:02d}" for k in range(1, 17)]


def end_to_end(out) -> dict:
    """Median set-up and work time and peak memory of an untraced run."""
    who = resource.RUSAGE_CHILDREN if out.rss_children else resource.RUSAGE_SELF
    return {
        "setup_s": (statistics.median(out.setup_s), "s"),
        "work_s": (statistics.median(out.work_s), "s"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024.0, "MB"),
    }


def _merge(summaries: list) -> dict:
    """Sum span totals and counters over several traced passes."""
    merged = {"spans": {}, "edges": {}, "counts": {}, "top_s": 0.0,
              "bookkeeping_s": 0.0}
    for summary in summaries:
        for parent, child, calls in summary["edges"]:
            edge = f"{parent} > {child}"
            merged["edges"][edge] = merged["edges"].get(edge, 0) + calls
        for name, stats in summary["spans"].items():
            into = merged["spans"].setdefault(
                name, {"calls": 0, "total_s": 0.0, "self_s": 0.0}
            )
            for key, value in stats.items():
                into[key] += value
        for name, value in summary["counts"].items():
            merged["counts"][name] = merged["counts"].get(name, 0) + value
        merged["top_s"] += summary["top_s"]
        merged["bookkeeping_s"] += summary["bookkeeping_s"]
    return merged


def per_layer(merged: dict, wall: float, out) -> dict:
    """Layer self times, counts and trace meta from merged traced passes
    that took ``wall`` seconds."""
    spans, counts = merged["spans"], merged["counts"]

    def self_s(name):
        return spans.get(name, {}).get("self_s", 0.0), "s"

    def calls(name):
        return spans.get(name, {}).get("calls", 0), "count"

    def count(name):
        return counts.get(name, 0), "count"

    def ratio(num, den):
        return (counts.get(num, 0) / counts[den] if counts.get(den) else 0.0,
                "ratio")

    experiments = {
        f"experiments.{exp}_s": (
            spans.get(f"experiments.{exp}", {}).get("total_s", 0.0), "s"
        )
        for exp in EXPERIMENTS
    }
    near_bytes = counts.get("sinr.sparse.near_bytes_computed", 0)
    return {
        "network.build_s": self_s("network.build"),
        "network.builds": count("network.builds"),
        "network.graph_s": self_s("network.graph"),
        "network.graph_calls": calls("network.graph"),
        "sinr.sparse.resolve_self_s": self_s("sinr.sparse.resolve"),
        "sinr.sparse.far_band_s": self_s("sinr.sparse.far_band"),
        "sinr.sparse.resolve_calls": count("sinr.sparse.resolve_calls"),
        "sinr.sparse.replications_per_call": (
            ratio("sinr.sparse.replications", "sinr.sparse.resolve_calls")[0],
            "count",
        ),
        "sinr.sparse.tx_per_replication": (
            ratio("sinr.sparse.transmitters", "sinr.sparse.replications")[0],
            "count",
        ),
        "sinr.sparse.transmitters": count("sinr.sparse.transmitters"),
        "sinr.sparse.near_entries": count("sinr.sparse.near_entries"),
        "sinr.sparse.near_bytes_computed": (near_bytes, "bytes"),
        "sinr.sparse.heard_per_tx": ratio(
            "sinr.sparse.heard", "sinr.sparse.transmitters"
        ),
        "sinr.reception.resolve_s": self_s("sinr.reception.resolve"),
        "sinr.reception.resolve_calls": count("sinr.reception.resolve_calls"),
        "fastsim.kernel_self_s": self_s("fastsim.kernel"),
        "fastsim.rounds": count("fastsim.rounds"),
        "fastsim.replication_rounds": count("fastsim.replication_rounds"),
        "mac.transmit_mask_s": self_s("mac.transmit_mask"),
        "mac.intents": count("mac.intents"),
        "mac.grants": count("mac.grants"),
        "mac.grant_ratio": ratio("mac.grants", "mac.intents"),
        "traffic.self_s": self_s("traffic.run"),
        "traffic.injected": count("traffic.injected"),
        "traffic.delivered": count("traffic.delivered"),
        "traffic.dropped": count("traffic.dropped"),
        "traffic.delivery_ratio": ratio("traffic.delivered",
                                        "traffic.injected"),
        "cache.get_s": self_s("cache.get"),
        "cache.hits": count("cache.hits"),
        "cache.misses": count("cache.misses"),
        "cache.bytes_read_computed": (
            counts.get("cache.bytes_read", 0), "bytes"
        ),
        "cache.put_s": self_s("cache.put"),
        "cache.bytes_written_computed": (
            counts.get("cache.bytes_written", 0), "bytes"
        ),
        "journal.append_s": self_s("journal.append"),
        "journal.appends": count("journal.appends"),
        "grid.self_s": self_s("grid.run"),
        "grid.points": count("grid.points"),
        "grid.replayed": count("grid.replayed"),
        "experiments.self_s": (
            sum(v["self_s"] for k, v in spans.items()
                if k.startswith("experiments.")),
            "s",
        ),
        **experiments,
        "trace.unattributed_frac": (
            1.0 - merged["top_s"] / wall if wall else 0.0, "ratio"
        ),
        "trace.overhead_frac": (
            out.traced_wall_s / out.untraced_wall_s - 1.0, "ratio"
        ),
        "trace.bookkeeping_s": (merged["bookkeeping_s"], "s"),
    }


def _reference(path: Path, workload: str, size: str, seed: int):
    if not path.is_file():
        return None
    table = json.loads(path.read_text())
    return table.get(workload, {}).get(size, {}).get(str(seed))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="tiny inputs, for the smoke test")
    parser.add_argument("--reference", type=Path,
                        default=HERE / "reference.json",
                        help="digest file checked on pinned seeds")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no repro sources under src/", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; one of {names}")
    size = "toy" if args.toy else "full"

    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        out = workloads.WORKLOADS[args.workload](
            args.seed, args.seconds, bool(args.trace), size, work
        )
        if args.trace:
            merged = _merge([
                json.loads(summary.read_text())
                if isinstance(summary, Path) else summary
                for summary, _ in out.traces
            ])
            wall = sum(took for _, took in out.traces)
            values = per_layer(merged, wall, out)
        else:
            values = end_to_end(out)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run is still using it

    expected = _reference(args.reference, args.workload, size, args.seed)
    if expected is not None and expected != out.digest:
        out.failed = out.attempted
    metrics = {}
    for entry in spec["per_layer" if args.trace else "end_to_end"]:
        value, unit = values[entry["name"]]
        if unit != entry["unit"]:
            raise RuntimeError(
                f"{entry['name']} measured in {unit}, declared {entry['unit']}"
            )
        metrics[entry["name"]] = {"value": value, "unit": unit}

    print(f"workload {args.workload} seed {args.seed} size {size} "
          f"trace {args.trace}")
    print("path " + json.dumps(out.info, sort_keys=True))
    print("counts " + json.dumps(out.counts, sort_keys=True))
    if not args.trace:
        print("samples " + json.dumps(
            {"setup_s": out.setup_s, "work_s": out.work_s}
        ))
    print(f"digest {out.digest} reference "
          + ("none" if expected is None
             else "match" if expected == out.digest else "MISMATCH"))
    print(f"  {'failed_frac':<36} {out.failed / out.attempted:.6g} ratio "
          f"({out.failed}/{out.attempted})")
    if args.trace:
        print("spans " + json.dumps(merged["spans"], sort_keys=True))
        print("edges " + json.dumps(merged["edges"], sort_keys=True))
    for name, (value, unit) in out.named.items():
        print(f"  {name:<36} {value:.6g} {unit}")
    for name, entry in metrics.items():
        print(f"  {name:<36} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
