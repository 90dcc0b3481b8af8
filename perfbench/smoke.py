"""Toy-size smoke of the benchmark: ``python3 perfbench/smoke.py``.

Runs every workload of ``BENCHMARK.json`` through ``run.py --toy`` (a
small deployment, a few slots, one experiment) and checks the contract:

* the last line of standard output is the result object, with exactly
  the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
* every end-to-end metric (``--trace 0``) or per-layer metric
  (``--trace 1``) is emitted by name with its declared unit;
* without a pinned digest nothing fails; a reference file holding a
  wrong digest for the seed drives the failed fraction above 0, and
  the right one keeps it at 0.

Exits non-zero with a message on the first violated check.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7


def run(workload: str, trace: int, reference: Path = None) -> tuple:
    """One toy run; ``(result object, digest)``."""
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(SEED), "--seconds", "0.5", "--trace", str(trace),
        "--toy",
    ]
    if reference is not None:
        cmd += ["--reference", str(reference)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=170, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                 f"{proc.stdout}\n{proc.stderr}")
    digest = next(line.split()[1] for line in lines
                  if line.startswith("digest "))
    return json.loads(lines[-1]), digest


def check(condition: bool, message: str) -> None:
    if not condition:
        sys.exit(f"smoke: {message}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="smoke-", dir=scratch))
    try:
        for workload in (w["name"] for w in spec["workloads"]):
            for trace, group in ((0, "end_to_end"), (1, "per_layer")):
                result, digest = run(workload, trace)
                where = f"{workload} --trace {trace}"
                check(set(result) == {"correct", "attempted", "failed",
                                      "metrics"}, f"{where}: result keys")
                check(result["correct"] and result["failed"] == 0
                      and result["attempted"] >= 1,
                      f"{where}: failed without a reference")
                for metric in spec[group]:
                    got = result["metrics"].get(metric["name"])
                    check(got is not None,
                          f"{where}: {metric['name']} missing")
                    check(got["unit"] == metric["unit"]
                          and isinstance(got["value"], (int, float)),
                          f"{where}: {metric['name']} = {got}")
                check(len(result["metrics"]) == len(spec[group]),
                      f"{where}: undeclared metrics")
            reference = work / "reference.json"
            for pinned, should_fail in ((digest, False), ("0" * 64, True)):
                reference.write_text(json.dumps(
                    {workload: {"toy": {str(SEED): pinned}}}
                ))
                result, _ = run(workload, 0, reference)
                failed_frac = result["failed"] / result["attempted"]
                check((failed_frac > 0) == should_fail
                      and result["correct"] != should_fail,
                      f"{workload}: pinned digest {pinned[:8]}... gave "
                      f"failed_frac {failed_frac}")
            print(f"smoke ok: {workload}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
