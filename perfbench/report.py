"""Run every workload once and print the metric tables.

    python3 perfbench/report.py [--seed 0] [--seconds S] [--trace]

Prints, for each workload, every end-to-end metric with its unit: those of
BENCHMARK.json plus failed_ratio (failed over attempted operations) and
oracle_rel_err (ball-3d only: worst relative distance of a solve from its
oracle interval, the closed form for power(2) and the radial oracle for
power_log over the radii that mark the same nodes).  With --trace it also
runs the traced pass of each workload and prints the per-layer table; a
layer a workload does not reach reads 0 there.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload, args, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(args.seed), "--trace", str(trace)]
    if args.seconds is not None:
        cmd += ["--seconds", str(args.seconds)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload}: run.py exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    detail = next(json.loads(line[len("detail "):]) for line in lines
                  if line.startswith("detail "))
    return json.loads(lines[-1]), detail


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    names = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    names += [("failed_ratio", "ratio"), ("oracle_rel_err", "ratio")]
    width = max(len(w) for w in workloads) + 2
    print(f"{'end-to-end metric':34s}" + "".join(f"{w:>{width}s}" for w in workloads))
    rows = {}
    for workload in workloads:
        result, detail = run(workload, args, 0)
        values = {k: m["value"] for k, m in result["metrics"].items()}
        values["failed_ratio"] = detail["failed_ratio"]
        values["oracle_rel_err"] = detail.get("oracle_rel_err")
        rows[workload] = values
    for name, unit in names:
        cells = ["n/a" if rows[w][name] is None else f"{rows[w][name]:.6g}" for w in workloads]
        print(f"{name + ' (' + unit + ')':34s}" + "".join(f"{c:>{width}s}" for c in cells))

    if args.trace:
        layers = {w: run(w, args, 1)[0]["metrics"] for w in workloads}
        print()
        print(f"{'per-layer metric':48s}" + "".join(f"{w:>{width}s}" for w in workloads))
        for m in spec["per_layer"]:
            cells = [f"{layers[w][m['name']]['value']:.6g}" for w in workloads]
            label = f"{m['name']} ({m['unit']})"
            print(f"{label:48s}" + "".join(f"{c:>{width}s}" for c in cells))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
