"""orlicap benchmark: one run of one workload.

    python3 perfbench/run.py --workload strong-type-2d --seed 0 --seconds 15 --trace 0
    python3 perfbench/report.py --trace      # every workload, both tables
    python3 perfbench/selftest.py            # toy-size self-test

Run from the root of a checkout.  The workload runs in a fresh child
process (`worker.py`) that imports `orlicap` from this checkout's `src/`
and nothing else, with the BLAS thread count capped at the CPUs this
process may use.  With `--trace 0` the result carries the end-to-end
metrics of BENCHMARK.json, measured with tracing off; with `--trace 1`
the per-layer metrics, from a run that times each layer's public functions
from outside and also reports the tracing overhead.

Human-readable lines come first; the last line of standard output is the
result: {"correct", "attempted", "failed", "metrics"}.  A failed output
check counts as a failed operation, never as a crash.  Exit code 0 means a
result was printed; anything else means the run could not be made (for
example, no orlicap sources in this directory).

`--record-reference` stores the outputs and deterministic counts of the
run as the reference for its workload, size and seed in reference.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD_TIMEOUT_S = 170


def fail(msg: str, code: int = 2):
    print(f"perfbench: {msg}", file=sys.stderr)
    raise SystemExit(code)


def quiet(cmd) -> str | None:
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def checkout_record() -> dict:
    """Commit and dirty flag when the checkout is a git work tree."""
    if not (ROOT / ".git").exists():
        return {"commit": None, "dirty": None}
    status = quiet(["git", "status", "--porcelain", "--untracked-files=no"])
    return {"commit": quiet(["git", "rev-parse", "HEAD"]),
            "dirty": None if status is None else bool(status)}


def cache_bytes(level: int):
    value = quiet(["getconf", f"LEVEL{level}_CACHE_SIZE"])
    return int(value) if value and value.isdigit() else None


def child_env(nproc: int) -> tuple[dict, int]:
    env = dict(os.environ)
    requested = env.get("OPENBLAS_NUM_THREADS", "")
    threads = min(int(requested), nproc) if requested.isdigit() and int(requested) > 0 else nproc
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env, threads


def run_worker(args, reference) -> dict:
    nproc = len(os.sched_getaffinity(0))
    env, threads = child_env(nproc)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--size", args.size]
    if reference:
        cmd += ["--reference", str(reference)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        fail(f"{args.workload} did not finish within {CHILD_TIMEOUT_S} s", 3)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail(f"worker exited with code {proc.returncode}", 3)
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["env"].update(nproc=nproc, blas_threads=threads,
                         l2_bytes=cache_bytes(2), l3_bytes=cache_bytes(3),
                         **checkout_record())
    return record


def end_to_end(record) -> dict:
    ops = record["ops"]
    return {"wall_s": statistics.median(o["wall_s"] for o in ops),
            "setup_s": statistics.median(record["setup_s"]),
            "peak_rss_mb": record["peak_rss_mb"]}


def per_layer(record) -> dict:
    ops = record["ops"]
    layers = {k: statistics.median(o["layers"][k] for o in ops) for k in ops[0]["layers"]}
    layers["trace.overhead_ratio"] = (statistics.median(o["traced_wall_s"] for o in ops)
                                      / statistics.median(o["wall_s"] for o in ops))
    return layers


def record_reference(args, record, path: Path) -> None:
    if not args.trace:
        fail("--record-reference needs --trace 1, which also records the counts")
    op = record["ops"][0]
    refs = json.loads(path.read_text()) if path.exists() else {}
    refs[f"{args.workload}/{args.size}/seed{args.seed}"] = {
        "outputs": op["outputs"], "counts": op["counts"],
        "blas_threads": record["env"]["blas_threads"]}
    path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"recorded reference {args.workload}/{args.size}/seed{args.seed} in {path}")


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"{spec_path} is missing")
    spec = json.loads(spec_path.read_text())

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "toy"), default="full",
                    help="toy: reduced lattices, for the self-test")
    ap.add_argument("--reference", type=Path, default=HERE / "reference.json")
    ap.add_argument("--record-reference", action="store_true")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "orlicap" / "__init__.py").is_file():
        fail(f"no orlicap sources under {ROOT / 'src'}; run from a checkout")
    if args.seconds is None:
        args.seconds = spec["run_seconds"]

    record = run_worker(args, None if args.record_reference else args.reference)
    if args.record_reference:
        record_reference(args, record, args.reference)

    values = per_layer(record) if args.trace else end_to_end(record)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    ops = record["ops"]
    attempted = sum(o["attempted"] for o in ops)
    failed = sum(o["failed"] for o in ops)
    oracle = [o["extra"]["oracle_rel_err"] for o in ops if "oracle_rel_err" in o["extra"]]
    detail = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "trace": args.trace, "inputs": record["inputs"], "env": record["env"],
        "lattice_array_bytes_computed": record["lattice_array_bytes"],
        "wall_s_per_op": [o["wall_s"] for o in ops],
        "failed_ratio": failed / attempted,
        "oracle_rel_err": max(oracle) if oracle else None,
        "counts": [o["counts"] for o in ops] if args.trace else None,
        "counts_repeat": record.get("counts_repeat"),
        "failures": [f"op {i}: {what}" for i, o in enumerate(ops) for what in o["failures"]],
    }
    print(f"workload {args.workload}  seed {args.seed}  size {args.size}  "
          f"trace {args.trace}  ops {len(ops)}  inputs {json.dumps(record['inputs'])}")
    for name, m in metrics.items():
        print(f"  {name:42s} {m['value']:>16.6g} {m['unit']}")
    print(f"  {'failed_ratio':42s} {failed / attempted:>16.6g} ratio "
          f"({failed} of {attempted} operations)")
    if oracle:
        print(f"  {'oracle_rel_err':42s} {max(oracle):>16.6g} ratio")
    if args.trace:
        print(f"  deterministic counts repeat across ops: {record['counts_repeat']}")
    for what in detail["failures"]:
        print(f"  FAILED {what}")
    print(f"detail {json.dumps(detail, sort_keys=True)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
