"""Self-test of the benchmark at toy size (about two minutes).

    python3 perfbench/selftest.py

Checks that every workload runs at reduced lattices in both modes, that
each result line names every BENCHMARK.json metric with its unit, that a
deliberately corrupted reference makes operations fail (failed_ratio > 0)
without crashing the run, and that the benchmark refuses to run, without
printing a result, where the orlicap sources are missing.  The file name
keeps it out of the repository's pytest collection.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench_out" / "selftest"


def bench(workload, trace, cwd=ROOT, reference=None):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
           "--seconds", "1", "--trace", str(trace), "--size", "toy"]
    if reference is not None:
        cmd += ["--reference", str(reference)]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if proc.returncode == 0 else None), proc


def check_result(workload, trace, result, spec, problems):
    where = f"{workload} trace {trace}"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
        return
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != wanted:
        problems.append(f"{where}: metrics/units differ: {sorted(set(got) ^ set(wanted))}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)) or isinstance(m["value"], bool):
            problems.append(f"{where}: {name} value {m['value']!r}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        problems.append(f"{where}: attempted {result['attempted']!r}")


def corrupted_reference(path: Path, outputs: bool) -> None:
    """Copy reference.json with every toy output off by 1e-4 relative
    (outputs=True), or with only the toy solver iteration counts off by one."""
    refs = json.loads((HERE / "reference.json").read_text())
    for key, ref in refs.items():
        if "/toy/" not in key:
            continue
        if outputs:
            ref["outputs"] = {k: v * (1 + 1e-4) for k, v in ref["outputs"].items()}
        else:
            ref["counts"]["capacity.variational.iterations"] += 1
    path.write_text(json.dumps(refs))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    problems = []
    shutil.rmtree(SCRATCH, ignore_errors=True)
    SCRATCH.mkdir(parents=True)
    try:
        for workload in workloads:
            for trace in (0, 1):
                code, result, proc = bench(workload, trace)
                if code != 0:
                    problems.append(f"{workload} trace {trace}: exit {code}\n{proc.stderr}")
                    continue
                check_result(workload, trace, result, spec, problems)
                if result["failed"] or not result["correct"]:
                    problems.append(f"{workload} trace {trace}: failed at toy size\n"
                                    f"{proc.stdout}")
                print(f"ok   {workload} trace {trace}: {result['attempted']} operations")

        bad_outputs, bad_counts = SCRATCH / "bad-outputs.json", SCRATCH / "bad-counts.json"
        corrupted_reference(bad_outputs, outputs=True)
        corrupted_reference(bad_counts, outputs=False)
        cases = [(w, 0, bad_outputs) for w in workloads] + [("strong-type-2d", 1, bad_counts)]
        for workload, trace, bad_ref in cases:
            what = f"{workload} trace {trace}: corrupted {bad_ref.stem[4:]}"
            code, result, proc = bench(workload, trace, reference=bad_ref)
            if code != 0:
                problems.append(f"{what} crashed the run\n{proc.stderr}")
            elif not (result["failed"] > 0 and result["correct"] is False):
                problems.append(f"{what} not detected")
            else:
                print(f"ok   {what} -> failed_ratio "
                      f"{result['failed'] / result['attempted']:g}")

        bare = SCRATCH / "bare"
        shutil.copytree(HERE, bare / HERE.name)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        code, _, proc = bench("riesz-2d", 0, cwd=bare)
        if code == 0 or proc.stdout.strip():
            problems.append(f"without sources: exit {code}, stdout {proc.stdout!r}")
        else:
            print(f"ok   without sources: exit {code}, no result printed")
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)

    for p in problems:
        print(f"FAIL {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
