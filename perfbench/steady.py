"""Repeat the benchmark and show how steady each end-to-end metric is.

    python3 perfbench/steady.py                       # every workload, seeds 1..10
    python3 perfbench/steady.py --workloads lu_clock_budget --first-seed 101

Each workload gets ten runs of `run.py --trace 0` at BENCHMARK.json's
run_seconds, one after another, each with its own seed.  For every workload
it prints each end-to-end metric's median, first and third quartiles and
spread (quartile distance over median) next to the metric's bound from
BENCHMARK.json, marked ok when the spread is within the bound, and the
attempted and failed operations.  The summary is also written to
perfbench/out/steady-<first seed>.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10

# what the workload-wide round time is on each workload
ALIASES = {"lu_clock_budget": "budget_s", "ba_theta_measurement": "theta_s",
           "cli_session": "cli_session_s"}


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    bounds = {m["name"]: m for m in spec["end_to_end"]}
    summary = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in range(args.first_seed, args.first_seed + RUNS):
            runs.append(run_once(workload, seed, spec["run_seconds"]))
            print(f"  {workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in runs[-1]["metrics"].items()), flush=True)
        rows = {}
        for name, metric in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            rows[name] = {"values": values, "median": median, "q1": q1, "q3": q3,
                          "spread": (q3 - q1) / median, "bound": metric["bound"]}
        attempted = [r["attempted"] for r in runs]
        failed = [r["failed"] for r in runs]
        summary[workload] = {"metrics": rows, "attempted": attempted, "failed": failed,
                             "correct": all(r["correct"] for r in runs)}
        print(f"\n{workload}: {len(runs)} runs, correct={summary[workload]['correct']}, "
              f"attempted {attempted}, failed {failed}")
        print(f"  {'metric':<28}{'unit':>5}{'median':>12}{'q1':>12}{'q3':>12}"
              f"{'spread':>8}{'bound':>7}{'':>6}")
        for name, row in rows.items():
            label = f"{name} ({ALIASES[workload]})" if name == "workflow_ref_s" else name
            ok = "ok" if row["spread"] <= row["bound"] else "WIDE"
            print(f"  {label:<28}{bounds[name]['unit']:>5}{row['median']:12.5g}"
                  f"{row['q1']:12.5g}{row['q3']:12.5g}{row['spread']:8.3f}"
                  f"{row['bound']:7.2f}{ok:>6}")
        print(flush=True)
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / f"steady-{args.first_seed}.json").write_text(json.dumps(summary, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
