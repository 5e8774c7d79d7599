"""Alternating pairs of benchmark runs: a parent commit against this tree.

    python3 tools/bench_pairs.py --parent 5d72928 \\
        --workload ba_theta_measurement --pairs 10 --first-seed 301 \\
        --out BENCH_18.json

The parent is extracted with `git archive`, and this tree's files that git
tracks or would add (not ignored) are copied as they are on disk, each into
a temporary directory that is deleted afterwards, so neither side runs with
the other's caches or outputs.  Pair i runs BENCHMARK.json's command
(perfbench/run.py) with --trace 0, seed first_seed + i and the file's
run_seconds, once in each tree: the parent runs first in even pairs, this
tree in odd ones.  --workload may be given more than once.  For each
workload and end-to-end metric the output holds each side's median and
quartiles and the pairs the change won, ties counting for neither; each
run's `correct`, `attempted` and `failed` are kept too.  Standard library
only.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values: list[float]) -> dict:
    """Median and quartiles (inclusive method) of one side's runs."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    """Per-metric medians, quartiles and pairs won from run results.

    Each pair is {"seed", "first", "parent", "change"}, the last two being
    the JSON object run.py prints; each metric is an entry of
    BENCHMARK.json's end_to_end list (name, unit, better).
    """
    summary = {}
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        side = {key: [pair[key]["metrics"][name]["value"] for pair in pairs]
                for key in ("parent", "change")}
        won = sum((c < p) if lower else (c > p)
                  for p, c in zip(side["parent"], side["change"]))
        summary[name] = {"unit": metric["unit"], "better": metric["better"],
                         "parent": spread(side["parent"]),
                         "change": spread(side["change"]),
                         "change_won": won, "pairs": len(pairs)}
    runs = [{"seed": pair["seed"], "first": pair["first"],
             **{key: {field: pair[key][field]
                      for field in ("correct", "attempted", "failed")}
                for key in ("parent", "change")}}
            for pair in pairs]
    return {"metrics": summary, "runs": runs}


def run_once(tree: Path, command: list[str], workload: str, seed: int,
             seconds: float) -> dict:
    """The JSON object on the last line of one benchmark run in `tree`."""
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode} in {tree}:\n"
                         f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def extract(rev: str, into: Path) -> None:
    """Write the files of commit `rev` under `into`."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")


def snapshot(into: Path, root: Path = ROOT) -> None:
    """Copy the files of the working tree at `root` that git tracks or would
    add, as they are on disk, under `into`; a tracked file deleted on disk
    is left out."""
    listed = subprocess.run(["git", "ls-files", "-z", "--cached", "--others",
                             "--exclude-standard"], cwd=root, capture_output=True,
                            check=True).stdout.decode()
    for name in filter(None, listed.split("\0")):
        if (root / name).is_file():
            (into / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(root / name, into / name)


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                          text=True, check=True).stdout.strip()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="the commit to compare against")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    result = {"parent": git("rev-parse", args.parent),
              "change": git("describe", "--always", "--dirty"),
              "run_seconds": seconds, "first_seed": args.first_seed,
              "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        extract(args.parent, trees["parent"])
        snapshot(trees["change"])
        for workload in args.workload:
            pairs = []
            for i in range(args.pairs):
                seed = args.first_seed + i
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run_once(trees[side], benchmark["command"],
                                          workload, seed, seconds)
                    print(f"{workload} seed {seed} {side}: "
                          f"{json.dumps(pair[side])}", file=sys.stderr, flush=True)
                pairs.append(pair)
            result["workloads"][workload] = summarize(pairs, benchmark["end_to_end"])
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
