"""Benchmark of trapquad's two paper workflows and its CLI.

Run from the root of a source checkout (no install needed):

    python3 perfbench/run.py --workload lu_clock_budget --seed 1 --seconds 22 --trace 0

One run is one fresh process with BLAS pinned to one thread.  It sets up
trapquad, repeats whole rounds of the workload until --seconds of rounds
and at least two rounds have run, checks the first round's outputs against the references in
`checks.py`, and requires every later round to reproduce them exactly.

Times are CPU seconds of this process and of the CLI processes it has
reaped, not wall time, so time the process spends waiting for a core (held
by another process, or by the hypervisor as steal time) is not counted.
The host's speed still drifts, so each time is rescaled by reference work
of the same kind timed in the same run (`gauge.py`).  A round's time is the
sum over its operations of each operation's median over the run's rounds.  The last line of standard output is one JSON
object: `correct`, `attempted`, `failed` and `metrics` (the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1).  See
README.md for the workloads.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
N_SETUP_SAMPLES = 3   # this process's set-up and two fresh set-up-only processes
MIN_ROUNDS = 2        # so that each operation's median is over more than one sample


class Context:
    """trapquad's modules, the bundled species and the two paper traps."""


def pin_to_one_cpu() -> None:
    """Run this process, and every process it starts, on one CPU.

    The host's CPUs change speed independently of each other, so the work
    and the gauge samples that rescale it must share one.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def set_up() -> Context:
    """Import trapquad from ./src, load both species, build the traps.

    Nothing imported before this point loads numpy or scipy, so `import_s`
    is a fresh import of trapquad with everything it pulls in.  `setup_s` is
    the process's CPU time so far, interpreter start-up included.
    """
    sys.path.insert(0, str(ROOT / "src"))
    ctx = Context()
    start = time.process_time()
    import trapquad  # noqa: F401
    ctx.import_s = time.process_time() - start
    from trapquad import angular, cli, coupling, dynamics, effects, inference, species, trap
    ctx.angular, ctx.cli, ctx.coupling, ctx.dynamics = angular, cli, coupling, dynamics
    ctx.effects, ctx.inference, ctx.species, ctx.trap = effects, inference, species, trap

    start = time.process_time()
    ctx.lu = species.load_species("lu176")
    ctx.ba = species.load_species("ba138")
    ctx.load_ms = (time.process_time() - start) * 1e3

    import math
    two_pi = 2.0 * math.pi
    ctx.lu_trap = trap.TrapConfig.ideal_linear(ctx.lu.mass_kg, two_pi * 33e6, two_pi * 1e6)
    est = trap.secular_consistency(two_pi * 990e3, two_pi * 895e3, two_pi * 112e3)
    ctx.ba_trap = trap.TrapConfig.ideal_linear(ctx.ba.mass_kg, two_pi * 20.585e6,
                                               est.omega_s, est.uncertainty)
    ctx.setup_s = time.process_time()
    ctx.root = ROOT
    ctx.out_dir = OUT_DIR
    ctx.span = lambda name: nullcontext()
    return ctx


def fingerprint(obj):
    """A hashable image of an operation's output, exact to the last bit."""
    import numpy as np
    if isinstance(obj, dict):
        return tuple((str(k), fingerprint(v)) for k, v in obj.items())
    if isinstance(obj, (list, tuple)):
        return tuple(fingerprint(v) for v in obj)
    if isinstance(obj, np.ndarray):
        return (obj.dtype.str, obj.shape, obj.tobytes())
    if isinstance(obj, float):
        return obj.hex()
    return repr(obj)


def run_round(workload, gauge_s: list[float]):
    """One round: every operation in order, each followed by a gauge sample
    (appended to `gauge_s`, which holds the sample taken before the round).

    Returns each operation's CPU seconds, the same divided by the mean of
    the gauge samples just before and just after it, the round's wall
    seconds, and the outputs.
    """
    import gauge
    from workloads import OpError
    results, cpu, relative = {}, {}, {}
    wall = time.perf_counter()
    for name, op in workload.operations():
        start = gauge.cpu_time()
        try:
            results[name] = op(results)
        except Exception:  # an operation that raises is a failed operation
            results[name] = OpError(traceback.format_exc(limit=4).strip().splitlines()[-1])
        cpu[name] = gauge.cpu_time() - start
        with workload.ctx.span("gauge.sample"):   # its own layer in a traced round
            gauge_s.append(gauge.sample(workload.gauge))
        relative[name] = cpu[name] / (0.5 * (gauge_s[-2] + gauge_s[-1]))
    return cpu, relative, time.perf_counter() - wall, results


def round_time(rounds: list[dict[str, float]]) -> float:
    """The sum over operations of each one's median over the rounds."""
    return sum(statistics.median(r[name] for r in rounds) for name in rounds[0])


def setup_samples(ctx) -> dict[str, list[float]]:
    """set-up, import and species-load times of this process and of fresh
    set-up-only ones, and each set-up time divided by a cold-start gauge
    sample taken right after that set-up."""
    import gauge
    samples = {"setup_s": [ctx.setup_s], "import_s": [ctx.import_s],
               "load_ms": [ctx.load_ms], "gauge_s": [ctx.setup_gauge_s],
               "relative": [ctx.setup_s / ctx.setup_gauge_s]}
    for _ in range(N_SETUP_SAMPLES - 1):
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--setup-only"],
                              capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up-only process failed: {proc.stderr.strip()}")
        got = json.loads(proc.stdout.strip().splitlines()[-1])
        for key in ("setup_s", "import_s", "load_ms"):
            samples[key].append(got[key])
        samples["gauge_s"].append(gauge.sample("cold_start"))
        samples["relative"].append(got["setup_s"] / samples["gauge_s"][-1])
    return samples


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up times, exit")
    args = parser.parse_args()

    if not (ROOT / "src" / "trapquad" / "__init__.py").is_file():
        print(f"no trapquad sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    pin_to_one_cpu()
    ctx = set_up()
    if args.setup_only:
        print(json.dumps({"setup_s": ctx.setup_s, "import_s": ctx.import_s,
                          "load_ms": ctx.load_ms}))
        return 0

    import gauge
    ctx.setup_gauge_s = gauge.sample("cold_start")
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    OUT_DIR.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](ctx, args.seed)
    try:
        return measure(args, ctx, workload)
    finally:
        workload.close()


def measure(args, ctx, workload) -> int:
    import gauge
    import layers
    from tracing import Tracer

    tracer = Tracer() if args.trace else None
    cpu, relative, wall, prints = [], [], [], []
    gauge_s = [gauge.sample(workload.gauge)]
    first = None
    while True:
        # the traced run alternates untraced and traced rounds
        if tracer and len(cpu) % 2 == 1:
            with layers.tracing(tracer, ctx), tracer.span("bench.round"):
                op_cpu, op_relative, elapsed, results = run_round(workload, gauge_s)
        else:
            op_cpu, op_relative, elapsed, results = run_round(workload, gauge_s)
        cpu.append(op_cpu)
        relative.append(op_relative)
        wall.append(elapsed)
        prints.append(fingerprint(results))
        if first is None:
            first = results
        if sum(wall) >= args.seconds and len(cpu) >= MIN_ROUNDS:
            break
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    peak_kb += getattr(getattr(workload, "cli", None), "peak_child_kb", 0)

    ops, extra = workload.check(first)
    bad = sorted(op for op, problems in ops.items() if problems)
    unexpected = [op for op in bad if op != workload.known_fault]
    repeatable = all(p == prints[0] for p in prints)
    for op in bad:
        for problem in ops[op][:5]:
            print(f"FAILED {op}: {problem}")
    for problem in extra[:5]:
        print(f"CHECK {problem}")
    if not repeatable:
        print("CHECK a later round did not reproduce the first round's outputs")
    correct = not unexpected and not extra and repeatable
    rounds = len(cpu)

    samples = setup_samples(ctx)
    if tracer:
        overhead = round_time(cpu[1::2]) - round_time(cpu[0::2])
        overhead_pct = 100.0 * (round_time(relative[1::2]) / round_time(relative[0::2]) - 1.0)
        direct = layers.probe(ctx, args.seed, tracer.missing)
        n_traced = len(cpu[1::2])
        metrics = layers.per_layer_metrics(
            tracer, n_traced, direct, statistics.median(samples["import_s"]),
            statistics.median(samples["load_ms"]) / 2, overhead_pct)
        report_layers(tracer, n_traced, overhead)
        tracer.write(OUT_DIR / f"trace-{workload.name}-seed{args.seed}.json",
                     {"workload": workload.name, "seed": args.seed,
                      "op_cpu_s": cpu, "traced_rounds": n_traced})
    else:
        # gauge-relative times, in seconds at the gauges' reference speed
        reference = gauge.REFERENCE_S
        metrics = {
            "setup_s": {"value": reference["cold_start"] * statistics.median(samples["relative"]),
                        "unit": "s"},
            "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
            "workflow_ref_s": {"value": reference[workload.gauge] * round_time(relative),
                               "unit": "s"},
        }
    result = {"correct": correct, "attempted": len(ops) * rounds,
              "failed": len(bad) * rounds, "metrics": metrics}
    (OUT_DIR / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "op_cpu_s": cpu, "op_relative": relative,
                    "round_wall_s": wall, "gauge_s": gauge_s, "setup_samples": samples}, indent=1))
    print(json.dumps(result))
    return 0


def report_layers(tracer, n_rounds, overhead) -> None:
    """Self time per layer and per span name, per traced round."""
    print(f"traced rounds: {n_rounds}; tracing overhead {overhead:+.4f} s per round")
    spans = tracer.aggregate()
    layers_ = tracer.layer_self_time()
    total = sum(layers_.values()) or 1.0
    print(f"{'layer':<12}{'self s/round':>14}{'share':>8}")
    for layer, self_s in sorted(layers_.items(), key=lambda kv: -kv[1]):
        print(f"{layer:<12}{self_s / n_rounds:14.4f}{100 * self_s / total:7.1f}%")
    print(f"{'span':<40}{'calls/round':>12}{'total s':>10}{'self s':>10}")
    for name, row in sorted(spans.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"{name:<40}{row['calls'] / n_rounds:12.0f}"
              f"{row['total_s'] / n_rounds:10.4f}{row['self_s'] / n_rounds:10.4f}")
    if tracer.missing:
        print("names no longer present: " + ", ".join(tracer.missing))


if __name__ == "__main__":
    sys.exit(main())
