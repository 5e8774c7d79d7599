"""Which names are wrapped, the layer probe, and the per-layer metrics.

Counts (calls across a boundary, points) and per-call times are read from
the workload's traced rounds; a workload that never makes a call reports 0
for it.  The 3j/6j per-call times, `hq_matrix` on Lu+ 3D2, in-process
`cli.main` and the Floquet oracle (time and ODE right-hand sides) are taken
from the probe, on the inputs the metric names: no workload makes these calls.
"""

from __future__ import annotations

import os
import statistics
import time
from contextlib import contextmanager

import numpy as np

import checks as ref
from tracing import Tracer
from workloads import LIGHT_STEPS, TWO_PI, CliRunner


def _points(args, kwargs) -> dict:
    # transfer_probabilities(omega_q, omega_0, detuning_rf, detuning_laser, tau)
    laser = kwargs.get("detuning_laser", args[3] if len(args) > 3 else 0.0)
    return {"dynamics.transfer_points": int(np.size(laser))}


def _rhs_evals(sol) -> dict:
    return {"dynamics.oracle_rhs_evals": int(sol.nfev)}


def boundaries(ctx):
    """(module, name it calls, span name or None, on_call, on_result)."""
    c = ctx
    return [
        # coupling -> angular
        (c.coupling, "wigner_3j", "angular.wigner_3j", None, None),
        (c.coupling, "wigner_6j", "angular.wigner_6j", None, None),
        (c.coupling, "wigner_D2", "angular.wigner_D2", None, None),
        # effects -> coupling
        (c.effects, "coupling_amplitude", "coupling.coupling_amplitude", None, None),
        # inference -> dynamics, counting the points of each batch
        (c.inference, "transfer_probabilities", "dynamics.transfer_probabilities", _points, None),
        # entry points the workloads call
        (c.coupling, "hq_matrix", "coupling.hq_matrix", None, None),
        (c.effects, "shift_decomposition", "effects.shift_decomposition", None, None),
        (c.effects, "clock_shift", "effects.clock_shift", None, None),
        (c.effects, "hyperfine_average", "effects.hyperfine_average", None, None),
        (c.effects, "sideband_index", "effects.sideband_index", None, None),
        (c.effects, "offresonant_zeeman_shift", "effects.offresonant_zeeman_shift", None, None),
        (c.inference, "simulate_counts", "inference.simulate_counts", None, None),
        (c.inference, "noise_averaged_signal", "inference.noise_averaged_signal", None, None),
        (c.inference, "fit_spectrum", "inference.fit_spectrum", None, None),
        (c.inference, "combine_runs", "inference.combine_runs", None, None),
        (c.inference, "extract_theta", "inference.extract_theta", None, None),
    ]


@contextmanager
def tracing(tracer, ctx):
    """Wrap every boundary name and route `ctx.span` to the tracer."""
    for module, attr, span, on_call, on_result in boundaries(ctx):
        tracer.wrap(module, attr, span, on_call, on_result)
    untraced, ctx.span = ctx.span, tracer.span
    try:
        yield
    finally:
        tracer.restore()
        ctx.span = untraced


# -- the layer probe ------------------------------------------------------------
def _wigner_us(fn, sample) -> float:
    args = [tuple(x / 2 for x in t) for t in sample]
    start = time.perf_counter()
    for a in args:
        fn(*a)
    return (time.perf_counter() - start) / len(args) * 1e6


def _hq_matrix_s(ctx) -> float:
    """One H_Q over Lu+ 3D2, F = 5..9 (75 states), at a fixed orientation."""
    level = ctx.lu.level("3D2")
    trap = ctx.lu_trap.with_orientation(ctx.angular.EulerAngles(0.8, 1.1))
    start = time.perf_counter()
    ctx.coupling.hq_matrix(level, trap, level.f_values())
    return time.perf_counter() - start


def _oracle(ctx, missing: list[str]) -> dict:
    """One `floquet_oracle_from_rwa` at the experiment's drive ratio over 20 us,
    and the right-hand-side evaluations of its explicit-drive ODE."""
    dyn = ctx.dynamics
    omega_q = TWO_PI * 1.7e3
    system = dyn.RwaSystem(omega_q, omega_q, 0.1 * omega_q, -0.2 * omega_q)
    counter = Tracer()
    counter.wrap(dyn, "solve_ivp", None, None, _rhs_evals)
    try:
        start = time.perf_counter()
        dyn.floquet_oracle_from_rwa(system, TWO_PI * 20.585e6, 20e-6)
        elapsed = time.perf_counter() - start
    finally:
        counter.restore()
        missing.extend(counter.missing)
    return {"dynamics.oracle_call_s": elapsed,
            "dynamics.oracle_rhs_evals": counter.counts["dynamics.oracle_rhs_evals"]}


def _main_ms(ctx) -> float:
    """In-process `cli.main(argv)` per light step, with imports warm."""
    runner = CliRunner(ctx.root, ctx.out_dir / f"probe-main-{os.getpid()}", seed=0)
    here = os.getcwd()
    os.chdir(runner.workdir)   # the steps name their files relative to it
    try:
        start = time.perf_counter()
        for _, argv in LIGHT_STEPS:
            ctx.cli.main(argv)
        return (time.perf_counter() - start) / len(LIGHT_STEPS) * 1e3
    finally:
        os.chdir(here)
        runner.remove()


def probe(ctx, seed: int, missing: list[str]) -> dict:
    """Untraced fixed-input timings of the calls no workload makes as the
    metric names them."""
    three, six = ref.wigner_sample(np.random.default_rng([seed, 99]), 2000)
    measures = [
        lambda: {"angular.wigner_3j_us": _wigner_us(ctx.angular.wigner_3j, three)},
        lambda: {"angular.wigner_6j_us": _wigner_us(ctx.angular.wigner_6j, six)},
        lambda: {"coupling.hq_matrix_s": _hq_matrix_s(ctx)},
        lambda: {"cli.main_ms": _main_ms(ctx)},
        lambda: _oracle(ctx, missing),
    ]
    direct = {}
    for measure in measures:
        try:
            direct.update(measure())
        except AttributeError as exc:   # a public name a refactor removed
            missing.append(f"probe: {exc}")
    return direct


# -- per-layer metrics ------------------------------------------------------------
PER_LAYER = [
    # name, unit
    ("angular.wigner_3j_us", "us"), ("angular.wigner_6j_us", "us"),
    ("angular.wigner_3j_calls", "count"), ("angular.wigner_6j_calls", "count"),
    ("coupling.hq_matrix_s", "s"), ("coupling.coupling_amplitude_calls", "count"),
    ("effects.shift_decomposition_ms", "ms"), ("effects.clock_shift_ms", "ms"),
    ("effects.offresonant_shift_ms", "ms"),
    ("dynamics.transfer_us_per_point", "us"), ("dynamics.transfer_points", "count"),
    ("dynamics.oracle_call_s", "s"), ("dynamics.oracle_rhs_evals", "count"),
    ("inference.fit_s", "s"), ("inference.model_evals", "count"),
    ("inference.simulate_counts_ms", "ms"), ("inference.noise_averaged_ms", "ms"),
    ("species.load_ms", "ms"),
    ("cli.import_s", "s"), ("cli.cold_start_s", "s"), ("cli.main_ms", "ms"),
    ("trace.overhead_pct", "%"),
]


def per_layer_metrics(tracer, n_rounds: int, direct: dict, import_s: float,
                      load_ms: float, overhead_pct: float) -> dict:
    spans, counts = tracer.aggregate(), tracer.counts

    def per_call(name, scale):
        row = spans.get(name)
        return row["total_s"] / row["calls"] * scale if row else 0.0

    def per_round(key):
        return counts.get(key, 0) / n_rounds

    row = spans.get("dynamics.transfer_probabilities")
    points = counts.get("dynamics.transfer_points", 0)
    transfer_us = row["total_s"] / points * 1e6 if row and points else 0.0

    n_fits = spans.get("inference.fit_spectrum", {}).get("calls", 0)
    evals = tracer.child_calls("inference.fit_spectrum", "dynamics.transfer_probabilities")
    cold = tracer.durations("cli.cold_start")

    values = {
        **direct,
        "angular.wigner_3j_calls": per_round("angular.wigner_3j.calls"),
        "angular.wigner_6j_calls": per_round("angular.wigner_6j.calls"),
        "coupling.coupling_amplitude_calls": per_round("coupling.coupling_amplitude.calls"),
        "effects.shift_decomposition_ms": per_call("effects.shift_decomposition", 1e3),
        "effects.clock_shift_ms": per_call("effects.clock_shift", 1e3),
        "effects.offresonant_shift_ms": per_call("effects.offresonant_zeeman_shift", 1e3),
        "dynamics.transfer_us_per_point": transfer_us,
        "dynamics.transfer_points": per_round("dynamics.transfer_points"),
        "inference.fit_s": per_call("inference.fit_spectrum", 1.0),
        "inference.model_evals": evals / n_fits if n_fits else 0.0,
        "inference.simulate_counts_ms": per_call("inference.simulate_counts", 1e3),
        "inference.noise_averaged_ms": per_call("inference.noise_averaged_signal", 1e3),
        "species.load_ms": load_ms,
        "cli.import_s": import_s,
        "cli.cold_start_s": statistics.median(cold) if cold else 0.0,
        "trace.overhead_pct": overhead_pct,
    }
    return {name: {"value": values.get(name, 0.0), "unit": unit} for name, unit in PER_LAYER}
