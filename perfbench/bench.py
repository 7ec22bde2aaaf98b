"""Measurement, checks and reporting behind run.py (see its docstring)."""

from __future__ import annotations

import json
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from moment_glioma import scenarios

import calibrate
import tracing
from tracing import median, percentile
from workloads import DEFAULT_SEED, WORKLOADS, check_output, exact_counts

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".bench_work"

# name -> unit; every run with --trace 0 reports all of them
END_TO_END = {
    "time_to_solution_s": "s",
    "setup_s": "s",
    "cell_steps_per_s": "cellsteps/s",
    "peak_rss_mb": "MB",
    "ok_run_frac": "ratio",
}


def per_layer_metrics(st, counts: dict, model: str) -> dict:
    """name -> (value, unit) from one traced run's span statistics."""
    dg_calls = st.n("solver.dg_source_step")
    closure_calls = (
        sum(st.n(f"systems.{m}") for m in
            ("flux", "source", "source_jacobian", "boundary_flux", "char_data"))
        if model == "M1F" else 0
    )
    m = {
        "solver.strang_step.calls": (st.n("solver.strang_step"), "count"),
        "solver.strang_step.p50_ms": (st.p_ms("solver.strang_step", 50), "ms"),
        "solver.strang_step.p95_ms": (st.p_ms("solver.strang_step", 95), "ms"),
        "solver.strang_step.self_s": (st.own("solver.strang_step"), "s"),
        "solver.flux_step.s": (st.s("solver.flux_step"), "s"),
        "solver.flux_step.self_s": (st.own("solver.flux_step"), "s"),
        "solver.dg_source_step.calls": (dg_calls, "count"),
        "solver.dg_source_step.s": (st.s("solver.dg_source_step"), "s"),
        "solver.dg_source_step.self_s": (st.own("solver.dg_source_step"), "s"),
        "solver.dg_linear_propagator.s": (st.s("solver.dg_linear_propagator"), "s"),
        # three Gauss-node source (and Jacobian) evaluations per Newton
        # iteration (and per chord rebuild) of the DG(2) source solve
        "solver.dg_newton_iters_per_half_step": (
            st.n("systems.source") / (3 * dg_calls) if dg_calls else 0.0, "ratio"),
        "solver.dg_chord_rebuilds": (
            st.n("systems.source_jacobian") / 3 if dg_calls else 0.0, "count"),
        "systems.build_system.s": (st.s("systems.build_system"), "s"),
        "systems.source.calls": (st.n("systems.source"), "count"),
        "systems.source.s": (st.s("systems.source"), "s"),
        "systems.source_jacobian.calls": (st.n("systems.source_jacobian"), "count"),
        "systems.flux.s": (st.s("systems.flux"), "s"),
        "systems.char_data.s": (st.s("systems.char_data"), "s"),
        "systems.char_slopes.s": (st.s("systems.char_slopes"), "s"),
        "systems.boundary_flux.s": (st.s("systems.boundary_flux"), "s"),
        "systems.realizable_mask.calls": (st.n("systems.realizable_mask"), "count"),
        "systems.realizable_mask.s": (st.s("systems.realizable_mask"), "s"),
        "systems.closure_calls": (closure_calls, "count"),
        "systems.closure_fallbacks_per_call": (
            counts["closure_fallbacks"] / closure_calls if closure_calls else 0.0, "ratio"),
        "fields_io.read_tensor_field.s": (st.s("fields_io.read_tensor_field"), "s"),
        "tissue.derive_tissue_fields.s": (st.s("tissue.derive_tissue_fields"), "s"),
        "diffusion.build_diffusion_fields.s": (st.s("diffusion.build_diffusion_fields"), "s"),
        "diffusion.diffusion_step.calls": (st.n("diffusion.diffusion_step"), "count"),
        "diffusion.diffusion_step.s": (st.s("diffusion.diffusion_step"), "s"),
        "diffusion.diffusion_step.p50_ms": (st.p_ms("diffusion.diffusion_step", 50), "ms"),
        "diffusion.stability_bound.s": (st.s("diffusion.stability_bound"), "s"),
    }
    for layer in tracing.LAYERS:
        m[f"{layer}.self_s"] = (st.layer_self.get(layer, 0.0), "s")
    for key, value in counts.items():
        m[f"manifest.{key}"] = (value, "ratio" if key == "mass_drift_rel" else "count")
    m["trace.wall_s"] = (st.wall, "s")
    m["trace.unattributed_s"] = (st.own(tracing.ROOT), "s")
    return m


class Runner:
    """Runs one workload repeatedly and keeps what each run measured."""

    def __init__(self, workload, seed: int):
        self.w = workload
        self.seed = seed
        self.cfg = workload.config(seed, WORKDIR)  # writes inputs, untimed
        self.tracer = tracing.Tracer()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.plain: list[dict] = []    # untraced runs
        self.traced: list[dict] = []
        self.last_spans: list = []
        self.loop_s: list[float] = []  # calibration loops, one before and after each run
        calibrate.loop_seconds()       # first pass warms numpy up; not used

    def run(self, traced: bool) -> dict | None:
        """One checked run; returns its record, or None if it failed."""
        tr = self.tracer
        tr.reset()
        self.attempted += 1
        try:
            with tracing.instrument(tr, only=None if traced else tracing.SETUP):
                timed_run = tr.wrap(lambda: scenarios.run_scenario(self.w.build(self.cfg)),
                                    tracing.ROOT)
                out = timed_run()
        except Exception:  # a run that raises is a failed run; keep measuring
            self.failed += 1
            self.problems.append(f"run raised: {traceback.format_exc(limit=3)}")
            return None
        problems = check_output(self.w, out, self.seed, self.cfg.realizability_floor)
        if problems:
            self.failed += 1
            self.problems.extend(problems)
            return None
        _, start, end, _ = tr.spans[0]  # the ROOT span opens first
        tts = end - start
        setup = tracing.setup_seconds(tr.spans)
        rec = {
            "tts": tts,
            "setup": setup,
            "cell_steps_per_s": self.w.cells * out.manifest["solver"]["steps"] / (tts - setup),
            "counts": exact_counts(out),
        }
        if traced:
            st = tracing.SpanStats(tr.spans)
            if abs(sum(st.self_s.values()) - st.wall) > 1e-9 * st.wall or st.min_self < -1e-9:
                self.problems.append("span self times do not add up to the traced wall time")
            rec["layers"] = per_layer_metrics(st, rec["counts"], self.w.model)
            self.last_spans = list(tr.spans)
            self.traced.append(rec)
        else:
            self.plain.append(rec)
        return rec

    def measure(self, seconds: float, trace: bool) -> None:
        # No warm-up run: a user of `simulate` runs one scenario per process and
        # pays the first run's cost, and first runs measured no slower than later ones.
        # A calibration loop before and after each run gives the run's speed scale.
        plan = (False, True) if trace else (False,)
        t0 = time.perf_counter()
        cycles = []
        self.loop_s.append(calibrate.loop_seconds())
        while True:
            c0 = time.perf_counter()
            for traced in plan:
                rec = self.run(traced)
                self.loop_s.append(calibrate.loop_seconds())
                if rec is not None:
                    rec["scale"] = calibrate.speed_scale(*self.loop_s[-2:])
            cycles.append(time.perf_counter() - c0)
            # stop at the cycle whose end lands closest to the deadline
            if time.perf_counter() + 0.5 * median(cycles) > t0 + seconds:
                break

    def exact_repeat_problems(self) -> list[str]:
        """Counts that differ between runs of one commit (they must not)."""
        out = []
        runs = self.plain + self.traced
        if any(r["counts"] != runs[0]["counts"] for r in runs):
            out.append("manifest counts differ between runs: "
                       + "; ".join(str(r["counts"]) for r in runs))
        calls = [{k: v for k, (v, unit) in r["layers"].items() if unit == "count"}
                 for r in self.traced]
        if any(c != calls[0] for c in calls):
            out.append("traced call counts differ between runs")
        return out


def tail_note(values) -> str:
    """The highest percentile with at least ten runs beyond it, if any."""
    n = len(values)
    if n < 11:
        return f"n={n} runs; no percentile has ten runs beyond it"
    q = int(100 * (1 - 10 / n))
    return f"n={n} runs; p{q}={percentile(values, q):.6g}"


def environment() -> dict:
    env = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "numpy": np.__version__,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        env["blas"] = "unknown"
    return env


def run_one(args) -> int:
    w = WORKLOADS[args.workload]
    WORKDIR.mkdir(exist_ok=True)
    runner = Runner(w, args.seed)
    try:
        runner.measure(args.seconds, bool(args.trace))
    finally:
        if runner.cfg.tensor_file:
            Path(runner.cfg.tensor_file).unlink(missing_ok=True)
    problems = runner.problems + runner.exact_repeat_problems()
    if not runner.plain or (args.trace and not runner.traced):
        problems.append("no run completed")
    env = environment()
    print(f"# workload {w.name}: {w.why}")
    print(f"# environment {json.dumps(env, sort_keys=True)}")
    if args.trace:
        metrics = traced_metrics(runner)
        meta = {"workload": w.name, "seed": args.seed, "environment": env}
        tracing.write_spans(WORKDIR / f"trace_{w.name}.json", runner.last_spans, meta)
    else:
        metrics = end_to_end_metrics(runner)
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    for p in problems:
        print(f"# problem: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


def end_to_end_metrics(runner: Runner) -> dict:
    """Medians over the untraced runs, each run's times in reference seconds."""
    plain = runner.plain
    tts = [r["tts"] * r["scale"] for r in plain]
    values = {
        "time_to_solution_s": median(tts),
        "setup_s": median([r["setup"] * r["scale"] for r in plain]),
        "cell_steps_per_s": median([r["cell_steps_per_s"] / r["scale"] for r in plain]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_run_frac": (runner.attempted - runner.failed) / runner.attempted,
    }
    print(f"# time_to_solution_s: median {values['time_to_solution_s']:.6g} s, "
          f"{tail_note(tts)}; runs: {' '.join(f'{t:.4f}' for t in tts)}")
    wall = " ".join(f"{r['tts']:.4f}" for r in plain)
    print(f"# wall time of the same runs, unscaled: {wall}; calibration loop median "
          f"{median(runner.loop_s):.4f} s (reference {calibrate.REFERENCE_S} s)")
    print(f"# failed_run_frac: {runner.failed}/{runner.attempted} = "
          f"{runner.failed / runner.attempted:.6g}")
    for k, v in (plain[0]["counts"] if plain else {}).items():
        print(f"# count {k}: {v}")
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def traced_metrics(runner: Runner) -> dict:
    """Per-layer metrics: the median of each over the traced runs."""
    if not runner.traced:
        return {}
    layers = [r["layers"] for r in runner.traced]
    metrics = {
        name: {"value": median([lm[name][0] for lm in layers]), "unit": unit}
        for name, (_, unit) in layers[0].items()
    }
    plain_tts = median([r["tts"] * r["scale"] for r in runner.plain])
    traced_tts = median([r["tts"] * r["scale"] for r in runner.traced])
    metrics["trace_overhead_frac"] = {
        "value": traced_tts / plain_tts - 1.0 if plain_tts else 0.0,
        "unit": "ratio",
    }
    # what the scaling starts from: unscaled wall times and the loop that gauges speed
    metrics["wall.time_to_solution_s"] = {
        "value": median([r["tts"] for r in runner.plain]), "unit": "s"}
    metrics["wall.setup_s"] = {
        "value": median([r["setup"] for r in runner.plain]), "unit": "s"}
    metrics["calibration.loop_s"] = {"value": median(runner.loop_s), "unit": "s"}
    return metrics


def run_all(args) -> int:
    """Each workload in a fresh process; a combined result line at the end."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve().parent / "run.py"),
               "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            total["correct"] = False
            continue
        res = json.loads(lines[-1])
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            total["metrics"][f"{name}/{k}"] = v
    print(json.dumps(total))
    return 0


def write_references() -> int:
    WORKDIR.mkdir(exist_ok=True)
    for w in WORKLOADS.values():
        cfg = w.config(DEFAULT_SEED, WORKDIR)
        out = scenarios.run_scenario(w.build(cfg))
        problems = check_output(w, out, DEFAULT_SEED, cfg.realizability_floor,
                                with_reference=False)
        if problems:
            print(f"{w.name}: {problems}", file=sys.stderr)
            return 1
        np.save(w.reference_path, out.final_rho)
        print(f"wrote {w.reference_path.relative_to(ROOT)}")
        if cfg.tensor_file:
            Path(cfg.tensor_file).unlink()
    return 0


def main(args) -> int:
    if args.write_reference:
        return write_references()
    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    return run_one(args)
