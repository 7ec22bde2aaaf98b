"""The benchmark's workloads and the checks every run's output must pass.

Each workload goes through the package's public entry points
(`build_fiber_strand_scenario` or `build_file_scenario`, then
`run_scenario`). Horizons are short enough that one run takes about two
seconds on a 2-core Xeon, so a timed window holds several runs and the
reported medians are steady.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from moment_glioma import scenarios
from moment_glioma.config import PHYSICS_PRESETS, PhysicsConfig, RunConfig
from moment_glioma.fields_io import write_tensor_field

from synth import synth_brain_tensors

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"

#: seed whose final density is stored under reference/
DEFAULT_SEED = 0
#: max |rho - rho_ref| / max |rho_ref| allowed against the stored reference;
#: far above the solvers' Newton tolerances (1e-10), far below any change of
#: scheme or closure (>= 1e-4 on these runs)
REFERENCE_RTOL = 1e-6
#: relative mass-balance residual allowed at the end of a run
MASS_DRIFT_MAX = 1e-10

BRAIN_N = 128
BRAIN_H_MM = 1.0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    model: str
    steps: int                # expected step count, checked on every run
    seeded: bool              # does the seed change the inputs?
    eps: float = 0.25
    n: int = 40
    t_end: float = 2.0        # scenario time units (the strand's T is 2.0)
    background: float = 1e-4

    def config(self, seed: int, workdir: Path) -> RunConfig:
        """Inputs for one seed; writes the tensor file for file scenarios."""
        if self.model != "diffusion":
            return RunConfig(
                eps=self.eps, nx=self.n, ny=self.n, model=self.model,
                background=self.background, times=(self.t_end,),
            )
        path = workdir / f"brain_seed{seed}.tensor"
        write_tensor_field(path, synth_brain_tensors(seed, BRAIN_N, BRAIN_H_MM))
        physics = PhysicsConfig(**PHYSICS_PRESETS["brain_dti"])
        centre = 0.5 * BRAIN_N * BRAIN_H_MM
        cfg = RunConfig(
            scenario="tensor_file", tensor_file=str(path), physics=physics,
            model="diffusion", estimator="FA", background=self.background,
            center_x=centre, center_y=centre, half_width=4.0 * BRAIN_H_MM,
            times=(self.t_end * physics.T_s,),
        )
        cfg.validate()
        return cfg

    def build(self, cfg: RunConfig):
        # looked up on the module at call time, so a traced run sees the wrapper
        if cfg.scenario == "tensor_file":
            return scenarios.build_file_scenario(cfg)
        return scenarios.build_fiber_strand_scenario(cfg.eps, config=cfg)

    @property
    def cells(self) -> int:
        return BRAIN_N * BRAIN_N if self.model == "diffusion" else self.n * self.n

    @property
    def reference_path(self) -> Path:
        return REFERENCE_DIR / f"{self.name}.npy"


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="strand-k1f-vacuum",
            why=(
                "K1F, sharp data at small eps on a 1e-10 floor: DG Newton source and "
                "K1F projectors carry the run; the only workload where the "
                "realizability limiter fires"
            ),
            model="K1F", eps=0.1, n=40, t_end=0.08, background=1e-10,
            steps=64, seeded=False,
        ),
        Workload(
            name="strand-m1f",
            why=(
                "M1F: repeated dual Newton closure solves dominate; blends toward "
                "componentwise slopes; limiter evaluated but idle"
            ),
            model="M1F", eps=0.25, n=20, t_end=0.075, steps=12, seeded=False,
        ),
        Workload(
            name="strand-p3f",
            why=(
                "P3F, linear closure: heavy per-cell setup and memory, 16x16 "
                "characteristic transforms; bypasses Newton, limiter and closure solves"
            ),
            model="P3F", eps=0.25, n=40, t_end=0.5, steps=160, seeded=False,
        ),
        Workload(
            name="brain-diffusion",
            why=(
                "seeded 128x128 synthetic DTI slice, diffusion limit: the only run "
                "through fields_io, the per-cell tissue loop and the diffusion solver"
            ),
            model="diffusion", t_end=0.0015, steps=226, seeded=True,
        ),
    )
}


def check_output(w: Workload, out, seed: int, floor: float,
                 with_reference: bool = True) -> list[str]:
    """Problems with one run's output; empty when the run is correct."""
    problems = []
    m = out.manifest
    rho = np.asarray(out.final_rho)
    if not np.all(np.isfinite(rho)):
        problems.append("final rho has non-finite values")
    steps = m["solver"]["steps"]
    if steps != w.steps:
        problems.append(f"steps {steps} != expected {w.steps}")
    drift = m["conservation"]["mass_drift_rel"]
    if not (drift is not None and np.isfinite(drift) and drift <= MASS_DRIFT_MAX):
        problems.append(f"mass_drift_rel {drift} > {MASS_DRIFT_MAX}")
    real = m["realizability"]
    if w.model in ("K1F", "M1F"):
        if not real["min_rho"] >= floor * (1.0 - 1e-12):
            problems.append(f"min rho {real['min_rho']} below floor {floor}")
        if not real["max_qhat"] <= 1.0 + 1e-12:
            problems.append(f"max |q|/rho {real['max_qhat']} > 1")
    elif w.model != "diffusion" and not np.isfinite(real["max_qhat"]):
        problems.append("max |q|/rho is not finite")
    if with_reference and (not w.seeded or seed == DEFAULT_SEED):
        if not w.reference_path.exists():
            problems.append(f"reference {w.reference_path.name} is missing")
        else:
            ref = np.load(w.reference_path)
            err = (float(np.max(np.abs(rho - ref)) / np.max(np.abs(ref)))
                   if ref.shape == rho.shape else np.inf)
            if not err <= REFERENCE_RTOL:
                problems.append(f"rho differs from the reference by {err:.3e} > {REFERENCE_RTOL}")
    return problems


def exact_counts(out) -> dict:
    """Manifest counts that must repeat exactly across runs of one commit."""
    m = out.manifest
    real = m["realizability"]
    return {
        "steps": m["solver"]["steps"],
        "limiter_activations": real.get("limiter_activations") or 0,
        "char_fallback_cells": real.get("char_fallback_cells") or 0,
        "closure_fallbacks": real.get("closure_fallbacks") or 0,
        "mass_drift_rel": m["conservation"]["mass_drift_rel"],
    }
