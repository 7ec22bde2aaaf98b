"""Inputs and runs pinned by the golden tests (tests/golden/).

Shared by tests/test_golden.py and tests/golden/make_golden.py, so the
files and the tests that read them describe the same cases.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from moment_glioma.config import PHYSICS_PRESETS, PhysicsConfig, RunConfig
from moment_glioma.fields_io import write_tensor_field
from moment_glioma.grid import GridSpec
from moment_glioma.kinetic import ScalingParams
from moment_glioma.scenarios import build_fiber_strand_scenario, build_file_scenario, run_scenario
from moment_glioma.solver import run_kinetic
from moment_glioma.systems import build_system
from moment_glioma.tissue import WaterTensorField, derive_tissue_fields, synth_fiber_strand

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

#: seeded anisotropic tensor field: grid, spacing (mm) and horizon (units of T)
ANISO_SEED = 20180108
ANISO_NX, ANISO_NY, ANISO_H_MM = 24, 20, 1.0
ANISO_T_END = 5e-4

#: fiber-strand tissue: grid and strand scaling (X = 3, T = 2, eps = 0.1).
#: At eps = 0.1 some lamH values differ in the last bit between x*x and
#: libm pow(x, 2), so the file pins how the squaring is rounded as well.
STRAND_N = 24
STRAND_X, STRAND_T, STRAND_EPS = 3.0, 2.0, 0.1

#: kinetic strand runs on the same grid: (model, eps, background, horizon).
#: K1F on a near-vacuum floor makes the realizability limiter fire (about
#: 1.4e4 face limitings in 39 steps); M1F (8 steps) runs the DG Newton
#: source and the dual closure solves, whose rounding it pins bitwise. P3F
#: and P1 run the linear closures (per-cell flux, source and characteristic
#: matrices built once, the DG source as one propagator).
KINETIC_RUNS = {
    "K1F": ("K1F", 0.1, 1e-10, 0.08),
    "M1F": ("M1F", 0.25, 1e-4, 0.04),
    "P3F": ("P3F", 0.25, 1e-4, 0.2),
    "P1": ("P1", 0.25, 1e-4, 0.2),
}


def anisotropic_tensors(seed: int) -> np.ndarray:
    """Smooth random water tensors (ANISO_NY, ANISO_NX, 3, 3), mm^2/s.

    Each cell is R diag(lam_perp, lam_perp, lam_par) R^T with the fiber
    direction tilted out of the plane, so every off-diagonal entry is used.
    The array is exactly symmetric, so the text format (upper triangle,
    repr floats) stores it bit-exactly.
    """
    rng = np.random.default_rng(seed)
    y, x = np.meshgrid(np.arange(ANISO_NY), np.arange(ANISO_NX), indexing="ij")
    phase = rng.uniform(0.0, 2.0 * np.pi, size=4)
    theta = np.pi * np.sin(2 * np.pi * x / ANISO_NX + phase[0]) * np.cos(
        2 * np.pi * y / ANISO_NY + phase[1]
    )
    tilt = 0.3 * np.sin(2 * np.pi * (x + y) / ANISO_NX + phase[2])
    aniso = 2.0 + 1.5 * np.sin(2 * np.pi * y / ANISO_NY + phase[3]) + 0.1 * rng.random(x.shape)
    fiber = np.stack(
        [np.cos(theta) * np.cos(tilt), np.sin(theta) * np.cos(tilt), np.sin(tilt)], axis=-1
    )
    lam_perp = 3.0e-4
    t = lam_perp * (
        np.eye(3) + aniso[..., None, None] * np.einsum("...i,...j->...ij", fiber, fiber)
    )
    return 0.5 * (t + np.swapaxes(t, -1, -2))


def tensor_file_scenario(tensors: np.ndarray, workdir: Path, model: str):
    """Scenario of the tensor field read back from a TENSORFIELD2D file."""
    grid = GridSpec(nx=ANISO_NX, ny=ANISO_NY, dx=ANISO_H_MM, dy=ANISO_H_MM)
    path = Path(workdir) / "aniso.tensor"
    write_tensor_field(path, WaterTensorField(grid=grid, tensors=tensors))
    physics = PhysicsConfig(**PHYSICS_PRESETS["brain_dti"])
    cfg = RunConfig(
        scenario="tensor_file", tensor_file=str(path), physics=physics,
        model=model, estimator="FA", background=1e-4,
        center_x=0.4 * ANISO_NX * ANISO_H_MM, center_y=0.5 * ANISO_NY * ANISO_H_MM,
        half_width=2.0 * ANISO_H_MM, times=(ANISO_T_END * physics.T_s,),
    )
    cfg.validate()
    return build_file_scenario(cfg)


def run_tensor_file_diffusion(tensors: np.ndarray, workdir: Path) -> np.ndarray:
    """Diffusion-limit run of the tensor field through a TENSORFIELD2D file."""
    return run_scenario(tensor_file_scenario(tensors, workdir, "diffusion")).final_rho


def run_tensor_file_k1f(tensors: np.ndarray, workdir: Path):
    """K1F run of the same file scenario: (final state, diagnostics)."""
    return kinetic_run(tensor_file_scenario(tensors, workdir, "K1F"))


def strand_tissue(estimator: str):
    """Tissue fields of the fiber strand on a STRAND_N^2 grid."""
    X, T, eps = STRAND_X, STRAND_T, STRAND_EPS
    lam0 = 1.0 / (eps * eps * T)
    params = ScalingParams(
        t0=T, c=X / (eps * T), lambda0=lam0, lambda1=lam0, kplus=lam0, kminus=lam0, x0=X
    )
    grid = GridSpec(nx=STRAND_N, ny=STRAND_N, dx=X / STRAND_N, dy=X / STRAND_N)
    return derive_tissue_fields(synth_fiber_strand(X, 0.1, grid), estimator, params)


def strand_kinetic_scenario(name: str):
    """The scenario of one of KINETIC_RUNS on the strand grid."""
    model, eps, background, t_end = KINETIC_RUNS[name]
    cfg = RunConfig(
        eps=eps, nx=STRAND_N, ny=STRAND_N, model=model, background=background, times=(t_end,)
    )
    cfg.validate()
    return build_fiber_strand_scenario(cfg.eps, config=cfg)


def strand_kinetic_run(name: str):
    """One of KINETIC_RUNS on the strand grid: (final state, diagnostics)."""
    return kinetic_run(strand_kinetic_scenario(name))


def kinetic_run(sc):
    """Run a kinetic scenario to its end: (final state, diagnostics)."""
    system = build_system(sc.model, sc.tissue(), sc.params)
    res = run_kinetic(system, sc.rho0, sc.t_end)
    return res.final_state, res.diagnostics
