"""Scenario construction, run orchestration, manifests, convergence driver.

Scenarios are stated in their own coordinates (the abruptly-ending fiber
strand on [0, X]^2 over [0, T], or a tensor-field file in millimeters);
the solvers integrate the scaled system on the nondimensionalized grid
x/x0, t/T. Every run emits a machine-readable manifest with the resolved
characteristic numbers and the conservation/realizability audits, and
flags the reference-length/domain-extent mismatch of the tabulated
brain parameters when it occurs.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .config import ConfigError, RunConfig
from .diffusion import build_diffusion_fields, run_diffusion
from .fields_io import Field2D, read_tensor_field, write_field
from .grid import GridSpec
from .kinetic import ScalingParams, compute_scaling
from .metrics import relative_difference
from .quadrature import build_quadrature
from .solver import SolverConfig, run_kinetic
from .systems import build_system
from .tissue import WaterTensorField, derive_tissue_fields, synth_fiber_strand


class ScenarioError(ValueError):
    pass


@dataclass
class Scenario:
    """Fully resolved run description on the nondimensional solver grid."""

    name: str
    model: str
    grid: GridSpec                 # nondimensional
    scen_grid: GridSpec            # scenario coordinates (for file output)
    params: ScalingParams
    water: WaterTensorField
    rho0: np.ndarray
    estimator: str
    t_end: float = 1.0             # nondimensional (time unit T)
    output_times: tuple = ()       # nondimensional
    cfl: float = 0.5
    quad_degree: int = 10
    realizability_floor: float = 1e-12
    notes: list = field(default_factory=list)

    def tissue(self):
        return derive_tissue_fields(self.water, self.estimator, self.params)


def _axis_mask(n, frac_center, h, half_w):
    """Indices whose centers fall in the interval; nearest cell(s) if none.

    Index-space arithmetic keeps mirror images exact; an interval narrower
    than a cell falls back to the closest center, with ties kept on both
    sides so symmetric setups stay symmetric.
    """
    idx = np.arange(n)
    dist = np.abs(idx - frac_center) * h
    mask = dist <= half_w + 1e-9 * max(half_w, h)
    if not mask.any():
        mask = dist <= dist.min() * (1.0 + 1e-12) + 1e-300
    return mask


def _square_mask(grid: GridSpec, cx, cy, half_w, scale=1.0):
    """Cell-center membership of [cx-h, cx+h] x [cy-h, cy+h].

    Coordinates are scenario units; `scale` maps them to the grid's units.
    """
    fx = (cx * scale - grid.x0) / grid.dx - 0.5
    fy = (cy * scale - grid.y0) / grid.dy - 0.5
    mx = _axis_mask(grid.nx, fx, grid.dx, half_w * scale)
    my = _axis_mask(grid.ny, fy, grid.dy, half_w * scale)
    return my[:, None] & mx[None, :]


def _scenario(name: str, cfg: RunConfig, water: WaterTensorField, params: ScalingParams,
              notes: list) -> Scenario:
    """The run of `cfg` on `water`, which lives on the scenario grid: the
    nondimensional grid x/x0, the initial square (scenario coordinates)
    and the output times t/T, with x0 and T = t0 from `params`."""
    g = water.grid
    x0 = params.x0
    ngrid = GridSpec(nx=g.nx, ny=g.ny, x0=g.x0 / x0, y0=g.y0 / x0, dx=g.dx / x0, dy=g.dy / x0)
    rho0 = np.full((g.ny, g.nx), cfg.background)
    rho0[_square_mask(g, cfg.center_x, cfg.center_y, cfg.half_width)] = cfg.density
    times = tuple(t / params.t0 for t in cfg.times) or (1.0,)
    return Scenario(
        name=name,
        model=cfg.model,
        grid=ngrid,
        scen_grid=g,
        params=params,
        # same tensors on the nondimensional grid, with any eigenvalues known
        water=replace(water, grid=ngrid),
        rho0=rho0,
        estimator=cfg.estimator,
        t_end=max(times),
        output_times=times,
        cfl=cfg.cfl,
        quad_degree=cfg.quad_degree,
        realizability_floor=cfg.realizability_floor,
        notes=notes,
    )


def build_fiber_strand_scenario(eps: float, config: RunConfig | None = None) -> Scenario:
    """Abruptly ending fiber strand on [0, X]^2 with R = eta = 1.

    Cell speed c = X/(eps*T) sets St = eps; lambda0 = 1/(eps^2 T) and
    lambda1 = k+ = k- = lambda0 give R = eta = 1. The initial condition is
    an isotropic square of density `density` on a `background` floor; both
    numbers are densities rho (the velocity distribution value is rho/4pi).
    """
    if not (0 < eps < math.inf):
        raise ScenarioError(f"eps must be positive and finite, got {eps}")
    cfg = config or RunConfig(eps=eps)
    X = cfg.domain_size
    T = cfg.t_final
    grid = GridSpec(nx=cfg.nx, ny=cfg.ny, x0=0.0, y0=0.0, dx=X / cfg.nx, dy=X / cfg.ny)
    lam0 = 1.0 / (eps * eps * T)
    params = compute_scaling(
        T=T, c=X / (eps * T), lambda0=lam0, lambda1=lam0, kplus=lam0, kminus=lam0, x0=X
    )
    tensors = synth_fiber_strand(X, cfg.strand_sigma, grid, d33=cfg.strand_d33).tensors
    # the strand is mirror-symmetric about x2 = X/2; sampling the cell
    # centers leaves 1-ulp asymmetries that the discrete mirror symmetry
    # of the scheme would otherwise amplify, so pair-average them away
    # (the strand tensor is diagonal: the y-flip acts by row reversal)
    water = WaterTensorField(grid=grid, tensors=0.5 * (tensors + tensors[::-1, :]))
    return _scenario("fiber_strand", cfg, water, params, [])


def build_file_scenario(config: RunConfig) -> Scenario:
    """Tensor-field scenario (brain-slice style) from a TENSORFIELD2D file."""
    if config.physics is None:
        raise ScenarioError("tensor_file scenario needs physics parameters")
    p = config.physics
    water = read_tensor_field(config.tensor_file)
    params = compute_scaling(
        T=p.T_s, c=p.c_mm_s, lambda0=p.lambda0_per_s, lambda1=p.lambda1_per_s,
        kplus=p.kplus_per_s, kminus=p.kminus_per_s, x0=p.x0_mm,
    )
    notes = []
    fgrid = water.grid
    extent = max(fgrid.nx * fgrid.dx, fgrid.ny * fgrid.dy)
    if abs(p.x0_mm - extent) > 0.01 * max(extent, 1e-300):
        notes.append(
            {
                "x0_domain_mismatch": {
                    "x0_mm": p.x0_mm,
                    "domain_extent_mm": extent,
                    "message": (
                        "reference length x0 implied by St differs from the "
                        "computational domain extent; St reflects x0, not the "
                        "domain size"
                    ),
                }
            }
        )
    return _scenario("tensor_file", config, water, params, notes)


def scenario_from_config(cfg: RunConfig) -> Scenario:
    if cfg.scenario == "fiber_strand":
        return build_fiber_strand_scenario(cfg.eps, config=cfg)
    return build_file_scenario(cfg)


@dataclass
class RunOutput:
    scenario: Scenario
    times: list                   # scenario time units
    snapshots: list               # rho fields
    final_rho: np.ndarray
    manifest: dict
    written: list


def run_scenario(sc: Scenario, out_dir=None, write: bool = False) -> RunOutput:
    """Run one scenario (kinetic closure or diffusion) and audit it."""
    tic = time.perf_counter()
    tissue = sc.tissue()
    if sc.model == "diffusion":
        fields = build_diffusion_fields(tissue, sc.params)
        res = run_diffusion(fields, sc.rho0, sc.t_end, output_times=sc.output_times)
    else:
        quad = build_quadrature(sc.quad_degree)
        system = build_system(sc.model, tissue, sc.params, quad)
        cfg = SolverConfig(
            t_end=sc.t_end,
            cfl=sc.cfl,
            realizability_floor=sc.realizability_floor,
        )
        res = run_kinetic(system, sc.grid, sc.rho0, cfg, output_times=sc.output_times)
    wall = time.perf_counter() - tic

    T = sc.params.t0
    times_scen = [t * T for t in res.times]
    manifest = {
        "scenario": sc.name,
        "model": sc.model,
        "estimator": sc.estimator,
        "grid": {
            "nx": sc.grid.nx, "ny": sc.grid.ny,
            "scenario_dx": sc.scen_grid.dx, "scenario_dy": sc.scen_grid.dy,
            "scenario_origin": [sc.scen_grid.x0, sc.scen_grid.y0],
        },
        "scaling": {
            "St": sc.params.eps,
            "Kn": sc.params.kn,
            "R": sc.params.r,
            "eta": sc.params.eta,
            "lambda0_per_s": sc.params.lambda0,
            "lambda1_per_s": sc.params.lambda1,
            "kplus_per_s": sc.params.kplus,
            "kminus_per_s": sc.params.kminus,
            "c_mm_s": sc.params.c,
            "x0_mm": sc.params.x0,
            "t0_s": sc.params.t0,
        },
        "solver": {
            "dt_nondim": res.diagnostics.get("dt"),
            "steps": res.diagnostics.get("nsteps"),
            "cfl": sc.cfl,
            "quad_degree": sc.quad_degree,
        },
        "wall_time_s": wall,
        "conservation": {
            "mass_initial": res.diagnostics.get("mass_initial"),
            "mass_final": res.diagnostics.get("mass_final"),
            "mass_drift_rel": res.diagnostics.get("mass_drift_rel"),
        },
        "realizability": {
            "min_rho": res.diagnostics.get("min_rho"),
            "max_qhat": res.diagnostics.get("max_qhat"),
            "negative_mass_frac": res.diagnostics.get("negative_mass_frac"),
            "limiter_activations": res.diagnostics.get("limiter_activations"),
            "char_fallback_cells": res.diagnostics.get("char_fallback_cells"),
            "closure_fallbacks": res.diagnostics.get("closure_fallbacks", 0),
            "closure_iterations": res.diagnostics.get("closure_iterations", 0),
        },
        "notes": sc.notes,
        "outputs": [],
    }

    written = []
    if write:
        out = Path(out_dir or "runs")
        out.mkdir(parents=True, exist_ok=True)
        for t_scen, rho in zip(times_scen, res.snapshots):
            path = out / f"{sc.name}_{sc.model}_rho_t{t_scen:.6g}.txt"
            write_field(path, Field2D(name="rho", grid=sc.scen_grid, time=t_scen, values=rho))
            written.append(str(path))
        manifest["outputs"] = written
        mpath = out / f"{sc.name}_{sc.model}_manifest.json"
        with open(mpath, "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
        written.append(str(mpath))
    return RunOutput(
        scenario=sc,
        times=times_scen,
        snapshots=res.snapshots,
        final_rho=res.final_rho,
        manifest=manifest,
        written=written,
    )


def convergence_study(
    eps_list,
    model: str,
    grid_n: int = 60,
    config: RunConfig | None = None,
) -> list[dict]:
    """relerr(model, diffusion) at t = T for each eps (diffusion run once).

    The study runs the fiber strand; `config` supplies its other settings
    and is not modified. The diffusion limit does not depend on eps for the
    strand scaling (R = eta = 1 throughout), so a single reference run
    serves all of them.
    """
    if config is not None and config.scenario != "fiber_strand":
        raise ConfigError(
            f"convergence runs the fiber_strand scenario, not scenario = {config.scenario}"
        )
    eps_list = [float(e) for e in eps_list]
    if not eps_list or not all(0 < e < math.inf for e in eps_list):
        raise ConfigError(f"eps must be one or more positive finite values, got {eps_list}")
    base = replace(config or RunConfig(), nx=grid_n, ny=grid_n)

    ref_cfg = replace(base, model="diffusion")
    ref = run_scenario(build_fiber_strand_scenario(eps_list[0], config=ref_cfg))
    rows = []
    for eps in eps_list:
        cfg = replace(base, eps=eps, model=model)
        out = run_scenario(build_fiber_strand_scenario(eps, config=cfg))
        rep = relative_difference(out.final_rho, ref.final_rho, out.scenario.grid)
        rows.append(
            {
                "eps": eps,
                "max_relerr": rep.max,
                "mean_relerr": rep.mean,
                "areas": rep.areas,
            }
        )
    return rows
