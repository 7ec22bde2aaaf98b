"""The run layout in time shared by the kinetic and diffusion solvers.

A run takes `step_count` equal steps over [0, t_end]. `run_steps` advances
them, records the density at the requested output times (each rounded to
the nearest step; t <= 0 asks for the initial state), stops at the first
non-finite state naming its step, time and cell, and audits the mass. The
density is entry 0 of the state's last axis, or the state itself when it
has no such axis, so one loop serves (ny, nx, m) moments and (ny, nx)
densities alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import GridSpec


def _rho(U: np.ndarray) -> np.ndarray:
    return U.reshape(U.shape[:2] + (-1,))[..., 0]


@dataclass
class RunResult:
    times: list              # the output steps' times
    snapshots: list          # rho fields at `times`
    final_state: np.ndarray
    diagnostics: dict = field(default_factory=dict)

    @property
    def final_rho(self) -> np.ndarray:
        return _rho(self.final_state)


def step_count(t_end: float, dt_target: float) -> tuple[int, float]:
    """(nsteps, dt): the fewest equal steps of at most dt_target that tile
    [0, t_end], and their size."""
    nsteps = max(1, math.ceil(t_end / dt_target - 1e-12))
    return nsteps, t_end / nsteps


def run_steps(step, U, grid: GridSpec, nsteps: int, dt: float, output_times, diag: dict,
              error: type) -> RunResult:
    """Advance U by `step(U, k, opening, closing)` for k = 1..nsteps.

    `opening` is true at the first step and after every closing one;
    `closing` is true at the last step and at each output step, so a step
    split around its ends (Strang splitting) can close before a snapshot
    and reopen after it. `diag` is the run's diagnostics dict, which the
    steps may fill; the run adds its schedule (dt, nsteps), min rho of the
    final state and the mass audit |mass_final - mass_initial| /
    |mass_initial|. The audit has no boundary term: both solvers' walls
    conserve the mass, so drift beyond rounding is a fault of the step. A
    non-finite state raises `error`.
    """
    want = sorted(set(min(nsteps, max(1, round(t / dt))) for t in output_times if t > 0))
    times, snapshots = [], []
    if any(t <= 0 for t in output_times):
        times.append(0.0)
        snapshots.append(_rho(U).copy())
    diag.update(dt=dt, nsteps=nsteps, mass_initial=float(_rho(U).sum()) * grid.cell_area)
    closing = True
    for k in range(1, nsteps + 1):
        snapshot = bool(want) and k == want[0]
        opening, closing = closing, snapshot or k == nsteps
        U = step(U, k, opening, closing)
        if not np.isfinite(U).all():
            V = U.reshape(U.shape[:2] + (-1,))
            iy, ix = np.argwhere(~np.isfinite(V).all(axis=-1))[0]
            raise error(
                f"non-finite state {V[iy, ix]} at step {k}, t={k * dt:.6e}, "
                f"cell (ix={ix}, iy={iy})"
            )
        if snapshot:
            times.append(k * dt)
            snapshots.append(_rho(U).copy())
            want.pop(0)
    rho = _rho(U)
    diag["mass_final"] = float(rho.sum()) * grid.cell_area
    diag["mass_drift_rel"] = abs(diag["mass_final"] - diag["mass_initial"]) / max(
        abs(diag["mass_initial"]), 1e-300
    )
    diag["min_rho"] = float(rho.min())
    return RunResult(times=times, snapshots=snapshots, final_state=U, diagnostics=diag)
