"""Macroscopic diffusion-limit solver.

Advances

    d_t rho = div( div(rho D) - eta rho D lamH_hat gradQ )

with the myopic flux F = grad.(rho D) - drift*rho assembled at cell faces
(divergence applied to the tensor-density product, not D grad rho), a
4-point corner stencil for the mixed derivatives, explicit RK2 in time and
zero-flux boundaries. The conservative face form telescopes, so total mass
is preserved to rounding per step.

`D` is fixed per `DiffusionFields2D`: the stability bound (one eigen-solve)
and the flux constants are computed when the instance is built, so a time
step does no eigen-solve. `run_diffusion` checks the density for finiteness
after each step and raises `DiffusionError` with the step, the time and the
first non-finite cell.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import GridSpec
from .kinetic import CellFields, ScalingParams, diffusion_fields


class DiffusionError(RuntimeError):
    pass


@dataclass(frozen=True)
class DiffusionFields2D:
    """In-plane diffusion tensor and drift velocity on the grid.

    `D` and `drift` are fixed per instance: the stability bound and the
    per-run constants of the flux (contiguous D components, face-averaged
    drift) are computed once, at construction, and later changes to the
    arrays are not seen. Build a new instance for new coefficients.
    """

    grid: GridSpec
    D: np.ndarray       # (ny, nx, 2, 2)
    drift: np.ndarray   # (ny, nx, 2)
    max_eig: float = field(init=False)
    _Dxx: np.ndarray = field(init=False, repr=False)
    _Dxy: np.ndarray = field(init=False, repr=False)
    _Dyy: np.ndarray = field(init=False, repr=False)
    _vx_face: np.ndarray = field(init=False, repr=False)  # 0.5 * x-face mean of drift_x
    _vy_face: np.ndarray = field(init=False, repr=False)  # 0.5 * y-face mean of drift_y

    def __post_init__(self):
        D, v = self.D, self.drift
        consts = {
            "max_eig": float(np.max(np.linalg.eigvalsh(D))),
            "_Dxx": np.ascontiguousarray(D[..., 0, 0]),
            "_Dxy": np.ascontiguousarray(D[..., 0, 1]),
            "_Dyy": np.ascontiguousarray(D[..., 1, 1]),
            "_vx_face": 0.5 * (v[:, 1:, 0] + v[:, :-1, 0]) * 0.5,
            "_vy_face": 0.5 * (v[1:, :, 1] + v[:-1, :, 1]) * 0.5,
        }
        for name, value in consts.items():
            object.__setattr__(self, name, value)

    def stability_bound(self) -> float:
        """dt bound 0.5*min(dx,dy)^2/(2*max eig D) for the explicit path."""
        h = min(self.grid.dx, self.grid.dy)
        return 0.5 * h * h / (2.0 * self.max_eig)


def build_diffusion_fields(cells: CellFields, params: ScalingParams) -> DiffusionFields2D:
    full = diffusion_fields(cells, params)
    return DiffusionFields2D(
        grid=cells.grid, D=full.D[..., :2, :2], drift=full.drift[..., :2]
    )


def _flux_divergence(rho: np.ndarray, fields: DiffusionFields2D) -> np.ndarray:
    g = fields.grid
    dx, dy = g.dx, g.dy
    rD_xx = rho * fields._Dxx
    rD_xy = rho * fields._Dxy
    rD_yy = rho * fields._Dyy
    # per-cell cross derivatives (second-order central, one-sided at edges)
    d_dy_rDxy = np.gradient(rD_xy, dy, axis=0, edge_order=1)
    d_dx_rDxy = np.gradient(rD_xy, dx, axis=1, edge_order=1)

    # x-faces between (i, j) and (i+1, j): F = d/dx(rho Dxx) + d/dy(rho Dxy) - vx rho
    fx = (rD_xx[:, 1:] - rD_xx[:, :-1]) / dx
    fx += 0.5 * (d_dy_rDxy[:, 1:] + d_dy_rDxy[:, :-1])
    fx -= fields._vx_face * (rho[:, 1:] + rho[:, :-1])
    # y-faces
    fy = (rD_yy[1:, :] - rD_yy[:-1, :]) / dy
    fy += 0.5 * (d_dx_rDxy[1:, :] + d_dx_rDxy[:-1, :])
    fy -= fields._vy_face * (rho[1:, :] + rho[:-1, :])
    fx /= dx
    fy /= dy
    out = np.zeros_like(rho)
    out[:, :-1] += fx
    out[:, 1:] -= fx
    out[:-1, :] += fy
    out[1:, :] -= fy
    return out


def diffusion_step(rho: np.ndarray, dt: float, fields: DiffusionFields2D) -> np.ndarray:
    """One explicit RK2 (Heun) step with zero-flux boundaries."""
    bound = fields.stability_bound()
    if dt > bound * (1.0 + 1e-12):
        raise DiffusionError(
            f"dt={dt:.6e} exceeds the explicit stability bound {bound:.6e}"
        )
    k1 = _flux_divergence(rho, fields)
    rho1 = rho + dt * k1
    k2 = _flux_divergence(rho1, fields)
    return 0.5 * (rho + rho1 + dt * k2)


def _raise_nonfinite(rho: np.ndarray, step: int, t: float) -> None:
    """Report the first non-finite cell in row-major order (y outer)."""
    iy, ix = np.argwhere(~np.isfinite(rho))[0]
    raise DiffusionError(
        f"non-finite density {rho[iy, ix]} at step {step}, t={t:.6e}, cell (ix={ix}, iy={iy})"
    )


@dataclass
class DiffusionRunResult:
    grid: GridSpec
    times: list
    snapshots: list
    final_rho: np.ndarray
    diagnostics: dict = field(default_factory=dict)


def run_diffusion(
    fields: DiffusionFields2D,
    rho0: np.ndarray,
    t_end: float,
    output_times=(),
    safety: float = 0.9,
) -> DiffusionRunResult:
    """Advance to t_end, emitting snapshots at the requested times.

    The step obeys both the diffusive stability bound and an advective
    limit from the drift velocity.
    """
    if t_end <= 0:
        raise DiffusionError(f"t_end must be positive, got {t_end}")
    g = fields.grid
    dt_diff = fields.stability_bound()
    vmax = float(np.max(np.abs(fields.drift))) if fields.drift.size else 0.0
    dt_adv = 0.5 * min(g.dx, g.dy) / vmax if vmax > 0 else np.inf
    dt_target = safety * min(dt_diff, dt_adv)
    nsteps = max(1, int(np.ceil(t_end / dt_target - 1e-12)))
    dt = t_end / nsteps

    rho = np.asarray(rho0, dtype=float).copy()
    mass0 = float(rho.sum()) * g.cell_area
    want = sorted(set(min(nsteps, max(1, round(t / dt))) for t in output_times if t > 0))
    times, snapshots = [], []
    if any(t <= 0 for t in output_times):
        times.append(0.0)
        snapshots.append(rho.copy())
    for step in range(1, nsteps + 1):
        rho = diffusion_step(rho, dt, fields)
        if not np.isfinite(rho).all():
            _raise_nonfinite(rho, step, step * dt)
        if want and step == want[0]:
            times.append(step * dt)
            snapshots.append(rho.copy())
            want.pop(0)
    mass1 = float(rho.sum()) * g.cell_area
    diag = {
        "dt": dt,
        "nsteps": nsteps,
        "mass_initial": mass0,
        "mass_final": mass1,
        "mass_drift_rel": abs(mass1 - mass0) / max(abs(mass0), 1e-300),
        "min_rho": float(rho.min()),
    }
    return DiffusionRunResult(
        grid=g, times=times, snapshots=snapshots, final_rho=rho, diagnostics=diag
    )
