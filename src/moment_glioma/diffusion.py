"""Macroscopic diffusion-limit solver.

Advances

    d_t rho = div( div(rho D) - eta rho D lamH_hat gradQ )

with the myopic flux F = grad.(rho D) - drift*rho assembled at cell faces
(divergence applied to the tensor-density product, not D grad rho), explicit
RK2 in time and zero-flux boundaries. The face flux takes the normal
derivative of rho*D_nn across the face, the face mean of the two cells'
tangential derivatives of rho*D_xy (central, one-sided at the edges) and the
face-averaged drift. That operator is linear in rho with coefficients fixed
by D and the drift, so it is folded once into a 3x3 stencil of per-cell
coefficients; each RK2 stage is nine multiply-adds per cell. Every face
contributes +w to one cell and -w to its neighbour, so the stencil's columns
sum to zero and total mass is preserved to rounding per step.

`D` is fixed per `DiffusionFields2D`: the stability bound (one eigen-solve)
and the stencil are computed when the instance is built, so a time step does
no eigen-solve. `run_diffusion` hands `diffusion_step` to `stepping.run_steps`,
the run layout the kinetic solver shares (step count, output steps, mass
audit), which raises `DiffusionError` with the step, the time and the first
non-finite cell.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import GridSpec
from .kinetic import ScalingParams
from .stepping import RunResult, run_steps, step_count
from .tissue import TissueFields


#: run_diffusion's dt is this fraction of the smaller of the two step limits
_SAFETY = 0.9


class DiffusionError(RuntimeError):
    pass


def _add_face_stencil(C, Dnn, Dnt_pad, vn, h, ht) -> None:
    """Add to C the stencil of the fluxes through the faces normal to the last axis.

    Arrays are (n_t, n_n) with the face normal along the last axis, spacing
    h, and tangential spacing ht along the first; `Dnt_pad` has a zero row
    added at both ends. A face between cells L and R carries

        [(Dnn rho)_R - (Dnn rho)_L] / h^2 + (G_L + G_R) / (2 h)
            - (vn_L + vn_R) (rho_L + rho_R) / (4 h)

    with G = d_t(rho Dnt) as np.gradient takes it (central, one-sided in
    the first and last row). C is (3, 3, n_t, n_n): C[a+1, b+1] weighs rho
    at tangential offset a and normal offset b. +flux goes to L and -flux
    to R, so no flux passes the domain sides.
    """
    nt, nn = Dnn.shape
    # np.gradient(edge_order=1) weights of rows i-1, i, i+1
    g = np.zeros((3, nt, 1))
    g[0, 1:-1], g[2, 1:-1] = -0.5 / ht, 0.5 / ht
    g[1, 0], g[2, 0] = -1.0 / ht, 1.0 / ht
    g[0, -1], g[1, -1] = -1.0 / ht, 1.0 / ht
    vf = 0.25 / h * (vn[:, :-1] + vn[:, 1:])
    for a in range(3):
        for s in (0, 1):  # source cell L (s = 0) or R (s = 1)
            w = (0.5 / h) * g[a] * Dnt_pad[a : a + nt, s : s + nn - 1]
            if a == 1:
                w += (Dnn[:, 1:] if s else -Dnn[:, :-1]) / (h * h) - vf
            C[a, s + 1, :, :-1] += w
            C[a, s, :, 1:] -= w


@dataclass(frozen=True)
class DiffusionFields2D:
    """In-plane diffusion tensor and drift velocity on the grid.

    `D` and `drift` are fixed per instance: the stability bound and the
    flux operator, a 3x3 stencil of per-cell coefficients, are computed
    once, at construction, and later changes to the arrays are not seen.
    Build a new instance for new coefficients.
    """

    grid: GridSpec
    D: np.ndarray       # (ny, nx, 2, 2)
    drift: np.ndarray   # (ny, nx, 2)
    max_eig: float = field(init=False)
    #: (3, 3, ny, nx): the flux divergence at cell (i, j) is
    #: sum over a, b in {-1, 0, 1} of _stencil[a+1, b+1, i, j] * rho[i+a, j+b]
    _stencil: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        D, v, g = self.D, self.drift, self.grid
        Dxy = D[..., 0, 1]
        C = np.zeros((3, 3) + Dxy.shape)
        _add_face_stencil(C, D[..., 0, 0], np.pad(Dxy, ((1, 1), (0, 0))), v[..., 0], g.dx, g.dy)
        # y-faces: the same construction on transposed views, which keep
        # the memory order of C so its updates stay contiguous
        _add_face_stencil(
            C.transpose(1, 0, 3, 2),
            D[..., 1, 1].T,
            np.pad(Dxy, ((0, 0), (1, 1))).T,
            v[..., 1].T,
            g.dy,
            g.dx,
        )
        object.__setattr__(self, "max_eig", float(np.max(np.linalg.eigvalsh(D))))
        object.__setattr__(self, "_stencil", C)

    def stability_bound(self) -> float:
        """dt bound 0.5*min(dx,dy)^2/(2*max eig D) for the explicit path."""
        h = min(self.grid.dx, self.grid.dy)
        return 0.5 * h * h / (2.0 * self.max_eig)


def build_diffusion_fields(tissue: TissueFields, params: ScalingParams) -> DiffusionFields2D:
    """D = D_F/R and the drift eta D lamH_hat gradQ, restricted to the plane.

    Both are formed from the 3x3 D_F and the z-padded gradQ3, then sliced.
    """
    D = tissue.DF / params.r
    Dg = np.einsum("...ij,...j->...i", D, tissue.gradQ3)
    drift = params.eta * tissue.lamH[..., None] * Dg
    return DiffusionFields2D(grid=tissue.grid, D=D[..., :2, :2], drift=drift[..., :2])


class _StepWork:
    """Every array of one RK2 step on an (ny, nx) grid: the zero-bordered
    copy of the stage's density, its flux divergence `k`, one stencil
    product `term`, the stage state and the new state `out`. A run builds
    one and passes it to all its steps, so no step allocates; each array is
    128 KB at 128x128, where whether an allocation is served by mmap, and
    faulted in anew, depends on the process's malloc history."""

    def __init__(self, shape):
        ny, nx = shape
        self.pad = np.zeros((ny + 2, nx + 2))
        self.k, self.term, self.stage, self.out = (np.empty(shape) for _ in range(4))


def _flux_divergence(rho: np.ndarray, fields: DiffusionFields2D, work=None) -> np.ndarray:
    """Apply the stencil; rho is zero outside the grid. The result is
    `work.k` (fresh buffers when no `_StepWork` is given)."""
    ny, nx = rho.shape
    if work is None:
        work = _StepWork(rho.shape)
    pad, out, term = work.pad, work.k, work.term
    pad[1:-1, 1:-1] = rho
    C = fields._stencil
    np.multiply(C[1, 1], rho, out=out)
    for a, b in ((0, 0), (0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1), (2, 2)):
        np.multiply(C[a, b], pad[a : a + ny, b : b + nx], out=term)
        out += term
    return out


def diffusion_step(rho: np.ndarray, dt: float, fields: DiffusionFields2D,
                   work=None) -> np.ndarray:
    """One explicit RK2 (Heun) step with zero-flux boundaries,
    0.5 (rho + rho1 + dt k2) with rho1 = rho + dt k1, evaluated in place in
    `work` (a `_StepWork` of rho's shape; fresh when not given). The new
    state is `work.out`, which may be rho itself."""
    bound = fields.stability_bound()
    if dt > bound * (1.0 + 1e-12):
        raise DiffusionError(
            f"dt={dt:.6e} exceeds the explicit stability bound {bound:.6e}"
        )
    if work is None:
        work = _StepWork(rho.shape)
    k = _flux_divergence(rho, fields, work)
    rho1 = np.multiply(dt, k, out=work.stage)
    rho1 += rho
    k = _flux_divergence(rho1, fields, work)
    k *= dt
    out = np.add(rho, rho1, out=work.out)
    out += k
    out *= 0.5
    return out


def run_diffusion(
    fields: DiffusionFields2D,
    rho0: np.ndarray,
    t_end: float,
    output_times=(),
) -> RunResult:
    """Advance to t_end, emitting snapshots at the requested times.

    The step obeys both the diffusive stability bound and an advective
    limit from the drift velocity. One `_StepWork` serves every step, and
    the state is updated in its `out` array.
    """
    if not (0 < t_end < np.inf):
        raise DiffusionError(f"t_end must be positive and finite, got {t_end}")
    g = fields.grid
    dt_diff = fields.stability_bound()
    vmax = float(np.max(np.abs(fields.drift))) if fields.drift.size else 0.0
    dt_adv = 0.5 * min(g.dx, g.dy) / vmax if vmax > 0 else np.inf
    nsteps, dt = step_count(t_end, _SAFETY * min(dt_diff, dt_adv))
    work = _StepWork((g.ny, g.nx))
    return run_steps(
        lambda rho, k, opening, closing: diffusion_step(rho, dt, fields, work),
        np.asarray(rho0, dtype=float).copy(), g, nsteps, dt, output_times, {}, DiffusionError,
    )
