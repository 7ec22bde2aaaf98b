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

The density, its RK2 stage and the stencil share one row-gapped layout: rows
of width W = nx + 2 whose last two entries are gaps. The density and the
stage each live in a flat zero-bordered buffer, the (ny + 2, W) padded grid
with two entries to spare, whose gaps are its left and right borders. Every
neighbour of the cells is then a contiguous slice of that buffer, and each
stencil product and each Heun update is one contiguous loop over ny W
entries, with no copy into a pad. The stencil is zero at the gaps, so on a
finite state the gap entries it outputs are zero and the borders stay zero.

`D` is fixed per `DiffusionFields2D`: the stability bound (the largest
eigenvalue of D, in closed form) and the stencil are computed when the
instance is built, so a time step solves no eigenproblem. `run_diffusion`
hands `diffusion_step` to `stepping.run_steps`,
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
    #: (3, 3, ny, nx + 2), zero in the last two columns (the row gaps of
    #: `_StepWork`): the flux divergence at cell (i, j) is the sum over
    #: a, b in {-1, 0, 1} of _stencil[a+1, b+1, i, j] * rho[i+a, j+b]
    _stencil: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        D, v, g = self.D, self.drift, self.grid
        Dxx, Dxy, Dyy = D[..., 0, 0], D[..., 0, 1], D[..., 1, 1]
        ny, nx = Dxy.shape
        C = np.zeros((3, 3, ny, nx + 2))
        cells = C[..., :nx]
        _add_face_stencil(cells, Dxx, np.pad(Dxy, ((1, 1), (0, 0))), v[..., 0], g.dx, g.dy)
        # y-faces: the same construction on transposed views of the cells
        _add_face_stencil(
            cells.transpose(1, 0, 3, 2),
            Dyy.T,
            np.pad(Dxy, ((0, 0), (1, 1))).T,
            v[..., 1].T,
            g.dy,
            g.dx,
        )
        # the larger eigenvalue of each symmetric 2x2 D
        max_eig = np.max(0.5 * (Dxx + Dyy) + np.hypot(0.5 * (Dxx - Dyy), Dxy))
        object.__setattr__(self, "max_eig", float(max_eig))
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
    """Every array of one RK2 step on an (ny, nx) grid, in the row-gapped
    layout of width W = nx + 2.

    `state` and `stage` hold the density and the RK2 stage rho1 as flat
    zero-bordered buffers of (ny + 2) W + 2 entries. A density's ny W
    entries, cells and gaps, are the slice [W + 1, W + 1 + ny W) of its
    buffer (`rho_flat`, `rho1_flat`; `rho` and `rho1` are their (ny, nx)
    cell views), and its neighbours at offset (a - 1, b - 1) are the slice
    of the same length that starts at a W + b. The flux divergence `k` and
    one stencil product `term` have ny W entries in the same layout (`div`
    is the cells of `k`). A gap entry is a left or right border of its
    buffer; the stencil is zero there, so for a finite state k is zero
    there, and rho1 and the new state write zeros back into the borders.

    A run builds one and passes it to all its steps, so no step allocates;
    each array is about 128 KB at 128x128, where whether an allocation is
    served by mmap, and faulted in anew, depends on the process's malloc
    history."""

    def __init__(self, shape):
        ny, nx = shape
        self.width = W = nx + 2
        self.size = n = ny * W
        self.state, self.stage = (np.zeros((ny + 2) * W + 2) for _ in range(2))
        self.k, self.term = np.empty(n), np.empty(n)
        self.rho_flat, self.rho1_flat = (b[W + 1 : W + 1 + n] for b in (self.state, self.stage))
        self.rho, self.rho1, self.div = (
            a.reshape(ny, W)[:, :nx] for a in (self.rho_flat, self.rho1_flat, self.k)
        )


#: offsets (a, b) of the neighbour products, in the order they are added
_NEIGHBOURS = ((0, 0), (0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1), (2, 2))


def _flux_divergence(rho: np.ndarray, fields: DiffusionFields2D, work=None) -> np.ndarray:
    """Apply the stencil; rho is zero outside the grid. rho is `work.rho` or
    `work.rho1`, read in place, or any other (ny, nx) array, which is copied
    into `work.state` first. Returns `work.div`, the cells of `work.k`
    (fresh buffers when no `_StepWork` is given)."""
    if work is None:
        work = _StepWork(rho.shape)
    if rho is work.rho1:
        buf = work.stage
    else:
        buf = work.state
        if rho is not work.rho:
            work.rho[...] = rho
    W, n = work.width, work.size
    C = fields._stencil.reshape(3, 3, n)
    out, term = work.k, work.term
    np.multiply(C[1, 1], buf[W + 1 : W + 1 + n], out=out)
    for a, b in _NEIGHBOURS:
        np.multiply(C[a, b], buf[a * W + b : a * W + b + n], out=term)
        out += term
    return work.div


def diffusion_step(rho: np.ndarray, dt: float, fields: DiffusionFields2D,
                   work=None) -> np.ndarray:
    """One explicit RK2 (Heun) step with zero-flux boundaries,
    ((rho + rho1) + dt k2) * 0.5 with rho1 = dt k1 + rho, evaluated in place
    in `work` (a `_StepWork` of rho's shape; fresh when not given). The
    first stage loads rho into `work.state` (a no-op when rho is `work.rho`,
    the previous step's result), and the new state overwrites it: the step
    returns `work.rho`."""
    bound = fields.stability_bound()
    if dt > bound * (1.0 + 1e-12):
        raise DiffusionError(
            f"dt={dt:.6e} exceeds the explicit stability bound {bound:.6e}"
        )
    if work is None:
        work = _StepWork(rho.shape)
    u, u1, k = work.rho_flat, work.rho1_flat, work.k
    _flux_divergence(rho, fields, work)
    np.multiply(dt, k, out=u1)
    u1 += u
    _flux_divergence(work.rho1, fields, work)
    k *= dt
    np.add(u, u1, out=u)
    u += k
    u *= 0.5
    return work.rho


def run_diffusion(
    fields: DiffusionFields2D,
    rho0: np.ndarray,
    t_end: float,
    output_times=(),
) -> RunResult:
    """Advance to t_end, emitting snapshots at the requested times.

    The step obeys both the diffusive stability bound and an advective
    limit from the drift velocity. One `_StepWork` serves every step, and
    the state is updated in place in its `state` buffer.
    """
    if not (0 < t_end < np.inf):
        raise DiffusionError(f"t_end must be positive and finite, got {t_end}")
    g = fields.grid
    rho0 = np.asarray(rho0, dtype=float)
    if rho0.shape != (g.ny, g.nx):
        raise DiffusionError(f"rho0 has shape {rho0.shape}, the grid needs {(g.ny, g.nx)}")
    dt_diff = fields.stability_bound()
    vmax = float(np.max(np.abs(fields.drift))) if fields.drift.size else 0.0
    dt_adv = 0.5 * min(g.dx, g.dy) / vmax if vmax > 0 else np.inf
    nsteps, dt = step_count(t_end, _SAFETY * min(dt_diff, dt_adv))
    work = _StepWork((g.ny, g.nx))
    return run_steps(
        lambda rho, k, opening, closing: diffusion_step(rho, dt, fields, work),
        rho0.copy(), g, nsteps, dt, output_times, {}, DiffusionError,
    )
