"""Tissue fields derived from water-diffusion tensors.

The directional fiber distribution is the quadratic "peanut"

    Qhat(x, v) = 3 / (4*pi*tr(D_W)) * v^T D_W(x) v,

whose normalization, first-moment symmetry <v Qhat> = 0 and pressure tensor

    D_F = <v (x) v Qhat> = (2 D_W + tr(D_W) I) / (5 tr(D_W))

are all available in closed form. The tissue volume fraction Q is estimated
from D_W either by fractional anisotropy (FA) or by the characteristic
length (CL); the haptotactic coefficient couples Q to the receptor-binding
steady state g(Q) = k+ Q / (k+ Q + k-).

Every quantity is evaluated batched over a tensor field: the peanut at the
quadrature nodes by `peanut_node_values`, and Q, its gradient, D_F and
lamH_hat of every grid cell at once by `derive_tissue_fields`, from the
eigenvalues the field's validation solves for.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import GridSpec


class TissueError(ValueError):
    pass


# ---------------------------------------------------------------------------
# tensor quantities
# ---------------------------------------------------------------------------

def peanut_pressure_tensor(d_w: np.ndarray) -> np.ndarray:
    """Closed form of <v (x) v Qhat>; symmetric with unit trace.

    `d_w` is one 3x3 tensor or a stack (..., 3, 3); the result has its shape.
    """
    d_w = np.asarray(d_w, dtype=float)
    tr = np.trace(d_w, axis1=-2, axis2=-1)
    if np.any(tr <= 0):
        raise TissueError(f"peanut pressure tensor needs tr(D_W) > 0, got {np.min(tr)}")
    tr = tr[..., None, None]
    return (2.0 * d_w + tr * np.eye(3)) / (5.0 * tr)


def _libm_pow(base, p: float) -> np.ndarray:
    """base ** p element by element with the C library's pow.

    numpy's vectorized power (and its x*x path for p = 2) differs from libm
    pow in the last bit on some inputs and CPUs. The strand M1F and P3F runs
    amplify last-bit changes of the tissue fields, so those fields are
    pinned bitwise (tests/golden/) and rounded the one way on every CPU.
    """
    b = np.asarray(base, dtype=float)
    return np.array([v ** p for v in b.ravel().tolist()]).reshape(b.shape)


def _fa_from_eigs(lam: np.ndarray) -> np.ndarray:
    """FA from eigenvalues (..., 3)."""
    dev = lam - lam.mean(axis=-1, keepdims=True)
    return np.sqrt(1.5 * np.sum(dev**2, axis=-1) / np.sum(lam**2, axis=-1))


def _cl_from_eigs(lam: np.ndarray, tr: np.ndarray) -> np.ndarray:
    """CL from ascending eigenvalues (..., 3) and traces; NaN where lam_max <= 0."""
    lam_max = lam[..., -1]
    with np.errstate(divide="ignore", invalid="ignore"):
        base = np.where(lam_max > 0, tr / (4.0 * lam_max), np.nan)
    return 1.0 - _libm_pow(base, 1.5)


def haptotactic_coefficient(
    q: np.ndarray, lam0: float, kplus: float, kminus: float
) -> np.ndarray:
    """lamH_hat(Q) = g'(Q) / (1 + alpha(Q)/lam0), elementwise over the array q.

    alpha(Q) = k+ Q + k-,  g(Q) = k+ Q / (k+ Q + k-)  so
    g'(Q) = k+ k- / (k+ Q + k-)^2.
    """
    if not np.all((q >= 0.0) & (q < 1.0)):
        raise TissueError(f"volume fraction must lie in [0, 1), got {q}")
    # written as not (v > 0) so that a NaN rate fails too
    if not all(v > 0 for v in (lam0, kplus, kminus)):
        raise TissueError(f"rates lam0, k+, k- must be positive, got {lam0}, {kplus}, {kminus}")
    alpha = kplus * q + kminus
    gprime = kplus * kminus / _libm_pow(kplus * q + kminus, 2)
    return gprime / (1.0 + alpha / lam0)


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------

@dataclass
class WaterTensorField:
    """Per-cell symmetric water-diffusion tensors on a 2D grid."""

    grid: GridSpec
    tensors: np.ndarray  # (ny, nx, 3, 3)
    #: ascending eigenvalues of `tensors` when already known (read_tensor_field
    #: keeps those its validation solved for); validate reuses them
    eigenvalues: np.ndarray | None = field(default=None, repr=False, compare=False)

    def validate(self) -> np.ndarray:
        """Check shape, finiteness, symmetry, PSD and trace; return the eigenvalues.

        The ascending eigenvalues (ny, nx, 3) come from the one eigen-solve
        the PSD check needs (or from `eigenvalues`), so callers need not
        solve again.
        """
        t = self.tensors
        if t.shape != (self.grid.ny, self.grid.nx, 3, 3):
            raise TissueError(f"tensor array shape {t.shape} does not match grid")
        finite = np.isfinite(t).all(axis=(-2, -1))
        if not finite.all():
            iy, ix = np.argwhere(~finite)[0]
            raise TissueError(
                f"non-finite tensor entry at cell (ix={ix}, iy={iy}), "
                f"x={self.grid.cell_x(ix):.6g}, y={self.grid.cell_y(iy):.6g}"
            )
        asym = np.max(np.abs(t - np.swapaxes(t, -1, -2)))
        if asym > 1e-12:
            raise TissueError(f"tensors not symmetric (max asymmetry {asym:.2e})")
        lam = self.eigenvalues if self.eigenvalues is not None else np.linalg.eigvalsh(t)
        if np.min(lam) < -1e-12:
            iy, ix = np.unravel_index(int(np.argmin(lam[..., 0])), lam[..., 0].shape)
            raise TissueError(
                f"negative eigenvalue {lam[iy, ix, 0]:.3e} at cell "
                f"(ix={ix}, iy={iy}), x={self.grid.cell_x(ix):.6g}, y={self.grid.cell_y(iy):.6g}"
            )
        tr = np.trace(t, axis1=-2, axis2=-1)
        if np.min(tr) <= 0:
            iy, ix = np.unravel_index(int(np.argmin(tr)), tr.shape)
            raise TissueError(
                f"non-positive trace at cell (ix={ix}, iy={iy}), "
                f"x={self.grid.cell_x(ix):.6g}, y={self.grid.cell_y(iy):.6g}"
            )
        return lam


@dataclass
class TissueFields:
    """Everything the moment systems and the diffusion limit read from the tissue."""

    grid: GridSpec
    tensors: np.ndarray  # (ny, nx, 3, 3) water tensors D_W (anchor evaluation)
    Q: np.ndarray        # (ny, nx) volume fraction in [0, 1)
    gradQ3: np.ndarray   # (ny, nx, 3) gradient on the grid spacing, z entry 0
    DF: np.ndarray       # (ny, nx, 3, 3) peanut pressure tensor, unit trace
    lamH: np.ndarray     # (ny, nx) haptotactic coefficient lamH_hat(Q)


def gradient_2d(field: np.ndarray, dx: float, dy: float) -> np.ndarray:
    """Second-order central gradient, first-order one-sided at edges.

    Returns (ny, nx, 2) with components (d/dx, d/dy); exact on fields that
    are linear in x and y, edges included.
    """
    gy, gx = np.gradient(field, dy, dx, edge_order=1)
    return np.stack([gx, gy], axis=-1)


def derive_tissue_fields(water: WaterTensorField, estimator: str, params) -> TissueFields:
    """Volume fraction, gradient, peanut tensor and lamH_hat per cell.

    The in-plane gradient is padded with a zero z entry, so it contracts
    with the 3x3 tensors as they are.

    `estimator` is "FA" or "CL"; `params` supplies lambda0, kplus, kminus.
    All cells are derived at once from the eigenvalues `validate` computes;
    a volume fraction outside [0, 1) is reported with the coordinates of
    the first such cell in row-major order (y outer).
    """
    if estimator not in ("FA", "CL"):
        raise TissueError(f"unknown volume-fraction estimator {estimator!r} (use FA or CL)")
    lam = water.validate()
    g = water.grid
    if estimator == "FA":
        Q = _fa_from_eigs(lam)
    else:
        Q = _cl_from_eigs(lam, np.trace(water.tensors, axis1=-2, axis2=-1))
    bad = ~((Q >= 0.0) & (Q < 1.0))
    if bad.any():
        iy, ix = np.argwhere(bad)[0]
        raise TissueError(
            f"cell (ix={ix}, iy={iy}) at x={g.cell_x(ix):.6g}, y={g.cell_y(iy):.6g}: "
            f"estimated volume fraction {float(Q[iy, ix])} outside [0, 1)"
        )
    DF = peanut_pressure_tensor(water.tensors)
    lamH = haptotactic_coefficient(Q, params.lambda0, params.kplus, params.kminus)
    gradQ3 = np.zeros((g.ny, g.nx, 3))
    gradQ3[..., :2] = gradient_2d(Q, g.dx, g.dy)
    return TissueFields(grid=g, tensors=water.tensors, Q=Q, gradQ3=gradQ3, DF=DF, lamH=lamH)


def strand_d00(x1: np.ndarray, x2: np.ndarray, X: float, sigma: float) -> np.ndarray:
    """Leading eigenvalue of the fiber-strand tensor.

    D00 = 1 + 5 exp(-nu/(2 sigma^2)) with
    nu = max{0, x1 - X/2, |x2 - X/2| - 0.1}: a strand of half-width 0.1
    along x2 = X/2 that ends abruptly at x1 = X/2.
    """
    nu = np.maximum(0.0, np.maximum(x1 - X / 2.0, np.abs(x2 - X / 2.0) - 0.1))
    return 1.0 + 5.0 * np.exp(-nu / (2.0 * sigma * sigma))


def synth_fiber_strand(X: float, sigma: float, grid: GridSpec) -> WaterTensorField:
    """Abruptly ending fiber strand, embedded 3x3 as diag(D00, 1, 1).

    Cell centers are taken in the strand's own coordinates; pass a grid
    whose spacings already include any nondimensionalization.
    """
    if sigma <= 0:
        raise TissueError(f"strand width sigma must be positive, got {sigma}")
    Xc, Yc = grid.cell_centers()
    d00 = strand_d00(Xc, Yc, X, sigma)
    tensors = np.zeros((grid.ny, grid.nx, 3, 3))
    tensors[..., 0, 0] = d00
    tensors[..., 1, 1] = 1.0
    tensors[..., 2, 2] = 1.0
    return WaterTensorField(grid=grid, tensors=tensors)


def peanut_node_values(tensors: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Peanut density evaluated at quadrature nodes for a tensor field.

    tensors: (..., 3, 3), nodes: (n, 3) -> values (..., n).
    """
    tr = np.trace(tensors, axis1=-2, axis2=-1)
    quad_form = np.einsum("ni,...ij,nj->...n", nodes, tensors, nodes)
    return 3.0 / (4.0 * np.pi) * quad_form / tr[..., None]
