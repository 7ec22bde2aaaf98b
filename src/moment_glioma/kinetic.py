"""Scaled moment systems for the glioma kernels.

The solver integrates the parabolic-scaled equation

    d_t u + (1/eps) [d_x <v_x a f^A> + d_y <v_y a f^A>]
        = (R/eps^2) <a L1 f^A> + (eta/eps) <a L2 f^A>,

with the dominant relaxation L1 f = Qhat rho_f - f toward the fiber
distribution and the haptotactic correction
L2 f = lamH_hat gradQ . (v f - Qhat q_f). Both operators conserve mass, so
the first source component vanishes identically.

Note on the momentum source sign: multiplying L2 by v and integrating gives
<v L2 f> = +lamH_hat (P gradQ - m1 (q.gradQ)); the positive sign is the one
consistent with the haptotaxis drift +eta D lamH_hat gradQ of the diffusion
limit (cells drift up the fiber-density gradient, concentrating along
tracts) and with the higher-order moment projection of `systems.py`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import GridSpec
from .tissue import TissueFields, WaterTensorField, peanut_node_values


class ScalingError(ValueError):
    pass


@dataclass(frozen=True)
class ScalingParams:
    """Nondimensional numbers plus the physical rates behind them.

    eps is the Strouhal number (the parabolic scaling parameter), kn the
    Knudsen number, r = eps^2/kn, eta = lambda1/lambda0. Units: rates in
    1/s, c in mm/s, x0 in mm, t0 in s.
    """

    eps: float
    kn: float
    r: float
    eta: float
    lambda0: float
    lambda1: float
    kplus: float
    kminus: float
    c: float
    x0: float
    t0: float

    def __post_init__(self):
        for name in ("eps", "kn", "r", "eta"):
            if getattr(self, name) <= 0:
                raise ScalingError(f"{name} must be positive, got {getattr(self, name)}")
        if abs(self.r - self.eps**2 / self.kn) > 1e-12 * max(1.0, self.r):
            raise ScalingError("r != eps^2/kn")
        if abs(self.eta - self.lambda1 / self.lambda0) > 1e-12 * max(1.0, self.eta):
            raise ScalingError("eta != lambda1/lambda0")


def compute_scaling(
    T: float,
    c: float,
    lambda0: float,
    lambda1: float,
    kplus: float,
    kminus: float,
    x0: float,
) -> ScalingParams:
    """Characteristic numbers with t0 = T: St = x0/(T c), Kn = 1/(T lambda0)."""
    vals = dict(T=T, c=c, lambda0=lambda0, lambda1=lambda1, kplus=kplus, kminus=kminus, x0=x0)
    for name, v in vals.items():
        if not np.isfinite(v) or v <= 0:
            raise ScalingError(f"physical parameter {name} must be positive, got {v}")
    t0 = T
    st = x0 / (t0 * c)
    kn = 1.0 / (t0 * lambda0)
    eta = lambda1 / lambda0
    return ScalingParams(
        eps=st,
        kn=kn,
        r=st * st / kn,
        eta=eta,
        lambda0=lambda0,
        lambda1=lambda1,
        kplus=kplus,
        kminus=kminus,
        c=c,
        x0=x0,
        t0=t0,
    )


# ---------------------------------------------------------------------------
# per-cell tissue data consumed by the moment systems
# ---------------------------------------------------------------------------

@dataclass
class CellFields:
    """Grid-shaped tissue arrays shared by every moment system."""

    grid: GridSpec
    tensors: np.ndarray   # (ny, nx, 3, 3) water tensors (anchor evaluation)
    DF: np.ndarray        # (ny, nx, 3, 3)
    lamH: np.ndarray      # (ny, nx)
    gradQ3: np.ndarray    # (ny, nx, 3) z-padded
    Q: np.ndarray         # (ny, nx)


def build_cell_fields(water: WaterTensorField, tissue: TissueFields) -> CellFields:
    g = tissue.grid
    gradQ3 = np.zeros((g.ny, g.nx, 3))
    gradQ3[..., :2] = tissue.gradQ
    return CellFields(
        grid=g,
        tensors=water.tensors,
        DF=tissue.DF,
        lamH=tissue.lamH,
        gradQ3=gradQ3,
        Q=tissue.Q,
    )


# ---------------------------------------------------------------------------
# diffusion-limit coefficients
# ---------------------------------------------------------------------------

@dataclass
class DiffusionFields:
    """Macroscopic tensor D = D_F/R, drift eta D lamH gradQ, and div D."""

    grid: GridSpec
    D: np.ndarray       # (ny, nx, 3, 3)
    drift: np.ndarray   # (ny, nx, 3)
    divD: np.ndarray    # (ny, nx, 3) row-wise in-plane divergence


def diffusion_fields(cells: CellFields, s: ScalingParams) -> DiffusionFields:
    g = cells.grid
    D = cells.DF / s.r
    drift = s.eta * cells.lamH[..., None] * np.einsum("...ij,...j->...i", D, cells.gradQ3)
    divD = np.zeros((g.ny, g.nx, 3))
    for i in range(3):
        gyx = np.gradient(D[..., i, 0], g.dx, axis=1, edge_order=1)
        gyy = np.gradient(D[..., i, 1], g.dy, axis=0, edge_order=1)
        divD[..., i] = gyx + gyy
    return DiffusionFields(grid=g, D=D, drift=drift, divD=divD)


def anchor_nodes_for(cells: CellFields, nodes: np.ndarray, uniform: bool) -> np.ndarray:
    """Anchor density at quadrature nodes: peanut of D_W or uniform 1/4pi."""
    if uniform:
        shape = cells.tensors.shape[:-2] + (nodes.shape[0],)
        return np.full(shape, 1.0 / (4.0 * np.pi))
    return peanut_node_values(cells.tensors, nodes)
