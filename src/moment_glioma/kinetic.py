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

from .tissue import TissueFields, peanut_node_values


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


def drift_ratio(tissue: TissueFields, params: ScalingParams) -> np.ndarray:
    """kappa = eps eta lamH |gradQ| / r per cell of `tissue`.

    Where f(v) = 0, the source (R/eps^2) L1 f + (eta/eps) L2 f is
    Qhat [(r/eps^2) rho - (eta/eps) lamH gradQ.q], which is non-negative
    for every q with |q| <= rho iff kappa <= 1. Above 1 the source can
    drive a non-negative f negative, and with it a first-order state out
    of the realizable set. kappa <= 1 is sufficient, not necessary: the
    fiber strand reaches kappa = 6.4 at eps = 1, and its runs complete.
    """
    grad_norm = np.linalg.norm(tissue.gradQ3, axis=-1)
    return params.eps * params.eta * tissue.lamH * grad_norm / params.r


def drift_ratio_summary(kappa: np.ndarray) -> dict:
    """The largest kappa, the fraction of cells above 1 and the cell of
    the largest, as the manifest and `validate` report them."""
    iy, ix = np.unravel_index(np.argmax(kappa), kappa.shape)
    return {
        "max": float(kappa[iy, ix]),
        "frac_above_1": float(np.count_nonzero(kappa > 1.0)) / kappa.size,
        "worst_cell": {"ix": int(ix), "iy": int(iy)},
    }


def anchor_nodes_for(tensors: np.ndarray, nodes: np.ndarray, uniform: bool) -> np.ndarray:
    """Anchor density at quadrature nodes: peanut of D_W or uniform 1/4pi."""
    if uniform:
        return np.full(tensors.shape[:-2] + (nodes.shape[0],), 1.0 / (4.0 * np.pi))
    return peanut_node_values(tensors, nodes)
