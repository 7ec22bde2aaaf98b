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

import math
from dataclasses import dataclass, field

import numpy as np

from .tissue import TissueFields, peanut_node_values


class ScalingError(ValueError):
    pass


@dataclass(frozen=True)
class ScalingParams:
    """The seven physical inputs of the scaling and the four numbers
    derived from them with t0 = T.

    eps = St = x0/(t0 c) is the Strouhal number (the parabolic scaling
    parameter), kn = Kn = 1/(t0 lambda0) the Knudsen number, r = St^2/Kn
    and eta = lambda1/lambda0. Units: t0 in s, c in mm/s, rates in 1/s,
    x0 in mm. Every value, input or derived, must be positive and finite.
    """

    t0: float
    c: float
    lambda0: float
    lambda1: float
    kplus: float
    kminus: float
    x0: float
    eps: float = field(init=False)
    kn: float = field(init=False)
    r: float = field(init=False)
    eta: float = field(init=False)

    def __post_init__(self):
        # each derived number is computed from values already checked; a
        # product that underflows to zero gives an infinite quotient, which
        # the check rejects, in place of a division by zero
        for name, derive in (
            ("t0", None), ("c", None), ("lambda0", None), ("lambda1", None),
            ("kplus", None), ("kminus", None), ("x0", None),
            ("eps", lambda: _quotient(self.x0, self.t0 * self.c)),
            ("kn", lambda: _quotient(1.0, self.t0 * self.lambda0)),
            ("eta", lambda: self.lambda1 / self.lambda0),
            ("r", lambda: self.eps * self.eps / self.kn),
        ):
            if derive is not None:
                object.__setattr__(self, name, derive())
            value = getattr(self, name)
            # not (0 < v < inf), so that NaN fails too
            if not 0 < value < math.inf:
                raise ScalingError(f"{name} must be positive, got {value}")


def _quotient(num: float, den: float) -> float:
    """num / den for num > 0, den >= 0; inf where den is zero."""
    return num / den if den > 0 else math.inf


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
