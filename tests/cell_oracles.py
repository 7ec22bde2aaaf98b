"""One-cell reference operators the grid-vectorized code is checked against.

Pointwise forms of the Lax-Friedrichs flux, the realizability limiter, the
first-order and P_N flux/source assembly and the diffusion-limit
coefficients. The package evaluates all of these batched over the grid;
these per-cell versions are the independent oracles of the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from moment_glioma.closures import MomentVector1, PnBasis, pnf_reconstruct
from moment_glioma.kinetic import CellFields, ScalingParams, diffusion_fields
from moment_glioma.quadrature import SphereQuadrature
from moment_glioma.solver import SolverError, _realizable_theta
from moment_glioma.systems import first_order_realizable


def lax_friedrichs_flux(u_left, u_right, flux_fn, c: float):
    """Global Lax-Friedrichs flux 0.5*(F(uL) + F(uR) - C*(uR - uL))."""
    u_left = np.asarray(u_left, dtype=float)
    u_right = np.asarray(u_right, dtype=float)
    return 0.5 * (flux_fn(u_left) + flux_fn(u_right) - c * (u_right - u_left))


def realizability_limit(u_mean, u_face, floor):
    """u_face scaled toward the (realizable) u_mean into realizability; one cell."""
    u_mean = np.asarray(u_mean, dtype=float)
    u_face = np.asarray(u_face, dtype=float)
    if not first_order_realizable(u_mean, floor):
        raise SolverError("realizability limiter: cell mean itself is not realizable")
    if first_order_realizable(u_face, floor):
        return u_face.copy()
    return u_mean + _realizable_theta(u_mean, u_face, floor) * (u_face - u_mean)


@dataclass(frozen=True)
class TissueCell:
    """Anchor moments and haptotaxis data of one grid cell."""

    m1: np.ndarray     # (3,) <v Qhat>, zero for the (symmetric) peanut
    lamH: float
    gradQ: np.ndarray  # (3,) in-plane gradient padded with zero z

    def __post_init__(self):
        object.__setattr__(self, "m1", np.asarray(self.m1, dtype=float))
        object.__setattr__(self, "gradQ", np.asarray(self.gradQ, dtype=float))


def tissue_cell(cells: CellFields, ix: int, iy: int) -> TissueCell:
    """The tissue data of cell (ix, iy) of the grid arrays."""
    return TissueCell(
        m1=np.zeros(3),
        lamH=float(cells.lamH[iy, ix]),
        gradQ=cells.gradQ3[iy, ix],
    )


_AXES = {"x": 0, "y": 1}


def first_order_flux(m: MomentVector1, closure, direction: str, eps: float) -> np.ndarray:
    """(q_d, P^A e_d)/eps for d in {x, y}; `closure` maps m -> ClosureResult."""
    d = _AXES[direction]
    P = closure(m).P
    out = np.empty(4)
    out[0] = m.q[d] / eps
    out[1:] = P[:, d] / eps
    return out


def first_order_source(
    m: MomentVector1, P: np.ndarray, cell: TissueCell, s: ScalingParams
) -> np.ndarray:
    """Relaxation plus haptotaxis momentum source; component 0 is zero.

    S_q = -(R/eps^2)(q - rho m1) + (eta/eps) lamH (P gradQ - m1 (q.gradQ)).
    """
    P = np.asarray(P, dtype=float)
    out = np.zeros(4)
    relax = -(s.r / s.eps**2) * (m.q - m.rho * cell.m1)
    hapto = (s.eta / s.eps) * cell.lamH * (
        P @ cell.gradQ - cell.m1 * float(m.q @ cell.gradQ)
    )
    out[1:] = relax + hapto
    return out


def pn_flux_and_source(
    u: np.ndarray,
    cell: TissueCell,
    s: ScalingParams,
    basis: PnBasis,
    quad: SphereQuadrature,
    anchor_nodes: np.ndarray,
) -> dict:
    """Moment fluxes and source of the polynomial-times-anchor ansatz.

    Reconstructs f^A from u, then
        flux_d  = <v_d a f^A>/eps,
        source  = (R/eps^2)(rho <a Qhat> - u)
                + (eta/eps) lamH (sum_d dQ_d <v_d a f^A> - <a Qhat>(gradQ.q_A)).
    All integrals run on the supplied quadrature; u may be full (length K)
    or reduced (length (N+1)^2) and the outputs match its convention.
    """
    u = np.asarray(u, dtype=float)
    ansatz = pnf_reconstruct(u, anchor_nodes, basis, quad)
    full = u.shape == (basis.K,)
    a_nodes = basis.evaluate(quad.nodes) if full else basis.evaluate_reduced(quad.nodes)
    wf = quad.weights * ansatz.node_values
    flux_vecs = [(a_nodes * (wf * quad.nodes[:, d])[:, None]).sum(axis=0) for d in (0, 1, 2)]
    mQ = a_nodes.T @ (quad.weights * np.asarray(anchor_nodes, dtype=float))
    rho_a = u[0]
    q_a = u[1:4]  # both conventions carry (1, vx, vy, vz) first
    l1 = rho_a * mQ - u
    l2 = cell.lamH * (
        sum(cell.gradQ[d] * flux_vecs[d] for d in range(3))
        - mQ * float(cell.gradQ @ q_a)
    )
    return {
        "flux_x": flux_vecs[0] / s.eps,
        "flux_y": flux_vecs[1] / s.eps,
        "source": (s.r / s.eps**2) * l1 + (s.eta / s.eps) * l2,
    }


def diffusion_coefficients(cells: CellFields, s: ScalingParams, ix: int, iy: int) -> dict:
    """Per-cell D and drift vector Gamma = eta D lamH gradQ - div D."""
    fields = diffusion_fields(cells, s)
    return {
        "D": fields.D[iy, ix],
        "drift": fields.drift[iy, ix] - fields.divD[iy, ix],
    }
