"""One-cell reference operators the grid-vectorized code is checked against.

Pointwise forms of the Lax-Friedrichs flux, the realizability limiter, the
realizability margins, the P_N ansatz reconstruction, the first-order and
P_N flux/source assembly and the diffusion-limit coefficients. The package
evaluates all of these batched over the grid; these per-cell versions are
the independent oracles of the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from moment_glioma.closures import ClosureError, PnBasis
from moment_glioma.kinetic import CellFields, ScalingParams, diffusion_fields
from moment_glioma.quadrature import SphereQuadrature
from moment_glioma.solver import SolverError
from moment_glioma.systems import _realizable_theta, first_order_realizable

#: pnf_reconstruct: relative moment reproduction error a full-length input may have
_CONSISTENCY_TOL = 1e-8


@dataclass(frozen=True)
class MomentVector1:
    """Zeroth and first moment (rho, q) of the cell density."""

    rho: float
    q: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "q", np.asarray(self.q, dtype=float))
        if not np.isfinite(self.rho) or self.rho < 0:
            raise ClosureError(f"density must be finite and >= 0, got {self.rho}")
        if self.q.shape != (3,) or not np.all(np.isfinite(self.q)):
            raise ClosureError("momentum must be a finite 3-vector")

    @property
    def qhat(self) -> np.ndarray:
        if self.rho == 0:
            return np.zeros(3)
        return self.q / self.rho


@dataclass(frozen=True)
class RealizabilityMargins:
    first: float      # 1 - |qhat|
    second: float     # min eigenvalue of Phat - qhat qhat^T
    trace_err: float  # |tr(Phat) - 1|


def check_realizability(m: MomentVector1, P: np.ndarray) -> RealizabilityMargins:
    """Signed margins of the first/second-order realizability conditions."""
    if m.rho <= 0:
        raise ClosureError(f"realizability margins need rho > 0, got {m.rho}")
    qhat = m.qhat
    Phat = np.asarray(P, dtype=float) / m.rho
    lam_min = float(np.linalg.eigvalsh(Phat - np.outer(qhat, qhat))[0])
    return RealizabilityMargins(
        first=1.0 - float(np.linalg.norm(qhat)),
        second=lam_min,
        trace_err=abs(float(np.trace(Phat)) - 1.0),
    )


@dataclass
class PnAnsatz:
    """Reconstructed ansatz f^A = (lambda . a_red) F on the quadrature."""

    basis: PnBasis
    lambda_red: np.ndarray       # (Kr,)
    node_values: np.ndarray      # (nq,) f^A at the quadrature nodes
    anchor_nodes: np.ndarray     # (nq,)


def pnf_reconstruct(
    u: np.ndarray,
    anchor_nodes: np.ndarray,
    basis: PnBasis,
    quad: SphereQuadrature,
) -> PnAnsatz:
    """Solve <a a^T F> lambda = u for the polynomial-times-anchor ansatz.

    The solve runs in the reduced basis (the full Gram is rank-deficient on
    the sphere for N >= 2); full-length inputs are accepted and checked for
    consistency with the sphere constraint, and the reconstructed moments
    reproduce `u` to quadrature accuracy.
    """
    u = np.asarray(u, dtype=float)
    F = np.asarray(anchor_nodes, dtype=float)
    if u.shape == (basis.Kr,) and basis.Kr != basis.K:
        u_red = u
        u_full = None
    elif u.shape == (basis.K,):
        u_red = u[basis.reduced]
        u_full = u
    else:
        raise ClosureError(
            f"moment vector has length {u.shape}, expected {basis.K} (full) "
            f"or {basis.Kr} (reduced)"
        )
    ar = basis.evaluate_reduced(quad.nodes)
    wF = quad.weights * F
    G = np.einsum("nk,n,nj->kj", ar, wF, ar)
    try:
        lam_min = np.linalg.eigvalsh(G)[0]
        if lam_min <= 1e-13 * max(1.0, float(np.linalg.eigvalsh(G)[-1])):
            raise np.linalg.LinAlgError
        lam = np.linalg.solve(G, u_red)
    except np.linalg.LinAlgError:
        raise ClosureError(
            "Gram matrix <a a^T F> is singular: the anchor has flat support"
        ) from None
    fA = (ar @ lam) * F
    if u_full is not None:
        moments_full = basis.evaluate(quad.nodes).T @ (quad.weights * fA)
        scale = max(1.0, float(np.max(np.abs(u_full))))
        err = float(np.max(np.abs(moments_full - u_full))) / scale
        if err > _CONSISTENCY_TOL:
            raise ClosureError(
                f"moment vector is inconsistent with the sphere constraint "
                f"(reproduction error {err:.3e}); redundant components must "
                "satisfy u[z^2 m] = u[m] - u[x^2 m] - u[y^2 m]"
            )
    return PnAnsatz(basis=basis, lambda_red=lam, node_values=fA, anchor_nodes=F)


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
    """(q_d, P^A e_d)/eps for d in {x, y}; `closure` maps m -> P^A."""
    d = _AXES[direction]
    P = closure(m)
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
    """Per-cell diffusion tensor D = D_F/R."""
    return {"D": diffusion_fields(cells, s).D[iy, ix]}
