"""One-cell reference operators the grid-vectorized code is checked against.

Pointwise forms of the Lax-Friedrichs flux, the realizability limiter, the
realizability margins, the P_N ansatz reconstruction, the first-order and
P_N flux/source assembly and the diffusion-limit coefficients. The package
evaluates all of these batched over the grid; these per-cell versions are
the independent oracles of the tests. `k1f_projector_oracle` is the K1F
characteristic data built from the assembled 4x4 flux Jacobian, the
reference of the closed-form wave families. `dg_source_step_cell_major` is the
DG(2) Newton loop in its earlier per-cell (..., 3, m) layout, the bitwise
reference of the node-major solver loop; `fd_jacobian` differentiates a
source for the tests whose source has no analytic Jacobian. `strang_step`
is one unmerged Strang step, source(dt/2), flux(dt), source(dt/2), the
reference of `solver.run_kinetic`'s steps. `diffusion_stencil`,
`flux_divergence_nine_slices` and `diffusion_step_nine_slices` are the
diffusion-limit stencil and its Heun step on plain (ny, nx) arrays, with a
zero-padded copy of the density per stencil application: the bitwise
reference of the row-gapped layout of `diffusion.py`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from moment_glioma import solver
from moment_glioma.closures import ClosureError, PnBasis, kershaw_jacobian
from moment_glioma.diffusion import _add_face_stencil
from moment_glioma.kinetic import ScalingParams
from moment_glioma.quadrature import SphereQuadrature
from moment_glioma.solver import _DG_M, _PHI_G, _W_G, _WPHI_G, SolverError
from moment_glioma.systems import _realizable_theta, first_order_realizable
from moment_glioma.tissue import TissueFields


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

    u is the moment vector of length (N+1)^2 in the basis's monomials; the
    reconstructed moments reproduce it to quadrature accuracy.
    """
    u = np.asarray(u, dtype=float)
    F = np.asarray(anchor_nodes, dtype=float)
    if u.shape != (basis.Kr,):
        raise ClosureError(f"moment vector has shape {u.shape}, expected ({basis.Kr},)")
    ar = basis.evaluate_reduced(quad.nodes)
    wF = quad.weights * F
    G = np.einsum("nk,n,nj->kj", ar, wF, ar)
    try:
        lam_min = np.linalg.eigvalsh(G)[0]
        if lam_min <= 1e-13 * max(1.0, float(np.linalg.eigvalsh(G)[-1])):
            raise np.linalg.LinAlgError
        lam = np.linalg.solve(G, u)
    except np.linalg.LinAlgError:
        raise ClosureError(
            "Gram matrix <a a^T F> is singular: the anchor has flat support"
        ) from None
    fA = (ar @ lam) * F
    return PnAnsatz(basis=basis, lambda_red=lam, node_values=fA, anchor_nodes=F)


def lax_friedrichs_flux(u_left, u_right, flux_fn, c: float):
    """Global Lax-Friedrichs flux 0.5*(F(uL) + F(uR) - C*(uR - uL))."""
    u_left = np.asarray(u_left, dtype=float)
    u_right = np.asarray(u_right, dtype=float)
    return 0.5 * (flux_fn(u_left) + flux_fn(u_right) - c * (u_right - u_left))


def realizability_limit(u_mean, u_face):
    """u_face scaled toward the (realizable) u_mean into realizability; one cell."""
    u_mean = np.asarray(u_mean, dtype=float)
    u_face = np.asarray(u_face, dtype=float)
    if not first_order_realizable(u_mean):
        raise SolverError("realizability limiter: cell mean itself is not realizable")
    if first_order_realizable(u_face):
        return u_face.copy()
    return u_mean + _realizable_theta(u_mean, u_face) * (u_face - u_mean)


@dataclass(frozen=True)
class TissueCell:
    """Anchor moments and haptotaxis data of one grid cell."""

    m1: np.ndarray     # (3,) <v Qhat>, zero for the (symmetric) peanut
    lamH: float
    gradQ: np.ndarray  # (3,) in-plane gradient padded with zero z

    def __post_init__(self):
        object.__setattr__(self, "m1", np.asarray(self.m1, dtype=float))
        object.__setattr__(self, "gradQ", np.asarray(self.gradQ, dtype=float))


def tissue_cell(tissue: TissueFields, ix: int, iy: int) -> TissueCell:
    """The tissue data of cell (ix, iy) of the grid arrays."""
    return TissueCell(
        m1=np.zeros(3),
        lamH=float(tissue.lamH[iy, ix]),
        gradQ=tissue.gradQ3[iy, ix],
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
    All integrals run on the supplied quadrature; u has length (N+1)^2.
    """
    u = np.asarray(u, dtype=float)
    ansatz = pnf_reconstruct(u, anchor_nodes, basis, quad)
    a_nodes = basis.evaluate_reduced(quad.nodes)
    wf = quad.weights * ansatz.node_values
    flux_vecs = [(a_nodes * (wf * quad.nodes[:, d])[:, None]).sum(axis=0) for d in (0, 1, 2)]
    mQ = a_nodes.T @ (quad.weights * np.asarray(anchor_nodes, dtype=float))
    rho_a = u[0]
    q_a = u[1:4]  # the basis starts (1, vx, vy, vz)
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


def diffusion_coefficients(tissue: TissueFields, s: ScalingParams, ix: int, iy: int) -> dict:
    """Per-cell diffusion tensor D = D_F/R."""
    return {"D": tissue.DF[iy, ix] / s.r}


def diffusion_stencil(fields) -> np.ndarray:
    """The (3, 3, ny, nx) stencil of a `DiffusionFields2D`, built on a plain
    array, with no gap columns."""
    D, v, g = fields.D, fields.drift, fields.grid
    Dxy = D[..., 0, 1]
    C = np.zeros((3, 3) + Dxy.shape)
    _add_face_stencil(C, D[..., 0, 0], np.pad(Dxy, ((1, 1), (0, 0))), v[..., 0], g.dx, g.dy)
    _add_face_stencil(
        C.transpose(1, 0, 3, 2), D[..., 1, 1].T, np.pad(Dxy, ((0, 0), (1, 1))).T,
        v[..., 1].T, g.dy, g.dx,
    )
    return C


#: the neighbour offsets (a, b) in the order their products are added
_NINE_SLICE_ORDER = ((0, 0), (0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1), (2, 2))


def flux_divergence_nine_slices(rho: np.ndarray, C: np.ndarray) -> np.ndarray:
    """C[1, 1] rho, then each neighbour's product with the zero-padded rho
    added in turn."""
    ny, nx = rho.shape
    pad = np.pad(rho, 1)
    out = C[1, 1] * rho
    for a, b in _NINE_SLICE_ORDER:
        out += C[a, b] * pad[a : a + ny, b : b + nx]
    return out


def diffusion_step_nine_slices(rho, dt, C, divergence=flux_divergence_nine_slices):
    """Heun: ((rho + rho1) + dt k2) * 0.5 with rho1 = dt k1 + rho, k the
    stencil's flux divergence (`divergence(rho, C)`)."""
    rho1 = dt * divergence(rho, C)
    rho1 += rho
    k = divergence(rho1, C)
    k *= dt
    out = rho + rho1
    out += k
    out *= 0.5
    return out


def k1f_projector_oracle(U, DF, axis):
    """K1F characteristic data from the assembled flux Jacobian J along
    e_axis: {"gamma", "g_disc", "g_mid", "projs"}, projs = (active, P-,
    P_mid, P+) on the cells with gamma > 0, or None.

    The characteristic polynomial is (lam - mu)^2 Q2(lam) with mu = qhat.n:
    its coefficients come from Newton's identities on tr J and tr J^2, the
    double root mu is deflated by synthetic division, and the projectors are
    the Frobenius covariants
    P+- = Amu^2 (J - lam-+ I) / ((lam+- - mu)^2 (lam+- - lam-+)), Amu = J - mu I,
    with P_mid = I - P+ - P-. gamma = g_disc g_mid ramps over windows of both
    the discriminant of Q2 and |Q2(mu)|; the system's gamma is g_mid alone,
    since g_disc is 1 wherever g_mid > 0 on realizable states.
    """
    rho = np.maximum(U[..., 0], 1e-300)
    q = U[..., 1:4]
    J = kershaw_jacobian(rho, q, DF, np.eye(3)[axis]).astype(rho.dtype)
    mu = q[..., axis] / rho
    J2 = J @ J
    t1 = np.trace(J, axis1=-2, axis2=-1)
    t2 = np.trace(J2, axis1=-2, axis2=-1)
    e1 = t1
    e2 = (e1 * t1 - t2) / 2.0
    c3, c2 = -e1, e2
    b2 = c3 + mu
    b1 = c2 + mu * b2
    Bq = b2 + mu
    Cq = b1 + mu * Bq
    disc = Bq * Bq - 4.0 * Cq
    q2mu = mu * mu + Bq * mu + Cq          # (mu-lam+)(mu-lam-)
    lo, hi = 1e-4, 4e-4
    g_disc = np.clip((disc - lo) / (hi - lo), 0.0, 1.0)
    g_mid = np.clip((np.abs(q2mu) - lo) / (hi - lo), 0.0, 1.0)
    gamma = g_disc * g_mid
    data = {"gamma": gamma, "g_disc": g_disc, "g_mid": g_mid, "projs": None}
    active = gamma > 0.0
    if np.any(active):
        Ja = J[active]
        mua = mu[active]
        sq = np.sqrt(np.maximum(disc[active], 0.0))
        lam_p = 0.5 * (-Bq[active] + sq)
        lam_m = 0.5 * (-Bq[active] - sq)
        eye = np.eye(4)
        Amu = Ja - mua[:, None, None] * eye
        Amu2 = Amu @ Amu
        P_plus = (Amu2 @ (Ja - lam_m[:, None, None] * eye)) / (
            (lam_p - mua) ** 2 * (lam_p - lam_m)
        )[:, None, None]
        P_minus = (Amu2 @ (Ja - lam_p[:, None, None] * eye)) / (
            (lam_m - mua) ** 2 * (lam_m - lam_p)
        )[:, None, None]
        data["projs"] = (active, P_minus, eye - P_plus - P_minus, P_plus)
    return data


def fd_jacobian(source_fn, u, h=1e-7):
    """Central-difference Jacobian of `source_fn` at u, batched over leading axes."""
    m = u.shape[-1]
    J = np.empty(u.shape + (m,))
    base = np.maximum(1.0, np.abs(u))
    for k in range(m):
        du = np.zeros_like(u)
        du[..., k] = h * base[..., k]
        J[..., :, k] = (source_fn(u + du) - source_fn(u - du)) / (2 * h * base[..., k:k + 1])
    return J


def dg_source_step_cell_major(u_old, dt, source_fn, jacobian, chord_cache=None):
    """`solver.dg_source_step` with the node states held per cell, (..., 3, m);
    it reads the solver's Newton tolerance and iteration cap at call time."""
    u_old = np.asarray(u_old, dtype=float)
    m = u_old.shape[-1]
    maxit = solver._DG_NEWTON_MAXIT
    Unodes = np.repeat(u_old[..., None, :], 3, axis=-2)  # (..., 3, m)
    scale = np.maximum(1.0, np.max(np.abs(u_old), axis=-1))
    history = []
    inv_big = None
    if chord_cache is not None and chord_cache.get("dt") == dt:
        cached = chord_cache["inv"]
        if cached is not None and cached.shape[:-2] == u_old.shape[:-1]:
            inv_big = cached
    rebuilds = 0
    res = np.empty_like(Unodes)
    for it in range(maxit):
        U0, U1, U2 = Unodes[..., 0, :], Unodes[..., 1, :], Unodes[..., 2, :]
        u_g = [_PHI_G[g, 0] * U0 + _PHI_G[g, 1] * U1 + _PHI_G[g, 2] * U2 for g in range(3)]
        s0, s1, s2 = (source_fn(u) for u in u_g)
        for i in range(3):
            res[..., i, :] = _DG_M[i, 0] * U0 + _DG_M[i, 1] * U1 + _DG_M[i, 2] * U2
            res[..., i, :] -= 0.5 * dt * (
                _WPHI_G[0, i] * s0 + _WPHI_G[1, i] * s1 + _WPHI_G[2, i] * s2
            )
        res[..., 0, :] -= u_old
        rmax = float(np.max(np.abs(res) / scale[..., None, None]))
        history.append(rmax)
        if rmax <= solver._DG_NEWTON_TOL:
            if chord_cache is not None:
                chord_cache.update(inv=inv_big, dt=dt)
            return Unodes[..., 2, :]
        if not np.isfinite(rmax):
            break
        stalled = len(history) >= 2 and history[-1] > 0.5 * history[-2]
        if inv_big is None or (stalled and rebuilds < 8):
            J_g = np.stack([jacobian(u) for u in u_g], axis=-3)
            big = np.zeros(u_old.shape[:-1] + (3, m, 3, m))
            eye = np.eye(m)
            for i in range(3):
                for j in range(3):
                    big[..., i, :, j, :] = _DG_M[i, j] * eye - 0.5 * dt * np.einsum(
                        "g,...gkl->...kl", _W_G * _PHI_G[:, i] * _PHI_G[:, j], J_g
                    )
            big = big.reshape(u_old.shape[:-1] + (3 * m, 3 * m))
            inv_big = np.linalg.inv(big)
            rebuilds += 1
        delta = np.einsum(
            "...ij,...j->...i", inv_big, res.reshape(u_old.shape[:-1] + (3 * m,))
        )
        Unodes = Unodes - delta.reshape(Unodes.shape)
    raise solver._newton_failure(
        np.max(np.abs(res) / scale[..., None, None], axis=(-2, -1)), history
    )


def strang_step(U, dt, system, diag=None, bc="thermal", propagator=None, chord_cache=None):
    """source(dt/2) then `solver.flux_step` over dt then source(dt/2), each
    source half-step checked for realizability. A linear source
    (`system.source_matrix`) is applied through its DG propagator for dt/2
    (`solver.source_propagator`), built here unless the caller passes it;
    any other by `solver.dg_source_step`."""
    diag = diag if diag is not None else solver.new_diagnostics()
    if propagator is None and system.source_matrix is not None:
        propagator = solver.source_propagator(system, 0.5 * dt)

    def source_half_step(U):
        if propagator is not None:
            with np.errstate(invalid="ignore", over="ignore"):
                U = (U[..., None, :] @ propagator)[..., 0, :]
        else:
            U = solver.dg_source_step(
                U, 0.5 * dt, system.source, system.source_jacobian, chord_cache=chord_cache
            )
        solver._require_realizable(U, system, "source step")
        return U

    U = solver.flux_step(source_half_step(U), dt, system, diag, bc)
    diag["steps"] += 1
    return source_half_step(U)
