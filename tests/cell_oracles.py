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
reference of the row-gapped layout of `diffusion.py`. The `*_rows`
functions are the first-order kernels as they were written on (..., 4)
rows before the first-order family moved to component planes: the
realizability predicate and limiter, K1F's wave families and slopes, and
the flux and source bodies with both closures' pressure hooks, and
`first_order_faces_rows` assembled from them; `planes` and `rows` convert
between the layouts, and `k1f_waves_rows` reads K1F's plane data in the
row shapes. `axis_char_data` and `axis_faces` are every family's
characteristic data and `faces` one axis at a time, on planes, as they
were before one `faces` call served both axes of a flux stage: the bitwise
reference of the stacked pass; `k1f_axis_slab` reads one axis of K1F's
stacked data in their layout. `require_wide_long_double` is the
precondition of the long-double oracles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from moment_glioma import solver
from moment_glioma.closures import (
    ClosureError,
    PnBasis,
    kershaw_acoustic_offsets,
    kershaw_jacobian,
)
from moment_glioma.diffusion import _add_face_stencil
from moment_glioma.kinetic import ScalingParams
from moment_glioma.quadrature import SphereQuadrature
from moment_glioma.reconstruct import (
    _WENO_THETA,
    _WENO_Z,
    canonical_eig,
    group_characteristic_slopes,
    plane_dot,
    plane_norm,
    row_norm,
    vector_weno_slope,
    weno2_slope,
    weno2_slope_inplace,
)
from moment_glioma.solver import _DG_M, _PHI_G, _W_G, _WPHI_G, SolverError
from moment_glioma.systems import (
    REALIZABILITY_FLOOR,
    KershawSystem,
    M1FSystem,
    _limit_theta_pair,
    flux_work,
)
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
    if not first_order_realizable_rows(u_mean):
        raise SolverError("realizability limiter: cell mean itself is not realizable")
    if first_order_realizable_rows(u_face):
        return u_face.copy()
    return u_mean + realizable_theta_rows(u_mean, u_face) * (u_face - u_mean)


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


def require_wide_long_double():
    """The long-double oracles mean something only where np.longdouble
    carries more mantissa bits than float64."""
    assert np.finfo(np.longdouble).nmant > np.finfo(np.float64).nmant, (
        "np.longdouble is float64 here, so the long-double oracle would be a float64 "
        "one (ROADMAP item 6: an oracle in decimal arithmetic for such platforms)"
    )


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
    any other by `solver.dg_source_step`, carrying `chord_cache` or, when
    none is given, on a fresh cache per solve."""
    diag = diag if diag is not None else solver.new_diagnostics()
    if propagator is None and system.source_matrix is not None:
        propagator = solver.source_propagator(system, 0.5 * dt)

    def source_half_step(U):
        if propagator is not None:
            with np.errstate(invalid="ignore", over="ignore"):
                U = (U[..., None, :] @ propagator)[..., 0, :]
        else:
            cache = {} if chord_cache is None else chord_cache
            U = solver.dg_source_step(U, 0.5 * dt, system.source, system.source_jacobian, cache)
        solver._require_realizable(U, system, "source step")
        return U

    U = source_half_step(U)
    U = solver.flux_step(U, dt, system, diag, flux_work(U), bc)
    return source_half_step(U)


# ---------------------------------------------------------------------------
# first-order kernels on rows
# ---------------------------------------------------------------------------

def planes(U):
    """The component planes (m, ...) of rows (..., m), C-contiguous, as the
    first-order kernels take them."""
    return np.ascontiguousarray(np.moveaxis(U, -1, 0))


def rows(X):
    """The rows (..., m) of component planes (m, ...), a view."""
    return np.moveaxis(X, 0, -1)


def first_order_realizable_rows(U: np.ndarray) -> np.ndarray:
    """rho >= REALIZABILITY_FLOOR and |q| <= rho, batched over leading dims."""
    rho = U[..., 0]
    return (rho >= REALIZABILITY_FLOOR) & (row_norm(U[..., 1:4]) <= rho)


def realizable_theta_rows(u_mean, u_face):
    """Largest theta in [0, 1] keeping u_mean + theta (u_face - u_mean)
    realizable, on rows (see `systems._realizable_theta`)."""
    rho, q = u_mean[..., 0], u_mean[..., 1:4]
    rho_f, q_f = u_face[..., 0], u_face[..., 1:4]
    drho, dq = rho_f - rho, q_f - q
    a = (dq * dq).sum(-1) - drho * drho
    b = (q * dq).sum(-1) - rho * drho
    c = (q * q).sum(-1) - rho * rho
    time_minors = rho[..., None] * q_f - rho_f[..., None] * q
    space_minors = np.cross(q, q_f)
    disc = (time_minors * time_minors).sum(-1) - (space_minors * space_minors).sum(-1)
    s = np.sqrt(np.maximum(disc, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        t_q = np.where(b > 0, -c / (b + s), np.where(a > 0, (s - b) / a, np.inf))
        t_q = np.where(disc < 0, np.where(c < 0, np.inf, 0.0), t_q)
        t_floor = np.where(drho < 0, (rho - REALIZABILITY_FLOOR) / -drho, np.inf)
    theta = np.clip(np.minimum(t_q, t_floor), 0.0, 1.0) * (1.0 - 1e-12)
    return np.where(rho < REALIZABILITY_FLOOR, 0.0, theta)


def limit_theta_pair_rows(U, faces):
    """The realizability limiter on the stacked (2, ..., 4) low and high
    faces of the cells U: the mask of the cells whose faces fail the
    predicate and, on those cells (in mask order), the common theta."""
    bad = ~first_order_realizable_rows(faces).all(axis=0)
    if not bad.any():
        return bad, np.empty(0)
    theta = realizable_theta_rows(U[bad], faces[:, bad])
    return bad, np.minimum(theta[0], theta[1])


def vector_weno_slope_rows(a, b, h):
    """`reconstruct.vector_weno_slope` on rows (the vectors on the last axis)."""
    pa = (_WENO_THETA + h * row_norm(a)) ** _WENO_Z
    pb = (_WENO_THETA + h * row_norm(b)) ** _WENO_Z
    return (pb[..., None] * a + pa[..., None] * b) / (pa + pb)[..., None]


def k1f_axis_char_data_rows(system, U, axis):
    """K1F's wave families along e_axis on rows: {"gamma", "waves"}, waves
    (active mask, R (c, 4, 2), L (c, 2, 4), |r| (c, 2)) or None."""
    rho = np.maximum(U[..., 0], 1e-300)
    qhat = U[..., 1:4] / rho[..., None]
    u = np.ascontiguousarray(system.tissue.DF[..., :, axis])
    p = np.einsum("...i,...i->...", qhat, u)
    r2 = np.einsum("...i,...i->...", qhat, qhat)
    w = (1.0 - r2) * u[..., axis]
    lo, hi = 1e-4, 4e-4
    gamma = np.clip((np.abs(w) - lo) / (hi - lo), 0.0, 1.0)
    active = gamma > 0.0
    if not np.any(active):
        return {"gamma": gamma, "waves": None}
    qa, ua, pa, r2a = qhat[active], u[active], p[active], r2[active]
    s, mu = ua[:, axis], qa[:, axis]
    d = np.stack(kershaw_acoustic_offsets(pa, w[active]), axis=-1)  # (c, 2)
    g = d + 2.0 * pa[:, None]
    R = np.empty((d.shape[0], 4, 2))
    R[:, 0] = 1.0
    R[:, 1:] = ua[:, :, None] * (d / s[:, None])[:, None, :] + qa[:, :, None]
    L = np.empty((d.shape[0], 2, 4))
    L[..., 0] = g * (d - mu[:, None]) + (2.0 * s * r2a)[:, None]
    L[..., 1:] = (-2.0 * s)[:, None, None] * qa[:, None, :]
    L[..., 1 + axis] += g
    L /= (2.0 * d * (d + pa[:, None]))[..., None]
    r_norm = np.sqrt(np.einsum("cij,cij->cj", R, R))
    return {"gamma": gamma, "waves": (active, R, L, r_norm)}


def k1f_waves_rows(data):
    """The waves of K1F's plane data (`KershawSystem.char_data`) in the
    shapes of `k1f_axis_char_data_rows`: (active mask, R, L, |r|)."""
    cells, R, L, r_norm = data["waves"]
    active = np.zeros(data["gamma"].size, dtype=bool)
    active[cells] = True
    return active.reshape(data["gamma"].shape), R.transpose(2, 0, 1), L.transpose(2, 1, 0), r_norm.T


def k1f_char_slopes_rows(data, d_minus, d_plus, h):
    """K1F's blended wave-family slopes of row differences, from
    `k1f_axis_char_data_rows` data: (slope, n_blended)."""
    gamma = data["gamma"]
    blend = ~(gamma >= 1.0)
    n_blended = int(np.count_nonzero(blend))
    slope = np.empty(d_minus.shape)
    slope[blend] = vector_weno_slope_rows(d_minus[blend], d_plus[blend], h)
    if data["waves"] is None:
        return slope, n_blended
    active, R, L, r_norm = data["waves"]
    D = np.stack((d_minus[active], d_plus[active]), axis=-1)   # (c, 4, 2)
    A = L @ D                                                  # amplitudes (c, 2, 2)
    contact = D - R @ A
    s = vector_weno_slope_rows(contact[..., 0], contact[..., 1], h)
    sigma = weno2_slope(A[..., 0], A[..., 1], h * r_norm)
    for k in (0, 1):
        s += R[..., k] * sigma[:, k, None]
    part = blend[active]
    g = gamma[active][part][:, None]
    s[part] = g * s[part] + (1.0 - g) * slope[active][part]
    slope[active] = s
    return slope, n_blended


def m1f_char_slopes_rows(data, d_minus, d_plus, h):
    """M1F's slopes of row differences: componentwise, blended by the
    canonical eigensystems' weight toward the characteristic ones."""
    lam, R, Rinv, weight = data
    comp = weno2_slope(d_minus, d_plus, h)
    if not np.any(weight > 0.0):
        return comp, int(weight.size)
    slope = group_characteristic_slopes(lam, R, Rinv, d_minus, d_plus, h)
    w = weight[..., None]
    return w * slope + (1.0 - w) * comp, int(np.count_nonzero(weight < 1.0))


def first_order_faces_rows(system, data, axis, cols, h):
    """`faces` of a first-order system on rows, from row data (K1F's
    `k1f_axis_char_data_rows`, M1F's own `char_data`): slopes, the limiter
    recomputing the flagged cells only, then each face set's flux."""
    char_slopes = (
        k1f_char_slopes_rows if isinstance(system, KershawSystem) else m1f_char_slopes_rows
    )
    U, d_minus, d_plus = cols[..., 0, :], cols[..., 1, :], cols[..., 2, :]
    slope, n_blended = char_slopes(data, d_minus, d_plus, h)
    faces = np.empty((2,) + U.shape)
    half_slope = 0.5 * h * slope
    np.subtract(U, half_slope, out=faces[0])
    np.add(U, half_slope, out=faces[1])
    bad, theta = limit_theta_pair_rows(U, faces)
    if theta.size:
        Ub = U[bad]
        half_slope = 0.5 * h * (slope[bad] * theta[:, None])
        faces[0][bad] = Ub - half_slope
        faces[1][bad] = Ub + half_slope
    F_lo, F_hi = (first_order_flux_rows(system, f, axis) for f in faces)
    return faces[0], faces[1], F_lo, F_hi, n_blended, int(theta.size)


def pressure_column_rows(system, U, axis):
    """P e_axis of grid-shaped rows U: K1F's closed form, or M1F's closure."""
    if isinstance(system, KershawSystem):
        rho, q = np.maximum(U[..., 0], 1e-300), U[..., 1:4]
        r2 = np.einsum("...i,...i->...", q, q) / (rho * rho)
        col = (rho * (1.0 - r2))[..., None] * system.tissue.DF[..., :, axis]
        col += q * (q[..., axis] / rho)[..., None]
        return col
    return system._pressure(U, slice(axis, axis + 1))[1].reshape(U.shape[:-1] + (3,))


def pressure_grad_rows(system, U):
    """P gradQ3 of grid-shaped rows U: K1F's closed form, or M1F's closure."""
    if isinstance(system, KershawSystem):
        rho, q = np.maximum(U[..., 0], 1e-300), U[..., 1:4]
        r2 = np.einsum("...i,...i->...", q, q) / (rho * rho)
        qg = np.einsum("...i,...i->...", q, system.tissue.gradQ3)
        return (rho * (1.0 - r2))[..., None] * system._DFg + q * (qg / rho)[..., None]
    shape, P = system._pressure(U, slice(0, 2))
    g2 = system.tissue.gradQ3[..., :2]
    return np.einsum("...ij,...j->...i", P.reshape(shape + (3, 2)), g2)


def first_order_flux_rows(system, U, axis):
    """Flux (q_axis, P e_axis) / eps of grid-shaped rows U."""
    out = np.empty_like(U)
    out[..., 0] = U[..., 1 + axis]
    out[..., 1:] = pressure_column_rows(system, U, axis)
    return out / system.params.eps


def first_order_source_rows(system, U):
    """Relaxation -(r/eps^2) q plus haptotaxis (eta/eps) lamH P gradQ3 of rows U."""
    s = system.params
    out = np.zeros_like(U)
    out[..., 1:] = (
        -(s.r / s.eps**2) * U[..., 1:4]
        + (s.eta / s.eps) * system.tissue.lamH[..., None] * pressure_grad_rows(system, U)
    )
    return out


# ---------------------------------------------------------------------------
# the flux pass one axis at a time
# ---------------------------------------------------------------------------
#
# Each family's characteristic data, slopes, face fluxes and `faces` as they
# were written before one `faces` call served both axes: one axis' grid per
# call, with its own h. The stacked pass must give their bits.

def k1f_axis_char_data(system, U, axis):
    """K1F's wave families along e_axis on the planes of one grid:
    {"gamma" (ny, nx), "waves"}, waves (flat cells of the grid or
    slice(None), R (4, 2, c), L (4, 2, c), |r| (2, c)) or None."""
    X = planes(U)
    qhat = X[1:4] / np.maximum(X[0], 1e-300)
    r2 = plane_dot(qhat, qhat)
    u = planes(system.tissue.DF[..., :, axis])
    p = plane_dot(qhat, u)
    w = (1.0 - r2) * u[axis]
    lo, hi = 1e-4, 4e-4
    gamma = np.clip((np.abs(w) - lo) / (hi - lo), 0.0, 1.0)
    active = gamma > 0.0
    if not np.any(active):
        return {"gamma": gamma, "waves": None}
    cells = slice(None) if active.all() else np.flatnonzero(active)
    qa, ua = qhat.reshape(3, -1)[:, cells], u.reshape(3, -1)[:, cells]
    pa, r2a, wa = p.ravel()[cells], r2.ravel()[cells], w.ravel()[cells]
    s, mu = ua[axis], qa[axis]
    d = np.stack(kershaw_acoustic_offsets(pa, wa))
    g = d + 2.0 * pa
    R = np.empty((4,) + d.shape)
    R[0] = 1.0
    R[1:] = ua[:, None] * (d / s) + qa[:, None]
    L = np.empty((4,) + d.shape)
    L[0] = g * (d - mu) + 2.0 * s * r2a
    L[1:] = (-2.0 * s) * qa[:, None]
    L[1 + axis] += g
    L /= 2.0 * d * (d + pa)
    return {"gamma": gamma, "waves": (cells, R, L, plane_norm(R))}


def k1f_axis_slab(data, axis):
    """One axis' part of K1F's stacked data (`KershawSystem.char_data`) in
    the layout of `k1f_axis_char_data`."""
    gamma = data["gamma"][axis]
    if data["waves"] is None:
        return {"gamma": gamma, "waves": None}
    cells, R, L, r_norm = data["waves"]
    n = gamma.size
    flat = np.arange(2 * n)[cells]
    mine = (flat >= axis * n) & (flat < (axis + 1) * n)
    local = flat[mine] - axis * n
    if not local.size:
        return {"gamma": gamma, "waves": None}
    local = slice(None) if local.size == n else local
    return {"gamma": gamma, "waves": (local, R[..., mine], L[..., mine], r_norm[..., mine])}


def k1f_axis_char_slopes(data, d_minus, d_plus, h):
    """K1F's blended wave-family slopes of one grid's (4, ny, nx) difference
    planes, from `k1f_axis_char_data`: (slope planes, n_blended)."""
    gamma = data["gamma"].ravel()
    blend = np.flatnonzero(~(gamma >= 1.0))
    dm, dp = d_minus.reshape(4, -1), d_plus.reshape(4, -1)
    slope = np.empty(dm.shape)
    if blend.size:
        slope[:, blend] = vector_weno_slope(dm[:, blend], dp[:, blend], h)
    if data["waves"] is not None:
        cells, R, L, r_norm = data["waves"]
        D = np.stack((dm[:, cells], dp[:, cells]), axis=1)
        A = plane_dot(L[:, :, None], D[:, None])
        contact = D - (R[:, 0, None] * A[0] + R[:, 1, None] * A[1])
        s = vector_weno_slope(contact[:, 0], contact[:, 1], h)
        sigma = weno2_slope(A[:, 0], A[:, 1], h * r_norm)
        for k in (0, 1):
            s += R[:, k] * sigma[k]
        g = gamma[cells]
        part = np.flatnonzero(~(g >= 1.0))
        if part.size:
            g = g[part]
            s[:, part] = g * s[:, part] + (1.0 - g) * slope[:, cells][:, part]
        slope[:, cells] = s
    return slope.reshape(d_minus.shape), int(blend.size)


def m1f_axis_char_data(system, U):
    """M1F's canonical eigensystems along x and y, one (lam, R, Rinv,
    weight) tuple of grid arrays per axis; a cell whose dual failed gets
    weight 0 and R = Rinv = I."""
    shape, _, _, gmass, _, _, failed = system._closure(U)
    m = system._m_nodes
    H = np.einsum("cn,nk,nj->ckj", gmass, m, m)
    H[failed] = np.eye(4)
    failed = failed.reshape(shape)
    data = []
    for axis in (0, 1):
        T = np.einsum("cn,nk,nj->ckj", gmass * system._V[:, axis], m, m)
        J = np.swapaxes(np.linalg.solve(H, T), -1, -2) / system.params.eps
        lam, R, Rinv, weight = canonical_eig(J.reshape(shape + (4, 4)))
        weight[failed] = 0.0
        R[failed] = Rinv[failed] = np.eye(4)
        data.append((lam, R, Rinv, weight))
    return data


def m1f_axis_char_slopes(data, d_minus, d_plus, h):
    """M1F's slopes of one grid's (4, ny, nx) difference planes:
    componentwise, blended by `weight` toward the characteristic ones."""
    lam, R, Rinv, weight = data
    comp = weno2_slope(d_minus, d_plus, h)
    if not np.any(weight > 0.0):
        return comp, int(weight.size)
    dm, dp = d_minus.transpose(1, 2, 0), d_plus.transpose(1, 2, 0)
    slope = group_characteristic_slopes(lam, R, Rinv, dm, dp, h).transpose(2, 0, 1)
    return weight * slope + (1.0 - weight) * comp, int(np.count_nonzero(weight < 1.0))


def axis_char_data(system, U):
    """Each axis' characteristic data, as `axis_faces` reads it."""
    if isinstance(system, KershawSystem):
        return [k1f_axis_char_data(system, U, axis) for axis in (0, 1)]
    if isinstance(system, M1FSystem):
        return m1f_axis_char_data(system, U)
    return list(zip(*system.char_data(U)))  # P_N: the stored arrays of each axis


def first_order_axis_flux(system, X, axis):
    """Flux (q_axis, P e_axis) / eps of the planes X (4, ny, nx) of one
    grid: K1F's closed-form pressure column, or M1F's closure of the grid."""
    out = np.empty_like(X)
    out[0] = X[1 + axis]
    if isinstance(system, KershawSystem):
        rho, q = np.maximum(X[0], 1e-300), X[1:4]
        r2 = plane_dot(q, q) / (rho * rho)
        col = (rho * (1.0 - r2)) * planes(system.tissue.DF[..., :, axis])
        col += q * (q[axis] / rho)
        out[1:] = col
    else:
        shape, P = system._pressure(X.transpose(1, 2, 0), slice(axis, axis + 1))
        out[1:] = P.reshape(shape + (3,)).transpose(2, 0, 1)
    out /= system.params.eps
    return out


def first_order_axis_faces(system, data, axis, cols, h):
    """A first-order system's faces along `axis` on planes, from
    `axis_char_data`'s data of that axis: slopes, the limiter recomputing
    the flagged cells only, then the flux of each face set; the rows
    (f_lo, f_hi, F_lo, F_hi) of the grid and the two counts."""
    char_slopes = (
        k1f_axis_char_slopes if isinstance(system, KershawSystem) else m1f_axis_char_slopes
    )
    U, d_minus, d_plus = np.ascontiguousarray(cols.transpose(2, 3, 0, 1))
    slope, n_blended = char_slopes(data, d_minus, d_plus, h)
    out = np.empty((2, 2) + U.shape)
    faces, fluxes = out
    half_slope = 0.5 * h * slope
    np.subtract(U, half_slope, out=faces[0])
    np.add(U, half_slope, out=faces[1])
    bad, theta = _limit_theta_pair(U, faces)
    if theta.size:
        Ub = U.reshape(4, -1)[:, bad]
        half_slope = 0.5 * h * (slope.reshape(4, -1)[:, bad] * theta)
        faces[0].reshape(4, -1)[:, bad] = Ub - half_slope
        faces[1].reshape(4, -1)[:, bad] = Ub + half_slope
    for f, F in zip(faces, fluxes):
        F[...] = first_order_axis_flux(system, f, axis)
    f_lo, f_hi, F_lo, F_hi = out.transpose(0, 1, 3, 4, 2).reshape(4, *U.shape[1:], 4)
    return f_lo, f_hi, F_lo, F_hi, n_blended, int(theta.size)


def pn_axis_faces(system, data, cols, h):
    """P_N's faces along one axis through its (lam, R^T, R^-T) grid arrays:
    c = [U, d-, d+] R^-T, the limited slope s in place, then
    [s, (Lambda/eps) c_U, (Lambda/eps) s] R^T."""
    lam, RT, RinvT = data
    c = np.matmul(cols, RinvT, out=np.empty_like(cols))
    speed = lam / system.params.eps
    weno2_slope_inplace(c[..., 1, :], c[..., 2, :], h, cols[..., 1, :], cols[..., 2, :])
    np.multiply(speed, c[..., 0, :], out=c[..., 1, :])
    c[..., 0, :] = c[..., 2, :]
    c[..., 2, :] *= speed
    out = np.matmul(c, RT, out=np.empty_like(c))
    U = cols[..., 0, :]
    slope, flux, flux_slope = out[..., 0, :], out[..., 1, :], out[..., 2, :]
    return (
        U - 0.5 * h * slope, U + 0.5 * h * slope,
        flux - 0.5 * h * flux_slope, flux + 0.5 * h * flux_slope, 0, 0,
    )


def axis_faces(system, data, axis, cols, h):
    """`faces` of one axis: `cols` is that axis' (ny, nx, 3, m) rows
    [U, d-, d+] (overwritten), `data` its entry of `axis_char_data` and h
    its step."""
    if isinstance(system, (KershawSystem, M1FSystem)):
        return first_order_axis_faces(system, data, axis, cols, h)
    return pn_axis_faces(system, data, cols, h)
