"""Grid-vectorized moment systems fed to the finite-volume solver.

Three families share one contract with `solver.py`. States are
(ny, nx, nvars) grids, and a system provides exactly what `run_kinetic`
and its steps use:

* `kind`, `nvars`, `wave_speed`, `fallback_count` (closure fallbacks so
  far, 0 for closures that cannot fail), `closure_iterations` (the
  closure's iterative work so far: active rows summed over the M1F dual
  Newton iterations, 0 for closed-form closures);
* `limit_realizability`: apply the realizability checks after each stage;
* `source_matrix(rows)`: S of a linear source s(u) = S u on the grid rows
  `rows`, assembled on demand; None for a nonlinear source;
* `source(U)`, `source_jacobian(U)`: the nonlinear source and its
  Jacobian, on which the DG source step runs Newton (only the systems
  whose `source_matrix` is None have them);
* `initial_state(rho)`: the isotropic state of density rho;
* `char_data(U) -> (data_x, data_y)`, evaluated once per flux step;
* `faces(data, axis, cols, h, floor) -> (f_lo, f_hi, F_lo, F_hi,
  n_blended, n_limited)`: `cols` is (ny, nx, nvars, 3) holding U and its
  backward and forward differences along `axis`; the result is every
  cell's reconstructed low and high face states, their fluxes, the count
  of cells blended toward componentwise limiting and the count the
  realizability limiter scaled;
* `boundary_flux(side, U_edge)`: thermal flux through one domain side.

`first_order_realizable` is the one realizability predicate they all use.
The families:

* `KershawSystem`  - first-order K1F closure, analytic flux/source Jacobians;
* `LinearAnsatzSystem` - P_N and P_N^(F): the closure is linear in the
  moments, so the per-cell characteristic bases of both flux matrices are
  assembled once at setup, in row tiles whose temporaries are bounded by
  `_TILE_BYTES` (see `tiles`); fluxes and the source matrix are applied
  through them; the evolved state is the reduced moment vector of size
  (N+1)^2;
* `M1FSystem`      - exponential anchored ansatz, closed by one batched
  `m1f_dual_solve` per evaluation from a beta = 0 start built at setup for
  that evaluation's batch of cells; cells whose dual solve fails fall back
  to the Kershaw pressure and thermal boundary flux and are counted in the
  diagnostics.

Fluxes carry the 1/eps of the scaled system; the global wave-speed bound
is 1/eps for every family (unit-speed eigenvalues lie in [-1, 1]).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from .closures import (
    kershaw_jacobian,
    kershaw_pressure_batch,
    m1f_dual_solve,
    m1f_dual_start,
    pn_basis,
)
from .kinetic import ScalingParams, anchor_nodes_for
from .reconstruct import (
    canonical_eig,
    group_characteristic_slopes,
    row_norm,
    vector_weno_slope,
    weno2_slope,
)
from .quadrature import (
    SphereQuadrature,
    build_hemisphere_quadrature,
)
from .tissue import TissueFields, peanut_node_values

#: exactness degree of the hemisphere rules behind the thermal boundary flux
_HEMI_DEGREE = 15

#: bytes of one per-cell m x m array over a tile of grid rows (at least
#: one); a tile holds several such temporaries at once
_TILE_BYTES = 64 << 10


def tiles(n: int, item_bytes: int) -> list[slice]:
    """Consecutive slices covering range(n), each of at most
    _TILE_BYTES // item_bytes items (at least one). The P_N setup and
    `solver.source_propagator` both step through the grid rows in these
    tiles, so their per-cell m x m temporaries stay bounded."""
    step = max(1, _TILE_BYTES // item_bytes)
    return [slice(i, min(i + step, n)) for i in range(0, n, step)]


class MomentSystemError(RuntimeError):
    pass


#: outward unit normal of each domain side
_EDGES = {
    "left": np.array([-1.0, 0.0, 0.0]),
    "right": np.array([1.0, 0.0, 0.0]),
    "bottom": np.array([0.0, -1.0, 0.0]),
    "top": np.array([0.0, 1.0, 0.0]),
}


def edge_slice(side: str):
    """Index expression selecting the boundary cells of a (ny, nx, ...) array."""
    return {
        "left": (slice(None), 0),
        "right": (slice(None), -1),
        "bottom": (0, slice(None)),
        "top": (-1, slice(None)),
    }[side]


def first_order_realizable(U: np.ndarray, floor: float) -> np.ndarray:
    """rho >= floor and |q| <= rho, batched over leading dims."""
    rho = U[..., 0]
    return (rho >= floor) & (row_norm(U[..., 1:4]) <= rho)


def _realizable_theta(u_mean, u_face, floor):
    """Largest theta in [0, 1] keeping u_mean + theta (u_face - u_mean) realizable.

    The set {rho >= floor, |q| <= rho} is convex, so theta = min(1, t_floor,
    t_q): t_floor is where rho reaches the floor, t_q the smallest positive
    root of a t^2 + 2 b t + c = |q + t dq|^2 - (rho + t drho)^2 in
    cancellation-free form, with b^2 - a c summed from the 2x2 minors of
    (u_mean, u_face) (Lagrange's identity), which stay accurate for faces
    near the apex. theta is 0 when the mean sits at or past the boundary
    and the face points outward; a 1e-12 relative margin keeps the limited
    face inside under rounding. Batched over leading axes.
    """
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
        # b > 0: the face points outward, root -c/(b + s) (0 on the boundary);
        # b <= 0: only a > 0 turns back out, at (s - b)/a; no real root: the
        # quadratic keeps the sign of c along the whole line
        t_q = np.where(b > 0, -c / (b + s), np.where(a > 0, (s - b) / a, np.inf))
        t_q = np.where(disc < 0, np.where(c < 0, np.inf, 0.0), t_q)
        t_floor = np.where(drho < 0, (rho - floor) / -drho, np.inf)
    theta = np.clip(np.minimum(t_q, t_floor), 0.0, 1.0) * (1.0 - 1e-12)
    return np.where(rho < floor, 0.0, theta)


def _limit_theta_pair(U, faces, floor):
    """The realizability limiter on the stacked (2, ..., 4) low and high
    faces of the cells U: returns the cells whose faces fail the predicate
    and, on those cells (in mask order), the common theta keeping both
    faces realizable. Every other cell keeps theta = 1, so only the flagged
    cells' faces need recomputing."""
    bad = ~first_order_realizable(faces, floor).all(axis=0)
    if not bad.any():
        return bad, np.empty(0)
    theta = _realizable_theta(U[bad], faces[:, bad], floor)
    return bad, np.minimum(theta[0], theta[1])


def _fo_basis(nodes):
    """First-order moment basis (1, v) at the given nodes."""
    return np.concatenate([np.ones((nodes.shape[0], 1)), nodes], axis=1)


# ---------------------------------------------------------------------------
# thermal boundary operators
# ---------------------------------------------------------------------------

@dataclass
class _EdgeOps:
    """Precomputed half-range moment operators for one boundary side.

    ctilde is the incoming-moment template normalized so its mass entry is
    exactly -1; the assembled flux O + Phi*ctilde then has an exactly zero
    mass component (emitted mass equals absorbed mass by construction).
    """

    out_nodes: np.ndarray       # (nq, 3)
    out_mu_w: np.ndarray        # (nq,) weights * (v.n)
    anchor_out: np.ndarray      # (ne, nq)
    ctilde: np.ndarray          # (ne, m)
    ops: dict = field(default_factory=dict)


def _edge_ops(tensors_edge, n, basis_eval, uniform):
    hout = build_hemisphere_quadrature(n, _HEMI_DEGREE)
    hin = build_hemisphere_quadrature(-n, _HEMI_DEGREE)
    Fout = anchor_nodes_for(tensors_edge, hout.nodes, uniform)
    Fin = anchor_nodes_for(tensors_edge, hin.nodes, uniform)
    mu_out = hout.nodes @ n
    mu_in = hin.nodes @ n
    a_in = basis_eval(hin.nodes)          # (nq_in, m)
    c = np.einsum("n,nk,en->ek", hin.weights * mu_in, a_in, Fin)
    zeta = -c[:, 0]
    if np.any(zeta <= 0):
        raise MomentSystemError(
            "thermal boundary: anchor vanishes on the incoming hemisphere "
            "(zeta <= 0), cannot renormalize the re-emitted flux"
        )
    ctilde = c / zeta[:, None]
    ctilde[:, 0] = -1.0
    return _EdgeOps(
        out_nodes=hout.nodes,
        out_mu_w=hout.weights * mu_out,
        anchor_out=Fout,
        ctilde=ctilde,
    )


def assemble_thermal_flux(out_moments: np.ndarray, ctilde: np.ndarray, eps: float):
    """O + Phi*ctilde with Phi = O[...,0]; mass component exactly zero."""
    return (out_moments + out_moments[..., 0:1] * ctilde) / eps


def _add_kershaw_edge_ops(ops: _EdgeOps, DF_edge: np.ndarray) -> None:
    """Store the Kershaw closure's half-range operators A, B and DF^-1 in `ops`."""
    a_out = _fo_basis(ops.out_nodes)
    ops.ops["A"] = np.einsum("n,nk,en->ek", ops.out_mu_w, a_out, ops.anchor_out)
    ops.ops["B"] = np.einsum(
        "n,nk,ni,en->eki", ops.out_mu_w, a_out, ops.out_nodes, ops.anchor_out
    )
    ops.ops["DFinv"] = np.linalg.inv(DF_edge)


def _kershaw_boundary_flux(ops: _EdgeOps, U_edge: np.ndarray, eps: float, rows=slice(None)):
    """Kershaw thermal flux through one side, for the edge cells `rows`."""
    U = U_edge[rows]
    beta = np.einsum("eij,ej->ei", ops.ops["DFinv"][rows], U[:, 1:4])
    O = U[:, 0, None] * ops.ops["A"][rows] + np.einsum("eki,ei->ek", ops.ops["B"][rows], beta)
    return assemble_thermal_flux(O, ops.ctilde[rows], eps)


# ---------------------------------------------------------------------------
# K1F and M1F
# ---------------------------------------------------------------------------

def _kershaw_source_jacobian(rho, q, g, DFg, lamH, s: ScalingParams) -> np.ndarray:
    """d(source)/d(rho, q) of the Kershaw closure, (..., 4, 4).

    g = gradQ3, DFg = DF g and lamH are per cell and broadcast against rho;
    K1F uses it everywhere, M1F in the cells whose dual solve failed.
    """
    qh = q / rho[..., None]
    r2 = np.einsum("...i,...i->...", qh, qh)
    qg = np.einsum("...i,...i->...", qh, g)
    dPg_drho = (1.0 + r2)[..., None] * DFg - qg[..., None] * qh
    dPg_dq = (
        -2.0 * DFg[..., :, None] * qh[..., None, :]
        + qg[..., None, None] * np.eye(3)
        + qh[..., :, None] * g[..., None, :]
    )
    coef = (s.eta / s.eps) * lamH
    J = np.zeros(rho.shape + (4, 4))
    J[..., 1:, 0] = coef[..., None] * dPg_drho
    J[..., 1:, 1:] = coef[..., None, None] * dPg_dq - (s.r / s.eps**2) * np.eye(3)
    return J


class _FirstOrderSystem:
    """State (rho, q) with a nonlinear closure (K1F, M1F)."""

    nvars = 4
    #: both closures are only defined for realizable moments
    limit_realizability = True
    source_matrix = None
    fallback_count = 0
    closure_iterations = 0

    def initial_state(self, rho: np.ndarray) -> np.ndarray:
        U = np.zeros(rho.shape + (4,))
        U[..., 0] = rho
        return U

    def faces(self, data, axis, cols, h, floor):
        """Characteristic slopes, then the realizability limiter, then the
        closure's flux of both face sets in one call. The faces are written
        into one (2, ny, nx, 4) array, which `flux` takes as it is; the
        limiter recomputes only the cells it flags, as U -+ (h/2)(slope theta)."""
        U, d_minus, d_plus = cols[..., 0], cols[..., 1], cols[..., 2]
        slope, n_blended = self.char_slopes(data, d_minus, d_plus, h)
        faces = np.empty((2,) + U.shape)
        half_slope = 0.5 * h * slope
        np.subtract(U, half_slope, out=faces[0])
        np.add(U, half_slope, out=faces[1])
        bad, theta = _limit_theta_pair(U, faces, floor)
        if theta.size:
            Ub = U[bad]
            half_slope = 0.5 * h * (slope[bad] * theta[:, None])
            faces[0][bad] = Ub - half_slope
            faces[1][bad] = Ub + half_slope
        F_lo, F_hi = self.flux(faces, axis)
        return faces[0], faces[1], F_lo, F_hi, n_blended, int(theta.size)


class KershawSystem(_FirstOrderSystem):
    """First-order moment system closed with the anchored Kershaw tensor."""

    kind = "K1F"

    def __init__(self, tissue: TissueFields, params: ScalingParams):
        self.tissue = tissue
        self.params = params
        self.wave_speed = 1.0 / params.eps
        self._DFg = np.einsum("...ij,...j->...i", tissue.DF, tissue.gradQ3)
        self._edges: dict[str, _EdgeOps] = {}
        for side, n in _EDGES.items():
            tensors_edge = tissue.tensors[edge_slice(side)]
            ops = _edge_ops(tensors_edge, n, _fo_basis, uniform=False)
            _add_kershaw_edge_ops(ops, tissue.DF[edge_slice(side)])
            self._edges[side] = ops

    def _split(self, U):
        rho = np.maximum(U[..., 0], 1e-300)  # positivity enforced upstream
        return rho, U[..., 1:4]

    def flux(self, U: np.ndarray, axis: int) -> np.ndarray:
        """Flux along `axis`; elementwise, so stacked leading axes broadcast."""
        # P e_d = rho (1-|qhat|^2) DF e_d + q q_d / rho, column only
        rho, q = self._split(U)
        r2 = np.einsum("...i,...i->...", q, q) / (rho * rho)
        out = np.empty_like(U)
        out[..., 0] = q[..., axis]
        out[..., 1:] = (rho * (1.0 - r2))[..., None] * self.tissue.DF[..., :, axis]
        out[..., 1:] += q * (q[..., axis] / rho)[..., None]
        return out / self.params.eps

    def source(self, U: np.ndarray) -> np.ndarray:
        s = self.params
        rho, q = self._split(U)
        r2 = np.einsum("...i,...i->...", q, q) / (rho * rho)
        qg = np.einsum("...i,...i->...", q, self.tissue.gradQ3)
        Pg = (rho * (1.0 - r2))[..., None] * self._DFg + q * (qg / rho)[..., None]
        out = np.zeros_like(U)
        out[..., 1:] = (
            -(s.r / s.eps**2) * q
            + (s.eta / s.eps) * self.tissue.lamH[..., None] * Pg
        )
        return out

    def source_jacobian(self, U: np.ndarray) -> np.ndarray:
        rho, q = self._split(U)
        return _kershaw_source_jacobian(
            rho, q, self.tissue.gradQ3, self._DFg, self.tissue.lamH, self.params
        )

    def char_data(self, U: np.ndarray):
        return self._axis_char_data(U, 0), self._axis_char_data(U, 1)

    def _axis_char_data(self, U: np.ndarray, axis: int) -> dict:
        """Analytic spectral projectors of the unit-speed flux Jacobian.

        The characteristic polynomial factors in closed form as
        p(lambda) = (lambda - qhat.n)^2 Q2(lambda): the double contact
        eigenvalue mu = qhat.n is deflated by synthetic division and the
        remaining quadratic gives the acoustic-like speeds. The three wave
        families' projectors are Frobenius covariants (matrix polynomials
        in J), so everything is a smooth function of the state; numeric
        eigenbases of the double eigenvalue would be arbitrary there.

        `gamma` in [0, 1] blends toward a single-family treatment when the
        acoustic roots collide with each other (small Q2 discriminant) or
        with mu (small Q2(mu)), covering the Theorem-degenerate
        configurations; both measures are polynomial in the state, ramped
        over a fixed window so the blend is continuous.
        """
        rho, q = self._split(U)
        J = kershaw_jacobian(rho, q, self.tissue.DF, np.eye(3)[axis])
        mu = q[..., axis] / rho
        # characteristic polynomial coefficients via Newton's identities
        J2 = J @ J
        t1 = np.trace(J, axis1=-2, axis2=-1)
        t2 = np.trace(J2, axis1=-2, axis2=-1)
        e1 = t1
        e2 = (e1 * t1 - t2) / 2.0
        c3, c2 = -e1, e2
        # deflate the exact double root mu twice (synthetic division)
        b2 = c3 + mu
        b1 = c2 + mu * b2
        Bq = b2 + mu
        Cq = b1 + mu * Bq
        disc = Bq * Bq - 4.0 * Cq
        q2mu = mu * mu + Bq * mu + Cq          # (mu-lam+)(mu-lam-)
        lo, hi = 1e-4, 4e-4                    # gap window [1e-2, 2e-2]^2
        g_disc = np.clip((disc - lo) / (hi - lo), 0.0, 1.0)
        g_mid = np.clip((np.abs(q2mu) - lo) / (hi - lo), 0.0, 1.0)
        gamma = g_disc * g_mid
        data = {"gamma": gamma, "projs": None}
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
            P_mid = eye - P_plus - P_minus
            data["projs"] = (active, P_minus, P_mid, P_plus)
        return data

    def char_slopes(self, data, d_minus, d_plus, h):
        """Blended projector-family WENO slopes; returns (slope, n_blended).

        The merged-family slope enters only where gamma < 1, so it is
        computed only there. The projector einsums run on the masked
        gathers, which are contiguous: on the strided difference views
        they round differently.
        """
        gamma = data["gamma"]
        blend = ~(gamma >= 1.0)
        n_blended = int(np.count_nonzero(blend))
        slope = np.empty(d_minus.shape)
        slope[blend] = vector_weno_slope(d_minus[blend], d_plus[blend], h)  # merged family
        if data["projs"] is None:
            return slope, n_blended
        active, *projs = data["projs"]
        dm, dp = d_minus[active], d_plus[active]
        s = np.zeros_like(dm)
        for P in projs:
            a = np.einsum("cij,cj->ci", P, dm)
            b = np.einsum("cij,cj->ci", P, dp)
            s = s + vector_weno_slope(a, b, h)
        part = blend[active]
        g = gamma[active][part][:, None]
        s[part] = g * s[part] + (1.0 - g) * slope[active][part]
        slope[active] = s
        return slope, n_blended

    def boundary_flux(self, side: str, U_edge: np.ndarray) -> np.ndarray:
        return _kershaw_boundary_flux(self._edges[side], U_edge, self.params.eps)


# ---------------------------------------------------------------------------
# P_N / P_N^(F)
# ---------------------------------------------------------------------------

class LinearAnsatzSystem:
    """Polynomial (times anchor) closure: everything is linear in u.

    The evolved state is the reduced moment vector (a_0 = 1, then
    v_x, v_y, v_z, ...). Per cell and axis the run holds only the
    characteristic data of the flux matrix A_d = B_d G^-1 / eps: its
    unit-speed eigenvalues Lambda_d and bases R_d, R_d^-1. With G = L L^T
    and Sym = L^-1 B_d L^-T = W Lambda W^T, R = L W up to a diagonal
    sign/norm rescaling, so R Lambda R^-1 = L Sym L^-1 = B_d G^-1 = eps A_d
    exactly in exact arithmetic (the rescaling cancels). Face fluxes and
    the source matrix are therefore applied through R, Lambda and R^-1,
    and neither A_d nor the full-grid source matrix is stored: S is
    assembled a row tile at a time (`source_matrix`) while the DG
    propagator is built. Characteristic limiting is plain per-variable WENO
    in the frozen basis. Where the flux spectrum has repeated eigenvalues
    (in P3F every cell has a 4-fold zero and +- pairs), that basis is only
    one of many: `eigh` picks it inside each degenerate eigenspace, and a
    last-bit change of what its input is built from (G, B, L) rotates it
    and moves the limited slopes, and so the solution, far beyond rounding.

    The linear closure is globally defined (its ansatz is signed by
    construction), so the realizability limiter and the hard realizability
    checks are off: standard P_N solutions are known to leave the
    realizable set near fronts, and aborting there would make the
    standard-vs-anchored comparisons impossible. `first_order_realizable`
    stays available for diagnostics.

    Setup fills the preallocated R, Rinv, lam and mQ a few grid rows at a
    time (`_build_tile`), so its m x m temporaries (G, B_d, L, the
    eigen-solve and rescaling copies) are bounded by `_TILE_BYTES` rather
    than by the grid: peak memory stays near what the time step holds.
    Every expression is per cell, so the arrays are bitwise those of a
    whole-grid build.
    """

    nvars: int
    limit_realizability = False
    fallback_count = 0
    closure_iterations = 0

    def __init__(
        self,
        tissue: TissueFields,
        params: ScalingParams,
        quad: SphereQuadrature,
        N: int,
        uniform_anchor: bool,
    ):
        self.kind = f"P{N}" + ("" if uniform_anchor else "F")
        self.tissue = tissue
        self.params = params
        self.basis = pn_basis(N)
        m = self.basis.Kr
        self.nvars = m
        self.wave_speed = 1.0 / params.eps

        ared = self.basis.evaluate_reduced(quad.nodes)      # (nq, m)
        F = anchor_nodes_for(tissue.tensors, quad.nodes, uniform_anchor)
        wF = quad.weights * F                               # (ny, nx, nq)
        self._uniform_moments = (quad.weights @ ared) / (4.0 * np.pi)

        ny, nx = F.shape[:2]
        grid_mm = (ny, nx, m, m)
        self.mQ = np.empty((ny, nx, m))
        self._char = tuple(
            (np.empty((ny, nx, m)), np.empty(grid_mm), np.empty(grid_mm)) for _ in (0, 1)
        )
        for rows in tiles(ny, nx * m * m * 8):
            self._build_tile(rows, wF[rows], ared, quad.nodes)
        for lam, _, _ in self._char:
            speed = float(np.max(np.abs(lam)))
            if speed > 1.0 + 1e-10:
                raise MomentSystemError(
                    f"{self.kind}: unit-speed wave speeds exceed 1 "
                    f"({speed:.6f}); anchor moments inconsistent"
                )

        # the edge operators need G only at the boundary cells, so it is
        # recomputed there (per cell, so bitwise the tiles' G)
        self._edges: dict[str, _EdgeOps] = {}
        for side, n in _EDGES.items():
            sl = edge_slice(side)
            ops = _edge_ops(tissue.tensors[sl], n, self.basis.evaluate_reduced, uniform_anchor)
            a_out = self.basis.evaluate_reduced(ops.out_nodes)
            T = np.einsum("en,nk,nj->ekj", ops.anchor_out * ops.out_mu_w, a_out, a_out)
            G = np.einsum("en,nk,nj->ekj", wF[sl], ared, ared)
            ops.ops["M"] = np.swapaxes(np.linalg.solve(G, T), -1, -2)
            self._edges[side] = ops

    def _build_tile(self, rows, wF, ared, nodes):
        """Fill R, Rinv, lam and mQ on the grid rows `rows` from the tile's
        node weights wF; every expression is per cell, so the result does
        not depend on the tiling."""
        G = np.einsum("yxn,nk,nj->yxkj", wF, ared, ared)
        self.mQ[rows] = np.einsum("yxn,nk->yxk", wF, ared)

        # characteristic bases: A_d = B_d G^-1 / eps is similar to the
        # symmetric L^-1 B_d L^-T (G = L L^T), so the spectrum is real.
        # wF * v_d premultiplied: bitwise the 4-operand form (the eigenbases
        # depend on every bit of B_d), at a quarter of the cost
        L = np.linalg.cholesky(G)
        for d, (lam_out, R_out, Rinv_out) in enumerate(self._char):
            Bd = np.einsum("yxn,nk,nj->yxkj", wF * nodes[:, d], ared, ared)
            X = np.linalg.solve(L, Bd)
            Sym = np.swapaxes(np.linalg.solve(L, np.swapaxes(X, -1, -2)), -1, -2)
            Sym = 0.5 * (Sym + np.swapaxes(Sym, -1, -2))
            lam, W = np.linalg.eigh(Sym)
            R = L @ W
            idx = np.argmax(np.abs(R), axis=-2)
            lead = np.take_along_axis(R, idx[..., None, :], axis=-2)[..., 0, :]
            R = R * np.where(lead >= 0, 1.0, -1.0)[..., None, :]
            R = R / np.linalg.norm(R, axis=-2)[..., None, :]
            lam_out[rows] = lam
            R_out[rows] = R
            Rinv_out[rows] = np.linalg.inv(R)

    def source_matrix(self, rows=slice(None)) -> np.ndarray:
        """Per-cell S on the grid rows `rows`: relaxation toward rho*mQ plus
        the haptotactic projection, whose advective part
        sum_d g3_d B_d G^-1 is summed as sum_d g3_d R_d Lambda_d R_d^-1.
        Its mass row vanishes identically (both kernels conserve mass), so
        it is zeroed to keep the conservation exact in floating point."""
        params, eps = self.params, self.params.eps
        mQ = self.mQ[rows]
        m = self.nvars
        g3 = self.tissue.gradQ3[rows]
        grow = np.zeros(mQ.shape)
        grow[..., 1:4] = g3
        e0 = np.zeros(m)
        e0[0] = 1.0
        S = (params.r / eps**2) * (mQ[..., :, None] * e0[None, :] - np.eye(m))
        adv = sum(
            g3[..., d, None, None] * ((R[rows] * lam[rows][..., None, :]) @ Rinv[rows])
            for d, (lam, R, Rinv) in enumerate(self._char)
        )
        S = S + (params.eta / eps) * self.tissue.lamH[rows][..., None, None] * (
            adv - mQ[..., :, None] * grow[..., None, :]
        )
        S[..., 0, :] = 0.0
        return S

    def initial_state(self, rho: np.ndarray) -> np.ndarray:
        return rho[..., None] * self._uniform_moments

    def char_data(self, U: np.ndarray):
        return self._char

    def faces(self, data, axis, cols, h, floor):
        """Faces and fluxes through the characteristic transform, reading R
        and R^-1 once each: c = R^-1 [U, d_minus, d_plus] gives the limited
        characteristic slope s, then R [s, (Lambda/eps) c_U, (Lambda/eps) s]
        gives the slope R s, the cell flux A U and the flux slope A R s, so
        f = U -+ (h/2) R s and F = A U -+ (h/2) A R s. No limiter (the
        closure is globally defined), so `floor` is unused."""
        lam, R, Rinv = data
        c = Rinv @ cols
        speed = lam / self.params.eps
        # overwrite c with [s, (Lambda/eps) c_U, (Lambda/eps) s] column by column
        c[..., 2] = weno2_slope(c[..., 1], c[..., 2], h)
        np.multiply(speed, c[..., 0], out=c[..., 1])
        c[..., 0] = c[..., 2]
        c[..., 2] *= speed
        out = R @ c
        del c, speed
        U = cols[..., 0]
        slope, flux, flux_slope = out[..., 0], out[..., 1], out[..., 2]
        f_lo = U - 0.5 * h * slope
        f_hi = U + 0.5 * h * slope
        F_lo = flux - 0.5 * h * flux_slope
        F_hi = flux + 0.5 * h * flux_slope
        return f_lo, f_hi, F_lo, F_hi, 0, 0

    def boundary_flux(self, side: str, U_edge: np.ndarray) -> np.ndarray:
        ops = self._edges[side]
        O = np.einsum("ekj,ej->ek", ops.ops["M"], U_edge)
        return assemble_thermal_flux(O, ops.ctilde, self.params.eps)


# ---------------------------------------------------------------------------
# M1F
# ---------------------------------------------------------------------------

def _dual_qhat(rho: np.ndarray, q: np.ndarray) -> np.ndarray:
    """q/rho per row, pulled just inside the unit ball so the dual is solvable."""
    qhat = q / rho[:, None]
    r = row_norm(qhat)
    return qhat / np.maximum(1.0, r / 0.999999)[:, None]


class M1FSystem(_FirstOrderSystem):
    """Exponential anchored closure with vectorized dual Newton solves.

    Every dual solve starts at beta = 0, where its weights, partition
    function, mean and second moments depend on the anchor weights alone;
    `closures.m1f_dual_start` computes them once here, for the whole grid
    (`_closure`) and for each side's edge cells (`boundary_flux`). A start
    gives the bits of a solve from scratch only on the batch it was built
    on, rows in the same order, since OpenBLAS rounds a row of `wF @ V` by
    its offset in the batch. So `_closure` takes grid-shaped states only,
    and `flux` closes its two face sets one grid at a time.
    """

    kind = "M1F"

    def __init__(self, tissue: TissueFields, params: ScalingParams, quad: SphereQuadrature):
        self.tissue = tissue
        self.params = params
        self.wave_speed = 1.0 / params.eps
        self.fallback_count = 0
        self.closure_iterations = 0
        self._DFg = np.einsum("...ij,...j->...i", tissue.DF, tissue.gradQ3)
        wF = quad.weights * peanut_node_values(tissue.tensors, quad.nodes)  # (ny, nx, nq)
        self._V = quad.nodes
        self._start = m1f_dual_start(wF.reshape(-1, len(quad)), self._V)
        self._m_nodes = _fo_basis(quad.nodes)  # (nq, 4)
        self._edges: dict[str, _EdgeOps] = {}
        for side, n in _EDGES.items():
            sl = edge_slice(side)
            ops = _edge_ops(tissue.tensors[sl], n, _fo_basis, False)
            ops.ops["a_out"] = _fo_basis(ops.out_nodes)
            ops.ops["start"] = m1f_dual_start(wF[sl], self._V)
            self._edges[side] = ops

    def _closure(self, U: np.ndarray):
        """Per-cell ansatz node masses f^A w (mass rho) of a grid-shaped U,
        solved from the grid's dual start; Kershaw fallback."""
        shape = U.shape[:-1]
        if shape != self.tissue.lamH.shape:
            raise MomentSystemError(
                f"M1F closure takes a grid-shaped state {self.tissue.lamH.shape + (4,)}, "
                f"got shape {U.shape}"
            )
        rho = np.maximum(U[..., 0].reshape(-1), 1e-300)
        q = U[..., 1:4].reshape(-1, 3)
        qhat = _dual_qhat(rho, q)
        beta, gnorm, lognorm, failed, iterations = m1f_dual_solve(qhat, self._start, self._V)
        self.closure_iterations += iterations
        gmass = gnorm * rho[:, None]
        P = np.einsum("cn,ni,nj->cij", gmass, self._V, self._V)
        if np.any(failed):
            self.fallback_count += int(np.count_nonzero(failed))
            DF = self.tissue.DF.reshape(-1, 3, 3)
            P[failed] = kershaw_pressure_batch(rho[failed], q[failed], DF[failed])
        return shape, rho, P, gmass, beta, lognorm, failed

    def flux(self, U: np.ndarray, axis: int) -> np.ndarray:
        """Flux along `axis`. Grids stacked on leading axes are closed one at
        a time, because a joint dual solve changes bits: OpenBLAS computes a
        row of the solve's `gz @ V` (84 nodes) differently depending on the
        row's offset in the batch (OpenBLAS 0.3.31 on a Xeon: batches of 1-8
        rows placed after 0-7 other rows differ in 37 of 64 cases; closing
        two 20x20 face sets jointly moved 3 of 800 cells), and M1F's
        blending follows last-bit changes."""
        grids = U.reshape((-1,) + U.shape[-3:])
        P = np.stack([self._closure(u)[2] for u in grids])
        out = np.empty_like(U)
        out[..., 0] = U[..., 1 + axis]
        out[..., 1:] = P.reshape(U.shape[:-1] + (3, 3))[..., :, axis]
        return out / self.params.eps

    def char_data(self, U: np.ndarray):
        """Canonical eigensystems of the flux Jacobians along x and y, from
        one closure of U."""
        shape, _, _, gmass, _, _, _ = self._closure(U)
        m = self._m_nodes
        H = np.einsum("cn,nk,nj->ckj", gmass, m, m)
        data = []
        for axis in (0, 1):
            # gmass * v_axis premultiplied: bitwise the 4-operand form
            T = np.einsum("cn,nk,nj->ckj", gmass * self._V[:, axis], m, m)
            J = np.swapaxes(np.linalg.solve(H, T), -1, -2) / self.params.eps
            data.append(canonical_eig(J.reshape(shape + (4, 4))))
        return tuple(data)

    def char_slopes(self, data, d_minus, d_plus, h):
        lam, R, Rinv, weight = data
        comp = weno2_slope(d_minus, d_plus, h)
        if not np.any(weight > 0.0):
            return comp, int(weight.size)
        slope = group_characteristic_slopes(lam, R, Rinv, d_minus, d_plus, h)
        w = weight[..., None]
        return w * slope + (1.0 - w) * comp, int(np.count_nonzero(weight < 1.0))

    def source(self, U: np.ndarray) -> np.ndarray:
        s = self.params
        shape, _, P, _, _, _, _ = self._closure(U)
        Pg = np.einsum(
            "...ij,...j->...i", P.reshape(shape + (3, 3)), self.tissue.gradQ3
        )
        out = np.zeros_like(U)
        out[..., 1:] = (
            -(s.r / s.eps**2) * U[..., 1:4]
            + (s.eta / s.eps) * self.tissue.lamH[..., None] * Pg
        )
        return out

    def source_jacobian(self, U: np.ndarray) -> np.ndarray:
        s = self.params
        shape, rho, _, gmass, _, _, failed = self._closure(U)
        m = self._m_nodes
        g3 = self.tissue.gradQ3.reshape(-1, 3)
        vg = g3 @ self._V.T                                 # (nc, nq)
        H = np.einsum("cn,nk,nj->ckj", gmass, m, m)
        Tg = np.einsum("cn,cn,ni,nj->cij", gmass, vg, self._V, m)  # (nc, 3, 4)
        dPg = np.swapaxes(np.linalg.solve(H, np.swapaxes(Tg, -1, -2)), -1, -2)
        lamH = self.tissue.lamH.reshape(-1)
        coef = (s.eta / s.eps) * lamH[:, None, None]
        J = np.zeros((dPg.shape[0], 4, 4))
        J[:, 1:, :] = coef * dPg
        J[:, 1:, 1:] -= (s.r / s.eps**2) * np.eye(3)
        if np.any(failed):
            # as in `source`: cells without a converged dual are Kershaw's
            q = U[..., 1:4].reshape(-1, 3)
            DFg = self._DFg.reshape(-1, 3)
            J[failed] = _kershaw_source_jacobian(
                rho[failed], q[failed], g3[failed], DFg[failed], lamH[failed], s
            )
        return J.reshape(shape + (4, 4))

    def boundary_flux(self, side: str, U_edge: np.ndarray) -> np.ndarray:
        ops = self._edges[side]
        rho = np.maximum(U_edge[..., 0], 1e-300)
        qhat = _dual_qhat(rho, U_edge[..., 1:4])
        beta, _, lognorm, failed, iterations = m1f_dual_solve(qhat, ops.ops["start"], self._V)
        self.closure_iterations += iterations
        # f^A on the outgoing hemisphere: rho * exp(v.beta - lognorm) * Qhat
        expo = beta @ ops.out_nodes.T - lognorm[:, None] + np.log(rho)[:, None]
        fA = np.exp(expo) * ops.anchor_out
        O = np.einsum("n,nk,en->ek", ops.out_mu_w, ops.ops["a_out"], fA)
        out = assemble_thermal_flux(O, ops.ctilde, self.params.eps)
        if np.any(failed):
            # as in _closure: cells without a converged dual take Kershaw's flux
            self.fallback_count += int(np.count_nonzero(failed))
            if "A" not in ops.ops:
                _add_kershaw_edge_ops(ops, self.tissue.DF[edge_slice(side)])
            out[failed] = _kershaw_boundary_flux(ops, U_edge, self.params.eps, failed)
        return out


_MODEL_RE = re.compile(r"^P([1-5])(F?)$")


def build_system(
    kind: str,
    tissue: TissueFields,
    params: ScalingParams,
    quad: SphereQuadrature,
):
    if kind == "K1F":
        return KershawSystem(tissue, params)
    if kind == "M1F":
        return M1FSystem(tissue, params, quad)
    match = _MODEL_RE.match(kind)
    if match:
        return LinearAnsatzSystem(
            tissue, params, quad, int(match.group(1)), uniform_anchor=(match.group(2) == "")
        )
    raise MomentSystemError(
        f"unknown model {kind!r}: expected K1F, M1F, P1..P5 or P1F..P5F"
    )
