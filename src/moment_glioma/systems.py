"""Grid-vectorized moment systems fed to the finite-volume solver.

Three families share one contract with `solver.py`. States are
(ny, nx, nvars) grids, and a system provides exactly what `run_kinetic`
and its steps use:

* `kind`, `nvars`, `wave_speed`;
* `limit_realizability`: apply the realizability limiter and checks;
* `source_matrix`: per-cell S of a linear source s(u) = S u, else None
  (then the DG source step runs Newton on `source`/`source_jacobian`);
* `initial_state(rho)`: the isotropic state of density rho;
* `flux(U, axis)`: U may stack several grids on leading axes (the solver
  passes both face sets of an axis at once) and the result has U's shape;
* `source(U)`, `source_jacobian(U)`;
* `char_data(U, axis)`, evaluated once per flux step, and
  `char_slopes(data, d_minus, d_plus, h) -> (slope, n_blended)`, the
  limited slopes and the count of cells blended toward componentwise
  limiting;
* `boundary_flux(side, U_edge)`: thermal flux through one domain side.

`first_order_realizable` is the one realizability predicate they all use.
The families:

* `KershawSystem`  - first-order K1F closure, analytic flux/source Jacobians;
* `LinearAnsatzSystem` - P_N and P_N^(F): the closure is linear in the
  moments, so per-cell flux and source matrices (and their characteristic
  bases) are assembled once at setup; the evolved state is the reduced
  moment vector of size (N+1)^2;
* `M1FSystem`      - exponential anchored ansatz with a vectorized Newton
  solve per evaluation; cells whose dual solve fails fall back to the
  Kershaw pressure and are counted in the diagnostics.

Fluxes carry the 1/eps of the scaled system; the global wave-speed bound
is 1/eps for every family (unit-speed eigenvalues lie in [-1, 1]).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from .closures import kershaw_pressure_batch, kershaw_jacobian_batch, pn_basis
from .kinetic import CellFields, ScalingParams, anchor_nodes_for
from .reconstruct import (
    canonical_eig,
    group_characteristic_slopes,
    vector_weno_slope,
    weno2_slope,
)
from .quadrature import (
    SphereQuadrature,
    build_hemisphere_quadrature,
)
from .tissue import peanut_node_values

#: exactness degree of the hemisphere rules behind the thermal boundary flux
_HEMI_DEGREE = 15
#: M1F dual Newton: residual tolerance on <v f>/rho - qhat, iteration cap
_NEWTON_TOL = 1e-10
_NEWTON_MAXIT = 60


class MomentSystemError(RuntimeError):
    pass


_EDGES = {
    "left": (np.array([-1.0, 0.0, 0.0]), 0),
    "right": (np.array([1.0, 0.0, 0.0]), 0),
    "bottom": (np.array([0.0, -1.0, 0.0]), 1),
    "top": (np.array([0.0, 1.0, 0.0]), 1),
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
    qn = np.linalg.norm(U[..., 1:4], axis=-1)
    return (rho >= floor) & (qn <= rho)


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

    normal: np.ndarray
    out_nodes: np.ndarray       # (nq, 3)
    out_mu_w: np.ndarray        # (nq,) weights * (v.n)
    anchor_out: np.ndarray      # (ne, nq)
    ctilde: np.ndarray          # (ne, m)
    ops: dict = field(default_factory=dict)


def _edge_ops(tensors_edge, n, basis_eval, uniform):
    hout = build_hemisphere_quadrature(n, _HEMI_DEGREE)
    hin = build_hemisphere_quadrature(-n, _HEMI_DEGREE)
    if uniform:
        Fout = np.full(tensors_edge.shape[:-2] + (len(hout),), 1.0 / (4 * np.pi))
        Fin = np.full(tensors_edge.shape[:-2] + (len(hin),), 1.0 / (4 * np.pi))
    else:
        Fout = peanut_node_values(tensors_edge, hout.nodes)
        Fin = peanut_node_values(tensors_edge, hin.nodes)
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
        normal=n,
        out_nodes=hout.nodes,
        out_mu_w=hout.weights * mu_out,
        anchor_out=Fout,
        ctilde=ctilde,
    )


def assemble_thermal_flux(out_moments: np.ndarray, ctilde: np.ndarray, eps: float):
    """O + Phi*ctilde with Phi = O[...,0]; mass component exactly zero."""
    return (out_moments + out_moments[..., 0:1] * ctilde) / eps


# ---------------------------------------------------------------------------
# K1F and M1F
# ---------------------------------------------------------------------------

class _FirstOrderSystem:
    """State (rho, q) with a nonlinear closure (K1F, M1F)."""

    nvars = 4
    #: both closures are only defined for realizable moments
    limit_realizability = True
    source_matrix = None

    def initial_state(self, rho: np.ndarray) -> np.ndarray:
        U = np.zeros(rho.shape + (4,))
        U[..., 0] = rho
        return U


class KershawSystem(_FirstOrderSystem):
    """First-order moment system closed with the anchored Kershaw tensor."""

    kind = "K1F"

    def __init__(self, cells: CellFields, params: ScalingParams):
        self.cells = cells
        self.params = params
        self.wave_speed = 1.0 / params.eps
        self._DFg = np.einsum("...ij,...j->...i", cells.DF, cells.gradQ3)
        self._edges: dict[str, _EdgeOps] = {}
        for side, (n, _) in _EDGES.items():
            tensors_edge = cells.tensors[edge_slice(side)]
            ops = _edge_ops(tensors_edge, n, _fo_basis, uniform=False)
            a_out = _fo_basis(ops.out_nodes)
            ops.ops["A"] = np.einsum("n,nk,en->ek", ops.out_mu_w, a_out, ops.anchor_out)
            ops.ops["B"] = np.einsum(
                "n,nk,ni,en->eki", ops.out_mu_w, a_out, ops.out_nodes, ops.anchor_out
            )
            ops.ops["DFinv"] = np.linalg.inv(cells.DF[edge_slice(side)])
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
        out[..., 1:] = (rho * (1.0 - r2))[..., None] * self.cells.DF[..., :, axis]
        out[..., 1:] += q * (q[..., axis] / rho)[..., None]
        return out / self.params.eps

    def source(self, U: np.ndarray) -> np.ndarray:
        s = self.params
        rho, q = self._split(U)
        r2 = np.einsum("...i,...i->...", q, q) / (rho * rho)
        qg = np.einsum("...i,...i->...", q, self.cells.gradQ3)
        Pg = (rho * (1.0 - r2))[..., None] * self._DFg + q * (qg / rho)[..., None]
        out = np.zeros_like(U)
        out[..., 1:] = (
            -(s.r / s.eps**2) * q
            + (s.eta / s.eps) * self.cells.lamH[..., None] * Pg
        )
        return out

    def source_jacobian(self, U: np.ndarray) -> np.ndarray:
        s = self.params
        rho, q = self._split(U)
        g = self.cells.gradQ3
        qh = q / rho[..., None]
        r2 = np.einsum("...i,...i->...", qh, qh)
        DFg = self._DFg
        qg = np.einsum("...i,...i->...", qh, g)
        dPg_drho = (1.0 + r2)[..., None] * DFg - qg[..., None] * qh
        dPg_dq = (
            -2.0 * DFg[..., :, None] * qh[..., None, :]
            + qg[..., None, None] * np.eye(3)
            + qh[..., :, None] * g[..., None, :]
        )
        coef = (s.eta / s.eps) * self.cells.lamH
        J = np.zeros(U.shape + (4,))
        J[..., 1:, 0] = coef[..., None] * dPg_drho
        J[..., 1:, 1:] = coef[..., None, None] * dPg_dq - (s.r / s.eps**2) * np.eye(3)
        return J

    def char_data(self, U: np.ndarray, axis: int) -> dict:
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
        J = kershaw_jacobian_batch(rho, q, self.cells.DF, axis)
        mu = q[..., axis] / rho
        # characteristic polynomial coefficients via Newton's identities
        J2 = J @ J
        t1 = np.trace(J, axis1=-2, axis2=-1)
        t2 = np.trace(J2, axis1=-2, axis2=-1)
        t3 = np.einsum("...ij,...ji->...", J2, J)
        t4 = np.einsum("...ij,...ij->...", J2, np.swapaxes(J2, -1, -2))
        e1 = t1
        e2 = (e1 * t1 - t2) / 2.0
        e3 = (e2 * t1 - e1 * t2 + t3) / 3.0
        e4 = (e3 * t1 - e2 * t2 + e1 * t3 - t4) / 4.0
        c3, c2, c1 = -e1, e2, -e3
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
        """Blended projector-family WENO slopes; returns (slope, n_blended)."""
        gamma = data["gamma"]
        slope = vector_weno_slope(d_minus, d_plus, h)  # merged family
        if data["projs"] is not None:
            active, P_minus, P_mid, P_plus = data["projs"]
            dm, dp = d_minus[active], d_plus[active]
            s = np.zeros_like(dm)
            for P in (P_minus, P_mid, P_plus):
                a = np.einsum("cij,cj->ci", P, dm)
                b = np.einsum("cij,cj->ci", P, dp)
                s = s + vector_weno_slope(a, b, h)
            g = gamma[active][:, None]
            slope[active] = g * s + (1.0 - g) * slope[active]
        return slope, int(np.count_nonzero(gamma < 1.0))

    def boundary_flux(self, side: str, U_edge: np.ndarray) -> np.ndarray:
        ops = self._edges[side]
        rho = U_edge[..., 0]
        q = U_edge[..., 1:4]
        beta = np.einsum("eij,ej->ei", ops.ops["DFinv"], q)
        O = rho[:, None] * ops.ops["A"] + np.einsum("eki,ei->ek", ops.ops["B"], beta)
        return assemble_thermal_flux(O, ops.ctilde, self.params.eps)


# ---------------------------------------------------------------------------
# P_N / P_N^(F)
# ---------------------------------------------------------------------------

class LinearAnsatzSystem:
    """Polynomial (times anchor) closure: everything is linear in u.

    The evolved state is the reduced moment vector (a_0 = 1, then
    v_x, v_y, v_z, ...). Flux matrices, the source matrix, characteristic
    bases and boundary operators are precomputed per cell at setup, and
    characteristic limiting is plain per-variable WENO in the frozen basis.
    Where the flux spectrum has repeated eigenvalues (in P3F every cell
    has a 4-fold zero and +- pairs), that basis is only one of many:
    `eigh` picks it inside each degenerate eigenspace, and a last-bit
    change of what its input is built from (G, B, L) rotates it and moves
    the limited slopes, and so the solution, far beyond rounding.

    The linear closure is globally defined (its ansatz is signed by
    construction), so the realizability limiter and the hard realizability
    checks are off: standard P_N solutions are known to leave the
    realizable set near fronts, and aborting there would make the
    standard-vs-anchored comparisons impossible. `first_order_realizable`
    stays available for diagnostics.
    """

    nvars: int
    limit_realizability = False

    def __init__(
        self,
        cells: CellFields,
        params: ScalingParams,
        quad: SphereQuadrature,
        N: int,
        uniform_anchor: bool,
    ):
        self.kind = f"P{N}" + ("" if uniform_anchor else "F")
        self.cells = cells
        self.params = params
        self.basis = pn_basis(N)
        m = self.basis.Kr
        self.nvars = m
        self.wave_speed = 1.0 / params.eps
        eps = params.eps

        ared = self.basis.evaluate_reduced(quad.nodes)      # (nq, m)
        F = anchor_nodes_for(cells, quad.nodes, uniform_anchor)
        wF = quad.weights * F                               # (ny, nx, nq)
        G = np.einsum("yxn,nk,nj->yxkj", wF, ared, ared)
        self._uniform_moments = (quad.weights @ ared) / (4.0 * np.pi)
        self.mQ = np.einsum("yxn,nk->yxk", wF, ared)

        # wF * v_d premultiplied: bitwise the 4-operand form (the eigenbases
        # below depend on every bit of B), at a quarter of the cost
        B = [np.einsum("yxn,nk,nj->yxkj", wF * quad.nodes[:, d], ared, ared) for d in (0, 1)]
        # flux matrix A_d = B_d G^{-1} / eps; with both symmetric this is
        # solve(G, B_d) transposed
        self.A = [np.swapaxes(np.linalg.solve(G, Bd), -1, -2) / eps for Bd in B]

        # characteristic bases: A_d is similar to the symmetric
        # L^{-1} B_d L^{-T} (G = L L^T), so the spectrum is real
        L = np.linalg.cholesky(G)
        self._char = []
        for Bd in B:
            X = np.linalg.solve(L, Bd)
            Sym = np.swapaxes(np.linalg.solve(L, np.swapaxes(X, -1, -2)), -1, -2)
            Sym = 0.5 * (Sym + np.swapaxes(Sym, -1, -2))
            lam, W = np.linalg.eigh(Sym)
            R = L @ W
            idx = np.argmax(np.abs(R), axis=-2)
            lead = np.take_along_axis(R, idx[..., None, :], axis=-2)[..., 0, :]
            R = R * np.where(lead >= 0, 1.0, -1.0)[..., None, :]
            R = R / np.linalg.norm(R, axis=-2)[..., None, :]
            Rinv = np.linalg.inv(R)
            weight = np.ones(R.shape[:-2])
            self._char.append((lam, R, Rinv, weight))
            if float(np.max(np.abs(lam))) > 1.0 + 1e-10:
                raise MomentSystemError(
                    f"{self.kind}: unit-speed wave speeds exceed 1 "
                    f"({np.max(np.abs(lam)):.6f}); anchor moments inconsistent"
                )

        # source matrix: relaxation toward rho*mQ plus haptotactic projection;
        # its mass row vanishes identically (both kernels conserve mass), so
        # it is zeroed to keep the conservation exact in floating point
        g3 = cells.gradQ3
        grow = np.zeros(G.shape[:-2] + (m,))
        grow[..., 1:4] = g3
        e0 = np.zeros(m)
        e0[0] = 1.0
        S = (params.r / eps**2) * (
            self.mQ[..., :, None] * e0[None, :] - np.eye(m)
        )
        adv = sum(g3[..., d, None, None] * (eps * self.A[d]) for d in (0, 1))
        S = S + (params.eta / eps) * cells.lamH[..., None, None] * (
            adv - self.mQ[..., :, None] * grow[..., None, :]
        )
        S[..., 0, :] = 0.0
        self.source_matrix = S

        self._edges: dict[str, _EdgeOps] = {}
        for side, (n, _) in _EDGES.items():
            sl = edge_slice(side)
            ops = _edge_ops(cells.tensors[sl], n, self.basis.evaluate_reduced, uniform_anchor)
            a_out = self.basis.evaluate_reduced(ops.out_nodes)
            T = np.einsum("en,nk,nj->ekj", ops.anchor_out * ops.out_mu_w, a_out, a_out)
            ops.ops["M"] = np.swapaxes(np.linalg.solve(G[sl], T), -1, -2)
            self._edges[side] = ops

    def initial_state(self, rho: np.ndarray) -> np.ndarray:
        return rho[..., None] * self._uniform_moments

    def flux(self, U: np.ndarray, axis: int) -> np.ndarray:
        """A[axis] U per cell; grids stacked on leading axes become extra
        columns of one matmul, so the per-cell matrices are read once."""
        cols = np.moveaxis(U.reshape((-1,) + U.shape[-3:]), 0, -1)
        return np.moveaxis(self.A[axis] @ cols, -1, 0).reshape(U.shape)

    def source(self, U: np.ndarray) -> np.ndarray:
        return np.einsum("yxkj,yxj->yxk", self.source_matrix, U)

    def source_jacobian(self, U: np.ndarray) -> np.ndarray:
        shape = U.shape[:-1]
        return np.broadcast_to(self.source_matrix, shape + self.source_matrix.shape[-2:])

    def char_data(self, U: np.ndarray, axis: int):
        return self._char[axis]

    def char_slopes(self, data, d_minus, d_plus, h):
        _, R, Rinv, _ = data
        w = Rinv @ np.stack((d_minus, d_plus), -1)
        slope = np.einsum("yxij,yxj->yxi", R, weno2_slope(w[..., 0], w[..., 1], h))
        return slope, 0

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
    r = np.linalg.norm(qhat, axis=1)
    return qhat / np.maximum(1.0, r / 0.999999)[:, None]


class M1FSystem(_FirstOrderSystem):
    """Exponential anchored closure with vectorized dual Newton solves."""

    kind = "M1F"

    def __init__(self, cells: CellFields, params: ScalingParams, quad: SphereQuadrature):
        self.cells = cells
        self.params = params
        self.wave_speed = 1.0 / params.eps
        self.fallback_count = 0
        F = peanut_node_values(cells.tensors, quad.nodes)
        self._wF = (quad.weights * F).reshape(-1, len(quad))  # (nc, nq)
        self._V = quad.nodes
        self._m_nodes = _fo_basis(quad.nodes)  # (nq, 4)
        self._edges: dict[str, _EdgeOps] = {}
        for side, (n, _) in _EDGES.items():
            ops = _edge_ops(cells.tensors[edge_slice(side)], n, _fo_basis, False)
            ops.ops["a_out"] = _fo_basis(ops.out_nodes)
            self._edges[side] = ops

    def _newton(self, qhat: np.ndarray, wF: np.ndarray):
        """Solve <v e^{v.beta} F>/<e^{v.beta} F> = qhat for many cells at once.

        Damped Newton on the convex dual. Returns (beta, normalized node
        weights, log <e^{v.beta} F>, failed mask); failures are left to the
        caller to handle.
        """
        V = self._V
        nc = qhat.shape[0]
        beta = np.zeros((nc, 3))

        def stats(b, wF_rows, qhat_rows):
            t = b @ V.T
            tmax = t.max(axis=1)
            gz = wF_rows * np.exp(t - tmax[:, None])
            Z = gz.sum(axis=1)
            mean = (gz @ V) / Z[:, None]
            chi = np.log(Z) + tmax - np.einsum("ci,ci->c", b, qhat_rows)
            return gz, Z, tmax, mean, chi

        gz, Z, tmax, mean, chi = stats(beta, wF, qhat)
        failed = np.zeros(nc, dtype=bool)
        for _ in range(_NEWTON_MAXIT):
            res = np.linalg.norm(mean - qhat, axis=1)
            active = (res > _NEWTON_TOL) & ~failed
            if not np.any(active):
                break
            idx = np.flatnonzero(active)
            M2 = np.einsum("cn,ni,nj->cij", gz[idx], V, V) / Z[idx, None, None]
            H = M2 - mean[idx, :, None] * mean[idx, None, :]
            try:
                step = np.linalg.solve(H, (mean[idx] - qhat[idx])[..., None])[..., 0]
            except np.linalg.LinAlgError:
                failed[idx] = True
                continue
            alpha = np.ones(idx.size)
            slack = 1e-14 * np.maximum(1.0, np.abs(chi[idx]))
            pending = np.ones(idx.size, dtype=bool)
            for _ in range(40):
                sub = np.flatnonzero(pending)
                rows = idx[sub]
                trial = beta[rows] - alpha[sub, None] * step[sub]
                gz_t, Z_t, tmax_t, mean_t, chi_t = stats(trial, wF[rows], qhat[rows])
                accept = chi_t <= chi[rows] + slack[sub]
                acc = rows[accept]
                beta[acc] = trial[accept]
                gz[acc] = gz_t[accept]
                Z[acc] = Z_t[accept]
                tmax[acc] = tmax_t[accept]
                mean[acc] = mean_t[accept]
                chi[acc] = chi_t[accept]
                pending[sub[accept]] = False
                if not np.any(pending):
                    break
                alpha[pending] *= 0.5
            failed[idx[pending]] = True
        res = np.linalg.norm(mean - qhat, axis=1)
        failed |= res > max(10 * _NEWTON_TOL, 1e-8)
        lognorm = np.log(Z) + tmax
        return beta, gz / Z[:, None], lognorm, failed

    def _closure(self, U: np.ndarray):
        """Per-cell ansatz node masses f^A w (mass rho); Kershaw fallback."""
        shape = U.shape[:-1]
        rho = np.maximum(U[..., 0].reshape(-1), 1e-300)
        q = U[..., 1:4].reshape(-1, 3)
        qhat = _dual_qhat(rho, q)
        wF = np.broadcast_to(
            self._wF.reshape(self.cells.lamH.shape + (-1,)), shape + (self._wF.shape[-1],)
        ).reshape(-1, self._wF.shape[-1])
        beta, gnorm, lognorm, failed = self._newton(qhat, wF)
        gmass = gnorm * rho[:, None]
        P = np.einsum("cn,ni,nj->cij", gmass, self._V, self._V)
        if np.any(failed):
            self.fallback_count += int(np.count_nonzero(failed))
            DF = np.broadcast_to(self.cells.DF, shape + (3, 3)).reshape(-1, 3, 3)
            P[failed] = kershaw_pressure_batch(rho[failed], q[failed], DF[failed])
        return shape, rho, P, gmass, beta, lognorm, failed

    def flux(self, U: np.ndarray, axis: int) -> np.ndarray:
        """Flux along `axis`. Grids stacked on leading axes are closed one at
        a time: one joint dual solve changes the rounding of the Newton
        iterates, and M1F's blending follows last-bit changes."""
        grids = U.reshape((-1,) + U.shape[-3:])
        P = np.stack([self._closure(u)[2] for u in grids])
        out = np.empty_like(U)
        out[..., 0] = U[..., 1 + axis]
        out[..., 1:] = P.reshape(U.shape[:-1] + (3, 3))[..., :, axis]
        return out / self.params.eps

    def char_data(self, U: np.ndarray, axis: int):
        """Canonical eigensystem of the flux Jacobian along `axis`."""
        shape, _, _, gmass, _, _, _ = self._closure(U)
        m = self._m_nodes
        H = np.einsum("cn,nk,nj->ckj", gmass, m, m)
        T = np.einsum("cn,n,nk,nj->ckj", gmass, self._V[:, axis], m, m)
        J = np.swapaxes(np.linalg.solve(H, T), -1, -2) / self.params.eps
        return canonical_eig(J.reshape(shape + (4, 4)))

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
            "...ij,...j->...i", P.reshape(shape + (3, 3)), self.cells.gradQ3
        )
        out = np.zeros_like(U)
        out[..., 1:] = (
            -(s.r / s.eps**2) * U[..., 1:4]
            + (s.eta / s.eps) * self.cells.lamH[..., None] * Pg
        )
        return out

    def source_jacobian(self, U: np.ndarray) -> np.ndarray:
        s = self.params
        shape, _, _, gmass, _, _, _ = self._closure(U)
        m = self._m_nodes
        g3 = np.broadcast_to(self.cells.gradQ3, shape + (3,)).reshape(-1, 3)
        vg = g3 @ self._V.T                                 # (nc, nq)
        H = np.einsum("cn,nk,nj->ckj", gmass, m, m)
        Tg = np.einsum("cn,cn,ni,nj->cij", gmass, vg, self._V, m)  # (nc, 3, 4)
        dPg = np.swapaxes(np.linalg.solve(H, np.swapaxes(Tg, -1, -2)), -1, -2)
        coef = (
            (s.eta / s.eps)
            * np.broadcast_to(self.cells.lamH, shape).reshape(-1)[:, None, None]
        )
        J = np.zeros((dPg.shape[0], 4, 4))
        J[:, 1:, :] = coef * dPg
        J[:, 1:, 1:] -= (s.r / s.eps**2) * np.eye(3)
        return J.reshape(shape + (4, 4))

    def boundary_flux(self, side: str, U_edge: np.ndarray) -> np.ndarray:
        ops = self._edges[side]
        rho = np.maximum(U_edge[..., 0], 1e-300)
        qhat = _dual_qhat(rho, U_edge[..., 1:4])
        wF_edge = self._wF.reshape(self.cells.lamH.shape + (-1,))[edge_slice(side)]
        beta, _, lognorm, failed = self._newton(qhat, wF_edge)
        if np.any(failed):
            self.fallback_count += int(np.count_nonzero(failed))
        # f^A on the outgoing hemisphere: rho * exp(v.beta - lognorm) * Qhat
        expo = beta @ ops.out_nodes.T - lognorm[:, None] + np.log(rho)[:, None]
        fA = np.exp(expo) * ops.anchor_out
        O = np.einsum("n,nk,en->ek", ops.out_mu_w, ops.ops["a_out"], fA)
        return assemble_thermal_flux(O, ops.ctilde, self.params.eps)


_MODEL_RE = re.compile(r"^P([1-5])(F?)$")


def build_system(
    kind: str,
    cells: CellFields,
    params: ScalingParams,
    quad: SphereQuadrature,
):
    if kind == "K1F":
        return KershawSystem(cells, params)
    if kind == "M1F":
        return M1FSystem(cells, params, quad)
    match = _MODEL_RE.match(kind)
    if match:
        return LinearAnsatzSystem(
            cells, params, quad, int(match.group(1)), uniform_anchor=(match.group(2) == "")
        )
    raise MomentSystemError(
        f"unknown model {kind!r}: expected K1F, M1F, P1..P5 or P1F..P5F"
    )
