"""Grid-vectorized moment systems fed to the finite-volume solver.

Three families share one contract with `solver.py`. States are
(ny, nx, nvars) grids, and a system provides exactly what `run_kinetic`
and its steps use:

* `tissue`: the fields it was built on; `run_kinetic` steps on `tissue.grid`;
* `nvars`, `wave_speed`, `fallback_count` (closure fallbacks so far, 0
  for closures that cannot fail), `closure_iterations` (the closure's
  iterative work so far: active rows summed over the M1F dual Newton
  iterations, 0 for closed-form closures);
* `limit_realizability`: apply the realizability checks after each stage;
  such a system also holds `kappa`, the per-cell drift ratio
  (`kinetic.drift_ratio`) that the checks' error names;
* `source_matrix(rows)`: S of a linear source s(u) = S u on the grid rows
  `rows`, assembled on demand; None for a nonlinear source;
* `source(U)`, `source_jacobian(U)`: the nonlinear source and its
  Jacobian, on which the DG source step runs Newton (only the systems
  whose `source_matrix` is None have them); the first-order family also
  has `momentum_source(X)`, the source's momentum rows on component
  planes (its mass row is zero), which K1F's source solve calls;
* `initial_state(rho)`: the isotropic state of density rho;
* `char_data(U) -> data`, both axes' characteristic data stacked over the
  axes, evaluated once per flux step, in whatever layout the family's
  `faces` reads;
* `faces(data, cols, h) -> (f_lo, f_hi, F_lo, F_hi, n_blended,
  n_limited)`, one call per flux stage for both axes: `cols` is
  (2, ny, nx, 3, nvars), whose rows per axis and cell are U and its
  backward and forward differences along that axis (both axes' U rows
  hold the same state; `faces` may overwrite all of `cols`), and h is
  (dx, dy); the result is, per axis, (2, ny, nx, nvars), every cell's
  reconstructed low and high face states and their fluxes (they may be
  views of `cols` or of a buffer the system holds, so they hold until the
  next `faces` call), and, summed over the axes, the count of cells blended
  toward componentwise limiting and the count the realizability limiter
  scaled;
* `boundary_flux(side, U_edge)`: thermal flux through one domain side;
  K1F and P_N share `_MomentSystem`'s body, a precomputed per-edge-cell
  linear map, and M1F applies K1F's map where its dual fails.

`first_order_realizable` is the realizability limiter's predicate on the
set {rho >= REALIZABILITY_FLOOR, |q| <= rho}, taken on component planes
(see below); the floor is a numerical margin of the limiter's convex set,
not a model parameter. The solver's
hard check and realizability summary (`_require_realizable`,
`_above_floor` and `realizability_summary` in solver.py) apply their own
1e-12 relative slack. The families:

* `KershawSystem`  - first-order K1F closure, analytic pressure hooks and
  wave families in closed form per cell (n.D_F n >= 1/5 keeps them bounded);
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

K1F and M1F differ only in their pressure closure: `_FirstOrderSystem`
writes their flux, source and source Jacobian once, from the three pressure
hooks each supplies (P e_d, P gradQ3 and its (rho, q) derivative).

Layout: the solver hands every family rows, (ny, nx, nvars) states and
(2, ny, nx, 3, nvars) `cols`, and takes rows back. The P_N family computes
on them directly: its transforms are row products with m >= 4 entries per
row. The first-order family computes its per-cell kernels on component
planes, (4, ny, nx) with each of rho, q_x, q_y, q_z one C-contiguous grid,
because numpy's inner loop is the last axis, and on rows that axis holds
only 3 or 4 entries: a broadcast or a row dot there costs several times
per element what it costs on a plane (see `_FirstOrderSystem`). It
converts at its boundary only, by one transposing copy in `faces`,
`source` and K1F's `char_data`. Both families run each flux kernel once
per stage on both axes' cells, stacked as (2, ny, nx) grids, x first,
because at the benchmark's 40x40 a kernel call costs mostly its fixed
per-call overhead, not its cell work.

`build_system(kind, tissue, params)` picks the family, and each builds the
sphere rule its integrands need: M1F the degree-`_QUAD_DEGREE` (10) product
rule of 84 nodes; P_N and P_N^(F) the degree max(10, 2N + 3) rule, exact
for the a_k a_j v_d F of B_d (84 nodes up to N = 4, 112 for N = 5); K1F is
closed-form and builds none.

Fluxes carry the 1/eps of the scaled system; the global wave-speed bound
is 1/eps for every family (unit-speed eigenvalues lie in [-1, 1]).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .closures import (
    kershaw_acoustic_offsets,
    kershaw_pressure_batch,
    kershaw_pressure_derivative,
    m1f_dual_solve,
    m1f_dual_start,
    pn_basis,
)
from .kinetic import ScalingParams, anchor_nodes_for, drift_ratio
from .reconstruct import (
    canonical_eig,
    group_characteristic_slopes,
    plane_dot,
    plane_norm,
    row_norm,
    vector_weno_slope,
    weno2_slope,
    weno2_slope_inplace,
)
from .quadrature import build_hemisphere_quadrature, build_quadrature
from .tissue import TissueFields, peanut_node_values

#: exactness degree of M1F's sphere rule, and the least one P_N's rule gets
_QUAD_DEGREE = 10
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


def flux_work(U):
    """The flux step's work buffer for states shaped like U, (2, ny, nx, 3,
    m): per axis the rows [U, d-, d+] of every cell, stored as three grid
    blocks per axis, so each axis' U, d- and d+ is contiguous and the
    elementwise work on one runs in long loops (over rows of m, numpy loops
    cost about six times as much)."""
    return np.empty((2, 3) + U.shape).transpose(0, 2, 3, 1, 4)


#: least density of a realizable first-order state
REALIZABILITY_FLOOR = 1e-12


def _planes(U: np.ndarray) -> np.ndarray:
    """The component planes (m, ny, nx) of the grid rows U (ny, nx, m),
    C-contiguous: one transposing copy. The family converts with
    `transpose`, never `np.moveaxis`, whose argument handling costs about
    4 us a call, as much as this copy of a 20x20 grid."""
    return np.ascontiguousarray(U.transpose(2, 0, 1))


def _flat(X: np.ndarray) -> np.ndarray:
    """The planes X (m, ny, nx) as (m, ny * nx), a view of a contiguous X.
    Subsets of cells are taken as `_flat(X)[:, cells]` with flat indices
    `cells`, which on (4, 40, 40) planes costs about half of indexing with
    the boolean grid mask."""
    return X.reshape(len(X), -1)


def _cell_steps(h, shape: tuple) -> np.ndarray:
    """The step of each flat cell of both axes' grids stacked as `shape`,
    (2, ny, nx): h[0] on the x grid's cells, h[1] on the y grid's."""
    return np.repeat(np.asarray(h, dtype=float), shape[1] * shape[2])


def first_order_realizable(X: np.ndarray) -> np.ndarray:
    """rho >= REALIZABILITY_FLOOR and |q| <= rho of the component planes X
    (rho, q on the first axis; any cell shape after it)."""
    rho = X[0]
    return (rho >= REALIZABILITY_FLOOR) & (plane_norm(X[1:4]) <= rho)


def _realizable_theta(u_mean, u_face):
    """Largest theta in [0, 1] keeping u_mean + theta (u_face - u_mean) realizable.

    The set {rho >= floor, |q| <= rho} is convex, so theta = min(1, t_floor,
    t_q): t_floor is where rho reaches the floor, t_q the smallest positive
    root of a t^2 + 2 b t + c = |q + t dq|^2 - (rho + t drho)^2 in
    cancellation-free form, with b^2 - a c summed from the 2x2 minors of
    (u_mean, u_face) (Lagrange's identity), which stay accurate for faces
    near the apex. theta is 0 when the mean sits at or past the boundary
    and the face points outward; a 1e-12 relative margin keeps the limited
    face inside under rounding. Component planes: the moments on the first
    axis, any cell shape after it.
    """
    rho, q = u_mean[0], u_mean[1:4]
    rho_f, q_f = u_face[0], u_face[1:4]
    drho, dq = rho_f - rho, q_f - q
    a = plane_dot(dq, dq) - drho * drho
    b = plane_dot(q, dq) - rho * drho
    c = plane_dot(q, q) - rho * rho
    time_minors = rho * q_f - rho_f * q
    space_minors = (
        q[1] * q_f[2] - q[2] * q_f[1],
        q[2] * q_f[0] - q[0] * q_f[2],
        q[0] * q_f[1] - q[1] * q_f[0],
    )
    disc = plane_dot(time_minors, time_minors) - plane_dot(space_minors, space_minors)
    s = np.sqrt(np.maximum(disc, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        # b > 0: the face points outward, root -c/(b + s) (0 on the boundary);
        # b <= 0: only a > 0 turns back out, at (s - b)/a; no real root: the
        # quadratic keeps the sign of c along the whole line
        t_q = np.where(b > 0, -c / (b + s), np.where(a > 0, (s - b) / a, np.inf))
        t_q = np.where(disc < 0, np.where(c < 0, np.inf, 0.0), t_q)
        t_floor = np.where(drho < 0, (rho - REALIZABILITY_FLOOR) / -drho, np.inf)
    theta = np.clip(np.minimum(t_q, t_floor), 0.0, 1.0) * (1.0 - 1e-12)
    return np.where(rho < REALIZABILITY_FLOOR, 0.0, theta)


def _limit_theta_pair(U, faces):
    """The realizability limiter on the low and high faces of the cells U:
    U is (4, ny, nx) component planes and `faces` the (2, 4, ny, nx) planes
    of both face sets. Returns the flat indices of the cells whose faces
    fail the predicate and, on those cells, the common theta keeping both
    faces realizable. Every other cell keeps theta = 1, so only the flagged
    cells' faces need recomputing."""
    bad = np.flatnonzero(~first_order_realizable(faces.swapaxes(0, 1)).all(axis=0))
    if not bad.size:
        return bad, np.empty(0)
    flagged = faces.reshape(2, 4, -1)[:, :, bad].swapaxes(0, 1)  # (4, 2, c)
    theta = _realizable_theta(_flat(U)[:, None, bad], flagged)
    return bad, np.minimum(theta[0], theta[1])


def _fo_basis(nodes):
    """First-order moment basis (1, v) at the given nodes."""
    return np.concatenate([np.ones((nodes.shape[0], 1)), nodes], axis=1)


# ---------------------------------------------------------------------------
# the shared base and its thermal wall
# ---------------------------------------------------------------------------

@dataclass
class _EdgeOps:
    """Half-range geometry of one boundary side's edge cells.

    ctilde is the incoming-moment template normalized so its mass entry is
    exactly -1; the assembled flux O + Phi*ctilde then has an exactly zero
    mass component (emitted mass equals absorbed mass by construction).
    """

    out_nodes: np.ndarray       # (nq, 3)
    out_mu_w: np.ndarray        # (nq,) weights * (v.n)
    anchor_out: np.ndarray      # (ne, nq)
    a_out: np.ndarray           # (nq, m) moment basis at out_nodes
    ctilde: np.ndarray          # (ne, m)


def assemble_thermal_flux(out_moments: np.ndarray, ctilde: np.ndarray, eps: float):
    """O + Phi*ctilde with Phi = O[...,0]; mass component exactly zero."""
    return (out_moments + out_moments[..., 0:1] * ctilde) / eps


class _MomentSystem:
    """What every family shares: the tissue, the scaling, the wave-speed
    bound, the closure counters and the thermal wall, whose flux is linear
    in the edge state for K1F and P_N (`_build_wall`)."""

    def __init__(self, tissue: TissueFields, params: ScalingParams):
        self.tissue = tissue
        self.params = params
        self.wave_speed = 1.0 / params.eps
        self.fallback_count = 0
        self.closure_iterations = 0

    def _build_wall(self, basis_eval, uniform: bool, edge_G) -> None:
        """Every side's `_EdgeOps` in `_edges` and, in `_thermal`, per edge
        cell the (m, m) map from the cell state U to its thermal flux, for an
        ansatz linear in U: anchor * (a . G^-1 U) with G = `edge_G(side)` the
        cell's moment matrix. Its outgoing moments are M U with
        M = (G^-1 T)^T, T the anchored outgoing moments of a a^T; the map is
        (M + ctilde (x) M[0]) / eps, whose mass row is exactly zero. A side's
        incoming hemisphere is the opposite side's outgoing one: four rules
        serve all."""
        hemi = [build_hemisphere_quadrature(n, _HEMI_DEGREE) for n in _EDGES.values()]
        self._edges, self._thermal = {}, {}
        for i, (side, n) in enumerate(_EDGES.items()):
            hout, hin = hemi[i], hemi[i ^ 1]  # _EDGES lists opposite sides in pairs
            tensors_edge = self.tissue.tensors[edge_slice(side)]
            a_in = basis_eval(hin.nodes)          # (nq_in, m)
            Fin = anchor_nodes_for(tensors_edge, hin.nodes, uniform)
            c = np.einsum("n,nk,en->ek", hin.weights * (hin.nodes @ n), a_in, Fin)
            zeta = -c[:, 0]
            if np.any(zeta <= 0):
                raise MomentSystemError(
                    "thermal boundary: anchor vanishes on the incoming hemisphere "
                    "(zeta <= 0), cannot renormalize the re-emitted flux"
                )
            ctilde = c / zeta[:, None]
            ctilde[:, 0] = -1.0
            edge = self._edges[side] = _EdgeOps(
                out_nodes=hout.nodes,
                out_mu_w=hout.weights * (hout.nodes @ n),
                anchor_out=anchor_nodes_for(tensors_edge, hout.nodes, uniform),
                a_out=basis_eval(hout.nodes),
                ctilde=ctilde,
            )
            T = np.einsum("en,nk,nj->ekj", edge.anchor_out * edge.out_mu_w, edge.a_out, edge.a_out)
            GinvT = np.linalg.solve(edge_G(side), T)
            M = assemble_thermal_flux(GinvT, edge.ctilde[:, None, :], self.params.eps)
            self._thermal[side] = np.swapaxes(M, -1, -2)

    def boundary_flux(self, side: str, U_edge: np.ndarray) -> np.ndarray:
        return np.einsum("ekj,ej->ek", self._thermal[side], U_edge)


# ---------------------------------------------------------------------------
# K1F and M1F
# ---------------------------------------------------------------------------

class _FirstOrderSystem(_MomentSystem):
    """State (rho, q) with a nonlinear closure (K1F, M1F).

    Flux, source and source Jacobian are written once, from the closure's
    `_pressure_normal(X)` = P n of the component planes X (4, ..., 2, ny,
    nx) of both axes' grids, n = e_x on the first and e_y on the second,
    `_pressure_grad(X)` = P gradQ3 of the planes of one grid (K1F's: of a
    stack of grids, (4, k, ny, nx), too), and `_pressure_grad_jacobian(U)`,
    the (..., 3, 4) derivative of P gradQ3 in (rho, q) of the rows U
    (K1F's: of a stack of grid rows, too).

    The per-cell kernels (characteristic data and slopes, the
    realizability predicate and theta, the face fluxes and the source body)
    run on component planes: (4, ny, nx), each of rho, q_x, q_y, q_z one
    C-contiguous grid, and in the flux step (4, 2, ny, nx), both axes'
    grids in one plane per component, so that `faces` runs each kernel
    once per stage; a kernel that takes a subset of those cells takes the
    step h of each cell's axis with it. numpy loops over the last axis,
    which in the solver's (ny, nx, 4) rows holds 3 or 4 entries, so a row
    broadcast or row dot costs several times per element what the same
    loop costs on a plane (timeit at 40x40, numpy 2.4 on one thread of a
    Xeon: `q * s[..., None]` on rows 17 us against 4 us for `q * s` on
    planes, the einsum row dot 10 us against 5 us for `plane_dot`,
    `rho * rho` on a strided column 2.2 us against 1.0 us). The layout
    changes at the family's boundary only: `faces` copies the solver's
    `cols` into planes once and returns its face states and fluxes as rows
    through one transposing copy, `source` does the same with its state,
    and K1F's `char_data` takes its state's planes once.
    `momentum_source` is the source body on planes: K1F's DG solve
    (`solver.dg_momentum_step`) calls it once per Newton iteration on its
    three Gauss states, (4, 3, ny, nx), and the source Jacobian, which
    stays on rows, once per chord rebuild on the same stack. M1F's dual
    solve, `group_characteristic_slopes` and `_pressure` take rows through
    one transposing copy of the same values, so their bits are those of a
    row evaluation.

    The thermal map re-emits P1F's ansatz F (rho + v . D_F^-1 q), whose
    moment matrix is G = diag(1, D_F); M1F takes it where its dual fails.

    `kappa` is `kinetic.drift_ratio` per cell; the solver's realizability
    error names it at the offending cell.
    """

    nvars = 4
    #: both closures are only defined for realizable moments
    limit_realizability = True
    source_matrix = None

    def __init__(self, tissue: TissueFields, params: ScalingParams):
        super().__init__(tissue, params)
        self.kappa = drift_ratio(tissue, params)
        self._DFg = np.einsum("...ij,...j->...i", tissue.DF, tissue.gradQ3)
        G = np.zeros(tissue.DF.shape[:-2] + (4, 4))
        G[..., 0, 0] = 1.0
        G[..., 1:, 1:] = tissue.DF
        self._build_wall(_fo_basis, False, lambda side: G[edge_slice(side)])

    def flux(self, X: np.ndarray) -> np.ndarray:
        """Flux (q_n, P n) / eps of the component planes X (4, ..., 2, ny,
        nx), whose third-last axis is the face normal n: e_x on its first
        slab, e_y on its second."""
        out = np.empty_like(X)
        for axis in (0, 1):
            out[0, ..., axis, :, :] = X[1 + axis, ..., axis, :, :]
        out[1:] = self._pressure_normal(X)
        out /= self.params.eps
        return out

    def source(self, U: np.ndarray) -> np.ndarray:
        """The source of the grid-shaped rows U, evaluated on their planes:
        a zero mass row and `momentum_source`."""
        out = np.zeros(U.shape)
        out[..., 1:] = self.momentum_source(_planes(U)).transpose(1, 2, 0)
        return out

    def momentum_source(self, X: np.ndarray) -> np.ndarray:
        """Relaxation -(r/eps^2) q plus haptotaxis (eta/eps) lamH P gradQ3,
        the momentum rows of the source, (3, ...) planes of the component
        planes X. K1F's takes X (4, k, ny, nx), a stack of k grids (the DG
        source step's three Gauss states); M1F's takes one grid."""
        s = self.params
        return (
            -(s.r / s.eps**2) * X[1:4]
            + (s.eta / s.eps) * self.tissue.lamH * self._pressure_grad(X)
        )

    def source_jacobian(self, U: np.ndarray) -> np.ndarray:
        s = self.params
        dPg = self._pressure_grad_jacobian(U)
        J = np.zeros(dPg.shape[:-2] + (4, 4))
        J[..., 1:, :] = ((s.eta / s.eps) * self.tissue.lamH)[..., None, None] * dPg
        J[..., 1:, 1:] -= (s.r / s.eps**2) * np.eye(3)
        return J

    def initial_state(self, rho: np.ndarray) -> np.ndarray:
        U = np.zeros(rho.shape + (4,))
        U[..., 0] = rho
        return U

    def faces(self, data, cols, h):
        """Characteristic slopes, then the realizability limiter, then the
        closure's flux of both face sets, on the stacked planes of both
        axes: `cols` becomes the (3, 4, 2, ny, nx) planes of U, d- and d+
        by one transposing copy, the face states and fluxes are written into
        one (2, 2, 4, 2, ny, nx) array, and one transposing copy returns
        them as rows, (2, ny, nx, 4) per kind. The limiter recomputes only
        the cells it flags, as U -+ (h/2)(slope theta) with the h of each
        flagged cell's axis. `flux` closes all four (face set, axis) grids
        in one call; M1F's closes them one grid at a time (see
        `M1FSystem`)."""
        U, d_minus, d_plus = np.ascontiguousarray(cols.transpose(3, 4, 0, 1, 2))
        slope, n_blended = self.char_slopes(data, d_minus, d_plus, h)
        out = np.empty((2, 2) + U.shape)
        faces, fluxes = out
        half_h = 0.5 * np.asarray(h)
        half_slope = half_h[:, None, None] * slope
        np.subtract(U, half_slope, out=faces[0])
        np.add(U, half_slope, out=faces[1])
        bad, theta = _limit_theta_pair(U, faces)
        if theta.size:
            Ub = _flat(U)[:, bad]
            half_slope = _cell_steps(half_h, U.shape[1:])[bad] * (_flat(slope)[:, bad] * theta)
            _flat(faces[0])[:, bad] = Ub - half_slope
            _flat(faces[1])[:, bad] = Ub + half_slope
        fluxes.swapaxes(0, 1)[...] = self.flux(faces.swapaxes(0, 1))
        f_lo, f_hi, F_lo, F_hi = out.transpose(0, 1, 3, 4, 5, 2).reshape((4,) + U.shape[1:] + (4,))
        return f_lo, f_hi, F_lo, F_hi, n_blended, int(theta.size)


class KershawSystem(_FirstOrderSystem):
    """First-order moment system closed with the anchored Kershaw tensor.

    Its characteristic data is closed-form per cell. Along n = e_axis, with
    u = D_F n (stored per axis at setup), s = n.u, mu = qhat.n, p = qhat.u
    and r2 = |qhat|^2, the unit-speed flux Jacobian has the double contact
    speed mu and the acoustic speeds lam+- = mu - p +- sqrt(p^2 + (1 - r2) s)
    (`kershaw_acoustic_offsets`), whose eigenvectors are
        r = (1, ((lam - mu)/s) u + qhat),
        l = (g (lam - 2 mu) + 2 s r2, g n - 2 s qhat),  g = lam - mu + 2p,
    with l.r = 2 (lam - mu)(lam - mu + p). s >= 1/5, because
    D_F = (2 D_W + tr(D_W) I) / (5 tr D_W) with D_W SPD. The acoustic
    projectors are r l^T / (l.r) and the contact one their complement, all
    smooth in the state, where numeric eigenbases of the double eigenvalue
    would be arbitrary. (lam+ - mu)(lam- - mu) = -w with w = (1 - r2) s, so
    a single window on w ramps the wave families in where the acoustic
    speeds separate from mu (`_axis_char_data`).

    The per-cell tissue data the kernels read (D_F e_axis, gradQ3 and
    D_F gradQ3) is held as component planes, made once at setup.
    """

    def __init__(self, tissue: TissueFields, params: ScalingParams):
        super().__init__(tissue, params)
        # D_F n of both axes, (3, 2, ny, nx), and its normal entry s = n.D_F n
        self._DF_n = np.stack([_planes(tissue.DF[..., :, axis]) for axis in (0, 1)], axis=1)
        self._s = np.stack([self._DF_n[axis, axis] for axis in (0, 1)])
        self._g3, self._DFg3 = _planes(tissue.gradQ3), _planes(self._DFg)

    def _pressure_normal(self, X):
        """P n = rho (1-|qhat|^2) D_F n + q q_n / rho of each axis slab of
        X, in one pass over all of them."""
        rho, q = np.maximum(X[0], 1e-300), X[1:4]  # positivity enforced upstream
        r2 = plane_dot(q, q) / (rho * rho)
        DF_n = self._DF_n.reshape((3,) + (1,) * (rho.ndim - 3) + self._DF_n.shape[1:])
        col = (rho * (1.0 - r2)) * DF_n
        q_n = np.empty_like(rho)
        for axis in (0, 1):
            q_n[..., axis, :, :] = q[axis, ..., axis, :, :]
        col += q * (q_n / rho)
        return col

    def _pressure_grad(self, X):
        """P gradQ3 = rho (1-|qhat|^2) D_F gradQ3 + q (q.gradQ3)/rho; the
        tissue planes broadcast over any stack of grids in X."""
        rho, q = np.maximum(X[0], 1e-300), X[1:4]
        r2 = plane_dot(q, q) / (rho * rho)
        a = rho * (1.0 - r2)
        Pg = q * (plane_dot(q, self._g3) / rho)
        for k in range(3):
            Pg[k] += a * self._DFg3[k]
        return Pg

    def _pressure_grad_jacobian(self, U):
        rho = np.maximum(U[..., 0], 1e-300)
        return kershaw_pressure_derivative(rho, U[..., 1:4], self.tissue.gradQ3, self._DFg)

    def char_data(self, U: np.ndarray) -> dict:
        """Both axes' wave families (see the class docstring) in one pass
        over one set of planes of U, on the stacked axis grids: every cell
        shape below is (2, ny, nx), the x grid then the y grid, and flat
        cells index 2 ny nx cells in that order.

        `gamma` in [0, 1] blends toward a single-family treatment when the
        acoustic speeds collide with mu (small w = (1 - r2) s), covering the
        Theorem-degenerate configurations; w is polynomial in the state,
        ramped over a fixed window so the blend is continuous. The acoustic
        speeds cannot collide with each other there: their gap
        2 sqrt(p^2 + w) exceeds 2 sqrt(w) > 2e-2 wherever gamma > 0. The
        data holds those c cells, as flat indices (or slice(None) when
        every cell has gamma > 0), and on them, as (4, 2, c) component
        planes, the columns r-, r+ (R) and the rows l/(l.r) (L, so
        L^T R = I over the component axis), and the (2, c) column norms |r|.
        """
        X = _planes(U)
        qhat = X[1:4] / np.maximum(X[0], 1e-300)
        r2 = plane_dot(qhat, qhat)
        qhat, r2 = np.stack((qhat, qhat), axis=1), np.stack((r2, r2))
        u = self._DF_n
        p = plane_dot(qhat, u)
        w = (1.0 - r2) * self._s
        lo, hi = 1e-4, 4e-4                    # gap window [1e-2, 2e-2]^2
        gamma = np.clip((np.abs(w) - lo) / (hi - lo), 0.0, 1.0)
        active = gamma > 0.0
        if not np.any(active):
            return {"gamma": gamma, "waves": None}
        cells = slice(None) if active.all() else np.flatnonzero(active)
        qa, ua = _flat(qhat)[:, cells], _flat(u)[:, cells]
        pa, r2a, wa = p.ravel()[cells], r2.ravel()[cells], w.ravel()[cells]
        s = self._s.ravel()[cells]
        mu = np.stack((qhat[0, 0], qhat[1, 1])).ravel()[cells]  # qhat.n
        d = np.stack(kershaw_acoustic_offsets(pa, wa))  # (2, c)
        g = d + 2.0 * pa
        R = np.empty((4,) + d.shape)
        R[0] = 1.0
        R[1:] = ua[:, None] * (d / s) + qa[:, None]
        L = np.empty((4,) + d.shape)
        L[0] = g * (d - mu) + 2.0 * s * r2a
        L[1:] = (-2.0 * s) * qa[:, None]
        # + g n: n = e_x on the first n_x cells (the x grid's), e_y after them
        n_x = p[0].size if isinstance(cells, slice) else int(np.searchsorted(cells, p[0].size))
        L[1, :, :n_x] += g[:, :n_x]
        L[2, :, n_x:] += g[:, n_x:]
        L /= 2.0 * d * (d + pa)
        return {"gamma": gamma, "waves": (cells, R, L, plane_norm(R))}

    def char_slopes(self, data, d_minus, d_plus, h):
        """Blended wave-family WENO slopes of the (4, 2, ny, nx) planes of
        the differences along both axes, h = (dx, dy); returns (slope
        planes, n_blended over both axes).

        An acoustic family is rank one: `vector_weno_slope` of its projected
        differences r a is the scalar limiter on a = l.d/(l.r) with the step
        scaled by |r|. The contact family is limited as the complement
        d - r- a- - r+ a+. The merged-family slope enters only where
        gamma < 1, so it is computed only there. Each subset of cells takes
        the step of each cell's axis."""
        gamma = data["gamma"].ravel()
        steps = _cell_steps(h, data["gamma"].shape)
        blend = np.flatnonzero(~(gamma >= 1.0))
        dm, dp = _flat(d_minus), _flat(d_plus)
        slope = np.empty(dm.shape)
        if blend.size:
            slope[:, blend] = vector_weno_slope(dm[:, blend], dp[:, blend], steps[blend])  # merged family
        if data["waves"] is not None:
            cells, R, L, r_norm = data["waves"]
            h = steps[cells]
            D = np.stack((dm[:, cells], dp[:, cells]), axis=1)  # (4, 2 sides, c)
            A = plane_dot(L[:, :, None], D[:, None])              # (2 families, 2 sides, c)
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


# ---------------------------------------------------------------------------
# P_N / P_N^(F)
# ---------------------------------------------------------------------------

class LinearAnsatzSystem(_MomentSystem):
    """Polynomial (times anchor) closure: everything is linear in u.

    The evolved state is the reduced moment vector (a_0 = 1, then
    v_x, v_y, v_z, ...). Per cell and axis the run holds only the
    characteristic data of the flux matrix A_d = B_d G^-1 / eps: its
    unit-speed eigenvalues Lambda_d and the transposed bases R_d^T and
    R_d^-T, C-contiguous, so every transform is a row product on a stored
    array. At P3F 40x40 on one BLAS thread of a Xeon, [U, d-, d+] R^-T
    takes about 0.2 ms, against 0.3-0.4 ms for R^-1 [U, d-, d+] and 0.4-0.5
    ms on a transposed view of R^-1. With G = L L^T
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

    The characteristic data is stored stacked over the axes, lam
    (2, ny, nx, m) and R^T, R^-T (2, ny, nx, m, m), so that `faces` runs
    one pair of row products over both axes' cells per flux stage; the
    first product goes into a (2, ny, nx, 3, m) buffer held for the run.

    The linear closure is globally defined (its ansatz is signed by
    construction), so the realizability limiter and the hard realizability
    checks are off: standard P_N solutions are known to leave the
    realizable set near fronts, and aborting there would make the
    standard-vs-anchored comparisons impossible. `first_order_realizable`
    stays available for diagnostics.

    Setup fills the preallocated R^T, R^-T, lam and mQ a few grid rows at
    a time (`_build_tile`), so its m x m temporaries (G, B_d, L, the
    eigen-solve and rescaling copies) are bounded by `_TILE_BYTES` rather
    than by the grid: peak memory stays near what the time step holds.
    Every expression is per cell, so the arrays are bitwise those of a
    whole-grid build.
    """

    nvars: int
    limit_realizability = False

    def __init__(self, tissue: TissueFields, params: ScalingParams, N: int, uniform_anchor: bool):
        super().__init__(tissue, params)
        self.basis = pn_basis(N)
        self.nvars = m = self.basis.Kr

        # B_d integrates a_k a_j v_d F: two degree-N monomials, v_d and the
        # quadratic anchor, so a degree-(2N + 3) rule is exact
        quad = build_quadrature(max(_QUAD_DEGREE, 2 * N + 3))
        ared = self.basis.evaluate_reduced(quad.nodes)      # (nq, m)
        F = anchor_nodes_for(tissue.tensors, quad.nodes, uniform_anchor)
        wF = quad.weights * F                               # (ny, nx, nq)
        self._uniform_moments = (quad.weights @ ared) / (4.0 * np.pi)

        ny, nx = F.shape[:2]
        grid_mm = (ny, nx, m, m)
        self.mQ = np.empty((ny, nx, m))
        self._char = (np.empty((2, ny, nx, m)), np.empty((2,) + grid_mm), np.empty((2,) + grid_mm))
        # faces' first product, held for the run in the flux step's layout
        self._c = flux_work(self.mQ)
        for rows in tiles(ny, nx * m * m * 8):
            self._build_tile(rows, wF[rows], ared, quad.nodes)
        for lam in self._char[0]:
            speed = float(np.max(np.abs(lam)))
            if speed > 1.0 + 1e-10:
                raise MomentSystemError(
                    f"P{N}{'' if uniform_anchor else 'F'}: unit-speed wave speeds exceed 1 "
                    f"({speed:.6f}); anchor moments inconsistent"
                )

        # the thermal maps need G only at the boundary cells, so it is
        # recomputed there (per cell, so bitwise the tiles' G)
        self._build_wall(
            self.basis.evaluate_reduced, uniform_anchor,
            lambda side: np.einsum("en,nk,nj->ekj", wF[edge_slice(side)], ared, ared),
        )

    def _build_tile(self, rows, wF, ared, nodes):
        """Fill R^T, R^-T, lam and mQ on the grid rows `rows` from the
        tile's node weights wF; every expression is per cell, so the result
        does not depend on the tiling."""
        G = np.einsum("yxn,nk,nj->yxkj", wF, ared, ared)
        self.mQ[rows] = np.einsum("yxn,nk->yxk", wF, ared)

        # characteristic bases: A_d = B_d G^-1 / eps is similar to the
        # symmetric L^-1 B_d L^-T (G = L L^T), so the spectrum is real.
        # wF * v_d premultiplied: bitwise the 4-operand form (the eigenbases
        # depend on every bit of B_d), at a quarter of the cost
        L = np.linalg.cholesky(G)
        for d, (lam_out, RT_out, RinvT_out) in enumerate(zip(*self._char)):
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
            RT_out[rows] = np.swapaxes(R, -1, -2)
            RinvT_out[rows] = np.swapaxes(np.linalg.inv(R), -1, -2)

    def source_matrix(self, rows) -> np.ndarray:
        """Per-cell S on the grid rows `rows`: relaxation toward rho*mQ plus
        the haptotactic projection, whose advective part
        sum_d g3_d B_d G^-1 is summed as sum_d g3_d R_d Lambda_d R_d^-1,
        each term the transpose of the product R_d^-T (Lambda_d R_d^T) on
        the stored arrays (with OpenBLAS 0.3.31, bitwise the product
        (R_d Lambda_d) R_d^-1 it replaced).
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
            g3[..., d, None, None]
            * np.swapaxes(RinvT[rows] @ (lam[rows][..., :, None] * RT[rows]), -1, -2)
            for d, (lam, RT, RinvT) in enumerate(zip(*self._char))
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

    def faces(self, data, cols, h):
        """Faces and fluxes of both axes through the characteristic
        transform, as row products reading R^-T and R^T once each: the rows
        c = [U, d_minus, d_plus] R^-T give the limited characteristic slope
        s, then [s, (Lambda/eps) c_U, (Lambda/eps) s] R^T gives the rows of
        the slope R s, the cell flux A U and the flux slope A R s, so
        f = U -+ (h/2) R s and F = A U -+ (h/2) A R s. Each cell's product
        is its own gemm over both axes' (2, ny, nx) cells. c goes into a
        buffer the system holds for the run, in the memory order of
        `flux_work` (each row kind of each axis one contiguous grid block),
        and the slope is evaluated in place, with the difference rows of
        `cols`, dead once c is formed, as its scratch, and then Lambda/eps.
        The second product is written over `cols`, whose U rows are copied
        out first (one grid: both axes' rows hold the same state), f_hi and
        F_hi over its slope and flux rows, and f_lo and F_lo over the rows
        of c, dead by then. So a call allocates only that copy of U. No
        limiter: the closure is globally defined."""
        lam, RT, RinvT = data
        h = np.reshape(h, (2, 1, 1, 1))
        c = np.matmul(cols, RinvT, out=self._c)
        # overwrite c with the rows [s, (Lambda/eps) c_U, (Lambda/eps) s]
        weno2_slope_inplace(c[..., 1, :], c[..., 2, :], h, cols[..., 1, :], cols[..., 2, :])
        speed = np.divide(lam, self.params.eps, out=cols[..., 1, :])
        np.multiply(speed, c[..., 0, :], out=c[..., 1, :])
        c[..., 0, :] = c[..., 2, :]
        c[..., 2, :] *= speed
        U = cols[0, ..., 0, :].copy()  # both axes' U rows hold the same state
        out = np.matmul(c, RT, out=cols)
        slope, flux, flux_slope = out[..., 0, :], out[..., 1, :], out[..., 2, :]
        half_h = 0.5 * h
        slope *= half_h
        f_lo = np.subtract(U, slope, out=c[..., 0, :])
        f_hi = np.add(U, slope, out=slope)
        flux_slope *= half_h
        F_lo = np.subtract(flux, flux_slope, out=c[..., 1, :])
        F_hi = np.add(flux, flux_slope, out=flux)
        return f_lo, f_hi, F_lo, F_hi, 0, 0


# ---------------------------------------------------------------------------
# M1F
# ---------------------------------------------------------------------------

def _dual_qhat(rho: np.ndarray, q: np.ndarray) -> np.ndarray:
    """q/rho per row, scaled back to |qhat| <= 0.999999, inside the unit
    ball. The discrete dual is solvable only inside the convex hull of the
    quadrature nodes, which ends before the cap: the nearest face of
    `build_quadrature(10)`'s hull is 0.946 from the origin. Cells between
    the hull and the cap fail their dual solve and take Kershaw's closure."""
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
    its offset in the batch (OpenBLAS 0.3.31 on a Xeon: batches of 1-8 rows
    placed after 0-7 other rows differ in 37 of 64 cases; closing two 20x20
    face sets jointly moved 3 of 800 cells), and M1F's blending follows
    last-bit changes. So `_closure` takes grid-shaped states only, and
    `flux` closes the four (face set, axis) grids of a flux stage one grid
    at a time. `_dual` is the one preamble of both: it caps qhat, solves
    and counts.

    The pressure hooks and `char_slopes` take the family's component
    planes and hand the closure and `group_characteristic_slopes` the rows
    of the same values (a transposing view that `_closure`'s reshape or
    the slopes' masks copy once), so every bit is that of a row evaluation.
    """

    def __init__(self, tissue: TissueFields, params: ScalingParams):
        super().__init__(tissue, params)
        quad = build_quadrature(_QUAD_DEGREE)
        wF = quad.weights * peanut_node_values(tissue.tensors, quad.nodes)  # (ny, nx, nq)
        self._V = quad.nodes
        self._start = m1f_dual_start(wF.reshape(-1, len(quad)), self._V)
        self._side_start = {side: m1f_dual_start(wF[edge_slice(side)], self._V) for side in _EDGES}
        self._m_nodes = _fo_basis(quad.nodes)  # (nq, 4)

    def _dual(self, rows: np.ndarray, start):
        """Dual solve of the (nc, 4) state rows from `start`, built on the
        same rows; counts its iterations and failed rows. Returns rho
        (clamped to 1e-300), q, beta, gnorm, lognorm and the failed mask."""
        rho = np.maximum(rows[:, 0], 1e-300)
        q = rows[:, 1:4]
        beta, gnorm, lognorm, failed, iterations = m1f_dual_solve(_dual_qhat(rho, q), start, self._V)
        self.closure_iterations += iterations
        self.fallback_count += int(np.count_nonzero(failed))
        return rho, q, beta, gnorm, lognorm, failed

    def _closure(self, U: np.ndarray):
        """Per-cell ansatz node masses f^A w (mass rho) of a grid-shaped U,
        solved from the grid's dual start: (shape, rho, q, gmass, beta,
        lognorm, failed), with all but shape and gmass from `_dual`. P is
        left to `_pressure`, which forms only the columns a hook reads."""
        shape = U.shape[:-1]
        if shape != self.tissue.lamH.shape:
            raise MomentSystemError(
                f"M1F closure takes a grid-shaped state {self.tissue.lamH.shape + (4,)}, "
                f"got shape {U.shape}"
            )
        rho, q, beta, gnorm, lognorm, failed = self._dual(U.reshape(-1, 4), self._start)
        return shape, rho, q, gnorm * rho[:, None], beta, lognorm, failed

    def _pressure(self, U: np.ndarray, cols: slice):
        """The columns `cols` of P = <v v^T f^A>, (nc, 3, ncols), of a
        grid-shaped U; Kershaw's P where the dual failed. With V cut to
        those columns, each entry is the sum of the same products, over the
        nodes in the same order, as in the full P: the same bits."""
        shape, rho, q, gmass, _, _, failed = self._closure(U)
        P = np.einsum("cn,ni,nj->cij", gmass, self._V, self._V[:, cols])
        if np.any(failed):
            DF = self.tissue.DF.reshape(-1, 3, 3)
            P[failed] = kershaw_pressure_batch(rho[failed], q[failed], DF[failed])[..., cols]
        return shape, P

    def _pressure_normal(self, X):
        """P n of each axis slab of X, closed one (4, ny, nx) grid at a time
        (see the class docstring)."""
        out = np.empty(X[1:].shape)
        for idx in np.ndindex(X.shape[1:-2]):
            grid, axis = (slice(None),) + idx, idx[-1]
            shape, P = self._pressure(X[grid].transpose(1, 2, 0), slice(axis, axis + 1))
            out[grid] = P.reshape(shape + (3,)).transpose(2, 0, 1)
        return out

    def _pressure_grad(self, X):
        """P gradQ3 from P's x and y columns: gradQ3's z entry is 0."""
        shape, P = self._pressure(X.transpose(1, 2, 0), slice(0, 2))
        g2 = self.tissue.gradQ3[..., :2]
        return np.einsum("...ij,...j->...i", P.reshape(shape + (3, 2)), g2).transpose(2, 0, 1)

    def _pressure_grad_jacobian(self, U):
        """d(P g)/d(rho, q) of the exponential ansatz, g = gradQ3: with
        H = <m m^T f^A>, it is <v (v.g) m^T f^A> H^-1. Cells without a
        converged dual take Kershaw's, as in `_pressure_grad`."""
        shape, rho, _, gmass, _, _, failed = self._closure(U)
        m = self._m_nodes
        g3 = self.tissue.gradQ3.reshape(-1, 3)
        vg = g3 @ self._V.T                                 # (nc, nq)
        H = np.einsum("cn,nk,nj->ckj", gmass, m, m)
        Tg = np.einsum("cn,cn,ni,nj->cij", gmass, vg, self._V, m)  # (nc, 3, 4)
        dPg = np.swapaxes(np.linalg.solve(H, np.swapaxes(Tg, -1, -2)), -1, -2)
        if np.any(failed):
            q, DFg = U[..., 1:4].reshape(-1, 3)[failed], self._DFg.reshape(-1, 3)[failed]
            dPg[failed] = kershaw_pressure_derivative(rho[failed], q, g3[failed], DFg)
        return dPg.reshape(shape + (3, 4))

    def char_data(self, U: np.ndarray):
        """Canonical eigensystems of the flux Jacobians along x and y, from
        one closure of U, stacked over the axes: lam (2, ny, nx, 4), R and
        Rinv (2, ny, nx, 4, 4), weight (2, ny, nx). A cell whose dual
        failed has no ansatz to take them from: its H is set to I, so that
        the batched solve runs (LAPACK solves each matrix on its own, so the
        other cells keep their bits), and its eigensystem to weight 0,
        R = Rinv = I, so that its slope is the componentwise one."""
        shape, _, _, gmass, _, _, failed = self._closure(U)
        m = self._m_nodes
        H = np.einsum("cn,nk,nj->ckj", gmass, m, m)
        H[failed] = np.eye(4)
        J = np.empty((2,) + H.shape)
        for axis in (0, 1):
            # gmass * v_axis premultiplied: bitwise the 4-operand form
            T = np.einsum("cn,nk,nj->ckj", gmass * self._V[:, axis], m, m)
            J[axis] = np.swapaxes(np.linalg.solve(H, T), -1, -2)
        J /= self.params.eps
        lam, R, Rinv, weight = canonical_eig(J.reshape((2,) + shape + (4, 4)))
        failed = failed.reshape(shape)
        weight[:, failed] = 0.0
        R[:, failed] = Rinv[:, failed] = np.eye(4)
        return lam, R, Rinv, weight

    def char_slopes(self, data, d_minus, d_plus, h):
        """Slopes of the (4, 2, ny, nx) planes of the differences along both
        axes, h = (dx, dy): the componentwise slope blended by `weight`
        toward the characteristic one, which is limited on the rows of one
        axis at a time, with that axis' step."""
        lam, R, Rinv, weight = data
        slope = weno2_slope(d_minus, d_plus, np.reshape(h, (2, 1, 1)))
        n_blended = 0
        for axis in (0, 1):
            w = weight[axis]
            if not np.any(w > 0.0):
                n_blended += w.size
                continue
            dm, dp = d_minus[:, axis].transpose(1, 2, 0), d_plus[:, axis].transpose(1, 2, 0)
            char = group_characteristic_slopes(lam[axis], R[axis], Rinv[axis], dm, dp, h[axis])
            slope[:, axis] = w * char.transpose(2, 0, 1) + (1.0 - w) * slope[:, axis]
            n_blended += int(np.count_nonzero(w < 1.0))
        return slope, n_blended

    def boundary_flux(self, side: str, U_edge: np.ndarray) -> np.ndarray:
        edge = self._edges[side]
        rho, _, beta, _, lognorm, failed = self._dual(U_edge, self._side_start[side])
        # f^A on the outgoing hemisphere: rho * exp(v.beta - lognorm) * Qhat
        expo = beta @ edge.out_nodes.T - lognorm[:, None] + np.log(rho)[:, None]
        fA = np.exp(expo) * edge.anchor_out
        O = np.einsum("n,nk,en->ek", edge.out_mu_w, edge.a_out, fA)
        out = assemble_thermal_flux(O, edge.ctilde, self.params.eps)
        if np.any(failed):
            # as in _pressure: cells without a converged dual take Kershaw's flux
            out[failed] = super().boundary_flux(side, U_edge)[failed]
        return out


#: every moment model: K1F, M1F, P1..P5 and P1F..P5F (order and anchor captured)
MOMENT_MODELS = re.compile(r"K1F|M1F|P([1-5])(F?)")


def build_system(kind: str, tissue: TissueFields, params: ScalingParams):
    match = MOMENT_MODELS.fullmatch(kind)
    if match is None:
        raise MomentSystemError(
            f"unknown model {kind!r}: expected K1F, M1F, P1..P5 or P1F..P5F"
        )
    if kind == "K1F":
        return KershawSystem(tissue, params)
    if kind == "M1F":
        return M1FSystem(tissue, params)
    return LinearAnsatzSystem(
        tissue, params, int(match.group(1)), uniform_anchor=(match.group(2) == "")
    )
