"""Realizability-preserving finite-volume scheme on a 2D Cartesian grid.

The run driver `run_kinetic` advances the scaled moment system by Strang
steps source(dt/2), flux(dt), source(dt/2) under one CFL bound, `_CFL`:

* a flux step: unsplit dimension-by-dimension finite-volume update with
  second-order central-WENO reconstruction in characteristic variables,
  a realizability limiter toward the cell mean, the global Lax-Friedrichs
  flux with viscosity C = 1/eps, and SSP-RK2 (Heun) with reconstruction
  and limiting re-applied in every stage. The limiter scales a cell's slope
  by the largest theta keeping both face values in the convex set
  {rho >= REALIZABILITY_FLOOR, |q| <= rho}, in closed form (Zhang & Shu
  2010 scaling on the first-order realizability cone); cells whose faces
  already pass the predicate are left untouched. Reconstruction, limiting
  and face fluxes are each system's `faces`, called once per stage for
  both axes on one work buffer; this module fills that buffer, then
  assembles each axis' Lax-Friedrichs fluxes, boundary fluxes and flux
  difference into the update on the grid of the system's tissue;
* a source step: per-cell ODE solved with a discontinuous-Galerkin-in-time
  scheme on a quadratic nodal basis (stiffly A-stable, right-endpoint
  order 5), solved directly for linear sources (`dg_linear_propagator`)
  and by chord Newton otherwise. The first-order sources have a zero mass
  row, so K1F's solve (`dg_momentum_step`) holds rho and iterates the
  nine momentum unknowns per cell on component planes, with one stacked
  source call per iteration; M1F's stays on rows (`dg_source_step`),
  whose bits its characteristic blending follows.

`run_kinetic` supplies its step to `stepping.run_steps`, which lays the
run out in time (step count, output steps, finiteness guard, mass audit)
as it does for the diffusion solver. The step merges the abutting
half-steps of consecutive steps into one source(dt), so a run solves the
source once between flux steps and a half-step only at the start, at
output times and at the end. M1F and the linear sources keep two
half-steps there (see `run_kinetic`).

Boundaries are either periodic or "thermal": outgoing particles are
absorbed and re-emitted with the local fiber distribution, renormalized so
the boundary mass flux is exactly zero.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np

from .reconstruct import row_norm
from .stepping import RunResult, run_steps, step_count
from .systems import REALIZABILITY_FLOOR, M1FSystem, flux_work, tiles

#: CFL number of a run, dt <= _CFL * min(dx, dy) / wave_speed: the unsplit x+y
#: bound that keeps limited cell means realizable (Zhang & Shu, JCP 229, 2010)
_CFL = 0.25
#: dg_source_step's Newton stops at this residual, relative to max(1, |u_old|)
_DG_NEWTON_TOL = 1e-10
#: and raises SolverError after this many iterations without reaching it
_DG_NEWTON_MAXIT = 50


class SolverError(RuntimeError):
    pass


def new_diagnostics() -> dict:
    return {
        "limiter_activations": 0,
        "char_fallback_cells": 0,
        "mass_flux_out": 0.0,
        "steps": 0,
    }


# ---------------------------------------------------------------------------
# flux step
# ---------------------------------------------------------------------------

def _lax_friedrichs(F_hi, F_lo_nb, f_lo_nb, f_hi, C):
    """F_hi := 0.5 * ((F_hi + F_lo_nb) - C * (f_lo_nb - f_hi)), the flux
    through each high face from both sides' states and fluxes; in place,
    overwriting f_lo_nb, with the operation order of the plain expression."""
    F_hi += F_lo_nb
    f_lo_nb -= f_hi
    f_lo_nb *= C
    F_hi -= f_lo_nb
    F_hi *= 0.5


def _axis_slices(axis):
    """Index expressions of a (ny, nx, ...) array along `axis`: the cells
    with a low neighbour, those with a high one, the high edge and the low
    edge."""
    arr_ax = 1 - axis  # x varies along array axis 1, y along axis 0
    lead = (slice(None),) * arr_ax
    return lead + (slice(1, None),), lead + (slice(None, -1),), lead + (-1,), lead + (0,)


def _difference_rows(cols, U, axis, h, periodic):
    """Write every entry of one axis' block of the flux step's work
    buffer, (ny, nx, 3, m): per cell the rows U and the one-sided
    differences d- and d+ along `axis` (across a thermal edge zero, across
    a periodic one the wrap difference)."""
    sl_hi, sl_lo, edge_hi, edge_lo = _axis_slices(axis)
    cols[..., 0, :] = U
    d_minus, d_plus = cols[..., 1, :], cols[..., 2, :]
    np.subtract(U[sl_hi], U[sl_lo], out=d_minus[sl_hi])
    d_minus[sl_hi] /= h
    d_plus[sl_lo] = d_minus[sl_hi]
    # every edge entry is written: the buffer holds the previous stage's values
    d_minus[edge_lo] = (U[edge_lo] - U[edge_hi]) / h if periodic else 0.0
    d_plus[edge_hi] = d_minus[edge_lo]


def _axis_flux_difference(rhs, U, axis, system, periodic, faces):
    """Subtract the flux difference along `axis` from rhs, from that axis'
    `faces` (f_lo, f_hi, F_lo, F_hi), which the Lax-Friedrichs flux
    overwrites; returns the thermal boundary mass rate (zero for a
    periodic boundary)."""
    grid = system.tissue.grid
    h = grid.dx if axis == 0 else grid.dy
    sl_hi, sl_lo, edge_hi, edge_lo = _axis_slices(axis)
    f_lo, f_hi, F_lo, F_hi = faces
    C = system.wave_speed
    # writes F_hi and f_lo only off the wrap face, whose values stay untouched
    _lax_friedrichs(F_hi[sl_lo], F_lo[sl_hi], f_lo[sl_hi], f_hi[sl_lo], C)
    fhat_lo = np.empty_like(U)
    fhat_lo[sl_hi] = F_hi[sl_lo]
    if periodic:
        _lax_friedrichs(F_hi[edge_hi], F_lo[edge_lo], f_lo[edge_lo], f_hi[edge_hi], C)
        fhat_lo[edge_lo] = F_hi[edge_hi]
        mass_rate = 0.0
    else:
        hi_side, lo_side = ("right", "left") if axis == 0 else ("top", "bottom")
        out_hi = system.boundary_flux(hi_side, U[edge_hi])
        out_lo = system.boundary_flux(lo_side, U[edge_lo])
        fhat_lo[edge_lo] = -out_lo
        F_hi[edge_hi] = out_hi
        face_len = grid.dy if axis == 0 else grid.dx
        mass_rate = float((out_hi[:, 0].sum() + out_lo[:, 0].sum()) * face_len)
    # rhs -= (F_hi - fhat_lo) / h, its temporaries in fhat_lo
    np.subtract(F_hi, fhat_lo, out=fhat_lo)
    fhat_lo /= h
    rhs -= fhat_lo
    return mass_rate


def _flux_divergence(U, system, diag, bc, char, cols):
    """The finite-volume right-hand side of the state U and its thermal
    boundary mass rate: both axes' difference rows go into `cols`, one
    `faces` call reconstructs and limits both axes, and each axis' flux
    difference is then subtracted, x first."""
    grid = system.tissue.grid
    h = (grid.dx, grid.dy)
    periodic = bc == "periodic"
    for axis in (0, 1):
        _difference_rows(cols[axis], U, axis, h[axis], periodic)
    *faces, n_blended, n_limited = system.faces(char, cols, h)
    diag["char_fallback_cells"] += n_blended
    diag["limiter_activations"] += n_limited
    rhs = np.zeros_like(U)
    boundary_mass_rate = sum(
        _axis_flux_difference(rhs, U, axis, system, periodic, [f[axis] for f in faces])
        for axis in (0, 1)
    )
    return rhs, boundary_mass_rate


def _above_floor(rho):
    # roundoff slack: provably-realizable updates may sit on the boundary
    return rho >= REALIZABILITY_FLOOR * (1.0 - 1e-12) - 1e-300


def _require_realizable(U, system, where):
    """Raise a SolverError naming the first unrealizable cell of U, with
    its drift ratio kappa (`kinetic.drift_ratio`; above 1 the source can
    leave the realizable set), unless the system does not limit
    realizability."""
    if not system.limit_realizability:
        return
    rho = U[..., 0]
    qn = row_norm(U[..., 1:4])
    ok = _above_floor(rho) & (qn <= rho * (1.0 + 1e-12) + 1e-300)
    if not np.all(ok):
        iy, ix = np.argwhere(~ok)[0]
        raise SolverError(
            f"realizability violated after {where} at cell (ix={ix}, iy={iy}): "
            f"rho={rho[iy, ix]:.6e}, |q|={qn[iy, ix]:.6e}, "
            f"kappa={system.kappa[iy, ix]:.4g}"
        )


def flux_step(U, dt, system, diag, cols, bc="thermal"):
    """One SSP-RK2 (Heun) step of the semidiscrete finite-volume update on
    the grid of the system's tissue, counted into the run's `diag`.

    Reconstruction and limiting run in both stages, one `faces` call per
    stage for both axes; the characteristic data of both axes is evaluated
    once at the step state and reused for the inner stage (the basis
    enters only the limiter, not the formal order). Both stages share the
    work buffer `cols` (`flux_work`), which `faces` may overwrite;
    `run_kinetic` passes one buffer to every step of a run, so its pages
    stay mapped. Raises a SolverError for dt above the run's CFL bound.
    """
    grid = system.tissue.grid
    bound = _CFL * min(grid.dx, grid.dy) / system.wave_speed
    if dt > bound * (1.0 + 1e-12):
        raise SolverError(f"dt={dt:.6e} exceeds the CFL bound {bound:.6e}")
    mass0 = float(U[..., 0].sum())
    char = system.char_data(U)
    # U1 = U + dt L0 and U2 = 0.5 (U + U1 + dt L1) in that operation order,
    # written over L0 and U1, so a stage allocates no state-sized temporary
    L0, b0 = _flux_divergence(U, system, diag, bc, char, cols)
    L0 *= dt
    U1 = np.add(U, L0, out=L0)
    _require_realizable(U1, system, "flux stage 1")
    L1, b1 = _flux_divergence(U1, system, diag, bc, char, cols)
    L1 *= dt
    U2 = np.add(U, U1, out=U1)
    U2 += L1
    U2 *= 0.5
    _require_realizable(U2, system, "flux stage 2")
    outflow = 0.5 * dt * (b0 + b1)
    diag["mass_flux_out"] += outflow
    diag["mass_balance_residual"] = (
        (float(U2[..., 0].sum()) - mass0) * grid.cell_area + outflow
    )
    return U2


# ---------------------------------------------------------------------------
# DG(2) source integrator
# ---------------------------------------------------------------------------

# stiffness of the nodal basis phi_i(tau) at tau = (-1, 0, 1):
# A[i, j] = integral of phi_j' phi_i over [-1, 1]
_DG_A = np.array([
    [-0.5, 2.0 / 3.0, -1.0 / 6.0],
    [-2.0 / 3.0, 0.0, 2.0 / 3.0],
    [1.0 / 6.0, -2.0 / 3.0, 0.5],
])
_DG_M = _DG_A.copy()
_DG_M[0, 0] += 1.0  # + upwind coupling phi_i(-1) phi_j(-1)
_TAU_G = np.array([-math.sqrt(3.0 / 5.0), 0.0, math.sqrt(3.0 / 5.0)])
_W_G = np.array([5.0, 8.0, 5.0]) / 9.0


def _phi(tau):
    return np.array([0.5 * tau * tau - 0.5 * tau, 1.0 - tau * tau, 0.5 * tau * tau + 0.5 * tau])


_PHI_G = np.stack([_phi(t) for t in _TAU_G])  # (gauss, basis)
_WPHI_G = _W_G[:, None] * _PHI_G  # Gauss weight times basis value


def dg_linear_propagator(source_matrix, dt):
    """Map u_old -> u(t+dt) of u' = S u under the quadratic DG scheme.

    source_matrix: (..., m, m). Quadratic DG in time has the (2, 3) Pade
    approximant of exp as its stability function (Lesaint & Raviart 1974),
    so with Z = dt S the propagator is Q(Z)^{-1} N(Z),
    N = I + 2Z/5 + Z^2/20 and Q = I - 3Z/5 + 3Z^2/20 - Z^3/60: the
    right-endpoint block of the inverse of the 3m x 3m DG system matrix.
    Rounding grows with dt |S| (Q ~ Z^3): ~1e-15 relative to dt |S| = 10.
    Every step is per matrix, so a caller bounds the temporaries by passing
    S in tiles (`source_propagator`) and gets the same bits.
    """
    Z = dt * np.asarray(source_matrix, dtype=float)
    eye = np.eye(Z.shape[-1])
    Z2 = Z @ Z
    num = eye + 0.4 * Z + Z2 / 20.0
    den = eye - 0.6 * Z + 0.15 * Z2 - (Z2 @ Z) / 60.0
    return np.linalg.solve(den, num)


def source_propagator(system, dt):
    """Transposed DG propagator P^T over dt of the system's linear source
    on the grid of its tissue, C-contiguous per cell, so `run_kinetic`
    applies it as the row product u^T P^T. S is assembled one row tile at a
    time (`system.source_matrix`, sized by `systems.tiles`), so no full-grid
    S is held."""
    grid = system.tissue.grid
    ny, nx = grid.ny, grid.nx
    m = system.nvars
    out = np.empty((ny, nx, m, m))
    for rows in tiles(ny, nx * m * m * 8):
        out[rows] = np.swapaxes(dg_linear_propagator(system.source_matrix(rows), dt), -1, -2)
    return out


def dg_source_step(u_old, dt, source_fn, jacobian, chord_cache=None):
    """Advance u' = s(u) over dt with the quadratic nodal DG scheme.

    Solves for the three internal values at tau = (-1, 0, 1) by chord
    Newton with `jacobian`, the source's Jacobian ds/du, and returns the
    right endpoint; linear sources use `dg_linear_propagator` instead. The
    assembled system Jacobian is reused while the residual contracts and
    rebuilt when convergence stalls. Passing a `chord_cache` dict carries
    the factorization, with the dt it was built for, across consecutive
    calls; a call with another dt rebuilds it. Batched over all leading
    axes of u_old. A non-finite residual stops the iteration at once; the
    SolverError names the cell with the largest residual.
    """
    u_old = np.asarray(u_old, dtype=float)
    lead, m = u_old.shape[:-1], u_old.shape[-1]
    # node-major (3, ..., m): each node state, Gauss state and residual row
    # is contiguous; the chord solve reads the residual per cell (..., 3m)
    Unodes = np.repeat(u_old[None], 3, axis=0)
    scale = np.maximum(1.0, np.max(np.abs(u_old), axis=-1))[..., None]
    history = []
    # out of the cache while in use, so a rebuild frees it before building anew
    inv_big = chord_cache.pop("inv", None) if chord_cache is not None else None
    if inv_big is not None and (chord_cache["dt"] != dt or inv_big.shape[:-2] != lead):
        inv_big = None
    rebuilds = 0
    half_dt = 0.5 * dt
    u_g = np.empty_like(Unodes)
    res = np.empty_like(Unodes)
    t1, t2 = np.empty_like(u_old), np.empty_like(u_old)

    def combine(out, c, X0, X1, X2):
        """out = c[0] X0 + c[1] X1 + c[2] X2, summed in this order: bitwise
        what einsum gives, which matmul's blocked sums are not."""
        np.multiply(c[0], X0, out=out)
        out += np.multiply(c[1], X1, out=t2)
        out += np.multiply(c[2], X2, out=t2)

    for it in range(_DG_NEWTON_MAXIT):
        U0, U1, U2 = Unodes
        for g in range(3):
            combine(u_g[g], _PHI_G[g], U0, U1, U2)
        s0, s1, s2 = (source_fn(u) for u in u_g)
        for i in range(3):
            combine(res[i], _DG_M[i], U0, U1, U2)
            combine(t1, _WPHI_G[:, i], s0, s1, s2)
            res[i] -= np.multiply(t1, half_dt, out=t1)
        res[0] -= u_old
        rmax = float(np.max(np.abs(res) / scale))
        history.append(rmax)
        if rmax <= _DG_NEWTON_TOL:
            if chord_cache is not None:
                chord_cache.update(inv=inv_big, dt=dt)
            return Unodes[2]
        if not math.isfinite(rmax):
            break
        stalled = len(history) >= 2 and history[-1] > 0.5 * history[-2]
        if inv_big is None or (stalled and rebuilds < 8):
            inv_big = None
            J_g = np.stack([jacobian(u) for u in u_g], axis=-3)
            big = np.zeros(lead + (3, m, 3, m))
            eye = np.eye(m)
            for i in range(3):
                for j in range(3):
                    big[..., i, :, j, :] = _DG_M[i, j] * eye - 0.5 * dt * np.einsum(
                        "g,...gkl->...kl", _W_G * _PHI_G[:, i] * _PHI_G[:, j], J_g
                    )
            big = big.reshape(lead + (3 * m, 3 * m))
            inv_big = np.linalg.inv(big)
            rebuilds += 1
        delta = np.einsum(
            "...ij,...j->...i", inv_big, np.moveaxis(res, 0, -2).reshape(lead + (3 * m,))
        )
        Unodes -= np.moveaxis(delta.reshape(lead + (3, m)), -2, 0)
    raise _newton_failure(np.max(np.abs(res) / scale, axis=(0, -1)), history)


def dg_momentum_step(u_old, dt, system, chord_cache=None):
    """`dg_source_step` of a first-order system's source, solved for the
    momentum alone on component planes; u_old and the result are grid rows
    (ny, nx, 4).

    The source's mass row is zero, so rho stays u_old's, bitwise, and the
    unknowns are the momentum planes at the three nodes, (3, 3, ny, nx),
    component-major. Each iteration evaluates the three Gauss states, one
    (4, 3, ny, nx) stack of planes, by one `system.momentum_source` call;
    the node sums of the Gauss states and of the residual are matrix
    products over the node axis. The chord matrix is the 9 x 9 q-block of
    `system.source_jacobian` at the stacked Gauss states, inverted per
    cell once per rebuild and held as (9, 9, ny, nx) planes, which one
    contraction over the plane axis applies. Initial guess, residual scale
    (max(1, |u_old|) over all four moments), stall and rebuild rules, chord
    cache and failure message are `dg_source_step`'s, so it takes the same
    iterations, and its result differs from that solve's by rounding.
    """
    u_old = np.asarray(u_old, dtype=float)
    grid = u_old.shape[:-1]
    X_old = np.ascontiguousarray(u_old.transpose(2, 0, 1))
    q_old = X_old[1:]
    Q = np.repeat(q_old[:, None], 3, axis=1)
    scale = np.maximum(1.0, np.max(np.abs(X_old), axis=0))
    history = []
    inv = chord_cache.pop("inv", None) if chord_cache is not None else None
    if inv is not None and (chord_cache["dt"] != dt or inv.shape != (9, 9) + grid):
        inv = None
    rebuilds = 0
    X_g = np.empty((4, 3) + grid)
    X_g[0] = X_old[0]
    res = np.empty_like(Q)
    err = np.empty_like(Q)
    # (component, node, cell) views of the node and Gauss values and residual
    Q_f, q_g, res_f = (A.reshape(3, 3, -1) for A in (Q, X_g[1:], res))
    w_s = 0.5 * dt * _WPHI_G.T  # residual weight of each Gauss source value
    for it in range(_DG_NEWTON_MAXIT):
        np.matmul(_PHI_G, Q_f, out=q_g)
        s_g = system.momentum_source(X_g).reshape(3, 3, -1)
        np.matmul(_DG_M, Q_f, out=res_f)
        res_f -= np.matmul(w_s, s_g)
        res[:, 0] -= q_old
        np.divide(np.abs(res, out=err), scale, out=err)
        rmax = float(np.max(err))
        history.append(rmax)
        if rmax <= _DG_NEWTON_TOL:
            if chord_cache is not None:
                chord_cache.update(inv=inv, dt=dt)
            out = u_old.copy()
            out[..., 1:] = Q[:, 2].transpose(1, 2, 0)
            return out
        if not math.isfinite(rmax):
            break
        stalled = len(history) >= 2 and history[-1] > 0.5 * history[-2]
        if inv is None or (stalled and rebuilds < 8):
            inv = None
            J_g = system.source_jacobian(X_g.transpose(1, 2, 3, 0))[..., 1:, 1:]
            big = np.zeros(grid + (3, 3, 3, 3))  # (component, node) x (component, node)
            eye = np.eye(3)
            for i in range(3):
                for j in range(3):
                    big[..., :, i, :, j] = _DG_M[i, j] * eye - 0.5 * dt * np.einsum(
                        "g,g...kl->...kl", _W_G * _PHI_G[:, i] * _PHI_G[:, j], J_g
                    )
            inv = np.linalg.inv(big.reshape(grid + (9, 9)))
            inv = np.ascontiguousarray(inv.transpose(2, 3, 0, 1))
            rebuilds += 1
        Q -= np.einsum("ij...,j...->i...", inv, res.reshape((9,) + grid)).reshape(Q.shape)
    raise _newton_failure(np.max(err, axis=(0, 1)), history)


def _newton_failure(cell_residual, history):
    """The SolverError of a DG Newton solve that stopped with `cell_residual`
    (the largest scaled residual of each cell) after `history`: it names the
    cell with the largest residual, a non-finite one first."""
    idx = tuple(int(i) for i in np.unravel_index(np.argmax(cell_residual), cell_residual.shape))
    cell = f"(ix={idx[1]}, iy={idx[0]})" if len(idx) == 2 else str(idx)
    reason = (
        "reached a non-finite residual" if not math.isfinite(history[-1])
        else f"did not converge in {len(history)} iterations"
    )
    return SolverError(
        f"DG source Newton {reason}; largest residual at cell {cell}; "
        f"residual history {['%.3e' % r for r in history]}"
    )


# ---------------------------------------------------------------------------
# the run driver
# ---------------------------------------------------------------------------

@contextmanager
def _at_step(step, t):
    """Re-raise a SolverError with the step and time it happened at."""
    try:
        yield
    except SolverError as err:
        raise SolverError(f"{err} (at step {step}, t={t:.6e})") from err


def realizability_summary(U):
    """min rho; max |q|/rho over the cells with rho >= REALIZABILITY_FLOOR
    (the floor test of the realizability check; None when no cell passes
    it); and the negative-mass fraction, the sum of -rho over cells with
    rho < 0 divided by the sum of |rho|."""
    rho = U[..., 0]
    ok = _above_floor(rho)
    qhat = row_norm(U[..., 1:4])[ok] / rho[ok]
    return {
        "min_rho": float(rho.min()),
        "max_qhat": float(qhat.max()) if qhat.size else None,
        "negative_mass_frac": float(np.maximum(-rho, 0.0).sum())
        / max(float(np.abs(rho).sum()), 1e-300),
    }


def run_kinetic(
    system,
    rho0: np.ndarray,
    t_end: float,
    output_times=(),
) -> RunResult:
    """Advance to t_end by Strang steps source(dt/2), flux(dt), source(dt/2)
    on the grid of the system's tissue.

    dt is at most _CFL * min(dx, dy) / C, in the equal steps of
    `stepping.run_steps`, which also records the snapshots, guards
    finiteness and audits the mass. The abutting source half-steps of
    consecutive steps merge into one source(dt), except after the last
    flux step and around each output time (close, record the snapshot,
    reopen). For M1F and for linear sources (their propagator is built for
    dt/2) each source(dt) stays two half-steps, so those runs are exactly
    repeated Strang steps. K1F's nonlinear source is solved on momentum
    planes (`dg_momentum_step`), M1F's on rows (`dg_source_step`). A
    SolverError raised in a step names that step and its time.
    `closure_fallbacks` and `closure_iterations` count this run's closure
    fallbacks and closure work (the system's counters) only.
    """
    if not (0 < t_end < math.inf):
        raise SolverError(f"t_end must be positive and finite, got {t_end}")
    grid = system.tissue.grid
    rho0 = np.asarray(rho0, dtype=float)
    if rho0.shape != (grid.ny, grid.nx):
        raise SolverError(f"rho0 has shape {rho0.shape}, the grid needs {(grid.ny, grid.nx)}")
    U = system.initial_state(rho0)
    nsteps, dt = step_count(t_end, _CFL * min(grid.dx, grid.dy) / system.wave_speed)
    propagator = None
    if system.source_matrix is not None:
        propagator = source_propagator(system, 0.5 * dt)
    # M1F's characteristic blending follows last-bit changes of the state, and
    # merged solves or the momentum-plane solve put it on another branch of
    # its result, so it keeps two half-steps of the rows solve; ROADMAP item
    # 1 (continuous characteristic limiting) lifts both exclusions
    m1f = isinstance(system, M1FSystem)
    merge = propagator is None and not m1f
    chord_cache: dict = {}
    cols = flux_work(U)
    diag = new_diagnostics()
    fallbacks, iterations = system.fallback_count, system.closure_iterations

    def source(U, halves):
        for h in (dt,) if merge and halves == 2 else (0.5 * dt,) * halves:
            # warnings off: run_steps names a non-finite state's step, time and cell
            if propagator is not None:
                with np.errstate(invalid="ignore", over="ignore"):
                    U = (U[..., None, :] @ propagator)[..., 0, :]
            elif m1f:
                U = dg_source_step(
                    U, h, system.source, system.source_jacobian, chord_cache=chord_cache
                )
            else:
                U = dg_momentum_step(U, h, system, chord_cache)
            _require_realizable(U, system, "source step")
        return U

    def step(U, k, opening, closing):
        t = k * dt
        with _at_step(k, t - dt):
            if opening:
                U = source(U, 1)
            U = flux_step(U, dt, system, diag, cols)
        diag["steps"] += 1
        with _at_step(k, t):
            return source(U, 1 if closing else 2)

    res = run_steps(step, U, grid, nsteps, dt, output_times, diag, SolverError)
    diag["closure_fallbacks"] = system.fallback_count - fallbacks
    diag["closure_iterations"] = system.closure_iterations - iterations
    diag.update(realizability_summary(res.final_state))
    return res
