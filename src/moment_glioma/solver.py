"""Realizability-preserving finite-volume scheme on a 2D Cartesian grid.

One time step Strang-splits the scaled moment system into

* a flux step: unsplit dimension-by-dimension finite-volume update with
  second-order central-WENO reconstruction in characteristic variables,
  a realizability limiter toward the cell mean, the global Lax-Friedrichs
  flux with viscosity C = 1/eps, and SSP-RK2 (Heun) with reconstruction
  and limiting re-applied in every stage. The limiter scales a cell's slope
  by the largest theta keeping both face values in the convex set
  {rho >= floor, |q| <= rho}, in closed form (Zhang & Shu 2010 scaling on
  the first-order realizability cone); cells whose faces already pass the
  predicate are left untouched. Reconstruction, limiting and face fluxes
  are each system's `faces`; this module assembles the update;
* a source step: per-cell ODE solved with a discontinuous-Galerkin-in-time
  scheme on a quadratic nodal basis (stiffly A-stable, right-endpoint
  order 5), solved directly for linear sources and by Newton otherwise.

Boundaries are either periodic or "thermal": outgoing particles are
absorbed and re-emitted with the local fiber distribution, renormalized so
the boundary mass flux is exactly zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import GridSpec
from .reconstruct import row_norm
from .systems import tiles

#: run_kinetic's share of the flux-step CFL bound (the unsplit x+y update)
_CFL_2D_FACTOR = 0.5


class SolverError(RuntimeError):
    pass


@dataclass
class SolverConfig:
    t_end: float
    cfl: float = 0.5
    realizability_floor: float = 1e-12
    dg_newton_tol: float = 1e-10
    dg_newton_maxit: int = 50

    def __post_init__(self):
        for name in ("t_end", "realizability_floor", "dg_newton_tol"):
            value = getattr(self, name)
            if not (0 < value < math.inf):
                raise SolverError(f"{name} must be positive and finite, got {value}")
        if not (0 < self.cfl <= 1):
            raise SolverError(f"cfl must be in (0, 1], got {self.cfl}")
        if not self.dg_newton_maxit >= 1:
            raise SolverError(f"dg_newton_maxit must be at least 1, got {self.dg_newton_maxit}")


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

def _reconstruct_axis(U, axis, grid, system, cfg, diag, bc, data, cols):
    """Face states and fluxes (f_lo, f_hi, F_lo, F_hi) of every cell along
    `axis`, from the system's `faces` on U and its one-sided differences.
    `cols` is the flux step's (ny, nx, m, 3) work buffer; every entry is
    written here, the thermal edges' missing differences as zeros."""
    arr_ax = 1 - axis  # x varies along array axis 1, y along axis 0
    h = grid.dx if axis == 0 else grid.dy
    cols[..., 0] = U
    d_minus, d_plus = cols[..., 1], cols[..., 2]
    if bc == "periodic":
        np.subtract(U, np.roll(U, 1, axis=arr_ax), out=d_minus)
        np.subtract(np.roll(U, -1, axis=arr_ax), U, out=d_plus)
        d_minus /= h
        d_plus /= h
    else:
        sl_hi = (slice(None),) * arr_ax + (slice(1, None),)
        sl_lo = (slice(None),) * arr_ax + (slice(None, -1),)
        np.subtract(U[sl_hi], U[sl_lo], out=d_minus[sl_hi])
        d_minus[sl_hi] /= h
        d_plus[sl_lo] = d_minus[sl_hi]
        # zero difference across the boundary (the buffer holds the other axis')
        d_minus[(slice(None),) * arr_ax + (0,)] = 0.0
        d_plus[(slice(None),) * arr_ax + (-1,)] = 0.0
    f_lo, f_hi, F_lo, F_hi, n_blended, n_limited = system.faces(
        data, axis, cols, h, cfg.realizability_floor
    )
    diag["char_fallback_cells"] += n_blended
    diag["limiter_activations"] += n_limited
    return f_lo, f_hi, F_lo, F_hi


def _lax_friedrichs(F_hi, F_lo_nb, f_lo_nb, f_hi, C):
    """F_hi := 0.5 * ((F_hi + F_lo_nb) - C * (f_lo_nb - f_hi)), the flux
    through each high face from both sides' states and fluxes; in place,
    overwriting f_lo_nb, with the operation order of the plain expression."""
    F_hi += F_lo_nb
    f_lo_nb -= f_hi
    f_lo_nb *= C
    F_hi -= f_lo_nb
    F_hi *= 0.5


def _axis_flux_difference(rhs, U, axis, grid, system, cfg, diag, bc, data, cols):
    """Subtract the flux difference along `axis` from rhs; returns the
    thermal boundary mass rate. The face arrays are local, so they are
    freed before the next axis."""
    arr_ax = 1 - axis
    h = grid.dx if axis == 0 else grid.dy
    C = system.wave_speed
    f_lo, f_hi, F_lo, F_hi = _reconstruct_axis(U, axis, grid, system, cfg, diag, bc, data, cols)
    if bc == "periodic":
        F_lo_nb, f_lo_nb = (np.roll(a, -1, axis=arr_ax) for a in (F_lo, f_lo))
        _lax_friedrichs(F_hi, F_lo_nb, f_lo_nb, f_hi, C)
        rhs -= (F_hi - np.roll(F_hi, 1, axis=arr_ax)) / h
        return 0.0
    sl_hi = (slice(None),) * arr_ax + (slice(1, None),)
    sl_lo = (slice(None),) * arr_ax + (slice(None, -1),)
    edge_hi = (slice(None),) * arr_ax + (-1,)
    edge_lo = (slice(None),) * arr_ax + (0,)
    _lax_friedrichs(F_hi[sl_lo], F_lo[sl_hi], f_lo[sl_hi], f_hi[sl_lo], C)
    hi_side, lo_side = ("right", "left") if axis == 0 else ("top", "bottom")
    out_hi = system.boundary_flux(hi_side, U[edge_hi])
    out_lo = system.boundary_flux(lo_side, U[edge_lo])
    fhat_lo = np.empty_like(U)
    fhat_lo[sl_hi] = F_hi[sl_lo]
    fhat_lo[edge_lo] = -out_lo
    F_hi[edge_hi] = out_hi
    rhs -= (F_hi - fhat_lo) / h
    face_len = grid.dy if axis == 0 else grid.dx
    return float((out_hi[:, 0].sum() + out_lo[:, 0].sum()) * face_len)


def _flux_divergence(U, system, grid, cfg, diag, bc, char, cols):
    rhs = np.zeros_like(U)
    boundary_mass_rate = 0.0
    for axis in (0, 1):
        boundary_mass_rate += _axis_flux_difference(
            rhs, U, axis, grid, system, cfg, diag, bc, char[axis], cols
        )
    return rhs, boundary_mass_rate


def _require_realizable(U, system, floor, where):
    if not system.limit_realizability:
        return
    # roundoff slack: provably-realizable updates may sit on the boundary
    rho = U[..., 0]
    qn = row_norm(U[..., 1:4])
    ok = (rho >= floor * (1.0 - 1e-12) - 1e-300) & (qn <= rho * (1.0 + 1e-12) + 1e-300)
    if not np.all(ok):
        iy, ix = np.argwhere(~ok)[0]
        raise SolverError(
            f"realizability violated after {where} at cell (ix={ix}, iy={iy}): "
            f"rho={rho[iy, ix]:.6e}, |q|={qn[iy, ix]:.6e}"
        )


def flux_step(U, dt, system, grid, cfg, diag=None, bc="thermal"):
    """One SSP-RK2 (Heun) step of the semidiscrete finite-volume update.

    Reconstruction and limiting run in both stages; the characteristic
    basis is evaluated once at the step state and reused for the inner
    stage (the basis enters only the limiter, not the formal order). Both
    stages and axes share one (ny, nx, m, 3) buffer for [U, d-, d+].
    """
    diag = diag if diag is not None else new_diagnostics()
    hmin = min(grid.dx, grid.dy)
    bound = cfg.cfl * hmin / system.wave_speed
    if dt > bound * (1.0 + 1e-12):
        raise SolverError(f"dt={dt:.6e} exceeds the CFL bound {bound:.6e}")
    mass0 = float(U[..., 0].sum())
    char = system.char_data(U)
    cols = np.empty(U.shape + (3,))
    L0, b0 = _flux_divergence(U, system, grid, cfg, diag, bc, char, cols)
    U1 = U + dt * L0
    _require_realizable(U1, system, cfg.realizability_floor, "flux stage 1")
    L1, b1 = _flux_divergence(U1, system, grid, cfg, diag, bc, char, cols)
    U2 = 0.5 * (U + U1 + dt * L1)
    _require_realizable(U2, system, cfg.realizability_floor, "flux stage 2")
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
    The formula runs on chunks of the flattened leading axes (see
    `systems.tiles`), so its temporaries stay bounded; every step is per
    matrix, so the result does not depend on the chunking.
    """
    S = np.asarray(source_matrix, dtype=float)
    m = S.shape[-1]
    S = S.reshape(-1, m, m)
    out = np.empty_like(S)
    eye = np.eye(m)
    for chunk in tiles(S.shape[0], m * m * 8):
        Z = dt * S[chunk]
        Z2 = Z @ Z
        num = eye + 0.4 * Z + Z2 / 20.0
        den = eye - 0.6 * Z + 0.15 * Z2 - (Z2 @ Z) / 60.0
        out[chunk] = np.linalg.solve(den, num)
    return out.reshape(np.shape(source_matrix))


def source_propagator(system, dt, shape):
    """DG propagator over dt of the system's linear source on an (ny, nx)
    grid. S is assembled one row tile at a time (`system.source_matrix`,
    sized by `systems.tiles`), so no full-grid S is held."""
    ny, nx = shape
    m = system.nvars
    out = np.empty((ny, nx, m, m))
    for rows in tiles(ny, nx * m * m * 8):
        out[rows] = dg_linear_propagator(system.source_matrix(rows), dt)
    return out


def _fd_jacobian(source_fn, u, h=1e-7):
    m = u.shape[-1]
    J = np.empty(u.shape + (m,))
    base = np.maximum(1.0, np.abs(u))
    for k in range(m):
        du = np.zeros_like(u)
        du[..., k] = h * base[..., k]
        J[..., :, k] = (source_fn(u + du) - source_fn(u - du)) / (2 * h * base[..., k:k + 1])
    return J


def dg_source_step(u_old, dt, source_fn, cfg, jacobian=None, chord_cache=None):
    """Advance u' = s(u) over dt with the quadratic nodal DG scheme.

    Solves for the three internal values at tau = (-1, 0, 1) by chord
    Newton with `jacobian` (finite differences if omitted) and returns the
    right endpoint; linear sources use `dg_linear_propagator` instead. The
    assembled system Jacobian is reused while the residual contracts and
    rebuilt when convergence stalls. Passing a `chord_cache` dict carries
    the factorization across consecutive steps. Batched over all leading
    axes of u_old.
    """
    u_old = np.asarray(u_old, dtype=float)
    lead, m = u_old.shape[:-1], u_old.shape[-1]
    jac = jacobian or (lambda u: _fd_jacobian(source_fn, u))
    # node-major (3, ..., m): each node state, Gauss state and residual row
    # is contiguous; the chord solve reads the residual per cell (..., 3m)
    Unodes = np.repeat(u_old[None], 3, axis=0)
    scale = np.maximum(1.0, np.max(np.abs(u_old), axis=-1))[..., None]
    history = []
    inv_big = None
    if chord_cache is not None:
        cached = chord_cache.get("inv")
        if cached is not None and cached.shape[:-2] == lead:
            inv_big = cached
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

    for it in range(cfg.dg_newton_maxit):
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
        if rmax <= cfg.dg_newton_tol:
            if chord_cache is not None:
                chord_cache["inv"] = inv_big
            return Unodes[2]
        stalled = len(history) >= 2 and history[-1] > 0.5 * history[-2]
        if inv_big is None or (stalled and rebuilds < 8):
            J_g = np.stack([jac(u) for u in u_g], axis=-3)
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
    raise SolverError(
        f"DG source Newton did not converge in {cfg.dg_newton_maxit} iterations; "
        f"residual history {['%.3e' % r for r in history]}"
    )


# ---------------------------------------------------------------------------
# Strang splitting and the run driver
# ---------------------------------------------------------------------------

def _source_half_step(U, half_dt, system, cfg, propagator, chord_cache):
    if propagator is not None:
        U = np.einsum("yxij,yxj->yxi", propagator, U)
    else:
        U = dg_source_step(
            U, half_dt, system.source, cfg, jacobian=system.source_jacobian,
            chord_cache=chord_cache,
        )
    _require_realizable(U, system, cfg.realizability_floor, "source step")
    return U


def strang_step(U, dt, system, grid, cfg, diag=None, bc="thermal", propagator=None,
                chord_cache=None):
    """source(dt/2) then flux(dt) then source(dt/2).

    A linear source (`system.source_matrix`) is applied through its DG
    propagator for dt/2, built here unless the caller passes it.
    """
    diag = diag if diag is not None else new_diagnostics()
    if propagator is None and system.source_matrix is not None:
        propagator = source_propagator(system, 0.5 * dt, U.shape[:-1])
    U = _source_half_step(U, 0.5 * dt, system, cfg, propagator, chord_cache)
    U = flux_step(U, dt, system, grid, cfg, diag, bc)
    U = _source_half_step(U, 0.5 * dt, system, cfg, propagator, chord_cache)
    diag["steps"] += 1
    return U


def _raise_nonfinite(U, step, t):
    """Name the step, time and first non-finite cell (row-major, y outer)."""
    iy, ix = np.argwhere(~np.isfinite(U).all(axis=-1))[0]
    raise SolverError(
        f"non-finite moments {U[iy, ix]} at step {step}, t={t:.6e}, cell (ix={ix}, iy={iy})"
    )


@dataclass
class KineticRunResult:
    grid: GridSpec
    times: list
    snapshots: list          # rho fields at `times`
    final_state: np.ndarray
    diagnostics: dict = field(default_factory=dict)


def run_kinetic(
    system,
    grid: GridSpec,
    rho0: np.ndarray,
    cfg: SolverConfig,
    bc: str = "thermal",
    output_times=(),
) -> KineticRunResult:
    """Advance to t_end with a fixed step below the two-dimensional CFL bound.

    dt = cfl * _CFL_2D_FACTOR * min(dx, dy) / C, rounded down so the steps
    tile [0, t_end] exactly.
    """
    U = system.initial_state(np.asarray(rho0, dtype=float))
    dt_target = cfg.cfl * _CFL_2D_FACTOR * min(grid.dx, grid.dy) / system.wave_speed
    nsteps = max(1, math.ceil(cfg.t_end / dt_target - 1e-12))
    dt = cfg.t_end / nsteps
    propagator = None
    if system.source_matrix is not None:
        propagator = source_propagator(system, 0.5 * dt, U.shape[:-1])
    diag = new_diagnostics()
    diag["dt"] = dt
    diag["nsteps"] = nsteps
    diag["mass_initial"] = float(U[..., 0].sum()) * grid.cell_area

    want = sorted(set(min(nsteps, max(1, round(t / dt))) for t in output_times if t > 0))
    times, snapshots = [], []
    if any(t <= 0 for t in output_times):
        times.append(0.0)
        snapshots.append(U[..., 0].copy())
    chord_cache: dict = {}
    for step in range(1, nsteps + 1):
        U = strang_step(U, dt, system, grid, cfg, diag, bc, propagator, chord_cache)
        if not np.isfinite(U).all():
            _raise_nonfinite(U, step, step * dt)
        if want and step == want[0]:
            times.append(step * dt)
            snapshots.append(U[..., 0].copy())
            want.pop(0)
    diag["mass_final"] = float(U[..., 0].sum()) * grid.cell_area
    denom = max(abs(diag["mass_initial"]), 1e-300)
    diag["mass_drift_rel"] = abs(
        diag["mass_final"] - diag["mass_initial"] + diag["mass_flux_out"]
    ) / denom
    diag["closure_fallbacks"] = system.fallback_count
    rho = U[..., 0]
    diag["min_rho"] = float(rho.min())
    qn = row_norm(U[..., 1:4])
    diag["max_qhat"] = float(np.max(qn / np.maximum(rho, 1e-300)))
    return KineticRunResult(
        grid=grid, times=times, snapshots=snapshots, final_state=U, diagnostics=diag
    )
