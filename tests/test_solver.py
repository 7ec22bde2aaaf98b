"""Finite-volume scheme: reconstruction, limiting, DG source, splitting, BCs."""

import math
import re
from types import SimpleNamespace

import numpy as np
import pytest

from moment_glioma import solver
from moment_glioma.config import RunConfig
from moment_glioma.grid import GridSpec
from moment_glioma.kinetic import ScalingParams, anchor_nodes_for
from moment_glioma.quadrature import build_quadrature
from moment_glioma.reconstruct import group_characteristic_slopes, vector_weno_slope, weno2_slope
from moment_glioma.scenarios import build_fiber_strand_scenario
from moment_glioma.solver import (
    SolverError,
    _DG_M,
    _flux_divergence,
    _require_realizable,
    dg_linear_propagator,
    dg_source_step,
    flux_step,
    new_diagnostics,
    realizability_summary,
    run_kinetic,
    source_propagator,
)
from moment_glioma.systems import (
    REALIZABILITY_FLOOR,
    _limit_theta_pair,
    _realizable_theta,
    build_system,
    first_order_realizable,
    flux_work,
)
from moment_glioma.tissue import WaterTensorField, derive_tissue_fields, synth_fiber_strand

from cell_oracles import fd_jacobian, lax_friedrichs_flux, realizability_limit, strang_step
from golden_cases import strand_kinetic_scenario
from linear_relaxation import LinearRelaxationSystem, exact_solution


@pytest.fixture(scope="module")
def quad():
    return build_quadrature(10)


def fiber_strand_params(eps, X=3.0, T=2.0):
    lam0 = 1.0 / (eps**2 * T)
    return ScalingParams(
        t0=T, c=X / (eps * T), lambda0=lam0, lambda1=lam0, kplus=lam0, kminus=lam0, x0=X
    )


def strand_system(kind="K1F", eps=0.5, n=16, X=3.0):
    params = fiber_strand_params(eps, X=X)
    grid = GridSpec(nx=n, ny=n, dx=1.0 / n, dy=1.0 / n)
    water = synth_fiber_strand(X, 0.1, GridSpec(nx=n, ny=n, dx=X / n, dy=X / n))
    water = WaterTensorField(grid=grid, tensors=water.tensors)
    tissue = derive_tissue_fields(water, "FA", params)
    return build_system(kind, tissue, params), grid, params


def homogeneous_system(eps=0.5, n=12):
    params = fiber_strand_params(eps)
    grid = GridSpec(nx=n, ny=n, dx=1.0 / n, dy=1.0 / n)
    tensors = np.broadcast_to(np.eye(3), (n, n, 3, 3)).copy()
    water = WaterTensorField(grid, tensors)
    tissue = derive_tissue_fields(water, "FA", params)
    return build_system("K1F", tissue, params), grid, params


# ---------------------------------------------------------------------------
# WENO2 and LF
# ---------------------------------------------------------------------------

def test_weno2_values():
    assert weno2_slope(0.7, 0.7, 0.01) == pytest.approx(0.7, rel=1e-14)
    # slope collapses at a discontinuity
    assert weno2_slope(1.0, 0.0, 0.01) == pytest.approx(1.0e-8, rel=2e-3)
    # exact antisymmetry
    for dm, dp in [(1.3, -0.4), (0.0, 2.0), (-1.0, -2.0)]:
        assert weno2_slope(-dp, -dm, 0.05) == -weno2_slope(dm, dp, 0.05)


def test_weno2_vectorized():
    dm = np.array([1.0, 0.5, -0.2])
    dp = np.array([0.0, 0.5, -0.2])
    out = weno2_slope(dm, dp, 0.01)
    assert out.shape == (3,)
    assert out[1] == pytest.approx(0.5)


def test_lax_friedrichs():
    f = lambda u: u
    assert lax_friedrichs_flux(np.array([1.0]), np.array([1.0]), f, 1.0) == pytest.approx(1.0)
    zero = lambda u: 0.0 * u
    assert lax_friedrichs_flux(np.array([1.0]), np.array([0.0]), zero, 2.0) == pytest.approx(1.0)
    assert lax_friedrichs_flux(np.array([1.0]), np.array([0.0]), f, 1.0) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# realizability limiter
# ---------------------------------------------------------------------------

def test_realizability_limit_cases():
    mean = np.array([1.0, 0.0, 0.0, 0.0])
    ok = np.array([1.0, 0.5, 0.0, 0.0])
    out = realizability_limit(mean, ok)
    assert np.allclose(out, ok)
    # face beyond |q| = rho: theta* = 0.5 puts it on the boundary
    face = np.array([1.0, 2.0, 0.0, 0.0])
    out = realizability_limit(mean, face)
    assert out[1] == pytest.approx(1.0, abs=1e-9)
    assert out[1] <= out[0]
    # negative density face gets pulled back above the floor
    neg = np.array([-0.5, 0.0, 0.0, 0.0])
    out = realizability_limit(mean, neg)
    assert out[0] >= 1e-12 * (1 - 1e-9)
    with pytest.raises(SolverError):
        realizability_limit(np.array([1.0, 2.0, 0, 0]), ok)


def realizable(U):
    """The limiter's predicate on the rows U (as component planes U.T)."""
    return first_order_realizable(U.T)


def bisection_theta_pair(U, f_lo, f_hi, iters=40):
    """Oracle: bisection for the largest common theta (the scheme's old limiter)."""
    ok = realizable(f_lo) & realizable(f_hi)
    lo, hi = np.where(ok, 1.0, 0.0), np.ones(U.shape[:-1])
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        good = realizable(U + mid[:, None] * (f_lo - U)) & (
            realizable(U + mid[:, None] * (f_hi - U))
        )
        lo = np.where(ok | ~good, lo, mid)
        hi = np.where(ok | good, hi, mid)
    return lo


LIMITER_KINDS = (
    "negative rho", "|q| > rho", "rho below floor", "face on the boundary",
    "mean on the boundary",
)


def limiter_case(kind, n=600, seed=20100115):
    """Realizable means and high faces of one kind the limiter must handle."""
    rng = np.random.default_rng(seed)

    def moments(rho, r):
        v = rng.normal(size=(len(rho), 3))
        v *= (r * rho / np.linalg.norm(v, axis=-1))[:, None]
        return np.concatenate([rho[:, None], v], axis=1)

    rho = 10.0 ** rng.uniform(-10, 0, n)
    means = moments(rho, rng.uniform(0.0, 0.99, n))
    if kind == "mean on the boundary":
        means = moments(rho, np.ones(n))
        # pull the rounded ones back a few ulps so the predicate holds
        out = np.linalg.norm(means[:, 1:], axis=-1) > means[:, 0]
        means[out, 1:] *= 1.0 - 1e-15
    scale = rho * rng.uniform(0.1, 3.0, n)
    face = {
        "negative rho": lambda: moments(-scale, rng.uniform(0.0, 2.0, n)),
        "|q| > rho": lambda: moments(scale, rng.uniform(1.01, 3.0, n)),
        "rho below floor": lambda: moments(REALIZABILITY_FLOOR * rng.uniform(0.0, 1.0, n),
                                           rng.uniform(0.0, 0.9, n)),
        "face on the boundary": lambda: moments(scale, np.ones(n)),
        "mean on the boundary": lambda: moments(scale, rng.uniform(0.0, 3.0, n)),
    }[kind]()
    return means, face


@pytest.mark.parametrize("kind", LIMITER_KINDS)
def test_closed_form_limiter_matches_bisection(kind):
    means, f_hi = limiter_case(kind)
    f_lo = 2.0 * means - f_hi  # the scheme's faces are U -+ h/2 slope
    assert realizable(means).all()
    bad, theta_bad = _limit_theta_pair(means.T, np.stack((f_lo.T, f_hi.T)))
    theta = np.ones(len(means))
    theta[bad] = theta_bad
    oracle = bisection_theta_pair(means, f_lo, f_hi)
    flagged = ~(realizable(f_lo) & realizable(f_hi))
    assert np.array_equal(bad, np.flatnonzero(flagged)) and theta_bad.size == bad.size > 0
    np.testing.assert_allclose(theta, oracle, rtol=0.0, atol=1e-12)
    limited = SimpleNamespace(limit_realizability=True)
    for faces in (f_lo, f_hi):
        _require_realizable(means + theta[:, None] * (faces - means), limited, "limiter")


def test_limiter_zero_when_segment_misses_the_set():
    # a mean just past |q| = rho with a face whose segment never enters the
    # cone (negative discriminant), and a mean below the floor
    mean = np.array([[1.0, 1.0 + 1e-9, 0.0, 0.0], [0.5 * REALIZABILITY_FLOOR, 0.0, 0.0, 0.0]])
    face = np.array([[1.0 + 1e-6, 1.0 + 1e-9, 1.0, 0.0], [1.0, 0.0, 0.0, 0.0]])
    assert np.all(_realizable_theta(mean.T, face.T) == 0.0)
    # a boundary mean moving outward stays at the mean
    mean = np.array([1.0, 0.6, 0.8, 0.0])
    assert _realizable_theta(mean, mean + np.array([0.0, 0.3, 0.4, 0.0])) == 0.0


# ---------------------------------------------------------------------------
# characteristic reconstruction
# ---------------------------------------------------------------------------

def characteristic_reconstruct(u_left, u_center, u_right, axis, system, cell):
    """Face values of one cell from its two neighbors, and whether it blended.

    Runs the system's characteristic limiting on a grid that is zero
    except at `cell`; returns (u at low face, u at high face, used_fallback).
    """
    iy, ix = cell
    grid = system.tissue.grid
    h = grid.dx if axis == 0 else grid.dy
    U = np.zeros(system.tissue.lamH.shape + (system.nvars,))
    U[iy, ix] = u_center
    data = system.char_data(U)
    # the first-order kernels take both axes' component planes, (nvars, 2, ny, nx)
    d_minus = np.zeros((system.nvars, 2) + U.shape[:-1])
    d_plus = np.zeros_like(d_minus)
    d_minus[:, axis, iy, ix] = (u_center - u_left) / h
    d_plus[:, axis, iy, ix] = (u_right - u_center) / h
    slope = system.char_slopes(data, d_minus, d_plus, (grid.dx, grid.dy))[0][:, axis, iy, ix]
    fb = bool(data["gamma"][axis, iy, ix] < 1.0)
    return u_center - 0.5 * h * slope, u_center + 0.5 * h * slope, fb


def test_characteristic_reconstruct_constant_and_linear():
    system, grid, params = strand_system(n=16)
    # moderate |qhat| keeps the four wave speeds separated: fully
    # characteristic reconstruction (no componentwise blending)
    u = np.array([1.0, 0.45, -0.3, 0.1])
    lo, hi, fb = characteristic_reconstruct(u, u, u, 0, system, cell=(8, 8))
    assert not fb
    assert np.allclose(lo, u, atol=1e-13) and np.allclose(hi, u, atol=1e-13)
    # linear data: equal one-sided slopes are reproduced exactly
    du = np.array([0.01, 0.002, 0.0, 0.0])
    lo, hi, fb = characteristic_reconstruct(u - du, u, u + du, 0, system, cell=(8, 8))
    assert np.allclose(hi - lo, du, atol=1e-12)
    assert np.allclose(0.5 * (hi + lo), u, atol=1e-13)
    # near-equal wave speeds (small |qhat|): the double wave family is
    # limited through its spectral projection, no fallback needed
    u2 = np.array([1.0, 1e-6, 0.0, 0.0])
    lo, hi, fb = characteristic_reconstruct(u2 - du, u2, u2 + du, 0, system, cell=(8, 8))
    assert not fb
    assert np.allclose(hi - lo, du, atol=1e-12)  # exact on linear data


def test_characteristic_reconstruct_degenerate_falls_back():
    system, grid, params = strand_system(n=16)
    # |qhat| = 1 along an in-plane eigenvector of DF (strand is diagonal),
    # reconstructing in y: the Theorem-degenerate configuration
    u = np.array([1.0, 1.0, 0.0, 0.0])
    lo, hi, fb = characteristic_reconstruct(
        u, u, np.array([1.0, 0.8, 0.0, 0.0]), 1, system, cell=(8, 8)
    )
    assert fb


def test_group_slopes_of_a_single_merged_group_are_the_vector_slope():
    # all four speeds within the merge window: one group, whose projector
    # is the identity on every cell (M1F's cells without a dual get such data)
    rng = np.random.default_rng(3)
    dm, dp = rng.normal(size=(2, 5, 4))
    eye = np.broadcast_to(np.eye(4), (5, 4, 4))
    slope = group_characteristic_slopes(np.zeros((5, 4)), eye, eye, dm, dp, 0.1)
    assert np.array_equal(slope, vector_weno_slope(dm.T, dp.T, 0.1).T)


@pytest.mark.parametrize("bc", ["thermal", "periodic"])
@pytest.mark.parametrize("axis", [0, 1])
def test_reconstruct_axis_matches_per_cell_characteristic_oracle(quad, axis, bc):
    # P3F: 16 variables limited one by one in the frozen basis of A[axis];
    # the face fluxes must be A_d = solve(G, B_d)^T / eps times the faces
    n = 8
    system, grid, params = strand_system(kind="P3F", eps=0.5, n=n)
    rng = np.random.default_rng(11)
    U = system.initial_state(1.0 + rng.random((n, n)))
    U += 0.05 * rng.normal(size=U.shape)
    diag = new_diagnostics()
    char = system.char_data(U)
    # a NaN-filled work buffer: every entry the faces read must be written
    cols = flux_work(U)
    cols[...] = np.nan
    # copies of this axis' faces: the Lax-Friedrichs flux overwrites them
    faces, recorded = system.faces, []

    def recording_faces(*args):
        out = faces(*args)
        recorded.append([a[axis].copy() for a in out[:4]])
        return out

    system.faces = recording_faces
    _flux_divergence(U, system, diag, bc, char, cols)
    (f_lo, f_hi, F_lo, F_hi), = recorded
    assert diag["char_fallback_cells"] == 0 and diag["limiter_activations"] == 0

    RT, RinvT = char[1][axis], char[2][axis]
    ared = system.basis.evaluate_reduced(quad.nodes)
    wF = quad.weights * anchor_nodes_for(system.tissue.tensors, quad.nodes, False)
    G = np.einsum("yxn,nk,nj->yxkj", wF, ared, ared)
    B = np.einsum("yxn,nk,nj->yxkj", wF * quad.nodes[:, axis], ared, ared)
    A = np.swapaxes(np.linalg.solve(G, B), -1, -2) / params.eps
    h = grid.dx if axis == 0 else grid.dy
    step = np.array([0, 1]) if axis == 0 else np.array([1, 0])  # (iy, ix) offset
    scale = np.max(np.abs(U))
    for iy in range(n):
        for ix in range(n):
            cell = np.array([iy, ix])
            lo, hi = cell - step, cell + step
            if bc == "periodic":
                lo, hi = lo % n, hi % n
            # thermal edges have no outer neighbor: that difference is zero
            u_lo = U[tuple(lo)] if lo.min() >= 0 else U[iy, ix]
            u_hi = U[tuple(hi)] if hi.max() < n else U[iy, ix]
            w_minus = np.einsum("ji,j->i", RinvT[iy, ix], (U[iy, ix] - u_lo) / h)
            w_plus = np.einsum("ji,j->i", RinvT[iy, ix], (u_hi - U[iy, ix]) / h)
            slope = np.einsum("ji,j->i", RT[iy, ix], weno2_slope(w_minus, w_plus, h))
            face_lo = U[iy, ix] - 0.5 * h * slope
            face_hi = U[iy, ix] + 0.5 * h * slope
            assert np.max(np.abs(f_lo[iy, ix] - face_lo)) <= 1e-13 * scale
            assert np.max(np.abs(f_hi[iy, ix] - face_hi)) <= 1e-13 * scale
            assert np.max(np.abs(F_lo[iy, ix] - A[iy, ix] @ face_lo)) <= 1e-13 * scale
            assert np.max(np.abs(F_hi[iy, ix] - A[iy, ix] @ face_hi)) <= 1e-13 * scale


# ---------------------------------------------------------------------------
# DG source integrator
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("t_end", [float("nan"), float("inf"), 0.0])
def test_run_kinetic_rejects_bad_t_end_by_name(t_end):
    system, _, _ = strand_system(n=4)
    with pytest.raises(SolverError, match="t_end"):
        run_kinetic(system, np.ones((4, 4)), t_end)


@pytest.mark.parametrize("shape", [(1, 8), (8,), ()])
@pytest.mark.parametrize("kind", ["K1F", "P1"])
def test_run_kinetic_rejects_a_rho0_off_the_grid(kind, shape):
    # numpy would broadcast it over the grid (P1) or fail on it mid-setup (K1F)
    system, _, _ = strand_system(kind, eps=0.5, n=8)
    with pytest.raises(SolverError, match=rf"rho0 has shape {re.escape(str(shape))}, "
                       r"the grid needs \(8, 8\)"):
        run_kinetic(system, np.ones(shape), 0.001)


def zero_jacobian(u):
    return np.zeros(u.shape + u.shape[-1:])


def test_dg_zero_and_constant_sources():
    u0 = np.array([[1.0, -2.0]])
    out = dg_source_step(u0, 0.3, lambda u: 0.0 * u, zero_jacobian, {})
    assert np.allclose(out, u0, atol=1e-14)
    c = np.array([0.7, -0.1])
    out = dg_source_step(u0, 0.3, lambda u: np.broadcast_to(c, u.shape), zero_jacobian, {})
    assert np.allclose(out, u0 + 0.3 * c, atol=1e-13)


def test_dg_exponential_order(monkeypatch):
    monkeypatch.setattr(solver, "_DG_NEWTON_TOL", 1e-13)
    errs = []
    dts = [0.5, 0.25, 0.125, 0.0625]
    for dt in dts:
        u = np.array([1.0])
        t = 0.0
        while t < 0.5 - 1e-12:
            u = dg_source_step(u, dt, lambda v: -v, lambda v: -np.eye(1), {})
            t += dt
        errs.append(abs(u[0] - np.exp(-0.5)))
    slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
    assert slope >= 4.0


def test_dg_linear_propagator_matches_newton(monkeypatch):
    monkeypatch.setattr(solver, "_DG_NEWTON_TOL", 1e-13)
    S = np.array([[[-1.0, 0.3], [0.0, -2.0]]])
    u0 = np.array([[1.0, 0.5]])
    direct = np.einsum("...ij,...j->...i", dg_linear_propagator(S, 0.4), u0)
    newt = dg_source_step(
        u0, 0.4, lambda u: np.einsum("...ij,...j->...i", S, u), lambda u: S, {}
    )
    assert np.allclose(direct, newt, atol=1e-11)


#: mass matrix of the quadratic nodal basis: integral of phi_i phi_j on [-1, 1]
_DG_B = np.array([[4.0, 2.0, -1.0], [2.0, 16.0, 2.0], [-1.0, 2.0, 4.0]]) / 15.0


def block_inverse_propagator(S, dt):
    """Right-endpoint block of the inverse of the 3m x 3m DG system matrix.

    The system matrix is kron(M, I) - (dt/2) kron(B, S); its (2, 0) block
    of the inverse maps u_old (entering through the upwind term on node 0)
    to the value at the right node.
    """
    m = S.shape[-1]
    lead = S.shape[:-2]
    big = np.zeros(lead + (3, m, 3, m))
    for i in range(3):
        for j in range(3):
            big[..., i, :, j, :] = _DG_M[i, j] * np.eye(m) - 0.5 * dt * _DG_B[i, j] * S
    inv = np.linalg.inv(big.reshape(lead + (3 * m, 3 * m)))
    return inv[..., 2 * m:, :m]


def assert_propagators_agree(S, dt, rtol):
    ref = block_inverse_propagator(S, dt)
    got = dg_linear_propagator(S, dt)
    err = np.max(np.abs(got - ref), axis=(-2, -1)) / np.max(np.abs(ref), axis=(-2, -1))
    assert np.max(err) <= rtol, (dt, np.max(err))


def test_dg_linear_propagator_matches_block_inverse_on_random_stable_sources():
    # non-normal S with spectrum in [-1, 0), scaled to unit infinity norm;
    # dt spans non-stiff to dt |S| = 10
    rng = np.random.default_rng(7)
    m = 16
    lam = -rng.uniform(0.0, 1.0, size=(64, m))
    V = np.eye(m) + 0.3 * rng.normal(size=(64, m, m))
    S = V @ (lam[..., None] * np.linalg.inv(V))
    S /= np.max(np.abs(S).sum(axis=-1), axis=-1)[:, None, None]
    for dt in (1e-4, 1e-2, 0.1, 1.0, 3.0, 10.0):
        assert_propagators_agree(S, dt, 1e-13)


def test_dg_linear_propagator_matches_block_inverse_on_strand_p3f_sources():
    # the strand-p3f benchmark run: 40x40 strand, eps 0.25, its half step
    cfg = RunConfig(eps=0.25, nx=40, ny=40, model="P3F", times=(0.5,))
    sc = build_fiber_strand_scenario(cfg.eps, config=cfg)
    system = build_system(sc.model, sc.tissue(), sc.params)
    dt_max = solver._CFL * sc.grid.dx / system.wave_speed
    dt = sc.t_end / math.ceil(sc.t_end / dt_max - 1e-12)
    assert_propagators_agree(system.source_matrix(slice(None)), 0.5 * dt, 1e-13)


def test_dg_newton_divergence_reports_history(monkeypatch):
    monkeypatch.setattr(solver, "_DG_NEWTON_MAXIT", 3)
    # strongly nonlinear blow-up source defeats three Newton iterations
    def source(u):
        return u * u * 50.0

    with pytest.raises(SolverError, match="residual history"):
        dg_source_step(np.array([1.0]), 5.0, source, lambda u: fd_jacobian(source, u), {})


def test_dg_newton_stops_at_a_nonfinite_residual_and_names_the_cell():
    u = np.full((2, 3, 2), 0.5)
    u[1, 2, 1] = np.nan
    with pytest.raises(SolverError) as err:
        dg_source_step(
            u, 0.1, lambda v: -v, lambda v: np.broadcast_to(-np.eye(2), v.shape + (2,)), {}
        )
    msg = str(err.value)
    assert "non-finite residual; largest residual at cell (ix=2, iy=1)" in msg
    assert msg.endswith("residual history ['nan']")


# ---------------------------------------------------------------------------
# flux step
# ---------------------------------------------------------------------------

def test_flux_step_zero_field():
    system = LinearRelaxationSystem(8)
    U = np.zeros((8, 8, 3))
    out = flux_step(U, 0.01, system, new_diagnostics(), flux_work(U), bc="periodic")
    assert np.allclose(out, 0.0, atol=1e-15)


def test_flux_step_constant_state_periodic():
    system, grid, params = homogeneous_system()
    U = system.initial_state(np.full((12, 12), 0.7))
    dt = 0.8 * solver._CFL * grid.dx / system.wave_speed
    out = flux_step(U, dt, system, new_diagnostics(), flux_work(U), bc="periodic")
    assert np.max(np.abs(out - U)) < 1e-13


def test_flux_step_cfl_guard():
    system, grid, params = strand_system()
    U = system.initial_state(np.full((16, 16), 1.0))
    with pytest.raises(SolverError, match="CFL"):
        flux_step(U, 10.0, system, new_diagnostics(), flux_work(U))


def test_flux_step_cfl_guard_is_the_unsplit_bound():
    # the bound run_kinetic steps under, 0.25 min(dx, dy) / C, and not twice it
    system, grid, params = strand_system()
    U = system.initial_state(np.full((16, 16), 1.0))
    dt = 0.3 * min(grid.dx, grid.dy) / system.wave_speed
    with pytest.raises(SolverError, match="exceeds the CFL bound"):
        flux_step(U, dt, system, new_diagnostics(), flux_work(U))
    dt = 0.25 * min(grid.dx, grid.dy) / system.wave_speed
    flux_step(U, dt, system, new_diagnostics(), flux_work(U))


def test_flux_step_mass_audit_periodic():
    system = LinearRelaxationSystem(16)
    grid = system.tissue.grid
    X, Y = grid.cell_centers()
    U = exact_solution(0.0, X, Y, a=1.0, kappa=1.0)
    diag = new_diagnostics()
    dt = 0.2 * grid.dx
    out = flux_step(U, dt, system, diag, flux_work(U), bc="periodic")
    mass0 = U[..., 0].sum() * grid.cell_area
    mass1 = out[..., 0].sum() * grid.cell_area
    assert abs(mass1 - mass0) < 1e-12 * abs(mass0)
    assert abs(diag["mass_balance_residual"]) < 1e-12 * abs(mass0)


def test_flux_step_mass_audit_thermal():
    system, grid, params = strand_system(eps=0.5, n=16)
    rho0 = np.full((16, 16), 1e-2)
    rho0[7:9, 7:9] = 1.0
    U = system.initial_state(rho0)
    diag = new_diagnostics()
    dt = 0.4 * solver._CFL * grid.dx / system.wave_speed
    out = flux_step(U, dt, system, diag, flux_work(U))
    mass0 = U[..., 0].sum() * grid.cell_area
    mass1 = out[..., 0].sum() * grid.cell_area
    # thermal boundaries re-emit absorbed mass: global mass exactly conserved
    assert abs(mass1 - mass0) < 1e-13 * abs(mass0)
    assert diag["mass_flux_out"] == pytest.approx(0.0, abs=1e-16)


# ---------------------------------------------------------------------------
# thermal boundary flux
# ---------------------------------------------------------------------------

def thermal_boundary_flux(u_interior, n, system, edge_index: int = 0):
    """Thermal flux vector at one boundary cell (outward direction).

    `n` must be an outward axis normal (+-e1 or +-e2); the anchor at the
    addressed boundary cell is the one the system was built with.
    """
    n = np.asarray(n, dtype=float)
    sides = {(-1, 0): "left", (1, 0): "right", (0, -1): "bottom", (0, 1): "top"}
    key = (int(round(n[0])), int(round(n[1])))
    if key not in sides or abs(np.linalg.norm(n) - 1) > 1e-12:
        raise SolverError(f"thermal boundary normal must be an axis unit vector, got {n}")
    side = sides[key]
    shape = system.tissue.lamH.shape
    ne = shape[0] if side in ("left", "right") else shape[1]
    U_edge = np.zeros((ne, system.nvars))
    U_edge[edge_index] = u_interior
    return system.boundary_flux(side, U_edge)[edge_index]


def test_thermal_flux_isotropic_equals_pressure():
    # isotropic interior state against the wall: zero mass flux and the
    # momentum flux equals the equilibrium pressure column P n = rho n / 3
    system, grid, params = homogeneous_system()
    u = np.array([1.0, 0.0, 0.0, 0.0])
    for n, comp in [((1, 0, 0), 0), ((-1, 0, 0), 0), ((0, 1, 0), 1), ((0, -1, 0), 1)]:
        f = thermal_boundary_flux(u, np.array(n, dtype=float), system, edge_index=3)
        assert f[0] == 0.0
        expect = np.zeros(3)
        expect[comp] = n[comp] / 3.0
        assert np.allclose(f[1:], np.asarray(n, dtype=float) / 3.0 / params.eps, atol=1e-10)


def test_thermal_flux_zero_state():
    system, grid, params = strand_system()
    f = thermal_boundary_flux(np.zeros(4), np.array([1.0, 0, 0]), system)
    assert np.allclose(f, 0.0, atol=1e-15)


def test_thermal_flux_rejects_oblique_normal():
    system, grid, params = strand_system()
    with pytest.raises(SolverError):
        thermal_boundary_flux(np.zeros(4), np.array([0.6, 0.8, 0.0]), system)


# ---------------------------------------------------------------------------
# Strang splitting
# ---------------------------------------------------------------------------

def test_strang_equals_flux_when_source_off():
    system = LinearRelaxationSystem(12, kappa=0.0)
    grid = system.tissue.grid
    X, Y = grid.cell_centers()
    U = exact_solution(0.0, X, Y, a=1.0, kappa=0.0)
    dt = 0.2 * grid.dx
    a = strang_step(U.copy(), dt, system, bc="periodic")
    b = flux_step(U.copy(), dt, system, new_diagnostics(), flux_work(U), bc="periodic")
    assert np.max(np.abs(a - b)) < 1e-13


def test_strang_equals_source_on_constant_field():
    system = LinearRelaxationSystem(8, kappa=2.0)
    U = np.tile(np.array([1.0, 0.3, -0.1]), (8, 8, 1))
    dt = 0.1 * system.tissue.grid.dx
    out = strang_step(U.copy(), dt, system, bc="periodic")
    prop = dg_linear_propagator(system.source_matrix(), 0.5 * dt)
    expect = np.einsum("...ij,...j->...i", prop, np.einsum("...ij,...j->...i", prop, U))
    assert np.max(np.abs(out - expect)) < 1e-12


def test_strang_linear_relaxation_convergence():
    errs = []
    ns = [16, 32]
    for n in ns:
        system = LinearRelaxationSystem(n)
        grid = system.tissue.grid
        X, Y = grid.cell_centers()
        U = exact_solution(0.0, X, Y, a=1.0, kappa=1.0)
        t_end = 0.25
        dt_target = 0.5 * 0.5 * grid.dx / system.wave_speed
        nsteps = int(np.ceil(t_end / dt_target))
        dt = t_end / nsteps
        for _ in range(nsteps):
            U = strang_step(U, dt, system, bc="periodic")
        exact = exact_solution(t_end, X, Y, a=1.0, kappa=1.0)
        errs.append(np.mean(np.abs(U[..., 0] - exact[..., 0])))
    order = np.log2(errs[0] / errs[1])
    assert order > 1.6


# ---------------------------------------------------------------------------
# run driver
# ---------------------------------------------------------------------------

def test_run_kinetic_conserves_and_stays_symmetric():
    system, grid, params = strand_system(eps=0.5, n=16)
    rho0 = np.full((16, 16), 1e-4)
    rho0[7:9, 7:9] = 1.0  # symmetric about the strand axis iy in {7, 8}
    res = run_kinetic(system, rho0, 0.05, output_times=(0.025, 0.05))
    d = res.diagnostics
    assert d["mass_drift_rel"] < 1e-12
    rho = res.final_state[..., 0]
    assert np.max(np.abs(rho - rho[::-1, :])) < 1e-12 * rho.max()
    assert d["min_rho"] > 0
    assert d["max_qhat"] <= 1 + 1e-12
    assert len(res.snapshots) == 2


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_run_kinetic_nonfinite_state_names_step_time_and_cell(monkeypatch):
    import moment_glioma.solver as solver

    # P1 has no realizability check, so only the finiteness guard sees this
    system, grid, _ = strand_system(kind="P1", eps=0.5, n=12)
    real = solver.flux_step
    calls = []

    def poisoned(U, *args, **kwargs):
        out = real(U, *args, **kwargs)
        calls.append(1)
        if len(calls) == 3:
            out[8, 5, 3] = np.nan
            out[10, 1, 0] = np.inf
        return out

    monkeypatch.setattr(solver, "flux_step", poisoned)
    rho0 = np.full((12, 12), 1e-4)
    rho0[5:7, 5:7] = 1.0
    with pytest.raises(SolverError, match=r"at step 3, t=.* cell \(ix=5, iy=8\)") as err:
        run_kinetic(system, rho0, 0.2)
    t = float(str(err.value).split("t=")[1].split(",")[0])
    dt = 0.2 / math.ceil(0.2 / (0.25 * (1.0 / 12) / system.wave_speed) - 1e-12)
    assert t == pytest.approx(3 * dt, rel=1e-12)


def test_run_kinetic_names_step_time_and_cell_of_a_failed_source_solve(monkeypatch):
    system, grid, _ = strand_system(eps=0.5, n=12)
    rho0 = np.full((12, 12), 1e-4)
    rho0[5:7, 5:7] = 1.0
    monkeypatch.setattr(solver, "_DG_NEWTON_MAXIT", 1)
    with pytest.raises(SolverError, match=r"did not converge in 1 iterations") as err:
        run_kinetic(system, rho0, 0.2)
    msg = str(err.value)
    assert msg.endswith("(at step 1, t=0.000000e+00)")
    ix, iy = (int(v) for v in msg.split("cell (ix=")[1].split(")")[0].split(", iy="))
    # from u_old at every node the residual is dt/2 times the nodal integrals
    # of the basis times s(u_old), largest at the midpoint node
    U0 = system.initial_state(rho0)
    r = np.max(np.abs(system.source(U0)), axis=-1) / np.maximum(1.0, np.max(np.abs(U0), axis=-1))
    assert r[iy, ix] >= r.max() * (1 - 1e-12)


def strang_loop(system, rho0, dt, nsteps, snapshot_step):
    """`run_kinetic`'s steps as `strang_step` calls: (final state, rho at
    `snapshot_step`, diagnostics)."""
    U = system.initial_state(rho0)
    propagator = None
    if system.source_matrix is not None:
        propagator = source_propagator(system, 0.5 * dt)
    diag, cache = new_diagnostics(), {}
    for step in range(1, nsteps + 1):
        U = strang_step(U, dt, system, diag, "thermal", propagator, cache)
        if step == snapshot_step:
            snapshot = U[..., 0].copy()
    return U, snapshot, diag


@pytest.mark.parametrize("name", ["K1F", "M1F", "P3F"])
def test_run_kinetic_matches_repeated_strang_steps(name, monkeypatch):
    # the golden strand runs, with an output time halfway. K1F merges the
    # abutting source half-steps into one solve, which agrees with two to the
    # Newton tolerance (tightened here); M1F and the linear closures keep two
    # half-steps, so their runs are the same arithmetic
    if name == "K1F":
        monkeypatch.setattr(solver, "_DG_NEWTON_TOL", 1e-13)
    sc = strand_kinetic_scenario(name)
    res = run_kinetic(
        build_system(sc.model, sc.tissue(), sc.params), sc.rho0, sc.t_end,
        output_times=(0.5 * sc.t_end, sc.t_end),
    )
    d = res.diagnostics
    mid = round(0.5 * sc.t_end / d["dt"])
    assert 1 < mid < d["nsteps"] and res.times[0] == mid * d["dt"]
    U, snapshot, diag = strang_loop(
        build_system(sc.model, sc.tissue(), sc.params), sc.rho0, d["dt"], d["nsteps"], mid
    )
    for key in ("steps", "limiter_activations", "char_fallback_cells"):
        assert d[key] == diag[key], key
    for got, want in ((res.final_state, U), (res.snapshots[0], snapshot)):
        if name == "K1F":
            assert np.max(np.abs(got - want)) <= 2e-9 * np.max(np.abs(want))
        else:
            assert np.array_equal(got, want)


def test_realizability_summary_skips_cells_below_the_floor():
    U = np.zeros((2, 3, 4))
    U[..., 0] = [[1.0, 2.0, 0.5], [1e-3, -0.25, 1e-14]]
    U[..., 1] = [[0.5, 1.0, 0.1], [5e-4, 0.2, 1e-10]]
    s = realizability_summary(U)
    assert s["min_rho"] == -0.25
    # rho = -0.25 and 1e-14 fail the floor test; their |q|/rho would be huge
    assert s["max_qhat"] == 0.5
    assert s["negative_mass_frac"] == pytest.approx(0.25 / 3.751, rel=1e-12)
    assert realizability_summary(-np.abs(U))["max_qhat"] is None
    assert realizability_summary(U[:1])["negative_mass_frac"] == 0.0
