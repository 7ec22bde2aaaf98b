"""Checks of the first-order step kernels against the forms they replaced.

`row_norm`, the node-major DG(2) Newton loop and the first-order faces (the
realizability limiter recomputes only the cells it flags) must give exactly
the bits of the earlier formulas, which live on here and in cell_oracles.py
as oracles. A later change that moves rounding on these paths fails here,
next to its cause, rather than in a golden run. The K1F slopes from the
closed-form wave families match those of the projector oracle built from
the assembled Jacobian to 1e-12 relative, with the same blended cells. The
first-order kernels on component planes match their row forms (the
`*_rows` oracles): bitwise for M1F, whose shared limiter, flux and source
body must keep its bits, and to 1e-13 relative for K1F's wave families,
slopes and faces, with the same active, blended and limited cells.
K1F's DG solve on momentum planes keeps rho bitwise and matches the rows
solve in q to 1e-13, with the same iterations and chord rebuilds.
"""

import numpy as np
import pytest

from moment_glioma import solver
from moment_glioma.closures import kershaw_pressure_batch
from moment_glioma.config import RunConfig
from moment_glioma.reconstruct import _WENO_THETA, _WENO_Z, canonical_eig, row_norm, weno2_slope
from moment_glioma.scenarios import build_fiber_strand_scenario
from moment_glioma.solver import SolverError, dg_momentum_step, dg_source_step, run_kinetic
from moment_glioma.systems import (
    REALIZABILITY_FLOOR,
    _limit_theta_pair,
    build_system,
    first_order_realizable,
)

from cell_oracles import (
    dg_source_step_cell_major,
    fd_jacobian,
    first_order_faces_rows,
    first_order_flux_rows,
    first_order_realizable_rows,
    first_order_source_rows,
    k1f_axis_char_data_rows,
    k1f_char_slopes_rows,
    k1f_projector_oracle,
    k1f_waves_rows,
    limit_theta_pair_rows,
    m1f_char_slopes_rows,
    planes,
    realizable_theta_rows,
    require_wide_long_double,
    rows,
)


# ---------------------------------------------------------------------------
# row_norm
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", range(1, 8))
def test_row_norm_is_numpy_norm_bitwise(n):
    rng = np.random.default_rng(100 + n)
    x = rng.standard_normal((40, 6, n)) * 10.0 ** rng.uniform(-150, 150, (40, 6, n))
    x[0] = 0.0                      # rows of exact zeros
    x[1, :, 0] = 0.0                # rows with a zero entry
    x[2, :, -1] = -0.0
    norm = np.linalg.norm
    assert np.array_equal(row_norm(x), norm(x, axis=-1))
    assert np.array_equal(row_norm(x[3, 2]), norm(x[3, 2], axis=-1))       # one row
    assert np.array_equal(row_norm(x[:, ::2]), norm(x[:, ::2], axis=-1))   # strided rows
    y = np.swapaxes(x, 0, -1)[..., :n]                                    # strided entries
    assert np.array_equal(row_norm(y), norm(y, axis=-1))
    # entries of one magnitude: every term moves the sum's last bits, so a
    # reassociated sum (einsum, pairwise) differs here on many rows
    z = rng.standard_normal((4000, n))
    for scale in (1e-150, 1.0, 1e150):
        assert np.array_equal(row_norm(z * scale), norm(z * scale, axis=-1))
        assert np.array_equal(row_norm(z[::3] * scale), norm(z[::3] * scale, axis=-1))


def test_row_norm_on_momentum_views_of_states():
    rng = np.random.default_rng(5)
    U = rng.standard_normal((2, 17, 13, 4)) * 10.0 ** rng.uniform(-150, 150, (2, 17, 13, 4))
    for q in (U[0, ..., 1:4], U[..., 1:4], U[:, 3, :, 1:4]):
        assert np.array_equal(row_norm(q), np.linalg.norm(q, axis=-1))


# ---------------------------------------------------------------------------
# DG(2) source step against the cell-major loop
# ---------------------------------------------------------------------------

def strand_run(model, eps, background, n, t_end):
    """A short strand run: (system, grid, final state, diagnostics)."""
    cfg = RunConfig(eps=eps, nx=n, ny=n, model=model, background=background, times=(t_end,))
    sc = build_fiber_strand_scenario(cfg.eps, config=cfg)
    system = build_system(sc.model, sc.tissue(), sc.params)
    res = run_kinetic(system, sc.rho0, sc.t_end)
    return system, sc.grid, res.final_state, res.diagnostics


@pytest.fixture(scope="module")
def k1f_run():
    # near-vacuum K1F, as in the benchmark: the limiter fires on the front
    return strand_run("K1F", 0.1, 1e-10, 24, 0.02)


@pytest.fixture(scope="module")
def m1f_run():
    return strand_run("M1F", 0.25, 1e-4, 12, 0.025)


def assert_same_two_steps(u0, dt, source, jacobian):
    """Two consecutive calls, carrying each side's chord cache, agree bitwise."""
    new, old = {}, {}
    u_new = u_old = u0
    for _ in range(2):
        u_new = dg_source_step(u_new, dt, source, jacobian, chord_cache=new)
        u_old = dg_source_step_cell_major(u_old, dt, source, jacobian, chord_cache=old)
        assert np.array_equal(u_new, u_old)
        assert new["inv"] is not None and np.array_equal(new["inv"], old["inv"])


@pytest.mark.parametrize("run", ["k1f_run", "m1f_run"])
def test_dg_source_step_matches_cell_major_loop_on_strand_sources(run, request):
    system, _, U, diag = request.getfixturevalue(run)
    assert_same_two_steps(U, 0.5 * diag["dt"], system.source, system.source_jacobian)


def test_dg_source_step_matches_cell_major_loop_on_a_linear_source():
    rng = np.random.default_rng(7)
    S = rng.normal(size=(5, 6, 4, 4)) - 3.0 * np.eye(4)
    u0 = rng.normal(size=(5, 6, 4))
    assert_same_two_steps(u0, 0.3, lambda u: np.einsum("...ij,...j->...i", S, u), lambda u: S)


def test_dg_source_step_matches_cell_major_loop_on_one_variable(monkeypatch):
    def fd(source):
        return lambda u: fd_jacobian(source, u)

    def decay(u):
        return -u * u

    def blow_up(u):
        return u * u * 50.0

    u0 = np.array([1.0])
    assert np.array_equal(
        dg_source_step(u0, 0.5, decay, fd(decay)),
        dg_source_step_cell_major(u0, 0.5, decay, fd(decay)),
    )
    # the divergent case of test_dg_newton_divergence_reports_history
    monkeypatch.setattr(solver, "_DG_NEWTON_MAXIT", 3)
    messages = []
    for step in (dg_source_step, dg_source_step_cell_major):
        with pytest.raises(SolverError) as err:
            step(u0, 5.0, blow_up, fd(blow_up))
        messages.append(str(err.value))
    assert messages[0] == messages[1]


def counted(fn, calls, key):
    """fn, counting its calls in calls[key]."""
    def call(*args):
        calls[key] = calls.get(key, 0) + 1
        return fn(*args)
    return call


@pytest.mark.parametrize("state", ["run", "rough"])
def test_dg_momentum_step_is_the_rows_solve_on_k1f(k1f_run, state, monkeypatch):
    # the near-vacuum strand run's front, and a rough state on which the
    # limiter fires: two consecutive solves, each side carrying its chord
    # cache, take the same iterations and chord rebuilds (three Gauss-state
    # source and Jacobian calls per iteration or rebuild on rows, one stacked
    # call on planes), keep rho bitwise and agree in q to rounding
    system, _, U, diag = k1f_run
    if state == "rough":
        U = rough_first_order_state(U.shape[:-1], 8)
    dt = 0.5 * diag["dt"]
    rows_cache, planes_cache = {}, {}
    u_rows = u_planes = U
    for _ in range(2):
        calls = {}
        u_rows = dg_source_step(
            u_rows, dt, counted(system.source, calls, "source"),
            counted(system.source_jacobian, calls, "jacobian"), chord_cache=rows_cache,
        )
        with monkeypatch.context() as m:
            m.setattr(system, "momentum_source", counted(system.momentum_source, calls, "stacked"))
            m.setattr(system, "source_jacobian", counted(system.source_jacobian, calls, "stacked J"))
            u_old, u_planes = u_planes, dg_momentum_step(u_planes, dt, system, planes_cache)
        assert calls["source"] == 3 * calls["stacked"] > 0
        assert calls.get("jacobian", 0) == 3 * calls.get("stacked J", 0)
        assert np.array_equal(u_planes[..., 0], u_old[..., 0])
        q = u_rows[..., 1:]
        assert np.max(np.abs(u_planes[..., 1:] - q)) <= 1e-13 * np.max(np.abs(q))
    assert rows_cache["dt"] == planes_cache["dt"] == dt


# ---------------------------------------------------------------------------
# first-order faces and K1F slopes against the full-recompute formulas
# ---------------------------------------------------------------------------

def difference_columns(U, axis, h):
    """[U, d-, d+] along `axis` as the solver lays them out, zero across
    the domain edges."""
    arr_ax = 1 - axis
    d = np.diff(U, axis=arr_ax) / h
    zero = np.zeros_like(np.take(U, [0], axis=arr_ax))
    return np.stack(
        [U, np.concatenate([zero, d], axis=arr_ax), np.concatenate([d, zero], axis=arr_ax)],
        axis=-2,
    )


def norm_weno_slope(a, b, h):
    """vector_weno_slope with np.linalg.norm, as it was written before row_norm."""
    pa = (_WENO_THETA + h * np.linalg.norm(a, axis=-1)) ** _WENO_Z
    pb = (_WENO_THETA + h * np.linalg.norm(b, axis=-1)) ** _WENO_Z
    return (pb[..., None] * a + pa[..., None] * b) / (pa + pb)[..., None]


def merged_then_overwritten_slopes(data, d_minus, d_plus, h):
    """K1F slopes from `k1f_projector_oracle` data: the merged family on
    every cell, overwritten by the dense projector blend on the active ones."""
    gamma = data["gamma"]
    slope = norm_weno_slope(d_minus, d_plus, h)
    if data["projs"] is not None:
        active, P_minus, P_mid, P_plus = data["projs"]
        dm, dp = d_minus[active], d_plus[active]
        s = np.zeros_like(dm)
        for P in (P_minus, P_mid, P_plus):
            a = np.einsum("cij,cj->ci", P, dm)
            b = np.einsum("cij,cj->ci", P, dp)
            s = s + norm_weno_slope(a, b, h)
        g = gamma[active][:, None]
        slope[active] = g * s + (1.0 - g) * slope[active]
    return slope, int(np.count_nonzero(gamma < 1.0))


def full_recompute_faces(system, data, axis, cols, h):
    """First-order faces as first written: theta on every cell (1 where the
    faces pass), then both faces recomputed everywhere, then the flux of
    each face set."""
    U, d_minus, d_plus = cols[..., 0, :], cols[..., 1, :], cols[..., 2, :]
    slope, n_blended = system.char_slopes(data, planes(d_minus), planes(d_plus), h)
    slope = rows(slope)
    f_lo = U - 0.5 * h * slope
    f_hi = U + 0.5 * h * slope

    def ok(f):
        rho = f[..., 0]
        return (rho >= REALIZABILITY_FLOOR) & (np.linalg.norm(f[..., 1:4], axis=-1) <= rho)

    bad = ~(ok(f_lo) & ok(f_hi))
    theta = np.ones(U.shape[:-1])
    if bad.any():
        Ub = U[bad]
        theta[bad] = np.minimum(
            realizable_theta_rows(Ub, f_lo[bad]), realizable_theta_rows(Ub, f_hi[bad])
        )
    n_limited = int(np.count_nonzero(bad))
    if n_limited:
        slope = slope * theta[..., None]
        f_lo = U - 0.5 * h * slope
        f_hi = U + 0.5 * h * slope
    F_lo, F_hi = (rows(system.flux(planes(f), axis)) for f in (f_lo, f_hi))
    return f_lo, f_hi, F_lo, F_hi, n_blended, n_limited


def assert_faces_match(system, U, h):
    cells = U.shape[0] * U.shape[1]
    for axis, data in enumerate(system.char_data(U)):
        cols = difference_columns(U, axis, h)
        got = system.faces(data, axis, cols, h)
        want = full_recompute_faces(system, data, axis, cols, h)
        assert got[4:] == want[4:]
        assert 0 < got[5] < cells  # the limiter acts on some cells, not all
        for a, b in zip(got[:4], want[:4]):
            assert np.array_equal(a, b)


def test_k1f_faces_match_the_full_recompute(k1f_run):
    system, grid, U, _ = k1f_run
    assert_faces_match(system, U, grid.dx)


def rough_first_order_state(shape, seed, rmax=0.95):
    """Realizable (rho, q) jumping over decades from cell to cell."""
    rng = np.random.default_rng(seed)
    rho = 10.0 ** rng.uniform(-6, 0, shape)
    v = rng.normal(size=shape + (3,))
    v *= (rng.uniform(0.0, rmax, shape) * rho / np.linalg.norm(v, axis=-1))[..., None]
    return np.concatenate([rho[..., None], v], axis=-1)


def test_m1f_faces_match_the_full_recompute(m1f_run):
    system, grid, U, _ = m1f_run
    assert_faces_match(system, rough_first_order_state(U.shape[:-1], 8), grid.dx)


def assert_slopes_match_the_oracle(system, U, axis, cols, h):
    """char_slopes on U's closed-form data against the projector oracle's
    slopes: 1e-12 relative, the same blended cells. Returns the data and
    that count.

    The oracle runs in long double: in the gamma ramp band its Newton
    identities lose about seven digits in float64 (5e-10 of max|slope| on
    the blend-path state, against a long-double closed form), while the
    closed form stays within 1e-12."""
    require_wide_long_double()
    data = system.char_data(U)[axis]
    ld = np.longdouble
    oracle = k1f_projector_oracle(U.astype(ld), system.tissue.DF.astype(ld), axis)
    slope, n_blended = system.char_slopes(data, planes(cols[..., 1, :]), planes(cols[..., 2, :]), h)
    want = merged_then_overwritten_slopes(
        oracle, cols[..., 1, :].astype(ld), cols[..., 2, :].astype(ld), h
    )
    assert n_blended == want[1]
    assert np.max(np.abs(rows(slope) - want[0])) <= 1e-12 * np.max(np.abs(want[0]))
    return data, n_blended


def test_k1f_slopes_match_on_the_all_active_path(k1f_run):
    system, grid, U, _ = k1f_run
    for axis in (0, 1):
        cols = difference_columns(U, axis, grid.dx)
        data, n_blended = assert_slopes_match_the_oracle(system, U, axis, cols, grid.dx)
        assert np.all(data["gamma"] == 1.0) and n_blended == 0


def blend_band_state(U, seed=12):
    """Realizable states with |qhat| just below 1 along x, shaped like U:
    the acoustic speed meets qhat.n there, so along x gamma ramps from 1
    to 0 over these cells. Returns the state and noisy differences of it."""
    rng = np.random.default_rng(seed)
    shape = U.shape[:-1]
    rho = 1.0 + rng.random(shape)
    r = 1.0 - 10.0 ** rng.uniform(-6, -2, shape)
    direction = np.array([1.0, 0.0, 0.0]) + 1e-3 * rng.normal(size=shape + (3,))
    direction /= np.linalg.norm(direction, axis=-1)[..., None]
    V = np.concatenate([rho[..., None], (r * rho)[..., None] * direction], axis=-1)
    return V, V + 0.01 * rng.normal(size=V.shape)


def test_k1f_slopes_match_on_the_blend_path(k1f_run):
    system, grid, U, _ = k1f_run
    V, noisy = blend_band_state(U)
    cols = difference_columns(noisy, 0, grid.dx)
    data, n_blended = assert_slopes_match_the_oracle(system, V, 0, cols, grid.dx)
    gamma = data["gamma"]
    assert (gamma == 0.0).any() and (gamma == 1.0).any()
    assert ((gamma > 0.0) & (gamma < 1.0)).any()
    assert n_blended == int(np.count_nonzero(gamma < 1.0))


# ---------------------------------------------------------------------------
# component-plane kernels against the row forms they replaced
# ---------------------------------------------------------------------------

def assert_close(got, want, rtol):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))


def assert_k1f_planes_match_the_rows(system, U, axis, cols, h):
    """K1F's plane data, slopes and faces against the row forms: 1e-13
    relative, with the same active and blend masks and counts. Returns
    (data, faces)."""
    data = system.char_data(U)[axis]
    want = k1f_axis_char_data_rows(system, U, axis)
    gamma = data["gamma"]
    assert np.array_equal(gamma >= 1.0, want["gamma"] >= 1.0)
    assert_close(gamma, want["gamma"], 1e-13)
    if want["waves"] is None:
        assert data["waves"] is None
    else:
        active, R, L, r_norm = k1f_waves_rows(data)
        assert np.array_equal(active, want["waves"][0])
        for a, b in zip((R, L, r_norm), want["waves"][1:]):
            assert_close(a, b, 1e-13)
    d_minus, d_plus = cols[..., 1, :], cols[..., 2, :]
    slope, n_blended = system.char_slopes(data, planes(d_minus), planes(d_plus), h)
    want_slope, want_blended = k1f_char_slopes_rows(want, d_minus, d_plus, h)
    assert n_blended == want_blended == int(np.count_nonzero(~(gamma >= 1.0)))
    assert_close(rows(slope), want_slope, 1e-13)
    faces = system.faces(data, axis, cols.copy(), h)
    want_faces = first_order_faces_rows(system, want, axis, cols, h)
    assert faces[4:] == want_faces[4:]
    for a, b in zip(faces[:4], want_faces[:4]):
        assert_close(a, b, 1e-13)
    return data, faces


def test_k1f_planes_match_the_rows_on_all_active_limited_states(k1f_run):
    # the strand run's front and a rough state: every cell active, the
    # limiter firing on some cells of each
    system, grid, U, _ = k1f_run
    cells = U.shape[0] * U.shape[1]
    for state in (U, rough_first_order_state(U.shape[:-1], 8)):
        for axis in (0, 1):
            cols = difference_columns(state, axis, grid.dx)
            data, faces = assert_k1f_planes_match_the_rows(system, state, axis, cols, grid.dx)
            assert data["waves"][0] == slice(None) and np.all(data["gamma"] == 1.0)
            assert 0 < faces[5] < cells


def test_k1f_planes_match_the_rows_on_the_blend_band(k1f_run):
    # partly active along both axes, with cells inside the ramp
    system, grid, U, _ = k1f_run
    V, noisy = blend_band_state(U)
    for axis in (0, 1):
        cols = difference_columns(noisy, axis, grid.dx)
        data, _ = assert_k1f_planes_match_the_rows(system, V, axis, cols, grid.dx)
        gamma = data["gamma"]
        assert (gamma == 0.0).any() and (gamma == 1.0).any()
        assert ((gamma > 0.0) & (gamma < 1.0)).any()


def test_k1f_planes_match_the_rows_without_active_cells(k1f_run):
    # |qhat| within 1e-9 of 1 along x: no cell has gamma > 0 there
    system, grid, U, _ = k1f_run
    V = np.zeros_like(U)
    V[..., 0] = 1.0 + np.arange(V[..., 0].size).reshape(V.shape[:-1]) / V[..., 0].size
    V[..., 1] = V[..., 0] * (1.0 - 1e-9)
    cols = difference_columns(V, 0, grid.dx)
    data, faces = assert_k1f_planes_match_the_rows(system, V, 0, cols, grid.dx)
    assert data["waves"] is None and faces[4] == V[..., 0].size


def test_m1f_limiter_flux_and_source_are_the_row_forms_bitwise(m1f_run):
    # |q|/rho up to 0.999 puts cells past the quadrature hull, where the
    # dual fails and Kershaw's pressure takes over; the characteristic data
    # comes from a state whose duals all converge, so the characteristic
    # slopes enter on every cell
    system, grid, U, _ = m1f_run
    cells = U.shape[0] * U.shape[1]
    V = rough_first_order_state(U.shape[:-1], 10, rmax=0.999)
    failed = system._closure(V)[-1]
    assert failed.any() and not failed.all()
    h = grid.dx
    for axis, data in enumerate(system.char_data(rough_first_order_state(U.shape[:-1], 8))):
        assert np.any(data[3] > 0.0)  # the characteristic slopes enter
        cols = difference_columns(V, axis, h)
        slope, n_blended = system.char_slopes(data, planes(cols[..., 1, :]), planes(cols[..., 2, :]), h)
        want_slope = m1f_char_slopes_rows(data, cols[..., 1, :], cols[..., 2, :], h)
        assert n_blended == want_slope[1] and np.array_equal(rows(slope), want_slope[0])
        f_lo, f_hi = V - 0.5 * h * want_slope[0], V + 0.5 * h * want_slope[0]
        for f in (f_lo, f_hi):
            assert np.array_equal(first_order_realizable(planes(f)), first_order_realizable_rows(f))
        bad, theta = _limit_theta_pair(planes(V), np.stack((planes(f_lo), planes(f_hi))))
        want_bad, want_theta = limit_theta_pair_rows(V, np.stack((f_lo, f_hi)))
        assert np.array_equal(bad, np.flatnonzero(want_bad)) and 0 < bad.size < cells
        assert np.array_equal(theta, want_theta)
        faces = system.faces(data, axis, cols.copy(), h)
        want = first_order_faces_rows(system, data, axis, cols, h)
        assert faces[4:] == want[4:]
        for a, b in zip(faces[:4], want[:4]):
            assert np.array_equal(a, b)
        assert np.array_equal(rows(system.flux(planes(V), axis)), first_order_flux_rows(system, V, axis))
    assert np.array_equal(system.source(V), first_order_source_rows(system, V))


# ---------------------------------------------------------------------------
# M1F characteristic data
# ---------------------------------------------------------------------------

def test_m1f_char_data_blends_the_cells_whose_dual_failed(m1f_run):
    # past the quadrature hull the dual fails and H is singular: those cells
    # get weight 0 and R = Rinv = I, so their slope is the componentwise one
    # and they count as blended; every other cell keeps the bits of its own
    # eigensystem (LAPACK solves and decomposes each matrix on its own)
    system, grid, U, _ = m1f_run
    V = rough_first_order_state(U.shape[:-1], 10, rmax=0.999)
    _, _, _, gmass, _, _, failed = system._closure(V)
    assert failed.any() and not failed.all()
    ok, m, eye = ~failed, system._m_nodes, np.eye(4)
    H = np.einsum("cn,nk,nj->ckj", gmass[ok], m, m)
    for axis, data in enumerate(system.char_data(V)):
        lam, R, Rinv, weight = (a.reshape((failed.size,) + a.shape[2:]) for a in data)
        assert np.all(weight[failed] == 0.0)
        assert np.all(R[failed] == eye) and np.all(Rinv[failed] == eye)
        T = np.einsum("cn,nk,nj->ckj", gmass[ok] * system._V[:, axis], m, m)
        J = np.swapaxes(np.linalg.solve(H, T), -1, -2) / system.params.eps
        for got, want in zip((lam, R, Rinv, weight), canonical_eig(J)):
            assert np.array_equal(got[ok], want)
        cols = difference_columns(V, axis, grid.dx)
        d_minus, d_plus = cols[..., 1, :], cols[..., 2, :]
        slope, n_blended = system.char_slopes(data, planes(d_minus), planes(d_plus), grid.dx)
        comp = weno2_slope(d_minus, d_plus, grid.dx).reshape(-1, 4)
        assert np.array_equal(rows(slope).reshape(-1, 4)[failed], comp[failed])
        assert n_blended == int(np.count_nonzero(weight < 1.0)) >= int(np.count_nonzero(failed))


def test_m1f_flux_moment_premultiplied_is_the_4_operand_form_bitwise(m1f_run):
    # char_data's T = <v_axis m m^T f> takes gmass * v_axis as one operand;
    # its eigensystems follow every bit of T
    system, _, U, _ = m1f_run
    m, V = system._m_nodes, system._V
    for state in (U, rough_first_order_state(U.shape[:-1], 9)):
        gmass = system._closure(state)[3]
        for axis in (0, 1):
            assert np.array_equal(
                np.einsum("cn,nk,nj->ckj", gmass * V[:, axis], m, m),
                np.einsum("cn,n,nk,nj->ckj", gmass, V[:, axis], m, m),
            )


def test_m1f_pressure_hooks_are_the_full_pressure_bitwise(m1f_run):
    # flux and source form only the columns of P they read, with V cut to
    # them; each entry is the full P's, Kershaw's where the dual failed, and
    # P gradQ3 from the x and y columns is the contraction over all three
    system, _, U, _ = m1f_run
    V, g3 = system._V, system.tissue.gradQ3
    DF = system.tissue.DF.reshape(-1, 3, 3)
    # |q|/rho up to 0.999 puts cells past the quadrature hull (0.946), where
    # the dual fails
    for state in (U, rough_first_order_state(U.shape[:-1], 9, rmax=0.999)):
        shape, rho, q, gmass, _, _, failed = system._closure(state)
        P = np.einsum("cn,ni,nj->cij", gmass, V, V)
        P[failed] = kershaw_pressure_batch(rho[failed], q[failed], DF[failed])
        P = P.reshape(shape + (3, 3))
        X = planes(state)
        for axis in (0, 1):
            assert np.array_equal(rows(system._pressure_column(X, axis)), P[..., :, axis])
        assert np.array_equal(
            rows(system._pressure_grad(X)), np.einsum("...ij,...j->...i", P, g3)
        )
    assert failed.any() and not failed.all()
