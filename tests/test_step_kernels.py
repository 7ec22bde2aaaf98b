"""Checks of the first-order step kernels against the forms they replaced.

`row_norm`, the node-major DG(2) Newton loop and the first-order faces (the
realizability limiter recomputes only the cells it flags) must give exactly
the bits of the earlier formulas, which live on here and in cell_oracles.py
as oracles. A later change that moves rounding on these paths fails here,
next to its cause, rather than in a golden run. The K1F slopes from the
closed-form wave families match those of the projector oracle built from
the assembled Jacobian to 1e-12 relative, with the same blended cells.
"""

import numpy as np
import pytest

from moment_glioma import solver
from moment_glioma.closures import kershaw_pressure_batch
from moment_glioma.config import RunConfig
from moment_glioma.reconstruct import _WENO_THETA, _WENO_Z, row_norm
from moment_glioma.scenarios import build_fiber_strand_scenario
from moment_glioma.solver import SolverError, dg_source_step, run_kinetic
from moment_glioma.systems import REALIZABILITY_FLOOR, _realizable_theta, build_system

from cell_oracles import dg_source_step_cell_major, fd_jacobian, k1f_projector_oracle


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
    faces pass), then both faces recomputed everywhere, then one flux call
    on the stacked faces."""
    U, d_minus, d_plus = cols[..., 0, :], cols[..., 1, :], cols[..., 2, :]
    slope, n_blended = system.char_slopes(data, d_minus, d_plus, h)
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
            _realizable_theta(Ub, f_lo[bad]), _realizable_theta(Ub, f_hi[bad])
        )
    n_limited = int(np.count_nonzero(bad))
    if n_limited:
        slope = slope * theta[..., None]
        f_lo = U - 0.5 * h * slope
        f_hi = U + 0.5 * h * slope
    F_lo, F_hi = system.flux(np.stack((f_lo, f_hi)), axis)
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
    data = system.char_data(U)[axis]
    ld = np.longdouble
    oracle = k1f_projector_oracle(U.astype(ld), system.tissue.DF.astype(ld), axis)
    got = system.char_slopes(data, cols[..., 1, :], cols[..., 2, :], h)
    want = merged_then_overwritten_slopes(
        oracle, cols[..., 1, :].astype(ld), cols[..., 2, :].astype(ld), h
    )
    assert got[1] == want[1]
    assert np.max(np.abs(got[0] - want[0])) <= 1e-12 * np.max(np.abs(want[0]))
    return data, got[1]


def test_k1f_slopes_match_on_the_all_active_path(k1f_run):
    system, grid, U, _ = k1f_run
    for axis in (0, 1):
        cols = difference_columns(U, axis, grid.dx)
        data, n_blended = assert_slopes_match_the_oracle(system, U, axis, cols, grid.dx)
        assert np.all(data["gamma"] == 1.0) and n_blended == 0


def test_k1f_slopes_match_on_the_blend_path(k1f_run):
    system, grid, U, _ = k1f_run
    rng = np.random.default_rng(12)
    # |qhat| just below 1 along x: the acoustic speed meets qhat.n there,
    # so gamma ramps from 1 to 0 over this band
    shape = U.shape[:-1]
    rho = 1.0 + rng.random(shape)
    r = 1.0 - 10.0 ** rng.uniform(-6, -2, shape)
    direction = np.array([1.0, 0.0, 0.0]) + 1e-3 * rng.normal(size=shape + (3,))
    direction /= np.linalg.norm(direction, axis=-1)[..., None]
    V = np.concatenate([rho[..., None], (r * rho)[..., None] * direction], axis=-1)
    cols = difference_columns(V + 0.01 * rng.normal(size=V.shape), 0, grid.dx)
    data, n_blended = assert_slopes_match_the_oracle(system, V, 0, cols, grid.dx)
    gamma = data["gamma"]
    assert (gamma == 0.0).any() and (gamma == 1.0).any()
    assert ((gamma > 0.0) & (gamma < 1.0)).any()
    assert n_blended == int(np.count_nonzero(gamma < 1.0))


# ---------------------------------------------------------------------------
# M1F characteristic data
# ---------------------------------------------------------------------------

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
        for axis in (0, 1):
            assert np.array_equal(system._pressure_column(state, axis), P[..., :, axis])
        assert np.array_equal(system._pressure_grad(state), np.einsum("...ij,...j->...i", P, g3))
    assert failed.any() and not failed.all()
