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
solve in q to 1e-13, with the same iterations and chord rebuilds. The
flux pass that serves both axes in one `char_data` and one `faces` call
gives, for K1F, M1F and P3F, every face state and flux of the pass one
axis at a time (`cell_oracles.axis_faces`) bit for bit, on the
near-vacuum front, the blend band, a rectangular strand and a periodic
boundary, and one flux step calls each kernel once per stage.
"""

import inspect

import numpy as np
import pytest

from moment_glioma import solver
from moment_glioma.closures import kershaw_pressure_batch
from moment_glioma.config import RunConfig
from moment_glioma.reconstruct import _WENO_THETA, _WENO_Z, canonical_eig, row_norm, weno2_slope
from moment_glioma.scenarios import build_fiber_strand_scenario
from moment_glioma.solver import (
    SolverError,
    _difference_rows,
    dg_momentum_step,
    dg_source_step,
    flux_step,
    new_diagnostics,
    run_kinetic,
)
from moment_glioma.systems import (
    REALIZABILITY_FLOOR,
    KershawSystem,
    _limit_theta_pair,
    build_system,
    first_order_realizable,
    flux_work,
)

from cell_oracles import (
    axis_char_data,
    axis_faces,
    dg_source_step_cell_major,
    fd_jacobian,
    first_order_axis_flux,
    first_order_faces_rows,
    first_order_flux_rows,
    first_order_realizable_rows,
    first_order_source_rows,
    k1f_axis_char_data_rows,
    k1f_axis_char_slopes,
    k1f_axis_slab,
    k1f_char_slopes_rows,
    k1f_projector_oracle,
    k1f_waves_rows,
    limit_theta_pair_rows,
    m1f_axis_char_slopes,
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


@pytest.mark.parametrize("model, solve", [("K1F", "dg_momentum_step"), ("M1F", "dg_source_step")])
def test_run_kinetic_hands_one_chord_cache_to_every_source_solve(model, solve, monkeypatch):
    # a run's chord factorization lives in one dict that every solve carries
    real = getattr(solver, solve)
    caches = []

    def recording(*args, **kwargs):
        caches.append(inspect.signature(real).bind(*args, **kwargs).arguments["chord_cache"])
        return real(*args, **kwargs)

    monkeypatch.setattr(solver, solve, recording)
    _, _, _, diag = strand_run(model, 0.25, 1e-4, 12, 0.025)
    assert len(caches) > diag["steps"] > 1
    assert type(caches[0]) is dict and all(c is caches[0] for c in caches)


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
        dg_source_step(u0, 0.5, decay, fd(decay), {}),
        dg_source_step_cell_major(u0, 0.5, decay, fd(decay)),
    )
    # the divergent case of test_dg_newton_divergence_reports_history
    monkeypatch.setattr(solver, "_DG_NEWTON_MAXIT", 3)
    messages = []
    for step in (dg_source_step, dg_source_step_cell_major):
        with pytest.raises(SolverError) as err:
            step(u0, 5.0, blow_up, fd(blow_up), {})
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

def flux_columns(U, h, bc="thermal"):
    """Both axes' rows [U, d-, d+] in the flux step's own work buffer,
    written as a stage writes them: (2, ny, nx, 3, m), h = (dx, dy)."""
    cols = flux_work(U)
    for axis in (0, 1):
        _difference_rows(cols[axis], U, axis, h[axis], bc == "periodic")
    return cols


def slope_planes(system, data, cols, h):
    """The system's slopes of both axes' differences in `cols`:
    ((4, 2, ny, nx) planes, n_blended)."""
    d = np.ascontiguousarray(cols[..., 1:, :].transpose(3, 4, 0, 1, 2))
    return system.char_slopes(data, d[0], d[1], h)


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
    """First-order faces along `axis` as first written, from that axis'
    `axis_char_data`: theta on every cell (1 where the faces pass), then
    both faces recomputed everywhere, then the flux of each face set."""
    char_slopes = k1f_axis_char_slopes if isinstance(system, KershawSystem) else m1f_axis_char_slopes
    U, d_minus, d_plus = cols[..., 0, :], cols[..., 1, :], cols[..., 2, :]
    slope, n_blended = char_slopes(data, planes(d_minus), planes(d_plus), h)
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
    F_lo, F_hi = (rows(first_order_axis_flux(system, planes(f), axis)) for f in (f_lo, f_hi))
    return f_lo, f_hi, F_lo, F_hi, n_blended, n_limited


def assert_faces_match(system, U, h):
    cells = U.shape[0] * U.shape[1]
    cols = flux_columns(U, (h, h))
    want = [
        full_recompute_faces(system, data, axis, cols[axis], h)
        for axis, data in enumerate(axis_char_data(system, U))
    ]
    got = system.faces(system.char_data(U), cols, (h, h))
    assert got[4:] == tuple(sum(w[k] for w in want) for k in (4, 5))
    for axis, w in enumerate(want):
        assert 0 < w[5] < cells  # the limiter acts on some cells, not all
        for a, b in zip(got[:4], w[:4]):
            assert np.array_equal(a[axis], b)


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


def assert_slopes_match_the_oracle(system, U, cols, h):
    """char_slopes on U's closed-form data, both axes in one call, against
    the projector oracle's slopes of each axis: 1e-12 relative, the same
    blended cells. Returns the data and that count.

    The oracle runs in long double: in the gamma ramp band its Newton
    identities lose about seven digits in float64 (5e-10 of max|slope| on
    the blend-path state, against a long-double closed form), while the
    closed form stays within 1e-12."""
    require_wide_long_double()
    data = system.char_data(U)
    slope, n_blended = slope_planes(system, data, cols, (h, h))
    ld = np.longdouble
    want_blended = 0
    for axis in (0, 1):
        oracle = k1f_projector_oracle(U.astype(ld), system.tissue.DF.astype(ld), axis)
        want, count = merged_then_overwritten_slopes(
            oracle, cols[axis, ..., 1, :].astype(ld), cols[axis, ..., 2, :].astype(ld), h
        )
        want_blended += count
        assert np.max(np.abs(rows(slope[:, axis]) - want)) <= 1e-12 * np.max(np.abs(want))
    assert n_blended == want_blended
    return data, n_blended


def test_k1f_slopes_match_on_the_all_active_path(k1f_run):
    system, grid, U, _ = k1f_run
    cols = flux_columns(U, (grid.dx, grid.dx))
    data, n_blended = assert_slopes_match_the_oracle(system, U, cols, grid.dx)
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


def assert_partly_active_along_both_axes(gamma):
    """Each axis' gamma, (ny, nx), has cells at 0, at 1 and in the ramp."""
    for g in gamma:
        assert (g == 0.0).any() and (g == 1.0).any()
        assert ((g > 0.0) & (g < 1.0)).any()


def test_k1f_slopes_match_on_the_blend_path(k1f_run):
    system, grid, U, _ = k1f_run
    V, noisy = blend_band_state(U)
    cols = flux_columns(noisy, (grid.dx, grid.dx))
    data, n_blended = assert_slopes_match_the_oracle(system, V, cols, grid.dx)
    assert_partly_active_along_both_axes(data["gamma"])
    assert n_blended == int(np.count_nonzero(data["gamma"] < 1.0))


# ---------------------------------------------------------------------------
# the flux pass of both axes against the pass one axis at a time
# ---------------------------------------------------------------------------

def assert_stacked_pass_is_the_axis_pass(system, U, h, bc="thermal", differenced=None):
    """`char_data` and one `faces` call for both axes against the per-axis
    oracles (`axis_char_data`, `axis_faces`) on each axis' block of the same
    buffer: every face state and flux bitwise, the counters summed (K1F's
    data too, read per axis). The differences are those of `differenced`
    (default U). Returns the faces."""
    cols = flux_columns(U if differenced is None else differenced, h, bc)
    axis_data = axis_char_data(system, U)
    want = [
        axis_faces(system, data, axis, cols[axis].copy(order="K"), h[axis])
        for axis, data in enumerate(axis_data)
    ]
    data = system.char_data(U)
    if isinstance(system, KershawSystem):
        cells = np.arange(U[..., 0].size)
        for axis in (0, 1):
            slab, per_axis = k1f_axis_slab(data, axis), axis_data[axis]
            assert np.array_equal(slab["gamma"], per_axis["gamma"])
            assert (slab["waves"] is None) == (per_axis["waves"] is None)
            if slab["waves"] is not None:
                assert np.array_equal(cells[slab["waves"][0]], cells[per_axis["waves"][0]])
                for a, b in zip(slab["waves"][1:], per_axis["waves"][1:]):
                    assert np.array_equal(a, b)
    got = system.faces(data, cols, h)
    assert got[4:] == tuple(sum(w[k] for w in want) for k in (4, 5))
    for axis, w in enumerate(want):
        for a, b in zip(got[:4], w[:4]):
            assert a[axis].shape == b.shape and np.array_equal(a[axis], b)
    return got


def test_k1f_stacked_pass_on_the_near_vacuum_front(k1f_run):
    # the benchmark's regime: every cell active, the limiter firing
    system, grid, U, _ = k1f_run
    got = assert_stacked_pass_is_the_axis_pass(system, U, (grid.dx, grid.dy))
    assert 0 < got[5] < 2 * U[..., 0].size and got[4] == 0


def test_k1f_stacked_pass_on_the_blend_band(k1f_run):
    # partly active along both axes, with cells inside the ramp: subsets of
    # cells in both axes' slabs
    system, grid, U, _ = k1f_run
    V, noisy = blend_band_state(U)
    assert_partly_active_along_both_axes(system.char_data(V)["gamma"])
    got = assert_stacked_pass_is_the_axis_pass(system, V, (grid.dx, grid.dy), differenced=noisy)
    assert 0 < got[4] < 2 * U[..., 0].size


def rectangular_strand(kind, seed):
    """A 12 x 8 strand system, whose dx and dy differ, and a state on it:
    rough for the first-order closures, a perturbed isotropic one for P_N."""
    cfg = RunConfig(eps=0.25, nx=12, ny=8, model=kind, times=(0.1,))
    sc = build_fiber_strand_scenario(cfg.eps, config=cfg)
    system = build_system(kind, sc.tissue(), sc.params)
    if kind in ("K1F", "M1F"):
        return system, sc.grid, rough_first_order_state((8, 12), seed)
    rng = np.random.default_rng(seed)
    U = system.initial_state(1.0 + rng.random((8, 12)))
    return system, sc.grid, U + 0.05 * rng.normal(size=U.shape)


@pytest.mark.parametrize("bc", ["thermal", "periodic"])
@pytest.mark.parametrize("kind", ["K1F", "M1F", "P3F"])
def test_stacked_pass_on_a_rectangular_strand(kind, bc):
    system, grid, U = rectangular_strand(kind, 8)
    h = (grid.dx, grid.dy)
    assert h[0] != h[1]
    got = assert_stacked_pass_is_the_axis_pass(system, U, h, bc)
    if kind != "P3F":
        assert got[5] > 0  # the limiter recomputes cells of both axes' steps
    # the steps enter per axis: swapped, every face moves (the faces hold
    # until the next faces call, so they are copied first)
    f_lo = got[0].copy()
    swapped = system.faces(system.char_data(U), flux_columns(U, h, bc), h[::-1])
    assert not np.array_equal(swapped[0], f_lo)


@pytest.mark.parametrize("kind", ["K1F", "M1F", "P3F"])
def test_one_flux_step_calls_each_kernel_once_per_stage(kind, monkeypatch):
    # one faces call per stage and one char_data call per step; M1F closes
    # four grids per stage inside faces, one per face set and axis (a joint
    # closure would move its bits), beside char_data's closure and the
    # four sides' thermal walls of each stage
    system, grid, U = rectangular_strand(kind, 9)
    calls, inside = {}, []

    def spy(fn, name):
        def call(*args):
            key = name + (" in faces" if any(inside) else "")
            calls[key] = calls.get(key, 0) + 1
            inside.append(name == "faces")
            try:
                return fn(*args)
            finally:
                inside.pop()
        return call

    monkeypatch.setattr(system, "faces", spy(system.faces, "faces"))
    monkeypatch.setattr(system, "char_data", spy(system.char_data, "char_data"))
    if kind == "M1F":
        monkeypatch.setattr(system, "_dual", spy(system._dual, "dual"))
    dt = 0.25 * min(grid.dx, grid.dy) / system.wave_speed
    flux_step(U, dt, system, new_diagnostics(), flux_work(U))
    assert calls["faces"] == 2 and calls["char_data"] == 1
    if kind == "M1F":
        assert calls["dual in faces"] == 2 * 4
        assert calls["dual"] == 1 + 2 * 4


# ---------------------------------------------------------------------------
# component-plane kernels against the row forms they replaced
# ---------------------------------------------------------------------------

def assert_close(got, want, rtol):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))


def assert_k1f_planes_match_the_rows(system, U, cols, h):
    """K1F's plane data, slopes and faces of both axes against the row
    forms of each axis: 1e-13 relative, with the same active and blend
    masks and counts. Returns (data, faces)."""
    data = system.char_data(U)
    slope, n_blended = slope_planes(system, data, cols, (h, h))
    faces = system.faces(data, cols.copy(order="K"), (h, h))
    want_counts = np.zeros(2, dtype=int)
    for axis in (0, 1):
        slab = k1f_axis_slab(data, axis)
        want = k1f_axis_char_data_rows(system, U, axis)
        gamma = slab["gamma"]
        assert np.array_equal(gamma >= 1.0, want["gamma"] >= 1.0)
        assert_close(gamma, want["gamma"], 1e-13)
        if want["waves"] is None:
            assert slab["waves"] is None
        else:
            active, R, L, r_norm = k1f_waves_rows(slab)
            assert np.array_equal(active, want["waves"][0])
            for a, b in zip((R, L, r_norm), want["waves"][1:]):
                assert_close(a, b, 1e-13)
        d_minus, d_plus = cols[axis, ..., 1, :], cols[axis, ..., 2, :]
        want_slope, want_blended = k1f_char_slopes_rows(want, d_minus, d_plus, h)
        assert want_blended == int(np.count_nonzero(~(gamma >= 1.0)))
        assert_close(rows(slope[:, axis]), want_slope, 1e-13)
        want_faces = first_order_faces_rows(system, want, axis, cols[axis], h)
        want_counts += want_faces[4:]
        for a, b in zip(faces[:4], want_faces[:4]):
            assert_close(a[axis], b, 1e-13)
    assert n_blended == want_counts[0] and faces[4:] == tuple(want_counts)
    return data, faces


def test_k1f_planes_match_the_rows_on_all_active_limited_states(k1f_run):
    # the strand run's front and a rough state: every cell active, the
    # limiter firing on some cells of each
    system, grid, U, _ = k1f_run
    cells = U.shape[0] * U.shape[1]
    for state in (U, rough_first_order_state(U.shape[:-1], 8)):
        cols = flux_columns(state, (grid.dx, grid.dx))
        data, faces = assert_k1f_planes_match_the_rows(system, state, cols, grid.dx)
        assert data["waves"][0] == slice(None) and np.all(data["gamma"] == 1.0)
        assert 0 < faces[5] < 2 * cells


def test_k1f_planes_match_the_rows_on_the_blend_band(k1f_run):
    # partly active along both axes, with cells inside the ramp
    system, grid, U, _ = k1f_run
    V, noisy = blend_band_state(U)
    cols = flux_columns(noisy, (grid.dx, grid.dx))
    data, _ = assert_k1f_planes_match_the_rows(system, V, cols, grid.dx)
    assert_partly_active_along_both_axes(data["gamma"])


def test_k1f_planes_match_the_rows_without_active_cells(k1f_run):
    # |qhat| within 1e-9 of 1 along x: w = (1 - |qhat|^2) s falls below the
    # window along both axes, so no cell has gamma > 0
    system, grid, U, _ = k1f_run
    V = np.zeros_like(U)
    V[..., 0] = 1.0 + np.arange(V[..., 0].size).reshape(V.shape[:-1]) / V[..., 0].size
    V[..., 1] = V[..., 0] * (1.0 - 1e-9)
    cols = flux_columns(V, (grid.dx, grid.dx))
    data, faces = assert_k1f_planes_match_the_rows(system, V, cols, grid.dx)
    assert data["waves"] is None and faces[4] == 2 * V[..., 0].size


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
    data = system.char_data(rough_first_order_state(U.shape[:-1], 8))
    cols = flux_columns(V, (h, h))
    slope, n_blended = slope_planes(system, data, cols, (h, h))
    faces = system.faces(data, cols.copy(order="K"), (h, h))
    counts = np.zeros(3, dtype=int)
    for axis in (0, 1):
        axis_data = tuple(a[axis] for a in data)
        assert np.any(axis_data[3] > 0.0)  # the characteristic slopes enter
        d_minus, d_plus = cols[axis, ..., 1, :], cols[axis, ..., 2, :]
        want_slope = m1f_char_slopes_rows(axis_data, d_minus, d_plus, h)
        assert np.array_equal(rows(slope[:, axis]), want_slope[0])
        f_lo, f_hi = V - 0.5 * h * want_slope[0], V + 0.5 * h * want_slope[0]
        for f in (f_lo, f_hi):
            assert np.array_equal(first_order_realizable(planes(f)), first_order_realizable_rows(f))
        bad, theta = _limit_theta_pair(planes(V), np.stack((planes(f_lo), planes(f_hi))))
        want_bad, want_theta = limit_theta_pair_rows(V, np.stack((f_lo, f_hi)))
        assert np.array_equal(bad, np.flatnonzero(want_bad)) and 0 < bad.size < cells
        assert np.array_equal(theta, want_theta)
        want = first_order_faces_rows(system, axis_data, axis, cols[axis], h)
        counts += (want_slope[1], *want[4:])
        for a, b in zip(faces[:4], want[:4]):
            assert np.array_equal(a[axis], b)
    assert n_blended == counts[0] and faces[4:] == tuple(counts[1:])
    flux = system.flux(planes(np.stack((V, V))))  # V along x and along y
    for axis in (0, 1):
        assert np.array_equal(rows(flux[:, axis]), first_order_flux_rows(system, V, axis))
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
    data = system.char_data(V)
    h = (grid.dx, grid.dy)
    cols = flux_columns(V, h)
    slope, n_blended = slope_planes(system, data, cols, h)
    assert n_blended == int(np.count_nonzero(data[3] < 1.0))
    for axis in (0, 1):
        lam, R, Rinv, weight = (a[axis].reshape((failed.size,) + a.shape[3:]) for a in data)
        assert np.all(weight[failed] == 0.0)
        assert np.all(R[failed] == eye) and np.all(Rinv[failed] == eye)
        T = np.einsum("cn,nk,nj->ckj", gmass[ok] * system._V[:, axis], m, m)
        J = np.swapaxes(np.linalg.solve(H, T), -1, -2) / system.params.eps
        for got, want in zip((lam, R, Rinv, weight), canonical_eig(J)):
            assert np.array_equal(got[ok], want)
        d_minus, d_plus = cols[axis, ..., 1, :], cols[axis, ..., 2, :]
        comp = weno2_slope(d_minus, d_plus, h[axis]).reshape(-1, 4)
        assert np.array_equal(rows(slope[:, axis]).reshape(-1, 4)[failed], comp[failed])
        assert int(np.count_nonzero(weight < 1.0)) >= int(np.count_nonzero(failed))


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
        normal = system._pressure_normal(planes(np.stack((state, state))))
        for axis in (0, 1):
            assert np.array_equal(rows(normal[:, axis]), P[..., :, axis])
        assert np.array_equal(
            rows(system._pressure_grad(X)), np.einsum("...ij,...j->...i", P, g3)
        )
    assert failed.any() and not failed.all()
