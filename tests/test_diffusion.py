"""Diffusion-limit solver: heat-kernel oracle, myopic form, conservation,
the row-gapped step against its plain-array oracle, the stability bound."""

import sys
from pathlib import Path

import numpy as np
import pytest

from moment_glioma import scenarios
from moment_glioma.diffusion import (
    DiffusionError,
    DiffusionFields2D,
    _flux_divergence,
    _StepWork,
    build_diffusion_fields,
    diffusion_step,
    run_diffusion,
)
from moment_glioma.grid import GridSpec
from moment_glioma.kinetic import compute_scaling
from moment_glioma.stepping import run_steps
from moment_glioma.tissue import WaterTensorField, derive_tissue_fields, synth_fiber_strand

from cell_oracles import (
    diffusion_stencil,
    diffusion_step_nine_slices,
    flux_divergence_nine_slices,
)


def fiber_strand_params(eps, X=3.0, T=2.0):
    lam0 = 1.0 / (eps**2 * T)
    return compute_scaling(
        T=T, c=X / (eps * T), lambda0=lam0, lambda1=lam0, kplus=lam0, kminus=lam0, x0=X
    )


def isotropic_fields(n, d=0.1, drift=None, extent=1.0):
    grid = GridSpec(nx=n, ny=n, dx=extent / n, dy=extent / n)
    D = np.zeros((n, n, 2, 2))
    D[..., 0, 0] = d
    D[..., 1, 1] = d
    dr = np.zeros((n, n, 2))
    if drift is not None:
        dr[..., 0] = drift[0]
        dr[..., 1] = drift[1]
    return DiffusionFields2D(grid=grid, D=D, drift=dr)


def strand_fields(eps=0.25, n=40, X=3.0):
    params = fiber_strand_params(eps, X=X)
    grid = GridSpec(nx=n, ny=n, dx=1.0 / n, dy=1.0 / n)
    water = synth_fiber_strand(X, 0.1, GridSpec(nx=n, ny=n, dx=X / n, dy=X / n))
    water = WaterTensorField(grid=grid, tensors=water.tensors)
    tissue = derive_tissue_fields(water, "FA", params)
    return build_diffusion_fields(tissue, params), grid


def face_form_divergence(rho, fields):
    """Reference operator: the myopic flux assembled face by face.

    x-faces carry d/dx(rho Dxx) + the face mean of d/dy(rho Dxy) - vx rho,
    y-faces likewise; derivatives of rho Dxy are np.gradient's (central,
    one-sided at the edges) and no flux crosses the domain sides.
    """
    dx, dy = fields.grid.dx, fields.grid.dy
    D, v = fields.D, fields.drift
    rD_xx = rho * D[..., 0, 0]
    rD_xy = rho * D[..., 0, 1]
    rD_yy = rho * D[..., 1, 1]
    d_dy_rDxy = np.gradient(rD_xy, dy, axis=0, edge_order=1)
    d_dx_rDxy = np.gradient(rD_xy, dx, axis=1, edge_order=1)
    fx = (rD_xx[:, 1:] - rD_xx[:, :-1]) / dx
    fx += 0.5 * (d_dy_rDxy[:, 1:] + d_dy_rDxy[:, :-1])
    fx -= 0.25 * (v[:, 1:, 0] + v[:, :-1, 0]) * (rho[:, 1:] + rho[:, :-1])
    fy = (rD_yy[1:, :] - rD_yy[:-1, :]) / dy
    fy += 0.5 * (d_dx_rDxy[1:, :] + d_dx_rDxy[:-1, :])
    fy -= 0.25 * (v[1:, :, 1] + v[:-1, :, 1]) * (rho[1:, :] + rho[:-1, :])
    fx /= dx
    fy /= dy
    out = np.zeros_like(rho)
    out[:, :-1] += fx
    out[:, 1:] -= fx
    out[:-1, :] += fy
    out[1:, :] -= fy
    return out


def random_fields(ny, nx, dx, dy, seed):
    # anisotropic SPD D with a nonzero off-diagonal, and a nonzero drift
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(ny, nx, 2, 2))
    D = A @ np.swapaxes(A, -1, -2) + 0.1 * np.eye(2)
    grid = GridSpec(nx=nx, ny=ny, dx=dx, dy=dy)
    return DiffusionFields2D(grid=grid, D=D, drift=rng.normal(size=(ny, nx, 2))), rng


def gaussian(X, Y, x0, y0, s2):
    return np.exp(-((X - x0) ** 2 + (Y - y0) ** 2) / (2 * s2)) / (2 * np.pi * s2)


def test_heat_kernel_oracle():
    # isotropic homogeneous D: the solution is the spreading Gaussian
    d = 0.05
    t0, t1 = 0.02, 0.05
    errs = []
    for n in (40, 80):
        fields = isotropic_fields(n, d=d)
        X, Y = fields.grid.cell_centers()
        rho = gaussian(X, Y, 0.5, 0.5, 2 * d * t0)
        res = run_diffusion(fields, rho, t1 - t0)
        exact = gaussian(X, Y, 0.5, 0.5, 2 * d * t1)
        errs.append(np.max(np.abs(res.final_rho - exact)))
    order = np.log2(errs[0] / errs[1])
    assert order > 1.7


def test_constant_state_homogeneous_unchanged():
    fields = isotropic_fields(24, d=0.1)
    rho = np.full((24, 24), 1.3)
    out = diffusion_step(rho, 0.5 * fields.stability_bound(), fields)
    assert np.max(np.abs(out - rho)) < 1e-14


def test_mass_conserved_per_step():
    fields, grid = strand_fields()
    X, Y = grid.cell_centers()
    rho = 1e-4 + gaussian(X, Y, 0.2, 0.5, 0.003)
    dt = 0.9 * fields.stability_bound()
    for _ in range(5):
        new = diffusion_step(rho, dt, fields)
        assert abs(new.sum() - rho.sum()) < 1e-12 * rho.sum()
        rho = new


@pytest.mark.parametrize("ny, nx", [(3, 11), (13, 3), (9, 17)])
def test_stencil_matches_face_form(ny, nx):
    fields, rng = random_fields(ny, nx, dx=0.31, dy=0.17, seed=ny * nx)
    assert np.abs(fields.D[..., 0, 1]).min() > 0
    for _ in range(3):
        rho = rng.random((ny, nx)) + 0.1
        ref = face_form_divergence(rho, fields)
        err = np.abs(_flux_divergence(rho, fields) - ref)
        # every cell, edges and corners included
        assert err.max() <= 1e-13 * np.abs(ref).max()


def test_stencil_conserves_mass_to_rounding():
    fields, rng = random_fields(24, 31, dx=0.05, dy=0.08, seed=7)
    C = fields._stencil
    assert C.shape == (3, 3, 24, 33) and not C[..., 31:].any()
    C = C[..., :31]
    for _ in range(5):
        rho = rng.random((24, 31))
        pad = np.pad(rho, 1)
        terms = sum(
            np.abs(C[a, b] * pad[a : a + 24, b : b + 31]) for a in range(3) for b in range(3)
        )
        assert abs(_flux_divergence(rho, fields).sum()) <= 1e-13 * terms.sum()


@pytest.mark.parametrize("t_end", [float("nan"), float("inf"), 0.0])
def test_run_diffusion_rejects_bad_t_end(t_end):
    fields = isotropic_fields(8, d=0.1)
    with pytest.raises(DiffusionError, match="t_end must be positive and finite"):
        run_diffusion(fields, np.ones((8, 8)), t_end)


@pytest.mark.parametrize("shape", [(1, 8), (8,), ()])
def test_run_diffusion_rejects_a_rho0_off_the_grid(shape):
    # numpy would broadcast it over the grid and report a mass that grew 8-fold
    fields, _ = strand_fields(eps=0.5, n=8)
    with pytest.raises(DiffusionError, match=r"rho0 has shape .*, the grid needs \(8, 8\)"):
        run_diffusion(fields, np.ones(shape), 0.001)


def test_dt_guard():
    fields = isotropic_fields(16, d=0.1)
    with pytest.raises(DiffusionError, match="stability bound"):
        diffusion_step(np.ones((16, 16)), 10 * fields.stability_bound(), fields)


def test_zero_initial_mass_stays_zero():
    fields, _ = strand_fields(n=24)
    res = run_diffusion(fields, np.zeros((24, 24)), 0.05)
    assert np.allclose(res.final_rho, 0.0, atol=1e-15)


def test_symmetric_tissue_symmetric_solution():
    fields, grid = strand_fields(n=32)
    X, Y = grid.cell_centers()
    rho = 1e-4 + gaussian(X, Y, 1.5 / 3, 0.5, 0.002)  # centered on the strand axis
    res = run_diffusion(fields, rho, 0.1)
    out = res.final_rho
    assert np.max(np.abs(out - out[::-1, :])) < 1e-10 * out.max()


def test_isotropy_x_y_exchange():
    # eta = 0 surrogate: zero drift, D = I*d; x<->y symmetric initial data
    fields = isotropic_fields(32, d=0.05)
    X, Y = fields.grid.cell_centers()
    rho = gaussian(X, Y, 0.5, 0.5, 0.004) * (1 + 0.3 * np.sin(2 * np.pi * (X + Y)))
    res = run_diffusion(fields, rho, 0.02)
    assert np.max(np.abs(res.final_rho - res.final_rho.T)) < 1e-11 * res.final_rho.max()


def test_strand_spreads_anisotropically():
    # full-length run of the strand scenario: by t = T the mass has spread
    # preferentially along the tract (measured var_x/var_y ~ 1.4)
    fields, grid = strand_fields(eps=0.25, n=40)
    X, Y = grid.cell_centers()
    rho0 = np.full((40, 40), 1e-4)
    blob = (np.abs(X - 0.5 / 3) <= 0.05 / 3 + 1e-12) & (
        np.abs(Y - 0.5) <= 0.05 / 3 + 1e-12
    )
    rho0[blob] = 1.0
    res = run_diffusion(fields, rho0, 1.0)
    rho = res.final_rho
    w = rho - rho.min()
    mx = (w * X).sum() / w.sum()
    my = (w * Y).sum() / w.sum()
    var_x = (w * (X - mx) ** 2).sum() / w.sum()
    var_y = (w * (Y - my) ** 2).sum() / w.sum()
    assert var_x > 1.2 * var_y


def test_myopic_not_fickian():
    # manufactured check: the discrete operator converges (order 2) to
    # div(div(rho D)) and NOT to div(D grad rho) when div D != 0
    def d_fn(x):
        return 1.0 + 0.5 * np.sin(2 * np.pi * x)

    def rho_fn(x):
        return 2.0 + np.cos(2 * np.pi * x)

    def myopic_exact(x):
        # d^2/dx^2 (rho d)
        k = 2 * np.pi
        rho = rho_fn(x)
        d = d_fn(x)
        rho1 = -k * np.sin(k * x)
        rho2 = -k * k * np.cos(k * x)
        d1 = 0.5 * k * np.cos(k * x)
        d2 = -0.5 * k * k * np.sin(k * x)
        return rho2 * d + 2 * rho1 * d1 + rho * d2

    def fickian_exact(x):
        k = 2 * np.pi
        rho1 = -k * np.sin(k * x)
        rho2 = -k * k * np.cos(k * x)
        d1 = 0.5 * k * np.cos(k * x)
        return d_fn(x) * rho2 + d1 * rho1

    errs_myopic = []
    errs_fickian = []
    for n in (64, 128, 256):
        grid = GridSpec(nx=n, ny=5, dx=1.0 / n, dy=1.0 / n)
        X, _ = grid.cell_centers()
        D = np.zeros((5, n, 2, 2))
        D[..., 0, 0] = d_fn(X)
        D[..., 1, 1] = 1.0
        fields = DiffusionFields2D(grid=grid, D=D, drift=np.zeros((5, n, 2)))
        op = _flux_divergence(rho_fn(X), fields)
        mid = 2  # interior row, away from the zero-flux y-faces
        sl = slice(2, n - 2)
        errs_myopic.append(np.max(np.abs(op[mid, sl] - myopic_exact(X[mid, sl]))))
        errs_fickian.append(np.max(np.abs(op[mid, sl] - fickian_exact(X[mid, sl]))))
    order = np.log2(errs_myopic[0] / errs_myopic[1])
    assert order > 1.8
    # the Fickian form is NOT what the stencil approximates
    assert min(errs_fickian) > 1.0


def test_strand_diffusion_fields_trace():
    fields, _ = strand_fields(eps=0.5, n=24)
    params = fiber_strand_params(0.5)
    tr2 = np.trace(fields.D, axis1=-2, axis2=-1)
    # in-plane trace of D_F/R: 1/R minus the out-of-plane component
    assert np.all(tr2 < 1.0 / params.r)
    assert np.all(tr2 > 0.5 / params.r)


def test_run_diffusion_solves_no_eigenproblem_per_step(monkeypatch):
    # D is fixed per DiffusionFields2D: its largest eigenvalue is taken in
    # closed form at construction, and the time loop solves no eigenproblem
    calls = []
    real = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    fields = isotropic_fields(16, d=0.1)
    res = run_diffusion(fields, np.ones((16, 16)), 0.2)
    assert res.diagnostics["nsteps"] > 10
    assert calls == []


def test_fields_fixed_at_construction():
    fields = isotropic_fields(16, d=0.1)
    bound = fields.stability_bound()
    rho = np.random.default_rng(0).random((16, 16))
    before = diffusion_step(rho, 0.5 * bound, fields)
    fields.D[...] *= 10.0
    assert fields.stability_bound() == bound
    assert np.array_equal(diffusion_step(rho, 0.5 * bound, fields), before)


def test_nonfinite_density_names_step_time_and_cell(monkeypatch):
    import moment_glioma.diffusion as diffusion

    fields = isotropic_fields(16, d=0.1)
    real = diffusion._flux_divergence
    evals = []

    def poisoned(rho, f, *work):
        out = real(rho, f, *work)
        evals.append(1)
        if len(evals) == 6:  # last stage of step 3
            out[4, 7] = np.nan
            out[9, 2] = np.inf
        return out

    monkeypatch.setattr(diffusion, "_flux_divergence", poisoned)
    dt = 0.9 * fields.stability_bound()
    with pytest.raises(DiffusionError, match=r"at step 3, t=.* cell \(ix=7, iy=4\)") as err:
        run_diffusion(fields, np.ones((16, 16)), 10 * dt)
    t = float(str(err.value).split("t=")[1].split(",")[0])
    assert t == pytest.approx(3 * dt, rel=0.2)


def poisoned(divergence, cell, evaluation):
    """`divergence` with a NaN written at `cell` of its `evaluation`-th result."""
    evals = []

    def divergence_with_nan(rho, *args):
        out = divergence(rho, *args)
        evals.append(1)
        if len(evals) == evaluation:
            out[cell] = np.nan
        return out
    return divergence_with_nan


@pytest.mark.parametrize("cell", [(4, 0), (7, 15), (0, 0), (11, 15)])
def test_nonfinite_edge_divergence_names_the_oracle_step_and_cell(monkeypatch, cell):
    # a NaN in the first stage's divergence at an edge cell is read by the
    # gap entries next to it, so it reaches the borders of the row-gapped
    # buffers; the run still stops at the step and cell of the plain-array run
    import moment_glioma.diffusion as diffusion

    fields, _ = random_fields(12, 16, dx=0.1, dy=0.1, seed=3)
    C = diffusion_stencil(fields)
    dt = 0.9 * fields.stability_bound()
    rho0 = np.ones((12, 16))
    # evaluation 5 is the first stage of step 3
    monkeypatch.setattr(diffusion, "_flux_divergence", poisoned(_flux_divergence, cell, 5))
    with pytest.raises(DiffusionError) as err:
        run_diffusion(fields, rho0, 10 * dt)
    oracle = poisoned(flux_divergence_nine_slices, cell, 5)
    with pytest.raises(DiffusionError) as ref:
        run_steps(
            lambda rho, *_: diffusion_step_nine_slices(rho, dt, C, oracle),
            rho0.copy(), fields.grid, 10, dt, (), {}, DiffusionError,
        )
    assert "at step 3," in str(ref.value)
    assert str(err.value) == str(ref.value)


def assert_steps_match_the_oracle(fields, rho, dt, steps=30):
    """`diffusion_step` on one `_StepWork` against the plain-array Heun
    step, bitwise at every step; the buffers' borders and the gaps of the
    stencil and of k stay zero."""
    ny, nx = rho.shape
    C = diffusion_stencil(fields)
    assert np.array_equal(fields._stencil[..., :nx], C) and not fields._stencil[..., nx:].any()
    work = _StepWork((ny, nx))
    new, ref = rho, rho
    for _ in range(steps):
        new = diffusion_step(new, dt, fields, work)
        ref = diffusion_step_nine_slices(ref, dt, C)
        assert new is work.rho
        assert np.array_equal(new, ref)
    assert np.array_equal(_flux_divergence(ref, fields), flux_divergence_nine_slices(ref, C))
    for buf in (work.state, work.stage):
        padded = buf[:-2].reshape(ny + 2, nx + 2)
        assert not buf[-2:].any() and not padded[[0, -1]].any() and not padded[:, [0, -1]].any()
    assert not work.k.reshape(ny, nx + 2)[:, nx:].any()


@pytest.mark.parametrize("ny, nx", [(3, 3), (3, 11), (13, 3), (9, 17), (64, 200)])
def test_row_gapped_step_is_the_plain_array_step_bitwise(ny, nx):
    fields, rng = random_fields(ny, nx, dx=0.31, dy=0.17, seed=ny + nx)
    assert_steps_match_the_oracle(fields, rng.random((ny, nx)) + 0.1, 0.9 * fields.stability_bound())


def test_row_gapped_step_is_the_plain_array_step_bitwise_on_the_brain_slice(tmp_path):
    perfbench = str(Path(__file__).resolve().parent.parent / "perfbench")
    if perfbench not in sys.path:
        sys.path.append(perfbench)
    from workloads import DEFAULT_SEED, WORKLOADS

    sc = scenarios.build_file_scenario(WORKLOADS["brain-diffusion"].config(DEFAULT_SEED, tmp_path))
    fields = build_diffusion_fields(sc.tissue(), sc.params)
    assert sc.rho0.shape == (128, 128)
    assert_steps_match_the_oracle(fields, sc.rho0, sc.t_end / 226)


@pytest.mark.parametrize("scale", [1e-4, 1.0, 1e3])
def test_max_eig_is_eigvalsh_within_2_ulp(scale):
    for seed in range(20):
        fields, _ = random_fields(16, 16, dx=0.1, dy=0.1, seed=seed)
        scaled = DiffusionFields2D(grid=fields.grid, D=scale * fields.D, drift=fields.drift)
        ref = np.max(np.linalg.eigvalsh(scaled.D))
        assert abs(scaled.max_eig - ref) <= 2 * np.spacing(ref)


@pytest.mark.parametrize("d", [1e-4, 0.1, 0.3, 7.0, 1e3])
def test_max_eig_is_eigvalsh_exactly_on_isotropic_fields(d):
    fields = isotropic_fields(8, d=d)
    assert fields.max_eig == np.max(np.linalg.eigvalsh(fields.D)) == d
