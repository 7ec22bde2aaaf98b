"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the production runs (criteria 5-7) take a few minutes each and are
marked `slow`, so `pytest -m "not slow"` skips them.
"""

import time

import numpy as np
import pytest

from moment_glioma import solver
from moment_glioma.closures import (
    kershaw_jacobian,
    kershaw_pressure_batch,
    kershaw_spectrum,
    m1f_dual_solve,
    m1f_dual_start,
    pn_basis,
)
from moment_glioma.config import RunConfig, parse_config
from moment_glioma.grid import GridSpec
from moment_glioma.kinetic import ScalingParams
from moment_glioma.metrics import relative_difference
from moment_glioma.quadrature import build_quadrature
from moment_glioma.scenarios import (
    build_fiber_strand_scenario,
    convergence_study,
    run_scenario,
    scenario_from_config,
)
from moment_glioma.solver import new_diagnostics, dg_source_step
from moment_glioma.systems import REALIZABILITY_FLOOR, build_system
from moment_glioma.tissue import peanut_node_values, peanut_pressure_tensor

from cell_oracles import MomentVector1, check_realizability, pnf_reconstruct, strang_step
from linear_relaxation import LinearRelaxationSystem, exact_solution


def report(num, name, elapsed, limit, detail=""):
    print(f"\nACCEPTANCE {num} {name}: PASS ({elapsed:.1f}s < {limit:.0f}s) {detail}")
    assert elapsed < limit, f"criterion {num} exceeded its runtime budget"


def random_spd(rng, scale=1.0):
    a = rng.normal(size=(3, 3))
    return scale * (a @ a.T + 0.05 * np.eye(3))


@pytest.fixture(scope="module")
def quad():
    return build_quadrature(10)


def test_criterion_1_closure_exactness(quad):
    # the production kernels (Kershaw pressure, M1F dual solve) run once on
    # all states; P1F is the N = 1 P_N^F oracle that
    # test_p1f_system_matches_pn_op ties to the production system
    tic = time.perf_counter()
    rng = np.random.default_rng(2024)
    n_states = 1000
    F, DF, rho, q = [], [], [], []
    for _ in range(n_states):
        d_w = random_spd(rng)
        F.append(peanut_node_values(d_w, quad.nodes))
        DF.append(peanut_pressure_tensor(d_w))
        rho.append(rng.uniform(0.1, 5.0))
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        # interior realizable states; the exponential ansatz additionally
        # needs |qhat| inside the convex hull of the quadrature nodes
        r = rng.uniform(0.0, 0.9)
        q.append(rho[-1] * r * direction)
    F, DF, rho, q = map(np.array, (F, DF, rho, q))

    P_k = kershaw_pressure_batch(rho, q, DF)
    p1f = pn_basis(1)
    for i in range(n_states):
        marg = check_realizability(MomentVector1(rho[i], q[i]), P_k[i])
        assert marg.trace_err <= 1e-10
        assert marg.second >= -1e-12
        fA = pnf_reconstruct(np.concatenate([[rho[i]], q[i]]), F[i], p1f, quad).node_values
        P_p = np.einsum("n,ni,nj->ij", quad.weights * fA, quad.nodes, quad.nodes)
        assert abs(np.trace(P_p) / rho[i] - 1.0) <= 1e-10

    start = m1f_dual_start(quad.weights * F, quad.nodes)
    beta, _, lognorm, failed, _ = m1f_dual_solve(q / rho[:, None], start, quad.nodes)
    assert not failed.any()
    fA = rho[:, None] * np.exp(beta @ quad.nodes.T - lognorm[:, None]) * F
    wfA = quad.weights * fA
    assert np.all(np.abs(wfA.sum(axis=1) - rho) <= 1e-10 * rho)
    q_err = np.linalg.norm(wfA @ quad.nodes - q, axis=1)
    assert np.all(q_err <= 1e-10 * rho)
    trace = np.einsum("cn,ni,ni->c", wfA, quad.nodes, quad.nodes)
    assert np.all(np.abs(trace / rho - 1.0) <= 1e-10)
    # Kershaw also covers the realizability boundary
    DF, q = [], []
    for _ in range(100):
        d_w = random_spd(rng)
        DF.append(peanut_pressure_tensor(d_w))
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        q.append(rng.uniform(0.9, 1.0) * direction)
    P_k = kershaw_pressure_batch(np.ones(100), np.array(q), np.array(DF))
    for qi, P in zip(q, P_k):
        marg = check_realizability(MomentVector1(1.0, qi), P)
        assert marg.trace_err <= 1e-10 and marg.second >= -1e-12
    report(1, "closure exactness (1000 realizable states)",
           time.perf_counter() - tic, 10)


def test_criterion_2_peanut_analytics(quad):
    tic = time.perf_counter()
    rng = np.random.default_rng(7)
    for _ in range(100):
        d_w = random_spd(rng, scale=rng.uniform(0.1, 10))
        vals = peanut_node_values(d_w, quad.nodes)
        by_quad = np.einsum("n,ni,nj->ij", quad.weights * vals, quad.nodes, quad.nodes)
        assert np.max(np.abs(peanut_pressure_tensor(d_w) - by_quad)) <= 1e-10
        assert abs(np.dot(quad.weights, vals) - 1.0) <= 1e-12
        first = (quad.weights * vals) @ quad.nodes
        assert np.max(np.abs(first)) <= 1e-12
    report(2, "peanut normalization/symmetry/pressure", time.perf_counter() - tic, 5)


def test_criterion_3_hyperbolicity(quad):
    tic = time.perf_counter()
    rng = np.random.default_rng(99)
    n = 10_000
    DF = np.stack([peanut_pressure_tensor(random_spd(rng)) for _ in range(n)])
    direction = rng.normal(size=(n, 3))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    r = rng.uniform(0, 0.999, size=n)
    qhat = r[:, None] * direction
    normals = rng.normal(size=(n, 3))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)

    ev = np.linalg.eigvals(kershaw_jacobian(np.ones(n), qhat, DF, normals))
    assert float(np.max(np.abs(ev.imag))) <= 1e-9
    assert float(np.max(np.abs(ev.real))) <= 1 + 1e-9

    # degenerate configuration A: |qhat| = 1, n parallel to qhat:
    # spectrum {1, 1, 1, 1-2*S11}
    DF_a = np.diag([0.55, 0.25, 0.2])
    spec_a = kershaw_spectrum(np.array([1.0, 0, 0]), DF_a, np.array([1.0, 0, 0]))
    s11 = 0.55
    assert np.allclose(np.sort(spec_a.analytic), np.sort([1, 1, 1, 1 - 2 * s11]),
                       atol=1e-12)
    assert np.max(np.abs(np.sort(spec_a.eigenvalues)
                         - np.sort([1, 1, 1, 1 - 2 * s11]))) < 1e-6

    # degenerate configuration B: |qhat| = 1 along an eigenvector of DF,
    # n perpendicular: total collapse {0,0,0,0}, not diagonalizable
    spec_b = kershaw_spectrum(np.array([1.0, 0, 0]), DF_a, np.array([0.0, 1.0, 0]))
    assert np.allclose(spec_b.analytic, 0.0, atol=1e-14)
    # numeric eigenvalues of the nilpotent block carry O(ulp^(1/3)) noise
    assert np.max(np.abs(spec_b.eigenvalues)) < 1e-3
    assert not spec_b.diagonalizable
    report(3, "hyperbolicity sweep + degenerate configurations",
           time.perf_counter() - tic, 30, f"(sweep size {n})")


def test_criterion_4_scheme_order(monkeypatch):
    tic = time.perf_counter()
    # manufactured linear relaxation system with an exact Fourier solution
    errs = []
    grids = (32, 64, 128)
    for n in grids:
        system = LinearRelaxationSystem(n, a=1.0, kappa=1.0)
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
        errs.append(float(np.mean(np.abs(U[..., 0] - exact[..., 0]))))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    for order in orders:
        assert 1.8 <= order <= 2.2, (orders, errs)

    # DG source integrator on u' = -u: right-endpoint superconvergence
    dg_errs = []
    dts = [0.5, 0.25, 0.125, 0.0625]
    monkeypatch.setattr(solver, "_DG_NEWTON_TOL", 1e-13)
    for dt in dts:
        u = np.array([1.0])
        t = 0.0
        while t < 0.5 - 1e-12:
            u = dg_source_step(u, dt, lambda v: -v, lambda v: -np.eye(1), {})
            t += dt
        dg_errs.append(abs(float(u[0]) - np.exp(-0.5)))
    dg_order = np.polyfit(np.log(dts), np.log(dg_errs), 1)[0]
    assert dg_order >= 4.0
    report(4, "scheme order", time.perf_counter() - tic, 120,
           f"(spatial orders {[round(o, 2) for o in orders]}, DG order {dg_order:.2f})")


@pytest.mark.slow
def test_criterion_5_conservation_realizability_symmetry():
    tic = time.perf_counter()
    eps = 0.25
    cfg = RunConfig(nx=90, ny=90, model="K1F", eps=eps, times=(2.0,))
    sc = build_fiber_strand_scenario(eps, config=cfg)
    system = build_system("K1F", sc.tissue(), sc.params)
    t_end = 1.0
    U = system.initial_state(sc.rho0)
    dt_target = solver._CFL * sc.grid.dx / system.wave_speed
    nsteps = int(np.ceil(t_end / dt_target))
    dt = t_end / nsteps
    diag = new_diagnostics()
    cache = {}
    mass0 = U[..., 0].sum() * sc.grid.cell_area
    worst_asym = 0.0
    floor = REALIZABILITY_FLOOR
    for _ in range(nsteps):
        # strang_step raises on any realizability violation (hard error)
        U = strang_step(U, dt, system, diag, "thermal", None, cache)
        rho = U[..., 0]
        qn = np.linalg.norm(U[..., 1:4], axis=-1)
        assert np.all(rho >= floor * (1 - 1e-12))
        assert np.all(qn <= rho * (1 + 1e-12))
        # mirror symmetry about the strand axis x2 = 1.5, at every step
        worst_asym = max(
            worst_asym, float(np.max(np.abs(rho - rho[::-1, :]))) / float(rho.max())
        )
    mass1 = U[..., 0].sum() * sc.grid.cell_area
    drift = abs(mass1 - mass0) / mass0
    assert drift <= 1e-10
    assert worst_asym <= 1e-10
    report(5, "production run conservation/realizability/symmetry",
           time.perf_counter() - tic, 300,
           f"(steps {nsteps}, mass drift {drift:.1e}, mirror asym {worst_asym:.1e})")


@pytest.mark.slow
def test_criterion_6_diffusion_limit_convergence():
    tic = time.perf_counter()
    eps_list = [1.0, 0.5, 0.25, 0.1]
    rows = convergence_study(eps_list)
    maxes = [row["max_relerr"] for row in rows]
    assert all(a > b for a, b in zip(maxes, maxes[1:])), maxes
    # floor extrapolated toward eps -> 0.01 by Aitken's delta-squared on the
    # first three entries (eps ratio 2), clamped at zero
    x0, x1, x2 = maxes[:3]
    denom = x2 - 2 * x1 + x0
    floor = x2 - (x2 - x1) ** 2 / denom if abs(denom) > 1e-30 else 0.0
    floor = max(0.0, floor)
    assert maxes[3] > floor
    report(6, "diffusion-limit convergence", time.perf_counter() - tic, 900,
           f"(max relerr {[round(v, 4) for v in maxes]}, floor {floor:.4f})")


@pytest.mark.slow
def test_criterion_7_closure_hierarchy():
    """Anchoring the ansatz must improve the first-order model.

    The ordering is asserted on the mean relative difference and on the
    exceedance areas at the broad contour levels (0.02, 0.01), which is
    the currency of the contour comparisons; the single-cell maximum is
    reported but not ordered because it lands in the wall boundary layer
    (the blob leans against the left wall by t = T and the K1F/P1F/P3F
    re-emission ansatz differences concentrate in that one column).
    """
    tic = time.perf_counter()
    eps = 0.1
    runs = {}
    for model in ("P3F", "P1F", "P1"):
        cfg = RunConfig(nx=60, ny=60, model=model, eps=eps, times=(2.0,))
        sc = build_fiber_strand_scenario(eps, config=cfg)
        runs[model] = run_scenario(sc)
        assert runs[model].manifest["conservation"]["mass_drift_rel"] < 1e-10
    ref = runs["P3F"].final_rho
    grid = runs["P3F"].scenario.grid
    err_p1f = relative_difference(runs["P1F"].final_rho, ref, grid)
    err_p1 = relative_difference(runs["P1"].final_rho, ref, grid)
    assert err_p1f.mean < err_p1.mean
    assert err_p1f.areas[0.02] < err_p1.areas[0.02]
    assert err_p1f.areas[0.01] < err_p1.areas[0.01]
    report(7, "anchored closure improves on the standard one",
           time.perf_counter() - tic, 900,
           f"(mean {err_p1f.mean:.4f} < {err_p1.mean:.4f}, "
           f"area>2% {err_p1f.areas[0.02]:.3f} < {err_p1.areas[0.02]:.3f}, "
           f"max {err_p1f.max:.3f} vs {err_p1.max:.3f})")


def test_criterion_8_table_bookkeeping(tmp_path):
    tic = time.perf_counter()
    s = ScalingParams(
        t0=1.5768e7, c=2.1e-4, lambda0=1.0e-5, lambda1=2.5e-4,
        kplus=1.0e-5, kminus=1.0e-5, x0=1000.0,
    )
    assert abs(s.kn - 6.34e-3) / 6.34e-3 <= 0.005
    assert abs(s.eta - 25.0) / 25.0 <= 0.005

    # the reference length implied by the tabulated Strouhal number exceeds
    # the domain extent; the run manifest must surface that
    from moment_glioma.fields_io import write_tensor_field
    from moment_glioma.tissue import WaterTensorField

    rng = np.random.default_rng(1)
    grid = GridSpec(nx=8, ny=8, x0=50.0, y0=110.0, dx=12.5, dy=12.5)
    tensors = np.empty((8, 8, 3, 3))
    for iy in range(8):
        for ix in range(8):
            a = rng.normal(size=(3, 3)) * 1e-4
            tensors[iy, ix] = a @ a.T + 2e-4 * np.eye(3)
    path = tmp_path / "tensors.txt"
    write_tensor_field(path, WaterTensorField(grid, tensors))
    cfg = parse_config(
        f"""
[scenario]
name = tensor_file
tensor_file = {path}
estimator = CL

[model]
kind = diffusion

[initial]
center_x = 100.0
center_y = 160.0
half_width = 12.5

[output]
times = 1.5768e7

[physics]
preset = brain_dti
"""
    )
    out = run_scenario(scenario_from_config(cfg))
    notes = out.manifest["notes"]
    assert notes and "x0_domain_mismatch" in notes[0]
    assert notes[0]["x0_domain_mismatch"]["x0_mm"] == pytest.approx(1000.0)
    report(8, "characteristic-number bookkeeping + manifest",
           time.perf_counter() - tic, 60)
