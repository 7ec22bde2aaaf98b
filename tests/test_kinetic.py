"""Scaling bookkeeping, flux/source assembly, PN/first-order equivalence."""

import tracemalloc

import numpy as np
import pytest

from moment_glioma import systems
from moment_glioma.closures import kershaw_jacobian, kershaw_pressure_batch, pn_basis
from moment_glioma.config import RunConfig
from moment_glioma.grid import GridSpec
from moment_glioma.diffusion import build_diffusion_fields
from moment_glioma.kinetic import ScalingError, anchor_nodes_for, compute_scaling
from moment_glioma.quadrature import build_quadrature
from moment_glioma.scenarios import build_fiber_strand_scenario
from moment_glioma.solver import SolverConfig, source_propagator, strang_step
from moment_glioma.systems import build_system
from moment_glioma.tissue import (
    WaterTensorField,
    derive_tissue_fields,
    peanut_node_values,
    peanut_pressure_tensor,
    synth_fiber_strand,
)

from cell_oracles import (
    MomentVector1,
    TissueCell,
    diffusion_coefficients,
    first_order_flux,
    first_order_source,
    pn_flux_and_source,
    tissue_cell,
)


@pytest.fixture(scope="module")
def quad():
    return build_quadrature(10)


def fiber_strand_params(eps, X=3.0, T=2.0):
    lam0 = 1.0 / (eps**2 * T)
    return compute_scaling(
        T=T, c=X / (eps * T), lambda0=lam0, lambda1=lam0, kplus=lam0, kminus=lam0, x0=X
    )


# ---------------------------------------------------------------------------
# scaling
# ---------------------------------------------------------------------------

def test_table_parameters():
    s = compute_scaling(
        T=1.5768e7, c=2.1e-4, lambda0=1.0e-5, lambda1=2.5e-4,
        kplus=1.0e-5, kminus=1.0e-5, x0=1000.0,
    )
    assert s.kn == pytest.approx(6.34e-3, rel=5e-3)
    assert s.eta == pytest.approx(25.0, rel=1e-12)
    assert s.eps == pytest.approx(3.02e-1, rel=5e-3)
    assert s.r == pytest.approx(1.44e1, rel=5e-3)


def test_fiber_strand_scaling():
    for eps in (1.0, 0.25, 0.01):
        s = fiber_strand_params(eps)
        assert s.eps == pytest.approx(eps, rel=1e-12)
        assert s.r == pytest.approx(1.0, rel=1e-12)
        assert s.eta == pytest.approx(1.0, rel=1e-12)


def test_scaling_rejects_nonpositive():
    with pytest.raises(ScalingError):
        compute_scaling(T=0.0, c=1, lambda0=1, lambda1=1, kplus=1, kminus=1, x0=1)


# ---------------------------------------------------------------------------
# first-order flux and source
# ---------------------------------------------------------------------------

def kershaw_P(m, DF):
    """The batched Kershaw pressure kernel on one cell, rho clamped as in
    KershawSystem."""
    rho = np.array([max(m.rho, 1e-300)])
    return kershaw_pressure_batch(rho, m.q[None], DF[None])[0]


def test_first_order_flux_values():
    s = fiber_strand_params(0.5)
    DF = np.eye(3) / 3

    def closure(m):
        return kershaw_P(m, DF)

    m = MomentVector1(1.5, np.zeros(3))
    fx = first_order_flux(m, closure, "x", s.eps)
    assert np.allclose(fx, [0.0, 1.5 / 3 / s.eps, 0.0, 0.0], atol=1e-14)
    zero = first_order_flux(MomentVector1(0.0, np.zeros(3)), closure, "y", s.eps)
    assert np.allclose(zero, 0.0, atol=1e-15)
    m2 = MomentVector1(1.0, np.array([0.2, -0.1, 0.05]))
    for d, idx in (("x", 0), ("y", 1)):
        assert first_order_flux(m2, closure, d, s.eps)[0] == pytest.approx(
            m2.q[idx] / s.eps
        )


def test_first_order_source_values():
    s = fiber_strand_params(1.0)
    cell0 = TissueCell(m1=np.zeros(3), lamH=1.0, gradQ=np.zeros(3))
    src = first_order_source(
        MomentVector1(1.0, np.zeros(3)), np.eye(3) / 3, cell0, s
    )
    assert np.allclose(src, 0.0, atol=1e-15)
    # pure relaxation
    m = MomentVector1(1.0, np.array([0.2, 0.1, 0.0]))
    src = first_order_source(m, np.eye(3) / 3, cell0, s)
    assert np.allclose(src[1:], -(s.r / s.eps**2) * m.q, atol=1e-14)
    assert src[0] == 0.0
    # haptotaxis drives momentum up the volume-fraction gradient:
    # P gradQ = (g/3, 0, 0) for P = I/3 (sign fixed by the diffusion limit)
    g = 0.7
    cell = TissueCell(m1=np.zeros(3), lamH=1.0, gradQ=np.array([g, 0.0, 0.0]))
    src = first_order_source(MomentVector1(1.0, np.zeros(3)), np.eye(3) / 3, cell, s)
    assert np.allclose(src[1:], [g / 3, 0.0, 0.0], atol=1e-14)


def test_first_order_source_general_anchor_terms():
    s = fiber_strand_params(0.5)
    m1 = np.array([0.1, -0.05, 0.0])
    cell = TissueCell(m1=m1, lamH=0.8, gradQ=np.array([0.3, -0.2, 0.0]))
    m = MomentVector1(1.2, np.array([0.1, 0.2, -0.1]))
    P = 1.2 * np.eye(3) / 3
    src = first_order_source(m, P, cell, s)
    expect = -(s.r / s.eps**2) * (m.q - m.rho * m1) + (s.eta / s.eps) * 0.8 * (
        P @ cell.gradQ - m1 * float(m.q @ cell.gradQ)
    )
    assert np.allclose(src[1:], expect, atol=1e-13)


# ---------------------------------------------------------------------------
# higher-order projection
# ---------------------------------------------------------------------------

def test_pn_source_annihilates_equilibrium(quad):
    rng = np.random.default_rng(5)
    s = fiber_strand_params(0.25)
    a = rng.normal(size=(3, 3))
    d_w = a @ a.T + 0.1 * np.eye(3)
    F = peanut_node_values(d_w, quad.nodes)
    for N in (1, 2, 3):
        basis = pn_basis(N)
        rho = 1.3
        u_eq = rho * (basis.evaluate(quad.nodes).T @ (quad.weights * F))
        cell = TissueCell(m1=np.zeros(3), lamH=0.5, gradQ=np.zeros(3))
        out = pn_flux_and_source(u_eq, cell, s, basis, quad, F)
        assert np.max(np.abs(out["source"])) < 1e-12 * (s.r / s.eps**2)


def test_pn_source_conserves_mass(quad):
    rng = np.random.default_rng(8)
    s = fiber_strand_params(0.5)
    d_w = np.diag([4.0, 1.0, 0.5])
    F = peanut_node_values(d_w, quad.nodes)
    basis = pn_basis(3)
    cell = TissueCell(m1=np.zeros(3), lamH=0.9, gradQ=np.array([0.4, -0.3, 0.0]))
    for _ in range(10):
        density = 0.5 + 0.3 * rng.uniform(-1, 1) * quad.nodes[:, 0] + 0.2 * rng.uniform(
            -1, 1
        ) * quad.nodes[:, 2] ** 2
        u = basis.evaluate(quad.nodes).T @ (quad.weights * density)
        out = pn_flux_and_source(u, cell, s, basis, quad, F)
        assert abs(out["source"][0]) < 1e-12


def test_pn_n1_matches_first_order(quad):
    # cross-module oracle: the N=1 projection with the peanut anchor must
    # reproduce the dedicated first-order flux and source
    rng = np.random.default_rng(17)
    s = fiber_strand_params(0.25)
    basis = pn_basis(1)
    for _ in range(10):
        a = rng.normal(size=(3, 3))
        d_w = a @ a.T + 0.1 * np.eye(3)
        F = peanut_node_values(d_w, quad.nodes)
        rho = rng.uniform(0.3, 2.0)
        q = rho * 0.5 * rng.uniform(-1, 1, size=3) / np.sqrt(3)
        u = np.concatenate([[rho], q])
        cell = TissueCell(
            m1=np.zeros(3),
            lamH=rng.uniform(0.1, 1.0),
            gradQ=np.array([rng.uniform(-1, 1), rng.uniform(-1, 1), 0.0]),
        )
        out = pn_flux_and_source(u, cell, s, basis, quad, F)
        m = MomentVector1(rho, q)
        # P1F pressure for a symmetric anchor is rho*D_F
        P = rho * peanut_pressure_tensor(d_w)
        fx = first_order_flux(m, lambda mm: P, "x", s.eps)
        src = first_order_source(m, P, cell, s)
        assert np.max(np.abs(out["flux_x"] - fx)) < 1e-10
        assert np.max(np.abs(out["source"] - src)) < 1e-10


# ---------------------------------------------------------------------------
# diffusion coefficients
# ---------------------------------------------------------------------------

def strand_tissue(eps=0.25, n=24, X=3.0):
    params = fiber_strand_params(eps, X=X)
    grid = GridSpec(nx=n, ny=n, dx=1.0 / n, dy=1.0 / n)
    Xc, Yc = grid.cell_centers()
    water = synth_fiber_strand(X, 0.1, GridSpec(nx=n, ny=n, dx=X / n, dy=X / n))
    water = WaterTensorField(grid=grid, tensors=water.tensors)
    return derive_tissue_fields(water, "FA", params), params


def test_diffusion_coefficients_values(quad):
    tissue, params = strand_tissue(eps=0.5)
    grid = tissue.grid
    fields = build_diffusion_fields(tissue, params)
    assert np.allclose(np.trace(tissue.DF, axis1=-2, axis2=-1), 1.0, atol=1e-12)
    # isotropic far-field corner: D = I/(3R), no drift contributions
    co = diffusion_coefficients(tissue, params, ix=grid.nx - 1, iy=1)
    assert np.allclose(co["D"], np.eye(3) / (3 * params.r), atol=1e-8)
    # the solver's D is the in-plane block of D_F/R in every cell
    for iy, ix in [(1, grid.nx - 1), (12, 5), (0, 0)]:
        D = diffusion_coefficients(tissue, params, ix=ix, iy=iy)["D"]
        assert np.array_equal(fields.D[iy, ix], D[:2, :2])
    # Table-1 style value: D_W = I and R = 14.4 gives D = I/43.2
    s = compute_scaling(
        T=1.5768e7, c=2.1e-4, lambda0=1.0e-5, lambda1=2.5e-4,
        kplus=1.0e-5, kminus=1.0e-5, x0=1000.0,
    )
    iso = peanut_pressure_tensor(np.eye(3)) / s.r
    assert np.allclose(iso, np.eye(3) / (3 * s.r), atol=1e-15)


def test_homogeneous_tissue_zero_drift(quad):
    params = fiber_strand_params(0.5)
    grid = GridSpec(nx=8, ny=8, dx=0.125, dy=0.125)
    tensors = np.broadcast_to(np.diag([2.0, 1.0, 1.0]), (8, 8, 3, 3)).copy()
    water = WaterTensorField(grid, tensors)
    tissue = derive_tissue_fields(water, "FA", params)
    fields = build_diffusion_fields(tissue, params)
    assert np.allclose(fields.drift, 0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# assembled systems: equivalences and invariants
# ---------------------------------------------------------------------------

def random_realizable_field(rng, shape, qmax=0.5):
    rho = rng.uniform(0.2, 2.0, size=shape)
    direction = rng.normal(size=shape + (3,))
    direction /= np.linalg.norm(direction, axis=-1, keepdims=True)
    r = rng.uniform(0, qmax, size=shape)
    U = np.empty(shape + (4,))
    U[..., 0] = rho
    U[..., 1:] = rho[..., None] * r[..., None] * direction
    return U


def test_p1f_system_matches_pn_op(quad):
    tissue, params = strand_tissue(eps=0.5, n=12)
    system = build_system("P1F", tissue, params, quad)
    rng = np.random.default_rng(3)
    U = random_realizable_field(rng, (12, 12))
    # with zero differences both faces are U and carry the cell flux A_x U
    cols = np.zeros(U.shape + (3,))
    cols[..., 0] = U
    f_lo, f_hi, fx, fx_hi, _, _ = system.faces(system.char_data(U)[0], 0, cols, 0.1, 1e-12)
    assert np.array_equal(f_lo, U) and np.array_equal(f_hi, U) and np.array_equal(fx, fx_hi)
    src = np.einsum("yxkj,yxj->yxk", system.source_matrix(), U)
    basis = pn_basis(1)
    for iy, ix in [(0, 0), (5, 7), (11, 11), (3, 9)]:
        F = peanut_node_values(tissue.tensors[iy, ix], quad.nodes)
        out = pn_flux_and_source(
            U[iy, ix], tissue_cell(tissue, ix, iy), params, basis, quad, F
        )
        assert np.max(np.abs(fx[iy, ix] - out["flux_x"])) < 1e-10
        assert np.max(np.abs(src[iy, ix] - out["source"])) < 1e-9


def test_kershaw_system_source_matches_op(quad):
    tissue, params = strand_tissue(eps=0.25, n=12)
    system = build_system("K1F", tissue, params, quad)
    rng = np.random.default_rng(4)
    U = random_realizable_field(rng, (12, 12))
    src = system.source(U)
    assert np.allclose(src[..., 0], 0.0, atol=1e-15)
    for iy, ix in [(2, 3), (8, 1)]:
        m = MomentVector1(U[iy, ix, 0], U[iy, ix, 1:])
        P = kershaw_P(m, tissue.DF[iy, ix])
        expect = first_order_source(m, P, tissue_cell(tissue, ix, iy), params)
        assert np.max(np.abs(src[iy, ix] - expect)) < 1e-12


def test_kershaw_source_jacobian_fd(quad):
    tissue, params = strand_tissue(eps=0.5, n=6)
    system = build_system("K1F", tissue, params, quad)
    rng = np.random.default_rng(6)
    U = random_realizable_field(rng, (6, 6))
    J = system.source_jacobian(U)
    h = 1e-6
    for k in range(4):
        dU = np.zeros_like(U)
        dU[..., k] = h
        fd = (system.source(U + dU) - system.source(U - dU)) / (2 * h)
        assert np.max(np.abs(J[..., :, k] - fd)) < 1e-5


def test_m1f_system_matches_closure_op(quad):
    # the system's closure is f = rho wF exp(v.beta - lognorm) on the nodes,
    # with (beta, lognorm) from the dual solve; it must reproduce (rho, q)
    # and give the flux columns rho <v v_x f>/eps
    tissue, params = strand_tissue(eps=0.5, n=6)
    system = build_system("M1F", tissue, params, quad)
    rng = np.random.default_rng(9)
    U = random_realizable_field(rng, (6, 6), qmax=0.6)
    fx = system.flux(U, 0)
    assert system.fallback_count == 0
    _, _, _, gmass, beta, lognorm, failed = system._closure(U)
    assert not failed.any()
    V = quad.nodes
    for iy, ix in [(0, 0), (4, 5)]:
        c = iy * 6 + ix
        rho, q = U[iy, ix, 0], U[iy, ix, 1:]
        wF = quad.weights * peanut_node_values(tissue.tensors[iy, ix], V)
        f = rho * wF * np.exp(V @ beta[c] - lognorm[c])
        assert np.max(np.abs(gmass[c] - f)) <= 1e-13 * rho
        assert abs(f.sum() - rho) <= 1e-10 * rho
        assert np.max(np.abs(f @ V - q)) <= 1e-10 * rho
        P = np.einsum("n,ni,nj->ij", f, V, V)
        assert np.max(np.abs(fx[iy, ix, 1:] - P[:, 0] / params.eps)) < 1e-12


def test_m1f_stored_dual_starts_give_the_bits_of_a_fresh_system(quad):
    # every closure solve starts from the grid's or its side's stored start;
    # a solve that wrote into one would change the next call's bits
    tissue, params = strand_tissue(eps=0.5, n=8)
    system, fresh = (build_system("M1F", tissue, params, quad) for _ in range(2))
    rng = np.random.default_rng(13)
    U = random_realizable_field(rng, (8, 8), qmax=0.8)
    first, second, new = system._closure(U), system._closure(U), fresh._closure(U)
    assert system.closure_iterations == 2 * fresh.closure_iterations > 0
    for a, b, c in zip(first[1:], second[1:], new[1:]):
        assert np.array_equal(a, b) and np.array_equal(a, c)
    for side in ("left", "right", "bottom", "top"):
        U_edge = U[systems.edge_slice(side)]
        first, second = (system.boundary_flux(side, U_edge) for _ in range(2))
        assert np.array_equal(first, second)
        assert np.array_equal(first, fresh.boundary_flux(side, U_edge))
    with pytest.raises(systems.MomentSystemError, match=r"grid-shaped.*\(2, 8, 8, 4\)"):
        system._closure(np.stack([U, U]))


def test_m1f_source_jacobian_fd(quad):
    tissue, params = strand_tissue(eps=0.5, n=4)
    system = build_system("M1F", tissue, params, quad)
    rng = np.random.default_rng(12)
    U = random_realizable_field(rng, (4, 4), qmax=0.4)
    J = system.source_jacobian(U)
    h = 1e-6
    for k in range(4):
        dU = np.zeros_like(U)
        dU[..., k] = h
        fd = (system.source(U + dU) - system.source(U - dU)) / (2 * h)
        assert np.max(np.abs(J[..., :, k] - fd)) < 2e-4


def test_linear_system_wave_speeds_and_char(quad):
    tissue, params = strand_tissue(eps=0.25, n=10)
    for kind in ("P1", "P1F", "P3F"):
        system = build_system(kind, tissue, params, quad)
        U = system.initial_state(np.ones((10, 10)))
        lam, R, Rinv = system.char_data(U)[0]
        assert np.all(np.diff(lam, axis=-1) >= 0)
        eye = np.einsum("yxij,yxjk->yxik", R, Rinv)
        assert np.max(np.abs(eye - np.eye(system.nvars))) < 1e-9


@pytest.mark.parametrize("kind", ["K1F", "M1F"])
def test_flux_of_stacked_face_sets_matches_one_set_at_a_time(quad, kind):
    # first-order `faces` passes both face sets of an axis in one flux call;
    # K1F and M1F (one dual solve per set) must give bitwise what separate
    # calls give
    tissue, params = strand_tissue(eps=0.5, n=6)
    system = build_system(kind, tissue, params, quad)
    rng = np.random.default_rng(21)
    sets = [random_realizable_field(rng, (6, 6), qmax=0.6) for _ in range(2)]
    for axis in (0, 1):
        stacked = system.flux(np.stack(sets), axis)
        one_by_one = np.stack([system.flux(U, axis) for U in sets])
        assert np.array_equal(stacked, one_by_one)


def test_flux_jacobian_consistency_kershaw(quad):
    # finite-difference check of the analytic Kershaw flux Jacobian
    tissue, params = strand_tissue(eps=0.5, n=4)
    system = build_system("K1F", tissue, params, quad)
    rng = np.random.default_rng(15)
    U = random_realizable_field(rng, (4, 4), qmax=0.6)
    for axis in (0, 1):
        J = kershaw_jacobian(U[..., 0], U[..., 1:], tissue.DF, np.eye(3)[axis]) / params.eps
        h = 1e-7
        for k in range(4):
            dU = np.zeros_like(U)
            dU[..., k] = h
            fd = (system.flux(U + dU, axis) - system.flux(U - dU, axis)) / (2 * h)
            assert np.max(np.abs(J[..., :, k] - fd)) < 1e-4


def test_build_system_rejects_unknown(quad):
    tissue, params = strand_tissue(eps=0.5, n=4)
    from moment_glioma.systems import MomentSystemError

    with pytest.raises(MomentSystemError):
        build_system("Q7", tissue, params, quad)


# ---------------------------------------------------------------------------
# tiled P_N setup and DG propagator
# ---------------------------------------------------------------------------

def strand_inputs(kind, nx, ny):
    """Tissue fields and scaling of an nx x ny fiber strand at eps = 0.25."""
    cfg = RunConfig(nx=nx, ny=ny, model=kind, eps=0.25, times=(0.5,))
    sc = build_fiber_strand_scenario(0.25, config=cfg)
    return sc.tissue(), sc.params


def linear_system_arrays(system):
    arrays = {"mQ": system.mQ}
    for d, (lam, R, Rinv) in enumerate(system.char_data(None)):
        arrays.update({f"lam{d}": lam, f"R{d}": R, f"Rinv{d}": Rinv})
    for side, ops in system._edges.items():
        arrays[f"M_{side}"] = ops.ops["M"]
    return arrays


def tiled_source_matrix(system):
    """S assembled one `systems.tiles` row tile at a time, as the propagator
    build does."""
    ny, nx, m = system.mQ.shape
    return np.concatenate(
        [system.source_matrix(rows) for rows in systems.tiles(ny, nx * m * m * 8)]
    )


@pytest.mark.parametrize("kind", ["P3F", "P5F"])
def test_linear_system_and_propagator_do_not_depend_on_the_tiling(quad, kind, monkeypatch):
    # 7 rows: not a multiple of the 3-row tile
    nx, ny = 5, 7
    tissue, params = strand_inputs(kind, nx, ny)
    m = pn_basis(int(kind[1])).Kr
    row_bytes = nx * m * m * 8
    results = {}
    for name, budget, n_tiles in (
        ("one row", 1, ny), ("three rows", 3 * row_bytes, 3), ("whole", 1 << 40, 1)
    ):
        monkeypatch.setattr(systems, "_TILE_BYTES", budget)
        assert len(systems.tiles(ny, row_bytes)) == n_tiles
        system = build_system(kind, tissue, params, quad)
        arrays = linear_system_arrays(system)
        arrays["S tiles"] = tiled_source_matrix(system)
        arrays["propagator"] = source_propagator(system, 0.037, (ny, nx))
        results[name] = arrays
    whole = results["whole"]
    for name in ("one row", "three rows"):
        for key, value in whole.items():
            assert np.array_equal(results[name][key], value), (name, key)


def flux_matrix_oracle(tissue, params, quad, kind, d):
    """A_d = solve(G, B_d)^T / eps per cell, from the moment integrals."""
    ared = pn_basis(int(kind[1])).evaluate_reduced(quad.nodes)
    wF = quad.weights * anchor_nodes_for(tissue.tensors, quad.nodes, not kind.endswith("F"))
    G = np.einsum("yxn,nk,nj->yxkj", wF, ared, ared)
    B = np.einsum("yxn,nk,nj->yxkj", wF * quad.nodes[:, d], ared, ared)
    return np.swapaxes(np.linalg.solve(G, B), -1, -2) / params.eps


@pytest.mark.parametrize("kind", ["P3F", "P5F"])
def test_source_tiles_match_the_flux_matrix_formula(quad, kind):
    # S = r/eps^2 (mQ e0^T - I) + eta/eps lamH (sum_d g3_d eps A_d - mQ g^T),
    # mass row zero, with A_d from solve(G, B_d); the system sums
    # R_d Lambda_d R_d^-1 instead of holding A_d
    n = 12
    tissue, params = strand_inputs(kind, n, n)
    system = build_system(kind, tissue, params, quad)
    eps, m = params.eps, system.nvars
    mQ, g3 = system.mQ, tissue.gradQ3
    grow = np.zeros(mQ.shape)
    grow[..., 1:4] = g3
    e0 = np.eye(m)[0]
    adv = sum(
        g3[..., d, None, None] * (eps * flux_matrix_oracle(tissue, params, quad, kind, d))
        for d in (0, 1)
    )
    S = (params.r / eps**2) * (mQ[..., :, None] * e0[None, :] - np.eye(m))
    S = S + (params.eta / eps) * tissue.lamH[..., None, None] * (
        adv - mQ[..., :, None] * grow[..., None, :]
    )
    S[..., 0, :] = 0.0
    got = tiled_source_matrix(system)
    assert np.max(np.abs(got - S)) <= 1e-13 * np.max(np.abs(S))
    assert np.array_equal(system.source_matrix(), got)


@pytest.mark.parametrize("kind, n", [("P3F", 40), ("P5F", 16)])
def test_linear_setup_peak_memory_is_bounded_by_what_it_holds(quad, kind, n):
    # setup and propagator temporaries are tiled by bytes, so the traced
    # peak stays within half again of the arrays the time step holds
    tissue, params = strand_inputs(kind, n, n)
    tracemalloc.start()
    try:
        system = build_system(kind, tissue, params, quad)
        propagator = source_propagator(system, 1e-3, (n, n))
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert propagator.shape == (n, n, system.nvars, system.nvars)
    assert peak <= 1.5 * held, (peak / held, held)


def test_p3f_step_peak_memory_is_five_arrays_per_cell(quad):
    # a P_N run holds R and R^-1 of both axes and the DG propagator, five
    # m x m arrays per cell; setup, propagator and one Strang step peak at
    # about 1.3 times that (holding the flux and source matrices as well,
    # eight arrays, peaks at about 2.0 times it)
    n = 40
    cfg = RunConfig(nx=n, ny=n, model="P3F", eps=0.25, times=(0.5,))
    sc = build_fiber_strand_scenario(0.25, config=cfg)
    tissue = sc.tissue()
    U = None
    tracemalloc.start()
    try:
        system = build_system("P3F", tissue, sc.params, quad)
        U = system.initial_state(sc.rho0)
        dt = 0.25 * sc.grid.dx / system.wave_speed
        U = strang_step(U, dt, system, sc.grid, SolverConfig(t_end=dt))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.isfinite(U).all()
    five_arrays = 5 * n * n * system.nvars**2 * 8
    assert peak <= 1.45 * five_arrays, peak / five_arrays
