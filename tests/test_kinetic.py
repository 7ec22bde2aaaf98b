"""Scaling bookkeeping, flux/source assembly, PN/first-order equivalence."""

import numpy as np
import pytest

from moment_glioma.closures import (
    MomentVector1,
    kershaw_closure,
    kershaw_jacobian_batch,
    pn_basis,
)
from moment_glioma.grid import GridSpec
from moment_glioma.kinetic import (
    ScalingError,
    build_cell_fields,
    compute_scaling,
    diffusion_fields,
)
from moment_glioma.quadrature import build_quadrature
from moment_glioma.systems import build_system
from moment_glioma.tissue import (
    WaterTensorField,
    derive_tissue_fields,
    peanut_node_values,
    peanut_pressure_tensor,
    synth_fiber_strand,
)

from cell_oracles import (
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

def test_first_order_flux_values():
    s = fiber_strand_params(0.5)
    DF = np.eye(3) / 3

    def closure(m):
        return kershaw_closure(m, DF)

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
        fx = first_order_flux(m, lambda mm: type("R", (), {"P": P}), "x", s.eps)
        src = first_order_source(m, P, cell, s)
        assert np.max(np.abs(out["flux_x"] - fx)) < 1e-10
        assert np.max(np.abs(out["source"] - src)) < 1e-10


# ---------------------------------------------------------------------------
# diffusion coefficients
# ---------------------------------------------------------------------------

def strand_cells(eps=0.25, n=24, X=3.0):
    params = fiber_strand_params(eps, X=X)
    grid = GridSpec(nx=n, ny=n, dx=1.0 / n, dy=1.0 / n)
    Xc, Yc = grid.cell_centers()
    water = synth_fiber_strand(X, 0.1, GridSpec(nx=n, ny=n, dx=X / n, dy=X / n))
    water = WaterTensorField(grid=grid, tensors=water.tensors)
    tissue = derive_tissue_fields(water, "FA", params)
    return build_cell_fields(water, tissue), params


def test_diffusion_coefficients_values(quad):
    cells, params = strand_cells(eps=0.5)
    grid = cells.grid
    fields = diffusion_fields(cells, params)
    assert np.allclose(
        np.trace(fields.D, axis1=-2, axis2=-1), 1.0 / params.r, atol=1e-12
    )
    # isotropic far-field corner: D = I/(3R), no drift contributions
    co = diffusion_coefficients(cells, params, ix=grid.nx - 1, iy=1)
    assert np.allclose(co["D"], np.eye(3) / (3 * params.r), atol=1e-8)
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
    cells = build_cell_fields(water, tissue)
    fields = diffusion_fields(cells, params)
    assert np.allclose(fields.drift, 0.0, atol=1e-12)
    assert np.allclose(fields.divD, 0.0, atol=1e-12)


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
    cells, params = strand_cells(eps=0.5, n=12)
    system = build_system("P1F", cells, params, quad)
    rng = np.random.default_rng(3)
    U = random_realizable_field(rng, (12, 12))
    fx = system.flux(U, 0)
    src = system.source(U)
    basis = pn_basis(1)
    for iy, ix in [(0, 0), (5, 7), (11, 11), (3, 9)]:
        F = peanut_node_values(cells.tensors[iy, ix], quad.nodes)
        out = pn_flux_and_source(
            U[iy, ix], tissue_cell(cells, ix, iy), params, basis, quad, F
        )
        assert np.max(np.abs(fx[iy, ix] - out["flux_x"])) < 1e-10
        assert np.max(np.abs(src[iy, ix] - out["source"])) < 1e-9


def test_kershaw_system_source_matches_op(quad):
    cells, params = strand_cells(eps=0.25, n=12)
    system = build_system("K1F", cells, params, quad)
    rng = np.random.default_rng(4)
    U = random_realizable_field(rng, (12, 12))
    src = system.source(U)
    assert np.allclose(src[..., 0], 0.0, atol=1e-15)
    for iy, ix in [(2, 3), (8, 1)]:
        m = MomentVector1(U[iy, ix, 0], U[iy, ix, 1:])
        P = kershaw_closure(m, cells.DF[iy, ix]).P
        expect = first_order_source(m, P, tissue_cell(cells, ix, iy), params)
        assert np.max(np.abs(src[iy, ix] - expect)) < 1e-12


def test_kershaw_source_jacobian_fd(quad):
    cells, params = strand_cells(eps=0.5, n=6)
    system = build_system("K1F", cells, params, quad)
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
    from moment_glioma.closures import m1f_closure

    cells, params = strand_cells(eps=0.5, n=6)
    system = build_system("M1F", cells, params, quad)
    rng = np.random.default_rng(9)
    U = random_realizable_field(rng, (6, 6), qmax=0.6)
    fx = system.flux(U, 0)
    assert system.fallback_count == 0
    for iy, ix in [(0, 0), (4, 5)]:
        m = MomentVector1(U[iy, ix, 0], U[iy, ix, 1:])
        F = peanut_node_values(cells.tensors[iy, ix], quad.nodes)
        P = m1f_closure(m, F, quad).P
        assert np.max(np.abs(fx[iy, ix, 1:] - P[:, 0] / params.eps)) < 1e-8


def test_m1f_source_jacobian_fd(quad):
    cells, params = strand_cells(eps=0.5, n=4)
    system = build_system("M1F", cells, params, quad)
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
    cells, params = strand_cells(eps=0.25, n=10)
    for kind in ("P1", "P1F", "P3F"):
        system = build_system(kind, cells, params, quad)
        U = system.initial_state(np.ones((10, 10)))
        lam, R, Rinv, weight = system.char_data(U, 0)
        assert np.all(weight == 1.0)
        assert np.all(np.diff(lam, axis=-1) >= 0)
        eye = np.einsum("yxij,yxjk->yxik", R, Rinv)
        assert np.max(np.abs(eye - np.eye(system.nvars))) < 1e-9


@pytest.mark.parametrize("kind", ["K1F", "M1F", "P3F"])
def test_flux_of_stacked_face_sets_matches_one_set_at_a_time(quad, kind):
    # the solver passes both face sets of an axis in one flux call; K1F and
    # M1F (one dual solve per set) must give bitwise what separate calls give
    cells, params = strand_cells(eps=0.5, n=6)
    system = build_system(kind, cells, params, quad)
    rng = np.random.default_rng(21)
    if system.nvars == 4:
        sets = [random_realizable_field(rng, (6, 6), qmax=0.6) for _ in range(2)]
    else:
        sets = [system.initial_state(rng.uniform(0.2, 2.0, (6, 6))) for _ in range(2)]
        sets = [U + 0.01 * rng.normal(size=U.shape) for U in sets]
    for axis in (0, 1):
        stacked = system.flux(np.stack(sets), axis)
        one_by_one = np.stack([system.flux(U, axis) for U in sets])
        if kind == "P3F":  # one matmul with two columns: rounding may differ
            assert np.max(np.abs(stacked - one_by_one)) <= 1e-15 * np.max(np.abs(one_by_one))
        else:
            assert np.array_equal(stacked, one_by_one)


def test_flux_jacobian_consistency_kershaw(quad):
    # finite-difference check of the analytic Kershaw flux Jacobian
    cells, params = strand_cells(eps=0.5, n=4)
    system = build_system("K1F", cells, params, quad)
    rng = np.random.default_rng(15)
    U = random_realizable_field(rng, (4, 4), qmax=0.6)
    for axis in (0, 1):
        J = kershaw_jacobian_batch(U[..., 0], U[..., 1:], cells.DF, axis) / params.eps
        h = 1e-7
        for k in range(4):
            dU = np.zeros_like(U)
            dU[..., k] = h
            fd = (system.flux(U + dU, axis) - system.flux(U - dU, axis)) / (2 * h)
            assert np.max(np.abs(J[..., :, k] - fd)) < 1e-4


def test_build_system_rejects_unknown(quad):
    cells, params = strand_cells(eps=0.5, n=4)
    from moment_glioma.systems import MomentSystemError

    with pytest.raises(MomentSystemError):
        build_system("Q7", cells, params, quad)
