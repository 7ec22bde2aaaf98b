"""Scaling bookkeeping, flux/source assembly, PN/first-order equivalence."""

import dataclasses
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from moment_glioma import closures, systems
from moment_glioma.closures import (
    kershaw_acoustic_offsets,
    kershaw_jacobian,
    kershaw_pressure_batch,
    pn_basis,
)
from moment_glioma.config import PHYSICS_PRESETS, RunConfig
from moment_glioma.grid import GridSpec
from moment_glioma.diffusion import build_diffusion_fields
from moment_glioma.kinetic import ScalingError, ScalingParams, anchor_nodes_for
from moment_glioma.quadrature import build_quadrature
from moment_glioma.scenarios import build_fiber_strand_scenario
from moment_glioma.solver import source_propagator
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
    k1f_axis_slab,
    k1f_projector_oracle,
    k1f_waves_rows,
    planes,
    pn_flux_and_source,
    require_wide_long_double,
    rows,
    strang_step,
    tissue_cell,
)
from golden_cases import ANISO_SEED, anisotropic_tensors, tensor_file_scenario


@pytest.fixture(scope="module")
def quad():
    return build_quadrature(10)


def fiber_strand_params(eps, X=3.0, T=2.0):
    lam0 = 1.0 / (eps**2 * T)
    return ScalingParams(
        t0=T, c=X / (eps * T), lambda0=lam0, lambda1=lam0, kplus=lam0, kminus=lam0, x0=X
    )


# ---------------------------------------------------------------------------
# scaling
# ---------------------------------------------------------------------------

def test_table_parameters():
    s = ScalingParams(
        t0=1.5768e7, c=2.1e-4, lambda0=1.0e-5, lambda1=2.5e-4,
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


SCALING_INPUTS = ("t0", "c", "lambda0", "lambda1", "kplus", "kminus", "x0")


def brain_dti_params():
    p = PHYSICS_PRESETS["brain_dti"]
    return ScalingParams(
        t0=p["T_s"], c=p["c_mm_s"], lambda0=p["lambda0_per_s"], lambda1=p["lambda1_per_s"],
        kplus=p["kplus_per_s"], kminus=p["kminus_per_s"], x0=p["x0_mm"],
    )


def test_scaling_init_fields_are_the_seven_inputs():
    assert tuple(f.name for f in dataclasses.fields(ScalingParams) if f.init) == SCALING_INPUTS


@pytest.mark.parametrize(
    "make", [brain_dti_params, lambda: fiber_strand_params(0.25)], ids=["brain_dti", "strand"]
)
def test_scaling_derives_the_four_numbers(make):
    s = make()
    for t in (s, replace(s, c=3.0 * s.c, lambda0=0.5 * s.lambda0)):
        st = t.x0 / (t.t0 * t.c)
        kn = 1.0 / (t.t0 * t.lambda0)
        assert t.eps == st
        assert t.kn == kn
        assert t.eta == t.lambda1 / t.lambda0
        assert t.r == st * st / kn


def test_scaling_rejects_nonpositive():
    valid = fiber_strand_params(0.5)
    for name in SCALING_INPUTS:
        for bad in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ScalingError, match=f"^{name} must be positive, got {bad}$"):
                replace(valid, **{name: bad})


@pytest.mark.parametrize(
    "inputs, message",
    [
        (dict(t0=1e-200, c=1e-200), "eps must be positive, got inf"),  # t0 c underflows to 0
        (dict(t0=1e200, c=1e-300, lambda0=1e-300, x0=1e300), "eps must be positive, got inf"),
        (dict(t0=1e-200, lambda0=1e-200), "kn must be positive, got inf"),
        (dict(t0=1e200, lambda0=1e200), "kn must be positive, got 0.0"),  # t0 lambda0 = inf
        (dict(lambda1=1e-300, lambda0=1e300), "eta must be positive, got 0.0"),
        (dict(lambda1=1e300, lambda0=1e-300), "eta must be positive, got inf"),
        (dict(x0=1e200), "r must be positive, got inf"),
    ],
)
def test_scaling_rejects_underflow_and_overflow(inputs, message):
    with pytest.raises(ScalingError, match=f"^{message}$"):
        ScalingParams(**{name: 1.0 for name in SCALING_INPUTS} | inputs)


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
        u_eq = rho * (basis.evaluate_reduced(quad.nodes).T @ (quad.weights * F))
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
        u = basis.evaluate_reduced(quad.nodes).T @ (quad.weights * density)
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


def test_diffusion_coefficients_values():
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
    s = ScalingParams(
        t0=1.5768e7, c=2.1e-4, lambda0=1.0e-5, lambda1=2.5e-4,
        kplus=1.0e-5, kminus=1.0e-5, x0=1000.0,
    )
    iso = peanut_pressure_tensor(np.eye(3)) / s.r
    assert np.allclose(iso, np.eye(3) / (3 * s.r), atol=1e-15)


def test_homogeneous_tissue_zero_drift():
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
    system = build_system("P1F", tissue, params)
    rng = np.random.default_rng(3)
    U = random_realizable_field(rng, (12, 12))
    # with zero differences both faces are U and carry the cell flux A_x U
    # along x (and A_y U along y)
    cols = np.zeros((2,) + U.shape[:-1] + (3, U.shape[-1]))
    cols[..., 0, :] = U
    f_lo, f_hi, F_lo, F_hi, _, _ = system.faces(system.char_data(U), cols, (0.1, 0.1))
    assert np.array_equal(f_lo, [U, U]) and np.array_equal(f_hi, [U, U])
    assert np.array_equal(F_lo, F_hi)
    fx = F_lo[0]
    src = np.einsum("yxkj,yxj->yxk", system.source_matrix(slice(None)), U)
    basis = pn_basis(1)
    for iy, ix in [(0, 0), (5, 7), (11, 11), (3, 9)]:
        F = peanut_node_values(tissue.tensors[iy, ix], quad.nodes)
        out = pn_flux_and_source(
            U[iy, ix], tissue_cell(tissue, ix, iy), params, basis, quad, F
        )
        assert np.max(np.abs(fx[iy, ix] - out["flux_x"])) < 1e-10
        assert np.max(np.abs(src[iy, ix] - out["source"])) < 1e-9


def test_kershaw_system_source_matches_op():
    tissue, params = strand_tissue(eps=0.25, n=12)
    system = build_system("K1F", tissue, params)
    rng = np.random.default_rng(4)
    U = random_realizable_field(rng, (12, 12))
    src = system.source(U)
    assert np.allclose(src[..., 0], 0.0, atol=1e-15)
    for iy, ix in [(2, 3), (8, 1)]:
        m = MomentVector1(U[iy, ix, 0], U[iy, ix, 1:])
        P = kershaw_P(m, tissue.DF[iy, ix])
        expect = first_order_source(m, P, tissue_cell(tissue, ix, iy), params)
        assert np.max(np.abs(src[iy, ix] - expect)) < 1e-12


def test_kershaw_source_jacobian_fd():
    tissue, params = strand_tissue(eps=0.5, n=6)
    system = build_system("K1F", tissue, params)
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
    system = build_system("M1F", tissue, params)
    rng = np.random.default_rng(9)
    U = random_realizable_field(rng, (6, 6), qmax=0.6)
    fx = rows(system.flux(planes(np.stack((U, U))))[:, 0])  # U along x and along y
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


def test_m1f_stored_dual_starts_give_the_bits_of_a_fresh_system():
    # every closure solve starts from the grid's or its side's stored start;
    # a solve that wrote into one would change the next call's bits
    tissue, params = strand_tissue(eps=0.5, n=8)
    system, fresh = (build_system("M1F", tissue, params) for _ in range(2))
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


@pytest.mark.parametrize(
    "kind, newton_maxit",
    [("K1F", None), ("P1", None), ("P1F", None), ("P3F", None), ("M1F", None), ("M1F", 1)],
)
def test_thermal_flux_re_emits_exactly_the_absorbed_mass(monkeypatch, kind, newton_maxit):
    # the wall's mass entry is exactly 0 on every side and for every state;
    # with one dual Newton iteration the M1F edge cells with sizable |q|
    # fail and take K1F's map instead of the dual's flux
    if newton_maxit is not None:
        monkeypatch.setattr(closures, "_NEWTON_MAXIT", newton_maxit)
    tissue, params = strand_tissue(eps=0.5, n=8)
    system = build_system(kind, tissue, params)
    rng = np.random.default_rng(29)
    first_order = random_realizable_field(rng, (8, 8), qmax=0.9)
    U = system.initial_state(first_order[..., 0])
    U[..., 1:4] = first_order[..., 1:4]
    for side in ("left", "right", "bottom", "top"):
        flux = system.boundary_flux(side, U[systems.edge_slice(side)])
        assert np.all(np.isfinite(flux)) and np.all(flux[:, 0] == 0.0)
    assert (system.fallback_count > 0) == (newton_maxit is not None)


def test_k1f_thermal_map_matches_p1f():
    # K1F re-emits F (rho + v . D_F^-1 q), P1F's ansatz: the first-order
    # moment matrix diag(1, D_F) is P1F's quadrature G up to rounding
    tissue, params = strand_tissue(eps=0.5, n=8)
    k1f, p1f = (build_system(kind, tissue, params) for kind in ("K1F", "P1F"))
    for side in ("left", "right", "bottom", "top"):
        a, b = k1f._thermal[side], p1f._thermal[side]
        assert np.max(np.abs(a - b)) <= 1e-14 * np.max(np.abs(b))


def test_m1f_source_jacobian_fd():
    tissue, params = strand_tissue(eps=0.5, n=4)
    system = build_system("M1F", tissue, params)
    rng = np.random.default_rng(12)
    U = random_realizable_field(rng, (4, 4), qmax=0.4)
    J = system.source_jacobian(U)
    h = 1e-6
    for k in range(4):
        dU = np.zeros_like(U)
        dU[..., k] = h
        fd = (system.source(U + dU) - system.source(U - dU)) / (2 * h)
        assert np.max(np.abs(J[..., :, k] - fd)) < 2e-4


def test_linear_system_wave_speeds_and_char():
    tissue, params = strand_tissue(eps=0.25, n=10)
    for kind in ("P1", "P1F", "P3F"):
        system = build_system(kind, tissue, params)
        U = system.initial_state(np.ones((10, 10)))
        lam, RT, RinvT = (a[0] for a in system.char_data(U))
        assert np.all(np.diff(lam, axis=-1) >= 0)
        eye = np.einsum("yxij,yxjk->yxik", RinvT, RT)
        assert np.max(np.abs(eye - np.eye(system.nvars))) < 1e-9


PN_KINDS = [f"P{n}{anchor}" for n in range(1, 6) for anchor in ("", "F")]


@pytest.mark.parametrize("kind", PN_KINDS)
def test_pn_wave_speeds_match_a_degree_30_rule(kind):
    # B_d integrates a_k a_j v_d F, of degree 2N + 3; a system whose rule is
    # exact for it has the unit-speed eigenvalues of L^-1 B_d L^-T (G = L L^T)
    # integrated on a far finer rule
    tissue, params = strand_inputs(kind, 8, 8)
    system = build_system(kind, tissue, params)
    dense = build_quadrature(30)
    ared = pn_basis(int(kind[1])).evaluate_reduced(dense.nodes)
    wF = dense.weights * anchor_nodes_for(tissue.tensors, dense.nodes, not kind.endswith("F"))
    L = np.linalg.cholesky(np.einsum("yxn,nk,nj->yxkj", wF, ared, ared))
    for d in (0, 1):
        B = np.einsum("yxn,nk,nj->yxkj", wF * dense.nodes[:, d], ared, ared)
        Sym = np.linalg.solve(L, np.swapaxes(np.linalg.solve(L, B), -1, -2))
        lam = np.linalg.eigvalsh(0.5 * (Sym + np.swapaxes(Sym, -1, -2)))
        assert np.max(np.abs(system._char[0][d] - lam)) <= 1e-11, d


def test_each_closure_builds_the_rule_it_needs(monkeypatch):
    # M1F and P1..P4(F) integrate on build_quadrature(10)'s 84 nodes, P5 and
    # P5F on the 112 of degree 13, and the closed-form K1F on none
    built = []

    def recording(degree):
        built.append(build_quadrature(degree))
        return built[-1]

    monkeypatch.setattr(systems, "build_quadrature", recording)
    tissue, params = strand_inputs("K1F", 4, 4)
    for kind in ["K1F", "M1F"] + PN_KINDS:
        built.clear()
        build_system(kind, tissue, params)
        want = [] if kind == "K1F" else [build_quadrature(13 if kind[1] == "5" else 10)]
        assert len(built) == len(want), kind
        for rule, expected in zip(built, want):
            assert np.array_equal(rule.nodes, expected.nodes), kind
            assert np.array_equal(rule.weights, expected.weights), kind
            assert len(rule) == (112 if kind[1] == "5" else 84), kind


def test_flux_jacobian_consistency_kershaw():
    # finite-difference check of the analytic Kershaw flux Jacobian
    tissue, params = strand_tissue(eps=0.5, n=4)
    system = build_system("K1F", tissue, params)
    rng = np.random.default_rng(15)
    U = random_realizable_field(rng, (4, 4), qmax=0.6)
    for axis in (0, 1):
        J = kershaw_jacobian(U[..., 0], U[..., 1:], tissue.DF, np.eye(3)[axis]) / params.eps
        h = 1e-7
        for k in range(4):
            dU = np.zeros_like(U)
            dU[..., k] = h
            # the flux along x and y of each state, (4, 2, ny, nx)
            flux_p, flux_m = (system.flux(planes(np.stack((V, V)))) for V in (U + dU, U - dU))
            fd = (flux_p[:, axis] - flux_m[:, axis]) / (2 * h)
            assert np.max(np.abs(J[..., :, k] - rows(fd))) < 1e-4


def k1f_states_across_the_spectrum(rng, DF, n):
    """(n, n, 4) realizable states: interior |qhat| in rows [0, n/2), |qhat|
    within 1e-6 of 1 in [n/2, 3n/4), and in the last quarter (1 - |qhat|^2)
    n.D_F n across the gamma ramp [1e-4, 4e-4] of axis 0 (even rows) and
    axis 1 (odd rows)."""
    direction = rng.normal(size=(n, n, 3))
    direction /= np.linalg.norm(direction, axis=-1)[..., None]
    r = rng.uniform(0.0, 1.0, (n, n))
    r[n // 2:] = 1.0 - 10.0 ** rng.uniform(-12, -6, (n - n // 2, n))
    band = slice(3 * n // 4, n)
    s = np.where(np.arange(n)[:, None] % 2 == 0, DF[..., 0, 0], DF[..., 1, 1])[band]
    r[band] = np.sqrt(1.0 - rng.uniform(0.7e-4, 4.5e-4, s.shape) / s)
    rho = 10.0 ** rng.uniform(-3, 1, (n, n))
    return np.concatenate([rho[..., None], (r * rho)[..., None] * direction], axis=-1)


@pytest.mark.parametrize("axis", [0, 1])
def test_k1f_closed_form_wave_families(axis):
    # random SPD trace-one D_F per cell; J, the oracle and the closed form
    # all see the same state
    n = 32
    rng = np.random.default_rng(40 + axis)
    a = rng.normal(size=(n, n, 3, 3))
    DF = a @ np.swapaxes(a, -1, -2) + 0.05 * np.eye(3)
    DF /= np.trace(DF, axis1=-2, axis2=-1)[..., None, None]
    tissue, params = strand_tissue(eps=0.5, n=n)
    system = build_system("K1F", replace(tissue, DF=DF), params)
    U = k1f_states_across_the_spectrum(rng, DF, n)
    data = k1f_axis_slab(system.char_data(U), axis)
    require_wide_long_double()
    ld = np.longdouble
    oracle = k1f_projector_oracle(U.astype(ld), DF.astype(ld), axis)
    gamma = data["gamma"]
    # in the ramp gamma moves by s / 3e-4 per unit of |qhat|^2, whose float64
    # rounding alone is a few 1e-16: 2e-12 is that conditioning, not slack
    assert np.max(np.abs(gamma - oracle["gamma"])) <= 2e-12
    # the system's gamma is g_mid alone: g_disc is 1 wherever g_mid > 0
    assert np.all(oracle["g_disc"][oracle["g_mid"] > 0.0] == 1.0)
    assert (gamma == 0.0).sum() > 200 and ((gamma > 0.0) & (gamma < 1.0)).sum() > 50
    # the plane data read in the oracle's row shapes: R (c, 4, 2), L (c, 2, 4)
    active, R, L, r_norm = k1f_waves_rows(data)
    assert np.array_equal(active, gamma > 0.0) and np.array_equal(active, oracle["projs"][0])

    # eigenpairs of the assembled Jacobian, speeds from the shared closed form
    qhat = U[..., 1:] / U[..., :1]
    u = DF[..., :, axis]
    w = (1.0 - np.einsum("...i,...i->...", qhat, qhat)) * u[..., axis]
    offsets = kershaw_acoustic_offsets(np.einsum("...i,...i->...", qhat, u), w)
    lam = qhat[..., axis, None] + np.stack(offsets, axis=-1)
    J = kershaw_jacobian(U[..., 0], U[..., 1:], DF, np.eye(3)[axis])[active]
    tol = 1e-13 * np.max(np.abs(J), axis=(-2, -1))[:, None]
    r = R / r_norm[:, None, :]
    l = L / np.linalg.norm(L, axis=-1)[..., None]
    lam = lam[active]
    assert np.all(np.max(np.abs(J @ r - r * lam[:, None, :]), axis=1) <= tol)
    assert np.all(np.max(np.abs(l @ J - l * lam[..., None]), axis=2) <= tol)
    scale = np.linalg.norm(L, axis=-1).max(axis=-1) * r_norm.max(axis=-1)
    assert np.all(np.max(np.abs(L @ R - np.eye(2)), axis=(-2, -1)) <= 1e-14 * scale)

    # rank-one projectors against the oracle's Frobenius covariants
    _, P_minus, _, P_plus = oracle["projs"]
    for k, P in ((0, P_minus), (1, P_plus)):
        mine = R[:, :, k, None] * L[:, None, k, :]
        scale = np.max(np.abs(P), axis=(-2, -1))
        assert np.all(np.max(np.abs(mine - P), axis=(-2, -1)) <= 1e-11 * scale)


def test_k1f_normal_pressure_is_at_least_a_fifth(tmp_path):
    # n.D_F n = (2 n.D_W n + tr D_W) / (5 tr D_W) > 1/5 for SPD D_W: the
    # closed-form eigenvectors divide by it
    strand = strand_tissue(eps=0.25, n=24)[0]
    field = tensor_file_scenario(anisotropic_tensors(ANISO_SEED), tmp_path, "K1F").tissue()
    for tissue in (strand, field):
        assert np.min(tissue.DF[..., [0, 1], [0, 1]]) >= 0.2


def test_build_system_rejects_unknown():
    tissue, params = strand_tissue(eps=0.5, n=4)
    from moment_glioma.systems import MomentSystemError

    with pytest.raises(MomentSystemError):
        build_system("Q7", tissue, params)


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
    for d, (lam, RT, RinvT) in enumerate(zip(*system.char_data(None))):
        arrays.update({f"lam{d}": lam, f"RT{d}": RT, f"RinvT{d}": RinvT})
    for side, thermal in system._thermal.items():
        arrays[f"thermal_{side}"] = thermal
    return arrays


def tiled_source_matrix(system):
    """S assembled one `systems.tiles` row tile at a time, as the propagator
    build does."""
    ny, nx, m = system.mQ.shape
    return np.concatenate(
        [system.source_matrix(rows) for rows in systems.tiles(ny, nx * m * m * 8)]
    )


@pytest.mark.parametrize("kind", ["P3F", "P5F"])
def test_linear_system_and_propagator_do_not_depend_on_the_tiling(kind, monkeypatch):
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
        system = build_system(kind, tissue, params)
        arrays = linear_system_arrays(system)
        arrays["S tiles"] = tiled_source_matrix(system)
        arrays["propagator"] = source_propagator(system, 0.037)
        results[name] = arrays
    whole = results["whole"]
    for name in ("one row", "three rows"):
        for key, value in whole.items():
            assert np.array_equal(results[name][key], value), (name, key)


@pytest.mark.parametrize("kind", ["P1", "P3F"])
def test_linear_system_holds_the_transposed_bases_c_contiguous(kind):
    # the face and source products read R^T and R^-T as stored: the face
    # product on a transposed view of R^-1 measured about twice as slow.
    # Reference: R = L W from eigh of L^-1 B_d L^-T (G = L L^T), columns
    # signed and normalized, and inv(R), built whole-grid
    nx, ny = 6, 5
    tissue, params = strand_inputs(kind, nx, ny)
    system = build_system(kind, tissue, params)
    quad = build_quadrature(max(10, 2 * int(kind[1]) + 3))
    ared = pn_basis(int(kind[1])).evaluate_reduced(quad.nodes)
    wF = quad.weights * anchor_nodes_for(tissue.tensors, quad.nodes, not kind.endswith("F"))
    L = np.linalg.cholesky(np.einsum("yxn,nk,nj->yxkj", wF, ared, ared))
    for d, (lam, RT, RinvT) in enumerate(zip(*system.char_data(None))):
        B = np.einsum("yxn,nk,nj->yxkj", wF * quad.nodes[:, d], ared, ared)
        X = np.linalg.solve(L, B)
        Sym = np.swapaxes(np.linalg.solve(L, np.swapaxes(X, -1, -2)), -1, -2)
        lam_ref, W = np.linalg.eigh(0.5 * (Sym + np.swapaxes(Sym, -1, -2)))
        R = L @ W
        idx = np.argmax(np.abs(R), axis=-2)
        lead = np.take_along_axis(R, idx[..., None, :], axis=-2)[..., 0, :]
        R = R * np.where(lead >= 0, 1.0, -1.0)[..., None, :]
        R = R / np.linalg.norm(R, axis=-2)[..., None, :]
        assert RT.flags.c_contiguous and RinvT.flags.c_contiguous, d
        assert RT.shape == RinvT.shape == (ny, nx, system.nvars, system.nvars)
        assert np.array_equal(lam, lam_ref), d
        assert np.array_equal(RT, np.swapaxes(R, -1, -2)), d
        assert np.array_equal(RinvT, np.swapaxes(np.linalg.inv(R), -1, -2)), d


def flux_matrix_oracle(tissue, params, quad, kind, d):
    """A_d = solve(G, B_d)^T / eps per cell, from the moment integrals on
    the rule `quad`."""
    ared = pn_basis(int(kind[1])).evaluate_reduced(quad.nodes)
    wF = quad.weights * anchor_nodes_for(tissue.tensors, quad.nodes, not kind.endswith("F"))
    G = np.einsum("yxn,nk,nj->yxkj", wF, ared, ared)
    B = np.einsum("yxn,nk,nj->yxkj", wF * quad.nodes[:, d], ared, ared)
    return np.swapaxes(np.linalg.solve(G, B), -1, -2) / params.eps


@pytest.mark.parametrize("kind", ["P3F", "P5F"])
def test_source_tiles_match_the_flux_matrix_formula(kind):
    # S = r/eps^2 (mQ e0^T - I) + eta/eps lamH (sum_d g3_d eps A_d - mQ g^T),
    # mass row zero, with A_d from solve(G, B_d) on the system's own rule;
    # the system sums R_d Lambda_d R_d^-1 instead of holding A_d
    quad = build_quadrature(max(10, 2 * int(kind[1]) + 3))
    n = 12
    tissue, params = strand_inputs(kind, n, n)
    system = build_system(kind, tissue, params)
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
    assert np.array_equal(system.source_matrix(slice(None)), got)


@pytest.mark.parametrize("kind, n", [("P3F", 40), ("P5F", 16)])
def test_linear_setup_peak_memory_is_bounded_by_what_it_holds(kind, n):
    # setup and propagator temporaries are tiled by bytes, so the traced
    # peak stays within half again of the arrays the time step holds
    tissue, params = strand_inputs(kind, n, n)
    tracemalloc.start()
    try:
        system = build_system(kind, tissue, params)
        propagator = source_propagator(system, 1e-3)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert propagator.shape == (n, n, system.nvars, system.nvars)
    assert peak <= 1.5 * held, (peak / held, held)


def test_p3f_step_peak_memory_is_five_arrays_per_cell():
    # a P_N run holds R^T and R^-T of both axes and the DG propagator, five
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
        system = build_system("P3F", tissue, sc.params)
        U = system.initial_state(sc.rho0)
        dt = 0.25 * sc.grid.dx / system.wave_speed
        U = strang_step(U, dt, system)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.isfinite(U).all()
    five_arrays = 5 * n * n * system.nvars**2 * 8
    assert peak <= 1.45 * five_arrays, peak / five_arrays
