"""First-order closure kernels, Kershaw spectrum, monomial basis machinery."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moment_glioma import closures
from moment_glioma.closures import (
    ClosureError,
    RealizabilityError,
    kershaw_jacobian,
    kershaw_pressure_batch,
    kershaw_spectrum,
    m1f_dual_solve,
    m1f_dual_start,
    pn_basis,
)
from moment_glioma.quadrature import build_quadrature
from moment_glioma.tissue import peanut_node_values, peanut_pressure_tensor

from cell_oracles import MomentVector1, check_realizability, pnf_reconstruct


@pytest.fixture(scope="module")
def quad():
    return build_quadrature(10)


def random_spd(rng, scale=1.0):
    a = rng.normal(size=(3, 3))
    return scale * (a @ a.T + 0.05 * np.eye(3))


def random_rotation(rng):
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def uniform_anchor(quad):
    return np.full(len(quad), 1.0 / (4 * np.pi))


def kershaw_P(rho, q, DF):
    """The batched Kershaw pressure kernel on one cell."""
    return kershaw_pressure_batch(np.array([rho]), np.asarray(q)[None], DF[None])[0]


def kershaw_J(qhat, DF, n):
    """The batched Kershaw Jacobian kernel on one cell at rho = 1."""
    return kershaw_jacobian(np.ones(1), np.asarray(qhat)[None], DF[None], n)[0]


def p1f(u, F, quad):
    """P1F as the N = 1 P_N^F oracle: multipliers lambda_red and pressure P."""
    ansatz = pnf_reconstruct(u, F, pn_basis(1), quad)
    P = np.einsum("n,ni,nj->ij", quad.weights * ansatz.node_values, quad.nodes, quad.nodes)
    return ansatz.lambda_red, P


def m1f(rho, q, F, quad):
    """The production M1F dual solve on cells q (nc, 3) sharing one anchor.

    Returns a = rho exp(-log<e^{v.beta} F>), b = beta (eps = 1), P and the
    failed mask; the ansatz is f = a exp(v.b) F.
    """
    q = np.atleast_2d(q)
    start = m1f_dual_start(np.broadcast_to(quad.weights * F, (q.shape[0], len(quad))), quad.nodes)
    beta, g, lognorm, failed, _ = m1f_dual_solve(q / rho, start, quad.nodes)
    P = rho * np.einsum("cn,ni,nj->cij", g, quad.nodes, quad.nodes)
    return rho * np.exp(-lognorm), beta, P, failed


# ---------------------------------------------------------------------------
# P1F (N = 1 P_N^F oracle, tied to production by test_p1f_system_matches_pn_op)
# ---------------------------------------------------------------------------

def test_p1f_symmetric_anchor_gives_rho_df(quad):
    rng = np.random.default_rng(3)
    d_w = random_spd(rng)
    F = peanut_node_values(d_w, quad.nodes)
    _, P = p1f(np.array([2.0, 0.4, -0.2, 0.1]), F, quad)
    assert np.allclose(P, 2.0 * peanut_pressure_tensor(d_w), atol=1e-11)
    assert np.trace(P) == pytest.approx(2.0, abs=1e-11)


def test_p1f_equilibrium_flux_zero_b(quad):
    # q = rho*m1 makes the first-order multipliers vanish: P = rho*M2
    rng = np.random.default_rng(5)
    # skewed anchor: peanut shifted by a linear factor, kept positive
    F = peanut_node_values(random_spd(rng), quad.nodes) * (1.0 + 0.4 * quad.nodes[:, 0])
    w = quad.weights * F
    m1 = w @ quad.nodes
    M2 = np.einsum("n,ni,nj->ij", w, quad.nodes, quad.nodes)
    norm = M2.trace()  # <F> equals trace of M2 on the unit sphere
    rho = 1.3
    lam, P = p1f(np.concatenate([[rho / norm], rho / norm * m1]), F, quad)
    assert np.allclose(lam[1:], 0.0, atol=1e-12)
    assert np.allclose(P, rho / norm * M2, atol=1e-12)


def test_p1f_spec_example(quad):
    F = peanut_node_values(np.eye(3), quad.nodes)
    lam, P = p1f(np.array([1.0, 0.1, 0.0, 0.0]), F, quad)
    assert np.allclose(lam[1:], [0.3, 0, 0], atol=1e-12)
    assert np.allclose(P, np.eye(3) / 3, atol=1e-12)


def test_p1f_flat_anchor_rejected(quad):
    # anchor supported on the equator plane: covariance singular in z
    F = np.where(np.abs(quad.nodes[:, 2]) < 1e-12, 1.0, 0.0)
    with pytest.raises(ClosureError, match="flat"):
        p1f(np.array([1.0, 0, 0, 0.1]), F, quad)


# ---------------------------------------------------------------------------
# M1F (the production dual solve)
# ---------------------------------------------------------------------------

def test_m1f_equilibrium(quad):
    F = peanut_node_values(np.diag([4.0, 2.0, 1.0]), quad.nodes)
    a, b, P, failed = m1f(1.7, np.zeros(3), F, quad)
    assert not failed[0]
    assert np.allclose(b, 0.0, atol=1e-12)
    assert a[0] == pytest.approx(1.7, rel=1e-12)
    assert np.allclose(
        P[0], 1.7 * peanut_pressure_tensor(np.diag([4.0, 2.0, 1.0])), atol=1e-10
    )


def test_m1f_moment_residual_and_dense_crosscheck(quad):
    F = peanut_node_values(np.eye(3), quad.nodes)
    q = np.array([0.3, 0.0, 0.0])
    a, b, P, failed = m1f(1.0, q, F, quad)
    a, b, P = a[0], b[0], P[0]
    assert not failed[0]
    # residual on the defining quadrature
    e = a * np.exp(quad.nodes @ b) * F
    assert np.dot(quad.weights, e) == pytest.approx(1.0, abs=1e-10)
    assert np.allclose((quad.weights * e) @ quad.nodes, q, atol=1e-10)
    assert np.trace(P) == pytest.approx(1.0, abs=1e-10)
    # same multipliers re-integrated on a denser rule: quadrature error only
    dense = build_quadrature(30)
    Fd = peanut_node_values(np.eye(3), dense.nodes)
    ed = a * np.exp(dense.nodes @ b) * Fd
    P_dense = np.einsum("n,ni,nj->ij", dense.weights * ed, dense.nodes, dense.nodes)
    assert np.max(np.abs(P - P_dense)) < 1e-9


def test_m1f_concentration_limit(quad):
    # every state starts from beta = 0; at |qhat| = 0.999 realizability
    # forces |P11 - 1| <= 1 - |qhat|^2 ~ 2e-3 (measured 1.91e-3)
    F = peanut_node_values(np.eye(3), quad.nodes)
    rs = np.array([0.3, 0.6, 0.9, 0.99, 0.999])
    q = rs[:, None] * np.array([1.0, 0.0, 0.0])
    _, _, P, failed = m1f(1.0, q, F, quad)
    assert not failed.any()
    dev = np.max(np.abs(P[-1] - np.outer([1, 0, 0], [1, 0, 0])))
    assert dev <= 2.0 * (1.0 - 0.999) + 1e-4
    assert np.trace(P[-1]) == pytest.approx(1.0, abs=1e-10)


def test_m1f_rejects_nonrealizable(quad):
    # |qhat| > 1 has no exponential ansatz: the dual solve flags the cell
    F = uniform_anchor(quad)
    _, _, _, failed = m1f(1.0, np.array([[0.3, 0.0, 0.0], [1.0, 0.2, 0.0]]), F, quad)
    assert failed.tolist() == [False, True]


def test_m1f_p1f_agree_to_second_order(quad):
    # with a symmetric anchor both pressure tensors deviate from rho*D_F at
    # O(|qhat|^2); their difference must vanish at the same rate
    F = peanut_node_values(np.diag([3.0, 1.5, 1.0]), quad.nodes)
    rs = np.array([1e-1, 1e-2, 1e-3])
    direction = np.array([0.6, -0.64, 0.48])
    _, _, p_m1, failed = m1f(1.0, rs[:, None] * direction, F, quad)
    assert not failed.any()
    diffs = [
        np.max(np.abs(p_m1[i] - p1f(np.concatenate([[1.0], r * direction]), F, quad)[1]))
        for i, r in enumerate(rs)
    ]
    slope = np.polyfit(np.log(rs), np.log(diffs), 1)[0]
    assert slope >= 1.9


def test_m1f_dual_start_second_moments_index_like_their_rows(quad):
    # the first Newton iteration reads the start's second moments at the
    # active rows only: the 3-operand einsum must give each row the bits it
    # gets in a batch of just those rows
    rng = np.random.default_rng(11)
    wF = quad.weights * rng.uniform(0.2, 2.0, (64, len(quad)))
    V = quad.nodes
    full = np.einsum("cn,ni,nj->cij", wF, V, V)
    for idx in (np.flatnonzero(rng.random(64) < 0.6), np.arange(3, 64, 5), np.array([63])):
        assert np.array_equal(full[idx], np.einsum("cn,ni,nj->cij", wF[idx], V, V))


def test_m1f_dual_start_of_another_batch_is_rejected(quad):
    start = m1f_dual_start(np.broadcast_to(quad.weights, (5, len(quad))), quad.nodes)
    with pytest.raises(ValueError, match="5 cells, qhat has 4 rows"):
        m1f_dual_solve(np.zeros((4, 3)), start, quad.nodes)


def test_m1f_singular_newton_matrix_fails_only_its_cells(quad, monkeypatch):
    # cells at |qhat| = 0.999999 make a batched Newton matrix singular; the
    # 1000 inner cells, which converge when solved alone, must converge in
    # the same batch too
    rng = np.random.default_rng(0)
    direction = rng.normal(size=(2000, 3))
    direction /= np.linalg.norm(direction, axis=1)[:, None]
    r = np.concatenate([rng.uniform(0.0, 0.9, 1000), np.full(1000, 0.999999)])
    qhat = r[:, None] * direction
    start = m1f_dual_start(np.broadcast_to(quad.weights, (2000, len(quad))), quad.nodes)
    solve, singular_batches = np.linalg.solve, []

    def spy(a, b):
        try:
            return solve(a, b)
        except np.linalg.LinAlgError:
            singular_batches.append(a.shape[0] if a.ndim == 3 else 1)
            raise

    monkeypatch.setattr(np.linalg, "solve", spy)
    _, g, _, failed, iterations = m1f_dual_solve(qhat, start, quad.nodes)
    assert max(singular_batches) > 1000
    assert not failed[:1000].any() and failed[1000:].all()
    assert np.all(np.linalg.norm(g[:1000] @ quad.nodes - qhat[:1000], axis=1) <= 1e-10)
    assert iterations >= 2000


def test_row_by_row_newton_solve_keeps_the_batched_bits():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(30, 3, 3))
    H = a @ np.swapaxes(a, -1, -2) + 0.1 * np.eye(3)
    H[4] = 0.0
    H[17] = [[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 0.0, 1.0]]
    rhs = rng.normal(size=(30, 3, 1))
    step, singular = closures._solve_rows(H, rhs)
    assert np.flatnonzero(singular).tolist() == [4, 17]
    ok = ~singular
    assert np.array_equal(step[ok], np.linalg.solve(H[ok], rhs[ok])[..., 0])


# ---------------------------------------------------------------------------
# Kershaw
# ---------------------------------------------------------------------------

def test_kershaw_values():
    assert np.allclose(kershaw_P(1.0, np.zeros(3), np.eye(3) / 3), np.eye(3) / 3, atol=1e-15)
    P = kershaw_P(1.0, np.array([0.5, 0, 0]), np.eye(3) / 3)
    assert np.allclose(P, np.diag([0.5, 0.25, 0.25]), atol=1e-14)
    DF = peanut_pressure_tensor(random_spd(np.random.default_rng(0)))
    qhat = np.array([0.6, 0.64, 0.48])
    qhat /= np.linalg.norm(qhat)
    assert np.allclose(kershaw_P(2.0, 2.0 * qhat, DF), 2.0 * np.outer(qhat, qhat), atol=1e-13)
    with pytest.raises(RealizabilityError):
        kershaw_spectrum(np.array([1.1, 0, 0]), np.eye(3) / 3, np.array([1.0, 0, 0]))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 100_000))
def test_kershaw_trace_and_psd(seed):
    rng = np.random.default_rng(seed)
    DF = peanut_pressure_tensor(random_spd(rng))
    r = rng.uniform(0, 1)
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    rho = rng.uniform(0.1, 5)
    m = MomentVector1(rho, rho * r * direction)
    margins = check_realizability(m, kershaw_P(m.rho, m.q, DF))
    assert margins.trace_err < 1e-12
    assert margins.second >= -1e-12
    assert margins.first >= 0


def test_kershaw_rotation_equivariance():
    rng = np.random.default_rng(11)
    for _ in range(20):
        DF = peanut_pressure_tensor(random_spd(rng))
        qhat = rng.uniform(0, 1) * rng.normal(size=3)
        qhat /= max(1.0, np.linalg.norm(qhat) / 0.95)
        R = random_rotation(rng)
        base = kershaw_P(1.0, qhat, DF)
        rotated = kershaw_P(1.0, R @ qhat, R @ DF @ R.T)
        assert np.max(np.abs(rotated - R @ base @ R.T)) < 1e-12


def test_check_realizability_margins():
    eq = check_realizability(MomentVector1(1.0, np.zeros(3)), np.eye(3) / 3)
    assert eq.first >= 0 and eq.second >= 0 and eq.trace_err < 1e-14
    qhat = np.array([1.0, 0, 0])
    border = check_realizability(MomentVector1(1.0, qhat), np.outer(qhat, qhat))
    assert border.second == pytest.approx(0.0, abs=1e-14)
    bad = check_realizability(MomentVector1(1.0, np.array([0.9, 0, 0])), np.eye(3) / 3)
    assert bad.second == pytest.approx(1 / 3 - 0.81, abs=1e-12)
    with pytest.raises(ClosureError):
        check_realizability(MomentVector1(0.0, np.zeros(3)), np.eye(3) / 3)


# ---------------------------------------------------------------------------
# Kershaw Jacobian and spectrum
# ---------------------------------------------------------------------------

def test_jacobian_at_equilibrium():
    DF = np.diag([0.5, 0.3, 0.2])
    J = kershaw_J(np.zeros(3), DF, np.array([1.0, 0, 0]))
    expect = np.zeros((4, 4))
    expect[0, 1] = 1.0
    expect[1:, 0] = DF[:, 0]
    assert np.allclose(J, expect, atol=1e-15)
    spec = kershaw_spectrum(np.zeros(3), np.eye(3) / 3, np.array([1.0, 0, 0]))
    assert np.allclose(
        np.sort(spec.eigenvalues), [-1 / np.sqrt(3), 0, 0, 1 / np.sqrt(3)], atol=1e-12
    )


def test_jacobian_oddness():
    rng = np.random.default_rng(2)
    DF = peanut_pressure_tensor(random_spd(rng))
    qhat = np.array([0.3, -0.2, 0.1])
    n = rng.normal(size=3)
    n /= np.linalg.norm(n)
    assert np.allclose(kershaw_J(qhat, DF, -n), -kershaw_J(qhat, DF, n), atol=1e-15)


def test_spectrum_interior_sweep_real_and_bounded():
    rng = np.random.default_rng(42)
    for _ in range(300):
        DF = peanut_pressure_tensor(random_spd(rng))
        r = rng.uniform(0, 0.999)
        d = rng.normal(size=3)
        d /= np.linalg.norm(d)
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        spec = kershaw_spectrum(r * d, DF, n)
        assert spec.max_imag <= 1e-9
        assert np.max(np.abs(spec.eigenvalues)) <= 1 + 1e-9
        # the closed form holds for every normal, not only the rotated frames
        assert spec.case == "general" and spec.analytic_check < 1e-6


def test_spectrum_degenerate_perpendicular():
    # |qhat| = 1 along an eigenvector of DF, n perpendicular: all eigenvalues
    # collapse to zero and the Jacobian is no longer diagonalizable
    DF = np.diag([0.5, 0.3, 0.2])
    spec = kershaw_spectrum(np.array([1.0, 0, 0]), DF, np.array([0.0, 1.0, 0.0]))
    assert spec.case == "perpendicular"
    assert np.allclose(spec.analytic, 0.0, atol=1e-15)
    # numeric eigenvalues of the nilpotent block carry O(ulp^(1/3)) noise
    assert np.max(np.abs(spec.eigenvalues)) < 1e-3
    assert not spec.diagonalizable


def test_spectrum_degenerate_parallel():
    DF = np.diag([0.5, 0.3, 0.2])
    spec = kershaw_spectrum(np.array([1.0, 0, 0]), DF, np.array([1.0, 0, 0]))
    assert spec.case == "parallel"
    s11 = 0.5
    assert np.allclose(np.sort(spec.analytic), np.sort([1, 1, 1, 1 - 2 * s11]), atol=1e-14)
    assert spec.analytic_check < 1e-6
    # semisimple triple eigenvalue: still diagonalizable
    assert spec.diagonalizable


def test_spectrum_closed_forms_differ_at_small_q():
    # the re-derived parallel closed form matches the matrix at |qhat| -> 0,
    # the as-printed polynomial does not: both are reported, numeric wins
    DF = np.diag([0.5, 0.3, 0.2])
    spec = kershaw_spectrum(np.array([1e-13, 0, 0]), DF, np.array([1.0, 0, 0]))
    assert spec.analytic_check < 1e-9
    assert np.allclose(
        np.sort(np.abs(spec.eigenvalues))[-2:], [np.sqrt(0.5)] * 2, atol=1e-6
    )
    spec2 = kershaw_spectrum(np.array([1e-3, 0, 0]), DF, np.array([1.0, 0, 0]))
    assert spec2.analytic_check < 1e-9
    assert np.max(np.abs(spec2.analytic_paper - spec2.eigenvalues)) > 0.1


# ---------------------------------------------------------------------------
# PN basis and reconstruction
# ---------------------------------------------------------------------------

def test_pn_basis_counts_and_order():
    b1 = pn_basis(1)
    assert b1.K == 4 and b1.Kr == 4
    assert [tuple(e) for e in b1.exponents] == [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
    b2 = pn_basis(2)
    assert b2.K == 10 and b2.Kr == 9
    b5 = pn_basis(5)
    assert b5.K == 56 and b5.Kr == 36
    with pytest.raises(ClosureError):
        pn_basis(0)
    with pytest.raises(ClosureError):
        pn_basis(6)


def test_pn_expand_identity_on_sphere(quad):
    for N in (2, 3, 5):
        basis = pn_basis(N)
        full = basis.evaluate(quad.nodes)
        red = basis.evaluate_reduced(quad.nodes)
        assert np.max(np.abs(full - red @ basis.expand.T)) < 1e-13


def test_pnf_reconstruct_uniform(quad):
    basis = pn_basis(1)
    F = uniform_anchor(quad)
    ansatz = pnf_reconstruct(np.array([1.0, 0, 0, 0]), F, basis, quad)
    assert np.allclose(ansatz.node_values, 1 / (4 * np.pi), atol=1e-14)
    zero = pnf_reconstruct(np.zeros(4), F, basis, quad)
    assert np.allclose(zero.node_values, 0.0, atol=1e-15)


def test_pnf_moments_reproduced(quad):
    rng = np.random.default_rng(31)
    for N in (2, 3):
        basis = pn_basis(N)
        F = peanut_node_values(random_spd(rng), quad.nodes)
        # consistent moment vector: moments of an actual density on the nodes
        density = 0.3 + 0.2 * quad.nodes[:, 0] + 0.1 * quad.nodes[:, 2] ** 2
        u = basis.evaluate(quad.nodes).T @ (quad.weights * density)
        ansatz = pnf_reconstruct(u, F, basis, quad)
        moments = basis.evaluate(quad.nodes).T @ (quad.weights * ansatz.node_values)
        assert np.max(np.abs(moments - u)) / max(np.max(np.abs(u)), 1) < 1e-10


def test_pnf_rejects_inconsistent_moments(quad):
    basis = pn_basis(2)
    F = uniform_anchor(quad)
    u = np.zeros(basis.K)
    u[0] = 1.0
    # degree-2 diagonal moments must sum to u0 on the sphere; break that
    for k, e in enumerate(basis.exponents):
        if tuple(e) == (2, 0, 0):
            u[k] = 0.9
    with pytest.raises(ClosureError, match="inconsistent"):
        pnf_reconstruct(u, F, basis, quad)


def test_pnf_flat_anchor_rejected(quad):
    basis = pn_basis(1)
    F = np.zeros(len(quad))
    with pytest.raises(ClosureError, match="flat"):
        pnf_reconstruct(np.array([1.0, 0, 0, 0]), F, basis, quad)
