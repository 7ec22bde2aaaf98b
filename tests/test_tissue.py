"""Peanut distribution, volume-fraction estimators, tissue field derivation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moment_glioma.grid import GridSpec
from moment_glioma.quadrature import build_quadrature
from moment_glioma.tissue import (
    TissueError,
    WaterTensorField,
    derive_tissue_fields,
    gradient_2d,
    haptotactic_coefficient,
    peanut_node_values,
    peanut_pressure_tensor,
    strand_d00,
    synth_fiber_strand,
)


def random_spd(rng, scale=1.0):
    a = rng.normal(size=(3, 3))
    return scale * (a @ a.T + 0.05 * np.eye(3))


@pytest.fixture(scope="module")
def quad():
    return build_quadrature(10)


class FakeParams:
    lambda0 = 1.0
    kplus = 1.0
    kminus = 1.0


def tensor_grid(*tensors):
    """A 3 x len(tensors) field whose every row holds `tensors` in turn."""
    t = np.array([tensors] * 3, dtype=float)
    return WaterTensorField(GridSpec(nx=t.shape[1], ny=3, dx=0.5, dy=0.5), t)


def volume_fractions(estimator, *tensors):
    """The Q `derive_tissue_fields` estimates for each tensor."""
    return derive_tissue_fields(tensor_grid(*tensors), estimator, FakeParams()).Q[0]


# ---------------------------------------------------------------------------
# peanut
# ---------------------------------------------------------------------------

def test_peanut_density_values():
    nodes = np.array([[0.0, 0, 1], [1.0, 0, 0]])
    assert peanut_node_values(np.eye(3), nodes) == pytest.approx([1 / (4 * np.pi)] * 2)
    assert peanut_node_values(np.diag([6.0, 1, 1]), nodes) == pytest.approx(
        [3 / (32 * np.pi), 18 / (32 * np.pi)]
    )
    # a batch of tensors gives one row of node values per tensor
    both = peanut_node_values(np.array([np.eye(3), np.diag([6.0, 1, 1])]), nodes)
    assert both.shape == (2, 2) and both[1, 1] == pytest.approx(18 / (32 * np.pi))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000))
def test_peanut_normalization_and_symmetry(seed):
    quad = build_quadrature(10)
    d_w = random_spd(np.random.default_rng(seed))
    vals = peanut_node_values(d_w, quad.nodes)
    assert np.dot(quad.weights, vals) == pytest.approx(1.0, abs=1e-12)
    for i in range(3):
        first = np.dot(quad.weights, vals * quad.nodes[:, i])
        assert first == pytest.approx(0.0, abs=1e-12)


def test_peanut_pressure_tensor_closed_form(quad):
    assert np.allclose(peanut_pressure_tensor(np.eye(3)), np.eye(3) / 3, atol=1e-14)
    assert np.allclose(
        peanut_pressure_tensor(np.diag([6.0, 1, 1])),
        np.diag([0.5, 0.25, 0.25]),
        atol=1e-14,
    )
    rng = np.random.default_rng(7)
    for _ in range(100):
        d_w = random_spd(rng)
        analytic = peanut_pressure_tensor(d_w)
        vals = peanut_node_values(d_w, quad.nodes)
        by_quad = np.einsum("n,ni,nj->ij", quad.weights * vals, quad.nodes, quad.nodes)
        assert np.max(np.abs(analytic - by_quad)) < 1e-10
        assert np.trace(analytic) == pytest.approx(1.0, abs=1e-13)


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------

def test_fractional_anisotropy_values():
    fa = volume_fractions("FA", np.eye(3), np.diag([6.0, 1, 1]), np.diag([3.0, 2, 1]))
    assert fa[0] == pytest.approx(0.0, abs=1e-14)
    assert fa[1] == pytest.approx(5 / np.sqrt(38), abs=1e-12)
    assert fa[2] == pytest.approx(np.sqrt(3 / 14), abs=1e-12)
    # the zero tensor, whose FA is undefined, fails the field's validation
    with pytest.raises(TissueError, match="non-positive trace"):
        volume_fractions("FA", np.eye(3), np.zeros((3, 3)), np.eye(3))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.floats(0.01, 100.0))
def test_fa_scale_invariance(seed, c):
    rng = np.random.default_rng(seed)
    d_w = [random_spd(rng) for _ in range(3)]
    assert volume_fractions("FA", *(c * d for d in d_w)) == pytest.approx(
        volume_fractions("FA", *d_w), rel=1e-10
    )


def test_characteristic_length_values():
    cl = volume_fractions("CL", np.eye(3), np.diag([6.0, 1, 1]), np.diag([1.0, 0, 0]))
    assert cl[0] == pytest.approx(1 - 0.75**1.5, abs=1e-12)
    assert cl[1] == pytest.approx(1 - (1 / 3) ** 1.5, abs=1e-12)
    assert cl[2] == pytest.approx(0.875, abs=1e-14)
    # no positive eigenvalue: the field's validation rejects it first
    with pytest.raises(TissueError, match="negative eigenvalue"):
        volume_fractions("CL", np.eye(3), -np.eye(3), np.eye(3))


def test_haptotactic_coefficient_values():
    assert haptotactic_coefficient(np.array([0.0]), 1, 1, 1) == pytest.approx([0.5])
    # Q -> 1 limit of the formula (domain is [0, 1); evaluate just below)
    near_1 = haptotactic_coefficient(np.array([1 - 1e-12]), 1, 1, 1)
    assert near_1 == pytest.approx([1 / 12], rel=1e-9)
    vals = haptotactic_coefficient(np.linspace(0, 0.99, 25), 2.0, 3.0, 0.5)
    assert np.all(vals[:-1] > vals[1:])
    with pytest.raises(TissueError):
        haptotactic_coefficient(np.array([0.2, 1.5]), 1, 1, 1)
    with pytest.raises(TissueError, match="volume fraction"):
        haptotactic_coefficient(np.array([np.nan]), 1, 1, 1)
    for rates in [(np.nan, 1, 1), (1, np.nan, 1), (1, 1, np.nan), (1, 0, 1)]:
        with pytest.raises(TissueError, match="must be positive"):
            haptotactic_coefficient(np.array([0.5]), *rates)


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------

def test_gradient_exact_on_linear():
    g = GridSpec(nx=8, ny=6, dx=0.25, dy=0.5)
    X, Y = g.cell_centers()
    f = 2.0 + 3.0 * X - 1.5 * Y
    grad = gradient_2d(f, g.dx, g.dy)
    assert np.allclose(grad[..., 0], 3.0, atol=1e-12)
    assert np.allclose(grad[..., 1], -1.5, atol=1e-12)


def test_strand_values():
    assert strand_d00(np.array(0.5), np.array(1.5), 3.0, 0.1) == pytest.approx(6.0)
    assert strand_d00(np.array(3.0), np.array(3.0), 3.0, 0.1) == pytest.approx(
        1 + 5 * np.exp(-75.0)
    )
    # far from the strand: isotropic
    assert strand_d00(np.array(3.0), np.array(0.0), 3.0, 0.05) == pytest.approx(1.0)


def test_derive_fields_constant_water():
    g = GridSpec(nx=6, ny=5, dx=0.1, dy=0.1)
    tensors = np.broadcast_to(np.diag([2.0, 1.0, 1.0]), (5, 6, 3, 3)).copy()
    fields = derive_tissue_fields(WaterTensorField(g, tensors), "FA", FakeParams())
    assert np.allclose(fields.gradQ3, 0.0, atol=1e-13)
    assert np.allclose(np.trace(fields.DF, axis1=-2, axis2=-1), 1.0, atol=1e-12)
    assert np.all((fields.Q >= 0) & (fields.Q < 1))


def test_derive_fields_strand():
    X = 3.0
    g = GridSpec(nx=30, ny=30, dx=X / 30, dy=X / 30)
    water = synth_fiber_strand(X, 0.1, g)
    # the cell containing (0.5, 1.5) carries D00 = 6
    ix = int(0.5 / g.dx)
    iy = int(1.5 / g.dy)
    assert water.tensors[iy, ix, 0, 0] == pytest.approx(6.0, rel=1e-6)
    fields = derive_tissue_fields(water, "FA", FakeParams())
    assert np.all((fields.Q >= 0) & (fields.Q < 1))
    # strand cells are anisotropic, far-field is isotropic
    assert fields.Q[iy, ix] == pytest.approx(5 / np.sqrt(38), rel=1e-4)
    assert fields.Q[2, -1] < 1e-6
    with pytest.raises(TissueError):
        synth_fiber_strand(X, -0.1, g)


def test_derive_fields_error_carries_cell():
    g = GridSpec(nx=4, ny=3, dx=0.5, dy=0.5)
    tensors = np.broadcast_to(np.eye(3), (3, 4, 3, 3)).copy()
    tensors[1, 2] = 0.0
    with pytest.raises(TissueError, match=r"ix=2, iy=1"):
        derive_tissue_fields(WaterTensorField(g, tensors), "FA", FakeParams())


def test_derive_fields_names_first_bad_cell():
    g = GridSpec(nx=4, ny=3, dx=0.5, dy=0.5)
    tensors = np.broadcast_to(np.eye(3), (3, 4, 3, 3)).copy()
    # rank one: positive semidefinite with positive trace, so it passes
    # validate, but FA = 1 lies outside [0, 1)
    v = np.array([1.0, 2.0, 3.0])
    tensors[1, 2] = np.outer(v, v)
    tensors[2, 0] = np.outer(v, v)  # first in x-major order, not in row-major
    water = WaterTensorField(g, tensors)
    lam = water.validate()[1, 2]
    # rank one: FA = sqrt(3/2 |lam - mean|^2 / |lam|^2) = 1
    assert np.sqrt(1.5 * np.sum((lam - lam.mean()) ** 2) / np.sum(lam**2)) == pytest.approx(
        1.0, abs=1e-14
    )
    with pytest.raises(TissueError, match=r"cell \(ix=2, iy=1\) at x=1\.25, y=0\.75: .*outside"):
        derive_tissue_fields(water, "FA", FakeParams())


@pytest.mark.parametrize("estimator", ["FA", "CL"])
def test_derive_fields_matches_pointwise(estimator):
    # every cell of the batched derivation against the closed forms, cell by cell
    rng = np.random.default_rng(3)
    g = GridSpec(nx=5, ny=4, dx=0.5, dy=0.25)
    tensors = np.array([[random_spd(rng) for _ in range(5)] for _ in range(4)])
    tensors = 0.5 * (tensors + np.swapaxes(tensors, -1, -2))
    fields = derive_tissue_fields(WaterTensorField(g, tensors), estimator, FakeParams())
    for iy in range(4):
        for ix in range(5):
            lam = np.linalg.eigvalsh(tensors[iy, ix])
            if estimator == "FA":
                q = np.sqrt(1.5 * np.sum((lam - lam.mean()) ** 2) / np.sum(lam**2))
            else:
                q = 1.0 - (np.trace(tensors[iy, ix]) / (4.0 * lam[-1])) ** 1.5
            assert fields.Q[iy, ix] == pytest.approx(q, rel=1e-13, abs=1e-15)
            # lamH = g'(Q) / (1 + alpha(Q)/lam0) at k+ = k- = lam0 = 1
            lamh = 1.0 / (1.0 + fields.Q[iy, ix]) ** 2 / (2.0 + fields.Q[iy, ix])
            assert fields.lamH[iy, ix] == pytest.approx(lamh, rel=1e-14)
            assert np.array_equal(fields.DF[iy, ix], peanut_pressure_tensor(tensors[iy, ix]))
