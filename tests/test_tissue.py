"""Peanut distribution, volume-fraction estimators, tissue field derivation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moment_glioma.grid import GridSpec
from moment_glioma.quadrature import build_quadrature, integrate_values
from moment_glioma.tissue import (
    TissueError,
    characteristic_length,
    derive_tissue_fields,
    fractional_anisotropy,
    gradient_2d,
    haptotactic_coefficient,
    peanut_density,
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


# ---------------------------------------------------------------------------
# peanut
# ---------------------------------------------------------------------------

def test_peanut_density_values():
    assert peanut_density(np.eye(3), [0, 0, 1]) == pytest.approx(1 / (4 * np.pi))
    assert peanut_density(np.diag([6.0, 1, 1]), [1, 0, 0]) == pytest.approx(
        18 / (32 * np.pi)
    )
    with pytest.raises(TissueError):
        peanut_density(np.zeros((3, 3)), [1, 0, 0])


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000))
def test_peanut_normalization_and_symmetry(seed):
    quad = build_quadrature(10)
    d_w = random_spd(np.random.default_rng(seed))
    vals = peanut_node_values(d_w, quad.nodes)
    assert integrate_values(quad, vals) == pytest.approx(1.0, abs=1e-12)
    for i in range(3):
        first = integrate_values(quad, vals * quad.nodes[:, i])
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
    assert fractional_anisotropy(np.eye(3)) == pytest.approx(0.0, abs=1e-14)
    assert fractional_anisotropy(np.diag([6.0, 1, 1])) == pytest.approx(
        5 / np.sqrt(38), abs=1e-12
    )
    with pytest.raises(TissueError):
        fractional_anisotropy(np.zeros((3, 3)))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.floats(0.01, 100.0))
def test_fa_scale_invariance(seed, c):
    d_w = random_spd(np.random.default_rng(seed))
    assert fractional_anisotropy(c * d_w) == pytest.approx(
        fractional_anisotropy(d_w), rel=1e-10
    )


def test_characteristic_length_values():
    assert characteristic_length(np.eye(3)) == pytest.approx(1 - 0.75**1.5, abs=1e-12)
    assert characteristic_length(np.diag([6.0, 1, 1])) == pytest.approx(
        1 - (1 / 3) ** 1.5, abs=1e-12
    )
    assert characteristic_length(np.diag([1.0, 0, 0])) == pytest.approx(0.875, abs=1e-14)
    with pytest.raises(TissueError):
        characteristic_length(-np.eye(3))


def test_haptotactic_coefficient_values():
    assert haptotactic_coefficient(0.0, 1, 1, 1) == pytest.approx(0.5)
    # Q -> 1 limit of the formula (domain is [0, 1); evaluate just below)
    assert haptotactic_coefficient(1 - 1e-12, 1, 1, 1) == pytest.approx(1 / 12, rel=1e-9)
    qs = np.linspace(0, 0.99, 25)
    vals = [haptotactic_coefficient(q, 2.0, 3.0, 0.5) for q in qs]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    with pytest.raises(TissueError):
        haptotactic_coefficient(1.5, 1, 1, 1)


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
    from moment_glioma.tissue import WaterTensorField

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
    from moment_glioma.tissue import WaterTensorField

    with pytest.raises(TissueError, match=r"ix=2, iy=1"):
        derive_tissue_fields(WaterTensorField(g, tensors), "FA", FakeParams())


def test_derive_fields_names_first_bad_cell():
    from moment_glioma.tissue import WaterTensorField

    g = GridSpec(nx=4, ny=3, dx=0.5, dy=0.5)
    tensors = np.broadcast_to(np.eye(3), (3, 4, 3, 3)).copy()
    # rank one: positive semidefinite with positive trace, so it passes
    # validate, but FA = 1 lies outside [0, 1)
    v = np.array([1.0, 2.0, 3.0])
    tensors[1, 2] = np.outer(v, v)
    tensors[2, 0] = np.outer(v, v)  # first in x-major order, not in row-major
    water = WaterTensorField(g, tensors)
    water.validate()
    assert fractional_anisotropy(tensors[1, 2]) == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(TissueError, match=r"cell \(ix=2, iy=1\) at x=1\.25, y=0\.75: .*outside"):
        derive_tissue_fields(water, "FA", FakeParams())


@pytest.mark.parametrize("estimator", ["FA", "CL"])
def test_derive_fields_matches_pointwise(estimator):
    # the batched derivation rounds exactly like the pointwise formulas
    from moment_glioma.tissue import WaterTensorField

    rng = np.random.default_rng(3)
    g = GridSpec(nx=5, ny=4, dx=0.5, dy=0.25)
    tensors = np.array([[random_spd(rng) for _ in range(5)] for _ in range(4)])
    tensors = 0.5 * (tensors + np.swapaxes(tensors, -1, -2))
    fields = derive_tissue_fields(WaterTensorField(g, tensors), estimator, FakeParams())
    est = fractional_anisotropy if estimator == "FA" else characteristic_length
    for iy in range(4):
        for ix in range(5):
            q = est(tensors[iy, ix])
            assert fields.Q[iy, ix] == q
            assert fields.lamH[iy, ix] == haptotactic_coefficient(q, 1.0, 1.0, 1.0)
            assert np.array_equal(fields.DF[iy, ix], peanut_pressure_tensor(tensors[iy, ix]))
