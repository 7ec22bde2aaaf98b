"""Sphere quadrature: exactness, symmetry, half-range rules."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moment_glioma.quadrature import (
    QuadratureError,
    build_hemisphere_quadrature,
    build_quadrature,
)
from moment_glioma.systems import _HEMI_DEGREE


def sphere_monomial_integral(a: int, b: int, c: int) -> float:
    """Closed form of integral over S^2 of x^a y^b z^c.

    Zero if any exponent is odd; otherwise
    4*pi * (a-1)!! (b-1)!! (c-1)!! / (a+b+c+1)!!.
    """
    if a % 2 or b % 2 or c % 2:
        return 0.0

    def dfact(n):
        out = 1
        while n > 1:
            out *= n
            n -= 2
        return out

    return 4.0 * np.pi * dfact(a - 1) * dfact(b - 1) * dfact(c - 1) / dfact(a + b + c + 1)


@pytest.fixture(scope="module")
def quad10():
    return build_quadrature(10)


def test_invariants(quad10):
    assert np.max(np.abs(np.linalg.norm(quad10.nodes, axis=1) - 1.0)) < 1e-14
    assert np.all(quad10.weights > 0)
    assert abs(quad10.weights.sum() - 4 * np.pi) < 1e-12


@pytest.mark.parametrize("degree", [2, 4, 6, 10, 15])
def test_monomial_exactness(degree):
    quad = build_quadrature(degree)
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            for c in range(degree + 1 - a - b):
                vals = (
                    quad.nodes[:, 0] ** a
                    * quad.nodes[:, 1] ** b
                    * quad.nodes[:, 2] ** c
                )
                got = np.dot(quad.weights, vals)
                assert got == pytest.approx(
                    sphere_monomial_integral(a, b, c), abs=1e-12
                ), (a, b, c)


def test_spec_examples():
    q2, q4, q6 = (build_quadrature(d) for d in (2, 4, 6))
    assert np.dot(q2.weights, np.ones(len(q2))) == pytest.approx(4 * np.pi, abs=1e-12)
    assert np.dot(q4.weights, q4.nodes[:, 0] ** 2) == pytest.approx(4 * np.pi / 3, abs=1e-12)
    x, y = q6.nodes[:, 0], q6.nodes[:, 1]
    assert np.dot(q6.weights, x**2 * y**2) == pytest.approx(4 * np.pi / 15, abs=1e-12)


def test_integrate_basics(quad10):
    x = quad10.nodes[:, 0]
    assert len(quad10) == 84
    assert np.dot(quad10.weights, np.zeros(len(quad10))) == 0.0
    assert np.dot(quad10.weights, x) == pytest.approx(0.0, abs=1e-12)
    assert np.dot(quad10.weights, x**2) == pytest.approx(4 * np.pi / 3, rel=1e-12)


def test_unsupported_degree_message():
    with pytest.raises(QuadratureError, match="integers >= 2"):
        build_quadrature(1)
    with pytest.raises(QuadratureError, match="integers >= 2"):
        build_quadrature(-3)


def test_axis_nodes_present(quad10):
    # odd mu count + azimuth multiple of 4 puts nodes exactly on +-e1, +-e2
    for target in ([1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0]):
        hit = np.all(quad10.nodes == np.asarray(target, dtype=float), axis=1)
        assert hit.any(), target


@settings(max_examples=30, deadline=None)
@given(
    alpha=st.floats(-5, 5, allow_nan=False),
    beta=st.floats(-5, 5, allow_nan=False),
)
def test_linearity(alpha, beta):
    quad = build_quadrature(6)
    f = quad.nodes[:, 0] ** 2
    g = quad.nodes[:, 2] ** 2 * quad.nodes[:, 1] ** 2
    lhs = np.dot(quad.weights, alpha * f + beta * g)
    rhs = alpha * np.dot(quad.weights, f) + beta * np.dot(quad.weights, g)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_quadratic_form_trace_identity(seed):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(3, 3))
    A = 0.5 * (A + A.T)
    quad = build_quadrature(4)
    got = np.dot(quad.weights, np.einsum("ni,ij,nj->n", quad.nodes, A, quad.nodes))
    want = 4 * np.pi / 3 * np.trace(A)
    assert got == pytest.approx(want, rel=1e-10, abs=1e-12)


def test_hemisphere_half_range_moments():
    for n in ([1, 0, 0], [0, -1, 0], [0, 0, 1]):
        hemi = build_hemisphere_quadrature(n, _HEMI_DEGREE)
        n = np.asarray(n, dtype=float)
        mu = hemi.nodes @ n
        assert np.all(mu > 0)
        # integral over {v.n>0} of (v.n)/(4pi) = 1/4
        assert np.dot(hemi.weights, mu) / (4 * np.pi) == pytest.approx(0.25, abs=1e-10)
        # integral of (v.n) v = (2pi/3) n
        vec = (hemi.weights * mu) @ hemi.nodes
        assert np.allclose(vec, 2 * np.pi / 3 * n, atol=1e-10)
        # plain hemisphere area
        assert hemi.weights.sum() == pytest.approx(2 * np.pi, abs=1e-10)


def test_hemisphere_mirror_pairing():
    # node sets of opposite normals are exact mirrors through the plane
    up = build_hemisphere_quadrature([0, 1, 0], _HEMI_DEGREE)
    down = build_hemisphere_quadrature([0, -1, 0], _HEMI_DEGREE)
    mirrored = up.nodes * np.array([1.0, -1.0, 1.0])
    # every mirrored node must appear exactly in the opposite set
    for i in range(up.weights.size):
        match = np.all(down.nodes == mirrored[i], axis=1)
        assert match.any(), i
        j = int(np.argmax(match))
        assert down.weights[j] == up.weights[i]
