"""Velocity-space quadrature on the unit sphere.

Every moment integral in this package is taken over V = S^2; the constant
cell speed is factored out into the scaling parameters. Each closure
builds the rule its integrands need (see `systems`): M1F the degree-10
rule of 84 nodes, P_N and P_N^(F) the degree max(10, 2N + 3) rule (84
nodes up to P3/P3F, 112 for P5/P5F), and the thermal wall degree-15
half-range rules. The rule is a product of Gauss-Legendre in
mu = cos(theta) with a uniform grid in azimuth: exact for all spherical
polynomials up to the requested degree.

Two conventions matter downstream and are guaranteed here:

* the Gauss-Legendre node count is forced odd, so the equator ring mu = 0
  exists and (with azimuth count a multiple of 4 starting at phi = 0) the
  rule contains nodes exactly at +-e1 and +-e2;
* the trig tables are built with exact reflection symmetry (cos(-phi) ==
  cos(phi) bitwise, etc.), which makes mirror-image integrands produce
  mirror-image sums in floating point.

Node ordering is fixed: index = i_mu * n_phi + k_phi with mu ascending and
phi ascending from 0, so every weighted sum is reproducible run to run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class QuadratureError(ValueError):
    pass


def _symmetric_azimuth_tables(m: int) -> tuple[np.ndarray, np.ndarray]:
    """cos/sin of 2*pi*k/m for k = 0..m-1 with exact +-/reflection symmetry.

    Requires m divisible by 4. Values are generated for the first quadrant
    and mirrored, so c[m-k] == c[k] and s[m-k] == -s[k] hold bitwise.
    """
    if m % 4 != 0:
        raise QuadratureError(f"azimuth count must be a multiple of 4, got {m}")
    q = m // 4
    base_c = np.cos(2.0 * np.pi * np.arange(q + 1) / m)
    base_s = np.sin(2.0 * np.pi * np.arange(q + 1) / m)
    base_c[0], base_s[0] = 1.0, 0.0
    base_c[q], base_s[q] = 0.0, 1.0
    c = np.empty(m)
    s = np.empty(m)
    for k in range(m):
        j = k % (2 * q)
        if j <= q:
            cc, ss = base_c[j], base_s[j]
        else:
            cc, ss = -base_c[2 * q - j], base_s[2 * q - j]
        if k >= 2 * q:
            cc, ss = -cc, -ss
        c[k], s[k] = cc, ss
    return c, s


def _symmetric_leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on [-1, 1] with bitwise +- symmetry."""
    x, w = np.polynomial.legendre.leggauss(n)
    order = np.argsort(x)
    x, w = x[order], w[order]
    if n % 2 == 1:
        x[n // 2] = 0.0
    # rebuild the lower half by negating the upper half
    for i in range(n // 2):
        x[i] = -x[n - 1 - i]
        w[i] = w[n - 1 - i]
    return x, w


@dataclass(frozen=True)
class SphereQuadrature:
    """Fixed node set on S^2, exact for polynomials up to the degree it
    was built for."""

    nodes: np.ndarray    # (n, 3) unit vectors
    weights: np.ndarray  # (n,) positive, summing to 4*pi

    def __post_init__(self):
        norms = np.linalg.norm(self.nodes, axis=1)
        if np.max(np.abs(norms - 1.0)) > 1e-14:
            raise QuadratureError("quadrature nodes are not unit vectors")
        if np.any(self.weights <= 0):
            raise QuadratureError("quadrature weights must be positive")
        if abs(self.weights.sum() - 4.0 * np.pi) > 1e-12:
            raise QuadratureError("quadrature weights do not sum to 4*pi")

    def __len__(self) -> int:
        return self.nodes.shape[0]


def build_quadrature(degree: int = 10) -> SphereQuadrature:
    """Product rule exact for spherical polynomials up to `degree`.

    Any integer degree >= 2 is supported (the product family covers them
    all); smaller or non-integer degrees are rejected.
    """
    if not isinstance(degree, (int, np.integer)) or degree < 2:
        raise QuadratureError(
            f"unsupported quadrature degree {degree!r}: supported degrees "
            "are all integers >= 2"
        )
    n_mu = (degree + 2) // 2          # 2*n - 1 >= degree
    if n_mu % 2 == 0:
        n_mu += 1                     # keep the equator ring
    n_phi = degree + 1
    n_phi += (-n_phi) % 4             # round up to a multiple of 4

    mu, w_mu = _symmetric_leggauss(n_mu)
    c, s = _symmetric_azimuth_tables(n_phi)

    sin_theta = np.sqrt(1.0 - mu * mu)
    nodes = np.empty((n_mu * n_phi, 3))
    weights = np.empty(n_mu * n_phi)
    for i in range(n_mu):
        sl = slice(i * n_phi, (i + 1) * n_phi)
        nodes[sl, 0] = sin_theta[i] * c
        nodes[sl, 1] = sin_theta[i] * s
        nodes[sl, 2] = mu[i]
        weights[sl] = w_mu[i] * (2.0 * np.pi / n_phi)
    return SphereQuadrature(nodes=nodes, weights=weights)


@dataclass(frozen=True)
class HemisphereQuadrature:
    """Quadrature over the half-sphere {v : v.n > 0}.

    Product Gauss-Legendre in mu = v.n over (0, 1) times uniform azimuth;
    exact for polynomial integrands in v up to the degree it was built for.
    Used for the half-range integrals of the thermal boundary condition.
    """

    nodes: np.ndarray    # (n, 3)
    weights: np.ndarray  # (n,)


def _orthonormal_frame(n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic tangent pair (t1, t2) with t2 = n x t1."""
    n = np.asarray(n, dtype=float)
    if abs(n[2]) <= 0.9:
        h = np.array([0.0, 0.0, 1.0])
    else:
        h = np.array([1.0, 0.0, 0.0])
    t1 = h - np.dot(h, n) * n
    t1 /= np.linalg.norm(t1)
    t2 = np.cross(n, t1)
    return t1, t2


def build_hemisphere_quadrature(normal, degree: int) -> HemisphereQuadrature:
    """Half-range rule for the outward hemisphere of `normal`."""
    n = np.asarray(normal, dtype=float)
    nn = np.linalg.norm(n)
    if not (0.999999999999 < nn < 1.000000000001):
        raise QuadratureError("hemisphere normal must be a unit vector")
    n = n / nn
    n_mu = max(2, (degree + 2) // 2)
    n_phi = degree + 1
    n_phi += (-n_phi) % 4

    x, w = np.polynomial.legendre.leggauss(n_mu)
    mu = 0.5 * (x + 1.0)          # map to (0, 1)
    w_mu = 0.5 * w
    c, s = _symmetric_azimuth_tables(n_phi)
    t1, t2 = _orthonormal_frame(n)

    sin_theta = np.sqrt(1.0 - mu * mu)
    nodes = np.empty((n_mu * n_phi, 3))
    weights = np.empty(n_mu * n_phi)
    for i in range(n_mu):
        sl = slice(i * n_phi, (i + 1) * n_phi)
        ring = sin_theta[i] * (np.outer(c, t1) + np.outer(s, t2))
        nodes[sl] = mu[i] * n + ring
        weights[sl] = w_mu[i] * (2.0 * np.pi / n_phi)
    return HemisphereQuadrature(nodes=nodes, weights=weights)
