"""Seeded synthetic brain-slice water-diffusion tensors (TENSORFIELD2D).

The field is smooth, with fiber orientation and anisotropy that vary over
the slice. Fibers lie in the slice plane, so each cell's tensor is a
rotation about z of diag(lam_par, lam_perp, lam_perp). The in-plane
eigenvalues of the derived diffusion tensor then depend only on the cell's
anisotropy, and the anisotropy is rescaled so its maximum is the same for
every seed: the explicit diffusion step, and with it the step count, does
not depend on the seed.
"""

from __future__ import annotations

import numpy as np

from moment_glioma.grid import GridSpec
from moment_glioma.tissue import WaterTensorField

#: perpendicular water diffusivity, mm^2/s (typical white-matter value)
LAM_PERP = 3.0e-4
#: anisotropy lam_par/lam_perp - 1 spans [ANISO_MIN, ANISO_MAX] on every seed
ANISO_MIN, ANISO_MAX = 0.2, 4.0
#: number of low-frequency Fourier modes in each random field
N_MODES = 4


def _smooth_field(rng: np.random.Generator, X: np.ndarray, Y: np.ndarray, L: float):
    f = np.zeros_like(X)
    for _ in range(N_MODES):
        kx, ky = rng.integers(1, 4, size=2)
        px, py = rng.uniform(0.0, 2.0 * np.pi, size=2)
        f += rng.normal() * np.sin(2 * np.pi * kx * X / L + px) * np.sin(
            2 * np.pi * ky * Y / L + py
        )
    return f


def synth_brain_tensors(seed: int, n: int, h_mm: float) -> WaterTensorField:
    """n x n cells of spacing h_mm, origin at (0, 0); same seed, same field."""
    rng = np.random.default_rng(seed)
    grid = GridSpec(nx=n, ny=n, x0=0.0, y0=0.0, dx=h_mm, dy=h_mm)
    X, Y = grid.cell_centers()
    L = n * h_mm
    theta = np.pi * _smooth_field(rng, X, Y, L)
    s = _smooth_field(rng, X, Y, L)
    aniso = ANISO_MIN + (ANISO_MAX - ANISO_MIN) * (s - s.min()) / (s.max() - s.min())
    lam_par = LAM_PERP * (1.0 + aniso)
    c, sn = np.cos(theta), np.sin(theta)
    t = np.zeros((n, n, 3, 3))
    t[..., 0, 0] = lam_par * c * c + LAM_PERP * sn * sn
    t[..., 1, 1] = lam_par * sn * sn + LAM_PERP * c * c
    t[..., 0, 1] = t[..., 1, 0] = (lam_par - LAM_PERP) * c * sn
    t[..., 2, 2] = LAM_PERP
    field = WaterTensorField(grid=grid, tensors=t)
    field.validate()
    return field
