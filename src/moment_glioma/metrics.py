"""Model comparison via the pointwise relative difference.

relerr(h1, h2)(x) = |h1(x) - h2(x)| / max_x |h2(x)|, evaluated on the grid
both fields share, with exceedance areas in its physical units at the
contour levels the comparison figures use (0.1, 0.05, 0.02, 0.01).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import GridSpec

CONTOUR_LEVELS = (0.1, 0.05, 0.02, 0.01)


class MetricsError(ValueError):
    pass


@dataclass
class ComparisonReport:
    field: np.ndarray          # (ny, nx) pointwise relative difference
    max: float
    mean: float
    areas: dict                # level -> area where relerr > level

    def summary(self) -> str:
        areas = " ".join(f">{lvl:g}:{a:.6g}" for lvl, a in self.areas.items())
        return f"max={self.max:.6g} mean={self.mean:.6g} area[{areas}]"


def relative_difference(h1: np.ndarray, h2: np.ndarray, grid: GridSpec) -> ComparisonReport:
    """Pointwise |h1 - h2| / ||h2||_inf with summary statistics.

    Both fields live on `grid` (shapes checked); the exceedance areas are
    in its physical units.
    """
    h1 = np.asarray(h1, dtype=float)
    h2 = np.asarray(h2, dtype=float)
    if h1.shape != h2.shape:
        raise MetricsError(f"field shapes differ: {h1.shape} vs {h2.shape}")
    if h1.shape != (grid.ny, grid.nx):
        raise MetricsError(f"field shape {h1.shape} does not match grid")
    ref = float(np.max(np.abs(h2)))
    if ref <= 0:
        raise MetricsError("reference field is identically zero")
    field = np.abs(h1 - h2) / ref
    areas = {
        lvl: float(np.count_nonzero(field > lvl)) * grid.cell_area
        for lvl in CONTOUR_LEVELS
    }
    return ComparisonReport(
        field=field, max=float(field.max()), mean=float(field.mean()), areas=areas
    )
