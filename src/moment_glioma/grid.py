"""Cartesian cell-centered grid description shared by every solver."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class GridSpec:
    """Cell-centered 2D grid: cell (ix, iy) sits at (x0+(ix+1/2)dx, y0+(iy+1/2)dy)."""

    nx: int
    ny: int
    x0: float = 0.0
    y0: float = 0.0
    dx: float = 1.0
    dy: float = 1.0

    def __post_init__(self):
        if self.nx < 3 or self.ny < 3:
            raise ValueError(f"grid needs nx, ny >= 3, got {self.nx} x {self.ny}")
        # written so that NaN fails too
        if not (math.isfinite(self.x0) and math.isfinite(self.y0)):
            raise ValueError(f"grid origin must be finite, got x0={self.x0}, y0={self.y0}")
        if not (0 < self.dx < math.inf and 0 < self.dy < math.inf):
            raise ValueError(
                f"grid spacings must be positive and finite, got dx={self.dx}, dy={self.dy}"
            )

    def cell_x(self, ix) -> float:
        return self.x0 + (np.asarray(ix) + 0.5) * self.dx

    def cell_y(self, iy) -> float:
        return self.y0 + (np.asarray(iy) + 0.5) * self.dy

    def cell_centers(self) -> tuple[np.ndarray, np.ndarray]:
        """Meshgrids (ny, nx) of cell-center coordinates."""
        x = self.cell_x(np.arange(self.nx))
        y = self.cell_y(np.arange(self.ny))
        return np.meshgrid(x, y)

    @property
    def cell_area(self) -> float:
        return self.dx * self.dy

    def close_to(self, other: "GridSpec", tol: float = 1e-12) -> bool:
        return (
            self.nx == other.nx
            and self.ny == other.ny
            and abs(self.x0 - other.x0) <= tol
            and abs(self.y0 - other.y0) <= tol
            and abs(self.dx - other.dx) <= tol
            and abs(self.dy - other.dy) <= tol
        )
