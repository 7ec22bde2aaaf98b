"""Manufactured linear relaxation system with a closed-form solution.

    d_t rho + d_x qx + d_y qy = 0
    d_t q   + a^2 grad rho    = -kappa q

on the periodic unit square. Fourier modes evolve by the matrix exponential
of the symbol, which provides the exact solution for the convergence
studies. The system satisfies the same interface the production moment
systems implement (minus realizability and boundaries).
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from moment_glioma.grid import GridSpec


class LinearRelaxationSystem:
    """The system on n x n cells of the periodic unit square, whose grid its
    `tissue` holds, as a moment system's does."""

    nvars = 3
    limit_realizability = False
    fallback_count = 0
    closure_iterations = 0

    def __init__(self, n, a=1.0, kappa=1.0):
        self.a = a
        self.kappa = kappa
        self.wave_speed = a
        self.tissue = SimpleNamespace(grid=GridSpec(nx=n, ny=n, dx=1 / n, dy=1 / n))
        ny = nx = n
        S = np.zeros((ny, nx, 3, 3))
        S[..., 1, 1] = -kappa
        S[..., 2, 2] = -kappa
        self._S = S
        self._jac = [
            np.array([[0.0, 1.0, 0.0], [a * a, 0.0, 0.0], [0.0, 0.0, 0.0]]),
            np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [a * a, 0.0, 0.0]]),
        ]
        # the eigensystems of both axes, stacked as a moment system's are
        lams, Rs = [], []
        for J in self._jac:
            lam, V = np.linalg.eig(J)
            order = np.argsort(lam.real)
            lams.append(lam.real[order])
            V = V.real[:, order]
            Rs.append(V / np.linalg.norm(V, axis=0))
        lam, R = np.array(lams)[:, None, None], np.array(Rs)[:, None, None]
        self._char = (
            np.broadcast_to(lam, (2, ny, nx, 3)),
            np.broadcast_to(R, (2, ny, nx, 3, 3)),
            np.broadcast_to(np.linalg.inv(R), (2, ny, nx, 3, 3)),
        )

    def flux(self, U, axis):
        out = np.empty_like(U)
        out[..., 0] = U[..., 1 + axis]
        out[..., 1 + axis] = self.a * self.a * U[..., 0]
        out[..., 2 - axis] = 0.0
        return out

    def source(self, U):
        out = np.zeros_like(U)
        out[..., 1:] = -self.kappa * U[..., 1:]
        return out

    def source_matrix(self, rows=slice(None)):
        return self._S[rows]

    def source_jacobian(self, U):
        return np.broadcast_to(self._S, U.shape[:-1] + (3, 3))

    def char_data(self, U):
        return self._char

    def faces(self, data, cols, h):
        """Characteristic WENO slopes in the exact eigenbasis of each axis,
        then the flux of both face sets along it; `cols` holds both axes'
        rows [U, d-, d+] and h is (dx, dy)."""
        from moment_glioma.reconstruct import weno2_slope

        _, R, Rinv = data
        h = np.reshape(h, (2, 1, 1, 1))
        U = cols[..., 0, :]
        wm = np.einsum("ayxij,ayxj->ayxi", Rinv, cols[..., 1, :])
        wp = np.einsum("ayxij,ayxj->ayxi", Rinv, cols[..., 2, :])
        slope = np.einsum("ayxij,ayxj->ayxi", R, weno2_slope(wm, wp, h))
        f_lo = U - 0.5 * h * slope
        f_hi = U + 0.5 * h * slope
        F_lo, F_hi = (np.stack([self.flux(f[axis], axis) for axis in (0, 1)]) for f in (f_lo, f_hi))
        return f_lo, f_hi, F_lo, F_hi, 0, 0


def symbol_matrix(kx, ky, a, kappa):
    return np.array(
        [
            [0.0, -1j * kx, -1j * ky],
            [-1j * kx * a * a, -kappa, 0.0],
            [-1j * ky * a * a, 0.0, -kappa],
        ]
    )


def exact_solution(t, X, Y, a, kappa, amplitude=0.5):
    """rho0 = 1 + amplitude*cos(2 pi x)cos(2 pi y), q0 = 0, evolved exactly."""
    k = 2.0 * np.pi
    U = np.zeros(X.shape + (3,))
    U[..., 0] = 1.0  # zero mode: rho constant, q stays zero
    for sx in (1, -1):
        for sy in (1, -1):
            M = symbol_matrix(sx * k, sy * k, a, kappa)
            lam, V = np.linalg.eig(M)
            coef = np.linalg.solve(V, np.array([1.0, 0.0, 0.0], dtype=complex))
            u_t = V @ (np.exp(lam * t) * coef)
            phase = np.exp(1j * k * (sx * X + sy * Y))
            for comp in range(3):
                U[..., comp] += (amplitude / 4.0) * (phase * u_t[comp]).real
    return U


def initial_state(X, Y, amplitude=0.5):
    return exact_solution(0.0, X, Y, a=1.0, kappa=0.0, amplitude=amplitude)
