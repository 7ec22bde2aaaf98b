"""Manufactured linear relaxation system with a closed-form solution.

    d_t rho + d_x qx + d_y qy = 0
    d_t q   + a^2 grad rho    = -kappa q

on the periodic unit square. Fourier modes evolve by the matrix exponential
of the symbol, which provides the exact solution for the convergence
studies. The system satisfies the same interface the production moment
systems implement (minus realizability and boundaries).
"""

from __future__ import annotations

import numpy as np


class LinearRelaxationSystem:
    nvars = 3
    limit_realizability = False
    fallback_count = 0
    closure_iterations = 0

    def __init__(self, shape, a=1.0, kappa=1.0):
        self.a = a
        self.kappa = kappa
        self.wave_speed = a
        ny, nx = shape
        S = np.zeros((ny, nx, 3, 3))
        S[..., 1, 1] = -kappa
        S[..., 2, 2] = -kappa
        self._S = S
        self._jac = [
            np.array([[0.0, 1.0, 0.0], [a * a, 0.0, 0.0], [0.0, 0.0, 0.0]]),
            np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [a * a, 0.0, 0.0]]),
        ]
        self._char = []
        for J in self._jac:
            lam, V = np.linalg.eig(J)
            order = np.argsort(lam.real)
            lam = lam.real[order]
            V = V.real[:, order]
            V /= np.linalg.norm(V, axis=0)
            lam_b = np.broadcast_to(lam, (ny, nx, 3))
            R = np.broadcast_to(V, (ny, nx, 3, 3))
            Rinv = np.broadcast_to(np.linalg.inv(V), (ny, nx, 3, 3))
            self._char.append((lam_b, R, Rinv))

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
        return tuple(self._char)

    def faces(self, data, axis, cols, h):
        """Characteristic WENO slopes in the exact eigenbasis, then the flux
        of both face sets."""
        from moment_glioma.reconstruct import weno2_slope

        _, R, Rinv = data
        U = cols[..., 0, :]
        wm = np.einsum("yxij,yxj->yxi", Rinv, cols[..., 1, :])
        wp = np.einsum("yxij,yxj->yxi", Rinv, cols[..., 2, :])
        slope = np.einsum("yxij,yxj->yxi", R, weno2_slope(wm, wp, h))
        f_lo = U - 0.5 * h * slope
        f_hi = U + 0.5 * h * slope
        return f_lo, f_hi, self.flux(f_lo, axis), self.flux(f_hi, axis), 0, 0


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
