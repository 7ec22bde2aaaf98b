"""Moment closures: the kernels the moment systems evaluate.

Given the resolved moments (rho, q) of the cell density, or its P_N moment
vector, each closure supplies the unresolved pressure tensor
P^A = <v (x) v f^A> through an ansatz:

* K1F: algebraic interpolation P^A = rho[(1-|qhat|^2) D_F + qhat (x) qhat]
  between equilibrium and free streaming (`kershaw_pressure_batch`), with
  its derivative along a direction (`kershaw_pressure_derivative`) and
  flux Jacobian along a unit normal (`kershaw_jacobian`), that
  Jacobian's acoustic speeds in closed form (`kershaw_acoustic_offsets`,
  which the K1F system limits with) and its spectrum for the
  hyperbolicity analysis (`kershaw_spectrum`);
* M1F: positive exponential f^A = a exp(eps v.b) F, closed by a damped
  Newton solve of the strictly convex entropy dual (`m1f_dual_solve`).
  Each solve starts at beta = 0 from an `M1FDualStart`
  (`m1f_dual_start`): the anchor-only moments of one batch of cells,
  built once and reused by every solve on that batch. It must be built on
  the solve's own batch, rows in the same order, because BLAS rounds a
  row of the mean `wF @ V` differently with its offset in the batch;
  built that way, a solve from it has the bits of one started from
  scratch;
* P_N and P_N^(F): polynomial (times anchor) ansatz on the monomials of
  degree <= N with iz <= 1 (`pn_basis`), the (N+1)^2 that are independent
  on the sphere, where v_z^2 = 1 - v_x^2 - v_y^2. These closures are
  linear in the moments, so `systems.LinearAnsatzSystem` assembles them
  per cell; P1F is N = 1.

Apart from `kershaw_spectrum` (one state, for the analysis and the
`spectrum` CLI) every kernel is batched over leading axes and is the one
the solver runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .reconstruct import row_norm

#: kershaw_spectrum: diagonalizable means eigenvector sigma_min > 1/_COND_THRESHOLD
_COND_THRESHOLD = 1e8
#: M1F dual Newton: residual tolerance on <v f>/rho - qhat, iteration cap
_NEWTON_TOL = 1e-10
_NEWTON_MAXIT = 60


class ClosureError(ValueError):
    pass


class RealizabilityError(ClosureError):
    pass


# ---------------------------------------------------------------------------
# K1F: Kershaw pressure, flux Jacobian and spectrum
# ---------------------------------------------------------------------------

def kershaw_pressure_batch(rho: np.ndarray, q: np.ndarray, DF: np.ndarray) -> np.ndarray:
    """P^A for arrays rho (...,), q (..., 3), DF (..., 3, 3)."""
    qhat = q / rho[..., None]
    r2 = np.einsum("...i,...i->...", qhat, qhat)
    return rho[..., None, None] * (
        (1.0 - r2)[..., None, None] * DF
        + qhat[..., :, None] * qhat[..., None, :]
    )


def kershaw_pressure_derivative(rho, q, g, DFg) -> np.ndarray:
    """d(P^A g)/d(rho, q), (..., 3, 4), for a direction g with DFg = D_F g;
    rho (...,) and q, g, DFg (..., 3) broadcast against each other. The K1F
    source differentiates P^A gradQ3 with it; `kershaw_jacobian` is
    [[0, n^T], its value at g = n]."""
    qh = q / rho[..., None]
    r2 = np.einsum("...i,...i->...", qh, qh)
    qg = np.einsum("...i,...i->...", qh, g)
    dPg = np.empty(np.broadcast_shapes(qh.shape, g.shape, DFg.shape)[:-1] + (3, 4))
    dPg[..., 0] = (1.0 + r2)[..., None] * DFg - qg[..., None] * qh
    dPg[..., 1:] = (
        -2.0 * DFg[..., :, None] * qh[..., None, :]
        + qg[..., None, None] * np.eye(3)
        + qh[..., :, None] * g[..., None, :]
    )
    return dPg


def kershaw_jacobian(
    rho: np.ndarray, q: np.ndarray, DF: np.ndarray, n: np.ndarray
) -> np.ndarray:
    """Unit-speed Jacobian of (q.n, P^A n) w.r.t. (rho, q); shape (..., 4, 4).

    rho (...,), q (..., 3), DF (..., 3, 3) and the unit normal n (..., 3)
    broadcast against each other. Blocks:
        [ 0                                  n^T                                   ]
        [ (1+|qhat|^2) DF n - (qhat.n) qhat  -2(DF n)qhat^T + (qhat.n)I + qhat n^T ]
    """
    n = np.asarray(n, dtype=float)
    dPn = kershaw_pressure_derivative(rho, q, n, np.einsum("...ij,...j->...i", DF, n))
    J = np.zeros(dPn.shape[:-2] + (4, 4))
    J[..., 0, 1:] = n
    J[..., 1:, :] = dPn
    return J


def kershaw_acoustic_offsets(p: np.ndarray, w: np.ndarray):
    """Acoustic speeds of `kershaw_jacobian` along a unit normal n, relative
    to its double contact speed mu = qhat.n: (lam- - mu, lam+ - mu).

    lam+- = mu - p +- sqrt(p^2 + w), with p = qhat.D_F n and
    w = (1 - |qhat|^2) n.D_F n; the two offsets multiply to -w, so the one
    of smaller magnitude is formed as w / (sqrt(p^2 + w) + |p|), free of
    cancellation. Batched over p and w.
    """
    t = np.sqrt(np.maximum(p * p + w, 0.0)) + np.abs(p)
    small = w / np.where(t > 0.0, t, 1.0)   # t = 0 only where w = p = 0
    return np.where(p > 0.0, -t, -small), np.where(p > 0.0, small, t)


@dataclass
class KershawSpectrum:
    eigenvalues: np.ndarray          # numeric, sorted ascending (real parts)
    max_imag: float                  # largest |Im| of the numeric eigenvalues
    diagonalizable: bool             # eigenvector matrix sigma_min above threshold
    eigenvector_sigma_min: float
    case: str                        # "parallel" | "perpendicular" | "general"
    analytic: np.ndarray             # closed form (`kershaw_acoustic_offsets`), sorted
    analytic_paper: np.ndarray | None  # closed form as printed (parallel case only)
    analytic_check: float            # max |numeric - analytic|


def kershaw_spectrum(
    qhat: np.ndarray,
    DF: np.ndarray,
    n: np.ndarray,
) -> KershawSpectrum:
    """Numeric eigenvalues of the Jacobian at qhat plus closed forms.

    Raises RealizabilityError for |qhat| > 1. The numeric eigenvalues of
    `kershaw_jacobian` (at rho = 1) are checked against the closed form
    {mu + (lam- - mu), mu, mu, mu + (lam+ - mu)} of every normal, the one
    the K1F system limits with. `case` labels n parallel or perpendicular
    to qhat; the parallel case also reports the paper's closed form as
    printed, which differs from the matrix away from |qhat| = 1.
    """
    qhat = np.asarray(qhat, dtype=float)
    DF = np.asarray(DF, dtype=float)
    n = np.asarray(n, dtype=float)
    r2 = float(qhat @ qhat)
    if r2 > 1.0 + 1e-12:
        raise RealizabilityError(f"|qhat| = {np.sqrt(r2):.6g} > 1")
    J = kershaw_jacobian(np.ones(()), qhat, DF, n)
    ev, V = np.linalg.eig(J)
    max_imag = float(np.max(np.abs(ev.imag)))
    order = np.argsort(ev.real, kind="stable")
    ev_sorted = ev.real[order]
    sigma = np.linalg.svd(V, compute_uv=False)
    sigma_min = float(sigma[-1])
    diagonalizable = sigma_min > 1.0 / _COND_THRESHOLD

    DFn = DF @ n
    mu = float(qhat @ n)
    d_minus, d_plus = kershaw_acoustic_offsets(
        float(qhat @ DFn), (1.0 - r2) * float(n @ DFn)
    )
    analytic = np.array([mu + d_minus, mu, mu, mu + d_plus])
    analytic_paper = None
    r = float(np.sqrt(r2))
    case = "general"
    if r < 1e-13:
        case = "parallel"  # the direction of qhat is immaterial
    else:
        qdir = qhat / r
        c = float(qdir @ n)
        if abs(abs(c) - 1.0) < 1e-12:
            s11 = float(qdir @ DF @ qdir)
            sgn = 1.0 if c > 0 else -1.0
            disc_paper = s11**2 * r**2 + s11 * (r - 1.0) ** 2 + (1.0 - r * r)
            lam34_paper = np.array(
                [
                    (1.0 - s11 * r) - np.sqrt(disc_paper),
                    (1.0 - s11 * r) + np.sqrt(disc_paper),
                ]
            )
            analytic_paper = np.sort(np.concatenate([[r, r], lam34_paper]) * sgn)
            case = "parallel"
        elif abs(c) < 1e-12:
            case = "perpendicular"
    check = float(np.max(np.abs(ev_sorted - analytic)))
    return KershawSpectrum(
        eigenvalues=ev_sorted,
        max_imag=max_imag,
        diagonalizable=diagonalizable,
        eigenvector_sigma_min=sigma_min,
        case=case,
        analytic=analytic,
        analytic_paper=analytic_paper,
        analytic_check=check,
    )


# ---------------------------------------------------------------------------
# M1F: entropy dual
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class M1FDualStart:
    """The beta = 0 state of the M1F dual for one batch of cells.

    At beta = 0 every node weight is exp(0) wF = wF, so the solve's first
    weights, partition function, mean and second moments depend on the
    anchor weights alone. Valid only for the batch it was built on (same
    rows, same order): OpenBLAS rounds a row of `wF @ V` differently with
    its offset in the batch. `m1f_dual_solve` reads it and never writes it.
    """

    wF: np.ndarray       # (nc, nq) contiguous node weights
    Z: np.ndarray        # (nc,) sum of wF
    mean: np.ndarray     # (nc, 3) (wF @ V) / Z
    M2raw: np.ndarray    # (nc, 3, 3) sum_n wF v v^T, not yet divided by Z


def m1f_dual_start(wF: np.ndarray, V: np.ndarray) -> M1FDualStart:
    """The beta = 0 start of `m1f_dual_solve` for the cells with node
    weights wF (nc, nq) at the nodes V (nq, 3)."""
    wF = np.ascontiguousarray(wF, dtype=float)
    Z = wF.sum(axis=1)
    return M1FDualStart(
        wF=wF,
        Z=Z,
        mean=(wF @ V) / Z[:, None],
        # each entry summed over the nodes in order, so a row's M2 does not
        # depend on the other rows of the batch and can be indexed
        M2raw=np.einsum("cn,ni,nj->cij", wF, V, V),
    )


def m1f_dual_solve(qhat: np.ndarray, start: M1FDualStart, V: np.ndarray):
    """Solve <v e^{v.beta} F>/<e^{v.beta} F> = qhat for many cells at once.

    qhat (nc, 3); `start` is `m1f_dual_start` of the same nc cells, whose
    weights wF are the quadrature weights times the anchor F at the nodes
    V (nq, 3). Damped Newton on the convex dual from beta = 0, until the
    residual |<v f>/rho - qhat| is at most _NEWTON_TOL. A cell whose Newton
    matrix is singular fails alone. Returns (beta, normalized node weights,
    log <e^{v.beta} F>, failed mask, iterations), where iterations is the
    number of active rows summed over the Newton iterations; failures are
    left to the caller to handle.
    """
    nc = qhat.shape[0]
    if start.wF.shape[0] != nc:
        raise ValueError(
            f"M1F dual start holds {start.wF.shape[0]} cells, qhat has {nc} rows"
        )
    beta = np.zeros((nc, 3))

    def stats(b, wF_rows, qhat_rows):
        t = b @ V.T
        tmax = t.max(axis=1)
        gz = wF_rows * np.exp(t - tmax[:, None])
        Z = gz.sum(axis=1)
        mean = (gz @ V) / Z[:, None]
        chi = np.log(Z) + tmax - np.einsum("ci,ci->c", b, qhat_rows)
        return gz, Z, tmax, mean, chi

    wF = start.wF
    gz, Z, mean, tmax = wF.copy(), start.Z.copy(), start.mean.copy(), np.zeros(nc)
    chi = np.log(Z) + tmax - np.einsum("ci,ci->c", beta, qhat)
    failed = np.zeros(nc, dtype=bool)
    iterations = 0
    idx = np.arange(nc)
    for it in range(_NEWTON_MAXIT):
        # only the rows stepped last time can have moved: a converged or
        # failed row stays so
        idx = idx[(row_norm(mean[idx] - qhat[idx]) > _NEWTON_TOL) & ~failed[idx]]
        if idx.size == 0:
            break
        iterations += idx.size
        if it == 0:
            # gz is still wF on every row
            M2 = start.M2raw[idx] / Z[idx, None, None]
        else:
            M2 = np.einsum("cn,ni,nj->cij", gz[idx], V, V) / Z[idx, None, None]
        H = M2 - mean[idx, :, None] * mean[idx, None, :]
        rhs = (mean[idx] - qhat[idx])[..., None]
        try:
            step = np.linalg.solve(H, rhs)[..., 0]
        except np.linalg.LinAlgError:
            # LAPACK factors each matrix on its own, so solving row by row
            # gives the other rows their batched bits
            step, singular = _solve_rows(H, rhs)
            failed[idx[singular]] = True
            idx, step = idx[~singular], step[~singular]
        alpha = np.ones(idx.size)
        slack = 1e-14 * np.maximum(1.0, np.abs(chi[idx]))
        pending = np.ones(idx.size, dtype=bool)
        for _ in range(40):
            sub = np.flatnonzero(pending)
            rows = idx[sub]
            trial = beta[rows] - alpha[sub, None] * step[sub]
            gz_t, Z_t, tmax_t, mean_t, chi_t = stats(trial, wF[rows], qhat[rows])
            accept = chi_t <= chi[rows] + slack[sub]
            acc = rows[accept]
            beta[acc] = trial[accept]
            gz[acc] = gz_t[accept]
            Z[acc] = Z_t[accept]
            tmax[acc] = tmax_t[accept]
            mean[acc] = mean_t[accept]
            chi[acc] = chi_t[accept]
            pending[sub[accept]] = False
            if not np.any(pending):
                break
            alpha[pending] *= 0.5
        failed[idx[pending]] = True
    res = row_norm(mean - qhat)
    failed |= res > max(10 * _NEWTON_TOL, 1e-8)
    lognorm = np.log(Z) + tmax
    return beta, gz / Z[:, None], lognorm, failed, iterations


def _solve_rows(H: np.ndarray, rhs: np.ndarray):
    """Solve H x = rhs one matrix at a time: (x (n, 3), singular mask)."""
    step = np.zeros(rhs.shape[:-1])
    singular = np.zeros(H.shape[0], dtype=bool)
    for k in range(H.shape[0]):
        try:
            step[k] = np.linalg.solve(H[k], rhs[k])[:, 0]
        except np.linalg.LinAlgError:
            singular[k] = True
    return step, singular


# ---------------------------------------------------------------------------
# P_N monomial basis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PnBasis:
    """The monomials v^i of total degree <= N that are independent on S^2.

    Since v_z^2 = 1 - v_x^2 - v_y^2 on the sphere, the monomials with
    iz <= 1 span every polynomial of degree <= N there; they are the
    (N+1)^2 moments the P_N and P_N^(F) systems evolve. `exponents` lists
    them degree-major and x-first inside a degree: a_0 = 1, then v_x, v_y,
    v_z, ...
    """

    exponents: np.ndarray        # (Kr, 3) int

    @property
    def Kr(self) -> int:
        return self.exponents.shape[0]

    def evaluate_reduced(self, points: np.ndarray) -> np.ndarray:
        """Monomial values at the points (npoints, 3), shape (npoints, Kr).

        The values are laid out column-major, each monomial's values at all
        points contiguous: the P_N setup's einsum reductions over the nodes
        round according to that layout, so it is part of what fixes the
        bits of every P_N run.
        """
        p = np.atleast_2d(np.asarray(points, dtype=float)).T
        e = self.exponents[:, :, None]
        return (p[0] ** e[:, 0] * p[1] ** e[:, 1] * p[2] ** e[:, 2]).T


def pn_basis(N: int) -> PnBasis:
    """Monomial basis of P_N / P_N^(F), 1 <= N <= 5."""
    if not isinstance(N, (int, np.integer)) or not (1 <= N <= 5):
        raise ClosureError(f"moment order N must be an integer in [1, 5], got {N!r}")
    exps = [
        (ix, iy, deg - ix - iy)
        for deg in range(N + 1)
        for ix in range(deg, -1, -1)
        for iy in range(deg - ix, -1, -1)
        if deg - ix - iy <= 1
    ]
    basis = PnBasis(exponents=np.asarray(exps, dtype=int))
    assert basis.Kr == (N + 1) ** 2
    return basis
