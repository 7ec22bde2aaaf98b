"""Moment closures for the first-order and higher-order systems.

Given the resolved moments of the cell density (rho, q) or a full moment
vector u_N, each closure supplies the unresolved pressure tensor
P^A = <v (x) v f^A> through an ansatz:

* linear anchored ansatz  f^A = (a + eps v.b) F(v)          (P1F),
* positive exponential    f^A = a exp(eps v.b) F(v)         (M1F),
* algebraic interpolation P^A = rho[(1-|qhat|^2) D_F + qhat (x) qhat]
  between equilibrium and free streaming                     (K1F),
* polynomial (times anchor) ansatz on a monomial basis       (PN / PNF).

Realizability bookkeeping: first order |q| <= rho; second order
P/rho - qhat (x) qhat >= 0 together with tr(P/rho) = 1 (unit-speed
velocities force the trace). The Kershaw flux Jacobian and its spectrum
are assembled for the hyperbolicity analysis; the monomial basis is
redundant on the sphere for N >= 2 and is resolved through the documented
reduced basis with v_z^2 = 1 - v_x^2 - v_y^2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

import numpy as np

from .quadrature import SphereQuadrature

#: kershaw_spectrum: diagonalizable means eigenvector sigma_min > 1/_COND_THRESHOLD
_COND_THRESHOLD = 1e8
#: pnf_reconstruct: relative moment reproduction error a full-length input may have
_CONSISTENCY_TOL = 1e-8


class ClosureError(ValueError):
    pass


class RealizabilityError(ClosureError):
    pass


class ConvergenceError(ClosureError):
    def __init__(self, message, residual_history=None):
        super().__init__(message)
        self.residual_history = residual_history or []


# ---------------------------------------------------------------------------
# moment containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MomentVector1:
    """Zeroth and first moment (rho, q) of the cell density."""

    rho: float
    q: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "q", np.asarray(self.q, dtype=float))
        if not np.isfinite(self.rho) or self.rho < 0:
            raise ClosureError(f"density must be finite and >= 0, got {self.rho}")
        if self.q.shape != (3,) or not np.all(np.isfinite(self.q)):
            raise ClosureError("momentum must be a finite 3-vector")

    @property
    def qhat(self) -> np.ndarray:
        if self.rho == 0:
            return np.zeros(3)
        return self.q / self.rho


@dataclass
class ClosureResult:
    P: np.ndarray                     # (3, 3) pressure tensor
    multipliers: tuple | None = None  # (a, b) when the ansatz has them


@dataclass(frozen=True)
class AnchorMoments:
    """<v F>, <v(x)v F>, <v(x)v(x)v F> of an anchor distribution."""

    m1: np.ndarray  # (3,)
    M2: np.ndarray  # (3, 3)
    M3: np.ndarray  # (3, 3, 3)


def anchor_moments_from_nodes(
    anchor: np.ndarray, quad: SphereQuadrature
) -> AnchorMoments:
    w = quad.weights * np.asarray(anchor, dtype=float)
    V = quad.nodes
    return AnchorMoments(
        m1=w @ V,
        M2=np.einsum("n,ni,nj->ij", w, V, V),
        M3=np.einsum("n,ni,nj,nk->ijk", w, V, V, V),
    )


# ---------------------------------------------------------------------------
# first-order closures
# ---------------------------------------------------------------------------

def p1f_closure(m: MomentVector1, anchor: AnchorMoments, eps: float) -> ClosureResult:
    """Linear anchored closure f^A = (a + eps v.b) F.

    Multipliers solve  a = rho - eps b.m1  and  eps (M2 - m1 m1^T) b = q - rho m1;
    the matrix is positive definite whenever the anchor has non-flat support.
    """
    A = anchor.M2 - np.outer(anchor.m1, anchor.m1)
    rhs = m.q - m.rho * anchor.m1
    try:
        lam = np.linalg.eigvalsh(A)
        if lam[0] <= 1e-14:
            raise np.linalg.LinAlgError
        b = np.linalg.solve(eps * A, rhs)
    except np.linalg.LinAlgError:
        raise ClosureError(
            "anchor covariance <v v F> - <vF><vF>^T is singular: the anchor has "
            "flat support, so the linear ansatz cannot match the momentum"
        ) from None
    a = m.rho - eps * np.dot(b, anchor.m1)
    P = a * anchor.M2 + eps * np.einsum("ijk,k->ij", anchor.M3, b)
    return ClosureResult(P=P, multipliers=(a, b))


def m1f_closure(
    m: MomentVector1,
    anchor_nodes: np.ndarray,
    quad: SphereQuadrature,
    eps: float = 1.0,
    tol: float = 1e-10,
    maxit: int = 200,
    beta0: np.ndarray | None = None,
) -> ClosureResult:
    """Minimum-entropy-style anchored closure f^A = a exp(eps v.b) F.

    Newton iteration on the strictly convex dual in beta = eps*b with
    backtracking (at most 40 halvings per step); `a` is recovered in closed
    form. The moment residual is measured relative to rho.
    """
    qhat = m.qhat
    r = float(np.linalg.norm(qhat))
    if r >= 1.0:
        raise RealizabilityError(
            f"|qhat| = {r:.6g} >= 1: strict first-order realizability required"
        )
    F = np.asarray(anchor_nodes, dtype=float)
    if np.any(F <= 0):
        raise ClosureError("exponential ansatz needs a strictly positive anchor")
    V = quad.nodes
    wF = quad.weights * F

    def stats(beta):
        t = V @ beta
        tmax = t.max()
        g = wF * np.exp(t - tmax)
        Z = g.sum()
        mean = (g @ V) / Z
        M2 = np.einsum("n,ni,nj->ij", g, V, V) / Z
        chi = np.log(Z) + tmax - beta @ qhat
        return chi, mean, M2, Z, tmax

    beta = np.zeros(3) if beta0 is None else np.asarray(beta0, dtype=float)
    chi, mean, M2, Z, tmax = stats(beta)
    history = []
    for _ in range(maxit):
        grad = mean - qhat
        res = float(np.linalg.norm(grad))
        history.append(res)
        if res <= tol:
            b = beta / eps
            log_norm = np.log(Z) + tmax  # log <exp(v.beta) F>
            a = m.rho * np.exp(-log_norm)
            return ClosureResult(P=m.rho * M2, multipliers=(a, b))
        H = M2 - np.outer(mean, mean)
        try:
            step = np.linalg.solve(H, grad)
        except np.linalg.LinAlgError:
            raise ConvergenceError(
                f"dual Hessian singular at residual {res:.3e} (anchor nearly flat "
                "or |qhat| outside the reachable set)",
                history,
            ) from None
        alpha = 1.0
        slack = 1e-14 * max(1.0, abs(chi))  # allow fp-noise-level non-decrease
        for _ in range(40):
            cand = beta - alpha * step
            chi_c, mean_c, M2_c, Z_c, tmax_c = stats(cand)
            if chi_c <= chi + slack:
                beta, chi, mean, M2, Z, tmax = cand, chi_c, mean_c, M2_c, Z_c, tmax_c
                break
            alpha *= 0.5
        else:
            raise ConvergenceError(
                f"line search failed at residual {res:.3e}", history
            )
    raise ConvergenceError(
        f"Newton did not reach tol={tol:g} in {maxit} iterations; "
        f"last residual {history[-1]:.3e}",
        history,
    )


def kershaw_closure(m: MomentVector1, DF: np.ndarray) -> ClosureResult:
    """Realizability-preserving interpolation between equilibrium and
    free streaming: P = rho[(1-|qhat|^2) D_F + qhat (x) qhat]."""
    DF = np.asarray(DF, dtype=float)
    qhat = m.qhat
    r2 = float(qhat @ qhat)
    if r2 > 1.0 + 1e-12:
        raise RealizabilityError(f"|qhat| = {np.sqrt(r2):.6g} > 1")
    P = m.rho * ((1.0 - r2) * DF + np.outer(qhat, qhat))
    return ClosureResult(P=P, multipliers=None)


@dataclass(frozen=True)
class RealizabilityMargins:
    first: float      # 1 - |qhat|
    second: float     # min eigenvalue of Phat - qhat qhat^T
    trace_err: float  # |tr(Phat) - 1|


def check_realizability(m: MomentVector1, P: np.ndarray) -> RealizabilityMargins:
    """Signed margins of the first/second-order realizability conditions."""
    if m.rho <= 0:
        raise ClosureError(f"realizability margins need rho > 0, got {m.rho}")
    qhat = m.qhat
    Phat = np.asarray(P, dtype=float) / m.rho
    lam_min = float(np.linalg.eigvalsh(Phat - np.outer(qhat, qhat))[0])
    return RealizabilityMargins(
        first=1.0 - float(np.linalg.norm(qhat)),
        second=lam_min,
        trace_err=abs(float(np.trace(Phat)) - 1.0),
    )


# ---------------------------------------------------------------------------
# Kershaw flux Jacobian and spectrum
# ---------------------------------------------------------------------------

def kershaw_flux_jacobian(m: MomentVector1, DF: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Jacobian of (q.n, P^A n) w.r.t. (rho, q) in unit-speed variables.

    Blocks:
        [ 0                                      n^T                          ]
        [ (1+|qhat|^2) DF n - (qhat.n) qhat      -2(DF n)qhat^T + (qhat.n)I + qhat n^T ]
    """
    DF = np.asarray(DF, dtype=float)
    n = np.asarray(n, dtype=float)
    qhat = m.qhat
    r2 = float(qhat @ qhat)
    if r2 > 1.0 + 1e-12:
        raise RealizabilityError(f"|qhat| = {np.sqrt(r2):.6g} > 1")
    DFn = DF @ n
    qn = float(qhat @ n)
    J = np.zeros((4, 4))
    J[0, 1:] = n
    J[1:, 0] = (1.0 + r2) * DFn - qn * qhat
    J[1:, 1:] = -2.0 * np.outer(DFn, qhat) + qn * np.eye(3) + np.outer(qhat, n)
    return J


@dataclass
class KershawSpectrum:
    eigenvalues: np.ndarray          # numeric, sorted ascending (real parts)
    max_imag: float                  # largest |Im| of the numeric eigenvalues
    diagonalizable: bool             # eigenvector matrix sigma_min above threshold
    eigenvector_sigma_min: float
    case: str                        # "parallel" | "perpendicular" | "general"
    analytic: np.ndarray | None      # re-derived closed form, sorted (when applicable)
    analytic_paper: np.ndarray | None  # closed form as printed (parallel case only)
    analytic_check: float | None     # max |numeric - analytic| (re-derived form)


def kershaw_spectrum(
    m: MomentVector1,
    DF: np.ndarray,
    n: np.ndarray,
) -> KershawSpectrum:
    """Numeric eigenvalues of the assembled Jacobian plus closed forms.

    The assembled-Jacobian eigensolver is the ground truth. For n parallel
    or perpendicular to qhat the rotated-frame closed forms are evaluated
    too; the "parallel" case reports both the re-derived linear coefficient
    and the one as printed (they differ away from |qhat| = 1).
    """
    DF = np.asarray(DF, dtype=float)
    n = np.asarray(n, dtype=float)
    J = kershaw_flux_jacobian(m, DF, n)
    ev, V = np.linalg.eig(J)
    max_imag = float(np.max(np.abs(ev.imag)))
    order = np.argsort(ev.real, kind="stable")
    ev_sorted = ev.real[order]
    sigma = np.linalg.svd(V, compute_uv=False)
    sigma_min = float(sigma[-1])
    diagonalizable = sigma_min > 1.0 / _COND_THRESHOLD

    qhat = m.qhat
    r = float(np.linalg.norm(qhat))
    analytic = analytic_paper = None
    case = "general"
    if r < 1e-13:
        # direction of qhat is immaterial; spectrum is {+-sqrt(n.DF.n), 0, 0}
        s = float(n @ DF @ n)
        analytic = np.array([-np.sqrt(s), 0.0, 0.0, np.sqrt(s)])
        case = "parallel"
    else:
        qdir = qhat / r
        c = float(qdir @ n)
        if abs(abs(c) - 1.0) < 1e-12:
            s11 = float(qdir @ DF @ qdir)
            sgn = 1.0 if c > 0 else -1.0
            disc = s11 * (1.0 - r * r * (1.0 - s11))
            lam34 = np.array(
                [r * (1.0 - s11) - np.sqrt(disc), r * (1.0 - s11) + np.sqrt(disc)]
            )
            analytic = np.sort(np.concatenate([[r, r], lam34]) * sgn)
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
            s12 = float(qdir @ DF @ n)
            s22 = float(n @ DF @ n)
            disc = r * r * s12 * s12 + s22 * (1.0 - r * r)
            lam34 = np.array(
                [-r * s12 - np.sqrt(disc), -r * s12 + np.sqrt(disc)]
            )
            analytic = np.sort(np.concatenate([[0.0, 0.0], lam34]))
            case = "perpendicular"
    check = None
    if analytic is not None:
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
# higher-order monomial basis
# ---------------------------------------------------------------------------

def _multi_indices(N: int) -> list[tuple[int, int, int]]:
    """All (ix, iy, iz) with ix+iy+iz <= N, degree-major, x-first inside."""
    out = []
    for deg in range(N + 1):
        block = [
            (ix, iy, deg - ix - iy)
            for ix in range(deg, -1, -1)
            for iy in range(deg - ix, -1, -1)
        ]
        out.extend(block)
    return out


@dataclass(frozen=True)
class PnBasis:
    """Monomial basis v^i of total degree <= N, plus its sphere reduction.

    `exponents` lists all K(N) = C(N+3, 3) monomials (a_0 = 1, then
    v_x, v_y, v_z, ...). On S^2 the set is redundant for N >= 2; `reduced`
    indexes the independent sub-basis {iz <= 1} of size (N+1)^2 and
    `expand` writes every full monomial in it via v_z^2 = 1 - v_x^2 - v_y^2,
    so a_full = expand @ a_reduced pointwise on the sphere.
    """

    N: int
    exponents: np.ndarray        # (K, 3) int
    reduced: np.ndarray          # (Kr,) indices into the full list
    expand: np.ndarray           # (K, Kr)
    index: dict = field(repr=False, default_factory=dict)

    @property
    def K(self) -> int:
        return self.exponents.shape[0]

    @property
    def Kr(self) -> int:
        return self.reduced.shape[0]

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """Monomial values, shape (npoints, K)."""
        p = np.atleast_2d(np.asarray(points, dtype=float))
        e = self.exponents
        return (
            p[:, 0:1] ** e[:, 0] * p[:, 1:2] ** e[:, 1] * p[:, 2:3] ** e[:, 2]
        )

    def evaluate_reduced(self, points: np.ndarray) -> np.ndarray:
        return self.evaluate(points)[:, self.reduced]


def pn_basis(N: int) -> PnBasis:
    """Monomial basis description for P_N / P_N^(F), 1 <= N <= 5."""
    if not isinstance(N, (int, np.integer)) or not (1 <= N <= 5):
        raise ClosureError(f"moment order N must be an integer in [1, 5], got {N!r}")
    exps = _multi_indices(N)
    index = {e: k for k, e in enumerate(exps)}
    reduced = [k for k, (ix, iy, iz) in enumerate(exps) if iz <= 1]
    red_pos = {exps[k]: j for j, k in enumerate(reduced)}
    Kr = len(reduced)

    memo: dict[tuple[int, int, int], np.ndarray] = {}

    def reduce(e) -> np.ndarray:
        if e in memo:
            return memo[e]
        ix, iy, iz = e
        if iz <= 1:
            row = np.zeros(Kr)
            row[red_pos[e]] = 1.0
        else:
            row = (
                reduce((ix, iy, iz - 2))
                - reduce((ix + 2, iy, iz - 2))
                - reduce((ix, iy + 2, iz - 2))
            )
        memo[e] = row
        return row

    expand = np.vstack([reduce(e) for e in exps])
    basis = PnBasis(
        N=N,
        exponents=np.asarray(exps, dtype=int),
        reduced=np.asarray(reduced, dtype=int),
        expand=expand,
        index=index,
    )
    assert basis.K == comb(N + 3, 3)
    assert basis.Kr == (N + 1) ** 2
    return basis


@dataclass
class PnAnsatz:
    """Reconstructed ansatz f^A = (lambda . a_red) F on the quadrature."""

    basis: PnBasis
    lambda_red: np.ndarray       # (Kr,)
    node_values: np.ndarray      # (nq,) f^A at the quadrature nodes
    anchor_nodes: np.ndarray     # (nq,)

    def __call__(self, points: np.ndarray, anchor_at_points: np.ndarray) -> np.ndarray:
        ar = self.basis.evaluate_reduced(points)
        return (ar @ self.lambda_red) * np.asarray(anchor_at_points, dtype=float)


def pnf_reconstruct(
    u: np.ndarray,
    anchor_nodes: np.ndarray,
    basis: PnBasis,
    quad: SphereQuadrature,
) -> PnAnsatz:
    """Solve <a a^T F> lambda = u for the polynomial-times-anchor ansatz.

    The solve runs in the reduced basis (the full Gram is rank-deficient on
    the sphere for N >= 2); full-length inputs are accepted and checked for
    consistency with the sphere constraint, and the reconstructed moments
    reproduce `u` to quadrature accuracy.
    """
    u = np.asarray(u, dtype=float)
    F = np.asarray(anchor_nodes, dtype=float)
    if u.shape == (basis.Kr,) and basis.Kr != basis.K:
        u_red = u
        u_full = None
    elif u.shape == (basis.K,):
        u_red = u[basis.reduced]
        u_full = u
    else:
        raise ClosureError(
            f"moment vector has length {u.shape}, expected {basis.K} (full) "
            f"or {basis.Kr} (reduced)"
        )
    ar = basis.evaluate_reduced(quad.nodes)
    wF = quad.weights * F
    G = np.einsum("nk,n,nj->kj", ar, wF, ar)
    try:
        lam_min = np.linalg.eigvalsh(G)[0]
        if lam_min <= 1e-13 * max(1.0, float(np.linalg.eigvalsh(G)[-1])):
            raise np.linalg.LinAlgError
        lam = np.linalg.solve(G, u_red)
    except np.linalg.LinAlgError:
        raise ClosureError(
            "Gram matrix <a a^T F> is singular: the anchor has flat support"
        ) from None
    fA = (ar @ lam) * F
    if u_full is not None:
        moments_full = basis.evaluate(quad.nodes).T @ (quad.weights * fA)
        scale = max(1.0, float(np.max(np.abs(u_full))))
        err = float(np.max(np.abs(moments_full - u_full))) / scale
        if err > _CONSISTENCY_TOL:
            raise ClosureError(
                f"moment vector is inconsistent with the sphere constraint "
                f"(reproduction error {err:.3e}); redundant components must "
                "satisfy u[z^2 m] = u[m] - u[x^2 m] - u[y^2 m]"
            )
    return PnAnsatz(basis=basis, lambda_red=lam, node_values=fA, anchor_nodes=F)


# ---------------------------------------------------------------------------
# batched kernels used by the finite-volume systems
# ---------------------------------------------------------------------------

def kershaw_pressure_batch(rho: np.ndarray, q: np.ndarray, DF: np.ndarray) -> np.ndarray:
    """P^A for arrays rho (...,), q (..., 3), DF (..., 3, 3)."""
    qhat = q / rho[..., None]
    r2 = np.einsum("...i,...i->...", qhat, qhat)
    return rho[..., None, None] * (
        (1.0 - r2)[..., None, None] * DF
        + qhat[..., :, None] * qhat[..., None, :]
    )


def kershaw_jacobian_batch(
    rho: np.ndarray, q: np.ndarray, DF: np.ndarray, axis: int
) -> np.ndarray:
    """Batched unit-speed flux Jacobian for n = e_axis; shape (..., 4, 4)."""
    qhat = q / rho[..., None]
    r2 = np.einsum("...i,...i->...", qhat, qhat)
    DFn = DF[..., :, axis]
    qn = qhat[..., axis]
    J = np.zeros(rho.shape + (4, 4))
    J[..., 0, 1 + axis] = 1.0
    J[..., 1:, 0] = (1.0 + r2)[..., None] * DFn - qn[..., None] * qhat
    J[..., 1:, 1:] = (
        -2.0 * DFn[..., :, None] * qhat[..., None, :]
        + qn[..., None, None] * np.eye(3)
    )
    J[..., 1:, 1 + axis] += qhat
    return J
