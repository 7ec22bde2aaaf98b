"""Reconstruction primitives shared by the solver and the moment systems.

The scalar central-WENO limiter, its norm-weighted vector variant for wave
families with (near-)multiple speeds, the batched canonical
eigendecomposition used by systems without a closed-form characteristic
structure, and the short dot products and norms of the first-order kernels.

`plane_dot(x, y)` sums x[k] y[k] over the first axis, the component axis
of component planes (one grid-shaped array per component), in index order.
That is the order in which numpy sums a row of fewer than 8 entries (its
pairwise sum only splits longer ones), so `(x * y).sum(-1)` of rows and
`plane_dot` of the same values as planes have the same bits, and
`row_norm(x)`, the plane norm of the rows' components, is bitwise
`np.linalg.norm(x, axis=-1)`. `einsum("...i,...i")` is not a substitute:
it rounds differently for rows of 3 and 4 entries. Every first-order path
that takes a dot product or norm of moments uses these, so they stay
bitwise those of the row sums and of `np.linalg.norm`.
"""

from __future__ import annotations

import numpy as np

#: central-WENO weight (theta + |h d|)^(-z): regularization and power
_WENO_THETA = 1e-6
_WENO_Z = 2
#: canonical_eig: eigenvector conditioning limit and relative imaginary-part tolerance
_COND_THRESHOLD = 1e8
_IMAG_TOL = 1e-9
#: group_characteristic_slopes: relative wave-speed gap window of the merge blend
_MERGE_LO, _MERGE_HI = 1e-2, 2e-2


def plane_dot(x, y):
    """sum_k x[k] y[k] over the first (component) axis, in index order."""
    acc = x[0] * y[0]
    for k in range(1, len(x)):
        acc += x[k] * y[k]
    return acc


def plane_norm(x):
    """Euclidean norm over the first (component) axis."""
    return np.sqrt(plane_dot(x, x))


def row_norm(x):
    """Euclidean norm along the last axis, for rows of fewer than 8 entries
    (bitwise `np.linalg.norm(x, axis=-1)` there; see the module docstring)."""
    return plane_norm(x.T).T  # x.T: the entries first, the other axes reversed


def weno2_slope(d_minus, d_plus, dx):
    """Central-WENO limited slope from the two one-sided slopes.

    Weights w(d) = (theta + |dx*d|)^(-z) with theta = _WENO_THETA and
    z = _WENO_Z; evaluated in the product form
    (p_plus*d_minus + p_minus*d_plus)/(p_minus + p_plus) with
    p = (theta + |dx*d|)^z, which avoids the reciprocal overflow and keeps
    the exact antisymmetry slope(-d_plus, -d_minus) = -slope(d_minus, d_plus).
    """
    d_minus = np.array(d_minus, dtype=float)
    d_plus = np.array(d_plus, dtype=float)
    weno2_slope_inplace(d_minus, d_plus, dx, np.empty_like(d_minus), np.empty_like(d_plus))
    return d_plus


def weno2_slope_inplace(d_minus, d_plus, dx, p_minus, p_plus):
    """`weno2_slope` written into d_plus without temporaries: d_minus is
    overwritten as well, and p_minus, p_plus (arrays of d_minus's shape) are
    scratch. Every operation is the allocating form's, up to the order of
    the operands of a product or sum, so the slope has the same bits."""
    for d, p in ((d_minus, p_minus), (d_plus, p_plus)):
        np.multiply(dx, d, out=p)
        np.abs(p, out=p)
        np.add(_WENO_THETA, p, out=p)
        np.power(p, _WENO_Z, out=p)
    d_minus *= p_plus
    d_plus *= p_minus
    p_minus += p_plus
    d_plus += d_minus
    d_plus /= p_minus


def vector_weno_slope(a, b, h):
    """Central-WENO combination of two slope vectors, weighted by norms;
    a and b are component planes (the vector's entries on the first axis).

    Reduces to the scalar limiter for one-dimensional families; for a wave
    family's projected differences it is invariant under the arbitrary
    basis of the family's eigenspace.
    """
    pa = (_WENO_THETA + h * plane_norm(a)) ** _WENO_Z
    pb = (_WENO_THETA + h * plane_norm(b)) ** _WENO_Z
    return (pb * a + pa * b) / (pa + pb)


def canonical_eig(J: np.ndarray):
    """Batched eigendecomposition with a deterministic canonical form.

    Eigenvalues are sorted ascending (eigenvector columns reordered to
    match) and each eigenvector is scaled so its largest-magnitude
    component is positive. Returns (lam, R, Rinv, weight): `weight` in
    [0, 1] ramps to 0 (componentwise fallback, R = I) over the last decade
    before the eigenvector conditioning fails the 1e-8
    smallest-singular-value threshold (sigma_min estimated through the
    Frobenius norm of the inverse, exact up to sqrt(m)) or when the
    spectrum stops being real to a relative 1e-9.
    """
    m = J.shape[-1]
    eye = np.eye(m)
    ev, V = np.linalg.eig(J)
    scale = np.maximum(1.0, np.max(np.abs(ev.real), axis=-1))
    imag_bad = np.max(np.abs(ev.imag), axis=-1) > _IMAG_TOL * scale
    order = np.argsort(ev.real, axis=-1, kind="stable")
    lam = np.take_along_axis(ev.real, order, axis=-1)
    V = np.take_along_axis(V.real, order[..., None, :], axis=-1)
    idx = np.argmax(np.abs(V), axis=-2)
    lead = np.take_along_axis(V, idx[..., None, :], axis=-2)[..., 0, :]
    V = V * np.where(lead >= 0, 1.0, -1.0)[..., None, :]
    norms = np.linalg.norm(V, axis=-2)
    V = V / np.where(norms > 0, norms, 1.0)[..., None, :]
    # |det| <= 8*sigma_min for unit columns: screen singular cells so the
    # batched inverse cannot fail, then estimate the conditioning
    singular = np.abs(np.linalg.det(V)) < 8.0 / _COND_THRESHOLD
    R = np.where(singular[..., None, None], eye, V)
    Rinv = np.linalg.inv(R)
    inv_fro = np.sqrt(np.sum(Rinv * Rinv, axis=(-2, -1)))
    with np.errstate(divide="ignore", invalid="ignore"):
        w_cond = np.clip(np.log10(_COND_THRESHOLD / np.maximum(inv_fro, 1.0)), 0.0, 1.0)
    weight = np.where(singular | imag_bad | ~np.isfinite(inv_fro), 0.0, w_cond)
    off = weight <= 0.0
    R = np.where(off[..., None, None], eye, R)
    Rinv = np.where(off[..., None, None], eye, Rinv)
    return lam, R, Rinv, weight


def _groups_from_pattern(pattern: int, m: int) -> list[list[int]]:
    """Segment indices 0..m-1: bit k of `pattern` joins k and k+1."""
    groups = [[0]]
    for k in range(m - 1):
        if (pattern >> k) & 1:
            groups[-1].append(k + 1)
        else:
            groups.append([k + 1])
    return groups


def _pattern_slope(pattern, m, Rm, Rim, dm, dp, h):
    """Projector-group WENO slope for one fixed grouping pattern."""
    groups = _groups_from_pattern(pattern, m)
    eye = np.eye(m)
    big = max(range(len(groups)), key=lambda g: len(groups[g]))
    projs = {}
    total = 0.0
    for gi, g in enumerate(groups):
        if gi == big:
            continue
        P = np.einsum("cik,ckj->cij", Rm[:, :, g], Rim[:, g, :])
        projs[gi] = P
        total = total + P
    # the largest family's projector as the complement of the others stays
    # accurate when its eigenvectors are nearly parallel
    projs[big] = eye - total
    s = np.zeros_like(dm)
    for gi in range(len(groups)):
        P = projs[gi]
        a = np.einsum("cij,cj->ci", P, dm)
        b = np.einsum("cij,cj->ci", P, dp)
        s = s + vector_weno_slope(a.T, b.T, h).T
    return s


def group_characteristic_slopes(lam, R, Rinv, d_minus, d_plus, h):
    """Limited slopes in characteristic variables, invariant under the
    arbitrary eigenbasis of (near-)multiple eigenvalues.

    Wave families whose speeds sit within 1e-2 (relative) of each
    other are limited jointly through their spectral projector (a
    basis-invariant object, unlike the individual eigenvectors LAPACK
    returns for a multiple eigenvalue); for well-separated simple
    eigenvalues this reduces exactly to the per-characteristic-field
    limiter. Merged and separate treatments are blended multilinearly over
    the gap window [1e-2, 2e-2] so the slope stays a continuous
    function of the state.
    """
    m = lam.shape[-1]
    scale = np.maximum(1.0, np.max(np.abs(lam), axis=-1))
    gaps = np.diff(lam, axis=-1) / scale[..., None]
    beta = np.clip((_MERGE_HI - gaps) / (_MERGE_HI - _MERGE_LO), 0.0, 1.0)  # (..., m-1)
    bits = 1 << np.arange(m - 1)
    merged_pat = ((beta >= 1.0) * bits).sum(axis=-1)
    frac_pat = (((beta > 0.0) & (beta < 1.0)) * bits).sum(axis=-1)
    combo = merged_pat * (1 << (m - 1)) + frac_pat
    slope = np.zeros_like(d_minus)
    for c in np.unique(combo):
        mask = combo == c
        base = int(c) >> (m - 1)
        frac_bits = [k for k in range(m - 1) if (int(c) & (1 << k))]
        Rm, Rim = R[mask], Rinv[mask]
        dm, dp = d_minus[mask], d_plus[mask]
        if not frac_bits:
            slope[mask] = _pattern_slope(base, m, Rm, Rim, dm, dp, h)
            continue
        beta_m = beta[mask]
        s = np.zeros_like(dm)
        for sub in range(1 << len(frac_bits)):
            pat = base
            w = np.ones(dm.shape[0])
            for j, k in enumerate(frac_bits):
                if (sub >> j) & 1:
                    pat |= 1 << k
                    w = w * beta_m[:, k]
                else:
                    w = w * (1.0 - beta_m[:, k])
            s = s + w[:, None] * _pattern_slope(pat, m, Rm, Rim, dm, dp, h)
        slope[mask] = s
    return slope
