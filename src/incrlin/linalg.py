"""Dense linear algebra: orthonormal bases via Householder QR, and ridge
least squares for the embedding-to-weight map."""
from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .datamodel import LinearMap, OrthonormalBasis
from .errors import DegenerateBasisError, DimensionMismatchError, ValidationError

# Columns whose residual norm falls below RANK_RTOL times the largest input
# norm are treated as linearly dependent and dropped.
RANK_RTOL = 1e-10


def orthonormal_basis(vectors: Sequence[np.ndarray]) -> OrthonormalBasis:
    """Orthonormal basis of the span of the input vectors.

    Householder QR at double precision; near-dependent inputs are dropped, so
    rank-deficient input yields fewer columns than inputs. The sign convention
    keeps already-orthonormal inputs unchanged.
    """
    if len(vectors) == 0:
        raise DegenerateBasisError("no input vectors")
    try:
        a = np.stack([np.asarray(v, dtype=np.float64) for v in vectors], axis=1)
    except ValueError:
        raise DimensionMismatchError("input vectors disagree on dimension") from None
    if a.ndim != 2 or a.shape[0] == 0:
        raise DegenerateBasisError(f"inputs must be non-empty vectors, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValidationError("input vectors contain non-finite entries")
    d, k = a.shape
    scale = np.linalg.norm(a, axis=0).max()
    if scale == 0.0:
        raise DegenerateBasisError("all input vectors are zero")
    tol = RANK_RTOL * scale

    r = a.copy()
    reflectors: list[np.ndarray] = []  # reflectors[i] acts on rows i:
    flips: list[bool] = []
    kept = 0
    for j in range(k):
        if kept >= d:
            break
        x = r[kept:, j]
        nx = np.linalg.norm(x)
        if nx < tol:
            continue  # dependent on the columns already kept
        v = x.copy()
        sign = 1.0 if x[0] >= 0 else -1.0
        v[0] += sign * nx
        v /= np.linalg.norm(v)
        r[kept:, j:] -= 2.0 * np.outer(v, v @ r[kept:, j:])
        reflectors.append(v)
        flips.append(sign > 0)  # diagonal entry came out as -sign*nx
        kept += 1

    q = np.eye(d, kept)
    for i in range(kept - 1, -1, -1):
        v = reflectors[i]
        q[i:, :] -= 2.0 * np.outer(v, v @ q[i:, :])
    for i, flip in enumerate(flips):
        if flip:
            q[:, i] *= -1.0
    return OrthonormalBasis(q)


def fit_least_squares(embeddings: Sequence[np.ndarray], targets: Sequence[np.ndarray],
                      ridge: float | None = None) -> LinearMap:
    """Affine least squares: minimize sum_j ||t_j - (A e_j + b)||^2 + ridge ||A||_F^2.

    ``ridge=None`` selects a tiny default (1e-8 times the mean squared
    embedding scale) and solves the normal equations; ``ridge=0`` on an
    underdetermined system returns the minimum-norm solution instead.
    """
    if len(embeddings) == 0 or len(embeddings) != len(targets):
        raise ValidationError(
            f"need equal non-zero counts, got {len(embeddings)} embeddings / {len(targets)} targets")
    try:
        e = np.stack([np.asarray(v, dtype=np.float64) for v in embeddings])
        t = np.stack([np.asarray(v, dtype=np.float64) for v in targets])
    except ValueError:
        raise DimensionMismatchError("inputs disagree on dimension") from None
    if e.ndim != 2 or t.ndim != 2:
        raise DimensionMismatchError("embeddings and targets must be 1-D vectors")
    if not (np.all(np.isfinite(e)) and np.all(np.isfinite(t))):
        raise ValidationError("non-finite inputs to least squares")
    n, d_e = e.shape
    d = t.shape[1]
    if ridge is None:
        ridge = 1e-8 * float(np.trace(e.T @ e)) / max(1, d_e)
    if ridge < 0:
        raise ValidationError(f"ridge must be non-negative, got {ridge}")

    x = np.concatenate([e, np.ones((n, 1))], axis=1)  # bias column last
    if ridge == 0.0:
        theta, *_ = np.linalg.lstsq(x, t, rcond=None)
    else:
        gram = x.T @ x
        gram[np.arange(d_e), np.arange(d_e)] += ridge  # bias stays unpenalized
        theta = np.linalg.solve(gram, x.T @ t)
    return LinearMap(matrix=theta[:d_e].T, bias=theta[d_e])
