"""Dense linear algebra, one LAPACK SVD per job: the orthonormal basis of a
span, and the ridge least-squares map from embeddings to weights. The map's
bias is unpenalised, so it is fit on centred data, and ``ridge=0`` gives the
``ridge -> 0+`` limit: the minimum-norm matrix with a free bias."""
from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .datamodel import LinearMap, OrthonormalBasis
from .errors import DegenerateBasisError, DimensionMismatchError, ValidationError

# Singular values below RANK_RTOL times the largest input norm count as zero:
# the span has no direction for them.
RANK_RTOL = 1e-10


def orthonormal_basis(vectors: Sequence[np.ndarray]) -> OrthonormalBasis:
    """Orthonormal basis of the span of the input vectors: their left singular
    vectors whose singular values are at least ``RANK_RTOL`` times the largest
    input norm, so rank-deficient input yields fewer columns than inputs.
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
    scale = np.linalg.norm(a, axis=0).max()
    if scale == 0.0:
        raise DegenerateBasisError("all input vectors are zero")
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    return OrthonormalBasis(u[:, s >= RANK_RTOL * scale])


def fit_least_squares(embeddings: Sequence[np.ndarray], targets: Sequence[np.ndarray],
                      ridge: float | None = None) -> LinearMap:
    """Affine least squares: minimize sum_j ||t_j - (A e_j + b)||^2 + ridge ||A||_F^2.

    The bias is unpenalised, so ``b = mean(t) - A mean(e)`` and ``A`` comes
    from one thin SVD of the centred embeddings, ``Ec = U S V^T``:
    ``A = Tc^T U diag(s / (s^2 + ridge)) V^T``. Singular values at or below
    ``eps * max(n, d_e) * s_max`` are dropped, so ``ridge=0`` gives the limit
    ``ridge -> 0+``, the minimum-norm ``A``. ``ridge=None`` selects a tiny
    default: 1e-8 times the mean squared embedding scale.
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
    if ridge is None:
        ridge = 1e-8 * float(np.square(e).sum()) / max(1, d_e)
    if ridge < 0:
        raise ValidationError(f"ridge must be non-negative, got {ridge}")

    mean_e, mean_t = e.mean(axis=0), t.mean(axis=0)
    u, s, vt = np.linalg.svd(e - mean_e, full_matrices=False)
    keep = s > np.finfo(np.float64).eps * max(n, d_e) * s.max(initial=0.0)
    u, s, vt = u[:, keep], s[keep], vt[keep]
    a = ((t - mean_t).T @ u) * (s / (s * s + ridge)) @ vt
    return LinearMap(matrix=a, bias=mean_t - a @ mean_e)
