import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from incrlin.datamodel import LinearMap
from incrlin.errors import DegenerateBasisError, DimensionMismatchError, ValidationError
from incrlin.linalg import fit_least_squares, orthonormal_basis, project


# --- basis extraction ----------------------------------------------------------

def test_already_orthonormal_inputs_unchanged():
    basis = orthonormal_basis([np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])])
    np.testing.assert_allclose(basis.matrix, np.eye(3, 2), atol=1e-12)


def test_single_vector_normalized():
    basis = orthonormal_basis([np.array([2.0, 0.0, 0.0])])
    np.testing.assert_allclose(basis.matrix, [[1.0], [0.0], [0.0]], atol=1e-12)


def test_span_matches_hand_gram_schmidt():
    # span{(1,1,0),(1,0,0)} is the xy-plane, so (0,1,0) reconstructs exactly
    basis = orthonormal_basis([np.array([1.0, 1.0, 0.0]), np.array([1.0, 0.0, 0.0])])
    v = np.array([0.0, 1.0, 0.0])
    np.testing.assert_allclose(project(v, basis), v, atol=1e-6)


def test_degenerate_inputs_rejected():
    with pytest.raises(DegenerateBasisError):
        orthonormal_basis([])
    with pytest.raises(DegenerateBasisError):
        orthonormal_basis([np.zeros(3), np.zeros(3)])
    with pytest.raises(ValidationError):
        orthonormal_basis([np.array([1.0, np.nan])])
    with pytest.raises(DimensionMismatchError):
        orthonormal_basis([np.ones(3), np.ones(4)])


def test_rank_deficient_inputs_drop_columns():
    v = np.array([1.0, 2.0, 3.0])
    basis = orthonormal_basis([v, 2 * v, np.array([0.0, 0.0, 1.0])])
    assert basis.rank == 2
    # tiny perturbations below the relative tolerance are still dropped
    basis2 = orthonormal_basis([v, v + 1e-14 * np.array([1.0, 0.0, 0.0])])
    assert basis2.rank == 1


def test_orthonormality_random_property():
    rng = np.random.default_rng(7)
    for _ in range(50):
        d = int(rng.integers(2, 30))
        k = int(rng.integers(1, d + 1))
        basis = orthonormal_basis(list(rng.standard_normal((k, d))))
        gram = basis.matrix.T @ basis.matrix
        assert np.max(np.abs(gram - np.eye(basis.rank))) < 1e-6


def test_spans_reconstruct_inputs():
    rng = np.random.default_rng(8)
    for _ in range(20):
        d = int(rng.integers(3, 20))
        k = int(rng.integers(1, d))
        vecs = list(rng.standard_normal((k, d)))
        basis = orthonormal_basis(vecs)
        for v in vecs:
            np.testing.assert_allclose(project(v, basis), v,
                                       atol=1e-5 * max(1.0, np.linalg.norm(v)))


@st.composite
def _rank_deficient_inputs(draw):
    """k independent random vectors in R^d, then duplicates and integer
    combinations of them, shuffled."""
    d = draw(st.integers(1, 8))
    k = draw(st.integers(1, d))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = rng.standard_normal((k, d))
    dups = draw(st.lists(st.integers(0, k - 1), max_size=4))
    combos = draw(st.lists(st.lists(st.integers(-3, 3), min_size=k, max_size=k).filter(any),
                           max_size=4))
    vecs = list(base) + [base[i] for i in dups] + [np.array(c, dtype=float) @ base
                                                   for c in combos]
    order = draw(st.permutations(range(len(vecs))))
    return [vecs[i] for i in order]


@settings(max_examples=80, deadline=None)
@given(_rank_deficient_inputs())
def test_rank_deficient_inputs_property(vecs):
    basis = orthonormal_basis(vecs)
    q = basis.matrix
    assert q.shape[1] == np.linalg.matrix_rank(np.stack(vecs))
    assert np.max(np.abs(q.T @ q - np.eye(q.shape[1]))) < 1e-10
    scale = max(np.linalg.norm(v) for v in vecs)
    for v in vecs:
        np.testing.assert_allclose(project(v, basis), v, rtol=0, atol=1e-9 * scale)


# --- projection ----------------------------------------------------------------

def _xy_basis():
    return orthonormal_basis([np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])])


def test_project_hand_example():
    np.testing.assert_allclose(project(np.array([1.0, 2.0, 3.0]), _xy_basis()),
                               [1.0, 2.0, 0.0], atol=1e-12)


def test_project_idempotent_and_annihilates_complement():
    basis = _xy_basis()
    v = np.array([0.3, -0.7, 0.0])
    np.testing.assert_allclose(project(v, basis), v, atol=1e-6)
    np.testing.assert_allclose(project(np.array([0.0, 0.0, 5.0]), basis), np.zeros(3), atol=1e-12)
    rng = np.random.default_rng(1)
    for _ in range(20):
        basis2 = orthonormal_basis(list(rng.standard_normal((3, 8))))
        w = rng.standard_normal(8)
        once = project(w, basis2)
        np.testing.assert_allclose(project(once, basis2), once, atol=1e-6)


def test_project_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        project(np.ones(4), _xy_basis())


def test_project_minimality():
    # the projection is the nearest point of the span
    rng = np.random.default_rng(2)
    basis = orthonormal_basis(list(rng.standard_normal((4, 10))))
    v = rng.standard_normal(10)
    best = np.linalg.norm(v - project(v, basis))
    for _ in range(100):
        w = basis.matrix @ rng.standard_normal(basis.rank)
        assert best <= np.linalg.norm(v - w) + 1e-9


def test_projection_is_basis_invariant():
    rng = np.random.default_rng(3)
    vecs = list(rng.standard_normal((5, 12)))
    b1 = orthonormal_basis(vecs)
    b2 = orthonormal_basis(vecs[::-1])
    for _ in range(20):
        v = rng.standard_normal(12)
        np.testing.assert_allclose(project(v, b1), project(v, b2), atol=1e-5)


# --- least squares ----------------------------------------------------------------

def test_self_map_recovers_identity():
    rng = np.random.default_rng(4)
    e = list(rng.standard_normal((6, 3)))  # overdetermined: unique exact solution
    lm = fit_least_squares(e, e, ridge=0.0)
    np.testing.assert_allclose(lm.matrix, np.eye(3), atol=1e-10)
    np.testing.assert_allclose(lm.bias, np.zeros(3), atol=1e-10)


def test_one_dimensional_hand_example():
    lm = fit_least_squares([np.array([1.0]), np.array([2.0])],
                           [np.array([2.0]), np.array([4.0])], ridge=0.0)
    np.testing.assert_allclose(lm.matrix, [[2.0]], atol=1e-12)
    np.testing.assert_allclose(lm.bias, [0.0], atol=1e-12)


def test_constant_targets_absorbed_by_bias():
    rng = np.random.default_rng(5)
    e = list(rng.standard_normal((8, 3)))
    c = np.array([1.5, -2.0])
    lm = fit_least_squares(e, [c] * 8, ridge=0.0)
    np.testing.assert_allclose(lm.matrix, np.zeros((2, 3)), atol=1e-10)
    np.testing.assert_allclose(lm.bias, c, atol=1e-10)


def test_underdetermined_minimum_norm():
    # 2 pairs, 4-dim embeddings: compare against the pseudoinverse solution
    rng = np.random.default_rng(6)
    e = rng.standard_normal((2, 4))
    t = rng.standard_normal((2, 3))
    lm = fit_least_squares(list(e), list(t), ridge=0.0)
    x = np.concatenate([e, np.ones((2, 1))], axis=1)
    theta = np.linalg.pinv(x) @ t
    np.testing.assert_allclose(lm.matrix, theta[:4].T, atol=1e-8)
    np.testing.assert_allclose(lm.bias, theta[4], atol=1e-8)
    # residual is zero: the system is consistent
    for ej, tj in zip(e, t):
        np.testing.assert_allclose(lm.apply(ej), tj, atol=1e-8)


def test_ridge_solution_is_stationary():
    # finite-difference gradient of the ridge objective vanishes at the solution
    rng = np.random.default_rng(7)
    e = rng.standard_normal((10, 4))
    t = rng.standard_normal((10, 3))
    ridge = 0.37
    lm = fit_least_squares(list(e), list(t), ridge=ridge)

    def objective(a, b):
        resid = t - e @ a.T - b
        return float((resid * resid).sum() + ridge * (a * a).sum())

    step = 1e-6
    g = np.zeros_like(lm.matrix)
    for i in range(g.shape[0]):
        for j in range(g.shape[1]):
            ap = lm.matrix.copy(); ap[i, j] += step
            am = lm.matrix.copy(); am[i, j] -= step
            g[i, j] = (objective(ap, lm.bias) - objective(am, lm.bias)) / (2 * step)
    # relative to the gradient magnitude at a displaced point
    scale = np.linalg.norm(2 * ((e @ (lm.matrix + 0.1).T + lm.bias - t).T @ e))
    assert np.linalg.norm(g) / max(1.0, scale) < 1e-5


def test_default_ridge_close_to_exact():
    rng = np.random.default_rng(8)
    e = list(rng.standard_normal((9, 3)))
    t = list(rng.standard_normal((9, 2)))
    lm_default = fit_least_squares(e, t)  # tiny default ridge
    lm_exact = fit_least_squares(e, t, ridge=0.0)
    np.testing.assert_allclose(lm_default.matrix, lm_exact.matrix, atol=1e-5)
    np.testing.assert_allclose(lm_default.bias, lm_exact.bias, atol=1e-5)


def test_least_squares_validation():
    with pytest.raises(ValidationError):
        fit_least_squares([], [])
    with pytest.raises(ValidationError):
        fit_least_squares([np.ones(2)], [])
    with pytest.raises(DimensionMismatchError):
        fit_least_squares([np.ones(2), np.ones(3)], [np.ones(2), np.ones(2)])
    with pytest.raises(ValidationError):
        fit_least_squares([np.array([np.inf, 1.0])], [np.ones(2)])
    with pytest.raises(ValidationError):
        fit_least_squares([np.ones(2)], [np.ones(2)], ridge=-1.0)


def test_linear_map_apply_checks_dimension():
    lm = LinearMap(matrix=np.eye(2), bias=np.zeros(2))
    with pytest.raises(DimensionMismatchError):
        lm.apply(np.ones(3))
