"""The session objective, one term at a time.

Each term is isolated by zeroing the coefficients of the other penalties.
The data batch is a single all-zero feature row wherever a test reads a
penalty's gradient: its logits are all zero, so the cross-entropy gradient
is exactly zero and the total gradient is the penalty's own.
"""
import re

import numpy as np
import pytest
from conftest import evaluate, fd_gradient, rel_err
from hypothesis import given, settings
from hypothesis import strategies as st

from incrlin.datamodel import (
    Batch,
    ClassRegistry,
    RunConfig,
    WeightMatrix,
)
from incrlin.errors import (
    ConfigError,
    DimensionMismatchError,
    MissingSnapshotError,
    MissingTargetError,
    ValidationError,
)
from incrlin.linalg import orthonormal_basis
from incrlin.objectives import Objective, ObjectiveStack, semantic_targets

_ZERO = dict(alpha=0.0, beta_base=0.0, beta_prev_novel=0.0, gamma=0.0)


def _terms(kind, registry, session, anchors, weights, batch, basis=None, targets=None,
           **coeffs):
    """The session objective with every coefficient zero but ``coeffs``, and
    its terms at ``weights`` over ``batch``."""
    cfg = RunConfig(regularizer_kind=kind, **{**_ZERO, **coeffs})
    obj = Objective(cfg, registry, session, weights, batch, anchors=anchors, basis=basis,
                    targets=targets)
    return obj, evaluate(obj, weights)


def _null_batch(d, label):
    return Batch(np.zeros((1, d)), np.array([label]))


def _xy_basis():
    return orthonormal_basis([np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])])


# --- cross entropy ------------------------------------------------------------

def _ce(weights, batch):
    """Data term alone: the base session of the weights' classes, no penalties."""
    registry = ClassRegistry([weights.class_ids])
    return _terms("finetune", registry, 0, None, weights, batch)


def test_cross_entropy_uniform_softmax():
    w = WeightMatrix([0, 1], np.zeros((2, 3)))
    f = np.array([2.0, -1.0, 0.5])
    obj, terms = _ce(w, Batch(f[None], np.array([0])))
    assert terms.data_loss == pytest.approx(np.log(2.0), rel=1e-12)
    np.testing.assert_allclose(terms.gradient_matrix[obj.class_ids.index(0)], -f / 2, atol=1e-12)
    np.testing.assert_allclose(terms.gradient_matrix[obj.class_ids.index(1)], f / 2, atol=1e-12)


def test_cross_entropy_shift_invariance():
    # shifting every weight row along f adds a constant to every logit
    rng = np.random.default_rng(0)
    m = rng.standard_normal((4, 5))
    f = rng.standard_normal(5)
    batch = Batch(f[None], np.array([2]))
    v1 = _ce(WeightMatrix(range(4), m), batch)[1].data_loss
    shift = 3.7 / (f @ f)
    v2 = _ce(WeightMatrix(range(4), m + shift * f), batch)[1].data_loss
    assert v2 == pytest.approx(v1, rel=1e-9)


def test_cross_entropy_gradient_finite_difference():
    rng = np.random.default_rng(1)
    ids = list(range(5))
    m = rng.standard_normal((5, 6))
    batch = Batch(rng.standard_normal((10, 6)), rng.integers(0, 5, size=10))

    obj, terms = _ce(WeightMatrix(ids, m), batch)
    m = WeightMatrix(ids, m).subset(obj.class_ids)  # the laid-out rows

    def fn(w):
        return evaluate(obj, WeightMatrix(obj.class_ids, w)).data_loss

    assert rel_err(terms.gradient_matrix, fd_gradient(fn, m)) < 1e-4


def test_cross_entropy_errors():
    w = WeightMatrix([0, 1], np.zeros((2, 3)))
    with pytest.raises(ValidationError):
        _ce(w, Batch(np.empty((0, 3)), np.empty(0, dtype=np.int64)))
    with pytest.raises(ValidationError):
        _ce(w, Batch(np.ones((1, 3)), np.array([9])))


@pytest.mark.parametrize("dims", [dict(anchors=4), dict(data=6), dict(basis=3)],
                         ids=["anchors", "data", "basis"])
def test_objective_checks_every_operand_dimension(dims):
    # session 1: base class 0 anchored, novel class 1; every operand at d=5
    # but the one named
    d = {"start": 5, "data": 5, "anchors": 5, "basis": 5, **dims}
    registry = ClassRegistry([(0,), (1,)])
    start = WeightMatrix([0, 1], np.ones((2, d["start"])))
    data = Batch(np.ones((2, d["data"])), np.array([0, 1]))
    anchors = WeightMatrix([0], np.ones((1, d["anchors"])))
    basis = orthonormal_basis(list(np.eye(d["basis"])[:2]))
    with pytest.raises(DimensionMismatchError,
                       match=re.escape(f"inconsistent dimensions {sorted(set(d.values()))}")):
        Objective(RunConfig(regularizer_kind="subspace"), registry, 1, start, data,
                  anchors=anchors, basis=basis)


# --- r_prior -------------------------------------------------------------------

def _prior(m):
    ids = list(range(m.shape[0]))
    return _terms("finetune", ClassRegistry([ids]), 0, None,
                  WeightMatrix(ids, m), _null_batch(m.shape[1], 0), alpha=1.0)


def test_r_prior_values():
    assert _prior(np.zeros((2, 4)))[1].r_prior == 0.0
    obj, terms = _prior(np.array([[3.0, 4.0]]))
    assert terms.r_prior == 25.0
    np.testing.assert_array_equal(terms.gradient_matrix[obj.class_ids.index(0)], [6.0, 8.0])


def test_r_prior_homogeneity():
    rng = np.random.default_rng(2)
    m = rng.standard_normal((3, 4))
    assert _prior(2 * m)[1].r_prior == pytest.approx(4 * _prior(m)[1].r_prior, rel=1e-12)


# --- r_old ----------------------------------------------------------------------

def _anchors_two_sessions():
    """Base rows 0 and 1, then class 2 as it stood after session 1."""
    return WeightMatrix([0, 1, 2], np.vstack([np.eye(2), [5.0, 5.0]]))


def _r_old(sessions, anchors, w, beta_base, beta_prev_novel):
    """Anchor term of the last session of ``sessions`` (a registry plan)."""
    return _terms("finetune", ClassRegistry(sessions), len(sessions) - 1, anchors, w,
                  _null_batch(w.dimension, 0), beta_base=beta_base,
                  beta_prev_novel=beta_prev_novel)


def test_r_old_zero_at_snapshots():
    anchors = _anchors_two_sessions()
    w = WeightMatrix([0, 1, 2], np.vstack([np.eye(2), [5.0, 5.0]]))
    _, terms = _r_old([(0, 1), (2,), ()], anchors, w, 0.2, 0.1)
    assert terms.r_old == 0.0
    assert np.allclose(terms.gradient_matrix, 0.0)


def test_r_old_unit_displacement_base_beta():
    anchors = WeightMatrix([0], np.array([[1.0, 0.0]]))
    w = WeightMatrix([0], np.array([[1.0, 1.0]]))  # displaced by a unit vector
    obj, terms = _r_old([(0,), ()], anchors, w, 0.2, 0.1)
    assert terms.r_old == pytest.approx(0.2, rel=1e-12)
    np.testing.assert_allclose(terms.gradient_matrix[obj.class_ids.index(0)], [0.0, 0.4],
                               atol=1e-12)


def test_r_old_first_session_only_base_terms():
    anchors = WeightMatrix([0, 1], np.eye(2))
    w = WeightMatrix([0, 1, 2], np.vstack([np.eye(2) + 1.0, [3.0, 3.0]]))
    obj, terms = _r_old([(0, 1), (2,)], anchors, w, 0.5, 99.0)
    # novel class 2 has no anchor yet: zero contribution regardless of beta
    assert terms.r_old == pytest.approx(0.5 * (2 + 1 + 1), rel=1e-12)
    np.testing.assert_array_equal(terms.gradient_matrix[obj.class_ids.index(2)], [0.0, 0.0])


def test_r_old_anchors_to_introducing_session():
    anchors = _anchors_two_sessions()
    w = WeightMatrix([0, 1, 2], np.vstack([np.eye(2), [6.0, 5.0]]))
    _, terms = _r_old([(0, 1), (2,), ()], anchors, w, 0.2, 0.1)
    assert terms.r_old == pytest.approx(0.1 * 1.0, rel=1e-12)  # class 2 vs its session-1 row


def test_r_old_missing_snapshot_error():
    anchors = WeightMatrix([0], np.ones((1, 2)))
    # class 1 was introduced in session 1, and the table has no row for it
    with pytest.raises(MissingSnapshotError):
        _r_old([(0,), (1,), ()], anchors, WeightMatrix([0, 1], np.ones((2, 2))), 0.2, 0.1)


# --- r_new subspace ----------------------------------------------------------------

_BASE = 100  # the one base class, distinct from every novel id used below


def _r_new(kind, novel_ids, rows, basis=None, targets=None):
    """New-class term of session 1 at gamma=1, over one base class with no anchor weight."""
    d = rows.shape[1]
    anchors = WeightMatrix([_BASE], np.ones((1, d)))
    w = WeightMatrix([*novel_ids, _BASE], np.vstack([rows, np.ones((1, d))]))
    return _terms(kind, ClassRegistry([(_BASE,), novel_ids]), 1, anchors, w,
                  _null_batch(d, _BASE), basis=basis, targets=targets, gamma=1.0)


def test_r_new_subspace_hand_example():
    obj, terms = _r_new("subspace", [5], np.array([[1.0, 2.0, 3.0]]), basis=_xy_basis())
    assert terms.r_new == pytest.approx(9.0, rel=1e-12)
    np.testing.assert_allclose(terms.gradient_matrix[obj.class_ids.index(5)], [0.0, 0.0, 6.0],
                               atol=1e-12)


def test_r_new_subspace_zero_in_span():
    _, terms = _r_new("subspace", [5], np.array([[1.0, -2.0, 0.0]]), basis=_xy_basis())
    assert terms.r_new == pytest.approx(0.0, abs=1e-12)


def test_r_new_subspace_stop_gradient_equivalence():
    # the projector is symmetric idempotent: holding the target constant and
    # differentiating through it give the same gradient
    rng = np.random.default_rng(3)
    basis = orthonormal_basis(list(rng.standard_normal((3, 6))))
    ids = [0, 1]
    m = rng.standard_normal((2, 6))
    obj, terms = _r_new("subspace", ids, m, basis=basis)
    analytic = terms.gradient_matrix[[obj.class_ids.index(c) for c in ids]]

    p = basis.matrix

    def through(w):
        resid = w - (w @ p) @ p.T
        return float((resid * resid).sum())

    target = (m @ p) @ p.T

    def held(w):
        resid = w - target
        return float((resid * resid).sum())

    fd_through = fd_gradient(through, m)
    fd_held = fd_gradient(held, m)
    assert np.max(np.abs(fd_through - analytic)) < 1e-8
    assert np.max(np.abs(fd_held - analytic)) < 1e-8

# --- semantic targets -----------------------------------------------------------

def test_semantic_targets_single_base_class():
    base_w = WeightMatrix([0], np.array([[2.0, 7.0]]))
    targets = semantic_targets({10: np.ones(3)}, {0: np.zeros(3)}, base_w, tau=1.0)
    np.testing.assert_array_equal(targets[10], [2.0, 7.0])


def test_semantic_targets_symmetric_similarities_average():
    base_w = WeightMatrix([0, 1], np.array([[2.0, 0.0], [0.0, 4.0]]))
    base_e = {0: np.array([1.0, 0.0]), 1: np.array([0.0, 1.0])}
    novel_e = {10: np.array([1.0, 1.0])}
    targets = semantic_targets(novel_e, base_e, base_w, tau=1.0)
    np.testing.assert_allclose(targets[10], [1.0, 2.0], atol=1e-12)


def test_semantic_targets_hand_softmax():
    # similarities 1 and 0 at tau=1: weights (0.7311, 0.2689)
    base_w = WeightMatrix([0, 1], np.array([[1.0, 0.0], [0.0, 1.0]]))
    base_e = {0: np.array([1.0, 0.0]), 1: np.array([0.0, 1.0])}
    novel_e = {10: np.array([1.0, 0.0])}
    targets = semantic_targets(novel_e, base_e, base_w, tau=1.0)
    expected = np.array([np.exp(1) / (np.exp(1) + 1), 1 / (np.exp(1) + 1)])
    np.testing.assert_allclose(targets[10], expected, atol=1e-4)
    np.testing.assert_allclose(expected, [0.7311, 0.2689], atol=1e-4)


def test_semantic_weights_sum_to_one_and_shift_invariant():
    rng = np.random.default_rng(4)
    base_ids = list(range(6))
    base_w = WeightMatrix(base_ids, np.eye(6))  # rows are indicator vectors
    base_e = {c: rng.standard_normal(4) for c in base_ids}
    e_c = rng.standard_normal(4)
    targets = semantic_targets({9: e_c}, base_e, base_w, tau=0.7)
    # with identity rows the target IS the weight vector
    assert targets[9].sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(targets[9] >= 0)
    # translating every base embedding by one common vector shifts all
    # similarity scores by the same constant: weights unchanged
    shift = rng.standard_normal(4)
    shifted = semantic_targets({9: e_c}, {c: v + shift for c, v in base_e.items()},
                               base_w, tau=0.7)
    np.testing.assert_allclose(shifted[9], targets[9], atol=1e-12)


def test_semantic_targets_small_tau_selects_nearest():
    rng = np.random.default_rng(5)
    base_ids = list(range(8))
    base_w = WeightMatrix(base_ids, np.eye(8))
    base_e = {c: rng.standard_normal(5) for c in base_ids}
    e_c = rng.standard_normal(5)
    sims = {c: float(base_e[c] @ e_c) for c in base_ids}
    nearest = max(sims, key=sims.get)
    targets = semantic_targets({9: e_c}, base_e, base_w, tau=1e-4)
    np.testing.assert_allclose(targets[9], np.eye(8)[nearest], atol=1e-8)


def test_semantic_targets_errors():
    base_w = WeightMatrix([0], np.ones((1, 2)))
    with pytest.raises(ValidationError):
        semantic_targets({1: np.ones(2)}, {0: np.ones(2)}, base_w, tau=0.0)
    with pytest.raises(Exception):
        semantic_targets({1: np.ones(3)}, {0: np.ones(2)}, base_w, tau=1.0)


# --- fixed-target penalty ---------------------------------------------------------

def test_r_new_fixed_target_values():
    row = np.array([[2.0, 2.0]])
    assert _r_new("semantic", [3], row, targets={3: np.array([2.0, 2.0])})[1].r_new == 0.0
    obj, terms = _r_new("semantic", [3], row, targets={3: np.array([1.0, 1.0])})
    assert terms.r_new == pytest.approx(2.0, rel=1e-12)
    np.testing.assert_allclose(terms.gradient_matrix[obj.class_ids.index(3)], [2.0, 2.0],
                               atol=1e-12)


def test_r_new_fixed_target_fd_and_missing():
    rng = np.random.default_rng(6)
    ids = [0, 1, 2]
    m = rng.standard_normal((3, 4))
    targets = {c: rng.standard_normal(4) for c in ids}

    def fn(w):
        return _r_new("semantic", ids, w, targets=targets)[1].r_new

    obj, terms = _r_new("semantic", ids, m, targets=targets)
    grad = terms.gradient_matrix[[obj.class_ids.index(c) for c in ids]]
    assert rel_err(grad, fd_gradient(fn, m)) < 1e-4
    with pytest.raises(MissingTargetError):
        _r_new("semantic", [0, 7], m[:2], targets=targets)


def test_rows_are_laid_out_old_then_novel():
    # the novel ids 1 and 3 sit between the base ids: the old rows still come
    # first, and each penalty acts on its own classes' rows
    registry = ClassRegistry([(0, 2, 4), (1, 3)])
    anchors = WeightMatrix([0, 2, 4], np.zeros((3, 2)))
    targets = {1: np.array([1.0, 1.0]), 3: np.array([3.0, 1.0])}
    cfg = RunConfig(regularizer_kind="semantic", **{**_ZERO, "beta_base": 1.0, "gamma": 1.0})
    w = WeightMatrix(range(5), np.array([[c, 0.0] for c in range(5)]))
    obj = Objective(cfg, registry, 1, w, _null_batch(2, 0), anchors=anchors, targets=targets)
    assert obj.class_ids == (0, 2, 4, 1, 3)
    assert ObjectiveStack.of([obj]).n_old == 3
    terms = evaluate(obj, w)
    assert terms.r_old == 0.0 + 4.0 + 16.0  # base rows against their zero anchors
    assert terms.r_new == 1.0 + 1.0         # novel rows against their targets
    for c in (0, 2, 4):
        np.testing.assert_array_equal(terms.gradient_matrix[obj.class_ids.index(c)],
                                      [2.0 * c, 0.0])
    for c in (1, 3):
        np.testing.assert_array_equal(terms.gradient_matrix[obj.class_ids.index(c)],
                                      2.0 * (w.row(c) - targets[c]))


# --- assembled objective ------------------------------------------------------------

def _assembly(kind="subspace", with_targets=False, seed=0, d=4, beta=(0.3, 0.15)):
    rng = np.random.default_rng(seed)
    registry = ClassRegistry([(0, 1, 2), (3, 4)])
    base_m = rng.standard_normal((3, d))
    anchors = WeightMatrix([0, 1, 2], base_m)
    cfg = RunConfig(regularizer_kind=kind, alpha=0.05, beta_base=beta[0],
                    beta_prev_novel=beta[1], gamma=0.7, tau=1.0, rng_seed=0)
    basis = orthonormal_basis(list(base_m)) if kind == "subspace" else None
    targets = ({c: rng.standard_normal(d) for c in (3, 4)}
               if kind in ("semantic", "linmap", "description") or with_targets else None)
    weights = WeightMatrix([0, 1, 2, 3, 4], rng.standard_normal((5, d)))
    batch = Batch(rng.standard_normal((8, d)), rng.integers(0, 5, size=8))
    obj = Objective(cfg, registry, 1, weights, batch, anchors=anchors, basis=basis,
                    targets=targets)
    return cfg, obj, weights, batch, registry, anchors


def test_assemble_zero_coefficients_reduce_to_cross_entropy():
    rng = np.random.default_rng(7)
    registry = ClassRegistry([(0, 1), (2,)])
    anchors = WeightMatrix([0, 1], rng.standard_normal((2, 3)))
    weights = WeightMatrix([0, 1, 2], rng.standard_normal((3, 3)))
    batch = Batch(rng.standard_normal((6, 3)), rng.integers(0, 3, size=6))
    _, terms = _terms("finetune", registry, 1, anchors, weights, batch)
    logits = batch.features @ weights.matrix.T
    ce = float(np.mean(np.log(np.exp(logits).sum(axis=1))
                       - logits[np.arange(6), batch.class_ids]))
    assert terms.total == pytest.approx(ce, rel=1e-12)


def test_assemble_finetune_kind_zeroes_r_new():
    cfg, obj, weights, batch, *_ = _assembly(kind="finetune")
    terms = evaluate(obj, weights)
    assert terms.r_new == 0.0


def test_assemble_total_is_component_sum():
    for kind in ("finetune", "subspace", "semantic"):
        cfg, obj, weights, batch, *_ = _assembly(kind=kind)
        terms = evaluate(obj, weights)
        assert terms.total == pytest.approx(
            terms.data_loss + cfg.alpha * terms.r_prior + terms.r_old + cfg.gamma * terms.r_new,
            rel=1e-12)
        assert terms.r_prior >= 0 and terms.r_old >= 0 and terms.r_new >= 0


def test_assemble_gradient_finite_difference_all_kinds():
    for kind in ("finetune", "subspace", "semantic"):
        cfg, obj, weights, batch, *_ = _assembly(kind=kind, seed=11)
        terms = evaluate(obj, weights)

        def fn(w):
            return evaluate(obj, WeightMatrix(obj.class_ids, w)).total

        fd = fd_gradient(fn, weights.subset(obj.class_ids))
        assert rel_err(terms.gradient_matrix, fd) < 1e-4


def test_assemble_conflicting_components_rejected():
    # at most one new-class component, and none in the base session; which
    # one a run uses is prepare_run's choice, not the objective's
    cfg, obj, weights, batch, registry, anchors = _assembly(kind="subspace")
    basis = orthonormal_basis(list(anchors.matrix))
    targets = {3: np.ones(4), 4: np.ones(4)}
    with pytest.raises(ConfigError):
        Objective(cfg, registry, 1, weights, batch, anchors=anchors, basis=basis, targets=targets)
    with pytest.raises(ConfigError):
        Objective(cfg, registry, 0, weights, batch, basis=basis)
    with pytest.raises(ConfigError):
        Objective(cfg, registry, 0, weights, batch,
                  targets={0: np.ones(4), 1: np.ones(4), 2: np.ones(4)})
    with pytest.raises(MissingTargetError):
        Objective(cfg, registry, 1, weights, batch, anchors=anchors, targets={3: np.ones(4)})


def test_assemble_missing_snapshot_coverage():
    registry = ClassRegistry([(0, 1), (2,)])
    anchors = WeightMatrix([0], np.ones((1, 3)))  # class 1 missing
    cfg = RunConfig(regularizer_kind="finetune")
    start, batch = WeightMatrix([0, 1, 2], np.ones((3, 3))), _null_batch(3, 0)
    with pytest.raises(MissingSnapshotError, match=r"classes \[1\]"):
        Objective(cfg, registry, 1, start, batch, anchors=anchors)
    with pytest.raises(MissingSnapshotError, match=r"classes \[0, 1\]"):
        Objective(cfg, registry, 1, start, batch)


def test_objective_rejects_inactive_batch_class():
    cfg, _, weights, _, registry, anchors = _assembly(kind="finetune")
    bad = Batch(np.ones((1, 4)), np.array([99]))
    with pytest.raises(ValidationError):
        Objective(cfg, registry, 1, weights, bad, anchors=anchors)


def test_objective_names_the_start_rows_it_lacks():
    cfg, _, weights, batch, registry, anchors = _assembly(kind="finetune")
    start = WeightMatrix([0, 1, 2, 4], weights.subset([0, 1, 2, 4]))  # class 3 missing
    with pytest.raises(ValidationError, match=r"classes \[3\] have no weight row"):
        Objective(cfg, registry, 1, start, batch, anchors=anchors)


def test_regularizers_zero_exactly_at_anchor():
    rng = np.random.default_rng(12)
    for _ in range(10):
        d = int(rng.integers(2, 6))
        base = rng.standard_normal((3, d))
        anchors = WeightMatrix([0, 1, 2], base)
        w_at_anchor = WeightMatrix([0, 1, 2], base)
        assert _r_old([(0, 1, 2), ()], anchors, w_at_anchor, 0.4, 0.2)[1].r_old == 0.0
        basis = orthonormal_basis(list(base))
        coeff = rng.standard_normal(basis.matrix.shape[1])
        in_span = basis.matrix @ coeff
        assert _r_new("subspace", [9], in_span[None, :], basis=basis)[1].r_new < 1e-20
        tgt = rng.standard_normal(d)
        assert _r_new("semantic", [9], tgt[None, :], targets={9: tgt})[1].r_new == 0.0


# --- stacks -------------------------------------------------------------------------

@st.composite
def _stack_members(draw):
    """E same-shaped session-1 objectives, each with the weights it starts from
    and is evaluated at, and its own data. Each
    member permutes its class ids, so a label maps to member-specific rows;
    a subspace stack shares one basis."""
    kind = draw(st.sampled_from(("finetune", "subspace", "semantic")))
    n_members = draw(st.integers(1, 4))
    n_base, n_novel = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    d, n = draw(st.integers(1, 6)), draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cfg = RunConfig(regularizer_kind=kind, alpha=0.05, beta_base=0.3, gamma=0.7, rng_seed=0)
    basis = orthonormal_basis(list(rng.standard_normal((n_base, d))))
    members = []
    for _ in range(n_members):
        ids = rng.permutation(n_base + n_novel).tolist()
        registry = ClassRegistry([ids[:n_base], ids[n_base:]])
        anchors = WeightMatrix(ids[:n_base], rng.standard_normal((n_base, d)))
        targets = ({c: rng.standard_normal(d) for c in ids[n_base:]}
                   if kind == "semantic" else None)
        layout = registry.classes_up_to(0) + registry.classes_in(1)
        weights = WeightMatrix(layout, rng.standard_normal((len(ids), d)))
        batch = Batch(rng.standard_normal((n, d)), rng.choice(ids, size=n))
        obj = Objective(cfg, registry, 1, weights, batch, anchors=anchors,
                        basis=basis if kind == "subspace" else None, targets=targets)
        members.append((obj, weights))
    return members


@settings(max_examples=60, deadline=None)
@given(_stack_members())
def test_stack_members_bit_identical_to_their_solo_evaluation(members):
    stack = ObjectiveStack.of([obj for obj, _ in members])
    terms = stack.evaluate(np.stack([w.matrix for _, w in members]),
                           np.stack([obj.features for obj, _ in members]),
                           np.stack([obj.label_pos for obj, _ in members]))
    for e, (obj, weights) in enumerate(members):
        solo = evaluate(obj, weights)
        for name in ("data_loss", "r_prior", "r_old", "r_new", "total"):
            assert getattr(terms, name)[e] == getattr(solo, name)
        assert terms.gradient_matrix[e].tobytes() == solo.gradient_matrix.tobytes()


@settings(max_examples=25, deadline=None)
@given(_stack_members())
def test_gradient_finite_difference_at_random_shapes(members):
    obj, weights = members[0]
    terms = evaluate(obj, weights)

    def fn(w):
        return evaluate(obj, WeightMatrix(obj.class_ids, w)).total

    fd = fd_gradient(fn, weights.subset(obj.class_ids))
    assert rel_err(terms.gradient_matrix, fd) < 1e-4


def test_stack_rejects_members_of_another_layout():
    _, obj, *_ = _assembly(kind="subspace")
    _, wider, *_ = _assembly(kind="subspace", d=5)
    cfg, finetune, *_ = _assembly(kind="finetune")
    # a finetune problem with three novel classes, not two: another n_way
    three_way = Objective(cfg, ClassRegistry([(0, 1, 2), (3, 4, 5)]), 1,
                          WeightMatrix(range(6), np.ones((6, 4))),
                          Batch(np.ones((8, 4)), np.arange(8) % 6),
                          anchors=WeightMatrix([0, 1, 2], np.ones((3, 4))))
    for first, other in ((obj, wider), (obj, finetune), (finetune, three_way)):
        with pytest.raises(ValidationError):
            ObjectiveStack.of([first, other])


@settings(max_examples=60, deadline=None)
@given(_stack_members())
def test_stack_step_bit_identical_to_each_members_solo_step(members):
    # two steps: the whole stack's, then each member's alone from the
    # sub-stack ``take`` slices, with the constants the first step built
    stack = ObjectiveStack.of([obj for obj, _ in members])
    m = np.stack([w.matrix for _, w in members])
    terms = stack.step(m, np.stack([obj.features for obj, _ in members]),
                       np.stack([obj.label_pos for obj, _ in members]))
    assert terms.gradient_matrix is None
    for e, (obj, weights) in enumerate(members):
        solo_stack, solo_m = ObjectiveStack.of([obj]), weights.matrix[None].copy()
        solo = solo_stack.step(solo_m, obj.features[None], obj.label_pos[None])
        for name in ("data_loss", "r_prior", "r_old", "r_new", "total"):
            assert getattr(terms, name)[e] == getattr(solo, name)[0]
        assert m[e].tobytes() == solo_m[0].tobytes()
        sub_m = m[e:e + 1].copy()
        sub = stack.take([e]).step(sub_m, obj.features[None], obj.label_pos[None])
        again = solo_stack.step(solo_m, obj.features[None], obj.label_pos[None])
        assert sub.total[0] == again.total[0]
        assert sub_m.tobytes() == solo_m.tobytes()
