import dataclasses

import numpy as np
import pytest

from incrlin.datamodel import (
    Batch,
    ClassRegistry,
    RunConfig,
    WeightMatrix,
)
from incrlin.errors import DivergenceError, MissingExampleError
from incrlin.linalg import orthonormal_basis
from incrlin.objectives import Objective, ObjectiveStack
from incrlin.trainer import (
    MINI_BATCH,
    _epoch_order,
    fine_tune,
    fine_tune_stack,
    init_novel_weights,
    train_base,
)
from incrlin.synth import SynthSpec, generate


# --- initialization -------------------------------------------------------------

def _batch(class_ids, features):
    return Batch(np.asarray(features, dtype=np.float64), np.asarray(class_ids))


def test_init_one_shot_scaled_mean():
    v = np.array([3.0, 0.0, 4.0])
    rows = init_novel_weights(_batch([7], [v]), snapshot0_norms=np.array([2.0, 4.0]),
                              rng=np.random.default_rng(0))
    np.testing.assert_allclose(rows[7], 3.0 * v / 5.0, atol=1e-12)  # mean norm rho=3


def test_init_degenerate_mean_falls_back_to_small_random():
    v = np.array([1.0, -2.0, 0.5])
    rows = init_novel_weights(_batch([7, 7], [v, -v]),
                              snapshot0_norms=np.array([5.0]),
                              rng=np.random.default_rng(0))
    assert np.linalg.norm(rows[7]) == pytest.approx(0.05, rel=1e-9)  # 0.01 * rho


def test_init_five_shot_beats_fresh_random_row_on_own_support():
    rng = np.random.default_rng(1)
    center = rng.standard_normal(16)
    support = _batch([3] * 5, center + 0.1 * rng.standard_normal((5, 16)))
    rho = 2.0
    rows = init_novel_weights(support, rho, np.random.default_rng(2))
    rand = rng.standard_normal(16)
    rand *= rho / np.linalg.norm(rand)
    for feature in support.features:
        assert rows[3] @ feature > rand @ feature


def test_init_missing_class_error_and_determinism():
    with pytest.raises(MissingExampleError):
        init_novel_weights(_batch([0], [np.ones(2)]), 1.0,
                           np.random.default_rng(0), classes=[0, 1])
    sup = _batch([0], [[1.0, 2.0]])
    a = init_novel_weights(sup, 1.0, np.random.default_rng(5))
    b = init_novel_weights(sup, 1.0, np.random.default_rng(5))
    np.testing.assert_array_equal(a[0], b[0])


# --- epoch batching --------------------------------------------------------------

def test_epoch_batches_full_below_threshold():
    # one full batch in the given order, and nothing drawn from the rng
    rng = np.random.default_rng(0)
    assert _epoch_order(MINI_BATCH, [rng, rng]) is None
    assert rng.random() == np.random.default_rng(0).random()


def test_epoch_batches_partition_above_threshold():
    # the blocks cut from this order are checked on the steps themselves in
    # test_sgd_steps_on_mini_batches_that_cover_each_epoch
    n = 150
    order = _epoch_order(n, [np.random.default_rng(0), np.random.default_rng(1)])
    assert order.shape == (2, n)
    for row in order:  # each member sees each example exactly once
        np.testing.assert_array_equal(np.sort(row), np.arange(n))
    assert not np.array_equal(order[0], order[1])  # from each member's own rng


# --- fine_tune -------------------------------------------------------------------

def _toy_objective(kind="finetune", alpha=0.0, beta=0.0, gamma=0.0, basis=None):
    registry = ClassRegistry([(0, 1)])
    cfg = RunConfig(regularizer_kind=kind, alpha=alpha, beta_base=beta,
                    beta_prev_novel=beta, gamma=gamma, learning_rate=0.5,
                    max_epochs=500, rng_seed=0)
    return cfg, Objective(cfg, registry, 0, None)


def test_zero_learning_rate_keeps_weights_and_converges():
    cfg, obj = _toy_objective()
    cfg = cfg.replace(learning_rate=0.0)
    w0 = WeightMatrix([0, 1], np.array([[1.0, 2.0], [3.0, 4.0]]))
    data = Batch(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([0, 1]))
    w1, report = fine_tune(w0, obj, data, cfg, np.random.default_rng(0))
    np.testing.assert_array_equal(w1.matrix, w0.matrix)
    assert report.converged
    assert report.epochs_run == cfg.patience_epochs + 1


def test_separable_toy_reaches_full_support_accuracy():
    cfg, obj = _toy_objective()
    batch = Batch(np.array([[1.0, 0.1], [0.9, -0.1], [-1.0, 0.2], [-0.8, 0.0]]),
                  np.array([0, 0, 1, 1]))
    w0 = WeightMatrix([0, 1], np.zeros((2, 2)))
    w1, report = fine_tune(w0, obj, batch, cfg, np.random.default_rng(0))
    logits = batch.features @ w1.matrix.T
    preds = np.array([0, 1])[np.argmax(logits, axis=1)]
    assert np.array_equal(preds, batch.class_ids)


def test_fine_tune_bit_identical_given_seed():
    rng_data = np.random.default_rng(3)
    labels = rng_data.integers(0, 2, size=100)  # >64 forces shuffled batches
    data = Batch(rng_data.standard_normal((100, 4)), labels)
    registry = ClassRegistry([(0, 1)])
    cfg = RunConfig(regularizer_kind="finetune", alpha=1e-3, learning_rate=0.1,
                    max_epochs=40, convergence_tolerance=0.0, rng_seed=0)
    obj = Objective(cfg, registry, 0, None)
    w0 = WeightMatrix([0, 1], np.zeros((2, 4)))
    wa, ra = fine_tune(w0, obj, data, cfg, np.random.default_rng(11))
    wb, rb = fine_tune(w0, obj, data, cfg, np.random.default_rng(11))
    assert wa.matrix.tobytes() == wb.matrix.tobytes()
    assert (ra.epochs_run, ra.final_loss) == (rb.epochs_run, rb.final_loss)


def test_huge_gamma_forces_rows_into_subspace():
    rng = np.random.default_rng(4)
    d = 8
    base = rng.standard_normal((4, d))
    registry = ClassRegistry([(0, 1, 2, 3), (4, 5)])
    anchors = WeightMatrix([0, 1, 2, 3], base)
    # lr * 2 * gamma = 0.2 < 1: the out-of-span residual contracts each step
    cfg = RunConfig(regularizer_kind="subspace", alpha=0.0, beta_base=0.1,
                    beta_prev_novel=0.1, gamma=1e4, learning_rate=1e-5,
                    max_epochs=2000, convergence_tolerance=0.0, rng_seed=0)
    basis = orthonormal_basis(list(base))
    obj = Objective(cfg, registry, 1, anchors, basis=basis)
    support = _batch([4] * 5 + [5] * 5, rng.standard_normal((10, d)))
    init = init_novel_weights(support, anchors.norms(), np.random.default_rng(0))
    weights = anchors.with_rows(init)
    trained, _ = fine_tune(weights, obj, support, cfg, np.random.default_rng(0))
    p = basis.matrix
    for c in (4, 5):
        row = trained.row(c)
        resid = row - p @ (p.T @ row)
        assert np.linalg.norm(resid) / np.linalg.norm(row) < 0.05


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_divergence_raises():
    # lr * 2 * alpha >> 1 makes the prior term oscillate with exploding magnitude
    cfg, obj = _toy_objective(alpha=1.0)
    cfg = cfg.replace(learning_rate=1e6, max_epochs=100, convergence_tolerance=0.0)
    data = Batch(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([0, 1]))
    with pytest.raises(DivergenceError):
        fine_tune(WeightMatrix([0, 1], np.ones((2, 2))), obj, data, cfg,
                  np.random.default_rng(0))


def test_smoothed_epoch_loss_non_increasing_on_fixture(monkeypatch):
    # each epoch's loss, summed as the epoch loop sums it: every block's total
    # weighted by its size, over the epoch's examples
    data = generate(SynthSpec(n_classes=6, dimension=8, rng_seed=0))
    cfg = RunConfig(regularizer_kind="finetune", alpha=1e-3, learning_rate=0.05,
                    max_epochs=300, rng_seed=0)
    blocks = []
    evaluate = ObjectiveStack.evaluate

    def spy(self, m, feats, label_pos):
        terms = evaluate(self, m, feats, label_pos)
        blocks.append((float(terms.total[0]), label_pos.shape[1]))
        return terms

    monkeypatch.setattr(ObjectiveStack, "evaluate", spy)
    _, report = train_base(data.store, data.registry.base_classes, cfg)
    n = len(data.store.support_examples(data.registry.base_classes))
    per_epoch = -(-n // MINI_BATCH)
    assert len(blocks) == report.epochs_run * per_epoch
    trace = np.array([sum(total * size for total, size in blocks[k:k + per_epoch]) / n
                      for k in range(0, len(blocks), per_epoch)])
    assert trace[-1] == report.final_loss
    smooth = np.convolve(trace, np.ones(5) / 5, mode="valid")
    assert np.all(np.diff(smooth) <= 1e-9)


# --- stacks -----------------------------------------------------------------------

def _stack_problem(n=100, seed=3):
    """A session-1 subspace problem over n support rows (> MINI_BATCH at the
    default n, so every epoch is shuffled into blocks). The base rows, and so
    the basis, are the same for every seed."""
    d = 4
    base = np.random.default_rng(0).standard_normal((2, d))
    rng = np.random.default_rng(seed)
    registry = ClassRegistry([(0, 1), (2, 3)])
    anchors = WeightMatrix([0, 1], base)
    cfg = RunConfig(regularizer_kind="subspace", alpha=1e-3, beta_base=0.1, gamma=0.2,
                    learning_rate=0.05, max_epochs=120, convergence_tolerance=3e-3,
                    patience_epochs=3, rng_seed=0)
    obj = Objective(cfg, registry, 1, anchors, basis=orthonormal_basis(list(base)))
    w0 = WeightMatrix([0, 1, 2, 3], np.vstack([base, rng.standard_normal((2, d))]))
    data = Batch(rng.standard_normal((n, d)), rng.integers(0, 4, size=n))
    return cfg, obj, w0, data


def _same_run(a, b):
    (wa, ra), (wb, rb) = a, b
    assert wa.class_ids == wb.class_ids
    assert wa.matrix.tobytes() == wb.matrix.tobytes()
    assert (ra.epochs_run, ra.converged, ra.diverged) == (rb.epochs_run, rb.converged, rb.diverged)
    assert ra.final_loss == rb.final_loss


def test_stack_members_match_solo_runs_on_shuffled_blocks():
    # three members with their own data and rngs stop at their own epochs;
    # each is bit-identical to fine-tuning it alone
    problems = [_stack_problem(seed=s) for s in (3, 4, 5)]
    cfg = problems[0][0]
    stacked = fine_tune_stack([p[2] for p in problems], [p[1] for p in problems],
                              [p[3] for p in problems], cfg,
                              [np.random.default_rng(10 + i) for i in range(3)])
    solo = [fine_tune(p[2], p[1], p[3], cfg, np.random.default_rng(10 + i))
            for i, p in enumerate(problems)]
    for a, b in zip(stacked, solo):
        _same_run(a, b)
    assert len({r.epochs_run for _, r in solo}) > 1  # members stopped at different epochs


def _rows_with_labels(feats, label_pos):
    return sorted(zip(map(bytes, feats), label_pos.tolist()))


@pytest.mark.parametrize("n_members", [1, 2])
def test_sgd_steps_on_mini_batches_that_cover_each_epoch(monkeypatch, n_members):
    # every step sees at most MINI_BATCH rows of each member, and the steps of
    # an epoch pair each member's rows with their labels exactly once
    n, epochs = 150, 3
    problems = [_stack_problem(n=n, seed=s) for s in (3, 4)[:n_members]]
    cfg = dataclasses.replace(problems[0][0], max_epochs=epochs)  # no member stops early
    calls = []
    evaluate = ObjectiveStack.evaluate

    def spy(self, m, feats, label_pos):
        calls.append((feats.copy(), label_pos.copy()))
        return evaluate(self, m, feats, label_pos)

    monkeypatch.setattr(ObjectiveStack, "evaluate", spy)
    rngs = [np.random.default_rng(10 + i) for i in range(n_members)]
    if n_members == 1:
        _, obj, w0, data = problems[0]
        fine_tune(w0, obj, data, cfg, rngs[0])
    else:
        fine_tune_stack([p[2] for p in problems], [p[1] for p in problems],
                        [p[3] for p in problems], cfg, rngs)
    sizes = [lab.shape[1] for _, lab in calls]
    assert max(sizes) <= MINI_BATCH
    per_epoch = -(-n // MINI_BATCH)
    assert len(calls) == epochs * per_epoch and sum(sizes) == epochs * n
    for k in range(0, len(calls), per_epoch):
        epoch = calls[k:k + per_epoch]
        for e, (_, obj, _, data) in enumerate(problems):
            seen = _rows_with_labels(np.concatenate([f[e] for f, _ in epoch]),
                                     np.concatenate([lab[e] for _, lab in epoch]))
            assert seen == _rows_with_labels(data.features, obj.label_rows(data.class_ids))


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
def test_diverged_member_leaves_the_rest_of_the_stack_untouched():
    cfg, obj, w0, data = _stack_problem(n=6)
    scaled = Batch(data.features * 1e155, data.class_ids)  # its first step overflows
    stacked = fine_tune_stack([w0, w0], [obj, obj], [scaled, data], cfg,
                              [np.random.default_rng(0), np.random.default_rng(1)])
    (w_bad, r_bad), good = stacked
    assert w_bad is None and r_bad.diverged and not r_bad.converged
    _same_run(good, fine_tune(w0, obj, data, cfg, np.random.default_rng(1)))
    with pytest.raises(DivergenceError):
        fine_tune(w0, obj, scaled, cfg, np.random.default_rng(0))


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
def test_divergence_on_shuffled_blocks_stops_stepping_at_the_first_bad_block(monkeypatch):
    cfg, obj, w0, data = _stack_problem(n=200)  # four blocks per epoch
    scaled = Batch(data.features * 1e155, data.class_ids)  # its second block overflows
    seen = []
    evaluate = ObjectiveStack.evaluate

    def spy(self, m, feats, label_pos):
        seen.append(m.copy())
        return evaluate(self, m, feats, label_pos)

    monkeypatch.setattr(ObjectiveStack, "evaluate", spy)
    with pytest.raises(DivergenceError, match="epoch 1"):
        fine_tune(w0, obj, scaled, cfg, np.random.default_rng(0))
    assert len(seen) == 2  # a stack of one stops at its first non-finite block

    seen.clear()
    (w_bad, r_bad), good = fine_tune_stack([w0, w0], [obj, obj], [scaled, data], cfg,
                                           [np.random.default_rng(0), np.random.default_rng(1)])
    assert w_bad is None and r_bad.diverged and r_bad.epochs_run == 1
    assert [m.shape[0] for m in seen[:5]] == [2, 2, 2, 2, 1]  # it leaves after epoch 1
    for m in seen[2:4]:  # and takes no step after its bad block
        np.testing.assert_array_equal(m[0], seen[1][0])
    _same_run(good, fine_tune(w0, obj, data, cfg, np.random.default_rng(1)))


# --- straight-line SGD oracle ---------------------------------------------------------

def test_full_batch_sgd_matches_reference_implementation():
    # 3 classes, 4 examples, d=2; 5 full-batch steps at lr=0.01 with every
    # regularizer active, against an unrolled reference of the same update rule
    rng = np.random.default_rng(9)
    feats = rng.standard_normal((4, 2))
    labels = np.array([0, 1, 2, 1])
    base = rng.standard_normal((2, 2))
    registry = ClassRegistry([(0, 1), (2,)])
    anchors = WeightMatrix([0, 1], base)
    alpha, bb, bp, gamma, lr = 0.01, 0.1, 0.05, 0.5, 0.01
    cfg = RunConfig(regularizer_kind="subspace", alpha=alpha, beta_base=bb,
                    beta_prev_novel=bp, gamma=gamma, learning_rate=lr,
                    max_epochs=5, convergence_tolerance=0.0, rng_seed=0)
    basis = orthonormal_basis(list(base))
    obj = Objective(cfg, registry, 1, anchors, basis=basis)
    w0 = np.vstack([base, rng.standard_normal((1, 2))])
    data = Batch(feats, labels)
    trained, report = fine_tune(WeightMatrix([0, 1, 2], w0), obj, data, cfg,
                                np.random.default_rng(0))
    assert report.epochs_run == 5

    # reference: straight-line numpy, same arithmetic order
    p = basis.matrix
    w = w0.copy()
    for _ in range(5):
        logits = feats @ w.T
        logits -= logits.max(axis=1, keepdims=True)
        expl = np.exp(logits)
        z = expl.sum(axis=1)
        prob = expl / z[:, None]
        prob[np.arange(4), labels] -= 1.0
        grad = prob.T @ feats / 4
        grad += 2.0 * alpha * w
        diff0 = w[0] - base[0]
        diff1 = w[1] - base[1]
        grad[0] += 2.0 * bb * diff0
        grad[1] += 2.0 * bb * diff1
        resid = w[2] - p @ (p.T @ w[2])
        grad[2] += 2.0 * gamma * resid
        w -= lr * grad
    np.testing.assert_allclose(trained.matrix, w, atol=1e-10)
