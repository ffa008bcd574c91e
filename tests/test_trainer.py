import dataclasses

import numpy as np
import pytest

import incrlin.protocol as protocol_mod
import incrlin.trainer as trainer_mod
from incrlin.datamodel import (
    FIXED_TARGET_KINDS,
    Batch,
    ClassRegistry,
    RunConfig,
    SessionStream,
    WeightMatrix,
)
from incrlin.errors import DivergenceError, MissingExampleError
from incrlin.linalg import orthonormal_basis
from incrlin.objectives import Objective, ObjectiveStack
from incrlin.protocol import run_multi_session
from incrlin.trainer import (
    MINI_BATCH,
    _epoch_order,
    fine_tune_stack,
    init_novel_weights,
    train_base,
)
from incrlin.synth import SynthSpec, generate

from conftest import pools_store


# --- initialization -------------------------------------------------------------

def _batch(class_ids, features):
    return Batch(np.asarray(features, dtype=np.float64), np.asarray(class_ids))


def test_init_one_shot_scaled_mean():
    v = np.array([3.0, 0.0, 4.0])
    rows = init_novel_weights(_batch([7], [v]), snapshot0_norms=np.array([2.0, 4.0]),
                              rng=np.random.default_rng(0), classes=[7])
    np.testing.assert_allclose(rows[7], 3.0 * v / 5.0, atol=1e-12)  # mean norm rho=3


def test_init_degenerate_mean_falls_back_to_small_random():
    v = np.array([1.0, -2.0, 0.5])
    rows = init_novel_weights(_batch([7, 7], [v, -v]),
                              snapshot0_norms=np.array([5.0]),
                              rng=np.random.default_rng(0), classes=[7])
    assert np.linalg.norm(rows[7]) == pytest.approx(0.05, rel=1e-9)  # 0.01 * rho


def test_init_five_shot_beats_fresh_random_row_on_own_support():
    rng = np.random.default_rng(1)
    center = rng.standard_normal(16)
    support = _batch([3] * 5, center + 0.1 * rng.standard_normal((5, 16)))
    rho = 2.0
    rows = init_novel_weights(support, rho, np.random.default_rng(2), classes=[3])
    rand = rng.standard_normal(16)
    rand *= rho / np.linalg.norm(rand)
    for feature in support.features:
        assert rows[3] @ feature > rand @ feature


def test_init_missing_class_error_and_determinism():
    with pytest.raises(MissingExampleError):
        init_novel_weights(_batch([0], [np.ones(2)]), 1.0,
                           np.random.default_rng(0), classes=[0, 1])
    sup = _batch([0], [[1.0, 2.0]])
    a = init_novel_weights(sup, 1.0, np.random.default_rng(5), classes=[0])
    b = init_novel_weights(sup, 1.0, np.random.default_rng(5), classes=[0])
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


# --- one session: a stack of one --------------------------------------------------

def _solo(objective, rng):
    """``fine_tune_stack`` of one member; raises its ``DivergenceError``."""
    [outcome] = fine_tune_stack([objective], [rng])
    if isinstance(outcome, DivergenceError):
        raise outcome
    return outcome


def _toy_objective(w0, data, **fields):
    """The base session of classes 0 and 1 from ``w0`` over ``data``, with
    every penalty off but the ``fields`` set."""
    registry = ClassRegistry([(0, 1)])
    cfg = dataclasses.replace(RunConfig(regularizer_kind="finetune", alpha=0.0, beta_base=0.0,
                                        beta_prev_novel=0.0, gamma=0.0, learning_rate=0.5,
                                        max_epochs=500, rng_seed=0), **fields)
    return cfg, Objective(cfg, registry, 0, w0, data)


def test_zero_learning_rate_keeps_weights_and_converges():
    w0 = WeightMatrix([0, 1], np.array([[1.0, 2.0], [3.0, 4.0]]))
    data = Batch(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([0, 1]))
    cfg, obj = _toy_objective(w0, data, learning_rate=0.0)
    w1, report = _solo(obj, np.random.default_rng(0))
    np.testing.assert_array_equal(w1.matrix, w0.matrix)
    assert report.converged
    assert report.epochs_run == cfg.patience_epochs + 1


def test_separable_toy_reaches_full_support_accuracy():
    batch = Batch(np.array([[1.0, 0.1], [0.9, -0.1], [-1.0, 0.2], [-0.8, 0.0]]),
                  np.array([0, 0, 1, 1]))
    _, obj = _toy_objective(WeightMatrix([0, 1], np.zeros((2, 2))), batch)
    w1, report = _solo(obj, np.random.default_rng(0))
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
    obj = Objective(cfg, registry, 0, WeightMatrix([0, 1], np.zeros((2, 4))), data)
    wa, ra = _solo(obj, np.random.default_rng(11))
    wb, rb = _solo(obj, np.random.default_rng(11))
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
    support = _batch([4] * 5 + [5] * 5, rng.standard_normal((10, d)))
    init = init_novel_weights(support, anchors.norms(), np.random.default_rng(0), classes=[4, 5])
    obj = Objective(cfg, registry, 1, anchors.with_rows(init), support, anchors=anchors,
                    basis=basis)
    trained, _ = _solo(obj, np.random.default_rng(0))
    p = basis.matrix
    for c in (4, 5):
        row = trained.row(c)
        resid = row - p @ (p.T @ row)
        assert np.linalg.norm(resid) / np.linalg.norm(row) < 0.05


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_divergence_raises():
    # lr * 2 * alpha >> 1 makes the prior term oscillate with exploding magnitude
    data = Batch(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([0, 1]))
    _, obj = _toy_objective(WeightMatrix([0, 1], np.ones((2, 2))), data, alpha=1.0,
                            learning_rate=1e6, max_epochs=100, convergence_tolerance=0.0)
    with pytest.raises(DivergenceError):
        _solo(obj, np.random.default_rng(0))


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
def test_train_base_divergence_names_the_remedy():
    data = generate(SynthSpec(n_classes=6, dimension=8, rng_seed=0))
    cfg = RunConfig(regularizer_kind="finetune", alpha=1.0, learning_rate=1e6, max_epochs=100,
                    rng_seed=0)
    with pytest.raises(DivergenceError, match=r"^non-finite loss at epoch \d+ "
                                              r"\(lr=1000000\.0\); reduce the learning rate$"):
        train_base(data.store, data.store.classes, cfg)


def test_smoothed_epoch_loss_non_increasing_on_fixture(monkeypatch):
    # each epoch's loss, summed as the epoch loop sums it: every block's total
    # weighted by its size, over the epoch's examples
    data = generate(SynthSpec(n_classes=6, dimension=8, rng_seed=0))
    cfg = RunConfig(regularizer_kind="finetune", alpha=1e-3, learning_rate=0.05,
                    max_epochs=300, rng_seed=0)
    blocks = []
    step = ObjectiveStack.step

    def spy(self, m, feats, label_pos):
        terms = step(self, m, feats, label_pos)
        blocks.append((float(terms.total[0]), label_pos.shape[1]))
        return terms

    monkeypatch.setattr(ObjectiveStack, "step", spy)
    _, report = train_base(data.store, data.store.classes, cfg)
    n = len(data.store.support_examples(data.store.classes))
    per_epoch = -(-n // MINI_BATCH)
    assert len(blocks) == report.epochs_run * per_epoch
    trace = np.array([sum(total * size for total, size in blocks[k:k + per_epoch]) / n
                      for k in range(0, len(blocks), per_epoch)])
    assert trace[-1] == report.final_loss
    smooth = np.convolve(trace, np.ones(5) / 5, mode="valid")
    assert np.all(np.diff(smooth) <= 1e-9)


# --- stacks -----------------------------------------------------------------------

def _stack_problem(n=100, seed=3, kind="subspace", d=4, data_scale=None, **fields):
    """A session-1 problem over n support rows (> MINI_BATCH at the default
    n, so every epoch is shuffled into blocks), pulled toward the base span,
    or toward fixed targets for the embedding kinds. The base rows, and so
    the basis, are the same for every seed. Entries are scaled by sqrt(4 / d),
    so row norms do not grow with d. ``data_scale`` scales the support
    features after they are drawn; ``fields`` override the config."""
    scale = np.sqrt(4 / d)
    base = np.random.default_rng(0).standard_normal((2, d)) * scale
    rng = np.random.default_rng(seed)
    registry = ClassRegistry([(0, 1), (2, 3)])
    anchors = WeightMatrix([0, 1], base)
    cfg = dataclasses.replace(RunConfig(regularizer_kind=kind, alpha=1e-3, beta_base=0.1,
                                        gamma=0.2, learning_rate=0.05, max_epochs=120,
                                        convergence_tolerance=3e-3, patience_epochs=3,
                                        rng_seed=0), **fields)
    w0 = WeightMatrix([0, 1, 2, 3], np.vstack([base, rng.standard_normal((2, d)) * scale]))
    data = Batch(rng.standard_normal((n, d)) * scale, rng.integers(0, 4, size=n))
    if data_scale is not None:
        data = Batch(data.features * data_scale, data.class_ids)
    if kind == "subspace":
        return Objective(cfg, registry, 1, w0, data, anchors=anchors,
                         basis=orthonormal_basis(list(base)))
    targets = ({c: rng.standard_normal(d) * scale for c in (2, 3)}
               if kind in FIXED_TARGET_KINDS else None)
    return Objective(cfg, registry, 1, w0, data, anchors=anchors, targets=targets)


def _width(n_rows, n_novel, projected, targets):
    """Rows of a session's spanning set: its ``n_rows`` training rows and the
    start rows of its ``n_novel`` novel rows, then the projections of all of
    them onto the base span if the pull is a subspace, or the novel rows'
    fixed targets. The trainer steps in span coordinates below d rows."""
    width = n_rows + n_novel
    return 2 * width if projected else width + (n_novel if targets else 0)


def _weight_body(stack, m, feats):
    """``trainer._coordinates`` kept on the weights: the stack over its raw
    weights, the body a spanning set of d rows or more trains in."""
    return stack, m, feats, lambda x: x


def _in_span(objectives):
    """Whether the trainer steps a stack of ``objectives`` in span coordinates."""
    m = np.stack([o.start for o in objectives])
    x = trainer_mod._coordinates(ObjectiveStack.of(objectives), m,
                                 np.stack([o.features for o in objectives]))[1]
    return x.shape[2] != m.shape[2]


def _same_run(a, b):
    (wa, ra), (wb, rb) = a, b
    assert wa.class_ids == wb.class_ids
    assert wa.matrix.tobytes() == wb.matrix.tobytes()
    assert (ra.epochs_run, ra.converged) == (rb.epochs_run, rb.converged)
    assert ra.final_loss == rb.final_loss


def _stack_matches_solo(objectives):
    # members with their own data and rngs stop at their own epochs; each is
    # bit-identical to fine-tuning it alone
    stacked = fine_tune_stack(objectives,
                              [np.random.default_rng(10 + i) for i in range(len(objectives))])
    solo = [_solo(obj, np.random.default_rng(10 + i)) for i, obj in enumerate(objectives)]
    for a, b in zip(stacked, solo):
        _same_run(a, b)
    assert len({r.epochs_run for _, r in solo}) > 1  # members stopped at different epochs


def test_stack_members_match_solo_runs_on_shuffled_blocks():
    _stack_matches_solo([_stack_problem(seed=s) for s in (3, 4, 5)])


def test_stack_members_match_solo_runs_in_span_coordinates():
    d = 4 * _width(100, 2, projected=True, targets=False)
    objectives = [_stack_problem(seed=s, d=d) for s in (3, 4, 14)]  # 51, 52, 50 epochs
    assert _in_span(objectives)
    _stack_matches_solo(objectives)


def _episode_problem(seed, kind, d=32, n_base=20, n_way=5):
    """A 5-way 1-shot episode over 20 anchored base rows at d=32 (C=25), the
    shape of the benchmark's episodes. The base rows are the same for every
    seed."""
    base = np.random.default_rng(0).standard_normal((n_base, d)) / np.sqrt(d)
    rng = np.random.default_rng(seed)
    novel = tuple(range(n_base, n_base + n_way))
    registry = ClassRegistry([range(n_base), novel])
    cfg = RunConfig(regularizer_kind=kind, alpha=1e-3, beta_base=0.1, gamma=0.2,
                    learning_rate=0.5, max_epochs=200, convergence_tolerance=1e-4,
                    patience_epochs=3, rng_seed=0)
    w0 = WeightMatrix(range(n_base + n_way),
                      np.vstack([base, rng.standard_normal((n_way, d)) / np.sqrt(d)]))
    data = Batch(rng.standard_normal((n_way, d)), np.array(novel))
    anchors = WeightMatrix(range(n_base), base)
    if kind == "subspace":
        return Objective(cfg, registry, 1, w0, data, anchors=anchors,
                         basis=orthonormal_basis(list(base)))
    return Objective(cfg, registry, 1, w0, data, anchors=anchors,
                     targets=None if kind == "finetune" else
                     {c: rng.standard_normal(d) / np.sqrt(d) for c in novel})


@pytest.mark.parametrize("kind", ["subspace", "semantic"])
def test_large_episode_stack_members_match_solo_runs(kind):
    # 48 episodes in one span-coordinate stack, stopping at 73-101 epochs
    # (subspace) or 24-26 (semantic): the one-pass reductions give each member
    # the bits of its solo run
    objectives = [_episode_problem(s, kind) for s in range(48)]
    assert _in_span(objectives)
    _stack_matches_solo(objectives)


def _rows_with_labels(feats, label_pos):
    return sorted(zip(map(bytes, feats), label_pos.tolist()))


@pytest.mark.parametrize("n_members", [1, 2])
def test_sgd_steps_on_mini_batches_that_cover_each_epoch(monkeypatch, n_members):
    # every step sees at most MINI_BATCH rows of each member, and the steps of
    # an epoch pair each member's rows with their labels exactly once
    n, epochs = 150, 3
    # no member stops early
    objectives = [_stack_problem(n=n, seed=s, max_epochs=epochs) for s in (3, 4)[:n_members]]
    calls = []
    step = ObjectiveStack.step

    def spy(self, m, feats, label_pos):
        calls.append((feats.copy(), label_pos.copy()))
        return step(self, m, feats, label_pos)

    monkeypatch.setattr(ObjectiveStack, "step", spy)
    rngs = [np.random.default_rng(10 + i) for i in range(n_members)]
    fine_tune_stack(objectives, rngs)
    sizes = [lab.shape[1] for _, lab in calls]
    assert max(sizes) <= MINI_BATCH
    per_epoch = -(-n // MINI_BATCH)
    assert len(calls) == epochs * per_epoch and sum(sizes) == epochs * n
    for k in range(0, len(calls), per_epoch):
        epoch = calls[k:k + per_epoch]
        for e, obj in enumerate(objectives):
            seen = _rows_with_labels(np.concatenate([f[e] for f, _ in epoch]),
                                     np.concatenate([lab[e] for _, lab in epoch]))
            assert seen == _rows_with_labels(obj.features, obj.label_pos)


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
def test_diverged_member_leaves_the_rest_of_the_stack_untouched():
    obj = _stack_problem(n=6)
    scaled = _stack_problem(n=6, data_scale=1e155)  # its first step overflows
    bad, good = fine_tune_stack([scaled, obj], [np.random.default_rng(0), np.random.default_rng(1)])
    assert isinstance(bad, DivergenceError)
    _same_run(good, _solo(obj, np.random.default_rng(1)))
    with pytest.raises(DivergenceError):
        _solo(scaled, np.random.default_rng(0))


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
def test_divergence_on_shuffled_blocks_steps_to_the_end_of_its_epoch(monkeypatch):
    # one rule for full batches and mini-batches: a member whose loss went
    # non-finite steps on every block of that epoch, then leaves the stack
    obj = _stack_problem(n=200)  # four blocks per epoch
    scaled = _stack_problem(n=200, data_scale=1e155)  # its second block overflows
    seen = []
    step = ObjectiveStack.step

    def spy(self, m, feats, label_pos):
        seen.append(m.shape[0])
        return step(self, m, feats, label_pos)

    monkeypatch.setattr(ObjectiveStack, "step", spy)
    with pytest.raises(DivergenceError, match="epoch 1"):
        _solo(scaled, np.random.default_rng(0))
    assert seen == [1, 1, 1, 1]  # a stack of one steps all four blocks of epoch 1

    seen.clear()
    bad, good = fine_tune_stack([scaled, obj], [np.random.default_rng(0), np.random.default_rng(1)])
    assert isinstance(bad, DivergenceError) and "at epoch 1 " in str(bad)
    assert seen[:5] == [2, 2, 2, 2, 1]  # it leaves after epoch 1
    _same_run(good, _solo(obj, np.random.default_rng(1)))


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
    w0 = np.vstack([base, rng.standard_normal((1, 2))])
    obj = Objective(cfg, registry, 1, WeightMatrix([0, 1, 2], w0), Batch(feats, labels),
                    anchors=anchors, basis=basis)
    trained, report = _solo(obj, np.random.default_rng(0))
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


# --- span coordinates against weight coordinates -------------------------------------

_KINDS = ("finetune", "subspace", "semantic", "description", "linmap")


def _both_bodies(monkeypatch, run, dimension):
    """``run()`` on the raw weights (``_weight_body``), then as the trainer
    picks; every step of the second run must be in span coordinates, whose
    width is not the feature ``dimension``."""
    results, spans = [], []
    step, coordinates = ObjectiveStack.step, trainer_mod._coordinates

    def spy(self, m, feats, label_pos):
        spans.append(m.shape[2] != dimension)
        return step(self, m, feats, label_pos)

    monkeypatch.setattr(ObjectiveStack, "step", spy)
    for span in (False, True):
        monkeypatch.setattr(trainer_mod, "_coordinates", coordinates if span else _weight_body)
        spans.clear()
        results.append(run())
        assert spans and set(spans) == {span}
    return results


def _close_runs(weight_run, span_run):
    """The same stop epoch and outcome, and weights within 1e-12 of the
    largest entry."""
    assert type(weight_run) is type(span_run)
    if isinstance(weight_run, DivergenceError):
        assert str(span_run) == str(weight_run)  # at the same epoch
        return
    (wa, ra), (wb, rb) = weight_run, span_run
    assert (ra.epochs_run, ra.converged) == (rb.epochs_run, rb.converged)
    assert wa.class_ids == wb.class_ids
    assert np.abs(wb.matrix - wa.matrix).max() <= 1e-12 * np.abs(wa.matrix).max()


def _three_sessions(monkeypatch, kind, memory, dimension=12):
    """A run of three sessions, so the base rows start session 2 away from
    their anchors; class 8's first four support rows are v, -v, w, -w, so its
    mean is zero and its start row is a random one; with memory, a MINI_BATCH
    of 8 below the 14 and 16 rows shuffles every epoch into blocks. Returns a
    function that runs it, returning each session's outcome, and the list of
    classes whose start row fell back to a random one, filled as it runs."""
    data = generate(SynthSpec(n_classes=10, dimension=dimension, rng_seed=5,
                              support_per_class=6, query_per_class=3))
    support = {c: data.store.support(c) for c in data.store.classes}
    support[8] = np.repeat(support[8][:3], 2, axis=0) * np.array([1.0, -1.0] * 3)[:, None]
    store = pools_store(dimension, support, {c: data.store.query(c) for c in data.store.classes})
    registry = ClassRegistry([range(6), (6, 7), (8, 9)])
    cfg = RunConfig(regularizer_kind=kind, alpha=1e-3, beta_base=0.2, beta_prev_novel=0.1,
                    gamma=0.3, tau=0.5, learning_rate=0.05, max_epochs=400, rng_seed=5,
                    memory_enabled=memory)
    bw, _ = train_base(store.restrict(range(6)), range(6),
                       dataclasses.replace(cfg, regularizer_kind="finetune"))
    stream = SessionStream(store, registry, cfg, embeddings=data.embeddings, k_shot=4)
    if memory:
        monkeypatch.setattr(trainer_mod, "MINI_BATCH", 8)
    fallbacks = []
    init = protocol_mod.init_novel_weights

    def run():
        trained = []

        def recording(*args):
            outcomes = fine_tune_stack(*args)
            trained.extend(outcomes)
            return outcomes

        monkeypatch.setattr(protocol_mod, "fine_tune_stack", recording)
        run_multi_session(stream, base_weights=bw)
        return trained

    def spy_init(support, norms, rng, classes):
        rows = init(support, norms, rng, classes=classes)
        fallbacks.extend(c for c in rows if np.linalg.norm(support.features[
            support.class_ids == c].mean(axis=0)) == 0.0)
        return rows

    monkeypatch.setattr(protocol_mod, "init_novel_weights", spy_init)
    return run, fallbacks


@pytest.mark.parametrize("memory", [False, True])
@pytest.mark.parametrize("kind", _KINDS)
def test_span_coordinates_match_weight_coordinates_over_a_run(monkeypatch, kind, memory):
    run, fallbacks = _three_sessions(monkeypatch, kind, memory, dimension=64)
    weight_runs, span_runs = _both_bodies(monkeypatch, run, 64)
    assert fallbacks == [8, 8]
    assert len(weight_runs) == len(span_runs) == 2
    for a, b in zip(weight_runs, span_runs):
        _close_runs(a, b)


def _basis_rows(to_weights, n_members, c, q):
    """The rows of Qᵀ (E, q - 2, d), read off ``to_weights`` one block of C
    unit coordinates at a time."""
    eye, blocks = np.eye(q)[:q - 2], []
    for j in range(0, q - 2, c):
        unit = np.zeros((n_members, c, q))
        part = eye[j:j + c]
        unit[:, :len(part)] = part
        blocks.append(to_weights(unit)[:, :len(part)])
    return np.concatenate(blocks, axis=1)


def _pairs(to_weights, n_members, c, q, k):
    """Each old row's pair (E, k, d, 2), read off ``to_weights`` at unit s,
    then unit t."""
    columns = []
    for j in (q - 2, q - 1):
        unit = np.zeros((n_members, c, q))
        unit[:, :k, j] = 1.0
        columns.append(to_weights(unit)[:, :k])
    return np.stack(columns, axis=-1)


@pytest.mark.parametrize("dimension", [12, 64])
@pytest.mark.parametrize("kind", ["finetune", "subspace", "semantic"])
def test_span_coordinates_round_trip(monkeypatch, kind, dimension):
    # every fine-tune of a three-session run with memory: session 1, whose old
    # rows start at their anchors, and session 2, whose do not and whose class
    # 8 starts from a random row. At d=12 the spanning rows outnumber d, so
    # both stay on the weights; at d=64 they do not, and both train in span
    # coordinates.
    run, fallbacks = _three_sessions(monkeypatch, kind, memory=True, dimension=dimension)
    coordinates, calls = trainer_mod._coordinates, []

    def spy(stack, m, feats):
        span, x, rows, to_weights = coordinates(stack, m, feats)
        if x is m:  # the weights are trained in place
            assert span is stack and rows is feats and to_weights(x) is x
            calls.append(None)
        else:
            calls.append(((stack, m, feats), (span, x.copy(), rows, to_weights)))
        return span, x, rows, to_weights

    monkeypatch.setattr(trainer_mod, "_coordinates", spy)
    run()
    assert fallbacks == [8] and len(calls) == 2
    assert calls == [None, None] if dimension == 12 else None not in calls
    for (stack, m, feats), (span, x, rows, to_weights) in filter(None, calls):
        n_members, c, q = x.shape
        k, scale = stack.n_old, np.abs(m).max()
        assert q - 2 < dimension
        qt = _basis_rows(to_weights, n_members, c, q)
        np.testing.assert_allclose(qt @ qt.transpose(0, 2, 1), np.broadcast_to(
            np.eye(q - 2), (n_members, q - 2, q - 2)), rtol=0, atol=1e-14)
        # each old row's pair is orthonormal, and what its start and anchor
        # hold on it is orthogonal to Q; where the anchor is the start, its
        # second coefficient is exactly 0
        pair = _pairs(to_weights, n_members, c, q, k)
        np.testing.assert_allclose(pair.transpose(0, 1, 3, 2) @ pair, np.broadcast_to(
            np.eye(2), (n_members, k, 2, 2)), rtol=0, atol=1e-14)
        for st in (x[:, :k, -2:], span.anchors[..., -2:]):
            outside = (pair @ st[..., None])[..., 0]
            assert np.abs(outside @ qt.transpose(0, 2, 1)).max() <= 1e-14 * scale
        still = (m[:, :k] == stack.anchors).all(axis=2)
        assert not x[:, :k, -1][still].any() and not span.anchors[..., -1][still].any()
        assert np.abs(to_weights(x) - m).max() <= 1e-14 * scale
        at_anchors = x.copy()
        at_anchors[:, :k] = span.anchors
        assert np.abs(to_weights(at_anchors)[:, :k] - stack.anchors).max() <= 1e-14 * scale
        assert not rows[..., -2:].any() and not x[:, k:, -2:].any()
        np.testing.assert_allclose(rows[..., :-2] @ qt, feats, rtol=0,
                                   atol=1e-14 * np.abs(feats).max())


@pytest.mark.parametrize("kind", ["finetune", "subspace", "semantic"])
def test_old_rows_at_their_anchors_keep_a_zero_second_pair_coefficient(monkeypatch, kind):
    # where an old row starts at its anchor, its anchor less its start is
    # exactly 0, so its second pair coefficient t is 0 at the start and in
    # its anchor, and no step moves it: every old row of session 1 of a
    # three-session run, and of a stack of 5-way 1-shot episodes at d=32
    step, seen = ObjectiveStack.step, []

    def spy(self, m, feats, label_pos):
        terms = step(self, m, feats, label_pos)
        seen.append((self.n_old, m[:, :self.n_old, -1].copy()))
        return terms

    monkeypatch.setattr(ObjectiveStack, "step", spy)
    run, _ = _three_sessions(monkeypatch, kind, memory=False, dimension=64)
    run()
    first = [t for k, t in seen if k == 6]  # session 1: the six base rows are old
    assert len(first) > 100 and len(first) < len(seen)
    assert not np.concatenate([t.ravel() for t in first]).any()

    seen.clear()
    episodes = [_episode_problem(s, kind) for s in range(8)]
    assert _in_span(episodes)
    fine_tune_stack(episodes, [np.random.default_rng(10 + i) for i in range(8)])
    assert len(seen) > 20
    assert not np.concatenate([t.ravel() for _, t in seen]).any()


@pytest.mark.parametrize("kind", ["subspace", "semantic"])
def test_an_old_row_in_the_span_round_trips(monkeypatch, kind):
    # an episode whose first base row is its first support row, so that row's
    # start and anchor lie in span Q: what is left of them outside Q is
    # rounding, and so are their coefficients on the pair read off it
    objective = _episode_problem(0, kind)
    objective.start[0] = objective.anchors[0] = objective.features[0]
    m, feats = objective.start[None], objective.features[None]
    stack = ObjectiveStack.of([objective])
    span, x, _, to_weights = trainer_mod._coordinates(stack, m, feats)
    scale = np.abs(m).max()
    assert x.shape[2] != m.shape[2] and np.abs(x[0, 0, -2:]).max() <= 1e-14 * scale
    assert np.abs(to_weights(x) - m).max() <= 1e-14 * scale
    at_anchors = x.copy()
    at_anchors[:, :stack.n_old] = span.anchors
    assert np.abs(to_weights(at_anchors)[:, :stack.n_old] - stack.anchors).max() <= 1e-14 * scale
    weight_run, span_run = _both_bodies(monkeypatch, lambda: fine_tune_stack(
        [objective], [np.random.default_rng(10)]), m.shape[2])
    _close_runs(weight_run[0], span_run[0])


@pytest.mark.parametrize("span", [False, True])
@pytest.mark.parametrize("kind", ["finetune", "subspace", "semantic"])
def test_one_pass_loss_terms_match_two_pass_sums(kind, span):
    # each term of a three-member stack, in either coordinates, against sums
    # over its weights taken the long way: form every product, then sum
    n = 20
    d = 4 * _width(n, 2, kind == "subspace", kind == "semantic")
    objectives = [_stack_problem(n=n, seed=s, kind=kind, d=d) for s in (3, 4, 5)]
    stack = ObjectiveStack.of(objectives)
    m = np.stack([obj.start for obj in objectives])
    feats = np.stack([obj.features for obj in objectives])
    label_pos = np.stack([obj.label_pos for obj in objectives])
    coordinates = trainer_mod._coordinates if span else _weight_body
    coords, x, rows, to_weights = coordinates(stack, m, feats)
    assert (x.shape[2] != d) == span
    x = x + 0.1 * np.random.default_rng(0).standard_normal(x.shape)
    k = stack.n_old
    if span:  # a novel row's s, t stay 0 wherever SGD takes it (see below), and
        x[:, k:, -2:] = 0.0  # so does t of an old row that starts at its anchor
        x[:, :k, -1] = 0.0
    terms = coords.evaluate(x, rows, label_pos)

    w = to_weights(x)
    logits = feats @ w.transpose(0, 2, 1)
    top = logits.max(axis=2, keepdims=True)
    log_z = np.log(np.exp(logits - top).sum(axis=2)) + top[..., 0]
    picked = np.take_along_axis(logits, label_pos[..., None], axis=2)[..., 0]
    novel = w[:, k:]
    if kind == "subspace":
        p = stack.projection[0]
        resid = novel - novel @ p @ p.T
    else:
        resid = novel - (stack.targets if kind == "semantic" else novel)
    expected = {
        "data_loss": (log_z - picked).sum(axis=1) / n,
        "r_prior": (w * w).sum(axis=(1, 2)),
        "r_old": (stack.betas * ((w[:, :k] - stack.anchors) ** 2).sum(axis=2)).sum(axis=1),
        "r_new": (resid * resid).sum(axis=(1, 2)),
    }
    for name, want in expected.items():
        np.testing.assert_allclose(getattr(terms, name), want, rtol=1e-13, atol=0, err_msg=name)
    assert (expected["r_new"] > 0).all() == (kind != "finetune")


@pytest.mark.parametrize("span", [False, True])
@pytest.mark.parametrize("kind", _KINDS)
def test_one_step_is_a_step_along_the_gradient(kind, span):
    # one in-place step of a three-member stack, in either coordinates, lands
    # within rounding of m - lr * gradient, and reports the terms at m
    n = 20
    d = 4 * _width(n, 2, kind == "subspace", kind in FIXED_TARGET_KINDS)
    objectives = [_stack_problem(n=n, seed=s, kind=kind, d=d) for s in (3, 4, 5)]
    stack = ObjectiveStack.of(objectives)
    m = np.stack([obj.start for obj in objectives])
    feats = np.stack([obj.features for obj in objectives])
    label_pos = np.stack([obj.label_pos for obj in objectives])
    coordinates = trainer_mod._coordinates if span else _weight_body
    coords, x, rows, _ = coordinates(stack, m, feats)
    assert (x.shape[2] != d) == span
    x = x + 0.1 * np.random.default_rng(0).standard_normal(x.shape)  # old rows off their anchors
    if span:
        x[:, stack.n_old:, -2:] = 0.0
    terms = coords.evaluate(x, rows, label_pos)
    stepped = x.copy()
    step_terms = coords.step(stepped, rows, label_pos)

    for name in ("data_loss", "r_prior", "r_old", "r_new", "total"):
        np.testing.assert_array_equal(getattr(step_terms, name), getattr(terms, name))
    want = x - stack.config.learning_rate * terms.gradient_matrix
    assert np.abs(stepped - x).max() > 1e-3
    assert np.abs(stepped - want).max() <= 1e-15 * np.abs(x).max()


@pytest.mark.parametrize("memory", [False, True])
@pytest.mark.parametrize("kind", ["subspace", "semantic", "linmap"])
def test_novel_rows_keep_zero_outside_parts_in_span_coordinates(monkeypatch, kind, memory):
    # a novel row's s and t start at 0, and every part of its step (features,
    # targets, P) has zero s, t entries, so they stay exactly 0
    run, _ = _three_sessions(monkeypatch, kind, memory, dimension=64)
    step, outside = ObjectiveStack.step, []

    def spy(self, m, feats, label_pos):
        k = self.n_old
        assert m.shape[2] != 64 and not feats[..., -2:].any()
        terms = step(self, m, feats, label_pos)
        outside.append(m[:, k:, -2:].copy())
        return terms

    monkeypatch.setattr(ObjectiveStack, "step", spy)
    run()
    assert len(outside) > 100
    assert not np.concatenate([o.ravel() for o in outside]).any()


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
@pytest.mark.parametrize("kind", _KINDS)
def test_span_stack_with_a_diverging_member_matches_weight_coordinates(monkeypatch, kind):
    d = 4 * _width(100, 2, kind == "subspace", kind in FIXED_TARGET_KINDS)
    objectives = [_stack_problem(seed=s, kind=kind, d=d, data_scale=1e155 if s == 4 else None)
                  for s in (3, 4, 5)]
    weight_runs, span_runs = _both_bodies(monkeypatch, lambda: fine_tune_stack(
        objectives, [np.random.default_rng(10 + i) for i in range(3)]), d)
    assert [isinstance(r, DivergenceError) for r in weight_runs] == [False, True, False]
    for a, b in zip(weight_runs, span_runs):
        _close_runs(a, b)


@pytest.mark.parametrize("n_rows, n_novel, projected, targets, dimension, span", [
    # sessions fine-tunes: 5-way 5-shot at d=640 for finetune, subspace and
    # the target kinds, and with memory (60 base rows plus 5 per later session)
    (25, 5, False, False, 640, True),
    (25, 5, True, False, 640, True),
    (25, 5, False, True, 640, True),
    (85, 5, False, False, 640, True),
    (120, 5, False, False, 640, True),
    # train_base: sessions (60 classes x 10 rows at d=640), episodic (20 x 25 at d=32)
    (600, 60, False, False, 640, False),
    (500, 20, False, False, 32, False),
    # episodic fine-tunes: 5-way 1-shot at d=32, finetune and subspace
    (5, 5, False, False, 32, True),
    (5, 5, True, False, 32, True),
])
def test_span_rule_at_the_bench_shapes(n_rows, n_novel, projected, targets, dimension, span):
    # the trainer's pick, read off the width of its coordinates: a fine-tune
    # (20 old rows stand in for the 20 or 60 base rows) or a base fit
    rng = np.random.default_rng(0)
    n_old = 0 if n_novel > 5 else 20
    stack = ObjectiveStack(RunConfig(), np.zeros((1, n_old, dimension)), np.ones((1, n_old)),
                           np.eye(dimension)[None, :, :n_old] if projected else None,
                           rng.standard_normal((1, n_novel, dimension)) if targets else None)
    m = rng.standard_normal((1, n_old + n_novel, dimension))
    x = trainer_mod._coordinates(stack, m, rng.standard_normal((1, n_rows, dimension)))[1]
    assert (x.shape[2] != dimension) is span
