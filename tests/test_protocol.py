import dataclasses
import os
import threading
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

import incrlin.pool as pool_mod
import incrlin.protocol as protocol_mod
import incrlin.trainer as trainer_mod
from incrlin.datamodel import (
    Batch,
    ClassRegistry,
    EmbeddingTable,
    RunConfig,
    SessionStream,
    WeightMatrix,
)
from incrlin.errors import (
    ConfigError,
    DivergenceError,
    EngineError,
    MissingEmbeddingError,
    MissingExampleError,
    ValidationError,
)
from incrlin.protocol import (
    _count_confusion,
    delta_metric,
    predict,
    prepare_run,
    run_multi_session,
    run_single_session,
    sample_episode,
    weighted_accuracy,
)
from incrlin.synth import SynthSpec, generate, incremental_split
from incrlin.trainer import train_base

from conftest import pools_store, recency_fraction


# --- prediction and confusion ----------------------------------------------------

def test_predict_ties_break_to_lowest_class_id():
    w = WeightMatrix([4, 7, 2], np.zeros((3, 3)))
    preds = predict(w, np.ones((2, 3)), [4, 7, 2])
    np.testing.assert_array_equal(preds, [2, 2])


def test_predict_invariant_to_positive_logit_rescaling():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((5, 6))
    feats = rng.standard_normal((40, 6))
    a = predict(WeightMatrix(range(5), m), feats, range(5))
    b = predict(WeightMatrix(range(5), 3.7 * m), feats, range(5))
    np.testing.assert_array_equal(a, b)


def test_predict_names_the_classes_without_a_weight_row():
    with pytest.raises(ValidationError, match=r"classes \[2\] have no weight row"):
        predict(WeightMatrix([0, 1], np.eye(2)), np.ones((1, 2)), [0, 2])


def _confusion(weights, batch, order):
    return _count_confusion(batch.class_ids, predict(weights, batch.features, order), order)


def test_confusion_perfect_classifier_is_diagonal():
    w = WeightMatrix([0, 1, 2], 10.0 * np.eye(3))
    batch = Batch(np.eye(3), np.array([0, 1, 2]))
    conf = _confusion(w, batch, [0, 1, 2])
    np.testing.assert_array_equal(conf.counts, np.eye(3, dtype=int))


def test_confusion_constant_predictor_single_column():
    m = np.zeros((3, 2))
    m[1] = [5.0, 5.0]
    w = WeightMatrix([0, 1, 2], m)
    batch = Batch(np.abs(np.random.default_rng(1).standard_normal((9, 2))),
                  np.array([0, 0, 0, 1, 1, 1, 2, 2, 2]))
    conf = _confusion(w, batch, [0, 1, 2])
    assert conf.counts[:, 1].sum() == 9
    assert conf.counts[:, 0].sum() == conf.counts[:, 2].sum() == 0


def test_confusion_row_sums_and_total():
    rng = np.random.default_rng(2)
    w = WeightMatrix([0, 1], rng.standard_normal((2, 3)))
    labels = np.array([0] * 7 + [1] * 5)
    batch = Batch(rng.standard_normal((12, 3)), labels)
    conf = _confusion(w, batch, [0, 1])
    np.testing.assert_array_equal(conf.counts.sum(axis=1), [7, 5])
    assert conf.counts.sum() == 12


def test_recency_fraction_matches_direct_count():
    rng = np.random.default_rng(3)
    w = WeightMatrix(range(6), rng.standard_normal((6, 4)))
    batch = Batch(rng.standard_normal((50, 4)), rng.integers(0, 6, size=50))
    conf = _confusion(w, batch, list(range(6)))
    recent = [4, 5]
    preds = predict(w, batch.features, range(6))
    direct = float(np.isin(preds, recent).mean())
    assert recency_fraction(conf, recent) == pytest.approx(direct, abs=1e-12)


# --- metrics -----------------------------------------------------------------------

def test_weighted_accuracy_hand_example():
    assert weighted_accuracy(80.0, 50.0, 60, 5) == pytest.approx(77.6923, abs=1e-3)


def test_weighted_accuracy_bounds_and_degenerate():
    rng = np.random.default_rng(4)
    for _ in range(50):
        a, b = rng.uniform(0, 100, size=2)
        nb, nn = int(rng.integers(1, 50)), int(rng.integers(1, 50))
        w = weighted_accuracy(a, b, nb, nn)
        assert min(a, b) - 1e-9 <= w <= max(a, b) + 1e-9
    assert weighted_accuracy(66.0, None, 10, 0) == 66.0


def test_delta_metric_hand_example():
    assert delta_metric(80.0, 90.0, 60.0, 70.0) == -10.0


# --- episode sampling ----------------------------------------------------------------

def _episode_stores(seed=0, n_base=6, n_novel=8, d=4, support=6, query=5):
    rng = np.random.default_rng(seed)
    def mk(classes):
        sup = {c: rng.standard_normal((support, d)) for c in classes}
        qry = {c: rng.standard_normal((query, d)) for c in classes}
        return pools_store(d, sup, qry)
    return mk(range(n_base)), mk(range(100, 100 + n_novel))


def test_sample_episode_shapes_one_shot_five_way():
    base, novel = _episode_stores()
    ep = sample_episode(base, novel, n_way=5, k_shot=1, n_query=30,
                        rng=np.random.default_rng(5))
    assert len(ep.support) == 5
    assert len(ep.novel_classes) == 5
    assert len(ep.query) == 30
    assert len(set(ep.support.class_ids.tolist())) == 5


def test_sample_episode_deterministic_under_seed():
    base, novel = _episode_stores()
    e1 = sample_episode(base, novel, 5, 2, 20, np.random.default_rng(9))
    e2 = sample_episode(base, novel, 5, 2, 20, np.random.default_rng(9))
    assert e1.novel_classes == e2.novel_classes
    np.testing.assert_array_equal(e1.query.features, e2.query.features)
    np.testing.assert_array_equal(e1.query.class_ids, e2.query.class_ids)
    np.testing.assert_array_equal(e1.support.class_ids, e2.support.class_ids)
    np.testing.assert_array_equal(e1.support.features, e2.support.features)


def test_sample_episode_insufficient_examples():
    base, novel = _episode_stores(n_novel=3)
    with pytest.raises(MissingExampleError):
        sample_episode(base, novel, n_way=5, k_shot=1, n_query=10,
                       rng=np.random.default_rng(0))
    base2, novel2 = _episode_stores(support=2)
    with pytest.raises(MissingExampleError):
        sample_episode(base2, novel2, n_way=5, k_shot=3, n_query=10,
                       rng=np.random.default_rng(0))


def test_sample_episode_names_a_short_support_pool():
    # class 100 has one support row: with k_shot=2 it fails only the episodes
    # that draw it, until fewer than n_way classes have k_shot rows
    base, novel = _episode_stores(n_novel=3, support=3)
    short = pools_store(novel.dimension,
                        {c: novel.support(c)[:1 if c == 100 else 3] for c in novel.classes},
                        {c: novel.query(c) for c in novel.classes})
    failures = []
    for seed in range(8):
        try:
            sample_episode(base, short, n_way=2, k_shot=2, n_query=10,
                           rng=np.random.default_rng(seed))
        except MissingExampleError as err:
            failures.append(str(err))
    assert 0 < len(failures) < 8
    assert set(failures) == {"class 100 has 1 support examples, need k_shot=2"}
    with pytest.raises(MissingExampleError, match="^novel pool has 2 classes with k_shot=2 "
                                                  "support examples, need n_way=3$"):
        sample_episode(base, short, n_way=3, k_shot=2, n_query=10, rng=np.random.default_rng(0))


def test_query_groups_balanced_over_many_episodes():
    # base-group and novel-group query totals agree within 3%
    base, novel = _episode_stores()
    rng = np.random.default_rng(11)
    base_total = 0
    novel_total = 0
    for _ in range(2000):
        ep = sample_episode(base, novel, 5, 1, 20, rng)
        is_base = ep.query.class_ids < 100
        base_total += int(is_base.sum())
        novel_total += int((~is_base).sum())
    assert abs(base_total - novel_total) / (base_total + novel_total) < 0.03


# --- multi-session runner ---------------------------------------------------------------

def _bench_setup(seed=0, kind="finetune", memory=False):
    data = generate(SynthSpec(n_classes=20, dimension=8, rng_seed=seed,
                              support_per_class=8, query_per_class=6))
    registry = ClassRegistry(incremental_split(20, 8, 3))  # 8 base + 4 sessions x 3
    cfg = RunConfig(regularizer_kind=kind, alpha=1e-3, learning_rate=0.05,
                    max_epochs=60, rng_seed=seed, memory_enabled=memory)
    stream = SessionStream(data.store, registry, cfg, embeddings=data.embeddings, k_shot=5)
    return data, registry, cfg, stream


def test_run_multi_session_shapes_and_session_zero():
    data, registry, cfg, stream = _bench_setup()
    base_cfg = dataclasses.replace(cfg, regularizer_kind="finetune")
    bw, _ = train_base(data.store.restrict(registry.base_classes),
                       registry.base_classes, base_cfg)
    results = run_multi_session(stream, base_weights=bw)
    assert len(results) == registry.n_sessions
    assert results[0].acc_novel is None
    assert results[0].acc_weighted == results[0].acc_base
    for t, r in enumerate(results):
        assert r.session == t
        assert r.confusion.counts.shape == (len(registry.classes_up_to(t)),) * 2
        assert r.confusion.counts.sum() == r.n_query
        if t >= 1:
            assert 0.0 <= r.acc_novel <= 100.0
            assert min(r.acc_base, r.acc_novel) - 1e-9 <= r.acc_weighted


def test_run_multi_session_prefix_independence():
    # truncating the stream to fewer sessions leaves earlier results identical
    data, registry, cfg, stream = _bench_setup(seed=3)
    bw, _ = train_base(data.store.restrict(registry.base_classes),
                       registry.base_classes, cfg)
    full = run_multi_session(stream, base_weights=bw)
    short_registry = ClassRegistry([registry.classes_in(t) for t in range(3)])
    short_stream = SessionStream(data.store, short_registry, cfg,
                                 embeddings=data.embeddings, k_shot=5)
    short = run_multi_session(short_stream, base_weights=bw)
    for a, b in zip(short, full[:3]):
        assert a.acc_weighted == b.acc_weighted
        assert a.acc_base == b.acc_base
        np.testing.assert_array_equal(a.confusion.counts, b.confusion.counts)


def _record_memory(monkeypatch) -> list:
    """Every memory buffer ``run_multi_session`` builds, in order."""
    buffers = []
    real = protocol_mod.update_memory

    def recording(*args, **kwargs):
        buffers.append(real(*args, **kwargs))
        return buffers[-1]

    monkeypatch.setattr(protocol_mod, "update_memory", recording)
    return buffers


def test_run_multi_session_memory_buffer_grows_per_session(monkeypatch):
    data, registry, cfg, stream = _bench_setup(kind="finetune", memory=True)
    bw, _ = train_base(data.store.restrict(registry.base_classes),
                       registry.base_classes, cfg)
    buffers = _record_memory(monkeypatch)
    run_multi_session(stream, base_weights=bw)
    # after running all 4 incremental sessions the buffer archives sessions 0..3
    expected = sum(len(registry.classes_in(t)) for t in range(registry.n_sessions - 1))
    assert len(buffers[-1]) == expected


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
def test_run_multi_session_raises_a_session_divergence():
    # base weights fitted at a sane rate; session 1's fine-tune at lr * 2 * alpha >> 1
    data, registry, cfg, _ = _bench_setup()
    bw, _ = train_base(data.store.restrict(registry.base_classes), registry.base_classes, cfg)
    stream = SessionStream(data.store, registry,
                           dataclasses.replace(cfg, alpha=1.0, learning_rate=1e6), k_shot=5)
    with pytest.raises(DivergenceError, match=r"^non-finite loss at epoch \d+ "
                                              r"\(lr=1000000\.0\); reduce the learning rate$"):
        run_multi_session(stream, base_weights=bw)


def test_run_multi_session_semantic_requires_embeddings():
    data, registry, cfg, _ = _bench_setup(kind="semantic")
    stream = SessionStream(data.store, registry,
                           dataclasses.replace(cfg, regularizer_kind="semantic"),
                           embeddings=None, k_shot=5)
    bw, _ = train_base(data.store.restrict(registry.base_classes),
                       registry.base_classes, cfg)
    with pytest.raises(ConfigError):
        run_multi_session(stream, base_weights=bw)


def test_run_multi_session_base_weight_coverage_checked():
    data, registry, cfg, stream = _bench_setup()
    bw = WeightMatrix([0, 1], np.ones((2, 8)))  # misses most base classes
    with pytest.raises(ValidationError):
        run_multi_session(stream, base_weights=bw)


def test_run_multi_session_protocol_shape_sixty_plus_eight_fives():
    # 60 base classes + 8 sessions of 5: the final session evaluates over all 100
    data = generate(SynthSpec(n_classes=100, dimension=8, rng_seed=1,
                              support_per_class=6, query_per_class=2))
    registry = ClassRegistry(incremental_split(100, 60, 5))
    cfg = RunConfig(regularizer_kind="finetune", alpha=1e-3, learning_rate=0.05,
                    max_epochs=30, rng_seed=1)
    stream = SessionStream(data.store, registry, cfg, k_shot=5)
    bw, _ = train_base(data.store.restrict(registry.base_classes),
                       registry.base_classes, cfg)
    results = run_multi_session(stream, base_weights=bw, collect_confusion=False)
    assert len(results) == 9
    assert len(registry.classes_up_to(8)) == 100
    assert results[8].n_query == 100 * 2
    assert set(results[8].per_class_accuracy) == set(range(100))


def test_run_multi_session_tolerates_empty_session(monkeypatch):
    data = generate(SynthSpec(n_classes=12, dimension=6, rng_seed=2,
                              support_per_class=6, query_per_class=3))
    registry = ClassRegistry([tuple(range(8)), (), (8, 9, 10, 11)])
    cfg = RunConfig(regularizer_kind="finetune", alpha=1e-3, learning_rate=0.05,
                    max_epochs=30, rng_seed=2, memory_enabled=True)
    stream = SessionStream(data.store, registry, cfg, k_shot=3)
    bw, _ = train_base(data.store.restrict(registry.base_classes),
                       registry.base_classes, cfg)
    buffers = _record_memory(monkeypatch)
    results = run_multi_session(stream, base_weights=bw)
    assert len(results) == 3
    assert results[1].acc_weighted == results[1].acc_base  # nothing novel yet
    assert len(buffers[-1]) == 8  # base archived once, empty session skipped


def test_run_multi_session_anchors_each_class_to_its_introducing_session(monkeypatch):
    # every old row is anchored, bit for bit, to its weights at the end of the
    # session that introduced it (base rows to the base weights), through an
    # empty session and with memory replay; the anchor table is read-only
    data = generate(SynthSpec(n_classes=17, dimension=6, rng_seed=4,
                              support_per_class=6, query_per_class=3))
    registry = ClassRegistry([tuple(range(8)), (8, 9, 10), (), (11, 12, 13), (14, 15, 16)])
    cfg = RunConfig(regularizer_kind="finetune", alpha=1e-3, learning_rate=0.05,
                    max_epochs=30, rng_seed=4, memory_enabled=True)
    stream = SessionStream(data.store, registry, cfg, k_shot=3)
    bw, _ = train_base(data.store.restrict(registry.base_classes),
                       registry.base_classes, cfg)
    anchors_of = {}
    real = protocol_mod.Objective

    def recording(config, reg, session, start, data, anchors, **kwargs):
        anchors_of[session] = anchors
        return real(config, reg, session, start, data, anchors, **kwargs)

    monkeypatch.setattr(protocol_mod, "Objective", recording)
    weights_at = {}
    run_multi_session(stream, base_weights=bw,
                      on_session_end=lambda t, w: weights_at.__setitem__(t, w))
    assert sorted(anchors_of) == [1, 3, 4]  # the empty session trains nothing
    for t, anchors in anchors_of.items():
        old = registry.classes_up_to(t - 1)
        assert sorted(anchors.class_ids) == list(old)
        for c in old:
            introduced = weights_at[registry.session_of(c)]
            assert anchors.row(c).tobytes() == introduced.row(c).tobytes()
        with pytest.raises(ValueError):
            anchors.matrix[0, 0] = 1.0
    for c in registry.base_classes:
        assert anchors_of[4].row(c).tobytes() == bw.row(c).tobytes()
    # later sessions move the old rows, so the latest weights are no anchor
    assert any(weights_at[3].row(c).tobytes() != weights_at[1].row(c).tobytes()
               for c in registry.classes_in(1))


def test_run_multi_session_all_regularizer_kinds_run():
    for kind in ("subspace", "semantic", "linmap", "description"):
        data, registry, cfg, stream = _bench_setup(kind=kind)
        bw, _ = train_base(data.store.restrict(registry.base_classes),
                           registry.base_classes, cfg)
        results = run_multi_session(stream, base_weights=bw)
        assert len(results) == registry.n_sessions


# --- single-session runner ----------------------------------------------------------------

# 10 base classes (0-9) and a novel pool of 6 (10-15), d=8
_SINGLE_PLAN = (tuple(range(10)), tuple(range(10, 16)))


def _single_setup(seed=0):
    data = generate(SynthSpec(n_classes=16, dimension=8, rng_seed=seed,
                              support_per_class=8, query_per_class=6))
    cfg = RunConfig(regularizer_kind="finetune", alpha=1e-3, learning_rate=0.05,
                    max_epochs=40, rng_seed=7)
    bw, _ = train_base(data.store.restrict(_SINGLE_PLAN[0]), _SINGLE_PLAN[0], cfg)
    return bw, cfg, data


def _single_stream(data, cfg, k_shot=1, embeddings=None, plan=_SINGLE_PLAN, store=None):
    return SessionStream(data.store if store is None else store, ClassRegistry(plan), cfg,
                         embeddings=embeddings, k_shot=k_shot)


def _episode_stream(episode, base_ids, cfg):
    """A stream whose store holds the episode's queries and whose plan is the
    episode's: its base classes, then its novel classes."""
    q = episode.query
    store = pools_store(q.dimension, {},
                        {c: q.features[q.class_ids == c] for c in np.unique(q.class_ids).tolist()})
    return SessionStream(store, ClassRegistry([base_ids, episode.novel_classes]), cfg)


def _run_crafted(monkeypatch, episode, base_ids, weights, cfg):
    """The outcome of ``episode`` run as episode 0 of a one-episode chunk."""
    stream = _episode_stream(episode, base_ids, cfg)
    setup = prepare_run(stream, weights, np.random.default_rng(0))
    monkeypatch.setattr(protocol_mod, "sample_episode", lambda *a, **k: episode)
    [result] = protocol_mod._episode_chunk(setup, stream.store, stream.store,
                                           len(episode.novel_classes), 1, len(episode.query), 0, 1)
    return result


def test_run_episode_perfect_classifier_has_zero_delta(monkeypatch):
    # crafted episode where every query is its own class's indicator vector
    base_ids = [0, 1]
    w = WeightMatrix(base_ids, 10 * np.eye(2, 4))
    support = Batch(np.array([[0.0, 0.0, 1.0, 0.0]]), np.array([5]))
    query = Batch(np.eye(4)[[0, 1, 2]], np.array([0, 1, 5]))
    episode = protocol_mod.Episode((5,), support, query)
    cfg = RunConfig(regularizer_kind="finetune", alpha=0.0, beta_base=0.0,
                    learning_rate=0.1, max_epochs=30, rng_seed=0)
    result = _run_crafted(monkeypatch, episode, base_ids, w, cfg)
    assert result.acc_base_joint == 100.0
    assert result.acc_novel_joint == 100.0
    assert result.delta == 0.0


def test_degenerate_one_class_dominance_pattern(monkeypatch):
    # every query feature lies along class 5's support direction, so the
    # imprinted class-5 row wins every argmax: an always-one-class classifier.
    # joint novel accuracy then equals 1/n_way (only class 5's queries right).
    base_ids = [0, 1]
    w = WeightMatrix(base_ids, np.eye(2, 4))
    support = Batch(np.eye(4)[[2, 3]], np.array([5, 6]))
    feats = np.array([
        [0.1, 0.0, 1.0, 0.0],   # base 0 query
        [0.0, 0.1, 1.0, 0.0],   # base 1 query
        [0.0, 0.0, 1.0, 0.0],   # novel 5 query
        [0.0, 0.0, 1.0, 0.05],  # novel 6 query, still captured by row 5
    ])
    query = Batch(feats, np.array([0, 1, 5, 6]))
    episode = protocol_mod.Episode((5, 6), support, query)
    cfg = RunConfig(regularizer_kind="finetune", alpha=0.0, beta_base=0.0,
                    learning_rate=0.0, max_epochs=1, rng_seed=0)  # imprint only
    result = _run_crafted(monkeypatch, episode, base_ids, w, cfg)
    n_way = 2
    assert result.acc_novel_joint == pytest.approx(100.0 / n_way)
    assert result.acc_novel_individual == pytest.approx(100.0 / n_way)
    assert result.acc_base_joint == pytest.approx(0.0)
    assert result.acc_base_individual == pytest.approx(100.0)
    assert result.delta == pytest.approx(-50.0)


@pytest.mark.parametrize("query_ids", [(0, 1), (5,)], ids=["base-only", "novel-only"])
def test_episode_whose_query_misses_a_group_fails_alone(monkeypatch, query_ids):
    base_ids = [0, 1]
    full = protocol_mod.Episode((5,), Batch(np.eye(4)[[2]], np.array([5])),
                                Batch(np.eye(4)[[0, 1, 2]], np.array([0, 1, 5])))
    keep = np.isin(full.query.class_ids, query_ids)
    episode = protocol_mod.Episode(full.novel_classes, full.support,
                                   Batch(full.query.features[keep], full.query.class_ids[keep]))
    cfg = RunConfig(regularizer_kind="finetune", learning_rate=0.0, max_epochs=1, rng_seed=0)
    stream = _episode_stream(full, base_ids, cfg)
    setup = prepare_run(stream, WeightMatrix(base_ids, np.eye(2, 4)), np.random.default_rng(0))
    monkeypatch.setattr(protocol_mod, "sample_episode", lambda *a, **k: episode)
    [outcome] = protocol_mod._episode_chunk(setup, stream.store, stream.store, 1, 1,
                                            len(episode.query), 0, 1)
    assert isinstance(outcome, MissingExampleError)
    assert str(outcome) == "episode query set misses one of the groups"


def test_run_single_session_deterministic():
    bw, cfg, data = _single_setup()
    kw = dict(n_episodes=12, n_way=3, n_query=16)
    r1 = run_single_session(_single_stream(data, cfg, k_shot=1), bw, **kw)
    r2 = run_single_session(_single_stream(data, cfg, k_shot=1), bw, **kw)
    assert r1.as_dict() == r2.as_dict()
    assert r1.acc.n == 12 and r1.n_failed == 0


def test_run_single_session_rejects_partial_base_weights():
    # base queries of classes without a weight row would be scored as novel
    bw, cfg, data = _single_setup()
    partial = WeightMatrix(range(5), bw.subset(range(5)))
    with pytest.raises(ValidationError, match=r"\[5, 6, 7, 8, 9\]"):
        run_single_session(_single_stream(data, cfg), partial, n_episodes=2)


@pytest.mark.parametrize("shape, error, named", [
    (dict(n_way=7), MissingExampleError, "n_way=7"),
    (dict(n_way=0), ValidationError, "n_way must be >= 1, got 0"),
    (dict(k_shot=0), ValidationError, "k_shot must be >= 1, got 0"),
    (dict(n_query=0), ValidationError, "n_query must be >= 1, got 0"),
])
def test_run_single_session_checks_episode_shape_first(monkeypatch, shape, error, named):
    # a 6-class novel pool; a bad size is a config fault, not a failed episode
    bw, cfg, data = _single_setup()
    monkeypatch.setattr(protocol_mod, "sample_episode",
                        lambda *a, **k: pytest.fail("an episode was sampled"))
    kw = {**dict(n_episodes=3, n_way=3, k_shot=1, n_query=8), **shape}
    with pytest.raises(error, match=named):
        run_single_session(_single_stream(data, cfg, k_shot=kw.pop("k_shot")), bw, **kw)


def _is_episode(rng, seed, index):
    """Whether ``rng``, still undrawn, is the sampling stream of episode
    ``index`` of a run at ``seed``: episodes are told apart by their streams,
    since the episodes of a run may be sampled in several processes."""
    own = np.random.default_rng(np.random.SeedSequence((seed, index)).spawn(2)[0])
    return rng.bit_generator.state == own.bit_generator.state


def test_run_single_session_counts_failed_episodes(monkeypatch):
    bw, cfg, data = _single_setup()

    def flaky(*args, rng, **kwargs):
        if _is_episode(rng, cfg.rng_seed, 2):
            raise MissingExampleError("synthetic failure")
        return sample_episode(*args, rng=rng, **kwargs)

    monkeypatch.setattr(protocol_mod, "sample_episode", flaky)
    result = run_single_session(_single_stream(data, cfg, k_shot=1), bw,
                                n_episodes=6, n_way=3, n_query=12)
    assert result.n_failed == 1
    assert result.acc.n == 5


def _diverging_at(index, seed):
    """``sample_episode`` whose episode number ``index`` (counting from 0) of
    a run at ``seed`` has support features scaled until its training loss
    overflows."""

    def sample(*args, rng, **kwargs):
        diverging = _is_episode(rng, seed, index)
        episode = sample_episode(*args, rng=rng, **kwargs)
        if not diverging:
            return episode
        support = Batch(episode.support.features * 1e155, episode.support.class_ids)
        return protocol_mod.Episode(episode.novel_classes, support, episode.query)

    return sample


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
@pytest.mark.parametrize("kind, mini_batch", [
    ("finetune", None), ("subspace", None), ("semantic", None), ("subspace", 2)])
def test_run_single_session_does_not_depend_on_chunk_size(monkeypatch, kind, mini_batch):
    # chunks of one, of three and of every episode, on one, two and three
    # workers, give the same result, with the middle episode diverging; a
    # MINI_BATCH of 2 below the 3 support rows sends every member through its
    # own shuffled blocks
    bw, cfg, data = _single_setup()
    cfg = dataclasses.replace(cfg, regularizer_kind=kind, gamma=0.1, tau=0.5)
    if mini_batch is not None:
        monkeypatch.setattr(trainer_mod, "MINI_BATCH", mini_batch)
    monkeypatch.setattr(protocol_mod, "sample_episode", _diverging_at(3, cfg.rng_seed))

    def run(chunk, workers):
        # a budget of ``chunk`` episodes of 10 base + 3 novel rows at d=8
        monkeypatch.setattr(protocol_mod, "EPISODE_BUDGET", chunk * 13 * 8)
        monkeypatch.setattr(pool_mod, "cpus", lambda: workers)
        result = run_single_session(_single_stream(data, cfg, k_shot=1,
                                                   embeddings=data.embeddings),
                                    bw, n_episodes=7, n_way=3, n_query=12, keep_episodes=True)
        return result.as_dict()

    one, three, every = run(1, 1), run(3, 1), run(8, 1)
    assert one["n_failed"] == 1 and len(one["episodes"]) == 6
    assert one == three == every
    for workers in (2, 3):
        assert run(1, workers) == run(3, workers) == run(8, workers) == one


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("chunk", [1, 2, 8])
def test_an_all_failed_run_names_the_failure_of_its_first_episode(monkeypatch, chunk, workers):
    # episode 0 diverges and episode 1 draws too few support rows: whatever
    # the chunks and workers, the error names episode 0's divergence
    bw, cfg, data = _single_setup()
    diverging = _diverging_at(0, cfg.rng_seed)

    def sample(*args, rng, **kwargs):
        if _is_episode(rng, cfg.rng_seed, 1):
            raise MissingExampleError("synthetic shortfall")
        return diverging(*args, rng=rng, **kwargs)

    monkeypatch.setattr(protocol_mod, "sample_episode", sample)
    monkeypatch.setattr(protocol_mod, "EPISODE_BUDGET", chunk * 13 * 8)
    monkeypatch.setattr(pool_mod, "cpus", lambda: workers)
    with pytest.raises(EngineError, match="all 2 episodes failed; the first with DivergenceError"):
        run_single_session(_single_stream(data, cfg), bw, n_episodes=2, n_way=3, n_query=12)


def test_a_dead_worker_fails_the_run(monkeypatch):
    # a worker killed mid-run (here it exits on episode 3) raises in the
    # parent instead of leaving the run waiting for its chunk
    bw, cfg, data = _single_setup()
    parent = os.getpid()

    def dying(*args, rng, **kwargs):
        if os.getpid() == parent:
            pytest.fail("an episode ran in the test process")
        if _is_episode(rng, cfg.rng_seed, 3):
            os._exit(1)
        return sample_episode(*args, rng=rng, **kwargs)

    monkeypatch.setattr(protocol_mod, "sample_episode", dying)
    monkeypatch.setattr(pool_mod, "cpus", lambda: 2)
    with pytest.raises(BrokenProcessPool):
        run_single_session(_single_stream(data, cfg), bw, n_episodes=6, n_way=3, n_query=12)


def test_a_process_with_threads_is_not_forked(monkeypatch):
    # with another thread alive, every episode is sampled in this process
    bw, cfg, data = _single_setup()
    parent, pids = os.getpid(), set()

    def recording(*args, **kwargs):
        pids.add(os.getpid())
        return sample_episode(*args, **kwargs)

    monkeypatch.setattr(protocol_mod, "sample_episode", recording)
    monkeypatch.setattr(pool_mod, "cpus", lambda: 2)
    done = threading.Event()
    waiter = threading.Thread(target=done.wait, args=(30,))
    waiter.start()
    try:
        result = run_single_session(_single_stream(data, cfg), bw, n_episodes=6, n_way=3,
                                    n_query=12)
    finally:
        done.set()
        waiter.join(30)
    assert not waiter.is_alive()
    assert result.acc.n == 6
    assert pids == {parent}


@pytest.mark.parametrize("n_episodes, sizes", [
    (40, [20] * 2), (200, [34] * 5 + [30]), (2000, [40] * 50)])
def test_episode_stacks_are_even_within_the_budget(monkeypatch, n_episodes, sizes):
    # on 2 CPUs at a budget of 40 episodes, each CPU's share is cut into the
    # fewest even stacks: 200 episodes make six stacks of <= 34, not five of 40
    bw, cfg, data = _single_setup()
    bounds = []

    def recording(*args):
        start, stop = args[-2:]
        bounds.append((start, stop))
        return [protocol_mod.EpisodeResult(50.0, 50.0, 50.0, 50.0, 50.0, 0.0)] * (stop - start)

    monkeypatch.setattr(protocol_mod, "_episode_chunk", recording)
    monkeypatch.setattr(protocol_mod, "EPISODE_BUDGET", 40 * 13 * 8)  # 10 base + 3 novel, d=8
    monkeypatch.setattr(pool_mod, "cpus", lambda: 2)
    # a live thread keeps the stacks in this process, where they are recorded
    done = threading.Event()
    waiter = threading.Thread(target=done.wait, args=(30,))
    waiter.start()
    try:
        result = run_single_session(_single_stream(data, cfg), bw, n_episodes=n_episodes,
                                    n_way=3, n_query=12)
    finally:
        done.set()
        waiter.join(30)
    assert not waiter.is_alive()
    assert [stop - start for start, stop in bounds] == sizes
    assert [start for start, _ in bounds] == [sum(sizes[:i]) for i in range(len(sizes))]
    assert result.acc.n == n_episodes


@pytest.mark.parametrize("kind", ["finetune", "subspace", "semantic"])
def test_run_single_session_does_not_depend_on_where_novel_ids_sit(kind):
    # base ids 0..9 become the even ids and novel ids 10..15 the odd ids
    # 1..11, each group in its own order: the episodes train on the same
    # old-then-novel rows and give the same result
    bw, cfg, data = _single_setup()
    cfg = dataclasses.replace(cfg, regularizer_kind=kind, gamma=0.1, tau=0.5)

    def run(new_id):
        s = data.store
        store = pools_store(s.dimension, {new_id(c): s.support(c) for c in s.classes},
                            {new_id(c): s.query(c) for c in s.classes})
        plan = [[new_id(c) for c in classes] for classes in _SINGLE_PLAN]
        weights = WeightMatrix([new_id(c) for c in bw.class_ids], bw.matrix)
        embeddings = EmbeddingTable({new_id(c): data.embeddings.vector(c)
                                     for c in data.embeddings.classes})
        stream = _single_stream(data, cfg, k_shot=1, embeddings=embeddings, plan=plan,
                                store=store)
        result = run_single_session(stream, weights, n_episodes=6, n_way=3, n_query=12,
                                    keep_episodes=True)
        return result.as_dict()

    interleaved = run(lambda c: 2 * c if c < 10 else 2 * (c - 10) + 1)
    assert interleaved == run(lambda c: c)


def test_run_single_session_says_why_every_episode_failed():
    # one query per episode lands in only one of the two groups
    bw, cfg, data = _single_setup()
    with pytest.raises(EngineError, match="all 3 episodes failed.*misses one of the groups"):
        run_single_session(_single_stream(data, cfg), bw, n_episodes=3, n_way=3, n_query=1)


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
def test_run_single_session_says_how_to_stop_a_divergence():
    # lr * 2 * alpha >> 1: every episode's prior term explodes
    bw, cfg, data = _single_setup()
    stream = _single_stream(data, dataclasses.replace(cfg, alpha=1.0, learning_rate=1e6))
    with pytest.raises(EngineError, match=r"all 3 episodes failed; the first with DivergenceError: "
                                          r"non-finite loss at epoch \d+ \(lr=1000000\.0\); "
                                          r"reduce the learning rate$"):
        run_single_session(stream, bw, n_episodes=3, n_way=3, n_query=12)


def test_run_single_session_rejects_memory():
    bw, cfg, data = _single_setup()
    with pytest.raises(ConfigError):
        run_single_session(_single_stream(data, dataclasses.replace(cfg, memory_enabled=True)),
                           bw, n_episodes=2)


def test_run_single_session_semantic_needs_embeddings():
    bw, cfg, data = _single_setup()
    with pytest.raises(ConfigError):
        run_single_session(
            _single_stream(data, dataclasses.replace(cfg, regularizer_kind="semantic")), bw,
            n_episodes=2)


def _without(embeddings, class_id):
    return EmbeddingTable({c: embeddings.vector(c) for c in embeddings.classes if c != class_id})


def test_missing_embedding_raises_before_any_work():
    bw, cfg, data = _single_setup()
    for kind in ("semantic", "description", "linmap"):
        for missing in (3, 12):  # a base class, then a class of the novel pool
            with pytest.raises(MissingEmbeddingError, match=rf"\[{missing}\]"):
                stream = _single_stream(data, dataclasses.replace(cfg, regularizer_kind=kind),
                                        embeddings=_without(data.embeddings, missing))
                run_single_session(stream, bw, n_episodes=4, n_way=3)
    data, registry, cfg, _ = _bench_setup(kind="semantic")
    bw, _ = train_base(data.store.restrict(registry.base_classes),
                       registry.base_classes, cfg)
    stream = SessionStream(data.store, registry, cfg, k_shot=5,
                           embeddings=_without(data.embeddings, registry.classes_in(4)[0]))
    finished = []
    with pytest.raises(MissingEmbeddingError):
        run_multi_session(stream, base_weights=bw,
                          on_session_end=lambda t, w: finished.append(t))
    assert finished == []


def test_session_confusion_matches_public_confusion_matrix():
    data, registry, cfg, stream = _bench_setup(seed=1)
    bw, _ = train_base(data.store.restrict(registry.base_classes),
                       registry.base_classes, cfg)
    weights = {}
    results = run_multi_session(stream, base_weights=bw,
                                on_session_end=lambda t, w: weights.update({t: w}))
    for t, r in enumerate(results):
        active = registry.classes_up_to(t)
        query = stream.query_batch_up_to(t)
        direct = np.zeros((len(active), len(active)), dtype=np.int64)
        for gold, pred in zip(query.class_ids, predict(weights[t], query.features, active)):
            direct[active.index(gold), active.index(pred)] += 1
        assert r.confusion.class_ids == active
        np.testing.assert_array_equal(r.confusion.counts, direct)


def test_run_single_session_semantic_and_linmap():
    bw, cfg, data = _single_setup()
    for kind in ("semantic", "linmap"):
        stream = _single_stream(
            data, dataclasses.replace(cfg, regularizer_kind=kind, gamma=0.1, tau=0.5),
            k_shot=1, embeddings=data.embeddings)
        result = run_single_session(stream, bw, n_episodes=4, n_way=3, n_query=12)
        assert result.acc.n == 4


@pytest.mark.parametrize("kind, fit", [("semantic", "semantic_targets"),
                                       ("linmap", "fit_least_squares")])
def test_run_single_session_builds_targets_once_per_run(monkeypatch, kind, fit):
    # every novel class's target is built up front, not per episode or chunk
    bw, cfg, data = _single_setup()
    calls = []
    real = getattr(protocol_mod, fit)
    monkeypatch.setattr(protocol_mod, fit, lambda *a, **k: calls.append(1) or real(*a, **k))
    monkeypatch.setattr(protocol_mod, "EPISODE_BUDGET", 2 * 13 * 8)  # chunks of 2 episodes
    stream = _single_stream(
        data, dataclasses.replace(cfg, regularizer_kind=kind, gamma=0.1, tau=0.5),
        k_shot=1, embeddings=data.embeddings)
    result = run_single_session(stream, bw, n_episodes=5, n_way=3, n_query=12)
    assert result.acc.n == 5
    assert len(calls) == 1


def test_run_single_session_zero_temperature_fails_before_sampling(monkeypatch):
    bw, cfg, data = _single_setup()
    monkeypatch.setattr(protocol_mod, "sample_episode",
                        lambda *a, **k: pytest.fail("an episode was sampled"))
    with pytest.raises(ValidationError, match="temperature must be positive"):
        stream = _single_stream(
            data, dataclasses.replace(cfg, regularizer_kind="semantic", tau=0.0),
            embeddings=data.embeddings)
        run_single_session(stream, bw, n_episodes=3, n_way=3)


# --- one run entry: every check before the base fit ----------------------------------

_BOTH_PROTOCOL_FAULTS = ("semantic without embeddings", "missing embedding", "tau 0", "k_shot 0")


@pytest.mark.parametrize("protocol, fault", [
    *[(p, f) for p in ("single", "multi") for f in _BOTH_PROTOCOL_FAULTS],
    ("single", "n_way above the pool"),
    ("single", "k_shot above every novel pool"),
    ("single", "memory"),
    ("multi", "k_shot above a novel pool"),
    ("multi", "empty novel pool without k_shot"),
])
def test_a_faulty_run_fails_before_any_base_fit(monkeypatch, protocol, fault):
    data = generate(SynthSpec(n_classes=16, dimension=8, rng_seed=0,
                              support_per_class=8, query_per_class=6))
    plan = _SINGLE_PLAN if protocol == "single" else incremental_split(16, 10, 3)
    cfg = RunConfig(regularizer_kind="semantic", tau=0.5, learning_rate=0.05, rng_seed=7)
    embeddings, k_shot, n_way, named, store = data.embeddings, 1, 3, None, None
    if fault == "semantic without embeddings":
        embeddings, error = None, ConfigError
    elif fault == "missing embedding":
        embeddings, error = _without(data.embeddings, 12), MissingEmbeddingError
    elif fault == "tau 0":
        cfg, error = dataclasses.replace(cfg, tau=0.0), ValidationError
    elif fault == "k_shot 0":
        k_shot, error = 0, ValidationError
    elif fault == "n_way above the pool":
        n_way, error = 7, MissingExampleError
    elif fault == "k_shot above every novel pool":
        k_shot, error = 9, MissingExampleError
        named = "novel pool has 0 classes with k_shot=9 support examples, need n_way=3"
    elif fault == "k_shot above a novel pool":
        k_shot, error = 9, MissingExampleError
        named = "class 10 has 8 support examples, need k_shot=9"
    elif fault == "empty novel pool without k_shot":  # class 14 arrives in session 2
        s = data.store
        store = pools_store(s.dimension, {c: s.support(c) for c in s.classes if c != 14},
                            {c: s.query(c) for c in s.classes})
        k_shot, error = None, MissingExampleError
        named = "class 14 has 0 support examples, need 1"
    else:
        cfg, error = dataclasses.replace(cfg, memory_enabled=True), ConfigError
    monkeypatch.setattr(protocol_mod, "train_base",
                        lambda *a, **k: pytest.fail("the base weights were fitted"))
    with pytest.raises(error, match=named):
        stream = _single_stream(data, cfg, k_shot=k_shot, embeddings=embeddings, plan=plan,
                                store=store)
        if protocol == "single":
            run_single_session(stream, n_episodes=3, n_way=n_way, n_query=8)
        else:
            run_multi_session(stream)


def test_run_single_session_fits_missing_base_weights_from_the_run_seed(monkeypatch):
    # base weights None: one fit, the same as ``train_base`` at the config's seed
    bw, cfg, data = _single_setup()
    kw = dict(n_episodes=4, n_way=3, n_query=12, keep_episodes=True)
    given = run_single_session(_single_stream(data, cfg), bw, **kw)
    fits = []
    monkeypatch.setattr(protocol_mod, "train_base",
                        lambda *a, **k: fits.append(1) or train_base(*a, **k))
    fitted = run_single_session(_single_stream(data, cfg), **kw)
    assert len(fits) == 1
    assert fitted.as_dict() == given.as_dict()


@pytest.mark.parametrize("protocol", ["single", "multi"])
def test_base_weights_of_non_base_classes_are_rejected(protocol):
    # a row for a novel class is an input fault in both protocols, named
    bw, cfg, data = _single_setup()
    plan = _SINGLE_PLAN if protocol == "single" else incremental_split(16, 10, 3)
    stream = _single_stream(data, cfg, plan=plan)
    extra = bw.with_rows({12: np.ones(8), 14: np.ones(8)})
    with pytest.raises(ValidationError, match=r"missing \[\], extra \[12, 14\]"):
        if protocol == "single":
            run_single_session(stream, extra, n_episodes=2, n_way=3)
        else:
            run_multi_session(stream, base_weights=extra)
