import numpy as np
import pytest

from incrlin.datamodel import RunConfig, WeightMatrix
from incrlin.errors import ValidationError
from incrlin.objectives import semantic_targets
from incrlin.protocol import accuracy, predict
from incrlin.synth import SynthSpec, generate, incremental_split
from incrlin.trainer import train_base


def test_tightly_separated_clusters_are_nearest_mean_perfect():
    spec = SynthSpec(n_classes=2, dimension=8, within_class_stddev=1e-6, rng_seed=0)
    data = generate(spec)
    # oracle: nearest class mean
    for c in data.store.classes:
        for q in data.store.query(c):
            dists = np.linalg.norm(data.class_means - q, axis=1)
            assert int(np.argmin(dists)) == c


def test_same_seed_reproduces_identical_data():
    a = generate(SynthSpec(n_classes=5, dimension=6, rng_seed=42))
    b = generate(SynthSpec(n_classes=5, dimension=6, rng_seed=42))
    for c in a.store.classes:
        assert a.store.support(c).tobytes() == b.store.support(c).tobytes()
        assert a.store.query(c).tobytes() == b.store.query(c).tobytes()
        assert a.embeddings.vector(c).tobytes() == b.embeddings.vector(c).tobytes()
    c = generate(SynthSpec(n_classes=5, dimension=6, rng_seed=43))
    assert a.store.support(0).tobytes() != c.store.support(0).tobytes()


def test_base_trainer_accuracy_on_reference_shape():
    # d=32, 40 classes, sigma = 0.3 * mean scale; train on the 20-class base
    # split. A nearest-mean classifier (the error-floor proxy for isotropic
    # Gaussian clusters) scores ~90% here, the trained bias-free linear
    # classifier lands at ~85%; the threshold is frozen from those runs.
    spec = SynthSpec(n_classes=40, dimension=32, mean_scale=1.0,
                     within_class_stddev=0.3, support_per_class=30,
                     query_per_class=25, rng_seed=101)
    data = generate(spec)
    base_ids = list(range(20))
    sub = data.store.restrict(base_ids)
    cfg = RunConfig(regularizer_kind="finetune", alpha=5e-3, learning_rate=0.1,
                    max_epochs=1000, rng_seed=101)
    weights, _ = train_base(sub, base_ids, cfg)
    batch = sub.query_batch(base_ids)
    acc = accuracy(batch.class_ids, predict(weights, batch.features, base_ids))
    nearest_mean = np.array(base_ids)[np.argmin(
        np.linalg.norm(data.class_means[None, :20, :] - batch.features[:, None, :], axis=2),
        axis=1)]
    oracle_acc = accuracy(batch.class_ids, nearest_mean)
    assert oracle_acc > acc > 80.0


def test_empirical_means_converge():
    n = 10000
    sigma = 0.5
    spec = SynthSpec(n_classes=3, dimension=4, within_class_stddev=sigma,
                     support_per_class=n, query_per_class=1, rng_seed=9)
    data = generate(spec)
    tol = 5 * sigma / np.sqrt(n)
    for c in data.store.classes:
        emp = data.store.support(c).mean(axis=0)
        assert np.max(np.abs(emp - data.class_means[c])) < tol


def test_from_means_embeddings_identify_nearest_base_class():
    spec = SynthSpec(n_classes=12, dimension=16, rng_seed=5)
    data = generate(spec)
    base_ids = list(range(8))
    novel = 10
    base_w = WeightMatrix(base_ids, np.eye(8))
    targets = semantic_targets({novel: data.embeddings.vector(novel)},
                               data.embeddings.subset(base_ids), base_w, tau=1e-3)
    sims = [float(data.class_means[j] @ data.class_means[novel]) for j in base_ids]
    assert int(np.argmax(targets[novel])) == int(np.argmax(sims))
    for c in data.store.classes:
        assert data.embeddings.vector(c).tobytes() == data.class_means[c].tobytes()


def test_spec_validation():
    with pytest.raises(ValidationError):
        SynthSpec(n_classes=0, dimension=4)
    with pytest.raises(ValidationError):
        SynthSpec(n_classes=2, dimension=4, within_class_stddev=0.0)
    with pytest.raises(ValidationError):
        SynthSpec(n_classes=2, dimension=4, support_per_class=0)


def test_incremental_split():
    plan = incremental_split(40, 20, 5)
    assert plan[0] == list(range(20))
    assert len(plan) == 5
    assert plan[-1] == list(range(35, 40))
    with pytest.raises(ValidationError):
        incremental_split(40, 20, 7)  # 20 novel classes don't split into 7s
    with pytest.raises(ValidationError):
        incremental_split(10, 0, 5)
