"""Deterministic synthetic fixtures: Gaussian class clusters whose semantic
embeddings are their class means, sized for desk-scale runs."""
from __future__ import annotations

import dataclasses

import numpy as np

from .datamodel import EmbeddingTable, FeatureStore
from .errors import ValidationError


@dataclasses.dataclass(frozen=True)
class SynthSpec:
    """Shape of a synthetic dataset.

    Class means are drawn uniformly on the sphere of radius ``mean_scale``;
    examples are isotropic Gaussians around them. Each class's embedding is
    its mean, so semantic similarity mirrors feature geometry.
    """

    n_classes: int
    dimension: int
    mean_scale: float = 1.0
    within_class_stddev: float = 0.3
    support_per_class: int = 25
    query_per_class: int = 25
    rng_seed: int = 0

    def __post_init__(self):
        if self.n_classes < 1 or self.dimension < 1:
            raise ValidationError("need at least one class and one dimension")
        if self.within_class_stddev <= 0:
            raise ValidationError("within_class_stddev must be positive")
        if self.support_per_class < 1 or self.query_per_class < 1:
            raise ValidationError("per-class counts must be >= 1")


@dataclasses.dataclass(frozen=True, eq=False)
class SynthData:
    store: FeatureStore
    embeddings: EmbeddingTable
    class_means: np.ndarray  # (n_classes, dimension)


def generate(spec: SynthSpec) -> SynthData:
    """Generate a feature store and an embedding table.

    Deterministic given the seed. Class ids are 0..n_classes-1; callers
    impose their own session plan (``incremental_split``).
    """
    rng = np.random.default_rng(spec.rng_seed)
    g = rng.standard_normal((spec.n_classes, spec.dimension))
    means = spec.mean_scale * g / np.linalg.norm(g, axis=1, keepdims=True)

    # The store's sorted matrix, filled class by class (support, then query
    # rows) in place with mean + stddev * z: each block is scaled while cached.
    per_class = spec.support_per_class + spec.query_per_class
    z = np.empty((spec.n_classes, per_class, spec.dimension))
    for c, block in enumerate(z):
        rng.standard_normal(out=block)
        block *= spec.within_class_stddev
        block += means[c]
    store = FeatureStore(
        spec.dimension, np.repeat(np.arange(spec.n_classes), per_class),
        np.tile(np.arange(per_class) >= spec.support_per_class, spec.n_classes),
        z.reshape(-1, spec.dimension))

    embeddings = EmbeddingTable({c: means[c] for c in range(spec.n_classes)})
    return SynthData(store, embeddings, means)


def incremental_split(n_classes: int, n_base: int, n_per_session: int) -> list[list[int]]:
    """Session plan: the first ``n_base`` ids form the base session, the rest
    arrive ``n_per_session`` at a time."""
    if not 0 < n_base <= n_classes:
        raise ValidationError(f"n_base must be in 1..{n_classes}, got {n_base}")
    if n_per_session < 1:
        raise ValidationError("n_per_session must be >= 1")
    if (n_classes - n_base) % n_per_session != 0:
        raise ValidationError(
            f"{n_classes - n_base} novel classes do not split into sessions of {n_per_session}")
    plan = [list(range(n_base))]
    for start in range(n_base, n_classes, n_per_session):
        plan.append(list(range(start, start + n_per_session)))
    return plan
