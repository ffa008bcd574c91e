"""SGD fine-tuning per session: novel-row initialization, the epoch loop with
its convergence rule, and base-class training."""
from __future__ import annotations

import dataclasses
from collections.abc import Iterable

import numpy as np

from .datamodel import (
    Batch,
    ClassRegistry,
    FeatureStore,
    RunConfig,
    WeightMatrix,
    WeightSnapshots,
    coerce_batch,
)
from .errors import DivergenceError, MissingExampleError
from .objectives import Objective

# Full-batch updates below this size, shuffled mini-batches of this size above.
MINI_BATCH = 64

# A support mean this small (relative to the feature scale) carries no
# direction; fall back to a random row.
_DEGENERATE_MEAN_RTOL = 1e-10


@dataclasses.dataclass
class TrainReport:
    epochs_run: int
    final_loss: float
    loss_trace: list[float]
    converged: bool


def init_novel_weights(support: Batch, snapshot0_norms,
                       rng: np.random.Generator,
                       classes: Iterable[int] | None = None) -> dict[int, np.ndarray]:
    """Initial weight rows for this session's classes.

    Each row is the mean of the class's support features rescaled to the
    average norm of the base rows (weight imprinting). A degenerate mean falls
    back to a small random direction, 1% of that norm.
    """
    rho = float(np.mean(snapshot0_norms))
    present = np.unique(support.class_ids).tolist()
    wanted = present if classes is None else sorted(set(classes))
    rows: dict[int, np.ndarray] = {}
    for c in wanted:
        stacked = support.features[support.class_ids == c]
        if stacked.shape[0] == 0:
            raise MissingExampleError(f"class {c} has no support examples to initialize from")
        mean = stacked.mean(axis=0)
        scale = float(np.abs(stacked).max())
        norm = float(np.linalg.norm(mean))
        if norm > _DEGENERATE_MEAN_RTOL * max(1.0, scale):
            rows[c] = (rho / norm) * mean
        else:
            g = rng.standard_normal(mean.shape[0])
            rows[c] = (0.01 * rho / np.linalg.norm(g)) * g
    return rows


def _epoch_batches(n: int, rng: np.random.Generator):
    """Index blocks covering all n examples once: one block when n <= MINI_BATCH,
    otherwise a fresh shuffle split into blocks of MINI_BATCH."""
    if n <= MINI_BATCH:
        return [np.arange(n)]
    perm = rng.permutation(n)
    return [perm[i:i + MINI_BATCH] for i in range(0, n, MINI_BATCH)]


def fine_tune(weights: WeightMatrix, objective: Objective, data,
              config: RunConfig, rng: np.random.Generator) -> tuple[WeightMatrix, TrainReport]:
    """Minimize the session objective by SGD over the support (+ memory) set.

    Stops once the epoch loss changes by less than ``convergence_tolerance``
    for ``patience_epochs`` consecutive epochs, or at ``max_epochs``.
    """
    batch = coerce_batch(data)
    feats = batch.features
    label_pos = objective.label_positions(batch.class_ids)
    n = len(batch)
    w = weights.subset(objective.class_ids)
    lr = config.learning_rate

    trace: list[float] = []
    prev_loss = None
    streak = 0
    converged = False
    for epoch in range(1, config.max_epochs + 1):
        loss_sum = 0.0
        for idx in _epoch_batches(n, rng):
            terms = objective.evaluate_dense(w, feats[idx], label_pos[idx])
            if not np.isfinite(terms.total):
                raise DivergenceError(
                    f"non-finite loss at epoch {epoch} (lr={lr}); reduce the learning rate")
            w -= lr * terms.gradient_matrix
            loss_sum += terms.total * idx.size
        epoch_loss = loss_sum / n
        trace.append(epoch_loss)
        if prev_loss is not None and abs(epoch_loss - prev_loss) < config.convergence_tolerance:
            streak += 1
        else:
            streak = 0
        prev_loss = epoch_loss
        if streak >= config.patience_epochs:
            converged = True
            break

    return (WeightMatrix(objective.class_ids, w),
            TrainReport(len(trace), trace[-1], trace, converged))


def train_base(store: FeatureStore, base_classes: Iterable[int], config: RunConfig,
               rng: np.random.Generator | None = None) -> tuple[WeightMatrix, TrainReport]:
    """Fit base-class rows on the base support pool (cross-entropy + prior only).

    The result plays the same role as ingested base weights: it becomes
    snapshot 0.
    """
    if rng is None:
        rng = np.random.default_rng(config.rng_seed)
    base = sorted(set(base_classes))
    registry = ClassRegistry.with_base(base)
    support = store.support_examples(base)
    rows = init_novel_weights(support, 1.0, rng, classes=base)
    weights = WeightMatrix(base, np.stack([rows[c] for c in base]))
    objective = Objective(config, registry, 0, WeightSnapshots())
    return fine_tune(weights, objective, support, config, rng)
