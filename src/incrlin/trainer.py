"""SGD fine-tuning per session: novel-row initialization, the epoch loop with
its convergence rule, and base-class training.

There is one epoch loop, and it runs on a stack of E same-shaped sessions
(members): weights (E, C, d), features (E, n, d) and label positions (E, n).
Each SGD step is one ``ObjectiveStack.evaluate`` call, whose products are
batched ``matmul`` over the stack. Every member draws its mini-batch
shuffles from its own generator and keeps its own stall streak. It leaves
the stack when it stalls, at ``max_epochs``, or at the end of the epoch in
which its loss went non-finite (it has then diverged; it takes no step after
the mini-batch whose loss was non-finite). A member's weights, stop epoch and
loss trace are bit-identical to training it alone.
``fine_tune_stack`` trains the episodes of a single-session run; ``fine_tune``
is a stack of one, raises ``DivergenceError``, and serves the multi-session
protocol and ``train_base``.
"""
from __future__ import annotations

import dataclasses
import math
from collections.abc import Iterable, Sequence

import numpy as np

from .datamodel import (
    Batch,
    ClassRegistry,
    FeatureStore,
    RunConfig,
    WeightMatrix,
    WeightSnapshots,
)
from .errors import DivergenceError, MissingExampleError
from .objectives import Objective, ObjectiveStack

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
    diverged: bool = False


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


def _epoch_order(n: int, rngs: list[np.random.Generator]) -> np.ndarray | None:
    """Every member's example order for one epoch, stacked (E, n): a fresh
    shuffle from the member's own ``rng`` when n > MINI_BATCH, whose
    consecutive blocks of MINI_BATCH are the epoch's mini-batches; None
    (one full batch in the given order, drawing nothing) otherwise."""
    if n <= MINI_BATCH:
        return None
    return np.stack([rng.permutation(n) for rng in rngs])


def _sgd(w: np.ndarray, objective: ObjectiveStack, feats: np.ndarray, label_pos: np.ndarray,
         config: RunConfig, rngs: list[np.random.Generator],
         ) -> tuple[np.ndarray, list[TrainReport]]:
    """The epoch loop over a stack: weights (E, C, d), features (E, n, d),
    label positions (E, n). Every member steps on its own blocks and stops on
    its own stall streak, or at the end of the epoch in which its loss went
    non-finite; stopped members leave the stack. The per-member bookkeeping
    runs on Python floats, as cheap for a stack of one as a scalar loop.
    Returns the final weights (a diverged member's are unusable) and one
    report each."""
    n_members, n = label_pos.shape
    lr, tol = config.learning_rate, config.convergence_tolerance
    out = np.empty_like(w)
    reports: list[TrainReport | None] = [None] * n_members
    traces: list[list[float]] = [[] for _ in range(n_members)]
    prev: list[float | None] = [None] * n_members
    streak = [0] * n_members
    live = list(range(n_members))  # row j of the stack is member live[j]
    for epoch in range(1, config.max_epochs + 1):
        ep_feats, ep_labels = feats, label_pos
        order = _epoch_order(n, rngs)
        if order is not None:
            members = np.arange(len(live))[:, None]
            ep_feats, ep_labels = feats[members, order], label_pos[members, order]
        loss_sum = 0.0
        for start in range(0, n, MINI_BATCH):
            block = slice(start, start + MINI_BATCH)
            terms = objective.evaluate(w, ep_feats[:, block], ep_labels[:, block])
            loss_sum = loss_sum + terms.total * min(MINI_BATCH, n - start)
            step = terms.gradient_matrix
            step *= lr
            # With several blocks per epoch, a member whose loss went
            # non-finite (the sum over members then is too) takes no further
            # steps; it leaves at the end of the epoch.
            if order is not None and not math.isfinite(sum(loss_sum.tolist())):
                bad = ~np.isfinite(loss_sum)
                if bad.all():
                    break
                step[bad] = 0.0
            w -= step

        keep = []
        for j, (e, loss) in enumerate(zip(live, (loss_sum / n).tolist())):
            if math.isfinite(loss):
                traces[e].append(loss)
                close = prev[e] is not None and abs(loss - prev[e]) < tol
                streak[e] = streak[e] + 1 if close else 0
                prev[e] = loss
                stalled = streak[e] >= config.patience_epochs
                if not stalled and epoch < config.max_epochs:
                    keep.append(j)
                    continue
                reports[e] = TrainReport(epoch, loss, traces[e], stalled)
            else:  # diverged; the trace stops before this epoch
                reports[e] = TrainReport(epoch, loss, traces[e], False, True)
            out[e] = w[j]
        if len(keep) < len(live):
            if not keep:
                break
            live = [live[j] for j in keep]
            rngs = [rngs[j] for j in keep]
            w, feats, label_pos = w[keep], feats[keep], label_pos[keep]
            objective = objective.take(keep)
    return out, reports


def fine_tune_stack(weights: Sequence[WeightMatrix], objectives: Sequence[Objective],
                    batches: Sequence[Batch], config: RunConfig,
                    rngs: Sequence[np.random.Generator],
                    ) -> list[tuple[WeightMatrix | None, TrainReport]]:
    """Fine-tune E same-shaped sessions as one stacked SGD problem.

    Member e starts from ``weights[e]`` and minimizes ``objectives[e]`` over
    ``batches[e]``, drawing its mini-batch shuffles from ``rngs[e]``. Its
    result is bit-identical to fine-tuning it alone. A member whose loss goes
    non-finite gets weights None and a report with ``diverged`` set; the
    other members are unaffected.
    """
    stack = ObjectiveStack.concat([o.stack for o in objectives])
    m = np.stack([w.subset(o.class_ids) for w, o in zip(weights, objectives)])
    feats = np.stack([b.features for b in batches])
    label_pos = np.stack([o.label_positions(b.class_ids) for o, b in zip(objectives, batches)])
    m, reports = _sgd(m, stack, feats, label_pos, config, list(rngs))
    return [(None if r.diverged else WeightMatrix(o.class_ids, m[e]), r)
            for e, (o, r) in enumerate(zip(objectives, reports))]


def fine_tune(weights: WeightMatrix, objective: Objective, batch: Batch,
              config: RunConfig, rng: np.random.Generator) -> tuple[WeightMatrix, TrainReport]:
    """Minimize the session objective by SGD over the support (+ memory) set:
    ``fine_tune_stack`` of one member.

    Stops once the epoch loss changes by less than ``convergence_tolerance``
    for ``patience_epochs`` consecutive epochs, or at ``max_epochs``; raises
    ``DivergenceError`` if the loss goes non-finite.
    """
    [(trained, report)] = fine_tune_stack([weights], [objective], [batch], config, [rng])
    if report.diverged:
        raise DivergenceError(f"non-finite loss at epoch {report.epochs_run} "
                              f"(lr={config.learning_rate}); reduce the learning rate")
    return trained, report


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
