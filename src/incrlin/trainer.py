"""SGD fine-tuning per session: novel-row initialization, the epoch loop with
its convergence rule, and base-class training.

There is one epoch loop, and it runs on a stack of E same-shaped sessions
(members): each member's rows, old rows before novel rows, as coordinates
(E, C, q), its feature rows and its label row positions (E, n).
Each SGD step is one ``ObjectiveStack.evaluate`` call, whose products are
batched ``matmul`` over the stack. Every member draws its mini-batch
shuffles from its own generator and keeps its own stall streak. It leaves
the stack when it stalls, at ``max_epochs``, or at the end of the epoch in
which its loss went non-finite (it has then diverged; it takes no step after
the mini-batch whose loss was non-finite). A member's weights, stop epoch and
final loss are bit-identical to training it alone.

Within a session, SGD keeps every row in a small fixed span: its start row,
its anchor, the training rows, their projections onto the base span and the
fixed targets. When that span is small against d (``use_span``), a stack
trains in span coordinates: each step costs O(C r) instead of O(C d), and
the (C, d) weights are formed once, at the end. Otherwise the coordinates are
the weights. The arithmetic differs only in rounding; the loop, the stall
rule and the mini-batches are the same.
``fine_tune_stack`` is the one routine that fits weights: it trains a list of
``Objective`` problems, the episodes of a single-session run as one stack, and
a multi-session fine-tune or ``train_base`` as a stack of one. A member whose
loss went non-finite gets a ``DivergenceError`` in place of its weights.
"""
from __future__ import annotations

import dataclasses
import math
from collections.abc import Iterable, Sequence

import numpy as np

from .datamodel import Batch, ClassRegistry, FeatureStore, RunConfig, WeightMatrix
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
    converged: bool


def init_novel_weights(support: Batch, snapshot0_norms,
                       rng: np.random.Generator, classes: Iterable[int]) -> dict[int, np.ndarray]:
    """Initial weight rows for ``classes``, the session's classes.

    Each row is the mean of the class's support features rescaled to the
    average norm of the base rows (weight imprinting). A degenerate mean falls
    back to a small random direction, 1% of that norm.
    """
    rho = float(np.mean(snapshot0_norms))
    rows: dict[int, np.ndarray] = {}
    for c in sorted(set(classes)):
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
         rngs: list[np.random.Generator]) -> tuple[np.ndarray, list[TrainReport]]:
    """The epoch loop over a stack: coordinates (E, C, q), feature rows
    (E, n, ·), label positions (E, n). Every member steps on its own blocks
    and stops on its own stall streak, or at the end of the epoch in which its
    loss went non-finite; stopped members leave the stack. The per-member bookkeeping
    runs on Python floats, as cheap for a stack of one as a scalar loop.
    Returns the final coordinates and one report each; a diverged member's
    coordinates are unusable and its report's ``final_loss`` is non-finite."""
    n_members, n = label_pos.shape
    config = objective.config
    lr, tol = config.learning_rate, config.convergence_tolerance
    out = np.empty_like(w)
    reports: list[TrainReport | None] = [None] * n_members
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
                close = prev[e] is not None and abs(loss - prev[e]) < tol
                streak[e] = streak[e] + 1 if close else 0
                prev[e] = loss
                stalled = streak[e] >= config.patience_epochs
                if not stalled and epoch < config.max_epochs:
                    keep.append(j)
                    continue
                reports[e] = TrainReport(epoch, loss, stalled)
            else:  # diverged
                reports[e] = TrainReport(epoch, loss, False)
            out[e] = w[j]
        if len(keep) < len(live):
            if not keep:
                break
            live = [live[j] for j in keep]
            rngs = [rngs[j] for j in keep]
            w, feats, label_pos = w[keep], feats[keep], label_pos[keep]
            objective = objective.take(keep)
    return out, reports


def span_width(n_rows: int, n_novel: int, projected: bool, targets: bool) -> int:
    """Rows of a session's spanning set B: its ``n_rows`` training rows and the
    start rows of its ``n_novel`` novel rows, then the projections of all of
    them onto the base span if the pull is a subspace, or the novel rows'
    fixed targets."""
    width = n_rows + n_novel
    return 2 * width if projected else width + (n_novel if targets else 0)


def use_span(width: int, dimension: int) -> bool:
    """Train in span coordinates when the spanning set has at most a quarter
    as many rows as the feature dimension. A span step makes about a dozen
    more numpy calls than a weight step (the Gram image, the start and anchor
    terms), so it wins only once its arithmetic on (C, r) is well below that
    on (C, d). Measured per step (one BLAS thread): C=65-100 at d=640 and
    r=30-125, 1.9-5.2x faster; C=25 at d=32 and r=10, 0.7-0.9x for stacks of
    1-16 members, so 5-way 1-shot episodes at d=32 stay on the weights.
    """
    return 4 * width <= dimension


def _coordinates(stack: ObjectiveStack, m: np.ndarray, feats: np.ndarray):
    """The coordinates a stack trains in, from its shapes: its objective, start
    coordinates, feature rows, and the map from final coordinates back to
    (E, C, d) weights.

    In span coordinates a row is x_B · B + s·w0 + t·a (see ``ObjectiveStack``).
    Every SGD step keeps it so: the data gradient lies in the span of the
    features, r_prior and r_old scale a row and add its anchor, and the pull
    moves a novel row toward its target or its projection, both in B. This is
    the one place B and its products are built."""
    n_members, c, d = m.shape
    k, n = stack.n_old, feats.shape[1]
    if not use_span(span_width(n, c - k, stack.projection is not None,
                               stack.targets is not None), d):
        return stack, m, feats, lambda x: x
    b = np.concatenate([feats, m[:, k:]], axis=1)
    r0 = b.shape[1]
    if stack.projection is not None:
        p = stack.projection[0]
        b = np.concatenate([b, (b @ p) @ p.T], axis=1)
    elif stack.targets is not None:
        b = np.concatenate([b, stack.targets], axis=1)
    r = b.shape[1]
    q = r + 2
    eye = np.eye(q)

    starts = np.zeros((n_members, 2, c, d))  # each old row's start and anchor
    if k:
        starts[:, 0, :k], starts[:, 1, :k] = m[:, :k], stack.anchors
    gram = np.zeros((n_members, q, q))
    gram[:, :r, :r] = b @ b.transpose(0, 2, 1)
    b_starts = b @ starts.reshape(n_members, 2 * c, d).transpose(0, 2, 1)  # (E, r, 2C)
    starts_gram = (starts[:, :, None] * starts[:, None]).sum(axis=4)  # (E, 2, 2, C)
    own = np.concatenate([2.0 * b_starts.reshape(n_members, r, 2, c).transpose(0, 2, 3, 1),
                          starts_gram.transpose(0, 1, 3, 2)], axis=3)
    rows = np.concatenate([gram[:, :n], np.broadcast_to(eye[:n], (n_members, n, q)),
                           b_starts[:, :n]], axis=2)

    x = np.zeros((n_members, c, q))
    x[:, :k, r] = 1.0
    x[:, k:] = eye[n:r0]
    anchors = np.broadcast_to(eye[r + 1], (n_members, k, q))
    projection = targets = None
    if stack.projection is not None:  # (x_1, x_2) over (B_0, B_0 P Pᵀ) projects to (0, x_1 + x_2)
        u, v = np.zeros((q, r0)), np.zeros((q, r0))
        u[:r0] = u[r0:r] = v[r0:r] = np.eye(r0)
        projection = (u, v)
    elif stack.targets is not None:
        targets = np.broadcast_to(eye[r0:r], (n_members, c - k, q))

    def to_weights(x):
        return x[..., :r] @ b + x[..., r, None] * starts[:, 0] + x[..., r + 1, None] * starts[:, 1]

    span = ObjectiveStack(stack.config, anchors, stack.betas, projection, targets, gram, own)
    return span, x, rows, to_weights


def fine_tune_stack(objectives: Sequence[Objective], rngs: Sequence[np.random.Generator],
                    ) -> list[tuple[WeightMatrix, TrainReport] | DivergenceError]:
    """Fine-tune E same-shaped session problems as one stacked SGD problem.

    Member e starts from ``objectives[e].start`` and minimizes the objective
    over its data, drawing its mini-batch shuffles from ``rngs[e]``. Its rows
    are trained, and returned, in the objective's layout (``class_ids``: old
    classes, then novel classes). Each member stops once its epoch loss
    changes by less than ``convergence_tolerance`` for ``patience_epochs``
    consecutive epochs, or at ``max_epochs``. The stack trains in span
    coordinates when its spanning set is small against d (``use_span``),
    else on the weights. A member's result is bit-identical to fine-tuning it
    alone. A member whose loss goes non-finite gets a ``DivergenceError`` in
    place of its weights and report; the other members are unaffected.
    """
    stack = ObjectiveStack.concat([o.stack for o in objectives])
    m = np.stack([o.start for o in objectives])
    feats = np.stack([o.features for o in objectives])
    label_pos = np.stack([o.label_pos for o in objectives])
    stack, x, rows, to_weights = _coordinates(stack, m, feats)
    x, reports = _sgd(x, stack, rows, label_pos, list(rngs))
    with np.errstate(all="ignore"):  # a diverged member's weights are dropped
        m = to_weights(x)
    lr = stack.config.learning_rate
    return [DivergenceError(f"non-finite loss at epoch {r.epochs_run} (lr={lr}); "
                            "reduce the learning rate")
            if not math.isfinite(r.final_loss) else (WeightMatrix(o.class_ids, m[e]), r)
            for e, (o, r) in enumerate(zip(objectives, reports))]


def train_base(store: FeatureStore, base_classes: Iterable[int], config: RunConfig,
               rng: np.random.Generator | None = None) -> tuple[WeightMatrix, TrainReport]:
    """Fit base-class rows on the base support pool (cross-entropy + prior only).

    The result plays the same role as ingested base weights: it becomes
    snapshot 0, the first anchor table. Raises ``DivergenceError`` if the
    loss goes non-finite.
    """
    if rng is None:
        rng = np.random.default_rng(config.rng_seed)
    base = sorted(set(base_classes))
    registry = ClassRegistry.with_base(base)
    support = store.support_examples(base)
    rows = init_novel_weights(support, 1.0, rng, classes=base)
    [outcome] = fine_tune_stack(
        [Objective(config, registry, 0, WeightMatrix(base, np.stack([rows[c] for c in base])),
                   support)], [rng])
    if isinstance(outcome, DivergenceError):
        raise outcome
    return outcome
