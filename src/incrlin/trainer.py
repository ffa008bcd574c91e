"""SGD fine-tuning per session: novel-row initialization, the epoch loop with
its convergence rule, and base-class training.

There is one epoch loop, and it runs on a stack of E same-shaped sessions
(members): each member's rows, old rows before novel rows, as coordinates
(E, C, q), its feature rows and its label row positions (E, n).
Each SGD step is one ``ObjectiveStack.step`` call, which updates the
coordinates in place with batched ``matmul`` over the stack and forms no
gradient. Every member draws its mini-batch shuffles from its own generator
and keeps its own stall streak. It leaves the stack when it stalls, at
``max_epochs``, or at the end of the epoch in which its loss went non-finite
(it has then diverged): full batch or mini-batches, a diverged member steps
to the end of that epoch like any other. A member's weights, stop epoch and
final loss are bit-identical to training it alone.

Within a session, SGD keeps every row in a small fixed span: its start row,
its anchor, the training rows, their projections onto the base span and the
fixed targets. Unless those rows can fill R^d (a base fit), a stack trains in
span coordinates: each row's coefficients on an orthonormal basis of the
shared rows, plus two on an orthonormal pair of its own for its start and
anchor. Each step costs O(C r) instead of O(C d), and the (C, d) weights are
formed once, at the end. Otherwise the coordinates are the weights. The
arithmetic differs only in rounding; the loop, the stall rule and the
mini-batches are the same.
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
    (E, n, ·), label positions (E, n). Every member steps on every block of
    an epoch and stops on its own stall streak, or at the end of the epoch in
    which its loss went non-finite; stopped members leave the stack. The
    per-member bookkeeping runs on Python floats, as cheap for a stack of one
    as a scalar loop.
    Returns the final coordinates and one report each; a diverged member's
    coordinates are unusable and its report's ``final_loss`` is non-finite."""
    n_members, n = label_pos.shape
    config = objective.config
    tol = config.convergence_tolerance
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
            terms = objective.step(w, ep_feats[:, block], ep_labels[:, block])
            loss_sum = loss_sum + terms.total * min(MINI_BATCH, n - start)

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


def _coordinates(stack: ObjectiveStack, m: np.ndarray, feats: np.ndarray):
    """The coordinates a stack trains in, from its shapes: its objective, start
    coordinates, feature coordinates, and the map from final coordinates back
    to (E, C, d) weights.

    A session's spanning set B is its n training rows and its novel rows'
    start rows, then the projections of all of them onto the base span
    (subspace pull) or the novel rows' targets. With d rows or more, B can
    span all of R^d and there is nothing to reduce: the coordinates are the
    weights. Otherwise a row is x_Q · Qᵀ + s·u + t·v (see ``ObjectiveStack``),
    with Q an orthonormal basis of the member's B and (u, v) the row's own
    pair, both from batched Householder QRs: the pairs from each old row's
    start and its anchor less its start, the parts of both outside span Q,
    whose triangles give the rows' (s, t) and their anchors'. Every SGD step
    keeps a row so: the data gradient lies in the span of the features,
    r_prior and r_old scale a row and add its anchor, and the pull moves a
    novel row toward its target or its projection, both in B. Where a row
    starts at its anchor, its anchor less its start is exactly 0, and so are
    its t and its anchor's. The old rows' parts are projected onto Q twice,
    so what is left of them is orthogonal to Q to rounding."""
    n_members, c, d = m.shape
    k, n = stack.n_old, feats.shape[1]
    width = n + c - k
    if stack.projection is not None:
        width *= 2
    elif stack.targets is not None:
        width += c - k
    if width >= d:
        return stack, m, feats, lambda x: x
    b = np.concatenate([feats, m[:, k:]], axis=1)
    if stack.projection is not None:
        p = stack.projection
        b = np.concatenate([b, (b @ p) @ p.transpose(0, 2, 1)], axis=1)
    elif stack.targets is not None:
        b = np.concatenate([b, stack.targets], axis=1)
    basis = np.linalg.qr(b.transpose(0, 2, 1))[0]  # (E, d, r), r = rows of B < d
    r = basis.shape[2]
    q = r + 2
    qt = basis.transpose(0, 2, 1)

    def on_basis(rows):  # (E, R, d) rows in span Q as (E, R, q) coordinates, s = t = 0
        x = np.zeros(rows.shape[:2] + (q,))
        x[..., :r] = rows @ basis
        return x

    rest = np.empty((n_members, 2 * k, d))  # each old row's start, then its anchor less its start
    rest[:, :k] = m[:, :k]
    if k:
        np.subtract(stack.anchors, m[:, :k], out=rest[:, k:])
    coef = rest @ basis
    rest -= coef @ qt
    again = rest @ basis
    rest -= again @ qt
    coef += again
    # (E, k, d, 2) pairs and (E, k, 2, 2) triangles
    pair, tri = np.linalg.qr(rest.reshape(n_members, 2, k, d).transpose(0, 2, 3, 1))
    del rest

    x = np.zeros((n_members, c, q))
    x[:, :k, :r], x[:, :k, r:] = coef[:, :k], tri[..., 0]
    x[:, k:, :r] = m[:, k:] @ basis
    anchors = np.zeros((n_members, k, q))
    anchors[..., :r] = coef[:, :k] + coef[:, k:]
    anchors[..., r:] = tri[..., 0] + tri[..., 1]
    projection = targets = None
    if stack.projection is not None:
        projection = np.zeros((n_members, q, p.shape[2]))
        projection[:, :r] = qt @ p
    elif stack.targets is not None:
        targets = on_basis(stack.targets)

    def to_weights(x):
        w = x[..., :r] @ qt
        w[:, :k] += (pair @ x[:, :k, r:, None])[..., 0]
        return w

    span = ObjectiveStack(stack.config, anchors, stack.betas, projection, targets)
    return span, x, on_basis(feats), to_weights


def fine_tune_stack(objectives: Sequence[Objective], rngs: Sequence[np.random.Generator],
                    ) -> list[tuple[WeightMatrix, TrainReport] | DivergenceError]:
    """Fine-tune E same-shaped session problems as one stacked SGD problem.

    Member e starts from ``objectives[e].start`` and minimizes the objective
    over its data, drawing its mini-batch shuffles from ``rngs[e]``. Its rows
    are trained, and returned, in the objective's layout (``class_ids``: old
    classes, then novel classes). Each member stops once its epoch loss
    changes by less than ``convergence_tolerance`` for ``patience_epochs``
    consecutive epochs, or at ``max_epochs``. The stack trains in span
    coordinates when its spanning set has fewer than d rows, else on the
    weights. A member's result is bit-identical to fine-tuning it alone. A
    member whose loss goes non-finite gets a ``DivergenceError`` in place of
    its weights and report; the other members are unaffected.
    """
    stack = ObjectiveStack.of(objectives)
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
    registry = ClassRegistry([base])
    support = store.support_examples(base)
    rows = init_novel_weights(support, 1.0, rng, classes=base)
    [outcome] = fine_tune_stack(
        [Objective(config, registry, 0, WeightMatrix(base, np.stack([rows[c] for c in base])),
                   support)], [rng])
    if isinstance(outcome, DivergenceError):
        raise outcome
    return outcome
