"""The session objective: softmax cross-entropy plus the weight regularizers.

One evaluation reports every term's value and the exact gradient with
respect to the trainable weight rows. The total is a minimization objective:
negative mean log-likelihood plus the scaled penalties.

``ObjectiveStack`` is the one implementation. It works on a stack of E
same-shaped sessions at once, so many small episodes cost one call; each
penalty's sum of products is one ``einsum`` pass. Its ``step`` is one SGD
step, taken in place: every penalty is quadratic, so the step scales the rows,
adds a constant and subtracts the data gradient, with the learning rate and
the penalty weights folded into per-stack constants, and no gradient is
formed. ``evaluate`` returns the gradient, assembled from the same pieces.
``Objective`` is one session's training problem: it checks the session's
objective and holds its arrays, the start rows laid out and the data's label
rows. ``ObjectiveStack.of`` is the one way to stack problems, for
``trainer.fine_tune_stack`` and for ``Objective.evaluate_dense``.

The rows are held in orthonormal coordinates. In weight coordinates they are
the (C, d) weights. In span coordinates a row is its coefficients on an
orthonormal basis Q of a session's spanning rows, plus two on an orthonormal
pair of its own that holds the parts of its start and anchor rows outside
span Q. Either way a row's squared norm is the sum of squares of its
coordinates and a logit is a plain dot product, so there is one body: weight
coordinates are its Q = I_d case, with no pairs. The gradient is returned in
the coordinates it was taken in.

Every session lays out its weight rows in one order: the old classes
(ascending), then the session's novel classes (ascending). The penalties only
need to know which rows are old (anchored by r_old) and which are novel
(pulled by r_new), so each group is one slice of the stack.
"""
from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from .datamodel import Batch, ClassRegistry, OrthonormalBasis, RunConfig, WeightMatrix
from .errors import (
    ConfigError,
    DimensionMismatchError,
    MissingSnapshotError,
    MissingTargetError,
    ValidationError,
)


def semantic_targets(novel_embeddings: Mapping[int, np.ndarray],
                     base_embeddings: Mapping[int, np.ndarray],
                     base_weights: WeightMatrix, tau: float) -> dict[int, np.ndarray]:
    """Similarity-weighted combinations of base rows, one target per novel class.

    Weights are a temperature-tau softmax of embedding inner products over the
    base classes (max-subtracted for stability). Targets are static: a run
    computes them once, for every novel class it can meet, and holds them
    constant during fine-tuning.
    """
    if tau <= 0:
        raise ValidationError(f"temperature must be positive, got {tau}")
    if not novel_embeddings:
        return {}
    base_ids = sorted(base_embeddings)
    if not base_ids:
        raise ValidationError("no base embeddings given")
    e_base = np.stack([np.asarray(base_embeddings[c], dtype=np.float64) for c in base_ids])
    w_base = base_weights.subset(base_ids)
    targets: dict[int, np.ndarray] = {}
    for c in sorted(novel_embeddings):
        e_c = np.asarray(novel_embeddings[c], dtype=np.float64)
        if e_c.shape != e_base[0].shape:
            raise DimensionMismatchError(
                f"embedding of class {c} has shape {e_c.shape}, expected {e_base[0].shape}")
        sims = e_base @ e_c / tau
        sims -= sims.max()
        w = np.exp(sims)
        w /= w.sum()
        targets[c] = w @ w_base
    return targets


class ObjectiveTerms:
    """Loss decomposition for one evaluation or step, and an evaluation's
    total gradient.

    ``total`` = data_loss + alpha * r_prior + r_old + gamma * r_new, where
    r_old already carries its beta weights and r_new is raw. For a stack the
    terms are (E,) arrays and the gradient is (E, C, q) in the stack's
    coordinates; for one session they are floats and the gradient is (C, d),
    rows in the objective's layout. A step's terms carry no gradient (None).
    """

    __slots__ = ("data_loss", "r_prior", "r_old", "r_new", "total", "gradient_matrix")

    def __init__(self, data_loss, r_prior, r_old, r_new, total, gradient_matrix):
        self.data_loss = data_loss
        self.r_prior = r_prior
        self.r_old = r_old
        self.r_new = r_new
        self.total = total
        self.gradient_matrix = gradient_matrix


class ObjectiveStack:
    """The objectives of E same-shaped sessions (members), evaluated at once.

    Member e trains C weight rows, laid out old classes first, then novel
    classes, each held as coordinates of width q. The first ``n_old`` rows are
    anchored to ``anchors[e]`` with weights ``betas[e]``; the rows after them
    are pulled toward ``targets[e]``, or toward their projections (x P) Pᵀ onto
    the base span, with P = ``projection[e]`` the span's orthonormal basis (in
    span coordinates, its coefficients on Q). With neither, r_new is 0. Both
    groups are plain slices of every member, whatever its class ids. Every
    product is a per-member ``matmul`` and every sum runs over one member's own
    entries, so a member's terms, gradient and step do not depend on the other
    members of the stack.

    The coordinates are the weights themselves (q = d), or span coordinates
    built by ``trainer.fine_tune_stack``: a row is x_Q · Qᵀ + s·u + t·v, with
    Q (d, q - 2) an orthonormal basis of the member's spanning rows, (u, v)
    the row's own orthonormal pair for the parts of its start and anchor
    outside span Q, and x = (x_Q, s, t). Either way |x|² is the row's squared
    norm. The features lie in span Q and are given as their coefficients on
    Q, with s = t = 0, so a logit is the same dot product in either
    coordinates. A novel row's s and t stay 0: every part of its gradient
    (features, targets, P) has zero s, t entries.

    Every penalty is quadratic, so its gradient is linear in the rows: row by
    row, rate · x − bias, less 2γ (x P) Pᵀ on the novel rows of a subspace
    pull. The rate is 2α, plus 2β on an old row or 2γ on a pulled novel row;
    the bias is 2β times the anchor on an old row, 2γ times the target on a
    target row. An SGD step x ← x − lr · gradient is therefore
    x ← keep ⊙ x + shift (+ 2 lr γ (x P) Pᵀ) − (lr / n) · (p − y)ᵀ F, with
    keep = 1 − lr · rate and shift = lr · bias: (E, C, q) arrays built at a
    stack's first ``step`` and sliced by ``take``. ``evaluate`` assembles the
    gradient from the same rates and biases at lr = 1.
    """

    __slots__ = ("config", "n_old", "anchors", "betas", "projection", "targets", "keep", "shift")

    def __init__(self, config: RunConfig, anchors: np.ndarray, betas: np.ndarray,
                 projection: np.ndarray | None = None, targets: np.ndarray | None = None):
        self.config = config
        self.anchors = anchors        # (E, n_old, q); (E, 0, 0) without old rows
        self.betas = betas            # (E, n_old)
        self.n_old = betas.shape[1]
        self.projection = projection  # (E, q, rank) or None
        self.targets = targets        # (E, C - n_old, q) or None
        self.keep = self.shift = None  # (E, C, q), built by the first step

    @classmethod
    def of(cls, objectives: Sequence["Objective"]) -> "ObjectiveStack":
        """The stack of the given session problems, in order, in weight
        coordinates. They must share the config, the new-class pull (one
        basis, targets, or neither) and every shape."""
        first = objectives[0]

        def layout(o):
            return (o.config, o.basis is None, o.start.shape, o.features.shape,
                    o.anchors.shape, None if o.targets is None else o.targets.shape)

        for o in objectives[1:]:
            if layout(o) != layout(first) or (
                    o.basis is not None and not np.array_equal(o.basis.matrix, first.basis.matrix)):
                raise ValidationError("stacked objectives need the same config, "
                                      "regularizer and shapes")
        projection = None if first.basis is None else np.broadcast_to(
            first.basis.matrix, (len(objectives),) + first.basis.matrix.shape)
        return cls(first.config, np.stack([o.anchors for o in objectives]),
                   np.stack([o.betas for o in objectives]), projection,
                   None if first.targets is None else np.stack([o.targets for o in objectives]))

    def take(self, members) -> "ObjectiveStack":
        """The sub-stack of the given members (an index or boolean mask)."""
        pick = lambda a: None if a is None else a[members]  # noqa: E731
        sub = ObjectiveStack(self.config, self.anchors[members], self.betas[members],
                             pick(self.projection), pick(self.targets))
        sub.keep, sub.shift = pick(self.keep), pick(self.shift)
        return sub

    def _penalty_rows(self, shape: tuple[int, int, int], scale: float):
        """``scale`` times the penalties' gradient rates (E, C, 1) and biases
        (E, C, q), for coordinates of the given shape; the bias is None where
        every row's is zero."""
        cfg = self.config
        n_members, n_rows, q = shape
        k = self.n_old
        pulled = self.projection is not None or self.targets is not None
        rate = np.full((n_members, n_rows, 1),
                       2.0 * cfg.alpha + (2.0 * cfg.gamma if pulled else 0.0))
        rate[:, :k, 0] = 2.0 * cfg.alpha + 2.0 * self.betas
        rate *= scale
        if not k and self.targets is None:
            return rate, None
        bias = np.zeros(shape)
        if k:
            bias[:, :k] = (scale * 2.0 * self.betas)[:, :, None] * self.anchors
        if self.targets is not None:
            bias[:, k:] = (scale * 2.0 * cfg.gamma) * self.targets
        return rate, bias

    def _forward(self, m: np.ndarray, feats: np.ndarray, label_pos: np.ndarray):
        """Every member's terms at ``m`` (without a gradient), its softmax
        residual p − y (E, n, C), and the projections (x P) Pᵀ of its novel
        rows, or None without a subspace pull of nonzero weight."""
        cfg = self.config
        n_members, n = label_pos.shape

        logits = feats @ m.transpose(0, 2, 1)
        # each example's label logit, as one index into the flat (E, n, C) logits
        label = label_pos.ravel() + np.arange(0, logits.size, m.shape[1])
        logits -= logits.max(axis=2, keepdims=True)
        picked = logits.ravel()[label]
        p = np.exp(logits, out=logits)
        z = p.sum(axis=2)
        # .mean(axis=1)'s arithmetic (sum, then divide by n) without its wrapper
        data_loss = (np.log(z) - picked.reshape(n_members, n)).sum(axis=1) / n
        p /= z[:, :, None]
        p.ravel()[label] -= 1.0

        rp = np.einsum("ecq,ecq->e", m, m)
        # total = data_loss + alpha * rp + ro + gamma * rn, in that order; an
        # absent term adds an exact zero, so it is left out.
        total = data_loss + cfg.alpha * rp
        ro = rn = np.zeros(n_members)
        k = self.n_old
        pull = None

        if k:
            diff = m[:, :k] - self.anchors
            sq = np.einsum("ecq,ecq->ec", diff, diff)
            ro = (sq[:, None, :] @ self.betas[:, :, None])[:, 0, 0]
            total += ro

        if m.shape[1] > k and (self.projection is not None or self.targets is not None):
            mn = m[:, k:]
            if self.projection is not None:
                u = self.projection
                pull = (mn @ u) @ u.transpose(0, 2, 1)
                resid = mn - pull
            else:
                resid = mn - self.targets
            rn = np.einsum("ecq,ecq->e", resid, resid)
            total += cfg.gamma * rn
            if cfg.gamma == 0.0:
                pull = None

        return ObjectiveTerms(data_loss, rp, ro, rn, total, None), p, pull

    def step(self, m: np.ndarray, feats: np.ndarray, label_pos: np.ndarray) -> ObjectiveTerms:
        """One SGD step of every member, in place: coordinates ``m`` (E, C, q)
        become m − lr · gradient over feature coordinates (E, n, q) and label
        row positions (E, n). Returns the terms at ``m`` before the step,
        without a gradient."""
        terms, p, pull = self._forward(m, feats, label_pos)
        lr = self.config.learning_rate
        if self.keep is None:
            rate, self.shift = self._penalty_rows(m.shape, lr)
            self.keep = np.repeat(1.0 - rate, m.shape[2], axis=2)
        p *= lr / label_pos.shape[1]
        data = p.transpose(0, 2, 1) @ feats
        m *= self.keep
        if self.shift is not None:
            m += self.shift
        if pull is not None:
            pull *= 2.0 * lr * self.config.gamma
            m[:, self.n_old:] += pull
        m -= data
        return terms

    def evaluate(self, m: np.ndarray, feats: np.ndarray, label_pos: np.ndarray) -> ObjectiveTerms:
        """Terms and gradients of every member: coordinates ``m`` (E, C, q),
        feature coordinates (E, n, q) and label row positions (E, n)."""
        terms, p, pull = self._forward(m, feats, label_pos)
        grad = p.transpose(0, 2, 1) @ feats
        grad /= label_pos.shape[1]
        rate, bias = self._penalty_rows(m.shape, 1.0)
        grad += rate * m
        if bias is not None:
            grad -= bias
        if pull is not None:
            grad[:, self.n_old:] -= (2.0 * self.config.gamma) * pull
        terms.gradient_matrix = grad
        return terms


class Objective:
    """One session's training problem: its objective, start rows and data.

    The trainable set is every row up to the current session, laid out in
    ``class_ids`` as the old classes (every class of the earlier sessions,
    ascending), then this session's novel classes (ascending); in the base
    session every row is a novel one. ``start`` is those rows of the given
    start weights, (C, d) in that layout; ``features`` and ``label_pos`` are
    the data's feature rows and each label's row. Old rows stay trainable but
    are anchored by the r_old term to their rows in the given ``anchors``
    table (None without old classes), weighted ``beta_base`` for base classes
    and ``beta_prev_novel`` for later ones. At most one new-class regularizer
    component is given, and none in the base session: a subspace ``basis``, or
    ``targets``, a static row for (at least) every novel class. With neither,
    r_new is 0. ``ObjectiveStack.of`` stacks the checked ``anchors`` (k, d),
    (0, 0) without old classes, ``betas`` (k,), ``targets`` (a row per novel
    class, or None), ``basis`` and ``config``.
    """

    def __init__(self, config: RunConfig, registry: ClassRegistry, session: int,
                 start: WeightMatrix, data: Batch, anchors: WeightMatrix | None = None,
                 basis: OrthonormalBasis | None = None,
                 targets: Mapping[int, np.ndarray] | None = None):
        old = registry.classes_up_to(session - 1) if session > 0 else ()
        novel = registry.classes_in(session)
        self.class_ids = old + novel

        if (basis is not None) + (targets is not None) > (1 if session > 0 else 0):
            raise ConfigError("an objective takes at most one new-class regularizer "
                              "component (a basis or targets), and none in the base session")

        missing = [c for c in old if anchors is None or c not in anchors]
        if missing:
            raise MissingSnapshotError(f"classes {missing} have no anchor row")
        self.config = config
        self.anchors = anchors.subset(old) if old else np.zeros((0, 0))
        self.betas = np.array([config.beta_base if registry.session_of(c) == 0
                               else config.beta_prev_novel for c in old], dtype=np.float64)
        self.basis = basis

        self.targets = None
        if targets is not None:
            missing = [c for c in novel if c not in targets]
            if missing:
                raise MissingTargetError(f"classes {missing} have no regularization target")
            if novel:
                self.targets = np.stack([np.asarray(targets[c], dtype=np.float64) for c in novel])

        dims = {start.dimension, data.dimension}
        dims.update(a.shape[1] for a in (self.anchors, self.targets) if a is not None and a.size)
        if basis is not None:
            dims.add(basis.dimension)
        if len(dims) > 1:
            raise DimensionMismatchError("start rows, data and components have inconsistent "
                                         f"dimensions {sorted(dims)}")

        self.start = start.subset(self.class_ids)
        self.features = data.features
        index = {c: i for i, c in enumerate(self.class_ids)}
        try:
            self.label_pos = np.array([index[c] for c in data.class_ids.tolist()], dtype=np.int64)
        except KeyError as err:
            raise ValidationError(f"class {err.args[0]} not active in session {session}") from None

    def evaluate_dense(self, m: np.ndarray) -> ObjectiveTerms:
        """``ObjectiveStack.evaluate`` of this session alone over its own data;
        ``m`` (C, d) must be aligned to ``self.class_ids``."""
        t = ObjectiveStack.of([self]).evaluate(m[None], self.features[None], self.label_pos[None])
        return ObjectiveTerms(float(t.data_loss[0]), float(t.r_prior[0]), float(t.r_old[0]),
                              float(t.r_new[0]), float(t.total[0]), t.gradient_matrix[0])
