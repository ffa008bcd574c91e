"""The session objective: softmax cross-entropy plus the weight regularizers.

One evaluation reports every term's value and the exact gradient with
respect to the trainable weight rows. The total is a minimization objective:
negative mean log-likelihood plus the scaled penalties.

``ObjectiveStack.evaluate`` is the one implementation. It evaluates a stack
of E same-shaped sessions at once, so many small episodes cost one call.
``Objective`` builds and checks one session's objective; it holds that
session as a stack of one, and ``Objective.evaluate_dense`` is the
stack-of-one view.

Every session lays out its weight rows in one order: the old classes
(ascending), then the session's novel classes (ascending). The penalties only
need to know which rows are old (anchored by r_old) and which are novel
(pulled by r_new), so each group is one slice of the stack.
"""
from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from .datamodel import (
    ClassRegistry,
    OrthonormalBasis,
    RunConfig,
    WeightMatrix,
)
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
    """Loss decomposition and total gradient for one evaluation.

    ``total`` = data_loss + alpha * r_prior + r_old + gamma * r_new, where
    r_old already carries its beta weights and r_new is raw. For a stack the
    terms are (E,) arrays and the gradient is (E, C, d); for one session they
    are floats and the gradient is (C, d), rows in the objective's layout.
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

    Member e trains a (C, d) weight matrix whose rows are laid out old classes
    first, then novel classes. The first ``n_old`` rows are anchored to
    ``anchors[e]`` with weights ``betas[e]``; the rows after them are pulled
    toward the shared subspace ``basis`` or toward ``targets[e]``, and with
    neither r_new is 0. Both groups are plain slices of every member, whatever
    its class ids. Every product is a per-member ``matmul`` and every sum runs
    over one member's own entries, so a member's terms and gradient do not
    depend on the other members of the stack.
    """

    __slots__ = ("config", "n_old", "anchors", "betas", "basis", "targets")

    def __init__(self, config: RunConfig, anchors: np.ndarray, betas: np.ndarray,
                 basis: OrthonormalBasis | None = None, targets: np.ndarray | None = None):
        self.config = config
        self.anchors = anchors        # (E, n_old, d), or (E, 0, 0) without old rows
        self.betas = betas            # (E, n_old)
        self.n_old = betas.shape[1]
        self.basis = basis
        self.targets = targets        # (E, C - n_old, d) or None

    @classmethod
    def concat(cls, stacks: Sequence["ObjectiveStack"]) -> "ObjectiveStack":
        """One stack of every member of ``stacks``, in order. They must share
        the config, the kind of new-class pull and every shape."""
        first = stacks[0]
        for s in stacks[1:]:
            if s._layout() != first._layout() or (
                    s.basis is not None and not np.array_equal(s.basis.matrix, first.basis.matrix)):
                raise ValidationError("stacked objectives need the same config, "
                                      "regularizer and shapes")
        targets = None if first.targets is None else np.concatenate([s.targets for s in stacks])
        return cls(first.config, np.concatenate([s.anchors for s in stacks]),
                   np.concatenate([s.betas for s in stacks]), first.basis, targets)

    def _layout(self) -> tuple:
        return (self.config, self.basis is None, self.anchors.shape[1:],
                None if self.targets is None else self.targets.shape[1:])

    def take(self, members) -> "ObjectiveStack":
        """The sub-stack of the given members (an index or boolean mask)."""
        return ObjectiveStack(self.config, self.anchors[members], self.betas[members], self.basis,
                              None if self.targets is None else self.targets[members])

    def evaluate(self, m: np.ndarray, feats: np.ndarray, label_pos: np.ndarray) -> ObjectiveTerms:
        """Terms and gradients of every member: weights ``m`` (E, C, d),
        features (E, n, d) and label row positions (E, n)."""
        cfg = self.config
        n_members, n = label_pos.shape
        members, rows = np.arange(n_members)[:, None], np.arange(n)

        logits = feats @ m.transpose(0, 2, 1)
        logits -= logits.max(axis=2, keepdims=True)
        expl = np.exp(logits)
        z = expl.sum(axis=2)
        # .mean(axis=1)'s arithmetic (sum, then divide by n) without its wrapper
        data_loss = (np.log(z) - logits[members, rows, label_pos]).sum(axis=1) / n
        p = expl / z[:, :, None]
        p[members, rows, label_pos] -= 1.0
        grad = p.transpose(0, 2, 1) @ feats / n

        rp = (m * m).reshape(n_members, -1).sum(axis=1)
        if cfg.alpha != 0.0:
            grad += (2.0 * cfg.alpha) * m
        # total = data_loss + alpha * rp + ro + gamma * rn, in that order; an
        # absent term adds an exact zero, so it is left out.
        total = data_loss + cfg.alpha * rp
        ro = rn = np.zeros(n_members)
        k = self.n_old

        if k:
            diff = m[:, :k] - self.anchors
            sq = (diff * diff).sum(axis=2)
            ro = (sq[:, None, :] @ self.betas[:, :, None])[:, 0, 0]
            grad[:, :k] += (2.0 * self.betas)[:, :, None] * diff
            total += ro

        if m.shape[1] > k and (self.basis is not None or self.targets is not None):
            mn = m[:, k:]
            if self.basis is not None:
                p = self.basis.matrix
                resid = mn - (mn @ p) @ p.T
            else:
                resid = mn - self.targets
            rn = (resid * resid).reshape(n_members, -1).sum(axis=1)
            if cfg.gamma != 0.0:
                grad[:, k:] += (2.0 * cfg.gamma) * resid
            total += cfg.gamma * rn

        return ObjectiveTerms(data_loss, rp, ro, rn, total, grad)


class Objective:
    """Assembled per-session objective over the classes seen so far.

    The trainable set is every row up to the current session, laid out in
    ``class_ids`` as the old classes (every class of the earlier sessions,
    ascending), then this session's novel classes (ascending); in the base
    session every row is a novel one. Old rows stay trainable but are anchored
    by the r_old term to their rows in ``anchors`` (None without old classes),
    weighted ``beta_base`` for base classes and ``beta_prev_novel`` for later
    ones. At most one new-class regularizer component is given, and none in
    the base session: a subspace ``basis``, or ``targets``, a static row for
    (at least) every novel class. With neither, r_new is 0. ``stack`` is this
    session as an ``ObjectiveStack`` of one member.
    """

    def __init__(self, config: RunConfig, registry: ClassRegistry, session: int,
                 anchors: WeightMatrix | None, basis: OrthonormalBasis | None = None,
                 targets: Mapping[int, np.ndarray] | None = None):
        self.session = session
        old = registry.classes_up_to(session - 1) if session > 0 else ()
        novel = registry.classes_in(session)
        self.class_ids = old + novel
        self._index = {c: i for i, c in enumerate(self.class_ids)}

        if (basis is not None) + (targets is not None) > (1 if session > 0 else 0):
            raise ConfigError("an objective takes at most one new-class regularizer "
                              "component (a basis or targets), and none in the base session")

        missing = [c for c in old if anchors is None or c not in anchors]
        if missing:
            raise MissingSnapshotError(f"classes {missing} have no anchor row")
        anchor_matrix = anchors.subset(old) if old else np.zeros((0, 0))
        betas = [config.beta_base if registry.session_of(c) == 0 else config.beta_prev_novel
                 for c in old]

        target_matrix = None
        if targets is not None:
            missing = [c for c in novel if c not in targets]
            if missing:
                raise MissingTargetError(f"classes {missing} have no regularization target")
            if novel:
                target_matrix = np.stack([np.asarray(targets[c], dtype=np.float64) for c in novel])

        dims = set()
        if anchor_matrix.size:
            dims.add(anchor_matrix.shape[1])
        if basis is not None:
            dims.add(basis.dimension)
        if target_matrix is not None:
            dims.add(target_matrix.shape[1])
        if len(dims) > 1:
            raise DimensionMismatchError(f"inconsistent component dimensions {sorted(dims)}")

        self.stack = ObjectiveStack(
            config, anchor_matrix[None], np.array(betas, dtype=np.float64)[None], basis,
            None if target_matrix is None else target_matrix[None])

    def label_rows(self, class_ids: np.ndarray) -> np.ndarray:
        """The row of each label in this session's layout, ``class_ids``."""
        try:
            return np.array([self._index[int(c)] for c in class_ids], dtype=np.int64)
        except KeyError as err:
            raise ValidationError(f"class {err.args[0]} not active in session {self.session}") from None

    def evaluate_dense(self, m: np.ndarray, feats: np.ndarray,
                       label_pos: np.ndarray) -> ObjectiveTerms:
        """``ObjectiveStack.evaluate`` of this session alone; ``m`` (C, d) must
        be aligned to ``self.class_ids``."""
        t = self.stack.evaluate(m[None], feats[None], label_pos[None])
        return ObjectiveTerms(float(t.data_loss[0]), float(t.r_prior[0]), float(t.r_old[0]),
                              float(t.r_new[0]), float(t.total[0]), t.gradient_matrix[0])
