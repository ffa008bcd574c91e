"""The session objective: softmax cross-entropy plus the weight regularizers.

One evaluation reports every term's value and the exact gradient with
respect to the trainable weight rows. The total is a minimization objective:
negative mean log-likelihood plus the scaled penalties.
"""
from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from .datamodel import (
    Batch,
    ClassRegistry,
    OrthonormalBasis,
    RunConfig,
    WeightMatrix,
    WeightSnapshots,
)
from .errors import (
    ConfigError,
    DimensionMismatchError,
    MissingSnapshotError,
    MissingTargetError,
    ValidationError,
)

FIXED_TARGET_KINDS = ("semantic", "linmap", "description")


def _softmax_ce(m: np.ndarray, feats: np.ndarray, label_pos: np.ndarray):
    """Mean negative log softmax over the rows of ``m``; returns (value, grad)."""
    logits = feats @ m.T
    logits -= logits.max(axis=1, keepdims=True)
    expl = np.exp(logits)
    z = expl.sum(axis=1)
    n = feats.shape[0]
    rows = np.arange(n)
    value = float((np.log(z) - logits[rows, label_pos]).mean())
    p = expl / z[:, None]
    p[rows, label_pos] -= 1.0
    return value, p.T @ feats / n


def semantic_targets(novel_embeddings: Mapping[int, np.ndarray],
                     base_embeddings: Mapping[int, np.ndarray],
                     base_weights: WeightMatrix, tau: float) -> dict[int, np.ndarray]:
    """Similarity-weighted combinations of base rows, one target per novel class.

    Weights are a temperature-tau softmax of embedding inner products over the
    base classes (max-subtracted for stability). Targets are static: they are
    computed once per session and held constant during fine-tuning.
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
    r_old already carries its beta weights and r_new is raw.
    """

    __slots__ = ("data_loss", "r_prior", "r_old", "r_new", "total",
                 "class_ids", "gradient_matrix", "_gradient_dict")

    def __init__(self, data_loss, r_prior, r_old, r_new, total, class_ids, gradient_matrix):
        self.data_loss = data_loss
        self.r_prior = r_prior
        self.r_old = r_old
        self.r_new = r_new
        self.total = total
        self.class_ids = class_ids
        self.gradient_matrix = gradient_matrix
        self._gradient_dict = None

    @property
    def gradient(self) -> dict[int, np.ndarray]:
        if self._gradient_dict is None:
            self._gradient_dict = {c: self.gradient_matrix[i].copy()
                                   for i, c in enumerate(self.class_ids)}
        return self._gradient_dict


class Objective:
    """Assembled per-session objective over the classes seen so far.

    The trainable set is every row up to the current session; old rows stay
    trainable but are anchored by the r_old term. Exactly one new-class
    regularizer is active, selected by ``config.regularizer_kind``:
    ``subspace`` needs a basis, the fixed-target kinds need a target map, and
    ``finetune`` needs neither.
    """

    def __init__(self, config: RunConfig, registry: ClassRegistry, session: int,
                 snapshots: WeightSnapshots, basis: OrthonormalBasis | None = None,
                 targets: Mapping[int, np.ndarray] | None = None):
        self.config = config
        self.registry = registry
        self.session = session
        self.class_ids = registry.classes_up_to(session)
        self._index = {c: i for i, c in enumerate(self.class_ids)}
        kind = config.regularizer_kind

        if session == 0:
            if basis is not None or targets is not None:
                raise ConfigError("the base session takes no new-class regularizer components")
        elif kind == "subspace":
            if basis is None or targets is not None:
                raise ConfigError("subspace regularization needs a basis and no fixed targets")
        elif kind in FIXED_TARGET_KINDS:
            if targets is None or basis is not None:
                raise ConfigError(f"{kind} regularization needs fixed targets and no basis")
        elif kind == "finetune":
            if basis is not None or targets is not None:
                raise ConfigError("plain fine-tuning takes no new-class regularizer components")

        # Anchors for all previously seen classes.
        old = registry.classes_up_to(session - 1) if session > 0 else ()
        self._old_pos = np.array([self._index[c] for c in old], dtype=np.int64)
        anchors = []
        betas = []
        for c in old:
            t = registry.session_of(c)
            snap = snapshots.get(t)
            if c not in snap:
                raise MissingSnapshotError(f"snapshot {t} does not cover class {c}")
            anchors.append(snap.row(c))
            betas.append(config.beta_base if t == 0 else config.beta_prev_novel)
        self._anchors = np.stack(anchors) if anchors else np.zeros((0, 0))
        self._betas = np.array(betas, dtype=np.float64)

        novel = registry.classes_in(session) if session > 0 else ()
        self._novel_pos = np.array([self._index[c] for c in novel], dtype=np.int64)
        self._basis = basis if session > 0 and kind == "subspace" else None
        self._target_matrix = None
        if session > 0 and kind in FIXED_TARGET_KINDS:
            missing = [c for c in novel if c not in targets]
            if missing:
                raise MissingTargetError(f"classes {missing} have no regularization target")
            if novel:
                self._target_matrix = np.stack(
                    [np.asarray(targets[c], dtype=np.float64) for c in novel])

        dims = set()
        if self._anchors.size:
            dims.add(self._anchors.shape[1])
        if self._basis is not None:
            dims.add(self._basis.dimension)
        if self._target_matrix is not None:
            dims.add(self._target_matrix.shape[1])
        if len(dims) > 1:
            raise DimensionMismatchError(f"inconsistent component dimensions {sorted(dims)}")
        self._dimension = dims.pop() if dims else None

    def label_positions(self, class_ids: np.ndarray) -> np.ndarray:
        try:
            return np.array([self._index[int(c)] for c in class_ids], dtype=np.int64)
        except KeyError as err:
            raise ValidationError(f"class {err.args[0]} not active in session {self.session}") from None

    def evaluate_dense(self, m: np.ndarray, feats: np.ndarray,
                       label_pos: np.ndarray) -> ObjectiveTerms:
        """Fast path: ``m`` must be aligned to ``self.class_ids``."""
        cfg = self.config
        data_loss, grad = _softmax_ce(m, feats, label_pos)

        rp = float((m * m).sum())
        if cfg.alpha != 0.0:
            grad += (2.0 * cfg.alpha) * m

        ro = 0.0
        if self._old_pos.size:
            diff = m[self._old_pos] - self._anchors
            sq = (diff * diff).sum(axis=1)
            ro = float(self._betas @ sq)
            grad[self._old_pos] += (2.0 * self._betas)[:, None] * diff

        rn = 0.0
        if self._novel_pos.size and cfg.regularizer_kind != "finetune" and self.session > 0:
            mn = m[self._novel_pos]
            if self._basis is not None:
                p = self._basis.matrix
                resid = mn - (mn @ p) @ p.T
            else:
                resid = mn - self._target_matrix
            rn = float((resid * resid).sum())
            if cfg.gamma != 0.0:
                grad[self._novel_pos] += (2.0 * cfg.gamma) * resid

        total = data_loss + cfg.alpha * rp + ro + cfg.gamma * rn
        return ObjectiveTerms(data_loss, rp, ro, rn, total, self.class_ids, grad)

    def evaluate(self, weights: WeightMatrix, batch: Batch) -> ObjectiveTerms:
        if self._dimension is not None and weights.dimension != self._dimension:
            raise DimensionMismatchError(
                f"weight dimension {weights.dimension} != component dimension {self._dimension}")
        if batch.dimension != weights.dimension:
            raise DimensionMismatchError(
                f"batch dimension {batch.dimension} != weight dimension {weights.dimension}")
        m = weights.subset(self.class_ids)
        return self.evaluate_dense(m, batch.features, self.label_positions(batch.class_ids))
