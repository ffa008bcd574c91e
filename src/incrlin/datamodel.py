"""Domain types: feature stores, class registries, weights, embeddings, memory.

Every table (``Batch``, ``FeatureStore``, ``WeightMatrix``, ``OrthonormalBasis``,
``EmbeddingTable``, ``LinearMap``) checks the arrays it is given, takes them
over without a copy and makes them read-only; only a dtype conversion copies.
So a table, an anchor table included, never changes once built, and a
caller's float64 array is read-only once handed to one.

Examples travel as a ``Batch`` (an (n, d) float64 feature matrix and its
class ids), the only example type. A ``FeatureStore`` is one matrix of rows
sorted by class and split, plus per-class row offsets; the matrix keeps the
dtype its rows were read in (float32 from the binary format, float64
otherwise), and every ``Batch`` it hands out is float64. ``from_rows``
copies and sorts any row table into a float64 matrix; the constructor takes
over a sorted one.
Every way in ends in the constructor, which checks the values (non-negative
class ids, a query row per class, finite entries), while ``io`` checks only
the file layout. Single vectors (weight rows, embeddings) are checked by
``as_feature``.
"""
from __future__ import annotations

import dataclasses
import functools
import numbers
from collections.abc import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    ConfigError,
    DimensionMismatchError,
    DisjointClassError,
    MissingEmbeddingError,
    MissingExampleError,
    ValidationError,
)

REGULARIZER_KINDS = ("finetune", "subspace", "semantic", "linmap", "description")
# The kinds that pull each new row toward a static target row of its own.
FIXED_TARGET_KINDS = ("semantic", "linmap", "description")


def as_feature(values, dimension: int | None = None) -> np.ndarray:
    """Coerce to a finite 1-D float64 vector, optionally checking its length."""
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1 or v.size == 0:
        raise ValidationError(f"feature must be a non-empty 1-D vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValidationError("feature contains non-finite entries")
    if dimension is not None and v.shape[0] != dimension:
        raise DimensionMismatchError(f"feature has dimension {v.shape[0]}, expected {dimension}")
    return v


def _read_only(*arrays: np.ndarray) -> None:
    """Take over checked arrays: no one writes them from here on."""
    for a in arrays:
        a.setflags(write=False)


@dataclasses.dataclass(frozen=True, eq=False)
class Batch:
    """Stacked examples: features (n, d) and class ids (n,)."""

    features: np.ndarray
    class_ids: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.features, dtype=np.float64)
        c = np.asarray(self.class_ids)
        if c.dtype.kind not in "iu":
            raise ValidationError(f"batch class ids must be integers, got {c.dtype}")
        c = c.astype(np.int64, copy=False)
        if f.ndim != 2 or c.ndim != 1 or f.shape[0] != c.shape[0]:
            raise ValidationError(f"inconsistent batch shapes {f.shape} / {c.shape}")
        if f.shape[0] == 0:
            raise ValidationError("batch is empty")
        if not np.all(np.isfinite(f)):
            raise ValidationError("batch features contain non-finite entries")
        _read_only(f, c)
        object.__setattr__(self, "features", f)
        object.__setattr__(self, "class_ids", c)

    @classmethod
    def concat(cls, batches: Sequence["Batch"]) -> "Batch":
        """Rows of every batch, in the given order."""
        return cls(np.concatenate([b.features for b in batches]),
                   np.concatenate([b.class_ids for b in batches]))

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def dimension(self) -> int:
        return self.features.shape[1]


# Rows are checked, copied, read and written about this many bytes at a time.
BLOCK_BYTES = 1 << 21


def row_blocks(n: int, row_bytes: int) -> list[tuple[int, int]]:
    """(start, stop) of consecutive blocks of ``n`` rows, about ``BLOCK_BYTES`` each."""
    step = max(1, BLOCK_BYTES // row_bytes)
    return [(s, min(s + step, n)) for s in range(0, n, step)]


def _check_row_table(dimension: int, ids: np.ndarray, flags: np.ndarray,
                     features: np.ndarray) -> None:
    """Shapes of a row table: ids (n,), flags (n,), features (n, ``dimension``)."""
    if ids.ndim != 1 or flags.shape != ids.shape or features.ndim != 2 \
            or features.shape[0] != ids.size:
        raise ValidationError(
            f"inconsistent row table shapes {ids.shape} / {flags.shape} / {features.shape}")
    if dimension <= 0:
        raise ValidationError(f"dimension must be positive, got {dimension}")
    if features.shape[1] != dimension:
        raise DimensionMismatchError(
            f"features have dimension {features.shape[1]}, store dimension {dimension}")


class FeatureStore:
    """Class-labeled feature vectors split into a support pool and a query pool.

    One (n, d) float32 or float64 matrix holds the rows, sorted by class,
    then split (support first), each pool in table order; per-class row
    offsets locate the pools, and ``support``, ``query`` and ``to_rows`` are
    views of it, in its dtype. ``support_examples`` and
    ``query_batch`` gather into a fresh float64 ``Batch``. Every class has a
    query example; support pools may be empty.
    ``from_rows`` copies and sorts any row table, and the constructor takes
    over a sorted one.
    """

    def __init__(self, dimension: int, class_ids: np.ndarray, is_query: np.ndarray,
                 matrix: np.ndarray):
        """Take over a row table already sorted by class, then split (support
        first): integer class ids (n,), bool query flags (n,) and an (n, d)
        float32 or float64 ``matrix``."""
        ids, flags, matrix = np.asarray(class_ids), np.asarray(is_query), np.asarray(matrix)
        if ids.dtype.kind not in "iu" or flags.dtype != bool \
                or matrix.dtype not in (np.float32, np.float64):
            raise ValidationError(f"row table must be integer class ids, bool query flags and "
                                  f"float32 or float64 features, got {ids.dtype} / "
                                  f"{flags.dtype} / {matrix.dtype}")
        _check_row_table(dimension, ids, flags, matrix)
        if ids.size == 0:
            raise ValidationError("feature store has no classes")
        same = ids[1:] == ids[:-1]
        if not np.all((ids[1:] > ids[:-1]) | (same & (flags[1:] >= flags[:-1]))):
            raise ValidationError("row table is not sorted by class and split")
        if ids[0] < 0:
            raise ValidationError(f"class ids must be non-negative, got {ids[0]}")
        starts = np.flatnonzero(np.concatenate([[True], ~same]))
        ends = np.append(starts[1:], ids.size)
        query_starts = starts + np.add.reduceat(~flags, starts)
        no_query = np.flatnonzero(query_starts == ends)
        if no_query.size:
            raise MissingExampleError(f"class {ids[starts[no_query[0]]]} has no query examples")
        for s, e in row_blocks(ids.size, matrix.itemsize * dimension):
            bad = ~np.isfinite(matrix[s:e]).all(axis=1)
            if bad.any():
                raise ValidationError(f"class {ids[s + bad.argmax()]}: non-finite feature entries")
        _read_only(ids, flags, matrix)
        self._dimension = int(dimension)
        self._ids, self._flags, self._matrix = ids, flags, matrix
        self._classes = tuple(ids[starts].tolist())
        self._index = {c: i for i, c in enumerate(self._classes)}
        self._offsets = np.stack([starts, query_starts, ends], axis=1)  # (classes, 3)

    @classmethod
    def from_rows(cls, dimension: int, class_ids, is_query, features) -> "FeatureStore":
        """Build from a row table in any order: class ids (n,), query flags (n,)
        and features (n, d), copied into a fresh float64 matrix sorted by class
        and split. Rows keep their table order within each class and split."""
        ids = np.asarray(class_ids, dtype=np.int64)
        flags = np.asarray(is_query, dtype=bool)
        feats = np.asarray(features, dtype=np.float64)
        _check_row_table(dimension, ids, flags, feats)
        order = np.lexsort((flags, ids))  # by class, support first; stable
        return cls(dimension, ids[order], flags[order], feats[order])

    @property
    def dimension(self) -> int:
        return self._dimension

    @property
    def classes(self) -> tuple[int, ...]:
        return self._classes

    def _span(self, class_id: int) -> list[int]:
        """[first support row, first query row, end] of a class."""
        try:
            return self._offsets[self._index[class_id]].tolist()
        except KeyError:
            raise MissingExampleError(f"class {class_id} not in store") from None

    def _gather(self, spans) -> Batch:
        """The rows in the given (start, stop) ranges, in order, as a
        ``Batch``: cast to float64 in the one copy that stacks them."""
        spans = list(spans) or [(0, 0)]
        return Batch(np.concatenate([self._matrix[s:e] for s, e in spans], dtype=np.float64),
                     np.concatenate([self._ids[s:e] for s, e in spans]))

    def support(self, class_id: int) -> np.ndarray:
        start, query_start, _ = self._span(class_id)
        return self._matrix[start:query_start]

    def query(self, class_id: int) -> np.ndarray:
        _, query_start, end = self._span(class_id)
        return self._matrix[query_start:end]

    def query_rows(self, positions: np.ndarray, u: np.ndarray) -> np.ndarray:
        """For each class ``classes[p]`` and u in [0, 1), its query row
        ``int(u * query pool size)``: one gather."""
        _, first, end = self._offsets[positions].T
        return self._matrix[first + (u * (end - first)).astype(np.int64)]

    def restrict(self, class_ids: Iterable[int]) -> "FeatureStore":
        """Sub-store of the given classes: a view if their rows are one run, else a gather."""
        ids = sorted(set(int(c) for c in class_ids))
        missing = [c for c in ids if c not in self._index]
        if missing:
            raise MissingExampleError(f"classes {missing} not in store")
        rows = np.flatnonzero(np.isin(self._ids, ids))
        if rows.size and rows[-1] - rows[0] == rows.size - 1:
            rows = slice(rows[0], rows[-1] + 1)
        return FeatureStore(self._dimension, self._ids[rows], self._flags[rows], self._matrix[rows])

    def support_examples(self, class_ids: Iterable[int], k: int | None = None) -> Batch:
        """Support examples of the given classes, stacked in ascending class
        order; the first ``k`` per class if set."""
        spans = []
        for c in sorted(set(class_ids)):
            start, query_start, _ = self._span(c)
            if k is not None and query_start - start < k:
                raise MissingExampleError(
                    f"class {c} has {query_start - start} support examples, need {k}")
            spans.append((start, query_start if k is None else start + k))
        if all(s == e for s, e in spans):
            raise MissingExampleError("no support examples for the requested classes")
        return self._gather(spans)

    def query_batch(self, class_ids: Iterable[int]) -> Batch:
        """All query examples of the given classes, stacked in the order the
        classes are first given."""
        return self._gather(self._span(c)[1:] for c in dict.fromkeys(class_ids))

    def to_rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The store as a read-only row table (class ids, query flags, features):
        classes ascending, each class's support rows before its query rows."""
        return self._ids, self._flags, self._matrix


class ClassRegistry:
    """Ordered record of which classes were introduced at which session.

    Immutable. Session class sets are pairwise disjoint and session indices
    are contiguous from 0.
    """

    def __init__(self, sessions: Sequence[Iterable[int]]):
        if len(sessions) == 0:
            raise ValidationError("registry needs at least a base session")
        self._sessions: tuple[tuple[int, ...], ...] = tuple(
            tuple(sorted(int(c) for c in s)) for s in sessions)
        self._session_of: dict[int, int] = {}
        for t, classes in enumerate(self._sessions):
            for c in classes:
                if c < 0:
                    raise ValidationError(f"class ids must be non-negative, got {c}")
                if c in self._session_of:
                    raise DisjointClassError(
                        f"class {c} appears in sessions {self._session_of[c]} and {t}")
                self._session_of[c] = t

    @property
    def n_sessions(self) -> int:
        return len(self._sessions)

    @property
    def base_classes(self) -> tuple[int, ...]:
        return self._sessions[0]

    def classes_in(self, session: int) -> tuple[int, ...]:
        if not 0 <= session < len(self._sessions):
            raise ValidationError(f"session {session} not registered")
        return self._sessions[session]

    def classes_up_to(self, session: int) -> tuple[int, ...]:
        """All classes introduced in sessions 0..session, ascending."""
        if not 0 <= session < len(self._sessions):
            raise ValidationError(f"session {session} not registered")
        return tuple(sorted(c for s in self._sessions[:session + 1] for c in s))

    @property
    def all_classes(self) -> tuple[int, ...]:
        return self.classes_up_to(len(self._sessions) - 1)

    def session_of(self, class_id: int) -> int:
        try:
            return self._session_of[class_id]
        except KeyError:
            raise ValidationError(f"class {class_id} not registered") from None


class WeightMatrix:
    """Per-class weight vectors, one row per class in insertion order, no
    bias term."""

    def __init__(self, class_ids: Sequence[int], matrix: np.ndarray):
        ids = tuple(int(c) for c in class_ids)
        if len(set(ids)) != len(ids):
            raise ValidationError("duplicate class ids in weight matrix")
        m = np.asarray(matrix, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != len(ids):
            raise ValidationError(
                f"matrix shape {m.shape} does not match {len(ids)} classes")
        if m.shape[1] == 0:
            raise ValidationError("weight dimension must be positive")
        if not np.all(np.isfinite(m)):
            raise ValidationError("weight matrix contains non-finite entries")
        _read_only(m)
        self._ids = ids
        self._index = {c: i for i, c in enumerate(ids)}
        self._m = m

    @property
    def class_ids(self) -> tuple[int, ...]:
        return self._ids

    @property
    def dimension(self) -> int:
        return self._m.shape[1]

    @property
    def matrix(self) -> np.ndarray:
        return self._m

    def __contains__(self, class_id: int) -> bool:
        return class_id in self._index

    def __len__(self) -> int:
        return len(self._ids)

    def row(self, class_id: int) -> np.ndarray:
        try:
            return self._m[self._index[class_id]]
        except KeyError:
            raise ValidationError(f"class {class_id} has no weight row") from None

    def subset(self, class_ids: Sequence[int]) -> np.ndarray:
        """Rows for the given classes, in the given order (a fresh array)."""
        try:
            idx = [self._index[c] for c in class_ids]
        except KeyError:
            missing = [int(c) for c in class_ids if c not in self._index]
            raise ValidationError(f"classes {missing} have no weight row") from None
        return self._m[idx]

    def with_rows(self, rows: Mapping[int, np.ndarray]) -> "WeightMatrix":
        """New matrix with additional rows appended (existing rows untouched)."""
        dup = [c for c in rows if c in self._index]
        if dup:
            raise ValidationError(f"classes {dup} already have weight rows")
        new_ids = self._ids + tuple(int(c) for c in rows)
        extra = np.stack([as_feature(rows[c], self.dimension) for c in rows])
        return WeightMatrix(new_ids, np.concatenate([self._m, extra], axis=0))

    def norms(self) -> np.ndarray:
        return np.linalg.norm(self._m, axis=1)


class OrthonormalBasis:
    """Matrix with orthonormal columns spanning a weight subspace."""

    ORTHO_TOL = 1e-6

    def __init__(self, matrix: np.ndarray):
        p = np.asarray(matrix, dtype=np.float64)
        if p.ndim != 2 or p.shape[0] == 0 or p.shape[1] == 0:
            raise ValidationError(f"basis must be a non-empty 2-D matrix, got shape {p.shape}")
        if p.shape[1] > p.shape[0]:
            raise ValidationError(f"basis has more columns ({p.shape[1]}) than rows ({p.shape[0]})")
        gram = p.T @ p
        if np.max(np.abs(gram - np.eye(p.shape[1]))) > self.ORTHO_TOL:
            raise ValidationError("basis columns are not orthonormal")
        _read_only(p)
        self._p = p

    @property
    def matrix(self) -> np.ndarray:
        return self._p

    @property
    def dimension(self) -> int:
        return self._p.shape[0]


class EmbeddingTable:
    """Per-class semantic vectors (of the class labels or descriptions)."""

    def __init__(self, vectors: Mapping[int, np.ndarray]):
        if not vectors:
            raise ValidationError("embedding table is empty")
        items = {int(c): as_feature(v) for c, v in vectors.items()}
        dims = {v.shape[0] for v in items.values()}
        if len(dims) != 1:
            raise DimensionMismatchError(f"inconsistent embedding dimensions {sorted(dims)}")
        _read_only(*items.values())
        self._vectors = items

    @property
    def classes(self) -> tuple[int, ...]:
        return tuple(sorted(self._vectors))

    def vector(self, class_id: int) -> np.ndarray:
        try:
            return self._vectors[class_id]
        except KeyError:
            raise MissingEmbeddingError(f"class {class_id} has no embedding") from None

    def subset(self, class_ids: Iterable[int]) -> dict[int, np.ndarray]:
        return {c: self.vector(c) for c in class_ids}

    def __contains__(self, class_id: int) -> bool:
        return class_id in self._vectors


def update_memory(memory: Batch | None, support: Batch, rng: np.random.Generator,
                  expected_classes: Iterable[int]) -> Batch:
    """Archive one uniformly chosen support example per new class.

    ``memory`` (None before the first archive) holds one example per archived
    class in archive order; its rows are kept verbatim and the new ones
    appended. ``expected_classes`` is the class set the support must cover.
    """
    present = np.unique(support.class_ids).tolist()
    missing = sorted(set(expected_classes) - set(present))
    if missing:
        raise MissingExampleError(f"no support examples for classes {missing}")
    if memory is not None:
        overlap = sorted(set(present) & set(memory.class_ids.tolist()))
        if overlap:
            raise ValidationError(f"classes {overlap} already archived in memory")
    picked = []
    for c in present:
        pool = np.flatnonzero(support.class_ids == c)
        picked.append(pool[int(rng.integers(pool.size))])
    new = Batch(support.features[picked], support.class_ids[picked])
    return new if memory is None else Batch.concat([memory, new])


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Hyperparameters for one run: regularizer choice, coefficients, optimizer."""

    regularizer_kind: str = "finetune"
    alpha: float = 5e-3
    beta_base: float = 0.2
    beta_prev_novel: float = 0.1
    gamma: float = 0.0
    tau: float = 3.0
    learning_rate: float = 0.002
    max_epochs: int = 1000
    convergence_tolerance: float = 1e-4
    patience_epochs: int = 10
    memory_enabled: bool = False
    rng_seed: int = 0

    def __post_init__(self):
        kind = self.regularizer_kind
        if not isinstance(kind, str) or kind not in REGULARIZER_KINDS:
            raise ConfigError(f"unknown regularizer kind {kind!r}; "
                              f"expected one of {REGULARIZER_KINDS}")
        for name in ("max_epochs", "patience_epochs", "rng_seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if not isinstance(self.memory_enabled, bool):
            raise ConfigError(f"memory_enabled must be true or false, got {self.memory_enabled!r}")
        for name in ("alpha", "beta_base", "beta_prev_novel", "gamma", "tau",
                     "learning_rate", "convergence_tolerance"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real) \
                    or not 0 <= value < float("inf"):
                raise ConfigError(f"{name} must be a finite non-negative number, got {value!r}")
        if self.patience_epochs < 1:
            raise ConfigError(f"patience_epochs must be >= 1, got {self.patience_epochs}")
        if self.max_epochs < 1:
            raise ConfigError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if self.rng_seed < 0:
            raise ConfigError(f"rng_seed must be non-negative, got {self.rng_seed}")

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclasses.dataclass(frozen=True, eq=False)
class LinearMap:
    """Affine map from embedding space to weight space: e -> matrix @ e + bias."""

    matrix: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.float64)
        b = np.asarray(self.bias, dtype=np.float64)
        if m.ndim != 2 or b.ndim != 1 or m.shape[0] != b.shape[0]:
            raise ValidationError(f"inconsistent map shapes {m.shape} / {b.shape}")
        if not (np.all(np.isfinite(m)) and np.all(np.isfinite(b))):
            raise ValidationError("linear map contains non-finite entries")
        _read_only(m, b)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "bias", b)

    def apply(self, embedding: np.ndarray) -> np.ndarray:
        e = as_feature(embedding, self.matrix.shape[1])
        return self.matrix @ e + self.bias


class SessionStream:
    """One run's data, which both protocols take: store, session plan, config,
    optional embeddings, and ``k_shot``, the support examples per novel class.
    A multi-session run trains each incremental session on the first k of each
    class (None: all; the base session uses its full pool); a single-session
    run needs k, and each episode draws k per class. The stream keeps the
    query rows a multi-session run is scored on, gathered once
    (``query_batch_up_to``)."""

    def __init__(self, store: FeatureStore, registry: ClassRegistry, config: RunConfig,
                 embeddings: EmbeddingTable | None = None, k_shot: int | None = None):
        missing = [c for c in registry.all_classes if c not in store.classes]
        if missing:
            raise MissingExampleError(f"registered classes {missing} absent from the store")
        if k_shot is not None and k_shot < 1:
            raise ValidationError(f"k_shot must be >= 1, got {k_shot}")
        self.store = store
        self.registry = registry
        self.config = config
        self.embeddings = embeddings
        self.k_shot = k_shot

    def support_examples(self, session: int) -> Batch:
        classes = self.registry.classes_in(session)
        k = None if session == 0 else self.k_shot
        return self.store.support_examples(classes, k=k)

    @functools.cached_property
    def _queries(self) -> tuple[Batch, list[int]]:
        """The run's query batch and the row at which each session's classes
        end in it."""
        plan = [self.registry.classes_in(t) for t in range(self.registry.n_sessions)]
        batch = self.store.query_batch(c for classes in plan for c in classes)
        rows = [sum(self.store.query(c).shape[0] for c in classes) for classes in plan]
        return batch, np.cumsum(rows).tolist()

    def query_batch_up_to(self, session: int) -> Batch:
        """The query examples of every class of sessions 0 to ``session``: a
        view of a prefix of the run's query batch, which holds the query rows
        of each session's classes (ascending), session after session. That
        batch is gathered into float64 once, at the first call."""
        self.registry.classes_in(session)  # a session the plan has
        batch, ends = self._queries
        return Batch(batch.features[:ends[session]], batch.class_ids[:ends[session]])
