"""Evaluation protocols: the multi-session incremental run and the episodic
single-session run, plus all accuracy / confusion / interference metrics.

Both protocols take the run's ``SessionStream`` and optional base weights.
Each checks its own inputs (the multi-session support pools, the episode
shape), then calls ``prepare_run``: it checks the regularizer's inputs, then
fits the base weights if none were given, then builds the set-up the run
shares.

The episodic run gives each CPU the process may run on an even share of the
episodes, in even chunks that fit ``EPISODE_BUDGET``, and trains the chunks
with ``pool.fork_map``: in forked worker processes, or serially on one CPU,
where ``fork`` is unavailable, or beside other threads. A chunk
(``_episode_chunk``) samples its episodes and imprints their novel rows, each
from its own ``SeedSequence((seed, i))`` streams, then fine-tunes them as one
stack (``trainer.fine_tune_stack``) and scores every episode on its own. Its one
outcome list holds a failed episode's error (a sampling shortfall, a query
set that misses the base or the novel group, or a diverged fine-tune) in the
episode's place; the run counts it and leaves it out of the aggregates.
Outcomes and aggregates are taken in episode order, so neither the result
nor the failure an all-failed run names depends on the chunk size or the
worker count. The multi-session run fine-tunes one session at a time, as a
stack of one, and raises its ``DivergenceError``. Both build each session's
training problem, an ``Objective``, in ``_session_problem``.

Accuracies are percentages in [0, 100] throughout.
"""
from __future__ import annotations

import dataclasses
import functools
from collections.abc import Iterable, Sequence

import numpy as np

from . import pool
from .datamodel import (
    FIXED_TARGET_KINDS,
    Batch,
    ClassRegistry,
    FeatureStore,
    OrthonormalBasis,
    RunConfig,
    SessionStream,
    WeightMatrix,
    update_memory,
)
from .errors import (
    ConfigError,
    DimensionMismatchError,
    DivergenceError,
    EngineError,
    MissingEmbeddingError,
    MissingExampleError,
    ValidationError,
)
from .linalg import fit_least_squares, orthonormal_basis
from .objectives import Objective, semantic_targets
from .trainer import fine_tune_stack, init_novel_weights, train_base

# Weight entries (C * d per episode) fine-tuned together as one stack by
# ``run_single_session``: each CPU's even share of the episodes is cut into
# the fewest even stacks of at most max(1, EPISODE_BUDGET // (C * d)). Each
# step has a fixed cost, so one stack per worker beats several smaller ones
# (40 episodes on 2 CPUs, median of 8 calls: 0.27 s as four stacks of 10,
# 0.20 s as two of 20), and even stacks end together (200 episodes on 2
# CPUs, median of 12 calls: finetune 0.635 s as six stacks of <= 34 against
# 0.667 s as five of 40; subspace 0.81 s either way). Results do not depend
# on it: each episode's arithmetic is its own.
# The budget is 40 episodes of 5-way 1-shot over 20 base classes at d=32
# (C=25): of 24, 40, 64 and 80, the smallest stack within noise of the
# fastest over 200 episodes; stacks of 64 and 80 page-faulted on every step.
# With 64 base classes at d=640, a stack of 24 ran 1.6-2.2x slower than one
# episode at a time (its passes over (E, C, d) outgrow the cache); the budget
# gives that shape chunks of one. The chunk is sized on C * d even when episodes
# train in span coordinates (5-way episodes at d=640 do, see
# ``trainer.use_span``): their set-up and final weights are still (E, C, d),
# and no benchmark workload runs them to measure a budget on C * r.
EPISODE_BUDGET = 40 * 25 * 32


def predict(weights: WeightMatrix, features: np.ndarray,
            active_classes: Iterable[int]) -> np.ndarray:
    """Top-1 class ids under bias-free logits; ties go to the lowest class id."""
    order = sorted(set(active_classes))
    m = weights.subset(order)
    logits = np.asarray(features, dtype=np.float64) @ m.T
    return np.array(order, dtype=np.int64)[np.argmax(logits, axis=1)]


def accuracy(golds: np.ndarray, preds: np.ndarray) -> float:
    """Percent agreement."""
    golds = np.asarray(golds)
    if golds.size == 0:
        raise MissingExampleError("no examples to score")
    return 100.0 * float(np.mean(golds == np.asarray(preds)))


@dataclasses.dataclass(frozen=True, eq=False)
class Confusion:
    """Count matrix indexed (gold, predicted) over ascending class ids."""

    class_ids: tuple[int, ...]
    counts: np.ndarray


def _count_confusion(golds: np.ndarray, preds: np.ndarray, order: Sequence[int]) -> Confusion:
    """Confusion counts of predictions; ``order`` is ascending and holds every
    gold and predicted class."""
    k = len(order)
    counts = np.zeros((k, k), dtype=np.int64)
    np.add.at(counts, (np.searchsorted(order, golds), np.searchsorted(order, preds)), 1)
    return Confusion(tuple(order), counts)


def weighted_accuracy(acc_base: float, acc_novel: float | None,
                      n_base_classes: int, n_novel_classes: int) -> float:
    """Base and novel group accuracies combined by group class counts."""
    if n_novel_classes == 0 or acc_novel is None:
        return acc_base
    total = n_base_classes + n_novel_classes
    return (n_base_classes * acc_base + n_novel_classes * acc_novel) / total


@dataclasses.dataclass(frozen=True, eq=False)
class SessionResult:
    session: int
    acc_base: float
    acc_novel: float | None
    acc_weighted: float
    per_class_accuracy: dict[int, float]
    confusion: Confusion | None
    n_query: int

    def as_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        out["per_class_accuracy"] = {str(c): v for c, v in self.per_class_accuracy.items()}
        conf = out.pop("confusion")
        if conf is not None:
            out["confusion"] = {"class_ids": list(conf.class_ids), "counts": conf.counts.tolist()}
        return out


def _evaluate_session(weights: WeightMatrix, query: Batch, registry: ClassRegistry,
                      session: int, collect_confusion: bool) -> SessionResult:
    active = registry.classes_up_to(session)
    base = set(registry.base_classes)
    golds = query.class_ids
    preds = predict(weights, query.features, active)

    base_mask = np.isin(golds, sorted(base))
    acc_base = accuracy(golds[base_mask], preds[base_mask])
    novel_classes = [c for c in active if c not in base]
    acc_novel = None
    if novel_classes and (~base_mask).any():
        acc_novel = accuracy(golds[~base_mask], preds[~base_mask])
    acc_w = weighted_accuracy(acc_base, acc_novel, len(base), len(novel_classes))

    per_class: dict[int, float] = {}
    for c in active:
        mask = golds == c
        if mask.any():
            per_class[c] = accuracy(golds[mask], preds[mask])
    conf = _count_confusion(golds, preds, active) if collect_confusion else None
    return SessionResult(session, acc_base, acc_novel, acc_w, per_class, conf, len(query))


# --- the session step both protocols share ----------------------------------


@dataclasses.dataclass(frozen=True, eq=False)
class RunSetup:
    """What every session of a run shares: the config, the base weights
    (snapshot 0, frozen: the first anchor table) and the new-class
    regularizer's one component, if any: the subspace ``basis``, or the static
    ``targets`` row of every novel class of the run."""

    config: RunConfig
    snapshot0: WeightMatrix
    basis: OrthonormalBasis | None
    targets: dict[int, np.ndarray] | None


def prepare_run(stream: SessionStream, base_weights: WeightMatrix | None,
                rng: np.random.Generator) -> RunSetup:
    """Check a run's regularizer inputs and build its shared set-up; the only
    place a run fits its base weights.

    The checks that need no weights come first, so a fault costs no base fit:
    an embedding-driven regularizer needs an embedding for every class of the
    session plan, and ``semantic``/``description`` a positive ``tau``. Each
    protocol checks its own inputs (support pools, episode shape) before it
    calls this. If ``base_weights`` is None, the base rows are then trained on
    the base support pool from ``rng``. The base weights must have the
    features' dimension and rows for exactly the base session's classes. This
    is the one place the regularizer kind picks the new-class component, built
    once per run: the subspace basis, or the targets of every novel class (from
    embedding similarities, or from the fitted linear map).
    """
    config, registry, embeddings = stream.config, stream.registry, stream.embeddings
    kind = config.regularizer_kind
    base = list(registry.base_classes)
    novel = [c for c in registry.all_classes if registry.session_of(c) > 0]
    if kind in FIXED_TARGET_KINDS:
        if embeddings is None:
            raise ConfigError(f"{kind} regularization needs an embedding table")
        missing = [c for c in base + novel if c not in embeddings]
        if missing:
            raise MissingEmbeddingError(f"classes {missing} have no embedding")
    if kind in ("semantic", "description") and config.tau <= 0:
        raise ValidationError(f"temperature must be positive, got {config.tau}")

    if base_weights is None:
        base_weights, _ = train_base(stream.store, base, config, rng=rng)
    if base_weights.dimension != stream.store.dimension:
        raise DimensionMismatchError(f"base weights have dimension {base_weights.dimension}, "
                                     f"features have dimension {stream.store.dimension}")
    missing = sorted(set(base) - set(base_weights.class_ids))
    extra = sorted(set(base_weights.class_ids) - set(base))
    if missing or extra:
        raise ValidationError("base weights must have rows for exactly the base classes; "
                              f"missing {missing}, extra {extra}")
    snapshot0 = WeightMatrix(base, base_weights.subset(base)).frozen()
    basis = targets = None
    base_rows = [snapshot0.row(c) for c in base]
    if kind == "subspace":
        basis = orthonormal_basis(base_rows)
    elif kind == "linmap":
        linear_map = fit_least_squares([embeddings.vector(c) for c in base], base_rows)
        targets = {c: linear_map.apply(embeddings.vector(c)) for c in novel}
    elif kind in ("semantic", "description"):
        targets = semantic_targets(embeddings.subset(novel), embeddings.subset(base),
                                   snapshot0, config.tau)
    return RunSetup(config, snapshot0, basis, targets)


def _session_problem(setup: RunSetup, weights: WeightMatrix, registry: ClassRegistry,
                     session: int, anchors: WeightMatrix, support: Batch,
                     rng: np.random.Generator, memory: Batch | None = None) -> Objective:
    """One session's training problem: it starts from ``weights`` with the
    session's novel rows imprinted from the support set, and trains on the
    support examples followed by the memory examples."""
    novel = registry.classes_in(session)
    start = weights.with_rows(
        init_novel_weights(support, setup.snapshot0.norms(), rng, classes=novel))
    data = support if memory is None else Batch.concat([support, memory])
    return Objective(setup.config, registry, session, start, data, anchors=anchors,
                     basis=setup.basis, targets=setup.targets)


def run_multi_session(stream: SessionStream, base_weights: WeightMatrix | None = None,
                      collect_confusion: bool = True,
                      on_session_end=None) -> list[SessionResult]:
    """Run the incremental protocol over every session of the stream.

    Session 0 scores the base weights (given, or trained from the run's
    generator); each later session fine-tunes on its support set (plus the
    memory when enabled) and is scored on the query pools of every class seen
    so far. Each class's row as it stood after its own session joins the
    anchor table. ``on_session_end(t, weights)`` is called with a frozen
    weight copy after each session, for weight export. Every novel class
    needs ``k_shot`` support examples (at least one without ``k_shot``),
    checked before any base fit.
    """
    config, registry = stream.config, stream.registry
    need = stream.k_shot or 1
    for t in range(1, registry.n_sessions):
        for c in registry.classes_in(t):
            pool = stream.store.support(c).shape[0]
            if pool < need:
                raise MissingExampleError(f"class {c} has {pool} support examples, need "
                                          f"{'k_shot=' if stream.k_shot else ''}{need}")
    rng = np.random.default_rng(config.rng_seed)
    setup = prepare_run(stream, base_weights, rng)

    weights = anchors = setup.snapshot0
    memory = None
    results = []
    for t in range(registry.n_sessions):
        if t > 0 and config.memory_enabled and registry.classes_in(t - 1):
            memory = update_memory(memory, stream.support_examples(t - 1), rng,
                                   expected_classes=registry.classes_in(t - 1))
        if t > 0 and registry.classes_in(t):
            # the problem (its start rows and data) is freed once trained,
            # before the session's query batch is gathered and scored
            [outcome] = fine_tune_stack([_session_problem(
                setup, weights, registry, t, anchors, stream.support_examples(t), rng, memory)],
                [rng])
            if isinstance(outcome, DivergenceError):
                raise outcome
            weights, _ = outcome
            anchors = anchors.with_rows(
                {c: weights.row(c) for c in registry.classes_in(t)}).frozen()
        results.append(_evaluate_session(weights, stream.query_batch_up_to(t),
                                         registry, t, collect_confusion))
        if on_session_end is not None:
            on_session_end(t, weights.frozen())
    return results


# --- single-session episodes ---------------------------------------------


@dataclasses.dataclass(frozen=True, eq=False)
class Episode:
    """One sampled incremental dataset: novel support plus a mixed query set."""

    novel_classes: tuple[int, ...]
    support: Batch
    query: Batch


def _check_episode_shape(novel_store: FeatureStore, n_way: int, k_shot: int,
                         n_query: int) -> None:
    for name, value in (("n_way", n_way), ("k_shot", k_shot), ("n_query", n_query)):
        if value is None or value < 1:
            raise ValidationError(f"{name} must be >= 1, got {value}")
    if len(novel_store.classes) < n_way:
        raise MissingExampleError(
            f"novel pool has {len(novel_store.classes)} classes, need n_way={n_way}")
    able = sum(novel_store.support(c).shape[0] >= k_shot for c in novel_store.classes)
    if able < n_way:
        raise MissingExampleError(f"novel pool has {able} classes with k_shot={k_shot} "
                                  f"support examples, need n_way={n_way}")


def sample_episode(base_store: FeatureStore, novel_store: FeatureStore, n_way: int,
                   k_shot: int, n_query: int, rng: np.random.Generator) -> Episode:
    """Sample an episode: ``n_way`` novel classes with ``k_shot`` support
    examples each, and queries drawn from the base and novel groups with equal
    probability (then uniformly within the group). Every draw comes from
    ``rng``."""
    _check_episode_shape(novel_store, n_way, k_shot, n_query)
    chosen = np.sort(rng.choice(np.array(novel_store.classes), size=n_way, replace=False))
    support = []
    for c in chosen:
        pool = novel_store.support(int(c))
        if pool.shape[0] < k_shot:
            raise MissingExampleError(
                f"class {int(c)} has {pool.shape[0]} support examples, need k_shot={k_shot}")
        support.append(pool[rng.choice(pool.shape[0], size=k_shot, replace=False)])

    groups = rng.integers(0, 2, size=n_query)
    base_pick = rng.integers(0, len(base_store.classes), size=n_query)
    novel_pick = rng.integers(0, n_way, size=n_query)
    u = rng.random(n_query)
    # Query i is row int(u[i] * pool size) of its class's query pool.
    base, novel = groups == 0, groups == 1
    novel_pos = np.searchsorted(novel_store.classes, chosen)[novel_pick[novel]]
    feats = np.empty((n_query, base_store.dimension))
    feats[base] = base_store.query_rows(base_pick[base], u[base])
    feats[novel] = novel_store.query_rows(novel_pos, u[novel])
    labels = np.where(base, np.array(base_store.classes)[base_pick], chosen[novel_pick])
    return Episode(tuple(int(c) for c in chosen),
                   Batch(np.concatenate(support), np.repeat(chosen, k_shot)),
                   Batch(feats, labels))


def delta_metric(base_joint: float, base_individual: float,
                 novel_joint: float, novel_individual: float) -> float:
    """Interference gap: joint minus individual accuracy, averaged over groups."""
    return 0.5 * ((base_joint - base_individual) + (novel_joint - novel_individual))


@dataclasses.dataclass(frozen=True)
class EpisodeResult:
    acc_base_joint: float
    acc_novel_joint: float
    acc_joint_mean: float
    acc_base_individual: float
    acc_novel_individual: float
    delta: float


def _score_episode(weights: WeightMatrix, episode: Episode, base: list[int]) -> EpisodeResult:
    """Joint accuracy over every class of the episode against each group's
    accuracy among its own classes."""
    q = episode.query
    base_mask = np.isin(q.class_ids, base)
    preds = predict(weights, q.features, weights.class_ids)
    bj = accuracy(q.class_ids[base_mask], preds[base_mask])
    nj = accuracy(q.class_ids[~base_mask], preds[~base_mask])
    preds_b = predict(weights, q.features[base_mask], base)
    bi = accuracy(q.class_ids[base_mask], preds_b)
    preds_n = predict(weights, q.features[~base_mask], episode.novel_classes)
    ni = accuracy(q.class_ids[~base_mask], preds_n)
    return EpisodeResult(bj, nj, 0.5 * (bj + nj), bi, ni, delta_metric(bj, bi, nj, ni))


@dataclasses.dataclass(frozen=True)
class AggregateStat:
    mean: float
    ci95: float
    n: int


def _aggregate(values: Sequence[float]) -> AggregateStat:
    arr = np.asarray(values, dtype=np.float64)
    n = arr.size
    ci = 1.96 * float(np.std(arr, ddof=1)) / np.sqrt(n) if n > 1 else 0.0
    return AggregateStat(float(arr.mean()), ci, n)


@dataclasses.dataclass(frozen=True, eq=False)
class SingleSessionResult:
    n_episodes: int
    n_failed: int
    acc: AggregateStat
    acc_base_joint: AggregateStat
    acc_novel_joint: AggregateStat
    acc_base_individual: AggregateStat
    acc_novel_individual: AggregateStat
    delta: AggregateStat
    abs_delta: float
    episodes: tuple[EpisodeResult, ...] | None = None

    def as_dict(self) -> dict:
        """Plain data; ``episodes`` only if the run kept them."""
        out = dataclasses.asdict(self)
        episodes = out.pop("episodes")
        if episodes is not None:
            out["episodes"] = list(episodes)
        return out


def _episode_chunk(setup: RunSetup, base_store: FeatureStore, novel_store: FeatureStore,
                   n_way: int, k_shot: int, n_query: int,
                   start: int, stop: int) -> list[EpisodeResult | EngineError]:
    """Sample episodes ``start`` to ``stop - 1``, fine-tune them as one stack
    and score each joint vs individual; their outcomes in episode order.
    Episode i draws only from its own ``SeedSequence((seed, i))`` streams. An
    episode whose sampling, query groups, set-up or fine-tune fails gets the
    error in place of its result, and the others go on."""
    base = list(setup.snapshot0.class_ids)
    outcomes: list[EpisodeResult | EngineError | None] = [None] * (stop - start)
    members, problems = [], []  # (position, episode, training stream) of each stack member
    for k, i in enumerate(range(start, stop)):
        ss = np.random.SeedSequence(entropy=(setup.config.rng_seed, i))
        rng_sample, rng_train = (np.random.default_rng(s) for s in ss.spawn(2))
        try:
            episode = sample_episode(base_store, novel_store, n_way=n_way, k_shot=k_shot,
                                     n_query=n_query, rng=rng_sample)
            base_mask = np.isin(episode.query.class_ids, base)
            if not base_mask.any() or base_mask.all():
                raise MissingExampleError("episode query set misses one of the groups")
            registry = ClassRegistry([base, episode.novel_classes])
            problems.append(_session_problem(setup, setup.snapshot0, registry, 1,
                                             setup.snapshot0, episode.support, rng_train))
        except EngineError as err:
            outcomes[k] = err
            continue
        members.append((k, episode, rng_train))
    if members:
        trained = fine_tune_stack(problems, [rng for _, _, rng in members])
        for (k, episode, _), outcome in zip(members, trained):
            outcomes[k] = (outcome if isinstance(outcome, DivergenceError)
                           else _score_episode(outcome[0], episode, base))
    return outcomes


def run_single_session(stream: SessionStream, base_weights: WeightMatrix | None = None,
                       n_episodes: int = 2000, n_way: int = 5, n_query: int = 50,
                       keep_episodes: bool = False) -> SingleSessionResult:
    """Average episodic evaluation: every episode restarts from the base
    weights, fine-tunes on its own support set, and is scored jointly and per
    group. The stream's plan has sessions 0 (base) and 1 (the novel pool), and
    each episode draws ``stream.k_shot`` support examples per novel class.
    Base weights None are trained from ``default_rng(config.rng_seed)``. Every
    input is checked before any base fit or episode; failed episodes (errors
    in ``_episode_chunk``'s outcomes) are excluded from the aggregates but
    counted, and the result lists the rest if ``keep_episodes``. If every
    episode fails, the error names the first failure. The episodes train in
    stacks, one or more per CPU in the process's affinity mask
    (``pool.cpus``), mapped over ``pool.fork_map``'s forked workers; restrict
    the mask (``taskset``) to restrict the workers. The result does not depend
    on their number."""
    config, registry, k_shot = stream.config, stream.registry, stream.k_shot
    if config.memory_enabled:
        raise ConfigError("memory replay applies to the multi-session protocol only")
    if registry.n_sessions != 2:
        raise ConfigError(f"single-session plan needs sessions 0 and 1, got {registry.n_sessions}")
    if n_episodes < 1:
        raise ValidationError(f"n_episodes must be >= 1, got {n_episodes}")
    base_store = stream.store.restrict(registry.base_classes)
    novel_store = stream.store.restrict(registry.classes_in(1))
    _check_episode_shape(novel_store, n_way, k_shot, n_query)
    setup = prepare_run(stream, base_weights, np.random.default_rng(config.rng_seed))
    budget = max(1, EPISODE_BUDGET // ((len(base_store.classes) + n_way) * base_store.dimension))
    cpus = pool.cpus()
    per_worker = -(-n_episodes // cpus)
    chunk = -(-per_worker // -(-per_worker // budget))  # even stacks within the budget
    starts = range(0, n_episodes, chunk)
    stops = [min(i + chunk, n_episodes) for i in starts]
    # Forked workers inherit the chunk body and its set-up, so only the bounds
    # and the outcomes are pickled; spawned ones would import numpy and
    # unpickle the stores first, which costs more than a 40-episode call.
    chunks = pool.fork_map(functools.partial(_episode_chunk, setup, base_store, novel_store,
                                             n_way, k_shot, n_query), starts, stops)
    outcomes = [r for c in chunks for r in c]
    ok = [r for r in outcomes if not isinstance(r, EngineError)]
    if not ok:
        first_failure = outcomes[0]
        raise EngineError(f"all {n_episodes} episodes failed; the first with "
                          f"{type(first_failure).__name__}: {first_failure}")
    stats = {name: _aggregate([getattr(r, name) for r in ok]) for name in (
        "acc_base_joint", "acc_novel_joint", "acc_base_individual", "acc_novel_individual", "delta")}
    return SingleSessionResult(n_episodes, n_episodes - len(ok),
                               _aggregate([r.acc_joint_mean for r in ok]), **stats,
                               abs_delta=abs(stats["delta"].mean),
                               episodes=tuple(ok) if keep_episodes else None)
