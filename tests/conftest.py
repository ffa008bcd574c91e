"""Shared test helpers: finite-difference oracles and the synthetic
multi-session benchmark used by the acceptance suite."""
from __future__ import annotations

import numpy as np

from incrlin import (
    ClassRegistry,
    RunConfig,
    SessionStream,
    WeightMatrix,
    run_multi_session,
    train_base,
)
from incrlin.synth import SynthSpec, generate, incremental_split


def fd_gradient(fn, w0: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function of a weight matrix."""
    g = np.zeros_like(w0)
    for i in range(w0.shape[0]):
        for j in range(w0.shape[1]):
            wp = w0.copy()
            wp[i, j] += step
            wm = w0.copy()
            wm[i, j] -= step
            g[i, j] = (fn(wp) - fn(wm)) / (2.0 * step)
    return g


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    denom = max(np.linalg.norm(b), 1e-12)
    return float(np.linalg.norm(a - b) / denom)


def evaluate(obj, weights):
    """``obj`` at ``weights`` over its own data; gradient rows in ``obj.class_ids`` order."""
    return obj.evaluate_dense(weights.subset(obj.class_ids))


# --- synthetic multi-session benchmark ---------------------------------------
#
# 20 base classes + 4 sessions x 5 novel classes, 5-shot, d=32. Hyperparameters
# were calibrated so the forgetting / bias phenomena are visible at this scale;
# they are not the real-data presets.

BENCHMARK_SEEDS = (101, 102, 103, 104, 105)
_BENCH_SYNTH = dict(n_classes=40, dimension=32, mean_scale=1.0, within_class_stddev=0.3,
                    support_per_class=30, query_per_class=25)
_BENCH_ARM = dict(alpha=5e-4, beta_base=0.2, beta_prev_novel=0.1,
                  learning_rate=0.01, max_epochs=1000)
BENCH_GAMMA_SUBSPACE = 0.05
BENCH_GAMMA_SEMANTIC = 0.05
BENCH_TAU = 0.1
BENCH_LAST_SESSION_CLASSES = tuple(range(35, 40))


def benchmark_arm(kind: str, seed: int, *, gamma: float | None = None, tau: float = BENCH_TAU,
                  beta: tuple[float, float] | None = None, memory: bool = False):
    """One benchmark run; returns the list of SessionResult."""
    data = generate(SynthSpec(rng_seed=seed, **_BENCH_SYNTH))
    registry = ClassRegistry(incremental_split(40, 20, 5))
    base_cfg = RunConfig(regularizer_kind="finetune", alpha=5e-3, learning_rate=0.1,
                         max_epochs=1000, rng_seed=seed)
    base_weights, _ = train_base(data.store.restrict(registry.base_classes),
                                 registry.base_classes, base_cfg)
    if gamma is None:
        gamma = 0.0 if kind == "finetune" else BENCH_GAMMA_SUBSPACE
    fields = dict(_BENCH_ARM)
    if beta is not None:
        fields["beta_base"], fields["beta_prev_novel"] = beta
    cfg = RunConfig(regularizer_kind=kind, gamma=gamma, tau=tau, rng_seed=seed,
                    memory_enabled=memory, **fields)
    stream = SessionStream(data.store, registry, cfg, embeddings=data.embeddings, k_shot=5)
    return run_multi_session(stream, base_weights=base_weights)


def benchmark_summary(kind: str, seeds=BENCHMARK_SEEDS, **kw):
    """Seed-averaged final-session metrics for one arm."""
    finals = [benchmark_arm(kind, s, **kw)[-1] for s in seeds]
    return {
        "acc_base": float(np.mean([f.acc_base for f in finals])),
        "acc_novel": float(np.mean([f.acc_novel for f in finals])),
        "acc_weighted": float(np.mean([f.acc_weighted for f in finals])),
        "recency_fraction": float(np.mean(
            [f.confusion.fraction_predicted_in(BENCH_LAST_SESSION_CLASSES) for f in finals])),
    }
