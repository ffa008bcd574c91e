"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Directional thresholds on the synthetic benchmark were frozen from oracle
runs of this harness (see the per-test notes); the benchmark seeds are pinned,
so the measured values are deterministic.
"""
import json
import os
import time

import numpy as np
import pytest
from conftest import (
    BENCHMARK_SEEDS,
    benchmark_summary,
    evaluate,
    fd_gradient,
    rel_err,
)

from incrlin.datamodel import (
    Batch,
    ClassRegistry,
    RunConfig,
    SessionStream,
    WeightMatrix,
)
from incrlin.linalg import orthonormal_basis, project
from incrlin.objectives import Objective
from incrlin.protocol import delta_metric, run_single_session
from incrlin.synth import SynthSpec, generate
from incrlin.trainer import fine_tune_stack, train_base


def _report(name: str, passed: bool, detail: str = ""):
    print(f"\nACCEPTANCE {name}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"{name}: {detail}"


# --- criterion 1: gradient suite ------------------------------------------------


def _random_assembly(rng, kind):
    d = int(rng.integers(3, 17))
    n_base = int(rng.integers(2, 6))
    n_novel = int(rng.integers(1, min(4, 9 - n_base)))
    base_ids = list(range(n_base))
    novel_ids = list(range(n_base, n_base + n_novel))
    registry = ClassRegistry([base_ids, novel_ids])
    base_m = rng.standard_normal((n_base, d))
    anchors = WeightMatrix(base_ids, base_m)
    cfg = RunConfig(regularizer_kind=kind, alpha=float(rng.uniform(0.01, 0.5)),
                    beta_base=float(rng.uniform(0.01, 0.5)),
                    beta_prev_novel=float(rng.uniform(0.01, 0.5)),
                    gamma=float(rng.uniform(0.01, 1.0)), tau=float(rng.uniform(0.2, 2.0)))
    basis = orthonormal_basis(list(base_m)) if kind == "subspace" else None
    targets = ({c: rng.standard_normal(d) for c in novel_ids}
               if kind in ("semantic", "linmap", "description") else None)
    ids = base_ids + novel_ids
    weights = WeightMatrix(ids, rng.standard_normal((len(ids), d)))
    n = int(rng.integers(4, 11))
    batch = Batch(rng.standard_normal((n, d)), rng.choice(ids, size=n))
    obj = Objective(cfg, registry, 1, weights, batch, anchors=anchors, basis=basis,
                    targets=targets)
    return obj, weights


def test_criterion_gradient_suite():
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for kind in ("finetune", "subspace", "semantic", "linmap"):
        for _ in range(50):
            obj, weights = _random_assembly(rng, kind)
            terms = evaluate(obj, weights)

            def fn(w, obj=obj, weights=weights):
                return evaluate(obj, WeightMatrix(weights.class_ids, w)).total

            fd = fd_gradient(fn, weights.matrix.copy())
            worst = max(worst, rel_err(terms.gradient_matrix, fd))
    elapsed = time.monotonic() - start
    _report("gradient-suite", worst < 1e-4 and elapsed < 30.0,
            f"max rel err {worst:.2e} over 200 instances, {elapsed:.1f}s")


# --- criterion 2: linalg suite ----------------------------------------------------


def test_criterion_linalg_suite():
    start = time.monotonic()
    rng = np.random.default_rng(77)
    worst_ortho = worst_idem = worst_inv = 0.0
    minimality_ok = True
    for _ in range(200):
        d = int(rng.integers(2, 41))
        k = int(rng.integers(1, d + 1))
        vecs = list(rng.standard_normal((k, d)))
        basis = orthonormal_basis(vecs)
        gram = basis.matrix.T @ basis.matrix
        worst_ortho = max(worst_ortho, float(np.max(np.abs(gram - np.eye(basis.rank)))))
        v = rng.standard_normal(d)
        once = project(v, basis)
        worst_idem = max(worst_idem, float(np.max(np.abs(project(once, basis) - once))))
        best = np.linalg.norm(v - once)
        span_pts = basis.matrix @ rng.standard_normal((basis.rank, 100))
        dists = np.linalg.norm(v[:, None] - span_pts, axis=0)
        minimality_ok &= bool(np.all(best <= dists + 1e-9))
        alt = orthonormal_basis(vecs[::-1])
        worst_inv = max(worst_inv, float(np.max(np.abs(project(v, alt) - once))))
    elapsed = time.monotonic() - start
    ok = (worst_ortho < 1e-6 and worst_idem < 1e-6 and minimality_ok
          and worst_inv < 1e-5 and elapsed < 10.0)
    _report("linalg-suite", ok,
            f"ortho {worst_ortho:.1e}, idem {worst_idem:.1e}, basis-inv {worst_inv:.1e}, "
            f"minimality {minimality_ok}, {elapsed:.1f}s over 200 instances")


# --- criterion 3: stop-gradient equivalence ------------------------------------------


def test_criterion_stop_gradient_equivalence():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(20):
        d = int(rng.integers(3, 12))
        k = int(rng.integers(1, d))
        basis = orthonormal_basis(list(rng.standard_normal((k, d))))
        p = basis.matrix
        w = rng.standard_normal((2, d))

        def through(m):
            resid = m - (m @ p) @ p.T
            return float((resid * resid).sum())

        target = (w @ p) @ p.T

        def held(m):
            resid = m - target
            return float((resid * resid).sum())

        analytic = 2.0 * (w - (w @ p) @ p.T)
        worst = max(worst, float(np.max(np.abs(fd_gradient(through, w) - analytic))))
        worst = max(worst, float(np.max(np.abs(fd_gradient(held, w) - analytic))))
    _report("stop-gradient-equivalence", worst < 1e-8, f"max abs dev {worst:.2e}")


# --- criteria 4-7: synthetic multi-session benchmark ---------------------------------
#
# Oracle values on the pinned seeds (101..105): fine-tuning recency fraction
# 0.198 vs subspace 0.181 (ratio 1.09); final weighted accuracy: fine-tuning
# 56.9, subspace 59.0 (+2.1), semantic 68.0 (+9.0 over subspace); anchor
# ablation on the semantic arm -2.1; memory raises base accuracy +17.4.
# The subspace effects are structurally modest at this scale: the final
# session weighs base and novel groups 1:1, and isotropic class means leave
# novel classes ~37% of their signal outside the 20-dim base span, so the
# projection trades novel accuracy against base protection nearly evenly.
# Thresholds are frozen with headroom below the deterministic oracle values.

RECENCY_RATIO_MIN = 1.05
SUBSPACE_MARGIN_MIN = 1.0


def test_criterion_recency_bias():
    start = time.monotonic()
    ft = benchmark_summary("finetune")
    sub = benchmark_summary("subspace")
    ratio = ft["recency_fraction"] / sub["recency_fraction"]
    elapsed = time.monotonic() - start
    ok = ratio >= RECENCY_RATIO_MIN and elapsed < 120.0
    _report("recency-bias", ok,
            f"fine-tune fraction {ft['recency_fraction']:.3f} vs subspace "
            f"{sub['recency_fraction']:.3f}, ratio {ratio:.3f} >= {RECENCY_RATIO_MIN}, "
            f"{elapsed:.0f}s")


def test_criterion_forgetting_mitigation():
    start = time.monotonic()
    ft = benchmark_summary("finetune")
    sub = benchmark_summary("subspace")
    sem = benchmark_summary("semantic")
    margin = sub["acc_weighted"] - ft["acc_weighted"]
    elapsed = time.monotonic() - start
    ok = (margin >= SUBSPACE_MARGIN_MIN
          and sem["acc_weighted"] >= sub["acc_weighted"]
          and elapsed < 180.0)
    _report("forgetting-mitigation", ok,
            f"weighted: ft {ft['acc_weighted']:.1f}, subspace {sub['acc_weighted']:.1f} "
            f"(+{margin:.1f} >= {SUBSPACE_MARGIN_MIN}), semantic {sem['acc_weighted']:.1f}, "
            f"{elapsed:.0f}s")


def test_criterion_r_old_ablation():
    with_anchor = benchmark_summary("semantic")
    without = benchmark_summary("semantic", beta=(0.0, 0.0))
    drop = with_anchor["acc_weighted"] - without["acc_weighted"]
    _report("r-old-ablation", drop > 0.0,
            f"disabling the anchors drops weighted accuracy by {drop:.2f} points")


def test_criterion_memory_variant():
    without = benchmark_summary("finetune")
    with_memory = benchmark_summary("finetune", memory=True)
    gain = with_memory["acc_base"] - without["acc_base"]
    _report("memory-variant", gain >= 0.0,
            f"memory changes final base accuracy by {gain:+.2f} points")


# --- criterion 8: single-session harness ----------------------------------------------


def test_criterion_single_session_harness():
    start = time.monotonic()
    data = generate(SynthSpec(n_classes=30, dimension=32, mean_scale=1.0,
                              within_class_stddev=0.3, support_per_class=30,
                              query_per_class=25, rng_seed=11))
    base_ids = list(range(20))
    novel_ids = list(range(20, 30))
    base_cfg = RunConfig(regularizer_kind="finetune", alpha=5e-3, learning_rate=0.1,
                         max_epochs=1000, rng_seed=11)
    base_weights, _ = train_base(data.store.restrict(base_ids), base_ids, base_cfg)
    cfg = RunConfig(regularizer_kind="finetune", alpha=5e-4, learning_rate=0.01,
                    max_epochs=200, rng_seed=11)
    stream = SessionStream(data.store, ClassRegistry([base_ids, novel_ids]), cfg, k_shot=1)

    def run():
        result = run_single_session(stream, base_weights, n_episodes=200, n_way=5, n_query=50)
        return json.dumps(result.as_dict(), sort_keys=True).encode()

    blob1 = run()
    blob2 = run()
    hand_delta = delta_metric(80.0, 90.0, 60.0, 70.0)
    elapsed = time.monotonic() - start
    ok = blob1 == blob2 and hand_delta == -10.0 and elapsed < 120.0
    agg = json.loads(blob1)
    _report("single-session-harness", ok,
            f"200 episodes byte-identical={blob1 == blob2}, "
            f"acc {agg['acc']['mean']:.1f}+/-{agg['acc']['ci95']:.1f}, "
            f"delta {agg['delta']['mean']:.1f}, hand delta {hand_delta}, {elapsed:.0f}s")


# --- criterion 9: trainer oracle equivalence -------------------------------------------


def test_criterion_trainer_oracle_equivalence():
    rng = np.random.default_rng(9)
    feats = rng.standard_normal((4, 2))
    labels = np.array([0, 1, 2, 1])
    base = rng.standard_normal((2, 2))
    registry = ClassRegistry([(0, 1), (2,)])
    anchors = WeightMatrix([0, 1], base)
    alpha, bb, gamma, lr = 0.01, 0.1, 0.5, 0.01
    cfg = RunConfig(regularizer_kind="subspace", alpha=alpha, beta_base=bb,
                    beta_prev_novel=0.05, gamma=gamma, learning_rate=lr,
                    max_epochs=5, convergence_tolerance=0.0, rng_seed=0)
    basis = orthonormal_basis(list(base))
    w0 = np.vstack([base, rng.standard_normal((1, 2))])
    obj = Objective(cfg, registry, 1, WeightMatrix([0, 1, 2], w0), Batch(feats, labels),
                    anchors=anchors, basis=basis)
    [(trained, _)] = fine_tune_stack([obj], [np.random.default_rng(0)])

    p = basis.matrix
    w = w0.copy()
    for _ in range(5):
        logits = feats @ w.T
        logits -= logits.max(axis=1, keepdims=True)
        expl = np.exp(logits)
        prob = expl / expl.sum(axis=1)[:, None]
        prob[np.arange(4), labels] -= 1.0
        grad = prob.T @ feats / 4
        grad += 2.0 * alpha * w
        grad[0] += 2.0 * bb * (w[0] - base[0])
        grad[1] += 2.0 * bb * (w[1] - base[1])
        grad[2] += 2.0 * gamma * (w[2] - p @ (p.T @ w[2]))
        w -= lr * grad
    dev = float(np.max(np.abs(trained.matrix - w)))
    _report("trainer-oracle-equivalence", dev < 1e-10,
            f"max deviation {dev:.2e} after 5 full-batch steps")


# --- criterion 10: optional real-feature fixture ----------------------------------------


def test_criterion_optional_real_fixture(tmp_path):
    fixture_dir = os.environ.get("INCRLIN_FIXTURES")
    if not fixture_dir:
        print("\nACCEPTANCE real-fixture: SKIP (set INCRLIN_FIXTURES to a directory "
              "with features.csv/features.fscf, manifest.json, embeddings.csv)")
        pytest.skip("no real-feature fixture supplied")
    from incrlin.cli import main

    fixture_dir = os.path.abspath(fixture_dir)
    features = None
    for name in ("features.fscf", "features.csv"):
        candidate = os.path.join(fixture_dir, name)
        if os.path.exists(candidate):
            features = candidate
            break
    manifest = os.path.join(fixture_dir, "manifest.json")
    embeddings = os.path.join(fixture_dir, "embeddings.csv")
    ok = features is not None and os.path.exists(manifest)
    detail = "missing fixture files"
    if ok:
        out = tmp_path / "real.json"
        args = ["run-multi", "--features", features, "--manifest", manifest,
                "--k-shot", "5", "--seed", "0", "--label", "real",
                "--out", str(out)]
        if os.path.exists(embeddings):
            args += ["--embeddings", embeddings, "--regularizer", "semantic"]
        ok = main(args) == 0
        if ok:
            payload = json.loads(out.read_text())
            n_sessions = len(payload["sessions"])
            ok = main(["report", "--results", str(out),
                       "--out-dir", str(tmp_path / "rep")]) == 0
            table = (tmp_path / "rep" / "sessions.csv").read_text().splitlines()
            ok = ok and len(table) == 2 and len(table[0].split(",")) == n_sessions + 1
            detail = f"{n_sessions} sessions, table {table[0]!r}"
    _report("real-fixture", ok, detail)
