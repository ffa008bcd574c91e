"""Command-line entry point: dataset ingestion, protocol dispatch, reporting.

Subcommands: train-base, run-multi, run-single, synth-gen, report. Result
files are versioned JSON (``"schema": 1``) with the fully resolved
configuration embedded for provenance. ``INCRLIN_LOG`` sets the log level.
"""
from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import io
from .config import load_config_file, resolve_run_config
from .datamodel import SessionStream
from .errors import ConfigError, EngineError, FormatError
from .protocol import run_multi_session, run_single_session
from .synth import SynthSpec, generate, incremental_split
from .trainer import train_base

RESULT_SCHEMA = 1

log = logging.getLogger("incrlin")


def _setup_logging() -> None:
    level = os.environ.get("INCRLIN_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _write_json(path, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _load_inputs(args, need_manifest: bool):
    store = io.load_feature_store(args.features)
    registry = None
    if getattr(args, "manifest", None):
        _, sessions = io.load_manifest(args.manifest)
        registry = io.registry_from_manifest(sessions)
    elif need_manifest:
        raise ConfigError("this command needs --manifest for the session plan")
    embeddings = None
    if getattr(args, "embeddings", None):
        embeddings = io.load_embeddings_csv(args.embeddings)
    return store, registry, embeddings


def _resolved_payload(cfg, extra: dict) -> dict:
    payload = {"schema": RESULT_SCHEMA, "config": cfg.as_dict()}
    payload.update(extra)
    return payload


def cmd_train_base(args) -> int:
    store, registry, _ = _load_inputs(args, need_manifest=False)
    file_cfg = load_config_file(args.config) if args.config else {}
    cfg = resolve_run_config("multi", file_cfg, {"rng_seed": args.seed})
    base_classes = registry.base_classes if registry is not None else store.classes
    weights, report = train_base(store, base_classes, cfg)
    io.save_weights_csv(weights, args.out)
    log.info("trained %d base rows in %d epochs (final loss %.6f)",
             len(weights), report.epochs_run, report.final_loss)
    print(f"wrote {args.out}: {len(weights)} classes, dimension {weights.dimension}, "
          f"{report.epochs_run} epochs{' (converged)' if report.converged else ''}")
    return 0


def cmd_run_multi(args) -> int:
    store, registry, embeddings = _load_inputs(args, need_manifest=True)
    file_cfg = load_config_file(args.config) if args.config else {}
    cfg = resolve_run_config("multi", file_cfg, {
        "rng_seed": args.seed,
        "memory_enabled": True if args.memory else None,
        "regularizer_kind": args.regularizer,
    }, k_shot=args.k_shot)
    base_weights = io.load_weights_csv(args.base_weights) if args.base_weights else None
    stream = SessionStream(store, registry, cfg, embeddings=embeddings, k_shot=args.k_shot)
    final_weights: dict = {}
    hook = (lambda t, w: final_weights.update({t: w})) if args.dump_weights else None
    results = run_multi_session(stream, base_weights=base_weights,
                                collect_confusion=not args.no_confusion,
                                on_session_end=hook)
    if args.dump_weights:
        io.save_weights_csv(final_weights[max(final_weights)], args.dump_weights)
    label = args.label or Path(args.out).stem
    payload = _resolved_payload(cfg, {
        "protocol": "multi-session",
        "label": label,
        "k_shot": args.k_shot,
        "sessions": [r.as_dict() for r in results],
    })
    _write_json(args.out, payload)
    print(f"wrote {args.out}: {len(results)} sessions, "
          f"final weighted accuracy {results[-1].acc_weighted:.2f}%")
    return 0


def cmd_run_single(args) -> int:
    store, registry, embeddings = _load_inputs(args, need_manifest=True)
    if registry.n_sessions != 2:
        raise ConfigError(
            f"single-session manifest must define sessions 0 and 1, got {registry.n_sessions}")
    file_cfg = load_config_file(args.config) if args.config else {}
    cfg = resolve_run_config("single", file_cfg, {
        "rng_seed": args.seed,
        "regularizer_kind": args.regularizer,
    }, k_shot=args.k_shot)
    base_store = store.restrict(registry.base_classes)
    novel_store = store.restrict(registry.classes_in(1))
    if args.base_weights:
        base_weights = io.load_weights_csv(args.base_weights)
    else:
        base_weights, _ = train_base(base_store, registry.base_classes, cfg)
    result = run_single_session(base_store, novel_store, base_weights, cfg,
                                n_episodes=args.episodes, n_way=args.n_way,
                                k_shot=args.k_shot, n_query=args.n_query,
                                embeddings=embeddings,
                                keep_episodes=args.keep_episodes)
    label = args.label or Path(args.out).stem
    payload = _resolved_payload(cfg, {
        "protocol": "single-session",
        "label": label,
        "n_way": args.n_way,
        "k_shot": args.k_shot,
        "n_query": args.n_query,
        "result": result.as_dict(include_episodes=args.keep_episodes),
    })
    _write_json(args.out, payload)
    print(f"wrote {args.out}: {result.n_episodes} episodes "
          f"({result.n_failed} failed), accuracy {result.acc.mean:.2f}% "
          f"+/- {result.acc.ci95:.2f}, delta {result.delta.mean:.2f}%")
    return 0


def cmd_synth_gen(args) -> int:
    spec = SynthSpec(n_classes=args.classes, dimension=args.dim,
                     mean_scale=args.mu, within_class_stddev=args.sigma,
                     support_per_class=args.support, query_per_class=args.query,
                     embedding_mode=args.embedding_mode, rng_seed=args.seed)
    data = generate(spec)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if args.binary:
        features_path = out / "features.fscf"
        io.save_feature_store_binary(data.store, features_path)
    else:
        features_path = out / "features.csv"
        io.save_feature_store_csv(data.store, features_path)
    io.save_embeddings_csv(data.embeddings, out / "embeddings.csv")
    if args.per_session:
        plan = incremental_split(args.classes, args.base, args.per_session)
        sessions = {c: t for t, classes in enumerate(plan) for c in classes}
    else:
        sessions = {c: 0 for c in range(args.classes)}
    labels = {c: f"class_{c}" for c in range(args.classes)}
    io.save_manifest(out / "manifest.json", labels, sessions)
    print(f"wrote {features_path}, {out / 'embeddings.csv'}, {out / 'manifest.json'}")
    return 0


def _check_schema(path, payload: dict) -> None:
    if payload.get("schema") != RESULT_SCHEMA:
        raise FormatError(f"{path}: schema {payload.get('schema')!r} "
                          f"(this tool reads schema {RESULT_SCHEMA})")


def cmd_report(args) -> int:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    multi_rows = []
    single_rows = []
    max_sessions = 0
    for res_path in args.results:
        payload = json.loads(Path(res_path).read_text())
        _check_schema(res_path, payload)
        label = payload.get("label", Path(res_path).stem)
        if payload.get("protocol") == "multi-session":
            sessions = payload["sessions"]
            max_sessions = max(max_sessions, len(sessions))
            multi_rows.append((label, sessions))
            for rec in sessions:
                conf = rec.get("confusion")
                if conf:
                    grid_path = out / f"confusion_{label}_s{rec['session']}.csv"
                    with grid_path.open("w", newline="") as fh:
                        writer = csv.writer(fh)
                        writer.writerow(["gold\\pred"] + conf["class_ids"])
                        for cid, row in zip(conf["class_ids"], conf["counts"]):
                            writer.writerow([cid] + row)
        elif payload.get("protocol") == "single-session":
            single_rows.append((label, payload["result"]))
        else:
            raise FormatError(f"{res_path}: unknown protocol {payload.get('protocol')!r}")

    if multi_rows:
        with (out / "sessions.csv").open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["model"] + [str(t) for t in range(max_sessions)])
            for label, sessions in multi_rows:
                accs = {rec["session"]: rec["acc_weighted"] for rec in sessions}
                writer.writerow([label] + [f"{accs[t]:.2f}" if t in accs else ""
                                           for t in range(max_sessions)])
    if single_rows:
        with (out / "episodes.csv").open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["model", "acc", "ci95", "delta", "abs_delta",
                             "n_episodes", "n_failed"])
            for label, result in single_rows:
                writer.writerow([label, f"{result['acc']['mean']:.2f}",
                                 f"{result['acc']['ci95']:.2f}",
                                 f"{result['delta']['mean']:.2f}",
                                 f"{result['abs_delta']:.2f}",
                                 result["n_episodes"], result["n_failed"]])
    print(f"wrote report files under {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="incrlin",
        description="Incremental linear classifiers over frozen features.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, needs_out=True):
        p.add_argument("--features", required=True, help="feature store (CSV or binary)")
        p.add_argument("--manifest", help="class manifest JSON (labels + session plan)")
        p.add_argument("--embeddings", help="per-class embedding CSV")
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, default=None, help="rng seed override")
        if needs_out:
            p.add_argument("--out", required=True, help="output path")

    p = sub.add_parser("train-base", help="fit base-class weights on a feature store")
    add_common(p)
    p.set_defaults(func=cmd_train_base)

    p = sub.add_parser("run-multi", help="run the multi-session incremental protocol")
    add_common(p)
    p.add_argument("--base-weights", help="ingest base weights CSV instead of training")
    p.add_argument("--regularizer", choices=["finetune", "subspace", "semantic",
                                             "linmap", "description"])
    p.add_argument("--memory", action="store_true",
                   help="retain one example per archived class for replay")
    p.add_argument("--k-shot", type=int, default=None,
                   help="limit each incremental session to k support examples per class")
    p.add_argument("--no-confusion", action="store_true",
                   help="omit confusion matrices from the output")
    p.add_argument("--dump-weights", help="export the final-session weights to this CSV")
    p.add_argument("--label", help="run label used in reports")
    p.set_defaults(func=cmd_run_multi)

    p = sub.add_parser("run-single", help="run the episodic single-session protocol")
    add_common(p)
    p.add_argument("--base-weights", help="ingest base weights CSV instead of training")
    p.add_argument("--regularizer", choices=["finetune", "subspace", "semantic",
                                             "linmap", "description"])
    p.add_argument("--episodes", type=int, default=2000)
    p.add_argument("--n-way", type=int, default=5)
    p.add_argument("--k-shot", type=int, default=1)
    p.add_argument("--n-query", type=int, default=50)
    p.add_argument("--keep-episodes", action="store_true",
                   help="include per-episode records in the output")
    p.add_argument("--label", help="run label used in reports")
    p.set_defaults(func=cmd_run_single)

    p = sub.add_parser("synth-gen", help="write synthetic fixtures")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--classes", type=int, default=40)
    p.add_argument("--dim", type=int, default=32)
    p.add_argument("--support", type=int, default=25)
    p.add_argument("--query", type=int, default=25)
    p.add_argument("--mu", type=float, default=1.0, help="class mean scale")
    p.add_argument("--sigma", type=float, default=0.3, help="within-class stddev")
    p.add_argument("--embedding-mode", choices=["from-means", "random"],
                   default="from-means")
    p.add_argument("--base", type=int, default=20,
                   help="base class count for the manifest session plan")
    p.add_argument("--per-session", type=int, default=None,
                   help="novel classes per incremental session (omit for a flat manifest)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--binary", action="store_true", help="write the binary feature format")
    p.set_defaults(func=cmd_synth_gen)

    p = sub.add_parser("report", help="render result JSON into CSV tables")
    p.add_argument("--results", nargs="+", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except EngineError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except FileNotFoundError as err:
        print(f"error: missing file: {err.filename}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
