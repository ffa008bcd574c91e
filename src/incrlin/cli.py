"""Command-line entry point: dataset ingestion, protocol dispatch, reporting.

Subcommands: train-base, run-multi, run-single, synth-gen, report. Result
files are versioned JSON (``"schema": 1``) with the fully resolved
configuration embedded for provenance.
"""
from __future__ import annotations

import argparse
import csv
import errno
import json
import os
import sys
from concurrent.futures import BrokenExecutor
from pathlib import Path

from . import io
from .config import load_config_file, resolve_run_config
from .datamodel import REGULARIZER_KINDS, SessionStream, WeightMatrix
from .errors import ConfigError, EngineError, FormatError
from .protocol import run_multi_session, run_single_session
from .synth import SynthSpec, generate, incremental_split
from .trainer import train_base

RESULT_SCHEMA = 1


def _plain_label(label) -> str:
    """A run label: one plain, non-empty file-name part, since it names the
    report's rows and confusion files."""
    if not isinstance(label, str) or label in ("", ".", "..") or "/" in label or "\\" in label:
        raise argparse.ArgumentTypeError(f"label {label!r} is not a plain name")
    return label


def _check_out(*paths) -> None:
    """Fail before any input is read on an output path that cannot be
    created as a file: a directory, or one whose parent directory is missing.
    The file itself is neither created nor truncated here."""
    for path in filter(None, paths):
        parent = Path(path).parent
        if Path(path).is_dir():
            code = errno.EISDIR
        elif not parent.is_dir():
            code = errno.ENOTDIR if parent.exists() else errno.ENOENT
        else:
            continue
        raise OSError(code, os.strerror(code), path)


def _load_inputs(args):
    """The feature store and the manifest's session plan (None without one)."""
    store = io.load_feature_store(args.features)
    if not args.manifest:
        return store, None
    return store, io.registry_from_manifest(io.load_manifest(args.manifest)[1])


def _write_result(args, cfg, extra: dict) -> None:
    """The result file: schema, resolved config, label, then ``extra``."""
    payload = {"schema": RESULT_SCHEMA, "config": cfg.as_dict(),
               "label": args.label or Path(args.out).stem, **extra}
    Path(args.out).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def cmd_train_base(args) -> int:
    _check_out(args.out)
    store, registry = _load_inputs(args)
    file_cfg = load_config_file(args.config) if args.config else {}
    cfg = resolve_run_config("multi", file_cfg, {"rng_seed": args.seed})
    base_classes = registry.base_classes if registry is not None else store.classes
    weights, report = train_base(store, base_classes, cfg)
    io.save_weights_csv(weights, args.out)
    print(f"wrote {args.out}: {len(weights)} classes, dimension {weights.dimension}, "
          f"{report.epochs_run} epochs{' (converged)' if report.converged else ''}, "
          f"final loss {report.final_loss:.6f}")
    return 0


def _run_inputs(args, protocol: str) -> tuple[SessionStream, WeightMatrix | None]:
    """A run's stream (inputs, then the resolved config) and its ingested
    base weights, None when the protocol is to train them."""
    store, registry = _load_inputs(args)
    if registry is None:
        raise ConfigError("this command needs --manifest for the session plan")
    embeddings = io.load_embeddings_csv(args.embeddings) if args.embeddings else None
    file_cfg = load_config_file(args.config) if args.config else {}
    cfg = resolve_run_config(protocol, file_cfg, {
        "rng_seed": args.seed,
        "memory_enabled": True if getattr(args, "memory", False) else None,
        "regularizer_kind": args.regularizer,
    }, k_shot=args.k_shot)
    stream = SessionStream(store, registry, cfg, embeddings=embeddings, k_shot=args.k_shot)
    base_weights = io.load_weights_csv(args.base_weights) if args.base_weights else None
    return stream, base_weights


def cmd_run_multi(args) -> int:
    _check_out(args.out, args.dump_weights)
    stream, base_weights = _run_inputs(args, "multi")
    final_weights: dict = {}
    hook = (lambda t, w: final_weights.update({t: w})) if args.dump_weights else None
    results = run_multi_session(stream, base_weights=base_weights,
                                collect_confusion=not args.no_confusion,
                                on_session_end=hook)
    if args.dump_weights:
        io.save_weights_csv(final_weights[max(final_weights)], args.dump_weights)
    _write_result(args, stream.config, {
        "protocol": "multi-session",
        "k_shot": args.k_shot,
        "sessions": [r.as_dict() for r in results],
    })
    print(f"wrote {args.out}: {len(results)} sessions, "
          f"final weighted accuracy {results[-1].acc_weighted:.2f}%")
    return 0


def cmd_run_single(args) -> int:
    _check_out(args.out)
    stream, base_weights = _run_inputs(args, "single")
    result = run_single_session(stream, base_weights, n_episodes=args.episodes,
                                n_way=args.n_way, n_query=args.n_query,
                                keep_episodes=args.keep_episodes)
    _write_result(args, stream.config, {
        "protocol": "single-session",
        "n_way": args.n_way,
        "k_shot": args.k_shot,
        "n_query": args.n_query,
        "result": result.as_dict(),
    })
    print(f"wrote {args.out}: {result.n_episodes} episodes "
          f"({result.n_failed} failed), accuracy {result.acc.mean:.2f}% "
          f"+/- {result.acc.ci95:.2f}, delta {result.delta.mean:.2f}%")
    return 0


def cmd_synth_gen(args) -> int:
    spec = SynthSpec(n_classes=args.classes, dimension=args.dim,
                     within_class_stddev=args.sigma, support_per_class=args.support,
                     query_per_class=args.query, rng_seed=args.seed)
    data = generate(spec)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    features_path = out / ("features.fscf" if args.binary else "features.csv")
    save = io.save_feature_store_binary if args.binary else io.save_feature_store_csv
    save(data.store, features_path)
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


def _load_result(path) -> dict:
    """A result file's payload: a JSON object of the schema this tool writes."""
    try:
        payload = json.loads(Path(path).read_text())
    except json.JSONDecodeError as err:
        raise FormatError(f"{path}: invalid JSON ({err})") from None
    if not isinstance(payload, dict):
        raise FormatError(f"{path}: expected a JSON object, got {type(payload).__name__}")
    if payload.get("schema") != RESULT_SCHEMA:
        raise FormatError(f"{path}: schema {payload.get('schema')!r} "
                          f"(this tool reads schema {RESULT_SCHEMA})")
    return payload


def cmd_report(args) -> int:
    # Every result is read and its label checked before any report file is written.
    results, path_of = [], {}
    for res_path in args.results:
        payload = _load_result(res_path)
        try:
            label = _plain_label(payload.get("label", Path(res_path).stem))
        except argparse.ArgumentTypeError as err:
            raise FormatError(f"{res_path}: {err}") from None
        if label in path_of:
            raise FormatError(f"{res_path}: label {label!r} is also the label of {path_of[label]}")
        path_of[label] = res_path
        results.append((res_path, label, payload))

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    multi_rows = []
    single_rows = []
    max_sessions = 0
    for res_path, label, payload in results:
        protocol = payload.get("protocol")
        if protocol not in ("multi-session", "single-session"):
            raise FormatError(f"{res_path}: unknown protocol {protocol!r}")
        try:
            if protocol == "multi-session":
                sessions = payload["sessions"]
                for rec in sessions:
                    t = rec["session"]
                    if isinstance(t, bool) or not isinstance(t, int) or t < 0:
                        raise FormatError(f"{res_path}: session {t!r} is not a "
                                          "non-negative integer")
                max_sessions = max(max_sessions, len(sessions))
                multi_rows.append(
                    (label, {rec["session"]: f"{rec['acc_weighted']:.2f}" for rec in sessions}))
                for rec in sessions:
                    conf = rec.get("confusion")
                    if conf:
                        grid_path = out / f"confusion_{label}_s{rec['session']}.csv"
                        with grid_path.open("w", newline="") as fh:
                            writer = csv.writer(fh)
                            writer.writerow(["gold\\pred"] + conf["class_ids"])
                            for cid, row in zip(conf["class_ids"], conf["counts"]):
                                writer.writerow([cid] + row)
            else:
                result = payload["result"]
                single_rows.append([label, f"{result['acc']['mean']:.2f}",
                                    f"{result['acc']['ci95']:.2f}",
                                    f"{result['delta']['mean']:.2f}",
                                    f"{result['abs_delta']:.2f}",
                                    result["n_episodes"], result["n_failed"]])
        except (KeyError, TypeError, ValueError) as err:
            raise FormatError(f"{res_path}: malformed {protocol} result "
                              f"({type(err).__name__}: {err})") from None

    if multi_rows:
        with (out / "sessions.csv").open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["model"] + [str(t) for t in range(max_sessions)])
            for label, accs in multi_rows:
                writer.writerow([label] + [accs.get(t, "") for t in range(max_sessions)])
    if single_rows:
        with (out / "episodes.csv").open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["model", "acc", "ci95", "delta", "abs_delta",
                             "n_episodes", "n_failed"])
            writer.writerows(single_rows)
    print(f"wrote report files under {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="incrlin",
        description="Incremental linear classifiers over frozen features.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--features", required=True, help="feature store (CSV or binary)")
        p.add_argument("--manifest", help="class manifest JSON (labels + session plan)")
        p.add_argument("--embeddings", help="per-class embedding CSV")
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, default=None, help="rng seed override")
        p.add_argument("--out", required=True, help="output path")

    p = sub.add_parser("train-base", help="fit base-class weights on a feature store")
    add_common(p)
    p.set_defaults(func=cmd_train_base)

    p = sub.add_parser("run-multi", help="run the multi-session incremental protocol")
    add_common(p)
    p.add_argument("--base-weights", help="ingest base weights CSV instead of training")
    p.add_argument("--regularizer", choices=REGULARIZER_KINDS)
    p.add_argument("--memory", action="store_true",
                   help="retain one example per archived class for replay")
    p.add_argument("--k-shot", type=int, default=None,
                   help="limit each incremental session to k support examples per class")
    p.add_argument("--no-confusion", action="store_true",
                   help="omit confusion matrices from the output")
    p.add_argument("--dump-weights", help="export the final-session weights to this CSV")
    p.add_argument("--label", type=_plain_label,
                   help="run label used in reports (default: the --out file's stem)")
    p.set_defaults(func=cmd_run_multi)

    p = sub.add_parser("run-single", help="run the episodic single-session protocol")
    add_common(p)
    p.add_argument("--base-weights", help="ingest base weights CSV instead of training")
    p.add_argument("--regularizer", choices=REGULARIZER_KINDS)
    p.add_argument("--episodes", type=int, default=2000)
    p.add_argument("--n-way", type=int, default=5)
    p.add_argument("--k-shot", type=int, default=1)
    p.add_argument("--n-query", type=int, default=50)
    p.add_argument("--keep-episodes", action="store_true",
                   help="include per-episode records in the output")
    p.add_argument("--label", type=_plain_label,
                   help="run label used in reports (default: the --out file's stem)")
    p.set_defaults(func=cmd_run_single)

    p = sub.add_parser("synth-gen", help="write synthetic fixtures")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--classes", type=int, default=40)
    p.add_argument("--dim", type=int, default=32)
    p.add_argument("--support", type=int, default=25)
    p.add_argument("--query", type=int, default=25)
    p.add_argument("--sigma", type=float, default=0.3, help="within-class stddev")
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except EngineError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except OSError as err:  # a file that cannot be opened, read or written
        where = "" if err.filename is None else f": {err.filename}"
        print(f"error: {err.strerror or err}{where}", file=sys.stderr)
        return 1
    except BrokenExecutor as err:  # a pool worker was killed (say, out of memory)
        print(f"error: a worker process died: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
