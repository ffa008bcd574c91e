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
from pathlib import Path

from . import io
from .config import load_config_file, resolve_run_config
from .datamodel import REGULARIZER_KINDS, SessionStream, WeightMatrix
from .errors import ConfigError, EngineError, FormatError
from .protocol import run_multi_session, run_single_session
from .synth import SynthSpec, generate, incremental_split
from .trainer import train_base

RESULT_SCHEMA = 1


# The most bytes a label may take: a file name holds 255 (Linux's NAME_MAX),
# and the widest report file name around a label is a confusion grid's staged
# temporary name, ``.confusion_<label>_s<t>.csv.<pid>.tmp``, with 7 digits for
# the session and 7 for the process id (Linux's pid ceiling is 2**22).
_LABEL_BYTES = 255 - len(f".confusion__s{2**22}.csv.{2**22}.tmp")


def _plain_label(label) -> str:
    """A run label: one plain, non-empty file-name part (no ``/``, ``\\`` or
    NUL), since it names the report's rows and confusion files, of at most
    ``_LABEL_BYTES`` bytes."""
    try:
        name = (isinstance(label, str) and label not in ("", ".", "..")
                and not set("/\\\0") & set(label) and os.fsencode(label))
    except UnicodeError:  # a lone surrogate, which no file name holds
        name = None
    if not name:
        raise argparse.ArgumentTypeError(f"label {label!r} is not a plain name")
    if len(name) > _LABEL_BYTES:
        raise argparse.ArgumentTypeError(
            f"label of {len(name)} bytes is too long for a report file name "
            f"(at most {_LABEL_BYTES} bytes)")
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


def _grid(rows: list[list[int]], pad: str) -> str:
    """Integer rows, none of them empty, laid out as ``json.dumps(indent=2)``
    lays them out where their closing bracket is indented by ``pad``: their
    ``repr`` with its separators replaced."""
    if not rows:
        return "[]"
    row_pad, cell_pad = pad + "  ", pad + "    "
    body = (repr(rows)[2:-2]
            .replace("], [", f"\n{row_pad}],\n{row_pad}[\n{cell_pad}")
            .replace(", ", ",\n" + cell_pad))
    return f"[\n{row_pad}[\n{cell_pad}{body}\n{row_pad}]\n{pad}]"


def _result_text(payload: dict) -> str:
    """``json.dumps(payload, indent=2, sort_keys=True)`` and a newline. The
    indenting encoder runs in Python, value by value, and confusion counts are
    nearly all of a multi-session result's values, so each ``counts`` matrix
    goes in as a placeholder (a NUL, which json escapes) and is laid out by
    ``_grid`` at the placeholder's indentation. No other string of a result
    is a NUL: the label, its one free text, is a ``_plain_label``."""
    grids, sessions = [], []
    for rec in payload.get("sessions", ()):
        conf = rec.get("confusion")
        if conf is not None:
            grids.append(conf["counts"])
            rec = {**rec, "confusion": {**conf, "counts": "\0"}}
        sessions.append(rec)
    text = json.dumps({**payload, "sessions": sessions} if grids else payload,
                      indent=2, sort_keys=True)
    parts = text.split(json.dumps("\0"))
    out = [parts[0]]
    for rows, part in zip(grids, parts[1:]):
        line = out[-1][out[-1].rfind("\n") + 1:]
        out += [_grid(rows, " " * (len(line) - len(line.lstrip(" ")))), part]
    return "".join(out) + "\n"


def _write_result(args, cfg, extra: dict) -> None:
    """The result file: schema, resolved config, label, then ``extra``."""
    payload = {"schema": RESULT_SCHEMA, "config": cfg.as_dict(),
               "label": args.label or Path(args.out).stem, **extra}
    with io.staged(args.out) as [temp], temp.open("x") as fh:
        fh.write(_result_text(payload))


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
    last: dict = {}  # the latest session's weights, which replace the session before's
    hook = (lambda t, w: last.update(weights=w)) if args.dump_weights else None
    results = run_multi_session(stream, base_weights=base_weights,
                                collect_confusion=not args.no_confusion,
                                on_session_end=hook)
    if args.dump_weights:
        io.save_weights_csv(last["weights"], args.dump_weights)
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
    if args.per_session is not None:
        plan = incremental_split(args.classes, args.base, args.per_session)
        sessions = {c: t for t, classes in enumerate(plan) for c in classes}
    else:
        sessions = {c: 0 for c in range(args.classes)}
    labels = {c: f"class_{c}" for c in range(args.classes)}
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    features_path = out / ("features.fscf" if args.binary else "features.csv")
    save = io.save_feature_store_binary if args.binary else io.save_feature_store_csv
    # the three files replace any earlier ones together, once all are written
    with io.staged(features_path, out / "embeddings.csv", out / "manifest.json") as [
            features, embeddings, manifest]:
        save(data.store, features)
        io.save_embeddings_csv(data.embeddings, embeddings)
        io.save_manifest(manifest, labels, sessions)
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
    schema = payload.get("schema")
    if type(schema) is not int or schema != RESULT_SCHEMA:  # not ==: true and 1.0 equal 1
        raise FormatError(f"{path}: schema {schema!r} "
                          f"(this tool reads schema {RESULT_SCHEMA})")
    return payload


def cmd_report(args) -> int:
    # Every result is read, its label checked and every file's rows built
    # before any report file is written, and the files are written whole or
    # not at all, so a failed report leaves none.
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

    multi_rows = []
    single_rows = []
    grids = {}  # confusion file name -> its rows
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
                        grids[f"confusion_{label}_s{rec['session']}.csv"] = (
                            [["gold\\pred"] + conf["class_ids"]]
                            + [[cid] + row for cid, row in zip(conf["class_ids"], conf["counts"])])
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

    files = dict(grids)  # file name -> its rows
    if multi_rows:
        files["sessions.csv"] = [["model"] + [str(t) for t in range(max_sessions)]] + [
            [label] + [accs.get(t, "") for t in range(max_sessions)] for label, accs in multi_rows]
    if single_rows:
        files["episodes.csv"] = [["model", "acc", "ci95", "delta", "abs_delta",
                                  "n_episodes", "n_failed"]] + single_rows
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with io.staged(*(out / name for name in files)) as temps:
        for temp, rows in zip(temps, files.values()):
            with temp.open("x", newline="") as fh:
                csv.writer(fh).writerows(rows)
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

    def add_run(p):
        add_common(p)
        p.add_argument("--base-weights", help="ingest base weights CSV instead of training")
        p.add_argument("--regularizer", choices=REGULARIZER_KINDS)
        p.add_argument("--label", type=_plain_label,
                       help="run label used in reports (default: the --out file's stem)")

    p = sub.add_parser("train-base", help="fit base-class weights on a feature store")
    add_common(p)
    p.set_defaults(func=cmd_train_base)

    p = sub.add_parser("run-multi", help="run the multi-session incremental protocol")
    add_run(p)
    p.add_argument("--memory", action="store_true",
                   help="retain one example per archived class for replay")
    p.add_argument("--k-shot", type=int, default=None,
                   help="limit each incremental session to k support examples per class")
    p.add_argument("--no-confusion", action="store_true",
                   help="omit confusion matrices from the output")
    p.add_argument("--dump-weights", help="export the final-session weights to this CSV")
    p.set_defaults(func=cmd_run_multi)

    p = sub.add_parser("run-single", help="run the episodic single-session protocol")
    add_run(p)
    p.add_argument("--episodes", type=int, default=2000)
    p.add_argument("--n-way", type=int, default=5)
    p.add_argument("--k-shot", type=int, default=1)
    p.add_argument("--n-query", type=int, default=50)
    p.add_argument("--keep-episodes", action="store_true",
                   help="include per-episode records in the output")
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
    except Exception as err:
        # A pool whose worker was killed (say, out of memory) raises
        # BrokenExecutor. Its module loads only with a pool (incrlin.pool).
        futures = sys.modules.get("concurrent.futures")
        if futures is None or not isinstance(err, futures.BrokenExecutor):
            raise
        print(f"error: a worker process died: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
