"""In-memory span tracing of incrlin's public functions, installed from outside.

The tracer replaces each traced function at every place a caller looks it up:
the defining module, every incrlin module that imported the name (so
``incrlin.protocol.fine_tune`` is traced, not only ``incrlin.trainer.fine_tune``)
and the package namespace. Methods are patched on their class. ``uninstall``
puts every original back, so untraced and traced rounds alternate in one
process.

A span records its name, start, end, parent span, run id (the round it
belongs to), whether it raised, and an optional note taken from the call
(the FLOP count of an objective step, the epochs of a fine-tune, the bytes of
a file). Spans stay in memory until ``write_jsonl_gz``.
"""
from __future__ import annotations

import functools
import gzip
import json
import os
import sys
import time
import types

# Layers in the order reported; each is an incrlin module.
LAYERS = ("cli", "io", "datamodel", "linalg", "objectives", "trainer", "protocol", "synth")

# Methods traced on their class: the data-model entry points the protocols
# call, and the one objective step every trainer iteration runs.
METHODS = {
    "datamodel": {"FeatureStore": ("from_rows", "restrict"),
                  "SessionStream": ("support_examples", "query_batch_up_to")},
    "objectives": {"Objective": ("evaluate_dense",)},
}

# Span record fields.
NAME, START, END, PARENT, RUN, CHILD_S, ERROR, NOTE = range(8)


def _path_arg(args):
    for a in args:
        if isinstance(a, (str, os.PathLike)):
            return a
    return None


def _file_bytes(args, kwargs, result):
    path = _path_arg(args) or kwargs.get("path")
    return os.path.getsize(path) if path is not None and os.path.isfile(path) else 0


def _step_flops(args, kwargs, result):
    """FLOPs of one ``Objective.evaluate_dense`` call, computed from its shapes:
    the two (n, d) x (d, C) products of the softmax cross-entropy, the
    subspace projection of the novel rows, and the element-wise penalty terms."""
    obj, m, feats = args[0], args[1], args[2]
    c, d = m.shape
    n = feats.shape[0]
    flops = 4 * n * c * d + 6 * c * d
    basis = getattr(obj, "_basis", None)
    novel = getattr(obj, "_novel_pos", ())
    if basis is not None:
        flops += 4 * len(novel) * d * basis.matrix.shape[1]
    return flops


def _train_report(args, kwargs, result):
    report = result[1]
    return (report.epochs_run, bool(report.converged))


NOTES = {
    "objectives.Objective.evaluate_dense": _step_flops,
    "trainer.fine_tune": _train_report,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.run = 0
        self._patches: list[tuple[object, str, object]] = []
        self._wrapped: dict[int, object] = {}

    # --- recording ---------------------------------------------------------

    def name_id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def open(self, name_id: int) -> int:
        parent = self._stack[-1] if self._stack else -1
        i = len(self.spans)
        self.spans.append([name_id, time.perf_counter(), 0.0, parent, self.run, 0.0, False, None])
        self._stack.append(i)
        return i

    def close(self, i: int, error: bool = False, note=None) -> None:
        span = self.spans[i]
        span[END] = time.perf_counter()
        span[ERROR] = error
        span[NOTE] = note
        self._stack.pop()
        if span[PARENT] >= 0:
            self.spans[span[PARENT]][CHILD_S] += span[END] - span[START]

    def span(self, name: str):
        """Context manager for a span opened by the benchmark itself."""
        return _Span(self, self.name_id(name))

    def _wrap(self, name: str, fn):
        nid = self.name_id(name)
        note_fn = NOTES.get(name)
        if note_fn is None and name.startswith(("io.load_", "io.save_")):
            note_fn = _file_bytes
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = tracer.open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.close(i, error=True)
                raise
            tracer.close(i, note=note_fn(args, kwargs, result) if note_fn else None)
            return result

        return traced

    # --- patching ----------------------------------------------------------

    def install(self, package) -> None:
        """Trace every public function of the layer modules at every lookup site:
        the package namespace and every loaded ``incrlin.*`` module."""
        modules = {layer: getattr(package, layer) for layer in LAYERS}
        targets: dict[int, tuple[str, object]] = {}
        for layer, mod in modules.items():
            for attr, value in vars(mod).items():
                if (isinstance(value, types.FunctionType) and not attr.startswith("_")
                        and value.__module__ == mod.__name__):
                    targets[id(value)] = (f"{layer}.{attr}", value)
        for fid, (name, fn) in targets.items():
            if fid not in self._wrapped:
                self._wrapped[fid] = self._wrap(name, fn)
        prefix = package.__name__ + "."
        sites = [package] + [m for n, m in sorted(sys.modules.items()) if n.startswith(prefix)]
        for mod in sites:
            for attr, value in list(vars(mod).items()):
                wrapped = self._wrapped.get(id(value)) if isinstance(value, types.FunctionType) else None
                if wrapped is not None:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrapped)
        for layer, classes in METHODS.items():
            for cls_name, methods in classes.items():
                cls = getattr(modules[layer], cls_name)
                for meth in methods:
                    raw = cls.__dict__[meth]
                    name = f"{layer}.{cls_name}.{meth}"
                    if isinstance(raw, classmethod):
                        patched = classmethod(self._wrap(name, raw.__func__))
                    else:
                        patched = self._wrap(name, raw)
                    self._patches.append((cls, meth, raw))
                    setattr(cls, meth, patched)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # --- output ------------------------------------------------------------

    def write_jsonl_gz(self, path) -> None:
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": self.names[s[NAME]], "start": s[START], "end": s[END],
                    "parent": s[PARENT], "run": s[RUN], "self_s": s[END] - s[START] - s[CHILD_S],
                    "error": s[ERROR], "note": s[NOTE]}) + "\n")


class _Span:
    def __init__(self, tracer: Tracer, name_id: int):
        self.tracer = tracer
        self.name_id = name_id

    def __enter__(self):
        self.i = self.tracer.open(self.name_id)
        return self

    def __exit__(self, exc_type, exc, tb):
        self.tracer.close(self.i, error=exc_type is not None)
        return False


# --- per-layer metrics ----------------------------------------------------------

ARMS_MULTI = ("finetune", "subspace", "semantic", "linmap", "finetune_memory")


def _pct(values, q):
    if not values:
        return 0.0
    v = sorted(values)
    return v[min(len(v) - 1, int(q * len(v)))]


def call_counts(tracer: Tracer, run: int) -> dict[str, int]:
    """Calls per span name in one run; a deterministic round repeats them exactly."""
    counts: dict[str, int] = {}
    for s in tracer.spans:
        if s[RUN] == run:
            name = tracer.names[s[NAME]]
            counts[name] = counts.get(name, 0) + 1
    return counts


def per_layer(tracer: Tracer, traced_runs: list[int]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics over the set-up run (run 0) plus one traced round.

    Sums and counts are the set-up's plus the mean over ``traced_runs``;
    percentiles pool every sample from those runs. ``.s`` is inclusive time,
    ``.self_s`` excludes child spans, and ``layer.<m>.self_s`` sums the self
    time of every span of module ``m``.
    """
    runs = {0, *traced_runs}
    first_round = {0, *traced_runs[:1]}  # epoch counts: set-up plus one round, exactly
    per_round = 1.0 / max(1, len(traced_runs))
    names = tracer.names
    spans = tracer.spans
    total: dict[str, float] = {}
    self_total: dict[str, float] = {}
    calls: dict[str, float] = {}
    durations: dict[str, list[float]] = {}
    train_notes: list[tuple[int, bool]] = []
    layer_self = {layer: 0.0 for layer in LAYERS}
    arm_s = {arm: 0.0 for arm in ARMS_MULTI}
    failed_episodes = 0.0
    bytes_read = bytes_written = 0.0
    uncovered = 0.0
    n_spans = 0.0
    flops = 0.0
    step = "objectives.Objective.evaluate_dense"
    for s in spans:
        if s[RUN] not in runs:
            continue
        w = 1.0 if s[RUN] == 0 else per_round
        name = names[s[NAME]]
        dur = s[END] - s[START]
        self_s = dur - s[CHILD_S]
        parent = names[spans[s[PARENT]][NAME]] if s[PARENT] >= 0 else ""
        n_spans += w
        total[name] = total.get(name, 0.0) + w * dur
        self_total[name] = self_total.get(name, 0.0) + w * self_s
        calls[name] = calls.get(name, 0.0) + w
        durations.setdefault(name, []).append(dur)
        if name == step:
            flops += w * s[NOTE]
        elif name == "trainer.fine_tune" and s[NOTE] is not None and s[RUN] in first_round:
            train_notes.append(s[NOTE])
        layer = name.split(".", 1)[0]
        if layer in layer_self:
            layer_self[layer] += w * self_s
            if s[NOTE] is not None and name.startswith("io.") and not parent.startswith("io."):
                if name.startswith("io.load_"):
                    bytes_read += w * s[NOTE]
                elif name.startswith("io.save_"):
                    bytes_written += w * s[NOTE]
        if s[ERROR] and name in ("protocol.sample_episode", "protocol.run_episode"):
            failed_episodes += w
        if name == "bench.round" or name.startswith("bench.arm."):
            uncovered += w * self_s
        if name == "protocol.run_multi_session":
            a = s[PARENT]
            while a >= 0 and not names[spans[a][NAME]].startswith("bench.arm."):
                a = spans[a][PARENT]
            if a >= 0:
                arm = names[spans[a][NAME]][len("bench.arm."):]
                arm_s[arm] = arm_s.get(arm, 0.0) + w * dur

    step_s = total.get(step, 0.0)
    gflop = 1e-9 * flops
    ft = "trainer.fine_tune"
    epochs = [e for e, _ in train_notes]
    converged = [c for _, c in train_notes]
    out = {
        "objectives.evaluate_dense.calls": (calls.get(step, 0.0), "count"),
        "objectives.evaluate_dense.us_p50": (1e6 * _pct(durations.get(step), 0.5), "us"),
        "objectives.evaluate_dense.us_p99": (1e6 * _pct(durations.get(step), 0.99), "us"),
        "objectives.evaluate_dense.s": (step_s, "s"),
        "objectives.evaluate_dense.gflop": (gflop, "GFLOP"),
        "objectives.evaluate_dense.gflop_per_s": (gflop / step_s if step_s else 0.0, "GFLOP/s"),
        "trainer.fine_tune.calls": (calls.get(ft, 0.0), "count"),
        "trainer.fine_tune.self_s": (self_total.get(ft, 0.0), "s"),
        "trainer.fine_tune.epochs_p50": (float(_pct(epochs, 0.5)), "count"),
        "trainer.fine_tune.epochs_max": (float(max(epochs, default=0)), "count"),
        "trainer.fine_tune.converged_ratio": (
            sum(converged) / len(converged) if converged else 0.0, "ratio"),
        "trainer.train_base.s": (total.get("trainer.train_base", 0.0), "s"),
        "trainer.init_novel_weights.s": (total.get("trainer.init_novel_weights", 0.0), "s"),
        "protocol.run_episode.ms_p50": (1e3 * _pct(durations.get("protocol.run_episode"), 0.5), "ms"),
        "protocol.run_episode.ms_p99": (1e3 * _pct(durations.get("protocol.run_episode"), 0.99), "ms"),
        "protocol.run_episode.self_s": (self_total.get("protocol.run_episode", 0.0), "s"),
        "protocol.sample_episode.s": (total.get("protocol.sample_episode", 0.0), "s"),
        "protocol.episodes_failed": (failed_episodes, "count"),
    }
    for arm in ARMS_MULTI:
        out[f"protocol.run_multi_session.{arm}.s"] = (arm_s[arm], "s")
    out.update({
        "protocol.predict.s": (total.get("protocol.predict", 0.0), "s"),
        "protocol.predict.calls": (calls.get("protocol.predict", 0.0), "count"),
        "protocol.confusion_matrix.s": (total.get("protocol.confusion_matrix", 0.0), "s"),
        "linalg.orthonormal_basis.s": (total.get("linalg.orthonormal_basis", 0.0), "s"),
        "linalg.fit_least_squares.s": (total.get("linalg.fit_least_squares", 0.0), "s"),
        "objectives.semantic_targets.s": (total.get("objectives.semantic_targets", 0.0), "s"),
    })
    for name in ("datamodel.FeatureStore.from_rows", "datamodel.FeatureStore.restrict",
                 "datamodel.SessionStream.support_examples",
                 "datamodel.SessionStream.query_batch_up_to", "datamodel.update_memory"):
        out[f"{name}.s"] = (total.get(name, 0.0), "s")
    for name in ("io.load_feature_store_binary", "io.load_feature_store_csv",
                 "io.save_feature_store_binary", "io.save_feature_store_csv"):
        out[f"{name}.self_s"] = (self_total.get(name, 0.0), "s")
    out["io.bytes_read"] = (bytes_read, "B")
    out["io.bytes_written"] = (bytes_written, "B")
    out["cli.main.self_s"] = (layer_self["cli"], "s")
    out["synth.generate.s"] = (total.get("synth.generate", 0.0), "s")
    for layer in LAYERS[1:]:  # the cli layer is cli.main.self_s above
        out[f"layer.{layer}.self_s"] = (layer_self[layer], "s")
    out["trace.uncovered_s"] = (uncovered, "s")
    out["trace.spans"] = (n_spans, "count")
    return out
