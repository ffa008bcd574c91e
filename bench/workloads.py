"""The three benchmark workloads. Each has a set-up (fixtures from
``incrlin.synth`` for the workload seed, written to files, plus base weights
from ``train-base``) and a round: a fixed amount of work through incrlin's
public entry points, timed per operation kind and checked.

- ``episodic``: ``incrlin run-single`` on 30-class d=32 fixtures, arms
  ``finetune`` (stops early at varied epochs) and ``subspace`` (every episode
  runs to ``max_epochs``). Per-call overhead regime: tiny objective steps.
- ``sessions``: ``incrlin run-multi`` at d=640, 60 base classes plus 8
  sessions of 5-way 5-shot, five arms. FLOP-bound steps, 2.5k scored
  queries with confusion matrices; the memory arm takes the mini-batch path.
- ``ingest``: save then load a 50k x 640 binary ``FSCF`` store and a
  5k x 640 CSV store through ``incrlin.io``. Nothing is trained.
"""
from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io as stdio
import json
import time
from pathlib import Path

import numpy as np

from incrlin import cli, io, synth


@dataclasses.dataclass
class Op:
    """One timed call: ``count`` operations of one kind."""

    kind: str
    count: int
    seconds: float
    failed: int = 0
    digest: str = ""
    value: float | None = None
    mb: float = 0.0
    problems: list[str] = dataclasses.field(default_factory=list)


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with path.open("rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _cli(argv: list[str]) -> int:
    """Run the incrlin CLI in-process with its progress lines captured."""
    with contextlib.redirect_stdout(stdio.StringIO()):
        return cli.main(argv)


class Workload:
    name = ""
    kinds: tuple[str, ...] = ()
    op_unit = ""
    value_name = ""  # result that must repeat exactly, or "" for none

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed

    def setup(self) -> None:
        raise NotImplementedError

    def run_round(self, arm_span) -> list[Op]:
        raise NotImplementedError

    @staticmethod
    def timed(arm_span, kind: str, fn):
        """Run ``fn`` inside the span of its operation kind; returns (result, seconds)."""
        with arm_span(kind):
            t0 = time.perf_counter()
            result = fn()
            return result, time.perf_counter() - t0

    def cli_op(self, arm_span, kind: str, argv: list[str], out: Path, count: int):
        """Time one CLI call writing ``out``; returns (op, parsed JSON or None)."""
        rc, dt = self.timed(arm_span, kind, lambda: _cli(argv))
        op = Op(kind, count, dt)
        if rc != 0:
            op.problems.append(f"{kind}: exit code {rc}")
            op.failed = count
            return op, None
        blob = out.read_bytes()
        op.digest = hashlib.sha256(blob).hexdigest()
        return op, json.loads(blob)

    def figures(self, secs: dict[str, float], mbs: dict[str, float]) -> dict[str, tuple]:
        """The workload's own end-to-end figures from per-kind median seconds
        and MB, printed beside the gated metrics."""
        raise NotImplementedError

    def value(self, ops: list[Op]) -> float | None:
        vals = [op.value for op in ops if op.value is not None]
        return sum(vals) / len(vals) if vals else None


class Episodic(Workload):
    name = "episodic"
    kinds = ("finetune", "subspace")
    op_unit = "episodes"
    value_name = "acc_joint"
    episodes = 40
    # Base rows trained at the preset rate 0.002 stay so small that no
    # finetune episode meets the stall rule within 1000 epochs; at 0.01 they
    # stop at ~400-1000 epochs.
    base_learning_rate = 0.01

    def setup(self) -> None:
        w = self.work
        (w / "base_config.json").write_text(
            json.dumps({"optimizer": {"learning_rate": self.base_learning_rate}}))
        for argv in (
            ["synth-gen", "--out-dir", str(w), "--classes", "30", "--dim", "32",
             "--base", "20", "--per-session", "10", "--seed", str(self.seed)],
            ["train-base", "--features", str(w / "features.csv"),
             "--manifest", str(w / "manifest.json"), "--config", str(w / "base_config.json"),
             "--out", str(w / "base.csv"), "--seed", str(self.seed)],
        ):
            if _cli(argv) != 0:
                raise RuntimeError(f"set-up step failed: incrlin {' '.join(argv)}")

    def figures(self, secs, mbs):
        out = {"episodes_per_s": (len(self.kinds) * self.episodes / sum(secs.values()), "1/s")}
        for k in self.kinds:
            out[f"ms_per_episode.{k}"] = (1e3 * secs[k] / self.episodes, "ms")
        return out

    def run_round(self, arm_span) -> list[Op]:
        w = self.work
        ops = []
        for arm in self.kinds:
            out = w / f"single_{arm}.json"
            argv = ["run-single", "--features", str(w / "features.csv"),
                    "--manifest", str(w / "manifest.json"), "--base-weights", str(w / "base.csv"),
                    "--regularizer", arm, "--episodes", str(self.episodes), "--n-way", "5",
                    "--k-shot", "1", "--n-query", "50", "--seed", str(self.seed), "--out", str(out)]
            op, payload = self.cli_op(arm_span, arm, argv, out, self.episodes)
            ops.append(op)
            if payload is None:
                continue
            result = payload["result"]
            op.value = result["acc"]["mean"]
            op.failed = result["n_failed"]
            if result["n_episodes"] != self.episodes:
                op.problems.append(f"{arm}: {result['n_episodes']} episodes, expected {self.episodes}")
            if result["n_failed"]:
                op.problems.append(f"{arm}: {result['n_failed']} failed episodes")
        return ops


class Sessions(Workload):
    name = "sessions"
    kinds = ("finetune", "subspace", "semantic", "linmap", "finetune_memory")
    op_unit = "sessions"
    value_name = "acc_weighted_final"
    n_sessions = 8
    # Every session runs to this cap (the presets' 1000 would make one round
    # of five arms take ~40 s); the per-step shapes are the paper's.
    max_epochs = 150
    # Within-class spread: 0.3 leaves d=640 accuracy near 21%, 0.067 at 100%.
    sigma = 0.15

    def setup(self) -> None:
        w = self.work
        (w / "config.json").write_text(json.dumps({"optimizer": {"max_epochs": self.max_epochs}}))
        for argv in (
            ["synth-gen", "--out-dir", str(w), "--classes", "100", "--dim", "640",
             "--base", "60", "--per-session", "5", "--support", "10", "--query", "25",
             "--sigma", str(self.sigma), "--binary", "--seed", str(self.seed)],
            ["train-base", "--features", str(w / "features.fscf"),
             "--manifest", str(w / "manifest.json"), "--config", str(w / "config.json"),
             "--out", str(w / "base.csv"), "--seed", str(self.seed)],
        ):
            if _cli(argv) != 0:
                raise RuntimeError(f"set-up step failed: incrlin {' '.join(argv)}")

    def figures(self, secs, mbs):
        out = {"sessions_per_s": (len(self.kinds) * self.n_sessions / sum(secs.values()), "1/s")}
        for k in self.kinds:
            out[f"arm_s.{k}"] = (secs[k], "s")
        return out

    def run_round(self, arm_span) -> list[Op]:
        w = self.work
        ops = []
        for arm in self.kinds:
            regularizer, _, memory = arm.partition("_")
            out = w / f"multi_{arm}.json"
            argv = ["run-multi", "--features", str(w / "features.fscf"),
                    "--manifest", str(w / "manifest.json"), "--embeddings", str(w / "embeddings.csv"),
                    "--base-weights", str(w / "base.csv"), "--config", str(w / "config.json"),
                    "--regularizer", regularizer, "--k-shot", "5", "--seed", str(self.seed),
                    "--out", str(out)] + (["--memory"] if memory else [])
            op, payload = self.cli_op(arm_span, arm, argv, out, self.n_sessions)
            ops.append(op)
            if payload is None:
                continue
            sessions = payload["sessions"]
            op.value = sessions[-1]["acc_weighted"]
            if len(sessions) != self.n_sessions + 1:
                op.problems.append(f"{arm}: {len(sessions)} sessions, expected {self.n_sessions + 1}")
                op.failed = self.n_sessions
        return ops


class Ingest(Workload):
    name = "ingest"
    kinds = ("fscf_save", "fscf_load", "csv_save", "csv_load")
    op_unit = "store ops"
    # 1000 classes x 50 rows = 50k rows for FSCF; the first 100 classes
    # (5k rows) for CSV.
    n_classes = 1000
    csv_classes = 100

    def setup(self) -> None:
        self.big = self.small = None  # free the previous set-up's stores first
        spec = synth.SynthSpec(n_classes=self.n_classes, dimension=640,
                               support_per_class=25, query_per_class=25, rng_seed=self.seed)
        self.big = synth.generate(spec).store
        self.small = self.big.restrict(range(self.csv_classes))

    def _same(self, loaded, ref, cast) -> str | None:
        if loaded.classes != ref.classes or loaded.dimension != ref.dimension:
            return "class set or dimension differs"
        for c in ref.classes:
            for got, want in ((loaded.support(c), ref.support(c)), (loaded.query(c), ref.query(c))):
                if not np.array_equal(got, cast(want)):
                    return f"class {c} rows differ"
        return None

    def figures(self, secs, mbs):
        return {f"{k}_mb_per_s": (mbs[k] / secs[k], "MB/s") for k in self.kinds}

    def run_round(self, arm_span) -> list[Op]:
        ops = []
        f32 = lambda a: a.astype(np.float32).astype(np.float64)  # noqa: E731
        same = lambda a: a  # noqa: E731
        for fmt, store, save, cast in (
            ("fscf", self.big, io.save_feature_store_binary, f32),
            ("csv", self.small, io.save_feature_store_csv, same),
        ):
            path = self.work / f"store.{fmt}"
            _, dt = self.timed(arm_span, f"{fmt}_save", lambda: save(store, path))
            mb = path.stat().st_size / 1e6
            ops.append(Op(f"{fmt}_save", 1, dt, digest=_sha256(path), mb=mb))
            loaded, dt = self.timed(arm_span, f"{fmt}_load", lambda: io.load_feature_store(path))
            op = Op(f"{fmt}_load", 1, dt, mb=mb)
            problem = self._same(loaded, store, cast)
            del loaded
            if problem:
                op.problems.append(f"{fmt} round trip: {problem}")
                op.failed = 1
            ops.append(op)
        return ops


WORKLOADS = {cls.name: cls for cls in (Episodic, Sessions, Ingest)}
