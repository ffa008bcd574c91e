"""incrlin benchmark: one workload per process, timed end to end or traced per layer.

Usage, from the repository root:

    python3 bench/run.py --workload episodic --seed 0 --seconds 30 --trace 0

Workloads are ``episodic``, ``sessions`` and ``ingest`` (see workloads.py).
The package is imported from ``src/`` of the checkout, BLAS is pinned to one
thread, and the run:

1. sets up several times (import, fixtures, base weights) and reports the
   median as ``setup_s``;
2. repeats rounds of the workload's fixed work until ``--seconds`` is spent,
   at least two, and checks each round's outputs: exit code, no failed
   operation, bytes identical to the first round, exact store round trips,
   and the accuracy recorded for the seed in ``expected.json``;
3. with ``--trace 1``, sets up once under the tracer, alternates untraced and
   traced rounds, and reports the per-layer metrics of spans.py with the
   tracing overhead and the wall time no span covers.

Lines before the last name every metric with its unit; the last line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``. A
full record goes to ``bench/out/``. The exit code is 1 if any check failed
and 2 if the checkout has no ``src/incrlin``.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPS = 3
MIN_ROUNDS = 2


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=["episodic", "sessions", "ingest"])
    p.add_argument("--seed", type=int, default=0,
                   help="workload seed; 0 for development, 1 to confirm a claim")
    p.add_argument("--seconds", type=float, default=30.0, help="measured time per run")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def blas_name(np) -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{blas.get('name')} {blas.get('version')}"


def run_metadata(np) -> dict:
    import ctypes

    threads = None
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                threads = int(getattr(lib, sym)())
                break
    except OSError:
        pass
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    src_files = sorted(SRC.rglob("*.py"))
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name(np),
        "blas_threads": threads,
        "nproc": os.cpu_count(),
        "src_lines": sum(len(f.read_text().splitlines()) for f in src_files),
        "src_files": len(src_files),
    }


def geomean(values) -> float:
    logs = [math.log(v) for v in values]
    return math.exp(sum(logs) / len(logs))


def kind_medians(rounds, attr: str) -> dict[str, float]:
    """Per op kind, the median over rounds of the op's ``attr``."""
    per_kind: dict[str, list[float]] = {}
    for ops in rounds:
        for op in ops:
            per_kind.setdefault(op.kind, []).append(getattr(op, attr))
    return {k: statistics.median(v) for k, v in per_kind.items()}


def load_package():
    """Import numpy and incrlin from ``src/`` with BLAS pinned to one thread.

    Returns (numpy, seconds the imports took); exits with code 2 when the
    checkout has no importable ``src/incrlin``.
    """
    if not (SRC / "incrlin" / "__init__.py").is_file():
        print(f"error: no incrlin package under {SRC}; run from a full checkout", file=sys.stderr)
        raise SystemExit(2)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import numpy as np

    import incrlin
    import incrlin.cli  # noqa: F401  (the CLI module is part of the import cost)
    import_s = time.perf_counter() - t0
    if Path(incrlin.__file__).resolve().parent != (SRC / "incrlin").resolve():
        print(f"error: imported incrlin from {incrlin.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)
    return np, import_s


def recorded_value(workload: str, seed: int, np):
    """The result recorded for this workload and seed, or None when the seed
    was not recorded or the numeric stack differs from the recording one."""
    table = json.loads((BENCH / "expected.json").read_text())
    env = table.get("environment", {})
    if env.get("numpy") != np.__version__ or env.get("blas") != blas_name(np):
        return None
    return table.get(workload, {}).get(str(seed))


def main(argv=None) -> int:
    args = parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != "0":
        # String hashing is randomised per process, which changes dict layouts
        # and with them the heap: one sessions run peaked at 107 or 118 MB.
        # Replace this process with one whose hashing is fixed.
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": "0"})
    np, import_s = load_package()

    import spans as spans_mod
    from workloads import WORKLOADS

    work = BENCH / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    out_dir = BENCH / "out"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    out_dir.mkdir(exist_ok=True)
    tracer = spans_mod.Tracer() if args.trace else None
    try:
        wl = WORKLOADS[args.workload](work, args.seed)
        return run(args, wl, tracer, np, import_s, out_dir)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args, wl, tracer, np, import_s, out_dir) -> int:
    import incrlin
    import spans as spans_mod

    # --- set-up ---
    setup_times = []
    if tracer is None:
        for _ in range(SETUP_REPS):
            t = time.perf_counter()
            wl.setup()
            setup_times.append(time.perf_counter() - t)
    else:
        tracer.install(incrlin)
        with tracer.span("bench.setup"):
            wl.setup()
        tracer.uninstall()

    # --- rounds ---
    def arm_span(kind):
        return tracer.span(f"bench.arm.{kind}") if tracer is not None and tracer.run else nullcontext()

    start = time.perf_counter()
    rounds, traced_flags, walls = [], [], []
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.run = len(rounds) + 1
            tracer.install(incrlin)
        t = time.perf_counter()
        with (tracer.span("bench.round") if traced else nullcontext()):
            ops = wl.run_round(arm_span)
        walls.append(time.perf_counter() - t)
        if traced:
            tracer.uninstall()
            tracer.run = 0
        rounds.append(ops)
        traced_flags.append(traced)
        elapsed = time.perf_counter() - start
        if len(rounds) >= MIN_ROUNDS and elapsed + statistics.median(walls) > args.seconds:
            break

    # --- checks ---
    problems = [p for ops in rounds for op in ops for p in op.problems]
    first = {op.kind: op.digest for op in rounds[0]}
    for r, ops in enumerate(rounds[1:], start=2):
        for op in ops:
            if op.digest != first[op.kind]:
                problems.append(f"round {r}: {op.kind} output differs from round 1")
                op.failed = op.count
    value = wl.value(rounds[0])
    expected = recorded_value(wl.name, args.seed, np) if wl.value_name else None
    if expected is not None and value != expected:
        problems.append(f"{wl.value_name} {value!r} != recorded {expected!r} for seed {args.seed}")
        for ops in rounds:  # every round produced this same wrong result
            for op in ops:
                op.failed = op.count
    attempted = sum(op.count for ops in rounds for op in ops)
    failed = sum(min(op.count, op.failed) for ops in rounds for op in ops)

    # --- metrics ---
    meta = run_metadata(np)
    plain = [ops for ops, tr in zip(rounds, traced_flags) if not tr]
    human = {}
    if tracer is None:
        counts, secs = kind_medians(plain, "count"), kind_medians(plain, "seconds")
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": (import_s + statistics.median(setup_times), "s"),
            "ops_per_s": (geomean(counts[k] / secs[k] for k in wl.kinds), "1/s"),
            "peak_rss_mb": (peak_mb, "MB"),
        }
        human.update(wl.figures(secs, kind_medians(plain, "mb")))
    else:
        traced_runs = [r + 1 for r, tr in enumerate(traced_flags) if tr]
        counts = [spans_mod.call_counts(tracer, r) for r in traced_runs]
        if any(c != counts[0] for c in counts[1:]):
            problems.append("traced rounds differ in their per-function call counts")
        metrics = spans_mod.per_layer(tracer, traced_runs)
        untraced = statistics.median(sum(op.seconds for op in ops) for ops in plain)
        traced_s = statistics.median(
            sum(op.seconds for op in ops) for ops, tr in zip(rounds, traced_flags) if tr)
        metrics["trace.overhead_frac"] = (traced_s / untraced - 1.0, "ratio")
        tracer.write_jsonl_gz(out_dir / f"spans-{wl.name}-seed{args.seed}.jsonl.gz")
    human["failed_frac"] = (failed / attempted, "ratio")
    if value is not None:
        human[wl.value_name] = (value, "%")

    record = {
        "workload": wl.name, "seed": args.seed, "trace": args.trace, "meta": meta,
        "rounds": len(rounds), "round_s": walls, "setup_times_s": setup_times,
        "import_s": import_s, "expected": expected, "problems": problems,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in {**metrics, **human}.items()},
    }
    (out_dir / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n")

    print("meta " + json.dumps(meta, sort_keys=True))
    print(f"{wl.name}: {len(rounds)} rounds of {', '.join(wl.kinds)}; "
          f"{attempted} {wl.op_unit} attempted, {failed} failed; "
          f"{wl.value_name or 'result'} check: "
          + ("not recorded for this seed" if wl.value_name and expected is None else "done"))
    for name, (v, unit) in {**metrics, **human}.items():
        print(f"{wl.name:9s} {name:48s} {v:14.6g} {unit}")
    for p in problems:
        print(f"CHECK FAILED: {p}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
