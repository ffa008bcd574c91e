"""The determinism table: the same inputs and seed give the same bytes. Each row
runs two variants of one ``incrlin`` command (on all CPUs, where pools fork
workers and the FSCF codec runs threads, or on one; on one BLAS thread or two;
on two input formats; or twice alike) and compares the named outputs; it exits
1 if a row fails. Run it on 2+ CPUs, as ``PYTHONPATH=src python
tools/invariants.py`` or with incrlin installed."""
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from incrlin import io


def same_bytes(a: Path, b: Path, past: int = -1) -> str | None:  # and over ``past`` bytes
    if a.read_bytes() != b.read_bytes():
        return f"{a.name} differs"
    return None if a.stat().st_size > past else f"{a.name} is not past {past} B"


def close_weights(a: Path, b: Path) -> str | None:  # BLAS threads may round differently
    w1, w2 = (io.load_weights_csv(p).matrix for p in (a, b))
    drift = abs(w1 - w2).max() / abs(w1).max()
    return None if drift <= 1e-12 else f"{a.name} drifts {drift:.3g} of max|w|"


def quoted(d: Path) -> None:  # lone-CR line ends and quoted split names, which numpy keeps
    text = (d / "features.csv").read_bytes().replace(b"\n", b"")
    (d / "quoted.csv").write_bytes(text.replace(b",query,", b',"query",'))


FIXTURES = {  # name: synth-gen options, then a step on the written directory
    "data": ("--per-session 20", None),
    "big": ("--classes 40 --dim 256 --per-session 20", quoted),
    "fb": ("--per-session 20 --binary", lambda d: io.save_feature_store_csv(  # a CSV re-save
        io.load_feature_store(d / "features.fscf"), d / "features.csv")),
    "wide": ("--classes 30 --dim 640 --base 20 --per-session 10 --binary", None),
    "wide40": ("--classes 40 --dim 640 --base 20 --per-session 5 --binary", None),
    "bigb": ("--classes 60 --dim 640 --base 20 --per-session 20 --binary", None),  # 7.7 MB
}
POOLED, ONE_CPU = {"name": "pooled"}, {"name": "one CPU", "one_cpu": True}
BLAS1 = {"name": "1 BLAS thread", "env": {"OPENBLAS_NUM_THREADS": "1"}}
BLAS2 = {"name": "2 BLAS threads", "env": {"OPENBLAS_NUM_THREADS": "2"}}
CSV, FSCF, QUOTED = ({"name": f, "f": f} for f in ("features.csv", "features.fscf", "quoted.csv"))
R, W = {"r.json": same_bytes}, {"w.csv": same_bytes}
INPUTS = " --features {f} --manifest {f.parent}/manifest.json"
SINGLE = "run-single --episodes 40 --keep-episodes --out {out}/r.json" + INPUTS
MULTI = "run-multi --k-shot 5 --dump-weights {out}/w.csv --out {out}/r.json" + INPUTS
EMBEDDED = MULTI + " --embeddings {f.parent}/embeddings.csv --regularizer "
BASE = "train-base --out {out}/w.csv" + INPUTS
ROWS = [  # name, fixture features, command, variant a, variant b, {output: check}
    ("run-single finetune", "data/features.csv", SINGLE, POOLED, ONE_CPU, R),
    ("run-single subspace", "data/features.csv", SINGLE + " --regularizer subspace",
     POOLED, ONE_CPU, R),
    ("run-single 5-shot", "wide/features.fscf", SINGLE + " --k-shot 5", POOLED, ONE_CPU, R),
    ("synth-gen in blocks", "big/features.csv", "synth-gen --out-dir {out} " + FIXTURES["big"][0],
     POOLED, ONE_CPU, {"features.csv": lambda a, b: same_bytes(a, b, 8 << 20)}),
    ("train-base", "big/features.csv", BASE, POOLED, ONE_CPU, W),
    ("train-base", "big/features.csv", BASE, CSV, QUOTED, W),
    ("synth-gen --binary in blocks", "bigb/features.fscf",
     "synth-gen --out-dir {out} " + FIXTURES["bigb"][0], POOLED, ONE_CPU,
     {"features.fscf": lambda a, b: same_bytes(a, b, 6 << 20)}),
    ("train-base", "bigb/features.fscf", BASE, POOLED, ONE_CPU, W),
    ("run-multi memory", "fb/features.csv", MULTI + " --memory", FSCF, CSV, R | W),
    ("run-single", "fb/features.csv", SINGLE, FSCF, CSV, R),
    ("run-multi linmap", "wide/features.fscf", EMBEDDED + "linmap", BLAS1, BLAS2,
     {"w.csv": close_weights}),
    ("run-multi subspace", "wide40/features.fscf", EMBEDDED + "subspace", BLAS2, BLAS2, R | W),
    ("run-multi linmap", "wide40/features.fscf", EMBEDDED + "linmap", BLAS2, BLAS2, R | W),
]


def incrlin(command: str, variant: dict, **names) -> None:
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", **variant.get("env", {})}
    cpu = min(os.sched_getaffinity(0))
    pin = (lambda: os.sched_setaffinity(0, {cpu})) if variant.get("one_cpu") else None
    subprocess.run([sys.executable, "-m", "incrlin.cli", *command.format(**names).split()],
                   env=env, preexec_fn=pin, stdout=subprocess.DEVNULL, check=True)


def main() -> int:
    if len(os.sched_getaffinity(0)) < 2:
        sys.exit("invariants: needs 2 or more CPUs, or its pooled runs run on one")
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, (options, step) in FIXTURES.items():
            incrlin(f"synth-gen --out-dir {tmp}/{name} {options}", POOLED)
            if step:
                step(Path(tmp, name))
        for i, (name, features, command, *variants, checks) in enumerate(ROWS):
            print(f"{name}, {variants[0]['name']} vs {variants[1]['name']}: ", end="", flush=True)
            outs = [Path(tmp, f"row{i}{side}") for side in "ab"]
            for out, variant in zip(outs, variants):
                out.mkdir()
                path = Path(tmp, features).with_name(variant.get("f", Path(features).name))
                incrlin(command, variant, out=out, f=path)
            faults = [fault for output, check in checks.items()
                      if (fault := check(outs[0] / output, outs[1] / output))]
            failed += bool(faults)
            print("FAIL, " + "; ".join(faults) if faults else "ok", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
