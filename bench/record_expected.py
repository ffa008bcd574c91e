"""Record, per workload seed, the result each benchmark run must reproduce.

    python3 bench/record_expected.py --seeds 0-31

For ``episodic`` and ``sessions`` this sets up once per seed, runs one round
and writes the round's accuracy (``acc_joint`` / ``acc_weighted_final``) to
``bench/expected.json`` with the numpy and BLAS versions it was recorded
under; ``run.py`` compares against it exactly when those match. Re-record
only when a change is meant to alter results, and say so with the change.
"""
from __future__ import annotations

import argparse
import json
import shutil
from contextlib import nullcontext

from run import BENCH, blas_name, load_package


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default="0-31", help="inclusive range, e.g. 0-31")
    args = p.parse_args()
    lo, hi = (int(x) for x in args.seeds.split("-"))
    np, _ = load_package()
    from workloads import WORKLOADS

    path = BENCH / "expected.json"
    table = json.loads(path.read_text()) if path.exists() else {}
    table["environment"] = {"numpy": np.__version__, "blas": blas_name(np)}
    for name in ("episodic", "sessions"):
        for seed in range(lo, hi + 1):
            work = BENCH / "work" / f"record-{name}-{seed}"
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            try:
                wl = WORKLOADS[name](work, seed)
                wl.setup()
                ops = wl.run_round(lambda kind: nullcontext())
            finally:
                shutil.rmtree(work, ignore_errors=True)
            problems = [q for op in ops for q in op.problems]
            if problems:
                raise SystemExit(f"{name} seed {seed}: {problems}")
            table.setdefault(name, {})[str(seed)] = wl.value(ops)
            print(name, seed, table[name][str(seed)], flush=True)
    path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
