"""Record the benchmark's end-to-end metrics of one or two checkouts in a BENCH_*.json.

Usage, from the root of a checkout:

    python3 bench/record.py --change . [--parent PATH] [--seeds 91 92 ...]
                            [--seconds 4] [--tier1] [--out FILE]

For each workload of BENCHMARK.json and each seed, the unchanged
``perfbench/run.py --trace 0`` runs once in each checkout, in a fresh process,
with the order of the two alternating from pair to pair so that a drift of
the machine falls on both sides alike.  The JSON file gives, per workload and
side, each end-to-end metric's median and quartiles and every run's value;
with ``--parent``, for each metric the number of pairs in which the change did
better.  ``--tier1`` times the tier-1 tests once, in the change's checkout.
Each checkout is named by its git commit and whether its tracked files differ
from it; the machine by its CPU model, its cores, the Python, numpy and scipy
versions, the BLAS and its threads (``run.py`` pins one), and whether Python
writes bytecode.

The exit code is 1 when a run gives a wrong answer, fails an operation or
prints no result, and 0 otherwise: a time never fails a run.  A smoke test is
``python3 bench/record.py --change . --seeds 91 --seconds 0``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git_state(checkout: Path) -> dict:
    """The checkout's commit, and whether tracked files differ from it."""
    def git(*cmd: str) -> str | None:
        try:
            proc = subprocess.run(["git", "-C", str(checkout), *cmd], capture_output=True,
                                  text=True)
        except OSError:  # no git on this machine
            return None
        return proc.stdout.strip() if proc.returncode == 0 else None

    return {"commit": git("rev-parse", "HEAD"),
            "modified": bool(git("status", "--porcelain", "--untracked-files=no"))}


def machine() -> dict:
    import numpy
    import scipy

    model = next((line.split(":", 1)[1].strip() for line in
                  Path("/proc/cpuinfo").read_text().splitlines()
                  if line.startswith("model name")), platform.processor() or None)
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"cpu_model": model, "cores": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": 1,  # perfbench/run.py pins OPENBLAS/OMP/MKL_NUM_THREADS to 1
            "dont_write_bytecode": sys.flags.dont_write_bytecode}


def run_workload(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run; its result, or a failed one if it printed none."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{workload} seed {seed} in {checkout}: exit {proc.returncode}\n"
              f"{proc.stderr[-2000:]}", file=sys.stderr)
        return {"correct": False, "attempted": 0, "failed": 1, "metrics": {}}
    return json.loads(lines[-1])


def summary(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1
                 else (med, med, med))
    return {"median": med, "q1": q1, "q3": q3, "values": values}


def tier1(checkout: Path) -> dict:
    env = dict(os.environ, PYTHONPATH="src", OPENBLAS_NUM_THREADS="1")
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "--continue-on-collection-errors"],
                          cwd=checkout, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - start
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    return {"wall_s": wall, "exit": proc.returncode, "summary": last[0]}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--change", type=Path, required=True, help="checkout of the change")
    p.add_argument("--parent", type=Path, help="checkout of the parent commit")
    p.add_argument("--seeds", type=int, nargs="+", default=list(range(91, 101)))
    p.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    p.add_argument("--tier1", action="store_true", help="time the tier-1 tests once")
    p.add_argument("--out", type=Path, help="write the JSON here (default: standard output)")
    args = p.parse_args(argv)

    sides = {"change": args.change.resolve()}
    if args.parent is not None:
        sides["parent"] = args.parent.resolve()
    metrics = [m["name"] for m in spec["end_to_end"]]
    workload_names = [w["name"] for w in spec["workloads"]]
    runs, ok = [], True
    for workload in workload_names:
        for k, seed in enumerate(args.seeds):
            order = list(sides) if k % 2 else list(sides)[::-1]
            for side in order:
                result = run_workload(sides[side], workload, seed, args.seconds)
                ok &= result["correct"] and result["failed"] == 0
                runs.append({"workload": workload, "seed": seed, "side": side,
                             "correct": result["correct"], "attempted": result["attempted"],
                             "failed": result["failed"],
                             "metrics": {name: result["metrics"].get(name, {}).get("value")
                                         for name in metrics}})
                print(f"{workload} seed {seed} {side}: {json.dumps(runs[-1])}", file=sys.stderr)

    lower = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}
    workloads = {}
    for workload in workload_names:
        got = {(r["side"], r["seed"]): r["metrics"] for r in runs if r["workload"] == workload}
        entry = {side: {name: summary(values) for name in metrics if (values := [
            got[side, seed][name] for seed in args.seeds if got[side, seed][name] is not None])}
                 for side in sides}
        if "parent" in sides:
            pairs = {name: [(got["change", seed][name], got["parent", seed][name])
                            for seed in args.seeds] for name in metrics}
            entry["pairs_change_better"] = {
                name: sum((c < p) if lower[name] else (c > p)
                          for c, p in pairs[name] if c is not None and p is not None)
                for name in metrics}
        workloads[workload] = entry

    record = {
        "machine": machine(),
        "checkouts": {side: git_state(path) for side, path in sides.items()},
        "seeds": args.seeds,
        "seconds": args.seconds,
        "all_correct": ok,
        "workloads": workloads,
        "runs": runs,
    }
    if args.tier1:
        record["tier1"] = tier1(sides["change"])
    text = json.dumps(record, indent=1) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.write_text(text)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
