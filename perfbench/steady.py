"""Run every workload several times, one seed per run, and print each metric's
median, quartiles and spread (quartile distance over median).

Usage, from the root of a checkout:

    python3 perfbench/steady.py [--runs 10] [--workloads campanato_1d,expansion_2d]

Run ``i`` uses seed ``i`` (1 to ``--runs``), ``--trace 0`` and ``run_seconds``
of BENCHMARK.json.  Each end-to-end metric's spread is compared with its bound
there: the bounds are chosen so that the spread stays below a third of them.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run_once(workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900, cwd=HERE.parent)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    args = p.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    for workload in args.workloads.split(","):
        results = []
        for seed in range(1, args.runs + 1):
            results.append(run_once(workload, seed, spec["run_seconds"]))
            values = {k: v["value"] for k, v in results[-1]["metrics"].items()}
            print(f"{workload} seed {seed}: {json.dumps(values)}", file=sys.stderr)
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print(f"\n{workload}: {args.runs} runs, correct={all(r['correct'] for r in results)}, "
              f"attempted {attempted}, failed {failed}, failed shares {shares}")
        print(f"  {'metric':42s} {'unit':>14s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>8s} {'bound':>6s}")
        for name, first in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            flag = "" if bound is None else f"{bound:6.3f}" + ("" if spread < bound / 3 else " !")
            print(f"  {name:42s} {first['unit']:>14s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} {flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
