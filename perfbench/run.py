"""Run one eotlab benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {campanato_1d,expansion_2d,diagnostics_1d}
                             --seed N --seconds S --trace {0,1}

The program is imported from ``src/`` of the checkout.  BLAS and eotlab run on
one thread each.  With ``--trace 0`` the run reports the end-to-end metrics
(``setup_s``, ``wall_s``, ``peak_rss_mb``); with ``--trace 1`` it alternates
untraced and traced passes and reports the per-layer metrics of the traced
ones, plus the tracing overhead.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import os
import sys
import time

# Before numpy is imported anywhere: one BLAS thread, one eotlab worker.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["EOTLAB_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

# Set-up is built this many times per run and its median reported.
SETUP_REPEATS = 3
WORKLOAD_NAMES = ("campanato_1d", "expansion_2d", "diagnostics_1d")


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_program(root: Path):
    """Import eotlab from the checkout's ``src``; return it and the import time."""
    src = root / "src"
    if not (src / "eotlab" / "__init__.py").is_file():
        raise SystemExit(f"error: {src / 'eotlab'} not found; run from the root of an eotlab checkout")
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import eotlab
    import eotlab.cli  # noqa: F401  (the CLI workloads drive its main)

    elapsed = time.perf_counter() - start
    if Path(eotlab.__file__).resolve().parent != (src / "eotlab").resolve():
        raise SystemExit(f"error: imported eotlab from {eotlab.__file__}, not from {src}")
    return eotlab, elapsed


def layer_units(name: str) -> str:
    if name.endswith("_s") or name.endswith("s_per_iter"):
        return "s"
    if name.endswith("dense_bytes"):
        return "bytes_computed"
    return "count"


def run(args: argparse.Namespace) -> dict:
    root = Path.cwd()
    eotlab, import_s = import_program(root)
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import spans
    from workloads import WORKLOADS

    run_dir = root / "perfbench" / "_runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](eotlab, args.seed, run_dir)
        tracer = spans.Tracer()

        setup_times = []
        for rep in range(SETUP_REPEATS):
            with tracer if args.trace and rep == SETUP_REPEATS - 1 else nullcontext():
                start = time.perf_counter()
                workload.build()
                setup_times.append(time.perf_counter() - start)
            problems = workload.check_build()
            if problems:
                raise SystemExit("error: set-up output is wrong: " + "; ".join(problems))
        setup_layers = spans.layer_metrics(tracer.spans, setup_times[-1])

        # (operation raised, problems) per attempted operation
        outcomes: list[tuple[bool, list[str]]] = []
        walls, traced_walls, layer_samples = [], [], []
        deadline = time.perf_counter() + args.seconds
        k = 0
        while True:
            traced = bool(args.trace) and k % 2 == 1
            ops = workload.ops()
            results = []
            with tracer if traced else nullcontext():
                start = time.perf_counter()
                for name, call in ops:
                    try:
                        results.append((name, call(), None))
                    except Exception as exc:  # an operation that raises counts as failed
                        results.append((name, None, f"{name} raised {type(exc).__name__}: {exc}"))
                wall = time.perf_counter() - start
            if k == 0:
                # After one untraced pass, so the figure does not depend on
                # how many passes fit in the run.
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if traced:
                traced_walls.append(wall)
                layer_samples.append(spans.layer_metrics(tracer.spans, wall))
            else:
                walls.append(wall)
            for name, out, error in results:
                if error:
                    outcomes.append((True, [error]))
                    continue
                try:
                    outcomes.append((False, workload.check(name, out)))
                except Exception as exc:  # output too malformed to check
                    outcomes.append((False, [f"checking {name} raised {type(exc).__name__}: {exc}"]))
            k += 1
            if time.perf_counter() >= deadline and (not args.trace or k >= 2):
                break

        workload.finish()
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            run_dir.parent.rmdir()
        except OSError:
            pass

    failed = [problems for _, problems in outcomes if problems]
    wrong = any(problems and not raised for raised, problems in outcomes)
    for problems in failed[:5]:
        print("FAILED: " + "; ".join(problems), file=sys.stderr)

    if args.trace:
        metrics = {
            key: {"value": statistics.median(s[key] for s in layer_samples), "unit": layer_units(key)}
            for key in layer_samples[0]
        }
        for key in ("grids.make_measure.self_s", "solvers.sinkhorn.self_s", "unattributed_s"):
            metrics[f"setup.{key}"] = {"value": setup_layers[key], "unit": "s"}
        traced_wall = statistics.median(traced_walls)
        metrics["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
        metrics["trace.overhead_s"] = {"value": traced_wall - statistics.median(walls), "unit": "s"}
    else:
        metrics = {
            "setup_s": {"value": import_s + statistics.median(setup_times), "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    return {"correct": not wrong, "attempted": len(outcomes), "failed": len(failed),
            "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
