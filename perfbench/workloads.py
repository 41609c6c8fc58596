"""The three benchmark workloads.

Each workload draws its inputs from ``--seed`` within a narrow family, so that
every seed does the same amount of work.  ``build`` is the set-up (measures,
config, and for ``diagnostics_1d`` the plan); ``check_build`` tests what the
set-up made; ``ops`` makes the inputs of one timed pass and lists its
operations, and is called before each pass, outside the timed part;
``check`` tests one operation's output with ``checks``; ``finish`` runs checks
that need a reference too costly to compute per pass.

Program functions are always looked up through their module at call time, so
the tracer's wrappers see every call.
"""

from __future__ import annotations

import csv
import dataclasses
import json
from functools import cached_property
from pathlib import Path

import numpy as np

import checks
import spans


class SinkhornProbe:
    """Keeps the result of every ``sinkhorn`` call, so that the checks can read
    the plans behind a report.  It times nothing."""

    def __init__(self) -> None:
        self.results = []
        results = self.results

        def probe(original):
            def probed(*args, **kwargs):
                out = original(*args, **kwargs)
                results.append(out)
                return out

            return probed

        spans.swap("eotlab.solvers", "sinkhorn", probe)


def _uniform(rng, lo: float, hi: float) -> float:
    return float(rng.uniform(lo, hi))


def _curved_pair_cfg(rng, n: int) -> tuple[dict, dict]:
    """Uniform source and a shifted_profile target (the pair of criterion 7b),
    with the profile's c0 and c1 drawn within +-10% of 0.02 and 0.42."""
    grid = {"dim": 1, "n": n, "lo": -1.0, "hi": 1.0}
    source = {"grid": grid, "density": {"kind": "uniform"}, "alpha": 0.5}
    target = {
        "grid": grid,
        "density": {"kind": "shifted_profile", "c0": _uniform(rng, 0.018, 0.022),
                    "c1": _uniform(rng, 0.40, 0.44), "exponent": 1.0, "window_power": 2.0},
        "alpha": 0.5,
    }
    return source, target


class Workload:
    lam = mu = None  # the input measures, made by ``build``

    @cached_property
    def cost(self) -> np.ndarray:
        """Squared distances between the input grids, for the checks only."""
        return checks.sq_dist(self.lam.points, self.mu.points)

    def check_build(self) -> list[str]:
        return []

    def finish(self) -> None:
        pass


class CliWorkload(Workload):
    """One ``eotlab experiment`` run through ``eotlab.cli.main`` per pass."""

    experiment = ""

    def __init__(self, eotlab, seed: int, run_dir: Path) -> None:
        self.eotlab = eotlab
        self.seed = seed
        self.run_dir = run_dir
        self.cfg = self.make_config(np.random.default_rng(seed))
        self.cfg_path = run_dir / "config.json"
        self.out_dir = run_dir / "out"
        self.probe = SinkhornProbe()

    def make_config(self, rng) -> dict:
        raise NotImplementedError

    def build(self) -> None:
        self.cfg_path.write_text(json.dumps(self.cfg, indent=2, sort_keys=True))
        self.lam = self.eotlab.make_measure(self.cfg["source"])
        self.mu = self.eotlab.make_measure(self.cfg["target"])

    def ops(self):
        argv = ["experiment", self.experiment, "--config", str(self.cfg_path),
                "--out", str(self.out_dir)]

        def run():
            self.probe.results.clear()
            code = self.eotlab.cli.main(argv)
            if code != 0:
                raise RuntimeError(f"eotlab exited with code {code}")

        return [(f"cli.{self.experiment}", run)]

    def plan_problems(self, res, a, b, tol: float) -> list[str]:
        """The plan meets ``tol`` on both marginals and satisfies the Gibbs identity."""
        what = f"sinkhorn eps={res.epsilon:g}"
        plan = np.asarray(res.plan.mass)
        return (checks.plan_marginals(plan, a, b, tol, what)
                + checks.gibbs_identity(plan, self.cost, res.epsilon,
                                        np.random.default_rng(self.seed + 1), what))

    def check(self, name: str, out) -> list[str]:
        return self.check_outputs()


class Campanato1d(CliWorkload):
    """``experiment campanato`` on the curved pair, n = 256, down to r <= c0 eps."""

    experiment = "campanato"
    EPS, TOL, R0, THETA, C0 = 0.04, 1e-8, 0.8, 0.5, 3.0

    def make_config(self, rng) -> dict:
        source, target = _curved_pair_cfg(rng, 256)
        return {
            "seed": self.seed,
            "source": source,
            "target": target,
            "solver": {"epsilon": self.EPS, "tol": self.TOL},
            "experiment": {"R0": self.R0, "theta": self.THETA, "max_levels": 8,
                           "thresholds": {"eps1": 0.5, "delta": 0.005, "c0": self.C0}},
        }

    def check_outputs(self) -> list[str]:
        if len(self.probe.results) != 1:
            return [f"expected one sinkhorn solve, saw {len(self.probe.results)}"]
        res = self.probe.results[0]
        a, b = self.lam.weights, self.mu.weights
        # The CLI exits 0 even when the solve did not converge, so convergence
        # is checked here, on the plan itself.
        problems = self.plan_problems(res, a, b, self.TOL)
        trace = json.loads((self.out_dir / "trace.json").read_text())
        levels = trace["levels"]
        if trace["stop_reason"] != "reached_epsilon_scale" or levels[-1]["r"] > self.C0 * self.EPS:
            problems.append(f"cascade stopped early: {trace['stop_reason']} at r={levels[-1]['r']}")
        rng = np.random.default_rng(self.seed + 2)
        problems += checks.cascade(
            [lvl["r"] for lvl in levels], [lvl["step_scaling"] for lvl in levels],
            [lvl["composed"] for lvl in levels], trace["base_scaling"], self.R0, self.THETA,
            rng.uniform(-1, 1, (16, 1)), rng.uniform(-1, 1, (16, 1)))
        # radius_scan.csv is measured on the unscaled plan: E is a direct sum.
        x, y, plan = self.lam.points, self.mu.points, np.asarray(res.plan.mass)
        with open(self.out_dir / "radius_scan.csv", newline="") as fh:
            scan = list(csv.DictReader(fh))
        if len(scan) != len(levels):
            problems.append("radius_scan.csv does not have one row per level")
        for row in scan:
            r = float(row["R"])
            if not checks.close(float(row["E"]), checks.local_energy(plan, x, y, self.cost, r), 1e-10):
                problems.append(f"radius_scan E at r={r} differs from the direct sum")
        return problems


class Expansion2d(CliWorkload):
    """``experiment expansion`` on a 20x20 pair over a three-point eps ladder."""

    experiment = "expansion"
    LADDER, TOL = [0.5, 0.4, 0.32], 1e-9

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.ot_seen: list[tuple[list[str], float]] = []

    def make_config(self, rng) -> dict:
        grid = {"dim": 2, "n": 20, "lo": -1.0, "hi": 1.0}
        return {
            "seed": self.seed,
            "source": {"grid": grid, "alpha": 0.5,
                       "density": {"kind": "perturbed_uniform",
                                   "amplitude": _uniform(rng, 0.15, 0.25), "freq": 1.0}},
            "target": {"grid": grid, "alpha": 0.5,
                       "density": {"kind": "gaussian", "sigma": _uniform(rng, 0.45, 0.55),
                                   "floor": _uniform(rng, 0.25, 0.35),
                                   "center": [_uniform(rng, -0.1, 0.1), _uniform(rng, -0.1, 0.1)]}},
            "solver": {"tol": self.TOL},
            "experiment": {"eps_ladder": self.LADDER},
        }

    def check_outputs(self) -> list[str]:
        a = self.lam.weights / self.lam.weights.sum()
        b = self.mu.weights / self.mu.weights.sum()
        trace = json.loads((self.out_dir / "trace.json").read_text())
        rows = trace["rows"]
        problems = []
        if [r["epsilon"] for r in rows] != self.LADDER:
            problems.append("report rows do not follow the eps ladder")
        if len(self.probe.results) != len(self.LADDER):
            return problems + [f"expected {len(self.LADDER)} solves, saw {len(self.probe.results)}"]
        for row, res in zip(rows, self.probe.results):
            eps = row["epsilon"]
            if not row["converged"]:
                problems.append(f"eps={eps}: row reports converged=false")
            if not row["ot_eps"] >= row["ot"]:
                problems.append(f"eps={eps}: ot_eps {row['ot_eps']} < ot {row['ot']}")
            problems += self.plan_problems(res, a, b, self.TOL)
            mine = checks.entropic_cost(np.asarray(res.plan.mass), self.cost, a, b, eps)
            if not checks.close(row["ot_eps"], mine, 1e-9):
                problems.append(f"eps={eps}: ot_eps {row['ot_eps']} != <c,pi> + eps^2 KL = {mine}")
        self.ot_seen.append((problems, trace["ot"]))
        return problems

    def finish(self) -> None:
        """Compare every reported ``ot`` with one certified reference LP; the
        problems join those of the pass that reported it."""
        a = self.lam.weights / self.lam.weights.sum()
        b = self.mu.weights / self.mu.weights.sum()
        ref, problems = checks.reference_ot(a, b, self.cost)
        for pass_problems, ot in self.ot_seen:
            pass_problems += problems
            if not checks.close(ot, ref, 1e-9):
                pass_problems.append(f"ot {ot!r} differs from the reference LP {ref!r}")


class Diagnostics1d(Workload):
    """Library diagnostics on one n = 512 plan solved during set-up."""

    EPS, TOL, R0, THETA, LAMBDA = 0.15, 1e-9, 0.8, 0.5, 2.75
    SCAN = [0.8, 0.6, 0.4, 0.3, 0.2, 0.1]
    QUASIMIN = [0.1, 0.2, 0.3]

    def __init__(self, eotlab, seed: int, run_dir: Path) -> None:
        self.eotlab = eotlab
        self.seed = seed
        rng = np.random.default_rng(seed)
        self.source_cfg, self.target_cfg = _curved_pair_cfg(rng, 512)

        def jitter(r):  # radii move by at most 2%, so every seed does the same work
            return float(r * rng.uniform(0.98, 1.02))

        self.scan = [jitter(r) for r in self.SCAN]
        self.quasimin = [jitter(r) for r in self.QUASIMIN]
        self.r0 = jitter(self.R0)
        self.long = (jitter(0.4), jitter(0.3))
        self.soft = (jitter(1.5), [jitter(r) for r in (0.1, 0.2, 0.3)], 0.01)
        self.config = eotlab.RegularityConfig(eps1=0.5, delta=0.005, c0=1.5)

    def build(self) -> None:
        lib = self.eotlab
        self.lam = lib.make_measure(self.source_cfg)
        self.mu = lib.make_measure(self.target_cfg)
        self.plan = np.asarray(lib.sinkhorn(self.lam, self.mu, self.EPS, tol=self.TOL).plan.mass)
        self.x, self.y = self.lam.points, self.mu.points

    def check_build(self) -> list[str]:
        """The set-up plan meets ``TOL`` on both marginals and satisfies the
        Gibbs identity, recomputed from the plan itself."""
        what = f"set-up sinkhorn eps={self.EPS:g}"
        return (checks.plan_marginals(self.plan, self.lam.weights, self.mu.weights, self.TOL, what)
                + checks.gibbs_identity(self.plan, self.cost, self.EPS,
                                        np.random.default_rng(self.seed + 1), what))

    def ops(self):
        """A fresh coupling on fresh measures, so that each pass pays the
        first-use costs (cost matrix, point norms) a single call pays."""
        lib = self.eotlab
        lam, mu = (dataclasses.replace(m, spec=dataclasses.replace(m.spec)) for m in (self.lam, self.mu))
        pi = lib.Coupling(source=lam, target=mu, mass=self.plan, epsilon=self.EPS)
        ops = [("radius_scan_rows", lambda: lib.radius_scan_rows(pi, lam, mu, self.scan))]
        for r in self.quasimin:
            ops.append((f"quasimin_defect:{r}", lambda r=r: lib.quasimin_defect(
                pi, lam, mu, r, self.LAMBDA, epsilon=self.EPS)))
        ops += [
            ("campanato_iterate", lambda: lib.campanato_iterate(
                pi, lam, mu, self.r0, self.THETA, self.EPS, max_levels=8, config=self.config)),
            ("long_trajectory_stats", lambda: lib.long_trajectory_stats(pi, *self.long)),
            ("soft_lemma_check", lambda: lib.soft_lemma_check(pi, *self.soft)),
        ]
        return ops

    def check(self, name: str, out) -> list[str]:
        plan, x, y, cost = self.plan, self.x, self.y, self.cost
        problems = []
        if name == "radius_scan_rows":
            if len(out) != len(self.scan):
                problems.append(f"radius_scan_rows returned {len(out)} rows for {len(self.scan)} radii")
            for row, r in zip(out, self.scan):
                if not checks.close(row["E"], checks.local_energy(plan, x, y, cost, r), 1e-10):
                    problems.append(f"local_energy at r={r} differs from the direct sum")
                energy, mass = checks.long_trajectory(plan, x, y, cost, r, 7.0 * r)
                if not (checks.close(row["long_energy"], energy, 1e-10)
                        and checks.close(row["long_mass"], mass, 1e-10)):
                    problems.append(f"long-trajectory stats at r={r} differ from the direct sums")
                translation, constant = checks.simple_fit_defects(plan, x, y, r)
                if row["defect_beta0"] > min(translation, constant) * (1 + 1e-9):
                    problems.append(f"affine-fit defect at r={r} exceeds a simpler fit")
        elif name.startswith("quasimin_defect"):
            r = float(name.split(":")[1])
            mine = checks.competitor_cost(plan, x, y, r, self.LAMBDA)
            if not checks.close(out.competitor_cost, mine, 1e-9):
                problems.append(f"competitor cost at R={r}: {out.competitor_cost} != quantile formula {mine}")
            lhs = float(np.sum((cost * plan)[checks.hash_mask(x, y, r)]))
            if not checks.close(out.lhs, lhs, 1e-10):
                problems.append(f"quasimin lhs at R={r} differs from the direct sum")
        elif name == "campanato_iterate":
            if len(out.levels) < 2 or out.stop_reason != "reached_epsilon_scale":
                problems.append(f"cascade stopped early: {out.stop_reason} after {len(out.levels)} level(s)")
            rng = np.random.default_rng(self.seed + 2)
            problems += checks.cascade(
                [lvl.r for lvl in out.levels], [lvl.step_scaling for lvl in out.levels],
                [lvl.composed for lvl in out.levels], out.base_scaling, self.r0, self.THETA,
                rng.uniform(-1, 1, (16, 1)), rng.uniform(-1, 1, (16, 1)))
        elif name == "long_trajectory_stats":
            energy, mass = checks.long_trajectory(plan, x, y, cost, *self.long)
            if not (checks.close(out.energy, energy, 1e-10) and checks.close(out.mass, mass, 1e-10)):
                problems.append("long_trajectory_stats differs from the direct sums")
        elif name == "soft_lemma_check":
            big_r, rhos, _ = self.soft
            inner = checks.hash_mask(x, y, big_r - 1.0)
            if len(out["rows"]) != len(rhos):
                problems.append(f"soft_lemma_check returned {len(out['rows'])} rows for {len(rhos)} radii")
            for row, rho in zip(out["rows"], rhos):
                mass = float(np.sum(plan[inner & (np.sqrt(cost) >= rho)]))
                if not checks.close(row["mass"], mass, 1e-10):
                    problems.append(f"soft-lemma mass at rho={rho} differs from the direct sum")
        return problems


WORKLOADS = {
    "campanato_1d": Campanato1d,
    "expansion_2d": Expansion2d,
    "diagnostics_1d": Diagnostics1d,
}
