"""Command-line entry point: solve a plan or run a named experiment.

Usage:
    eotlab solve --config cfg.json [--out DIR] [--seed N]
    eotlab experiment {expansion,longtraj,quasimin,onestep,campanato,softlemma}
        --config cfg.json [--out DIR] [--seed N]

Exit codes: 0 ok, 2 config error, 3 solver non-convergence, 4 experiment-level
domain error (including output-directory write failures).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .couplings import radius_scan_rows, save_coupling
from .errors import ConfigError, DomainError, EotlabError
from .grids import GridMeasure, make_measure
from .regularity import (
    RegularityConfig,
    campanato_iterate,
    expansion_experiment,
    long_traj_experiment,
    one_step,
    quasimin_defect,
    soft_lemma_check,
)
from .reports import RunManifest, write_csv, write_json
from .scalings import apply_to_coupling, apply_to_measures, normalizing_scaling, scaling_to_json_dict
from .solvers import entropic_cost, gibbs_identity_check, sinkhorn

EXPERIMENT_NAMES = ("expansion", "longtraj", "quasimin", "onestep", "campanato", "softlemma")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="eotlab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("solve", help="solve one entropic plan and dump it")
    _common_args(p)
    p = sub.add_parser("experiment", help="run a named experiment")
    p.add_argument("name", choices=EXPERIMENT_NAMES)
    _common_args(p)
    return parser


def _common_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True, help="JSON config path")
    p.add_argument("--out", default=None, help="output directory (default from config)")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")


def _load_config(path: str) -> tuple[str, dict]:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    return text, cfg


def _marginals(cfg: dict) -> tuple[GridMeasure, GridMeasure]:
    try:
        source_cfg = cfg["source"]
        target_cfg = cfg.get("target", cfg["source"])
    except KeyError as exc:
        raise ConfigError(f"config missing marginal spec: {exc}") from exc
    try:
        return make_measure(source_cfg), make_measure(target_cfg)
    except DomainError as exc:
        raise ConfigError(f"invalid marginal: {exc}") from exc


def _solver_opts(cfg: dict) -> dict:
    opts = dict(cfg.get("solver", {}))
    opts.pop("epsilon", None)
    allowed = {"tol", "max_iter", "stabilize_every", "warm_start", "check_every"}
    unknown = set(opts) - allowed
    if unknown:
        raise ConfigError(f"unknown solver options: {sorted(unknown)}")
    return opts


def _solver_epsilon(cfg: dict) -> float:
    try:
        return float(cfg["solver"]["epsilon"])
    except KeyError as exc:
        raise ConfigError("config must set solver.epsilon") from exc


def _regularity_config(exp_cfg: dict) -> RegularityConfig:
    thresholds = dict(exp_cfg.get("thresholds", {}))
    kwargs = {}
    for key in ("eps1", "delta", "c0", "lam", "beta", "theta", "long_factor",
                "fit_radius_factor", "normalization_tol"):
        if key in thresholds:
            kwargs[key] = float(thresholds.pop(key))
    if thresholds:
        raise ConfigError(f"unknown threshold keys: {sorted(thresholds)}")
    return RegularityConfig(**kwargs)


def _max_workers() -> int:
    raw = os.environ.get("EOTLAB_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, stream=sys.stderr, format="%(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        text, cfg = _load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    out_dir = Path(args.out if args.out is not None else cfg.get("output_dir", "."))
    seed = args.seed if args.seed is not None else int(cfg.get("seed", 0))
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"cannot create output directory {out_dir}: {exc}", file=sys.stderr)
        return 4

    command = args.command if args.command == "solve" else f"experiment {args.name}"
    manifest = RunManifest(command=command, config_text=text, seed=seed, version=__version__)
    try:
        if args.command == "solve":
            code = _cmd_solve(cfg, out_dir, seed, manifest)
        else:
            code = _cmd_experiment(args.name, cfg, out_dir, seed, manifest)
        manifest_path = out_dir / "manifest.json"
        manifest.write(manifest_path)
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, OSError) as exc:
        print(f"experiment error: {exc}", file=sys.stderr)
        return 4
    except EotlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


def _cmd_solve(cfg: dict, out_dir: Path, seed: int, manifest: RunManifest) -> int:
    from .errors import MassMismatchError

    lam, mu = _marginals(cfg)
    epsilon = _solver_epsilon(cfg)
    try:
        res = sinkhorn(lam, mu, epsilon, **_solver_opts(cfg))
    except MassMismatchError as exc:
        raise ConfigError(str(exc)) from exc
    plan_path = out_dir / "plan.bin"
    save_coupling(res.plan, plan_path)
    summary = {
        "epsilon": res.epsilon,
        "iterations": res.iterations,
        "marg_err": res.marg_err,
        "converged": res.converged,
        "cost": res.primal_cost,
        "entropy": res.entropy,
        "entropic_cost": entropic_cost(res),
        "mass": res.mass,
    }
    n_samples = int(cfg.get("gibbs_check_samples", 0))
    if n_samples > 0 and res.converged:
        summary["gibbs_max_rel_err"] = gibbs_identity_check(res, n_samples, seed=seed)
    write_json(out_dir / "summary.json", summary)
    for name in ("plan.bin", "plan.json", "summary.json"):
        manifest.add_output(out_dir / name)
    manifest.status = {"converged": res.converged, "marg_err": res.marg_err}
    return 0 if res.converged else 3


def _experiment_cfg(cfg: dict) -> dict:
    exp = cfg.get("experiment", {})
    if not isinstance(exp, dict):
        raise ConfigError("experiment section must be a JSON object")
    return exp


def _require(exp: dict, key: str):
    if key not in exp:
        raise ConfigError(f"experiment config missing required key: {key}")
    return exp[key]


def _cmd_experiment(name: str, cfg: dict, out_dir: Path, seed: int, manifest: RunManifest) -> int:
    lam, mu = _marginals(cfg)
    exp = _experiment_cfg(cfg)
    workers = _max_workers()
    solver_opts = _solver_opts(cfg)
    extra_files: list[str] = []

    if name == "expansion":
        ladder = [float(e) for e in _require(exp, "eps_ladder")]
        result = expansion_experiment(lam, mu, ladder, solver_opts, max_workers=workers)
        columns = ["epsilon", "ot_eps", "ot", "gap_over_eps2", "remainder",
                   "log_inv_eps2", "under_resolved", "converged", "row_type",
                   "slope", "intercept"]
        rows = [dict(r, row_type="point") for r in result["rows"]]
        reg = result["slope"]
        rows.append({
            "row_type": "regression",
            "slope": None if reg is None else reg[0],
            "intercept": None if reg is None else reg[1],
        })
        trace = result
        converged = all(r["converged"] for r in result["rows"])

    elif name == "longtraj":
        ladder = [float(e) for e in _require(exp, "eps_ladder")]
        result = long_traj_experiment(
            lam, mu, float(_require(exp, "R")), ladder, solver_opts,
            long_factor=float(exp.get("long_factor", 7.0)), max_workers=workers,
        )
        columns = ["epsilon", "long_energy", "long_mass", "E_5R", "energy_ratio",
                   "mass_ratio", "inv_temp", "converged", "row_type", "slope",
                   "intercept"]
        rows = [dict(r, row_type="point") for r in result["rows"]]
        for key in ("mass_slope", "energy_slope"):
            reg = result[key]
            rows.append({
                "row_type": key,
                "slope": None if reg is None else reg[0],
                "intercept": None if reg is None else reg[1],
            })
        trace = result
        converged = all(r["converged"] for r in result["rows"])

    elif name == "quasimin":
        ladder = [float(e) for e in _require(exp, "eps_ladder")]
        radius = float(_require(exp, "R"))
        lam_factor = float(exp.get("Lambda", 2.75))
        rows = []
        for eps in ladder:
            res = sinkhorn(lam, mu, eps, **solver_opts)
            report = quasimin_defect(res.plan, lam, mu, radius, lam_factor, epsilon=eps)
            rows.append({
                "epsilon": eps,
                "R": report.R,
                "lhs": report.lhs,
                "competitor_cost": report.competitor_cost,
                "defect": report.defect,
                "eps2_mass": report.eps2_mass,
                "energy_2R": report.energy_2r,
                "normalized_defect": (
                    report.defect / report.eps2_mass if report.eps2_mass > 0 else None
                ),
                "degenerate": report.degenerate,
                "converged": res.converged,
            })
        columns = ["epsilon", "R", "lhs", "competitor_cost", "defect", "eps2_mass",
                   "energy_2R", "normalized_defect", "degenerate", "converged"]
        trace = {"R": radius, "Lambda": lam_factor, "rows": rows}
        converged = all(r["converged"] for r in rows)
        write_csv(out_dir / "defects.csv", columns, rows)
        extra_files.append("defects.csv")

    elif name == "onestep":
        reg_cfg = _regularity_config(exp)
        epsilon = _solver_epsilon(cfg)
        radius = float(_require(exp, "R0"))
        theta = float(exp.get("theta", reg_cfg.theta))
        res = sinkhorn(lam, mu, epsilon, **solver_opts)
        converged = res.converged
        s_bar = normalizing_scaling(lam, mu)
        lam_n, mu_n = apply_to_measures(s_bar, lam, mu, windows=reg_cfg.windows)
        pi_n = apply_to_coupling(s_bar, res.plan, windows=reg_cfg.windows)
        out = one_step(pi_n, lam_n, mu_n, radius, theta, epsilon=epsilon, config=reg_cfg)
        row = {
            "R": radius,
            "theta": theta,
            "E_before": out.E_before,
            "E_after": out.E_after,
            "D_before": out.D_before,
            "D_after": out.D_after,
            "det_A": out.det_A,
            "gamma": out.scaling_hat.gamma,
            "b_norm": float(np.linalg.norm(out.scaling_hat.b)),
            "eps_term": out.eps_term,
            "converged": res.converged,
        }
        rows = [row]
        columns = list(row.keys())
        trace = dict(row, scaling_hat=scaling_to_json_dict(out.scaling_hat),
                     normalizing=scaling_to_json_dict(s_bar))
        scan = radius_scan_rows(res.plan, lam, mu,
                                [radius, theta * radius, theta**2 * radius])
        write_csv(out_dir / "radius_scan.csv",
                  ["R", "E", "D", "long_energy", "long_mass", "defect_beta0"], scan)
        extra_files.append("radius_scan.csv")

    elif name == "campanato":
        reg_cfg = _regularity_config(exp)
        epsilon = _solver_epsilon(cfg)
        radius = float(_require(exp, "R0"))
        theta = float(exp.get("theta", reg_cfg.theta))
        max_levels = int(exp.get("max_levels", 16))
        res = sinkhorn(lam, mu, epsilon, **solver_opts)
        converged = res.converged
        trace_obj = campanato_iterate(
            res.plan, lam, mu, radius, theta, epsilon,
            max_levels=max_levels, config=reg_cfg,
        )
        rows = [
            {
                "k": lvl.k,
                "r": lvl.r,
                "E": lvl.E,
                "D": lvl.D,
                "defect": lvl.defect,
                "holder_lam": lvl.holder_lam,
                "holder_mu": lvl.holder_mu,
            }
            for lvl in trace_obj.levels
        ]
        columns = ["k", "r", "E", "D", "defect", "holder_lam", "holder_mu"]
        trace = {
            "stop_reason": trace_obj.stop_reason,
            "base_scaling": scaling_to_json_dict(trace_obj.base_scaling),
            "levels": [
                dict(
                    rows[idx],
                    step_scaling=(
                        None if lvl.step_scaling is None
                        else scaling_to_json_dict(lvl.step_scaling)
                    ),
                    composed=scaling_to_json_dict(lvl.composed),
                )
                for idx, lvl in enumerate(trace_obj.levels)
            ],
        }
        scan = radius_scan_rows(res.plan, lam, mu, [lvl.r for lvl in trace_obj.levels])
        write_csv(out_dir / "radius_scan.csv",
                  ["R", "E", "D", "long_energy", "long_mass", "defect_beta0"], scan)
        extra_files.append("radius_scan.csv")

    elif name == "softlemma":
        epsilon = _solver_epsilon(cfg)
        radius = float(_require(exp, "R"))
        rho_ladder = [float(r) for r in _require(exp, "rho_ladder")]
        res = sinkhorn(lam, mu, epsilon, **solver_opts)
        converged = res.converged
        if "Delta_R" in exp:
            delta_r = float(exp["Delta_R"])
        else:
            report = quasimin_defect(
                res.plan, lam, mu, radius / 2.0,
                float(exp.get("Lambda", 2.75)), epsilon=epsilon,
            )
            delta_r = max(report.defect, 0.0)
        result = soft_lemma_check(res.plan, radius, rho_ladder, delta_r)
        rows = result["rows"]
        columns = ["rho", "mass", "bound", "fitted_const", "energy_over_rho_pow",
                   "rho_over_R_pow"]
        trace = result

    else:  # pragma: no cover - argparse restricts choices
        raise ConfigError(f"unknown experiment {name!r}; valid: {EXPERIMENT_NAMES}")

    write_csv(out_dir / "report.csv", columns, rows)
    write_json(out_dir / "trace.json", trace)
    for fname in ["report.csv", "trace.json", *extra_files]:
        manifest.add_output(out_dir / fname)
    # Files are written either way; an unconverged solve is flagged by exit 3.
    manifest.status = {"experiment": name, "ok": converged}
    return 0 if converged else 3


if __name__ == "__main__":
    raise SystemExit(main())
