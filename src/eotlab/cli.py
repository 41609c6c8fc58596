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
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .couplings import (LONG_TRAJECTORY_FACTOR, RADIUS_SCAN_COLUMNS, radius_scan_rows,
                        save_coupling)
from .errors import (REQUIRED, ConfigError, DomainError, EotlabError, MassMismatchError,
                     SizeError, config_value)
from .grids import GridMeasure, make_measure
from .regularity import (
    COMPETITOR_FACTOR,
    MAX_CASCADE_LEVELS,
    RegularityConfig,
    campanato_iterate,
    expansion_experiment,
    long_traj_experiment,
    one_step,
    quasimin_defect,
    soft_lemma_check,
    solve_ladder,
)
from .reports import RunManifest, write_csv, write_json
from .scalings import apply_to_coupling, normalizing_scaling, scaling_to_json_dict
from .solvers import entropic_cost, gibbs_identity_check, require_gibbs_check_size, sinkhorn

# Solver options besides epsilon, each a positive value of its type, and the
# keys that the thresholds and experiment sections may hold.
SOLVER_OPTIONS = {"tol": float, "max_iter": int}
THRESHOLD_KEYS = ("eps1", "delta", "c0")
EXPERIMENT_KEYS = ("R", "R0", "theta", "Lambda", "eps_ladder", "rho_ladder", "long_factor",
                   "max_levels", "Delta_R", "thresholds")


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


def _section(cfg: dict, key: str, where: str = "", keys: tuple | None = None) -> dict:
    """``cfg[key]`` as an object ({} when missing), holding only ``keys`` if given."""
    value = cfg.get(key, {})
    if not isinstance(value, dict):
        raise ConfigError(f"{where}{key} must be a JSON object")
    unknown = sorted(set(value) - set(keys)) if keys is not None else []
    if unknown:
        raise ConfigError(f"unknown {where}{key} keys: {unknown}; valid: {keys}")
    return value


def _marginals(cfg: dict) -> tuple[GridMeasure, GridMeasure]:
    if "source" not in cfg:
        raise ConfigError("config missing marginal spec: 'source'")
    source_cfg = _section(cfg, "source")
    target_cfg = _section(cfg, "target") if "target" in cfg else source_cfg
    try:
        return make_measure(source_cfg), make_measure(target_cfg)
    except SizeError:
        raise  # exit 4, as for a solve refused by its size
    except DomainError as exc:
        raise ConfigError(f"invalid marginal: {exc}") from exc


def _solver_opts(cfg: dict) -> dict:
    solver = _section(cfg, "solver", keys=("epsilon", *SOLVER_OPTIONS))
    return {
        key: config_value(solver, key, kind, positive=True, where="solver.")
        for key, kind in SOLVER_OPTIONS.items()
        if key in solver
    }


def _solver_epsilon(cfg: dict) -> float:
    return config_value(_section(cfg, "solver"), "epsilon", float, positive=True, where="solver.")


def _regularity_config(exp: dict) -> RegularityConfig:
    thresholds = _section(exp, "thresholds", where="experiment.", keys=THRESHOLD_KEYS)
    return RegularityConfig(**{
        key: config_value(thresholds, key, float, where="experiment.thresholds.")
        for key in THRESHOLD_KEYS
        if key in thresholds
    })


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, stream=sys.stderr, format="%(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        text, cfg = _load_config(args.config)
        out_dir = Path(args.out if args.out is not None
                       else config_value(cfg, "output_dir", str, "."))
        seed = args.seed if args.seed is not None else config_value(cfg, "seed", int, 0)
        if seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {seed}")
        out_dir.mkdir(parents=True, exist_ok=True)
        command = args.command if args.command == "solve" else f"experiment {args.name}"
        manifest = RunManifest(command=command, config_text=text, seed=seed, version=__version__)
        if args.command == "solve":
            code = _cmd_solve(cfg, out_dir, seed, manifest)
        else:
            code = _cmd_experiment(args.name, cfg, out_dir, manifest)
        manifest.write(out_dir / "manifest.json")
        return code
    except (ConfigError, MassMismatchError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (EotlabError, OSError) as exc:
        print(f"experiment error: {exc}", file=sys.stderr)
        return 4


def _cmd_solve(cfg: dict, out_dir: Path, seed: int, manifest: RunManifest) -> int:
    lam, mu = _marginals(cfg)
    epsilon = _solver_epsilon(cfg)
    n_samples = config_value(cfg, "gibbs_check_samples", int, 0)
    if n_samples < 0:
        raise ConfigError(f"gibbs_check_samples must be a non-negative integer, got {n_samples}")
    if n_samples > 0:  # refuse a check that would not fit before the solve runs
        require_gibbs_check_size(lam.spec.n_points, mu.spec.n_points, n_samples)
    res = sinkhorn(lam, mu, epsilon, **_solver_opts(cfg))
    save_coupling(res.plan, out_dir / "plan.bin")
    summary = {
        "epsilon": res.epsilon,
        "iterations": res.iterations,
        "marg_err": res.marg_err,
        "converged": res.converged,
        "cost": res.primal_cost,
        "entropy": res.entropy,
        "entropic_cost": entropic_cost(res),
        "mass": res.mass,
        "stages": res.stages,
    }
    if n_samples > 0 and res.converged:
        summary["gibbs_max_rel_err"] = gibbs_identity_check(res, n_samples, seed=seed)
    write_json(out_dir / "summary.json", summary)
    for name in ("plan.bin", "plan.json", "summary.json"):
        manifest.add_output(out_dir / name)
    manifest.status = {"converged": res.converged, "marg_err": res.marg_err}
    return 0 if res.converged else 3


# ---------------------------------------------------------------------------
# Experiments.  A runner takes (lam, mu, experiment section, config) and returns
# (report columns, report rows, trace, converged, extra CSVs); the extra CSVs
# map a file name to (columns, rows).
# ---------------------------------------------------------------------------


def _ladder_report(result: dict, slopes: dict[str, str]) -> tuple:
    """One ``point`` row per ladder entry, then one row per fitted line; ``slopes``
    maps each row type to the key of its (slope, intercept) pair in ``result``,
    which is also the trace."""
    columns = list(result["rows"][0]) + ["row_type", "slope", "intercept"]
    rows = [dict(r, row_type="point") for r in result["rows"]]
    for row_type, key in slopes.items():
        reg = result[key] or (None, None)
        rows.append({"row_type": row_type, "slope": reg[0], "intercept": reg[1]})
    return columns, rows, result, all(r["converged"] for r in result["rows"]), {}


def _exp_value(exp: dict, key: str, kind: type = float, default=REQUIRED, positive=False):
    return config_value(exp, key, kind, default, positive, where="experiment.")


def _exp_between(exp: dict, key: str, default: float, lo: float, hi: float = np.inf) -> float:
    """``experiment.<key>`` as a number in the open interval (lo, hi)."""
    value = _exp_value(exp, key, default=default)
    if not lo < value < hi:
        raise ConfigError(f"experiment.{key} must lie in ({lo:g}, {hi:g}), got {value!r}")
    return value


def _exp_nonnegative(exp: dict, key: str, kind: type, default):
    """``experiment.<key>`` as a number >= 0, or ``default`` when missing."""
    value = _exp_value(exp, key, kind, default)
    if value is not None and value < 0:
        raise ConfigError(f"experiment.{key} must be >= 0, got {value!r}")
    return value


def _radius_scan(res, lam: GridMeasure, mu: GridMeasure, radii: list[float]) -> dict:
    return {"radius_scan.csv": (RADIUS_SCAN_COLUMNS, radius_scan_rows(res.plan, lam, mu, radii))}


def _cascade_setup(lam: GridMeasure, mu: GridMeasure, exp: dict, cfg: dict):
    """Preamble of ``onestep`` and ``campanato``: thresholds, eps, R0, theta, solve."""
    reg_cfg = _regularity_config(exp)
    epsilon = _solver_epsilon(cfg)
    radius = _exp_value(exp, "R0", positive=True)
    theta = _exp_between(exp, "theta", 0.5, 0.0, 1.0)
    return reg_cfg, epsilon, radius, theta, sinkhorn(lam, mu, epsilon, **_solver_opts(cfg))


def _run_expansion(lam, mu, exp, cfg) -> tuple:
    ladder = _exp_value(exp, "eps_ladder", list, positive=True)
    result = expansion_experiment(lam, mu, ladder, _solver_opts(cfg))
    return _ladder_report(result, {"regression": "slope"})


def _run_longtraj(lam, mu, exp, cfg) -> tuple:
    ladder = _exp_value(exp, "eps_ladder", list, positive=True)
    result = long_traj_experiment(
        lam, mu, _exp_value(exp, "R", positive=True), ladder, _solver_opts(cfg),
        long_factor=_exp_value(exp, "long_factor", default=LONG_TRAJECTORY_FACTOR, positive=True),
    )
    return _ladder_report(result, {"mass_slope": "mass_slope", "energy_slope": "energy_slope"})


def _run_quasimin(lam, mu, exp, cfg) -> tuple:
    ladder = _exp_value(exp, "eps_ladder", list, positive=True)
    radius = _exp_value(exp, "R", positive=True)
    lam_factor = _exp_between(exp, "Lambda", COMPETITOR_FACTOR, 1.0)

    def row(eps: float, res) -> dict:
        report = quasimin_defect(res.plan, lam, mu, radius, lam_factor, epsilon=eps)
        return {
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
        }

    rows, stages = solve_ladder(lam, mu, ladder, _solver_opts(cfg), row)
    columns = list(rows[0])
    trace = {"R": radius, "Lambda": lam_factor, "rows": rows, "stages": stages}
    converged = all(r["converged"] for r in rows)
    return columns, rows, trace, converged, {"defects.csv": (columns, rows)}


def _run_onestep(lam, mu, exp, cfg) -> tuple:
    reg_cfg, _, radius, theta, res = _cascade_setup(lam, mu, exp, cfg)
    s_bar = normalizing_scaling(lam, mu)
    pi_n = apply_to_coupling(s_bar, res.plan)
    # one_step reads the normalised plan's own epsilon.
    out = one_step(pi_n, pi_n.source, pi_n.target, radius, theta, config=reg_cfg)
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
    trace = dict(row, scaling_hat=scaling_to_json_dict(out.scaling_hat),
                 normalizing=scaling_to_json_dict(s_bar), stages=res.stages)
    scan = _radius_scan(res, lam, mu, [radius, theta * radius, theta**2 * radius])
    return list(row), [row], trace, res.converged, scan


def _run_campanato(lam, mu, exp, cfg) -> tuple:
    max_levels = _exp_nonnegative(exp, "max_levels", int, MAX_CASCADE_LEVELS)
    reg_cfg, epsilon, radius, theta, res = _cascade_setup(lam, mu, exp, cfg)
    cascade = campanato_iterate(
        res.plan, lam, mu, radius, theta, epsilon, max_levels=max_levels, config=reg_cfg,
    )
    columns = ["k", "r", "E", "D", "defect", "holder_lam", "holder_mu"]
    rows = [{c: getattr(lvl, c) for c in columns} for lvl in cascade.levels]
    levels = [
        dict(row, composed=scaling_to_json_dict(lvl.composed), step_scaling=(
            None if lvl.step_scaling is None else scaling_to_json_dict(lvl.step_scaling)
        ))
        for row, lvl in zip(rows, cascade.levels)
    ]
    trace = {"stop_reason": cascade.stop_reason,
             "base_scaling": scaling_to_json_dict(cascade.base_scaling), "levels": levels,
             "stages": res.stages}
    scan = _radius_scan(res, lam, mu, cascade.radii())
    return columns, rows, trace, res.converged, scan


def _run_softlemma(lam, mu, exp, cfg) -> tuple:
    epsilon = _solver_epsilon(cfg)
    radius = _exp_value(exp, "R", positive=True)
    rho_ladder = _exp_value(exp, "rho_ladder", list, positive=True)
    delta_r = _exp_nonnegative(exp, "Delta_R", float, None)
    lam_factor = _exp_between(exp, "Lambda", COMPETITOR_FACTOR, 1.0)
    res = sinkhorn(lam, mu, epsilon, **_solver_opts(cfg))
    if delta_r is None:
        report = quasimin_defect(res.plan, lam, mu, radius / 2.0, lam_factor, epsilon=epsilon)
        delta_r = max(report.defect, 0.0)
    result = soft_lemma_check(res.plan, radius, rho_ladder, delta_r)
    trace = dict(result, stages=res.stages)
    return list(result["rows"][0]), result["rows"], trace, res.converged, {}


EXPERIMENTS = {
    "expansion": _run_expansion,
    "longtraj": _run_longtraj,
    "quasimin": _run_quasimin,
    "onestep": _run_onestep,
    "campanato": _run_campanato,
    "softlemma": _run_softlemma,
}
EXPERIMENT_NAMES = tuple(EXPERIMENTS)


def _cmd_experiment(name: str, cfg: dict, out_dir: Path, manifest: RunManifest) -> int:
    lam, mu = _marginals(cfg)
    columns, rows, trace, converged, extra_csvs = EXPERIMENTS[name](
        lam, mu, _section(cfg, "experiment", keys=EXPERIMENT_KEYS), cfg
    )
    write_csv(out_dir / "report.csv", columns, rows)
    write_json(out_dir / "trace.json", trace)
    for fname, (extra_columns, extra_rows) in extra_csvs.items():
        write_csv(out_dir / fname, extra_columns, extra_rows)
    for fname in ["report.csv", "trace.json", *extra_csvs]:
        manifest.add_output(out_dir / fname)
    # Files are written either way; an unconverged solve is flagged by exit 3.
    manifest.status = {"experiment": name, "ok": converged}
    return 0 if converged else 3


if __name__ == "__main__":
    raise SystemExit(main())
