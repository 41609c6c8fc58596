"""CLI: exit codes, file schemas, manifest integrity, determinism."""

import copy
import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eotlab import save_measure
from eotlab.cli import (EXPERIMENT_KEYS, _regularity_config, _section, _solver_epsilon,
                        _solver_opts, main)
from eotlab.reports import jsonify
from conftest import line_measure


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload, indent=2))
    return path


def marginal_spec(n=33, kind="perturbed_uniform", **params):
    return {
        "grid": {"dim": 1, "n": n, "lo": -1.0, "hi": 1.0},
        "density": {"kind": kind, **params},
        "alpha": 0.5,
        "normalize": True,
    }


def read_csv_rows(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, list(reader)


def strict_json(path):
    """Parse ``path`` as strict JSON: the tokens NaN and Infinity raise."""
    def reject(token):
        raise ValueError(f"non-JSON constant {token}")

    return json.loads(Path(path).read_text(), parse_constant=reject)


def assert_csv_parses(path):
    header, rows = read_csv_rows(path)
    assert header
    for row in rows:
        assert len(row) == len(header)
        for cell in row:
            if cell in ("", "true", "false") or not any(c.isdigit() for c in cell):
                continue
            float(cell)


class TestJsonify:
    def test_non_finite_array_entries_become_null(self):
        assert jsonify(np.array([[1.5, np.nan], [np.inf, -np.inf]])) == [[1.5, None],
                                                                         [None, None]]


class TestSolve:
    def test_single_atom_cost_zero(self, tmp_path):
        atom = line_measure([0.0], [1.0], h=0.5)
        save_measure(atom, tmp_path / "atom.csv")
        cfg = write_config(
            tmp_path,
            {
                "source": {"file": str(tmp_path / "atom.csv")},
                "solver": {"epsilon": 0.5},
                "gibbs_check_samples": 50,
            },
        )
        out = tmp_path / "out"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["cost"] == pytest.approx(0.0, abs=1e-12)
        assert summary["converged"] is True
        assert summary["gibbs_max_rel_err"] <= 1e-9
        assert (out / "plan.bin").exists() and (out / "plan.json").exists()

    def test_mass_mismatch_exits_2_naming_gap(self, tmp_path, capsys):
        lam = line_measure([0.0, 0.5], [0.5, 0.5], h=0.5)
        mu = line_measure([0.0, 0.5], [0.6, 0.6], h=0.5)
        save_measure(lam, tmp_path / "lam.csv")
        save_measure(mu, tmp_path / "mu.csv")
        cfg = write_config(
            tmp_path,
            {
                "source": {"file": str(tmp_path / "lam.csv")},
                "target": {"file": str(tmp_path / "mu.csv")},
                "solver": {"epsilon": 0.5},
            },
        )
        code = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "relative gap" in err

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "seed": 7,
                "source": marginal_spec(amplitude=0.1),
                "solver": {"epsilon": 0.4},
                "gibbs_check_samples": 100,
            },
        )
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["solve", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["solve", "--config", str(cfg), "--out", str(out2)]) == 0
        for name in ("summary.json", "plan.bin", "plan.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        m1 = json.loads((out1 / "manifest.json").read_text())
        m2 = json.loads((out2 / "manifest.json").read_text())
        m1.pop("created_utc"), m2.pop("created_utc")
        assert m1 == m2

    def test_manifest_hashes_match_files(self, tmp_path):
        import hashlib

        cfg = write_config(
            tmp_path,
            {"source": marginal_spec(n=17), "solver": {"epsilon": 0.5}},
        )
        out = tmp_path / "out"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config_snapshot"] == cfg.read_text()
        for entry in manifest["outputs"]:
            blob = (out / entry["path"]).read_bytes()
            assert hashlib.sha256(blob).hexdigest() == entry["sha256"]
            assert len(blob) == entry["bytes"]


class TestExperimentDispatch:
    def test_unknown_name_exits_2_with_choices(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"source": marginal_spec()})
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "nonsense", "--config", str(cfg)])
        assert exc.value.code == 2
        assert "expansion" in capsys.readouterr().err

    def test_missing_config_exits_2(self, tmp_path, capsys):
        code = main(["experiment", "expansion", "--config", str(tmp_path / "nope.json")])
        assert code == 2
        assert "cannot read config file" in capsys.readouterr().err
        # A file that is not JSON, JSON that is not an object, and an object
        # with no source each exit 2 with their own message.
        for text, message in [("{", "config is not valid JSON"),
                              ("[1, 2]", "config must be a JSON object"),
                              ('{"solver": {"epsilon": 0.5}}',
                               "config missing marginal spec: 'source'")]:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(text)
            code = main(["experiment", "expansion", "--config", str(cfg),
                         "--out", str(tmp_path / "o")])
            err = capsys.readouterr().err
            assert code == 2 and message in err and "Traceback" not in err

    def test_blocked_output_dir_exits_4(self, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory")
        cfg = write_config(
            tmp_path,
            {"source": marginal_spec(), "experiment": {"eps_ladder": [0.5]},
             "solver": {"epsilon": 0.5}},
        )
        code = main(["experiment", "expansion", "--config", str(cfg),
                     "--out", str(blocker)])
        assert code == 4

    def test_output_dir_created(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {"source": marginal_spec(n=17), "experiment": {"eps_ladder": [0.6]},
             "solver": {"epsilon": 0.6}},
        )
        nested = tmp_path / "deep" / "nested" / "dir"
        assert main(["experiment", "expansion", "--config", str(cfg),
                     "--out", str(nested)]) == 0
        assert (nested / "report.csv").exists()

    def test_domain_error_exits_4(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {"source": marginal_spec(),
             "experiment": {"R": 0.5, "eps_ladder": [0.3]},
             "solver": {"epsilon": 0.3}},
        )
        code = main(["experiment", "longtraj", "--config", str(cfg),
                     "--out", str(tmp_path / "o")])
        assert code == 4


class TestExpansionExperiment:
    def test_three_point_ladder_plus_regression_row(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "source": marginal_spec(amplitude=0.1),
                "experiment": {"eps_ladder": [0.6, 0.5, 0.4]},
                "solver": {"epsilon": 0.4},
            },
        )
        out = tmp_path / "out"
        assert main(["experiment", "expansion", "--config", str(cfg),
                     "--out", str(out)]) == 0
        header, rows = read_csv_rows(out / "report.csv")
        assert len(rows) == 4
        kinds = [row[header.index("row_type")] for row in rows]
        assert kinds == ["point", "point", "point", "regression"]
        assert_csv_parses(out / "report.csv")
        trace = json.loads((out / "trace.json").read_text())
        assert len(trace["rows"]) == 3

    def test_rerun_determinism(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "seed": 3,
                "source": marginal_spec(amplitude=0.05),
                "experiment": {"eps_ladder": [0.6, 0.45]},
                "solver": {"epsilon": 0.45},
            },
        )
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        for out in (out1, out2):
            assert main(["experiment", "expansion", "--config", str(cfg),
                         "--out", str(out)]) == 0
        for name in ("report.csv", "trace.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_duplicate_ladder_leaves_regression_row_empty(self, tmp_path, recwarn):
        # Two ladder points at one epsilon determine no line.
        cfg = write_config(tmp_path, {"source": marginal_spec(amplitude=0.1),
                                      "experiment": {"eps_ladder": [0.5, 0.5]}})
        out = tmp_path / "out"
        assert main(["experiment", "expansion", "--config", str(cfg), "--out", str(out)]) == 0
        header, rows = read_csv_rows(out / "report.csv")
        regression = rows[-1]
        assert regression[header.index("row_type")] == "regression"
        assert regression[header.index("slope")] == regression[header.index("intercept")] == ""
        assert not recwarn.list

    def test_trace_records_lp_solves(self, tmp_path):
        from eotlab import solvers

        # One LP over the 9x9 grids, seeded by a Sinkhorn solve at two
        # grid spacings.
        spec = dict(marginal_spec(n=9), grid={"dim": 2, "n": 9, "lo": -1.0, "hi": 1.0})
        target = dict(spec, density={"kind": "gaussian", "sigma": 0.5, "floor": 0.3})
        cfg = write_config(tmp_path, {"source": spec, "target": target,
                                      "experiment": {"eps_ladder": [0.6]}})
        out = tmp_path / "out"
        assert main(["experiment", "expansion", "--config", str(cfg), "--out", str(out)]) == 0
        record = json.loads((out / "trace.json").read_text())["exact_ot"]
        assert record["method"] == "lp_highs"
        solves = record["solves"]
        assert all(s["atoms"] == [81, 81] for s in solves)
        assert solves[-1]["added"] == 0 and all(s["pairs"] > 0 for s in solves)
        seed = record["seed_stages"]
        assert seed[-1]["epsilon"] == solvers.SEED_SPACINGS * 0.25
        assert all(s["stop"] == "converged" and s["iterations"] > 0 for s in seed)

    def test_failed_lp_exits_4_without_traceback(self, tmp_path, monkeypatch, capsys):
        # A HiGHS model status other than Optimal is a failed certificate:
        # the experiment exits 4 and names the status.
        from scipy.optimize._highspy import _core

        monkeypatch.setattr(_core._Highs, "getModelStatus",
                            lambda self: _core.HighsModelStatus.kUnknown)
        spec = dict(marginal_spec(n=9), grid={"dim": 2, "n": 9, "lo": -1.0, "hi": 1.0})
        target = dict(spec, density={"kind": "gaussian", "sigma": 0.5, "floor": 0.3})
        cfg = write_config(tmp_path, {"source": spec, "target": target,
                                      "experiment": {"eps_ladder": [0.6]}})
        code = main(["experiment", "expansion", "--config", str(cfg),
                     "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 4
        assert "transport LP failed" in err and "model status Unknown" in err
        assert "Traceback" not in err


class TestOtherExperiments:
    def test_longtraj_schema(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "source": marginal_spec(n=49),
                "experiment": {"R": 0.1, "eps_ladder": [0.4, 0.3]},
                "solver": {"epsilon": 0.3},
            },
        )
        out = tmp_path / "out"
        assert main(["experiment", "longtraj", "--config", str(cfg),
                     "--out", str(out)]) == 0
        assert_csv_parses(out / "report.csv")
        header, rows = read_csv_rows(out / "report.csv")
        assert len(rows) == 4  # two points + two slope rows

    def test_quasimin_writes_defects_csv(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "source": marginal_spec(n=49),
                "experiment": {"R": 0.3, "eps_ladder": [0.3, 0.2]},
                "solver": {"epsilon": 0.2},
            },
        )
        outputs = []
        for run in ("1", "2"):  # a rerun writes the same bytes
            out = tmp_path / f"out{run}"
            assert main(["experiment", "quasimin", "--config", str(cfg),
                         "--out", str(out)]) == 0
            assert_csv_parses(out / "report.csv")
            assert_csv_parses(out / "defects.csv")
            outputs.append([(out / name).read_bytes()
                            for name in ("report.csv", "defects.csv", "trace.json")])
        assert outputs[0] == outputs[1]

    def test_campanato_trace_and_radius_scan(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "source": marginal_spec(n=65, amplitude=0.05),
                "experiment": {"R0": 0.8, "theta": 0.5, "max_levels": 6},
                "solver": {"epsilon": 0.08},
            },
        )
        out = tmp_path / "out"
        assert main(["experiment", "campanato", "--config", str(cfg),
                     "--out", str(out)]) == 0
        assert_csv_parses(out / "report.csv")
        assert_csv_parses(out / "radius_scan.csv")
        trace = json.loads((out / "trace.json").read_text())
        assert trace["stop_reason"] in (
            "reached_epsilon_scale", "smallness_violated", "admissibility_exit",
            "max_levels",
        )
        radii = [lvl["r"] for lvl in trace["levels"]]
        assert all(a > b for a, b in zip(radii, radii[1:]))

    def test_onestep_report(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "source": marginal_spec(n=65, amplitude=0.05),
                "experiment": {"R0": 0.5, "theta": 0.5},
                "solver": {"epsilon": 0.05},
            },
        )
        out = tmp_path / "out"
        assert main(["experiment", "onestep", "--config", str(cfg),
                     "--out", str(out)]) == 0
        assert_csv_parses(out / "report.csv")
        header, rows = read_csv_rows(out / "report.csv")
        assert len(rows) == 1
        assert "E_before" in header and "E_after" in header

    def test_softlemma_schema(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "source": marginal_spec(n=49),
                "experiment": {"R": 1.5, "rho_ladder": [0.2, 0.4], "Delta_R": 0.05},
                "solver": {"epsilon": 0.15},
            },
        )
        out = tmp_path / "out"
        assert main(["experiment", "softlemma", "--config", str(cfg),
                     "--out", str(out)]) == 0
        assert_csv_parses(out / "report.csv")
        header, rows = read_csv_rows(out / "report.csv")
        assert len(rows) == 2

    def test_softlemma_zero_defect_bound_writes_valid_json(self, tmp_path):
        # With Delta_R = 0 the fitted constant is undefined: an empty cell and
        # null, never the non-JSON token Infinity.
        cfg = write_config(
            tmp_path,
            {
                "source": {"grid": {"dim": 1, "n": 65, "lo": -4.0, "hi": 4.0},
                           "density": {"kind": "uniform"}, "alpha": 0.5, "normalize": True},
                "experiment": {"R": 2.0, "rho_ladder": [0.5, 1.0], "Delta_R": 0.0},
                "solver": {"epsilon": 0.5},
            },
        )
        out = tmp_path / "out"
        assert main(["experiment", "softlemma", "--config", str(cfg),
                     "--out", str(out)]) == 0
        trace = strict_json(out / "trace.json")
        assert [row["fitted_const"] for row in trace["rows"]] == [None, None]
        header, rows = read_csv_rows(out / "report.csv")
        assert [row[header.index("fitted_const")] for row in rows] == ["", ""]

    def test_softlemma_overflowing_quotients_write_null(self, tmp_path):
        # rho^3 = 1e-315 is subnormal, so it passes as positive, but the
        # quotients by it overflow: null and an empty cell, never Infinity.
        cfg = write_config(
            tmp_path,
            {
                "source": {"grid": {"dim": 1, "n": 65, "lo": -4.0, "hi": 4.0},
                           "density": {"kind": "uniform"}, "alpha": 0.5, "normalize": True},
                "experiment": {"R": 2.0, "rho_ladder": [1e-105, 0.5], "Delta_R": 0.01},
                "solver": {"epsilon": 0.5},
            },
        )
        out = tmp_path / "out"
        assert main(["experiment", "softlemma", "--config", str(cfg),
                     "--out", str(out)]) == 0
        tiny, wide = strict_json(out / "trace.json")["rows"]
        for key in ("bound", "energy_over_rho_pow"):
            assert tiny[key] is None and wide[key] > 0
        header, rows = read_csv_rows(out / "report.csv")
        for key in ("bound", "energy_over_rho_pow"):
            assert rows[0][header.index(key)] == "" and float(rows[1][header.index(key)]) > 0


class TestStageRecords:
    """``solve``'s summary.json and each single-solve experiment's trace.json
    carry the solve's epsilon stages."""

    STAGE_KEYS = {"epsilon", "iterations", "omega", "rollbacks", "absorptions", "marg_err",
                  "stop"}

    @pytest.mark.parametrize("command, experiment, output", [
        ("solve", {}, "summary.json"),
        ("campanato", {"R0": 0.8, "max_levels": 2}, "trace.json"),
        ("onestep", {"R0": 0.5, "thresholds": {"eps1": 0.5}}, "trace.json"),
        ("softlemma", {"R": 1.5, "rho_ladder": [0.2, 0.4], "Delta_R": 0.05}, "trace.json"),
    ])
    def test_stages_recorded(self, tmp_path, command, experiment, output):
        cfg = write_config(tmp_path, {"source": marginal_spec(n=49), "experiment": experiment,
                                      "solver": {"epsilon": 0.15, "tol": 1e-9}})
        argv = ["solve"] if command == "solve" else ["experiment", command]
        outputs = []
        for out in (tmp_path / "a", tmp_path / "b"):
            assert main([*argv, "--config", str(cfg), "--out", str(out)]) == 0
            outputs.append((out / output).read_bytes())
        assert outputs[0] == outputs[1]
        stages = json.loads(outputs[0])["stages"]
        assert stages and all(set(stage) == self.STAGE_KEYS for stage in stages)
        assert stages[-1]["epsilon"] == 0.15
        assert stages[-1]["stop"] == "converged" and stages[-1]["marg_err"] <= 1e-9
        if command == "solve":
            summary = json.loads(outputs[0])
            assert sum(stage["iterations"] for stage in stages) == summary["iterations"]
            assert stages[-1]["marg_err"] == summary["marg_err"]


    @pytest.mark.parametrize("command, experiment", [
        ("expansion", {}), ("longtraj", {"R": 0.1}), ("quasimin", {"R": 0.3}),
    ])
    def test_ladder_stages_recorded(self, tmp_path, command, experiment):
        # One stage list per ladder solve, in trace.json only.
        ladder = [0.3, 0.2]
        cfg = write_config(tmp_path, {"source": marginal_spec(n=49),
                                      "experiment": dict(experiment, eps_ladder=ladder),
                                      "solver": {"tol": 1e-9}})
        outputs = []
        for out in (tmp_path / "a", tmp_path / "b"):
            assert main(["experiment", command, "--config", str(cfg), "--out", str(out)]) == 0
            outputs.append([(out / name).read_bytes() for name in ("trace.json", "report.csv")])
        assert outputs[0] == outputs[1]
        solves = json.loads(outputs[0][0])["stages"]
        assert len(solves) == len(ladder)
        for stages, eps in zip(solves, ladder):
            assert stages and all(set(stage) == self.STAGE_KEYS for stage in stages)
            assert stages[-1]["epsilon"] == eps
            assert stages[-1]["stop"] == "converged" and stages[-1]["marg_err"] <= 1e-9
        header, _ = read_csv_rows(tmp_path / "a" / "report.csv")
        assert "stages" not in header


class TestNonConvergenceAndBadInput:
    def test_inf_weight_exits_2_at_once(self, tmp_path, capsys):
        import time

        lam = line_measure(np.linspace(-1.0, 1.0, 11), np.full(11, 1.0 / 11), h=0.2)
        save_measure(lam, tmp_path / "lam.csv")
        lines = (tmp_path / "lam.csv").read_text().splitlines()
        lines[4] = lines[4].split(",")[0] + ",inf"
        (tmp_path / "lam.csv").write_text("\n".join(lines) + "\n")
        save_measure(lam, tmp_path / "mu.csv")
        cfg = write_config(
            tmp_path,
            {
                "source": {"file": str(tmp_path / "lam.csv")},
                "target": {"file": str(tmp_path / "mu.csv")},
                "solver": {"epsilon": 0.3},
            },
        )
        start = time.perf_counter()
        code = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        assert time.perf_counter() - start < 1.0
        assert "finite" in capsys.readouterr().err

    def test_oversized_dense_solve_exits_4_up_front(self, tmp_path, capsys):
        import time
        import tracemalloc

        # 128 x 128 points per side: one dense n x m array would take 2 GiB.
        grid = {"dim": 2, "n": 128, "lo": -1.0, "hi": 1.0}
        cfg = write_config(
            tmp_path,
            {
                "source": {"grid": grid, "density": {"kind": "uniform"}, "alpha": 0.5},
                "solver": {"epsilon": 0.3},
            },
        )
        tracemalloc.start()
        try:
            start = time.perf_counter()
            code = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")])
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 4
        assert elapsed < 1.0
        assert peak < 64 * 2**20
        err = capsys.readouterr().err
        assert "16384 x 16384" in err and "MiB" in err and "limit" in err

    def test_oversized_gibbs_sample_exits_4_before_allocating(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"source": marginal_spec(n=17), "solver": {"epsilon": 0.5},
                                      "gibbs_check_samples": 10**18})
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 4
        err = capsys.readouterr().err
        assert "1000000000000000000 samples" in err and "Traceback" not in err

    def test_gibbs_check_too_large_exits_4_before_the_solve(self, tmp_path, monkeypatch, capsys):
        # The 20x20 solve counts its plan's two n x m arrays and its per-axis
        # arrays, about 2.11 n x m; the check holds the plan, a bool mask and
        # an int64 index of its positive entries, 2.125 n x m, and 1,000
        # samples add 0.1.  A limit between the two refuses the check up front.
        from eotlab import cli, grids

        grid = {"dim": 2, "n": 20, "lo": -1.0, "hi": 1.0}
        cfg = write_config(tmp_path, {
            "source": {"grid": grid, "density": {"kind": "uniform"}, "alpha": 0.5},
            "solver": {"epsilon": 0.5}, "gibbs_check_samples": 1000})
        n_m = 400 * 400
        monkeypatch.setattr(grids, "DENSE_BYTES_LIMIT", int(2.17 * 8 * n_m))
        solves = []
        monkeypatch.setattr(cli, "sinkhorn", lambda *a, **k: solves.append(a))
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 4
        err = capsys.readouterr().err
        assert "Gibbs identity check with 1000 samples on 400 x 400" in err
        assert "Traceback" not in err and solves == []

    def test_exact_ot_is_admitted_where_sinkhorn_is(self, tmp_path, monkeypatch, capsys):
        # Both solvers' guards count the plan and its cached cost, and
        # Sinkhorn adds its small per-axis arrays: at 3 n x m on a 20x20
        # pair, quasimin's Sinkhorn solves and its competitors' exact solves
        # are all admitted.
        from eotlab import exact_ot, grids, make_measure

        grid = {"dim": 2, "n": 20, "lo": -1.0, "hi": 1.0}
        source = {"grid": grid, "alpha": 0.5, "normalize": True, "density": {"kind": "uniform"}}
        target = {"grid": grid, "alpha": 0.5, "normalize": True,
                  "density": {"kind": "gaussian", "sigma": 0.8, "floor": 0.3}}
        monkeypatch.setattr(grids, "DENSE_BYTES_LIMIT", 3 * 8 * 400 * 400)
        res = exact_ot(make_measure(source), make_measure(target))
        assert res.method == "lp_highs" and res.duality_gap <= 1e-9
        cfg = write_config(tmp_path, {"source": source, "target": target,
                                      "experiment": {"R": 0.3, "eps_ladder": [0.3, 0.2]},
                                      "solver": {"epsilon": 0.2}})
        assert main(["experiment", "quasimin", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 0, capsys.readouterr().err

    # The n = 256 curved pair, and a 32 x 32 uniform-to-gaussian pair.
    CURVED_PAIR = {
        "source": {"grid": {"dim": 1, "n": 256, "lo": -1.0, "hi": 1.0},
                   "density": {"kind": "uniform"}, "alpha": 0.5},
        "target": {"grid": {"dim": 1, "n": 256, "lo": -1.0, "hi": 1.0}, "alpha": 0.5,
                   "density": {"kind": "shifted_profile", "c0": 0.02, "c1": 0.42,
                               "exponent": 1.0, "window_power": 2.0}},
        "solver": {"epsilon": 0.04, "tol": 1e-8},
    }
    GAUSSIAN_PAIR_2D = {
        "source": {"grid": {"dim": 2, "n": 32, "lo": -1.0, "hi": 1.0},
                   "density": {"kind": "uniform"}, "alpha": 0.5, "normalize": True},
        "target": {"grid": {"dim": 2, "n": 32, "lo": -1.0, "hi": 1.0}, "alpha": 0.5,
                   "normalize": True,
                   "density": {"kind": "gaussian", "sigma": 0.8, "floor": 0.3}},
        "solver": {"epsilon": 0.1},
    }

    def traced_peak(self, tmp_path, command, pair) -> float:
        """The traced peak of one ``experiment`` run, in n x m float arrays."""
        import tracemalloc

        cfg = write_config(tmp_path, dict(pair, experiment={
            "R0": 0.8, "theta": 0.5, "thresholds": {"eps1": 0.5, "delta": 0.005, "c0": 3.0}}))
        tracemalloc.start()
        try:
            code = main(["experiment", command, "--config", str(cfg),
                         "--out", str(tmp_path / "o")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        n = pair["source"]["grid"]["n"] ** pair["source"]["grid"]["dim"]
        return peak / (8 * n * n)

    def test_onestep_peak_memory(self, tmp_path):
        # The solve's plan and the normalised plan, with the step's rescaled
        # plan while E and D are measured on it; region reads hold no cost.
        # 4.18 n x m measured.
        assert self.traced_peak(tmp_path, "onestep", self.CURVED_PAIR) <= 5.0

    @pytest.mark.parametrize("pair, bound", [("CURVED_PAIR", 4.0), ("GAUSSIAN_PAIR_2D", 3.5)])
    def test_campanato_peak_memory(self, tmp_path, pair, bound):
        # Measured 3.72 and 3.04 n x m; 2-d reads go through per-axis sums.
        assert self.traced_peak(tmp_path, "campanato", getattr(self, pair)) <= bound

    @pytest.mark.parametrize("where", ["config_grid", "sidecar_extent"])
    def test_oversized_grid_exits_4_before_allocating(self, tmp_path, capsys, where):
        import time
        import tracemalloc

        if where == "config_grid":
            source, points = marginal_spec(n=10**15), 10**15
        else:
            lam = line_measure(np.linspace(-1.0, 1.0, 11), np.full(11, 1.0 / 11), h=0.2)
            save_measure(lam, tmp_path / "lam.csv")
            sidecar = tmp_path / "lam.json"
            sidecar.write_text(json.dumps(dict(json.loads(sidecar.read_text()), extent=[10**18])))
            source, points = {"file": str(tmp_path / "lam.csv")}, 10**18
        cfg = write_config(tmp_path, {"source": source, "solver": {"epsilon": 0.3}})
        tracemalloc.start()
        try:
            start = time.perf_counter()
            code = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")])
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 4
        assert elapsed < 1.0
        assert peak < 64 * 2**20
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert f"{points} x 2 support points" in err and "MiB" in err and "limit" in err

    def test_cascade_below_grid_resolution_names_the_settings(self, tmp_path, capsys):
        # The spacing 0.0625 leaves only the origin inside B_0.05, at level 4,
        # while the cascade would run on down to r <= c0 * epsilon = 0.01.
        grid = {"dim": 1, "n": 33, "lo": -1.0, "hi": 1.0}
        cfg = write_config(
            tmp_path,
            {
                "source": {"grid": grid, "density": {"kind": "uniform"}, "alpha": 0.5,
                           "normalize": True},
                "experiment": {"R0": 0.8, "theta": 0.5, "thresholds": {"c0": 1.0}},
                "solver": {"epsilon": 0.01},
            },
        )
        assert main(["experiment", "campanato", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 4
        err = capsys.readouterr().err
        assert "Traceback" not in err
        for part in ("level 4 at r = 0.05", "grid spacing 0.0625", "thresholds.c0",
                     "solver.epsilon", "refine the grid"):
            assert part in err

    def test_stagnated_solve_exits_3_at_once(self, tmp_path, caplog):
        import time

        grid = {"dim": 1, "n": 41, "lo": -1.0, "hi": 1.0}
        cfg = write_config(
            tmp_path,
            {
                "source": {"grid": grid, "density": {"kind": "uniform"}, "alpha": 0.5},
                "target": {"grid": grid, "density": {"kind": "affine", "slope": 0.5},
                           "alpha": 0.5},
                "solver": {"epsilon": 1e-3, "tol": 1e-9},
            },
        )
        start = time.perf_counter()
        code = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 3
        assert time.perf_counter() - start < 1.0
        assert "stagnated" in caplog.text and "solver.epsilon" in caplog.text

    def test_unconverged_experiment_exits_3_and_writes_files(self, tmp_path):
        grid = {"dim": 1, "n": 64, "lo": -1.0, "hi": 1.0}
        cfg = write_config(
            tmp_path,
            {
                "source": {"grid": grid, "density": {"kind": "uniform"}, "alpha": 0.5},
                "target": {
                    "grid": grid,
                    "density": {"kind": "shifted_profile", "c0": 0.02, "c1": 0.42,
                                "exponent": 1.0, "window_power": 2.0},
                    "alpha": 0.5,
                },
                "experiment": {"R0": 0.8, "theta": 0.5},
                "solver": {"epsilon": 0.04, "tol": 1e-8, "max_iter": 50},
            },
        )
        out = tmp_path / "out"
        assert main(["experiment", "campanato", "--config", str(cfg),
                     "--out", str(out)]) == 3
        for name in ("report.csv", "trace.json", "radius_scan.csv"):
            assert (out / name).exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"]["ok"] is False


class TestBlasThreads:
    def test_campanato_outputs_identical_across_blas_threads(self, tmp_path):
        # The normalised n = 512 curved pair, with thresholds loose enough for
        # the cascade to take harmonic steps.
        grid = {"dim": 1, "n": 512, "lo": -1.0, "hi": 1.0}
        cfg = write_config(tmp_path, {
            "source": {"grid": grid, "density": {"kind": "uniform"}, "alpha": 0.5,
                       "normalize": True},
            "target": {"grid": grid, "alpha": 0.5, "normalize": True,
                       "density": {"kind": "shifted_profile", "c0": 0.02, "c1": 0.42,
                                   "exponent": 1.0, "window_power": 2.0}},
            "experiment": {"R0": 0.8, "theta": 0.5, "max_levels": 8,
                           "thresholds": {"eps1": 0.5, "delta": 0.005, "c0": 3.0}},
            "solver": {"epsilon": 0.04, "tol": 1e-8},
        })
        src = str(Path(__file__).resolve().parents[1] / "src")
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
            out = tmp_path / f"blas{threads}"
            proc = subprocess.run(
                [sys.executable, "-m", "eotlab.cli", "experiment", "campanato",
                 "--config", str(cfg), "--out", str(out)],
                env=env, capture_output=True, text=True, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append([(out / name).read_bytes() for name in ("report.csv", "trace.json")])
        assert len(json.loads(outputs[0][1])["levels"]) > 1
        assert outputs[0] == outputs[1]


    def test_expansion_2d_outputs_identical_across_blas_threads(self, tmp_path):
        # A 20x20 pair whose Sinkhorn solves run on the per-axis kernel
        # factors, through matrix-matrix products.
        grid = {"dim": 2, "n": 20, "lo": -1.0, "hi": 1.0}
        cfg = write_config(tmp_path, {
            "source": {"grid": grid, "alpha": 0.5, "density": {
                "kind": "perturbed_uniform", "amplitude": 0.2, "freq": 1.0}},
            "target": {"grid": grid, "alpha": 0.5, "density": {
                "kind": "gaussian", "sigma": 0.5, "floor": 0.3, "center": [0.05, -0.05]}},
            "experiment": {"eps_ladder": [0.5, 0.4, 0.32]},
            "solver": {"tol": 1e-9},
        })
        src = str(Path(__file__).resolve().parents[1] / "src")
        outputs = []
        for run, threads in enumerate(("1", "2", "2")):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
            out = tmp_path / f"run{run}"
            proc = subprocess.run(
                [sys.executable, "-m", "eotlab.cli", "experiment", "expansion",
                 "--config", str(cfg), "--out", str(out)],
                env=env, capture_output=True, text=True, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append([(out / name).read_bytes() for name in ("report.csv", "trace.json")])
        assert len(json.loads(outputs[0][1])["stages"]) == 3
        assert outputs[0] == outputs[1] == outputs[2]


def _set(path, value):
    """Config edit that sets the key at ``path`` (a tuple of keys) to ``value``."""
    def edit(cfg):
        node = cfg
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return edit


def _edit_csv_line(lineno, text):
    """Measure-file edit: replace line ``lineno`` (0 is the header) or, with
    ``lineno`` None, append ``text`` as a new row."""
    def edit(path):
        lines = path.read_text().splitlines()
        if lineno is None:
            lines.append(text)
        else:
            lines[lineno] = text
        path.write_text("\n".join(lines) + "\n")
    return edit


def _edit_sidecar(key, value):
    """Measure-file edit: set ``key`` in the JSON sidecar to ``value``."""
    def edit(path):
        sidecar = path.with_suffix(".json")
        meta = json.loads(sidecar.read_text())
        meta[key] = value
        sidecar.write_text(json.dumps(meta))
    return edit


BAD_CONFIGS = {
    "epsilon_string": ("campanato", _set(("solver", "epsilon"), "abc"), "solver.epsilon"),
    "epsilon_nan": ("campanato", _set(("solver", "epsilon"), float("nan")), "solver.epsilon"),
    "n_string": ("quasimin", _set(("source", "grid", "n"), "x"), "grid.n"),
    "seed_string": ("quasimin", _set(("seed",), "x"), "seed"),
    "max_levels_string": ("campanato", _set(("experiment", "max_levels"), "x"),
                          "experiment.max_levels"),
    "max_levels_negative": ("campanato", _set(("experiment", "max_levels"), -3),
                            "experiment.max_levels"),
    "rho_ladder_zero": ("softlemma", _set(("experiment",), {"R": 1.5, "rho_ladder": [0.0, 0.2]}),
                        "experiment.rho_ladder"),
    "Delta_R_negative": ("softlemma", _set(("experiment",), {
        "R": 1.5, "rho_ladder": [0.2], "Delta_R": -0.05}), "experiment.Delta_R"),
    "R_string": ("quasimin", _set(("experiment", "R"), "abc"), "experiment.R"),
    "theta_above_one": ("campanato", _set(("experiment", "theta"), 1.5), "experiment.theta"),
    "Lambda_below_one": ("quasimin", _set(("experiment", "Lambda"), 0.5), "experiment.Lambda"),
    "eps_ladder_scalar": ("quasimin", _set(("experiment", "eps_ladder"), 0.5),
                          "experiment.eps_ladder"),
    "tol_string": ("quasimin", _set(("solver", "tol"), "abc"), "solver.tol"),
    "max_iter_string": ("quasimin", _set(("solver", "max_iter"), "x"), "solver.max_iter"),
    # Retired solver keys: check_every is the module constant CHECK_EVERY, and
    # the epsilon ladder always runs.
    "check_every_zero": ("quasimin", _set(("solver", "check_every"), 0), "'check_every'"),
    "warm_start_retired": ("quasimin", _set(("solver", "warm_start"), False), "'warm_start'"),
    "stabilize_every_unknown": ("quasimin", _set(("solver", "stabilize_every"), 1),
                                "'stabilize_every'"),
    "threshold_lam": ("campanato", _set(("experiment", "thresholds"), {"lam": 9}), "'lam'"),
    # Retired threshold keys; a beta of 1e6 or -1e6 once ended in a
    # ZeroDivisionError or an OverflowError.
    "threshold_beta_huge": ("campanato", _set(("experiment", "thresholds"), {"beta": 1e6}),
                            "'beta'"),
    "threshold_beta_negative": ("campanato", _set(("experiment", "thresholds"), {"beta": -1e6}),
                                "'beta'"),
    "threshold_fit_radius_factor": ("campanato", _set(("experiment", "thresholds"),
                                                      {"fit_radius_factor": 0.1}),
                                    "'fit_radius_factor'"),
    "threshold_normalization_tol": ("campanato", _set(("experiment", "thresholds"),
                                                      {"normalization_tol": 0.01}),
                                    "'normalization_tol'"),
    # With both at 10**18 no check was ever reached and the solve ran forever,
    # before check_every was retired.
    "check_every_unbounded": ("quasimin", _set(("solver",), {
        "epsilon": 0.5, "max_iter": 10**18, "check_every": 10**18}), "'check_every'"),
    # Misspelt experiment keys once ran silently at the defaults.
    "experiment_key_typos": ("campanato", _set(("experiment",), {
        "R0": 0.8, "thetaa": 0.9, "max_level": 2}), "'max_level', 'thetaa'"),
    "seed_negative": ("quasimin", _set(("seed",), -1), "seed"),
    "file_not_string": ("quasimin", _set(("source",), {"file": 3}), "file"),
    "mass_mismatch": ("campanato", _set(("target",), dict(marginal_spec(n=17), normalize=False)),
                      "relative gap"),
    "slope_string": ("quasimin", _set(("source", "density"), {"kind": "affine", "slope": "x"}),
                     "density.slope"),
    "center_entry_string": ("quasimin", _set(("source",), dict(
        marginal_spec(n=9, kind="gaussian", center=[0.1, "y"]), grid={"dim": 2, "n": 9})),
        "density.center"),
    "center_too_long": ("quasimin", _set(("source",), dict(
        marginal_spec(n=9, kind="gaussian", center=[0.1, 0.2, 0.3]), grid={"dim": 2, "n": 9})),
        "density.center"),
}
BAD_MEASURE_FILES = {
    "index_out_of_range": (_edit_csv_line(None, "11,0.1"), "index (11,)"),
    "index_negative": (_edit_csv_line(11, "-1,0.1"), "index (-1,)"),
    "duplicate_row": (_edit_csv_line(None, "3,0.1"), "duplicate row for index (3,)"),
    "non_numeric_cell": (_edit_csv_line(4, "3,abc"), "non-numeric cell"),
    "extent_infinite": (_edit_sidecar("extent", [float("inf")]), "malformed measure sidecar"),
    "h_infinite": (_edit_sidecar("h", float("inf")), "h must be a finite number, got inf"),
    # Values that once loaded as the 11-point grid: truncated, parsed or read as 1.
    "dim_fraction": (_edit_sidecar("dim", 1.9), "dim must be an integer, got 1.9"),
    "extent_fraction": (_edit_sidecar("extent", [11.5]), "extent must be an integer, got 11.5"),
    "extent_string": (_edit_sidecar("extent", ["11"]), "extent must be an integer, got '11'"),
    "h_bool": (_edit_sidecar("h", True), "h must be a finite number, got True"),
}


def test_readme_config_example_is_accepted():
    """The README's Config example passes the CLI's own readers of the
    ``solver`` and ``experiment`` sections, so it lists no retired key."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("### Config", 1)[1].split("```json", 1)[1].split("```", 1)[0]
    cfg = json.loads(block)
    assert _solver_epsilon(cfg) > 0
    assert set(_solver_opts(cfg)) == set(cfg["solver"]) - {"epsilon"}
    _regularity_config(_section(cfg, "experiment", keys=EXPERIMENT_KEYS))


class TestBadInputExits2:
    """Each malformed config value or measure file exits 2 with a message that
    names the key or the offending row, and no traceback."""

    @staticmethod
    def run(tmp_path, capsys, command, cfg):
        path = write_config(tmp_path, cfg)
        code = main([*command, "--config", str(path), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert "Traceback" not in err
        return code, err

    @pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
    def test_config_value(self, tmp_path, capsys, case):
        name, edit, key = BAD_CONFIGS[case]
        experiment = (
            {"R0": 0.8, "max_levels": 2} if name == "campanato"
            else {"R": 0.3, "eps_ladder": [0.5]}
        )
        cfg = {"source": marginal_spec(n=17), "experiment": experiment,
               "solver": {"epsilon": 0.5}}
        edit(cfg)
        code, err = self.run(tmp_path, capsys, ["experiment", name], cfg)
        assert code == 2
        assert key in err

    def test_ramp_shift_is_not_a_density_kind(self, tmp_path, capsys):
        # A kind outside the five exits 2 and lists them.
        cfg = {"source": marginal_spec(n=17, kind="ramp_shift"), "solver": {"epsilon": 0.5}}
        code, err = self.run(tmp_path, capsys, ["solve"], cfg)
        assert code == 2
        assert "unknown density kind 'ramp_shift'" in err
        assert ("valid kinds: ['affine', 'gaussian', 'perturbed_uniform', 'shifted_profile', "
                "'uniform']") in err

    def test_negative_gibbs_check_samples(self, tmp_path, capsys):
        # A negative count once skipped the check and exited 0 without a word.
        cfg = {"source": marginal_spec(n=17), "solver": {"epsilon": 0.5},
               "gibbs_check_samples": -5}
        code, err = self.run(tmp_path, capsys, ["solve"], cfg)
        assert code == 2
        assert "gibbs_check_samples must be a non-negative integer, got -5" in err

    @pytest.mark.parametrize("case", sorted(BAD_MEASURE_FILES))
    def test_measure_file(self, tmp_path, capsys, case):
        edit, message = BAD_MEASURE_FILES[case]
        lam = line_measure(np.linspace(-1.0, 1.0, 11), np.full(11, 1.0 / 11), h=0.2)
        save_measure(lam, tmp_path / "lam.csv")
        edit(tmp_path / "lam.csv")
        cfg = {"source": {"file": str(tmp_path / "lam.csv")}, "solver": {"epsilon": 0.5}}
        code, err = self.run(tmp_path, capsys, ["solve"], cfg)
        assert code == 2
        assert message in err


# Odd values from a small grammar: wrong types, non-finite, negative, zero,
# empty, duplicate and huge.  Huge sizes are ones that the size guard refuses
# before allocating, so no example allocates or runs for long.
ODD_VALUES = [
    "abc", "", None, True, [], {}, [0.5, "x"], {"kind": "uniform"},
    float("nan"), float("inf"), float("-inf"), -1, -0.5, 0, 0.0,
    [0.5, 0.5], [0.4, 0.4, 0.4], 1e15, 10**15, 10**18, 1e308, -1e308,
]
# Config keys to replace: every section, the marginal specs and their parts,
# and each solver and experiment key a command reads.
CONFIG_PATHS = [
    ("source",), ("target",), ("solver",), ("experiment",), ("seed",),
    ("gibbs_check_samples",), ("output_dir",),
    ("source", "grid"), ("source", "grid", "dim"), ("source", "grid", "n"),
    ("source", "grid", "lo"), ("source", "grid", "hi"), ("source", "alpha"),
    ("source", "normalize"), ("source", "density"), ("source", "density", "kind"),
    ("source", "density", "amplitude"), ("source", "density", "freq"),
    ("target", "grid", "n"), ("target", "density", "sigma"), ("target", "density", "floor"),
    ("target", "density", "center"),
    ("solver", "epsilon"), ("solver", "tol"), ("solver", "max_iter"),
    ("solver", "check_every"), ("solver", "warm_start"),
    ("experiment", "R"), ("experiment", "R0"), ("experiment", "theta"),
    ("experiment", "eps_ladder"), ("experiment", "rho_ladder"), ("experiment", "Lambda"),
    ("experiment", "Delta_R"), ("experiment", "long_factor"), ("experiment", "max_levels"),
    ("experiment", "thresholds"), ("experiment", "thresholds", "eps1"),
    ("experiment", "thresholds", "delta"), ("experiment", "thresholds", "c0"),
]
UNKNOWN_KEY_SECTIONS = [(), ("source",), ("source", "grid"), ("source", "density"),
                        ("solver",), ("experiment",), ("experiment", "thresholds")]
COMMANDS = [("solve",), *(("experiment", name) for name in
                          ("expansion", "longtraj", "quasimin", "onestep", "campanato",
                           "softlemma"))]


def tiny_config():
    """A config on 9-point grids on which every command exits 0, so that an
    edit reaches the command's statistics: the hull [-2, 2] holds the
    long-trajectory ball of radius long_factor * R, softlemma's R exceeds 1,
    and the smallness of onestep's first level stays below eps1."""
    grid = {"dim": 1, "n": 9, "lo": -2.0, "hi": 2.0}
    return {
        "seed": 1,
        "source": {"grid": dict(grid), "alpha": 0.5, "normalize": True,
                   "density": {"kind": "perturbed_uniform", "amplitude": 0.2, "freq": 1.0}},
        "target": {"grid": dict(grid), "alpha": 0.5, "normalize": True,
                   "density": {"kind": "gaussian", "sigma": 1.0, "floor": 0.2}},
        "solver": {"epsilon": 0.6, "tol": 1e-6, "max_iter": 2000},
        "experiment": {"R": 1.5, "R0": 2.0, "long_factor": 1.2, "eps_ladder": [0.6, 0.5],
                       "rho_ladder": [0.2, 0.4], "max_levels": 2,
                       "thresholds": {"eps1": 2.0, "c0": 3.0}},
    }


def _put(cfg, path, value):
    """Set ``path`` in ``cfg`` to a copy of ``value`` where every enclosing
    value is an object.  The copy keeps later edits out of ODD_VALUES."""
    node = cfg
    for key in path[:-1]:
        node = node.get(key) if isinstance(node, dict) else None
    if isinstance(node, dict):
        node[path[-1]] = copy.deepcopy(value)


edits = st.one_of(
    st.tuples(st.sampled_from(CONFIG_PATHS), st.sampled_from(ODD_VALUES)),
    st.tuples(st.sampled_from(UNKNOWN_KEY_SECTIONS).map(lambda s: (*s, "unknown_key")),
              st.sampled_from(ODD_VALUES)),
)
# Measure-file edits: a sidecar key set to an odd value, or a row appended to
# the CSV (duplicate, off the grid, malformed, non-finite or negative weight).
SIDECAR_KEYS = ["dim", "h", "origin_offset", "extent", "alpha", "unknown_key"]
ODD_ROWS = ["3,0.1", "11,0.1", "-1,0.1", "99999999999999999999,0.1", "3", "3,0.1,0.2",
            "x,0.1", "3,abc", "4,nan", "4,inf", "4,-0.5", "4,1e308", ""]
file_edits = st.one_of(
    st.tuples(st.just("sidecar"), st.sampled_from(SIDECAR_KEYS), st.sampled_from(ODD_VALUES)),
    st.tuples(st.just("row"), st.sampled_from(ODD_ROWS)),
)
EXIT_CODES = {0, 2, 3, 4}


class TestExitCodeProperty:
    """Any config or measure file gets an exit code of the README contract:
    no exception escapes ``main``."""

    @pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[-1])
    def test_base_config_exits_0(self, tmp_path, command):
        cfg_path = write_config(tmp_path, tiny_config())
        assert main([*command, "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[-1])
    def test_mismatched_dimensions_exit_4(self, tmp_path, capsys, command):
        # A 2-d source against the 1-d target.  Every command refuses the pair
        # in its first solve; expansion's exact solve once failed inside with
        # an IndexError.
        cfg = tiny_config()
        cfg["source"]["grid"]["dim"] = 2
        cfg_path = write_config(tmp_path, cfg)
        assert main([*command, "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 4
        err = capsys.readouterr().err
        assert "source and target dimensions differ" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["onestep", "campanato"])
    def test_normalized_pair_passes_the_origin_check(self, tmp_path, command):
        # On 17-point grids the normalising dilation (gamma about 1.39) makes
        # the two spacings differ.  The improvement step reads each origin
        # density over three of its own grid's spacings, as the normalisation
        # does, so the pair just normalised passes its check.
        cfg = tiny_config()
        for side in ("source", "target"):
            cfg[side]["grid"]["n"] = 17
        cfg_path = write_config(tmp_path, cfg)
        argv = ["experiment", command, "--config", str(cfg_path), "--out", str(tmp_path / "o")]
        assert main(argv) == 0

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(command=st.sampled_from(COMMANDS), changes=st.lists(edits, min_size=1, max_size=3))
    def test_config(self, tmp_path_factory, command, changes):
        cfg = tiny_config()
        for path, value in changes:
            _put(cfg, path, value)
        tmp = tmp_path_factory.mktemp("cfg")
        path = write_config(tmp, cfg)
        assert main([*command, "--config", str(path), "--out", str(tmp / "o")]) in EXIT_CODES

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(changes=st.lists(file_edits, min_size=1, max_size=2))
    def test_measure_file(self, tmp_path_factory, changes):
        tmp = tmp_path_factory.mktemp("file")
        lam = line_measure(np.linspace(-1.0, 1.0, 11), np.full(11, 1.0 / 11), h=0.2)
        save_measure(lam, tmp / "lam.csv")
        for change in changes:
            if change[0] == "sidecar":
                _edit_sidecar(*change[1:])(tmp / "lam.csv")
            else:
                _edit_csv_line(None, change[1])(tmp / "lam.csv")
        cfg = write_config(tmp, {"source": {"file": str(tmp / "lam.csv")},
                                 "solver": {"epsilon": 0.5}})
        assert main(["solve", "--config", str(cfg), "--out", str(tmp / "o")]) in EXIT_CODES

    @pytest.mark.parametrize("path, value, message", [
        (("target", "density", "sigma"), 0, "density.sigma"),
        (("source", "grid", "dim"), 10**18, "dim must be 1 or 2"),
    ], ids=["sigma_zero", "dim_huge"])
    def test_escapes_found_exit_2(self, tmp_path, capsys, path, value, message):
        # Two inputs the property grammar turned up: a division by zero and a
        # MemoryError before any check.
        cfg = tiny_config()
        _put(cfg, path, value)
        cfg_path = write_config(tmp_path, cfg)
        assert main(["solve", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command, edits, code, message", [
        ("solve", {("target", "density", "sigma"): 1e308}, 2, "density parameters overflow"),
        ("solve", {("source", "density", "freq"): 1e308}, 2, "non-finite values"),
        ("solve", {("source", "grid", "hi"): 1e308}, 2, "squared distances overflow"),
        ("solve", {("source", "density"): {"kind": "uniform"}, ("source", "grid", "hi"): 1e308},
         2, "squared distances overflow"),
        ("softlemma", {("experiment", "R"): 1e308}, 4, "radius 1e+308 is out of range"),
        ("onestep", {("experiment", "R0"): 1e308}, 4, "radius 1e+308 is out of range"),
        ("softlemma", {("experiment", "R"): 1.5, ("experiment", "rho_ladder"): [0.2, 1e103]},
         4, "rho must be positive"),
    ], ids=["sigma", "freq", "hi", "hi_uniform", "softlemma_R", "onestep_R0", "rho"])
    def test_float_range_escapes_exit_with_message(self, tmp_path, capsys, command, edits,
                                                   code, message):
        # Values near 1e308 once overflowed Python floats or numpy arrays.
        cfg = tiny_config()
        for path, value in edits.items():
            _put(cfg, path, value)
        cfg_path = write_config(tmp_path, cfg)
        argv = ["solve"] if command == "solve" else ["experiment", command]
        assert main([*argv, "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == code
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
