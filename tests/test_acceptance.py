"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
The full suite solves several small-epsilon transport problems and takes
about 5 seconds on a 2-core x86 machine.
"""

import itertools
import json

import numpy as np
import pytest

from eotlab import (
    GridMeasure,
    GridSpec,
    Scaling,
    affine_fit,
    apply_to_coupling,
    check_marginals,
    compose,
    data_term,
    diagonal_coupling,
    entropic_cost,
    exact_ot,
    expansion_experiment,
    gibbs_identity_check,
    harmonic_fit,
    local_energy,
    long_traj_experiment,
    measure_from_density,
    monge_coupling,
    quasimin_defect,
    sinkhorn,
    symmetric_grid,
    transform_source_atoms,
    transform_target_atoms,
)
from eotlab.grids import DENSITY_KINDS
from eotlab.regularity import RegularityConfig, campanato_iterate
from conftest import line_measure, plane_measure


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"{criterion}: {detail}"


def perturbed_uniform(n, amplitude=0.1, alpha=0.5):
    spec = symmetric_grid(dim=1, n=n, lo=-1.0, hi=1.0)
    return measure_from_density(
        spec,
        lambda p: 1.0 + amplitude * np.cos(np.pi * p[:, 0]),
        alpha=alpha,
        normalize=True,
    )


def curved_pair(n, c0=0.02, c1=0.42, alpha=0.5):
    """Uniform source and its image under a smooth curvature displacement."""
    spec = symmetric_grid(dim=1, n=n, lo=-1.0, hi=1.0)
    lam = measure_from_density(
        spec, lambda p: np.ones(p.shape[0]), alpha=alpha, normalize=True
    )
    fn = DENSITY_KINDS["shifted_profile"]
    mu = measure_from_density(
        spec,
        lambda p: fn(p, {"c0": c0, "c1": c1, "exponent": 1.0, "window_power": 2.0}),
        alpha=alpha,
        normalize=True,
    )
    return lam, mu


# ---------------------------------------------------------------------------
# Criterion 1: exact solver against the permutation oracle; duality gaps
# ---------------------------------------------------------------------------


class TestCriterion1ExactSolver:
    def test_solver_correctness(self):
        rng = np.random.default_rng(2024)
        worst_perm_gap = 0.0
        for d, n_atoms in itertools.product((1, 2), (2, 3, 4)):
            for _ in range(3):
                if d == 1:
                    xs = rng.choice(np.arange(-8, 9), size=n_atoms, replace=False)[:, None]
                    ys = rng.choice(np.arange(-8, 9), size=n_atoms, replace=False)[:, None]
                else:
                    fx = rng.choice(81, size=n_atoms, replace=False)
                    fy = rng.choice(81, size=n_atoms, replace=False)
                    xs = np.stack([fx // 9 - 4, fx % 9 - 4], axis=1)
                    ys = np.stack([fy // 9 - 4, fy % 9 - 4], axis=1)
                xs = xs * 0.25
                ys = ys * 0.25
                w = np.full(n_atoms, 1.0 / n_atoms)
                lam = line_measure(xs[:, 0], w, 0.25) if d == 1 else plane_measure(xs, w, 0.25)
                mu = line_measure(ys[:, 0], w, 0.25) if d == 1 else plane_measure(ys, w, 0.25)
                res = exact_ot(lam, mu)
                oracle = min(
                    sum(np.sum((xs[i] - ys[p[i]]) ** 2) for i in range(n_atoms))
                    / n_atoms
                    for p in itertools.permutations(range(n_atoms))
                )
                worst_perm_gap = max(worst_perm_gap, abs(res.cost - oracle))

        worst_gap = 0.0
        worst_viol = 0.0
        for d in (1, 2):
            for trial in range(3):
                if d == 1:
                    xs = np.arange(-32, 32) * 0.03125
                    wl = 0.2 + rng.random(64)
                    wm = 0.2 + rng.random(64)
                    wm *= wl.sum() / wm.sum()
                    lam = line_measure(xs, wl, 0.03125)
                    mu = line_measure(xs, wm, 0.03125)
                else:
                    spec = symmetric_grid(dim=2, n=8, lo=-1.0, hi=1.0)
                    wl = 0.2 + rng.random(64)
                    wm = 0.2 + rng.random(64)
                    wm *= wl.sum() / wm.sum()
                    lam = GridMeasure(spec=spec, weights=wl, alpha=0.5)
                    mu = GridMeasure(spec=spec, weights=wm, alpha=0.5)
                res = exact_ot(lam, mu)
                worst_gap = max(worst_gap, res.duality_gap)
                worst_viol = max(worst_viol, res.feasibility_violation)

        ok = worst_perm_gap <= 1e-12 and worst_gap <= 1e-9 and worst_viol <= 1e-9
        report(
            "criterion 1 (exact solver)",
            ok,
            f"permutation gap {worst_perm_gap:.2e} (tol 1e-12), duality gap "
            f"{worst_gap:.2e}, feasibility violation {worst_viol:.2e} (tol 1e-9)",
        )


# ---------------------------------------------------------------------------
# Criteria 2 and 3: Sinkhorn marginals, scan oracle, Gibbs identity
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def sinkhorn_ladder_256():
    lam = perturbed_uniform(256)
    return {
        eps: sinkhorn(lam, lam, eps, tol=1e-9) for eps in (0.05, 0.1, 0.2)
    }


class TestCriterion2Sinkhorn:
    def test_marginal_error_and_scan_oracle(self, sinkhorn_ladder_256):
        worst_err = max(res.marg_err for res in sinkhorn_ladder_256.values())
        all_converged = all(res.converged for res in sinkhorn_ladder_256.values())

        # Two-atom instance: 1-parameter brute-force scan of the objective.
        from scipy.optimize import minimize_scalar

        spec = GridSpec(dim=1, h=1.0, extent=(2,), origin_offset=(0.0,))
        lam2 = GridMeasure(spec=spec, weights=np.array([0.5, 0.5]), alpha=0.5)
        eps = 0.5
        res2 = sinkhorn(lam2, lam2, eps, tol=1e-12)

        def objective(a):
            entries = np.array([a, 0.5 - a, 0.5 - a, a])
            costs = np.array([0.0, 1.0, 1.0, 0.0])
            mask = entries > 0
            return float(
                np.sum(costs * entries)
                + eps**2 * np.sum(entries[mask] * np.log(4 * entries[mask]))
            )

        grid = np.linspace(1e-9, 0.5 - 1e-9, 20_001)
        a0 = grid[int(np.argmin([objective(a) for a in grid]))]
        scan = minimize_scalar(
            objective,
            bounds=(max(a0 - 1e-3, 1e-12), min(a0 + 1e-3, 0.5 - 1e-12)),
            method="bounded",
            options={"xatol": 1e-14},
        )
        scan_gap = abs(entropic_cost(res2) - scan.fun)

        ok = worst_err <= 1e-9 and all_converged and scan_gap <= 1e-6
        report(
            "criterion 2 (sinkhorn)",
            ok,
            f"max marginal TV error {worst_err:.2e} (tol 1e-9), two-atom scan "
            f"gap {scan_gap:.2e} (tol 1e-6)",
        )


class TestCriterion3GibbsIdentity:
    def test_cyclical_monotonicity_identity(self, sinkhorn_ladder_256):
        worst = max(
            gibbs_identity_check(res, n_samples=10_000, seed=11)
            for res in sinkhorn_ladder_256.values()
        )
        report(
            "criterion 3 (Gibbs identity)",
            worst <= 1e-6,
            f"max relative log-ratio error {worst:.2e} over 10^4 quadruples "
            "(tol 1e-6)",
        )


# ---------------------------------------------------------------------------
# Criterion 4: entropic-cost expansion slope
# ---------------------------------------------------------------------------


class TestCriterion4Expansion:
    def test_expansion_slope_and_remainder(self):
        lam = perturbed_uniform(512)
        out = expansion_experiment(lam, lam, [0.3, 0.2, 0.12], {"tol": 1e-9})
        slope = out["slope"][0]
        remainders = [abs(r["remainder"]) for r in out["rows"]]
        slope_ok = abs(slope - 0.5) <= 0.15 * 0.5
        remainder_ok = max(remainders) <= 10 * min(remainders)
        report(
            "criterion 4 (expansion)",
            slope_ok and remainder_ok,
            f"slope {slope:.4f} (target 0.5 within 15%), remainder max/min "
            f"{max(remainders) / min(remainders):.2f} (tol 10)",
        )


# ---------------------------------------------------------------------------
# Criterion 5: long-trajectory decay
# ---------------------------------------------------------------------------


class TestCriterion5LongTrajectories:
    def test_exponential_decay(self):
        lam = perturbed_uniform(256)
        out = long_traj_experiment(lam, lam, R=0.1, eps_ladder=[0.25, 0.2, 0.15],
                                   solver_opts={"tol": 1e-9})
        mass_ratios = [r["mass_ratio"] for r in out["rows"]]
        energy_ratios = [r["energy_ratio"] for r in out["rows"]]
        strict_mass = all(a > b for a, b in zip(mass_ratios, mass_ratios[1:]))
        strict_energy = all(a > b for a, b in zip(energy_ratios, energy_ratios[1:]))
        slope = out["mass_slope"][0]
        ok = strict_mass and strict_energy and slope < 0
        report(
            "criterion 5 (long trajectories)",
            ok,
            f"mass ratios {['%.2e' % v for v in mass_ratios]} strictly "
            f"decreasing, log-slope {slope:.1f} < 0",
        )


# ---------------------------------------------------------------------------
# Criterion 6: quasi-minimality defect
# ---------------------------------------------------------------------------


class TestCriterion6QuasiMinimality:
    def test_defect_bounded_across_ladder(self, sinkhorn_ladder_256):
        lam = perturbed_uniform(256)
        ratios = []
        for eps, res in sinkhorn_ladder_256.items():
            rep = quasimin_defect(res.plan, lam, lam, R=0.3, epsilon=eps)
            ratios.append(rep.defect / rep.eps2_mass)
        spread = max(ratios) / min(ratios)

        # Restriction-optimality sanity: the exact plan of marginals supported
        # inside B_{0.3} has vanishing defect at R = 0.5.
        spec = symmetric_grid(dim=1, n=129, lo=-1.0, hi=1.0)
        pts = spec.points[:, 0]
        lam_w = np.where(np.abs(pts) <= 0.3, 1.0 + 0.3 * np.sin(5 * pts), 0.0)
        mu_w = np.where(np.abs(pts) <= 0.3, 1.0 + 0.3 * np.cos(4 * pts), 0.0)
        lam_c = GridMeasure(spec=spec, weights=lam_w / lam_w.sum(), alpha=0.5)
        mu_c = GridMeasure(spec=spec, weights=mu_w / mu_w.sum(), alpha=0.5)
        plan = exact_ot(lam_c, mu_c).plan
        rep = quasimin_defect(plan, lam_c, mu_c, R=0.5)
        energy_scale = max(rep.lhs, 1e-12)
        restriction_ok = abs(rep.defect) <= 1e-6 * energy_scale

        ok = all(r > 0 for r in ratios) and spread <= 10 and restriction_ok
        report(
            "criterion 6 (quasi-minimality)",
            ok,
            f"normalized defect spread {spread:.2f} (tol 10), exact-plan "
            f"defect {rep.defect:.2e} <= 1e-6 * {energy_scale:.2e}",
        )


# ---------------------------------------------------------------------------
# Criterion 7: harmonic fit recovery and one-step contraction
# ---------------------------------------------------------------------------


def shear_coupling(t=0.5, b0=(0.125, 0.25)):
    spec = symmetric_grid(dim=2, n=9, lo=-1.0, hi=1.0)
    lam = measure_from_density(spec, lambda p: np.ones(p.shape[0]), alpha=0.5)
    s_mat = np.array([[0.0, t], [t, 0.0]])
    imgs = lam.points + np.asarray(b0) + lam.points @ s_mat.T
    h2 = spec.h / 2
    mu = plane_measure(imgs, lam.weights, h=h2)
    k = np.round(imgs / h2).astype(int)
    kmin = np.array([-int(mu.spec.origin_offset[0]), -int(mu.spec.origin_offset[1])])
    flat = (k[:, 0] - kmin[0]) * mu.spec.extent[1] + (k[:, 1] - kmin[1])
    return monge_coupling(lam, mu, flat), np.asarray(b0), s_mat


CONTRACTION_CONFIG = RegularityConfig(eps1=0.35, delta=0.005)
CONTRACTION_EPS = 0.0105
CONTRACTION_R0 = 0.8


@pytest.fixture(scope="module")
def contraction_traces():
    traces = {}
    for n in (256, 512):
        lam, mu = curved_pair(n)
        res = sinkhorn(lam, mu, CONTRACTION_EPS, tol=1e-6)
        traces[n] = campanato_iterate(
            res.plan, lam, mu, CONTRACTION_R0, 0.5, CONTRACTION_EPS,
            max_levels=3, config=CONTRACTION_CONFIG,
        )
    return traces


class TestCriterion7OneStep:
    def test_model_class_recovery(self):
        pi, b0, s_mat = shear_coupling()
        fit = harmonic_fit(pi, 5.0)
        b_err = float(np.abs(fit.grad0 - b0).max())
        s_err = float(np.abs(fit.hess0 - s_mat).max())
        from eotlab.regularity import _matrix_exp_symmetric

        det_gap = abs(
            np.linalg.det(_matrix_exp_symmetric(-fit.hess0 / 2.0)) - 1.0
        )
        ok = b_err <= 1e-3 and s_err <= 1e-3 and det_gap <= 1e-8
        report(
            "criterion 7a (model-class recovery)",
            ok,
            f"b error {b_err:.2e}, S error {s_err:.2e} (tol 1e-3), "
            f"|det - 1| {det_gap:.2e} (tol 1e-8)",
        )

    def test_energy_contracts_on_first_two_levels(self, contraction_traces):
        details = []
        ok = True
        for n, trace in contraction_traces.items():
            es = trace.energies()
            good = len(es) >= 3 and es[0] > es[1] > es[2]
            ok = ok and good
            details.append(f"n={n}: E = {['%.5f' % e for e in es[:3]]}")
        report(
            "criterion 7b (one-step contraction)",
            ok,
            "; ".join(details) + " (strictly decreasing over two levels)",
        )


# ---------------------------------------------------------------------------
# Criterion 8: affine-fit defect decay down toward the entropic scale
# ---------------------------------------------------------------------------


class TestCriterion8CampanatoDecay:
    def test_defect_profile_flat_plus_entropic(self):
        R0 = 1.0
        eps = R0 / 50.0
        radii = [R0, R0 / 2, R0 / 4, R0 / 8]
        cs = {}
        shapes = {}
        for n in (256, 512):
            lam, mu = curved_pair(n)
            res = sinkhorn(lam, mu, eps, tol=1e-8)
            e0 = local_energy(res.plan, R0)
            d0 = data_term(lam, mu, R0).D
            defects = [affine_fit(res.plan, r).defect for r in radii]
            bounds = [(e0 + d0) + eps**2 / r**2 for r in radii]
            cs[n] = max(df / bd for df, bd in zip(defects, bounds))
            # Growth toward the smallest radius must not outpace eps^2/r^2.
            shapes[n] = (defects[-1] / (eps**2 / radii[-1] ** 2)) / (
                defects[-2] / (eps**2 / radii[-2] ** 2)
            )
        stability = max(cs.values()) / min(cs.values())
        ok = stability <= 2.0 and all(s <= 2.0 for s in shapes.values())
        fitted = {n: round(c, 4) for n, c in cs.items()}
        growth = {n: round(s, 3) for n, s in shapes.items()}
        report(
            "criterion 8 (campanato decay)",
            ok,
            f"fitted C per resolution {fitted}, stability {stability:.3f} "
            f"(tol 2), sub-entropic growth factors {growth} (tol 2)",
        )


# ---------------------------------------------------------------------------
# Criterion 9: algebraic invariants and determinism
# ---------------------------------------------------------------------------


class TestCriterion9Invariants:
    def test_pushforward_identity_100_pairs(self):
        rng = np.random.default_rng(99)
        pts = rng.uniform(-1.0, 1.0, size=(5, 2))
        worst = 0.0
        for k in range(100):
            d = 1 if k % 3 == 0 else 2
            p = pts[:, :d]

            def draw():
                if d == 1:
                    a = np.array([[rng.uniform(0.7, 1.4)]])
                else:
                    q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
                    a = (q * rng.uniform(0.7, 1.4, size=2)) @ q.T
                return Scaling(
                    A=a,
                    b=rng.uniform(-0.3, 0.3, size=d),
                    gamma=rng.uniform(0.7, 1.4),
                    kappa=rng.uniform(0.5, 2.0),
                )

            s1, s2 = draw(), draw()
            comp = compose(s2, s1)
            seq_x = transform_source_atoms(s2, transform_source_atoms(s1, p))
            seq_y = transform_target_atoms(s2, transform_target_atoms(s1, p))
            worst = max(
                worst,
                float(np.abs(transform_source_atoms(comp, p) - seq_x).max()),
                float(np.abs(transform_target_atoms(comp, p) - seq_y).max()),
            )
        report(
            "criterion 9a (composition identity)",
            worst <= 1e-10,
            f"max atom deviation {worst:.2e} over 100 random pairs (tol 1e-10)",
        )

    def test_transform_marginal_consistency(self):
        rng = np.random.default_rng(5)
        xs = np.arange(-8, 9) * 0.125
        mass = rng.random((xs.size, xs.size))
        lam = line_measure(xs, mass.sum(axis=1), h=0.125)
        mu = line_measure(xs, mass.sum(axis=0), h=0.125)
        from eotlab import Coupling

        pi = Coupling(source=lam, target=mu, mass=mass)
        s = Scaling(A=np.array([[1.2]]), b=np.array([0.125]), gamma=0.9, kappa=1.5)
        out = apply_to_coupling(s, pi)
        rep = check_marginals(out, tol=1e-8)
        report(
            "criterion 9b (transform marginals)",
            rep.ok,
            f"row error {rep.max_row_err:.2e}, col error {rep.max_col_err:.2e} "
            "(tol 1e-8)",
        )

    def test_experiment_rerun_determinism(self, tmp_path):
        from eotlab.cli import main

        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "seed": 12,
            "source": {
                "grid": {"dim": 1, "n": 33, "lo": -1.0, "hi": 1.0},
                "density": {"kind": "perturbed_uniform", "amplitude": 0.1},
                "alpha": 0.5,
                "normalize": True,
            },
            "experiment": {"eps_ladder": [0.6, 0.45]},
            "solver": {"epsilon": 0.45},
        }))
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            code = main(["experiment", "expansion", "--config", str(cfg_path),
                         "--out", str(out)])
            assert code == 0
        identical = all(
            (out1 / name).read_bytes() == (out2 / name).read_bytes()
            for name in ("report.csv", "trace.json")
        )
        m1 = json.loads((out1 / "manifest.json").read_text())
        m2 = json.loads((out2 / "manifest.json").read_text())
        m1.pop("created_utc"), m2.pop("created_utc")
        report(
            "criterion 9c (determinism)",
            identical and m1 == m2,
            "rerun outputs byte-identical (manifest modulo timestamp)",
        )
