"""Regularity machinery: harmonic fit, one-step, cascade, defect experiments."""

import numpy as np
import pytest

from eotlab import (
    Coupling,
    DomainError,
    GridMeasure,
    GridSpec,
    HashRegion,
    RegularityConfig,
    apply_to_coupling,
    campanato_iterate,
    diagonal_coupling,
    exact_ot,
    expansion_experiment,
    fit_harmonic_displacement,
    harmonic_fit,
    long_traj_experiment,
    make_measure,
    measure_from_density,
    monge_coupling,
    one_step,
    quasimin_defect,
    sinkhorn,
    soft_lemma_check,
    symmetric_grid,
)
from eotlab import regularity
from eotlab.errors import SmallnessError
from eotlab.regularity import _matrix_exp_symmetric
from conftest import line_measure, plane_measure


def plane_measure_with_indices(points, ws, h, alpha=0.5):
    """plane_measure plus each atom's flat grid index."""
    m = plane_measure(points, ws, h, alpha)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    k = np.round(pts / h).astype(int)
    kmin = np.array(
        [-int(m.spec.origin_offset[0]), -int(m.spec.origin_offset[1])]
    )
    flat = (k[:, 0] - kmin[0]) * m.spec.extent[1] + (k[:, 1] - kmin[1])
    return m, flat


def shear_map_coupling(t=0.5, b0=(0.125, 0.25), h=0.25, n=9):
    """Coupling along x -> x + b0 + S x with S = [[0, t], [t, 0]] (trace-free)."""
    spec = symmetric_grid(dim=2, n=n, lo=-1.0, hi=1.0)
    lam = measure_from_density(spec, lambda p: np.ones(p.shape[0]), alpha=0.5)
    s_mat = np.array([[0.0, t], [t, 0.0]])
    imgs = lam.points + np.asarray(b0) + lam.points @ s_mat.T
    mu, flat = plane_measure_with_indices(imgs, lam.weights, h=h / 2)
    pi = monge_coupling(lam, mu, flat)
    return pi, np.asarray(b0), s_mat


class TestHarmonicFit:
    def test_model_class_recovery_2d(self):
        pi, b0, s_mat = shear_map_coupling()
        fit = harmonic_fit(pi, fit_radius=5.0)
        np.testing.assert_allclose(fit.grad0, b0, atol=1e-10)
        np.testing.assert_allclose(fit.hess0, s_mat, atol=1e-10)
        assert fit.residual <= 1e-10
        assert abs(np.trace(fit.hess0)) <= 1e-10

    def test_diagonal_coupling_zero_polynomial(self, uniform_2d):
        fit = harmonic_fit(diagonal_coupling(uniform_2d), 1.0)
        np.testing.assert_allclose(fit.coeffs, 0.0, atol=1e-14)
        assert fit.residual == pytest.approx(0.0, abs=1e-20)

    def test_constant_shift_1d(self, uniform_1d):
        shift_cells = 3
        h = uniform_1d.spec.h
        mu = line_measure(
            uniform_1d.points[:, 0] + shift_cells * h, uniform_1d.weights, h=h
        )
        assignment = np.round(
            (uniform_1d.points[:, 0] + shift_cells * h) / h + mu.spec.origin_offset[0]
        ).astype(int)
        pi = monge_coupling(uniform_1d, mu, assignment)
        fit = harmonic_fit(pi, 1.0)
        assert fit.grad0[0] == pytest.approx(shift_cells * h, abs=1e-12)
        assert fit.hess0[0, 0] == 0.0

    def test_noisy_model_against_direct_normal_equations(self):
        rng = np.random.default_rng(21)
        n, sigma = 400, 0.01
        x = rng.uniform(-1, 1, size=(n, 2))
        b0 = np.array([0.03, -0.02])
        s_mat = np.array([[0.0, 0.04], [0.04, 0.0]])
        w = 0.5 + rng.random(n)
        y = x + b0 + x @ s_mat.T + sigma * rng.standard_normal((n, 2))
        fit = fit_harmonic_displacement(x, y, w)

        # Independent oracle: assemble and solve the normal equations directly.
        phi = np.zeros((n, 2, 4))
        phi[:, 0, 0] = 1.0
        phi[:, 1, 1] = 1.0
        phi[:, 0, 2] = 2 * x[:, 0]
        phi[:, 1, 2] = -2 * x[:, 1]
        phi[:, 0, 3] = x[:, 1]
        phi[:, 1, 3] = x[:, 0]
        design = phi.reshape(-1, 4) * np.sqrt(np.repeat(w, 2))[:, None]
        rhs = (y - x).reshape(-1) * np.sqrt(np.repeat(w, 2))
        coeffs, *_ = np.linalg.lstsq(design, rhs, rcond=None)
        np.testing.assert_allclose(fit.coeffs, coeffs, atol=1e-10)

        mass = float(np.sum(w))
        assert np.abs(fit.grad0 - b0).max() <= 3 * sigma / np.sqrt(mass) * 5
        assert fit.residual == pytest.approx(2 * sigma**2 * mass, rel=0.5)

    def test_2d_matches_fit_over_gathered_pairs(self, random_coupling_2d):
        # Reference: the pairwise fit on every pair of #_r, gathered with the
        # region's mask; the zero row and column lie inside #_0.5.
        pi = random_coupling_2d
        for r in (0.3, 0.5, 0.8):
            ii, jj = np.nonzero(HashRegion(r).mask(pi))
            ref = fit_harmonic_displacement(
                pi.source_points[ii], pi.target_points[jj], pi.mass[ii, jj]
            )
            fit = harmonic_fit(pi, r)
            assert not (fit.degenerate or fit.ridged)
            np.testing.assert_allclose(fit.coeffs, ref.coeffs, rtol=0, atol=1e-12)
            assert fit.residual == pytest.approx(ref.residual, rel=1e-12)

    def test_quadratic_terms_only_reduce_residual(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(-1, 1, size=(200, 2))
        y = x + rng.standard_normal((200, 2)) * 0.1
        w = np.ones(200)
        full = fit_harmonic_displacement(x, y, w)
        design = np.zeros((400, 2))
        design[0::2, 0] = 1.0
        design[1::2, 1] = 1.0
        rhs = (y - x).reshape(-1)
        coeffs, *_ = np.linalg.lstsq(design, rhs, rcond=None)
        linear_resid = float(np.sum((rhs - design @ coeffs) ** 2))
        assert full.residual <= linear_resid + 1e-12

    def test_residual_bounded_by_zero_model(self):
        pi, *_ = shear_map_coupling()
        fit = harmonic_fit(pi, 5.0)
        zero_model = float(
            np.sum(pi.cost_matrix * pi.mass, where=pi.mass > 0)
        )
        assert fit.residual <= zero_model + 1e-12


class TestMatrixExponential:
    def test_trace_free_gives_unit_determinant(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            a, b = rng.uniform(-0.5, 0.5, size=2)
            s = np.array([[a, b], [b, -a]])
            m = _matrix_exp_symmetric(-s / 2)
            assert abs(np.linalg.det(m) - 1.0) <= 1e-8
            np.testing.assert_allclose(m, m.T, atol=1e-14)
            assert np.linalg.eigvalsh(m).min() > 0


def uniform_unit_density(n=81, lo=-1.0, hi=1.0):
    spec = symmetric_grid(dim=1, n=n, lo=lo, hi=hi)
    return measure_from_density(spec, lambda p: np.ones(p.shape[0]), alpha=0.5)


class TestOneStep:
    def test_diagonal_plan_is_fixed_point(self):
        lam = uniform_unit_density()
        pi = diagonal_coupling(lam)
        out = one_step(pi, lam, lam, R=0.5, theta=0.5, epsilon=0.01)
        assert out.scaling_hat.b[0] == pytest.approx(0.0, abs=1e-12)
        assert out.scaling_hat.A[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert out.scaling_hat.gamma == pytest.approx(1.0, abs=1e-10)
        assert out.E_after == pytest.approx(0.0, abs=1e-14)

    def test_constant_shift_recovered_and_removed(self):
        lam = uniform_unit_density(n=161)
        h = lam.spec.h
        shift = 4 * h  # 0.05 on this grid
        mu = line_measure(lam.points[:, 0] + shift, lam.weights, h=h)
        assignment = np.round(
            (lam.points[:, 0] + shift) / h + mu.spec.origin_offset[0]
        ).astype(int)
        pi = monge_coupling(lam, mu, assignment)
        out = one_step(pi, lam, mu, R=0.5, theta=0.5, epsilon=0.0)
        assert abs(out.scaling_hat.b[0] - shift) <= 1e-3
        assert abs(out.fit.hess0[0, 0]) <= 1e-12
        assert out.det_A == pytest.approx(1.0, abs=1e-10)
        assert out.E_after <= 1e-12
        assert out.E_after <= out.E_before

    def test_rejects_unnormalized_marginals(self):
        lam = uniform_unit_density().scaled(1.5)
        pi = diagonal_coupling(lam)
        with pytest.raises(DomainError, match="not normalized"):
            one_step(pi, lam, lam, R=0.5, theta=0.5)

    def test_smallness_violation_raises(self):
        lam = uniform_unit_density()
        pi = diagonal_coupling(lam)
        with pytest.raises(SmallnessError):
            one_step(pi, lam, lam, R=0.5, theta=0.5, epsilon=0.2)

    def test_theta_range_enforced(self):
        lam = uniform_unit_density()
        pi = diagonal_coupling(lam)
        with pytest.raises(DomainError):
            one_step(pi, lam, lam, R=0.5, theta=1.0)


def curved_plan(n=128, epsilon=0.05):
    """Sinkhorn plan of the uniform source and the shifted_profile target, with
    the two marginals."""
    grid = {"dim": 1, "n": n, "lo": -1.0, "hi": 1.0}
    profile = {"kind": "shifted_profile", "c0": 0.02, "c1": 0.42, "exponent": 1.0,
               "window_power": 2.0}
    lam, mu = (make_measure({"grid": grid, "alpha": 0.5, "normalize": True, "density": d})
               for d in ({"kind": "uniform"}, profile))
    return sinkhorn(lam, mu, epsilon, tol=1e-8).plan, lam, mu


# Thresholds loose enough for the cascade on curved_plan() to take three steps.
LOOSE_CONFIG = RegularityConfig(eps1=0.5, delta=0.005, c0=3.0)


class TestCampanato:
    def test_each_level_measured_once(self, monkeypatch):
        pi, lam, mu = curved_plan()
        calls = {"data_term": 0, "local_energy": 0}
        for name in calls:
            def counted(*args, _name=name, _f=getattr(regularity, name), **kwargs):
                calls[_name] += 1
                return _f(*args, **kwargs)

            monkeypatch.setattr(regularity, name, counted)
        trace = campanato_iterate(
            pi, lam, mu, R0=0.8, theta=0.5, epsilon=0.05, config=LOOSE_CONFIG
        )
        assert sum(lvl.step_scaling is not None for lvl in trace.levels) == 3
        assert calls == {"data_term": len(trace.levels), "local_energy": len(trace.levels)}

    def test_one_step_reproduces_first_level(self):
        pi, lam, mu = curved_plan()
        trace = campanato_iterate(
            pi, lam, mu, R0=0.8, theta=0.5, epsilon=0.05, config=LOOSE_CONFIG
        )
        pi_n = apply_to_coupling(trace.base_scaling, pi)
        out = one_step(
            pi_n, pi_n.source, pi_n.target, R=0.8, theta=0.5, epsilon=0.05, config=LOOSE_CONFIG
        )
        first, second = trace.levels[:2]
        assert (out.E_before, out.D_before) == (first.E, first.D)
        assert (out.E_after, out.D_after) == (second.E, second.D)
        assert np.array_equal(out.scaling_hat.A, first.step_scaling.A)
        assert np.array_equal(out.scaling_hat.b, first.step_scaling.b)
        assert out.scaling_hat.gamma == first.step_scaling.gamma

    def test_diagonal_trace_is_flat(self):
        lam = uniform_unit_density(n=65)
        pi = diagonal_coupling(lam)
        trace = campanato_iterate(
            pi, lam, lam, R0=1.0, theta=0.5, epsilon=0.02, max_levels=12
        )
        assert trace.stop_reason == "reached_epsilon_scale"
        # r_k = theta^k R0 until r <= c0 * eps = 0.1: levels at 1, .5, .25,
        # .125, .0625.
        np.testing.assert_allclose(trace.radii(), [1.0, 0.5, 0.25, 0.125, 0.0625])
        assert all(e == pytest.approx(0.0, abs=1e-13) for e in trace.energies())
        for lvl in trace.levels:
            np.testing.assert_allclose(lvl.composed.A, np.eye(1), atol=1e-10)
            np.testing.assert_allclose(lvl.composed.b, 0.0, atol=1e-10)
            assert lvl.composed.gamma == pytest.approx(1.0, abs=1e-10)

    def test_theta_one_rejected(self):
        lam = uniform_unit_density(n=33)
        pi = diagonal_coupling(lam)
        with pytest.raises(DomainError):
            campanato_iterate(pi, lam, lam, R0=1.0, theta=1.0, epsilon=0.02)

    def test_composed_scaling_equals_fold_of_steps(self):
        from eotlab import compose

        lam = uniform_unit_density(n=65)
        pi = diagonal_coupling(lam)
        trace = campanato_iterate(
            pi, lam, lam, R0=1.0, theta=0.5, epsilon=0.02, max_levels=12
        )
        running = trace.base_scaling
        for lvl in trace.levels:
            np.testing.assert_allclose(lvl.composed.A, running.A, atol=1e-12)
            np.testing.assert_allclose(lvl.composed.b, running.b, atol=1e-12)
            assert lvl.composed.gamma == pytest.approx(running.gamma, abs=1e-12)
            if lvl.step_scaling is not None:
                running = compose(lvl.step_scaling, running, windows=None)


class TestQuasiminDefect:
    def test_diagonal_plan_zero_defect(self):
        lam = uniform_unit_density(n=65)
        pi = diagonal_coupling(lam)
        report = quasimin_defect(pi, lam, lam, R=0.4)
        assert report.lhs == 0.0
        assert report.competitor_cost == pytest.approx(0.0, abs=1e-15)
        assert report.defect == pytest.approx(0.0, abs=1e-15)

    def test_restriction_of_exact_plan_is_optimal(self):
        # Marginals supported inside B_{0.3}; the exact plan restricted to the
        # competitor region at R=0.5 is the plan itself, so the defect
        # vanishes up to solver tolerance.
        spec = symmetric_grid(dim=1, n=129, lo=-1.0, hi=1.0)
        pts = spec.points[:, 0]
        lam_w = np.where(np.abs(pts) <= 0.3, 1.0 + 0.3 * np.sin(5 * pts), 0.0)
        mu_w = np.where(np.abs(pts) <= 0.3, 1.0 + 0.3 * np.cos(4 * pts), 0.0)
        lam = GridMeasure(spec=spec, weights=lam_w / lam_w.sum(), alpha=0.5)
        mu = GridMeasure(spec=spec, weights=mu_w / mu_w.sum(), alpha=0.5)
        plan = exact_ot(lam, mu).plan
        report = quasimin_defect(plan, lam, mu, R=0.5)
        scale = max(report.lhs, 1e-12)
        assert abs(report.defect) <= 1e-6 * scale + 1e-12

    def test_degenerate_region_flagged(self):
        lam = uniform_unit_density(n=33)
        mass = np.zeros((33, 33))
        mass[0, 0] = 1.0  # atom far from the origin
        far = Coupling(
            source=GridMeasure(lam.spec, np.eye(33)[0], 0.5),
            target=GridMeasure(lam.spec, np.eye(33)[0], 0.5),
            mass=mass,
        )
        report = quasimin_defect(far, far.source, far.target, R=0.05)
        assert report.degenerate

    def test_2d_matches_pairwise_loop(self, random_coupling_2d, monkeypatch):
        pi = random_coupling_2d
        R, lam_factor, eps = 0.3, 2.0, 0.1
        solved = []

        def spy(a, b):
            solved.append((a.weights, b.weights))
            return exact_ot(a, b)

        monkeypatch.setattr(regularity, "exact_ot", spy)
        report = quasimin_defect(pi, pi.source, pi.target, R, lam_factor, epsilon=eps)
        n, m = pi.mass.shape
        lhs = 0.0
        rows, cols = np.zeros(n), np.zeros(m)
        for i in range(n):
            for j in range(m):
                nx = np.linalg.norm(pi.source_points[i])
                ny = np.linalg.norm(pi.target_points[j])
                if nx <= R or ny <= R:
                    lhs += np.sum((pi.source_points[i] - pi.target_points[j]) ** 2) * pi.mass[i, j]
                if (nx <= R and ny <= lam_factor * R) or (nx <= lam_factor * R and ny <= R):
                    rows[i] += pi.mass[i, j]
                    cols[j] += pi.mass[i, j]
        mass_pr = rows.sum()
        assert report.lhs == pytest.approx(lhs, rel=1e-12)
        ((lam_bar, mu_bar),) = solved
        np.testing.assert_allclose(lam_bar, rows / mass_pr, rtol=1e-12, atol=1e-16)
        np.testing.assert_allclose(mu_bar, cols / mass_pr, rtol=1e-12, atol=1e-16)

    def test_lambda_factor_must_exceed_one(self):
        lam = uniform_unit_density(n=33)
        pi = diagonal_coupling(lam)
        with pytest.raises(DomainError):
            quasimin_defect(pi, lam, lam, R=0.4, lam_factor=1.0)


class TestLadderExperiments:
    def test_long_traj_requires_representable_threshold(self):
        lam = uniform_unit_density(n=33)
        with pytest.raises(DomainError):
            long_traj_experiment(lam, lam, R=0.5, eps_ladder=[0.3])

    def test_long_traj_single_point_ladder(self):
        spec = symmetric_grid(dim=1, n=33, lo=-1.0, hi=1.0)
        lam = measure_from_density(
            spec, lambda p: np.ones(p.shape[0]), alpha=0.5, normalize=True
        )
        out = long_traj_experiment(lam, lam, R=0.1, eps_ladder=[0.3])
        assert len(out["rows"]) == 1
        assert out["mass_slope"] is None

    def test_long_traj_ratios_shrink_with_epsilon(self):
        spec = symmetric_grid(dim=1, n=49, lo=-1.0, hi=1.0)
        lam = measure_from_density(
            spec, lambda p: np.ones(p.shape[0]), alpha=0.5, normalize=True
        )
        out = long_traj_experiment(lam, lam, R=0.1, eps_ladder=[0.35, 0.25])
        rows = out["rows"]
        assert rows[0]["mass_ratio"] > rows[1]["mass_ratio"] > 0

    def test_expansion_single_atom(self):
        spec = GridSpec(dim=1, h=1.0, extent=(2,), origin_offset=(0.0,))
        lam = GridMeasure(spec=spec, weights=np.array([1.0, 0.0]), alpha=0.5)
        out = expansion_experiment(lam, lam, eps_ladder=[0.5, 0.25])
        assert out["ot"] == pytest.approx(0.0, abs=1e-15)
        for row in out["rows"]:
            assert row["ot_eps"] == pytest.approx(0.0, abs=1e-10)

    def test_expansion_flags_under_resolved(self):
        spec = symmetric_grid(dim=1, n=17, lo=-1.0, hi=1.0)  # h = 0.125
        lam = measure_from_density(
            spec, lambda p: np.ones(p.shape[0]), alpha=0.5, normalize=True
        )
        out = expansion_experiment(lam, lam, eps_ladder=[0.5, 0.2])
        assert not out["rows"][0]["under_resolved"]
        assert out["rows"][1]["under_resolved"]

    def test_expansion_invariant_under_mass_rescaling(self):
        spec = symmetric_grid(dim=1, n=33, lo=-1.0, hi=1.0)
        lam = measure_from_density(
            spec, lambda p: 1.0 + 0.1 * np.cos(np.pi * p[:, 0]), alpha=0.5
        )
        base = expansion_experiment(lam, lam, eps_ladder=[0.6, 0.45])
        scaled = expansion_experiment(
            lam.scaled(3.0), lam.scaled(3.0), eps_ladder=[0.6, 0.45]
        )
        for a, b in zip(base["rows"], scaled["rows"]):
            assert b["ot_eps"] == pytest.approx(a["ot_eps"], abs=1e-10)
            assert b["remainder"] == pytest.approx(a["remainder"], abs=1e-9)

    def test_soft_lemma_diagonal_and_window(self):
        lam = uniform_unit_density(n=65)
        pi = diagonal_coupling(lam)
        out = soft_lemma_check(pi, R=1.5, rho_ladder=[0.1, 0.5, 10.0], delta_r=0.2)
        for row in out["rows"]:
            assert row["mass"] == 0.0
        assert out["rows"][2]["bound"] < out["rows"][0]["bound"]

    def test_soft_lemma_requires_inner_region(self):
        lam = uniform_unit_density(n=33)
        pi = diagonal_coupling(lam)
        with pytest.raises(DomainError):
            soft_lemma_check(pi, R=0.9, rho_ladder=[0.1], delta_r=0.1)

    def test_soft_lemma_fitted_constant_bounded_on_entropic_plan(self):
        # The measured tail mass stays below the power-law shape at every
        # ladder point and at both resolutions; for an entropic plan the
        # fitted constant then decays (Gaussian tails beat the power law).
        from eotlab import sinkhorn

        for n in (49, 97):
            spec = symmetric_grid(dim=1, n=n, lo=-1.0, hi=1.0)
            lam = measure_from_density(
                spec, lambda p: np.ones(p.shape[0]), alpha=0.5, normalize=True
            )
            res = sinkhorn(lam, lam, epsilon=0.2, tol=1e-10)
            report = quasimin_defect(res.plan, lam, lam, R=0.6, epsilon=0.2)
            out = soft_lemma_check(
                res.plan, R=1.5, rho_ladder=[0.3, 0.45, 0.6],
                delta_r=max(report.defect, 1e-12),
            )
            consts = [row["fitted_const"] for row in out["rows"] if row["mass"] > 0]
            assert consts, "ladder produced no populated rows"
            assert max(consts) <= 1.0
            masses = [row["mass"] for row in out["rows"]]
            assert all(a >= b for a, b in zip(masses, masses[1:]))

    def test_ladder_parallelism_is_deterministic(self):
        spec = symmetric_grid(dim=1, n=33, lo=-1.0, hi=1.0)
        lam = measure_from_density(
            spec, lambda p: np.ones(p.shape[0]), alpha=0.5, normalize=True
        )
        serial = long_traj_experiment(lam, lam, R=0.1, eps_ladder=[0.4, 0.3],
                                      max_workers=1)
        threaded = long_traj_experiment(lam, lam, R=0.1, eps_ladder=[0.4, 0.3],
                                        max_workers=4)
        for a, b in zip(serial["rows"], threaded["rows"]):
            assert a == b
