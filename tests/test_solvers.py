"""Solvers: log-domain Sinkhorn, exact quadratic transport, Gibbs identity."""

import itertools
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog, minimize_scalar
from scipy.special import logsumexp

from eotlab import (
    CertificateError,
    DomainError,
    GridMeasure,
    GridSpec,
    MassMismatchError,
    entropic_cost,
    exact_ot,
    gibbs_identity_check,
    make_measure,
    measure_from_density,
    sinkhorn,
    solvers,
    symmetric_grid,
)
from eotlab.solvers import (CERT_RTOL, _c_transform_1d, _certify, _epsilon_ladder,
                            _exact_ot_lp, _exact_ot_monotone)
from conftest import line_measure, plane_measure


def two_atom_measure():
    spec = GridSpec(dim=1, h=1.0, extent=(2,), origin_offset=(0.0,))
    return GridMeasure(spec=spec, weights=np.array([0.5, 0.5]), alpha=0.5)


def two_atom_objective(a, eps):
    """Entropic objective of the 1-parameter family of feasible two-atom plans."""
    entries = np.array([a, 0.5 - a, 0.5 - a, a])
    costs = np.array([0.0, 1.0, 1.0, 0.0])
    mask = entries > 0
    ent = np.sum(entries[mask] * np.log(4.0 * entries[mask]))
    return np.sum(costs * entries) + eps**2 * ent


def scan_two_atom_minimum(eps):
    """Coarse scan plus bounded refinement; independent of the solver."""
    grid = np.linspace(1e-9, 0.5 - 1e-9, 20_001)
    vals = [two_atom_objective(a, eps) for a in grid]
    a0 = grid[int(np.argmin(vals))]
    res = minimize_scalar(
        two_atom_objective,
        bounds=(max(a0 - 1e-3, 1e-12), min(a0 + 1e-3, 0.5 - 1e-12)),
        args=(eps,),
        method="bounded",
        options={"xatol": 1e-14},
    )
    return float(res.fun), float(res.x)


def wavy_pair():
    spec = symmetric_grid(dim=1, n=65, lo=-1.0, hi=1.0)
    lam = measure_from_density(
        spec, lambda p: 1.0 + 0.3 * np.sin(2 * p[:, 0]), alpha=0.5, normalize=True
    )
    mu = measure_from_density(
        spec, lambda p: 1.0 + 0.3 * np.cos(3 * p[:, 0]), alpha=0.5, normalize=True
    )
    return lam, mu


def peaked_target():
    spec = symmetric_grid(dim=1, n=65, lo=-1.0, hi=1.0)
    return measure_from_density(
        spec, lambda p: np.exp(-30 * (p[:, 0] - 0.5) ** 2) + 1e-6, alpha=0.5,
        normalize=True,
    )


def curved_pair(n):
    """Uniform source and its image under a smooth curvature displacement."""
    grid = {"dim": 1, "n": n, "lo": -1.0, "hi": 1.0}
    profile = {"kind": "shifted_profile", "c0": 0.02, "c1": 0.42, "exponent": 1.0,
               "window_power": 2.0}
    return tuple(make_measure({"grid": grid, "alpha": 0.5, "normalize": True, "density": d})
                 for d in ({"kind": "uniform"}, profile))


def log_domain_reference(lam, mu, ladder, tol, check_every=10):
    """Plain log-domain Sinkhorn on 1-d measures with positive weights, with
    sinkhorn's stage rules; returns the normalized plan and the iterations."""
    a, b = lam.weights / lam.total_mass, mu.weights / mu.total_mass
    c = (lam.points[:, 0][:, None] - mu.points[:, 0][None, :]) ** 2
    f, g, iterations = np.zeros(a.size), np.zeros(b.size), 0
    for stage, eps in enumerate(ladder):
        final, e2 = stage == len(ladder) - 1, eps**2
        for it in range(1, (100_000 if final else 200) + 1):
            f = -e2 * logsumexp((g[None, :] - c) / e2 + np.log(b)[None, :], axis=1)
            g = -e2 * logsumexp((f[:, None] - c) / e2 + np.log(a)[:, None], axis=0)
            iterations += 1
            if it % check_every:
                continue
            plan = np.exp((f[:, None] + g[None, :] - c) / e2) * a[:, None] * b[None, :]
            err = max(np.abs(plan.sum(1) - a).sum(), np.abs(plan.sum(0) - b).sum())
            if err <= (tol if final else max(tol, 1e-3)):
                break
    return plan, iterations


class TestSinkhorn:
    def test_single_atom_marginals(self):
        spec = GridSpec(dim=1, h=1.0, extent=(2,), origin_offset=(0.0,))
        lam = GridMeasure(spec=spec, weights=np.array([1.0, 0.0]), alpha=0.5)
        res = sinkhorn(lam, lam, epsilon=0.5)
        assert res.converged
        assert res.primal_cost == pytest.approx(0.0, abs=1e-15)
        assert res.entropy == pytest.approx(0.0, abs=1e-12)
        assert entropic_cost(res) == pytest.approx(0.0, abs=1e-12)

    def test_two_atom_cost_matches_scan_oracle(self):
        lam = two_atom_measure()
        eps = 0.5
        res = sinkhorn(lam, lam, epsilon=eps, tol=1e-12)
        oracle_val, oracle_a = scan_two_atom_minimum(eps)
        assert res.converged
        assert entropic_cost(res) == pytest.approx(oracle_val, abs=1e-6)
        assert res.plan.mass[0, 0] == pytest.approx(oracle_a, abs=1e-6)

    def test_mass_mismatch_rejected(self, uniform_1d):
        with pytest.raises(MassMismatchError, match="relative gap"):
            sinkhorn(uniform_1d, uniform_1d.scaled(1.01), epsilon=0.3)

    @pytest.mark.parametrize("eps", [0.0, -0.1, float("nan"), 1e-170])
    def test_epsilon_without_usable_square_rejected(self, uniform_1d, eps):
        # 1e-170 is positive, but its square underflows to zero.
        with pytest.raises(DomainError, match="epsilon"):
            sinkhorn(uniform_1d, uniform_1d, eps)

    @pytest.mark.parametrize("check_every", [0, solvers.CHECK_EVERY_MAX + 1, 10**18])
    def test_check_every_out_of_range_rejected(self, uniform_1d, check_every):
        # Only a check can end a stage, so an unbounded gap could run forever.
        with pytest.raises(DomainError, match="check_every"):
            sinkhorn(uniform_1d, uniform_1d, 0.5, check_every=check_every)

    def test_epsilon_below_cost_rounding_rejected(self):
        # On a grid of spacing 2.5e14 the squared distances round by more
        # than epsilon^2 = 0.36, so the Gibbs factors would be noise.
        lam = measure_from_density(symmetric_grid(dim=1, n=9, lo=-1e15, hi=1e15),
                                   lambda p: np.ones(len(p)), alpha=0.5)
        with pytest.raises(DomainError, match="rounding error"):
            sinkhorn(lam, lam, 0.6)

    def test_symmetric_instance_gives_symmetric_plan(self):
        spec = symmetric_grid(dim=1, n=33, lo=-1.0, hi=1.0)
        lam = measure_from_density(
            spec, lambda p: 1.0 + 0.1 * np.cos(np.pi * p[:, 0]), alpha=0.5,
            normalize=True,
        )
        res = sinkhorn(lam, lam, epsilon=0.3, tol=1e-12)
        assert np.abs(res.plan.mass - res.plan.mass.T).max() <= 1e-9

    def test_gibbs_form_holds_entrywise(self):
        spec = symmetric_grid(dim=1, n=17, lo=-1.0, hi=1.0)
        lam = measure_from_density(spec, lambda p: 1.0 + 0.2 * p[:, 0], alpha=0.5)
        mu = measure_from_density(spec, lambda p: 1.2 - 0.2 * p[:, 0], alpha=0.5)
        mu = mu.scaled(lam.total_mass / mu.total_mass)
        res = sinkhorn(lam, mu, epsilon=0.4, tol=1e-12)
        pi = res.plan
        gibbs = (
            np.exp((res.f[:, None] + res.g[None, :] - pi.cost_matrix) / res.epsilon**2)
            * lam.weights[:, None]
            * mu.weights[None, :]
        )
        np.testing.assert_allclose(pi.mass, gibbs, rtol=1e-12, atol=1e-300)

    def test_marginal_error_monotone_along_iterations(self):
        # The peaked target drives the scalings far past ABSORB_BOUND, so the
        # second input runs through repeated absorptions.
        lam, wavy = wavy_pair()
        for mu, eps in ((wavy, 0.15), (peaked_target(), 0.05)):
            res = sinkhorn(lam, mu, epsilon=eps, tol=1e-11, warm_start=False)
            assert res.converged
            errs = [e for _, e in res.err_history]
            assert all(a >= b - 1e-12 for a, b in zip(errs, errs[1:]))

    @pytest.mark.parametrize("peaked, eps, warm_start", [(True, 0.05, False),
                                                          (False, 0.08, True)])
    def test_matches_log_domain_reference(self, monkeypatch, peaked, eps, warm_start):
        # With relaxation capped at 1 the iterates are plain Sinkhorn's.
        monkeypatch.setattr(solvers, "OMEGA_MAX", 1.0)
        lam, mu = wavy_pair()
        if peaked:
            mu = peaked_target()
        res = sinkhorn(lam, mu, epsilon=eps, tol=1e-11, warm_start=warm_start)
        ladder = _epsilon_ladder(eps, 4.0) if warm_start else [eps]
        ref, iterations = log_domain_reference(lam, mu, ladder, tol=1e-11)
        assert res.iterations == iterations
        plan = res.plan.mass / res.mass
        keep = (plan > np.finfo(float).tiny) | (ref > np.finfo(float).tiny)
        np.testing.assert_allclose(plan[keep], ref[keep], rtol=1e-10, atol=0)

    @pytest.mark.parametrize("peaked, eps, warm_start", [(True, 0.05, False),
                                                          (False, 0.08, True)])
    def test_overrelaxed_matches_log_domain_reference(self, peaked, eps, warm_start):
        lam, mu = wavy_pair()
        if peaked:
            mu = peaked_target()
        tol = 1e-11
        res = sinkhorn(lam, mu, epsilon=eps, tol=tol, warm_start=warm_start)
        ladder = _epsilon_ladder(eps, 4.0) if warm_start else [eps]
        ref, iterations = log_domain_reference(lam, mu, ladder, tol=tol)
        assert res.converged
        assert res.iterations < iterations
        errs = [e for _, e in res.err_history]
        assert all(a >= b for a, b in zip(errs, errs[1:]))
        assert np.abs(res.plan.mass / res.mass - ref).sum() <= 10 * tol

    def test_rollback_keeps_errors_monotone(self, monkeypatch):
        # omega = 3 lies outside the convergent range (0, 2): the first relaxed
        # checks are rolled back, on the peaked input across absorptions.
        monkeypatch.setattr(solvers, "_omega_for_rate", lambda rate: 3.0)
        lam, wavy = wavy_pair()
        for mu, eps in ((wavy, 0.15), (peaked_target(), 0.05)):
            res = sinkhorn(lam, mu, epsilon=eps, tol=1e-11, warm_start=False)
            assert res.converged
            assert res.stages[-1].rollbacks >= 1
            assert res.stages[-1].omega < 3.0
            errs = [e for _, e in res.err_history]
            assert all(a >= b for a, b in zip(errs, errs[1:]))

    def test_in_bounds_solve_skips_log_domain(self, monkeypatch):
        # Each stage opens on its kernel, so a solve whose scalings stay in
        # bounds never sweeps in the log domain; the peaked target leaves them.
        calls = []
        softmin = solvers._softmin
        monkeypatch.setattr(solvers, "_softmin", lambda *args: calls.append(1) or softmin(*args))
        lam, wavy = wavy_pair()
        res = sinkhorn(lam, wavy, epsilon=0.08, tol=1e-11)
        assert res.converged and calls == []
        assert sinkhorn(lam, peaked_target(), epsilon=0.05, tol=1e-11, warm_start=False).converged
        assert calls

    def test_rollback_caps_omega(self, monkeypatch):
        # Every estimate asks for omega = 3, outside the convergent range
        # (0, 2).  A stage never raises omega again to a factor a rollback
        # rejected, so after k rollbacks it ends at 1 + 2 / 2^k, or at 1.
        monkeypatch.setattr(solvers, "_omega_for_rate", lambda rate: 3.0)
        lam, mu = wavy_pair()
        res = sinkhorn(lam, mu, epsilon=0.08, tol=1e-11)
        assert res.stages[-1].rollbacks >= 1
        for stage in res.stages:
            assert stage.stop == "converged"
            if stage.rollbacks:
                halved = 1.0 + 2.0 * 0.5**stage.rollbacks
                assert stage.omega == (1.0 if halved - 1.0 < solvers.OMEGA_FLOOR else halved)
        errs = [e for _, e in res.err_history]
        assert all(a >= b for a, b in zip(errs, errs[1:]))

    def test_omega_keeps_adapting(self, monkeypatch):
        # omega is set from the first measured rate and then raised from the
        # plain rate that Young's relation recovers from the relaxed one.
        tuned = []
        omega_for_rate = solvers._omega_for_rate
        monkeypatch.setattr(solvers, "_omega_for_rate",
                            lambda rate: tuned.append(omega_for_rate(rate)) or tuned[-1])
        lam, mu = curved_pair(128)
        res = sinkhorn(lam, mu, epsilon=0.04, tol=1e-9, warm_start=False)
        assert res.converged and res.stages[-1].rollbacks == 0
        assert tuned[0] < res.stages[-1].omega <= solvers.OMEGA_MAX

    def test_stagnated_solve_stops_early(self):
        # epsilon is far below the grid spacing 0.05: the marginal error
        # does not move, and plain iteration would run all of max_iter.
        spec = symmetric_grid(dim=1, n=41, lo=-1.0, hi=1.0)
        lam = measure_from_density(spec, lambda p: np.ones(len(p)), alpha=0.5,
                                   normalize=True)
        mu = measure_from_density(spec, lambda p: 1.0 + 0.5 * p[:, 0], alpha=0.5,
                                  normalize=True)
        res = sinkhorn(lam, mu, epsilon=1e-3, tol=1e-9, warm_start=False)
        assert not res.converged
        assert res.iterations <= 10_000
        assert res.stages[-1].stop == "stagnated"
        # Warm-started, the ladder runs stages down to eps = 0.002.  Only the
        # final stage has a stagnation stop, so the 200-iteration cap is what
        # ends the stages below the grid spacing.
        warm = sinkhorn(lam, mu, epsilon=1e-3, tol=1e-9)
        capped = [s for s in warm.stages if s.stop == "stage_cap"]
        assert capped and all(s.epsilon < spec.h and s.iterations == 200 for s in capped)
        assert warm.stages[-1].stop == "stagnated"
        assert warm.iterations < 2_000

    def test_stage_record(self):
        lam, mu = wavy_pair()
        res = sinkhorn(lam, mu, epsilon=0.08, tol=1e-11)
        assert [s.epsilon for s in res.stages] == _epsilon_ladder(0.08, 4.0)
        assert sum(s.iterations for s in res.stages) == res.iterations
        assert all(s.stop == "converged" for s in res.stages)
        assert res.stages[-1].marg_err == res.marg_err == res.err_history[-1][1]
        capped = sinkhorn(lam, mu, epsilon=0.08, tol=1e-11, max_iter=25)
        assert not capped.converged
        assert capped.stages[-1].stop == "stage_cap"
        assert capped.stages[-1].iterations == 25
        plain = sinkhorn(lam, mu, epsilon=0.08, tol=1e-11, check_every=1)
        assert all(s.omega == 1.0 for s in plain.stages)

    def test_entropy_two_routes_agree(self):
        spec = symmetric_grid(dim=1, n=33, lo=-1.0, hi=1.0)
        lam = measure_from_density(spec, lambda p: 1.0 + 0.25 * p[:, 0], alpha=0.5)
        mu = measure_from_density(spec, lambda p: 1.0 - 0.25 * p[:, 0], alpha=0.5)
        mu = mu.scaled(lam.total_mass / mu.total_mass)
        res = sinkhorn(lam, mu, epsilon=0.3, tol=1e-13)
        pi = res.plan.mass
        ref = lam.weights[:, None] * mu.weights[None, :]
        pos = pi > 0
        direct = float(np.sum(pi[pos] * np.log(pi[pos] / ref[pos])))
        identity = (
            float(res.f @ lam.weights + res.g @ mu.weights - res.primal_cost)
            / res.epsilon**2
        )
        assert res.entropy == pytest.approx(direct, rel=1e-8)
        assert identity == pytest.approx(direct, rel=1e-8)

    def test_variational_inequality_across_ladder(self):
        # The eps-optimal plan, evaluated at another temperature, cannot beat
        # that temperature's own optimum.
        spec = symmetric_grid(dim=1, n=33, lo=-1.0, hi=1.0)
        lam = measure_from_density(
            spec, lambda p: 1.0 + 0.1 * np.cos(np.pi * p[:, 0]), alpha=0.5,
            normalize=True,
        )
        ladder = [0.2, 0.3, 0.45]
        results = {e: sinkhorn(lam, lam, epsilon=e, tol=1e-12) for e in ladder}
        for e_plan in ladder:
            for e_obj in ladder:
                res = results[e_plan]
                value = res.primal_cost + e_obj**2 * res.entropy
                best = entropic_cost(results[e_obj])
                assert value >= best - 1e-9

    def test_non_final_stages_stop_at_loose_tolerance(self):
        # Warm-start stages stop at max(tol, 1e-3); only the last one is held
        # to tol.
        lam, mu = curved_pair(128)
        res = sinkhorn(lam, mu, epsilon=0.04, tol=1e-9)
        assert res.converged
        early = [s for s in res.stages[:-1] if s.stop == "converged"]
        assert early and all(s.marg_err <= 1e-3 for s in early)
        assert any(s.marg_err > 1e-9 for s in early)


class TestGibbsIdentity:
    def test_converged_plan_satisfies_identity(self):
        spec = symmetric_grid(dim=1, n=49, lo=-1.0, hi=1.0)
        lam = measure_from_density(
            spec, lambda p: 1.0 + 0.2 * np.sin(3 * p[:, 0]), alpha=0.5, normalize=True
        )
        res = sinkhorn(lam, lam, epsilon=0.12, tol=1e-11)
        assert gibbs_identity_check(res, n_samples=2000, seed=1) <= 1e-6

    def test_product_plan_with_flat_potentials(self):
        # f = g = 0 and zero cost differences force a unit ratio.
        lam = two_atom_measure()
        res = sinkhorn(lam, lam, epsilon=5.0, tol=1e-12)
        assert gibbs_identity_check(res, n_samples=100, seed=0) <= 1e-9

    def test_single_atom_degenerate_quadruples(self):
        spec = GridSpec(dim=1, h=1.0, extent=(2,), origin_offset=(0.0,))
        lam = GridMeasure(spec=spec, weights=np.array([1.0, 0.0]), alpha=0.5)
        res = sinkhorn(lam, lam, epsilon=0.5)
        assert gibbs_identity_check(res, n_samples=10, seed=0) == 0.0


def permutation_oracle(points_x, points_y, mass_per_atom):
    best = np.inf
    n = points_x.shape[0]
    for perm in itertools.permutations(range(n)):
        cost = sum(
            np.sum((points_x[i] - points_y[perm[i]]) ** 2) for i in range(n)
        )
        best = min(best, mass_per_atom * cost)
    return best


def dense_reference_cost(lam, mu):
    """Transport LP over all n*m pairs, at tight HiGHS tolerances."""
    c = np.sum((lam.points[:, None, :] - mu.points[None, :, :]) ** 2, axis=2)
    n, m = c.shape
    a_eq = sp.vstack([sp.kron(sp.eye(n), np.ones((1, m))), sp.kron(np.ones((1, n)), sp.eye(m))])
    res = linprog(c.ravel(), A_eq=a_eq, b_eq=np.concatenate([lam.weights, mu.weights]),
                  bounds=(0, None), method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    assert res.status == 0
    return float(res.fun)


def shifted_narrow_pair(n, zero_atoms):
    """2-d Gaussian source and a translated copy of half its width as target, so
    each atom's nearest partners are not where its mass goes.  With
    ``zero_atoms``, every third source atom and every fourth target atom (at
    another offset) carries no mass."""
    spec = symmetric_grid(dim=2, n=n, lo=-1.0, hi=1.0)

    def gaussian(center, sigma):
        return lambda p: np.exp(-np.sum((p - center) ** 2, axis=1) / (2 * sigma**2))

    wl = measure_from_density(spec, gaussian([0.0, 0.0], 0.6), alpha=0.5).weights.copy()
    wm = measure_from_density(spec, gaussian([0.45, -0.3], 0.3), alpha=0.5).weights.copy()
    if zero_atoms:
        wl[::3] = 0.0
        wm[1::4] = 0.0
    return (GridMeasure(spec=spec, weights=wl / wl.sum(), alpha=0.5),
            GridMeasure(spec=spec, weights=wm / wm.sum(), alpha=0.5))


class TestExactOT:
    def test_single_atom_translation_cost(self):
        lam = line_measure([0.0], [1.0], h=0.5)
        mu = line_measure([0.5], [1.0], h=0.5)
        res = exact_ot(lam, mu)
        assert res.cost == pytest.approx(0.25, abs=1e-15)

    def test_identical_marginals_cost_zero(self, uniform_1d):
        res = exact_ot(uniform_1d, uniform_1d)
        assert res.cost == pytest.approx(0.0, abs=1e-13)

    @pytest.mark.parametrize("n_atoms", [2, 3, 4])
    def test_permutation_oracle_1d(self, n_atoms):
        rng = np.random.default_rng(n_atoms)
        xs = np.sort(rng.choice(np.arange(-8, 9), size=n_atoms, replace=False)) * 0.25
        ys = np.sort(rng.choice(np.arange(-8, 9), size=n_atoms, replace=False)) * 0.25
        lam = line_measure(xs, np.full(n_atoms, 1.0 / n_atoms), h=0.25)
        mu = line_measure(ys, np.full(n_atoms, 1.0 / n_atoms), h=0.25)
        res = exact_ot(lam, mu)
        oracle = permutation_oracle(xs[:, None], ys[:, None], 1.0 / n_atoms)
        assert res.cost == pytest.approx(oracle, abs=1e-12)

    @pytest.mark.parametrize("n_atoms", [2, 3, 4])
    def test_permutation_oracle_2d(self, n_atoms):
        rng = np.random.default_rng(10 + n_atoms)
        def sample():
            flat = rng.choice(9 * 9, size=n_atoms, replace=False)
            return np.stack([(flat // 9) - 4, (flat % 9) - 4], axis=1) * 0.25
        xs, ys = sample(), sample()
        lam = plane_measure(xs, np.full(n_atoms, 1.0 / n_atoms), h=0.25)
        mu = plane_measure(ys, np.full(n_atoms, 1.0 / n_atoms), h=0.25)
        res = exact_ot(lam, mu)
        oracle = permutation_oracle(xs, ys, 1.0 / n_atoms)
        assert res.cost == pytest.approx(oracle, abs=1e-12)

    def test_duality_gap_random_instances(self):
        rng = np.random.default_rng(77)
        for trial in range(3):
            xs = np.arange(-32, 32) * 0.03125
            wl = 0.2 + rng.random(64)
            wm = 0.2 + rng.random(64)
            wm *= wl.sum() / wm.sum()
            lam = line_measure(xs, wl, h=0.03125)
            mu = line_measure(xs, wm, h=0.03125)
            res = exact_ot(lam, mu)
            assert res.duality_gap <= 1e-9
            assert res.feasibility_violation <= 1e-9

    def test_cost_below_any_feasible_plan(self):
        # Unregularized optimum <= quadratic part of the entropic plan.
        spec = symmetric_grid(dim=1, n=33, lo=-1.0, hi=1.0)
        lam = measure_from_density(
            spec, lambda p: 1.0 + 0.2 * np.sin(2 * p[:, 0]), alpha=0.5, normalize=True
        )
        mu = measure_from_density(
            spec, lambda p: 1.0 - 0.15 * p[:, 0] ** 2, alpha=0.5, normalize=True
        )
        sk = sinkhorn(lam, mu, epsilon=0.25, tol=1e-10)
        res = exact_ot(lam, mu)
        assert res.cost <= sk.primal_cost + 1e-12

    def test_mass_mismatch_rejected(self, uniform_1d):
        with pytest.raises(MassMismatchError):
            exact_ot(uniform_1d, uniform_1d.scaled(2.0))

    @pytest.mark.parametrize("n", [8, 11])
    @pytest.mark.parametrize("zero_atoms", [False, True])
    def test_shortlist_lp_matches_dense_reference(self, monkeypatch, n, zero_atoms):
        solves = []

        def counting_linprog(*args, **kwargs):
            solves.append(1)
            return linprog(*args, **kwargs)

        monkeypatch.setattr(solvers, "linprog", counting_linprog)
        lam, mu = shifted_narrow_pair(n, zero_atoms)
        res = exact_ot(lam, mu)
        assert res.method == "lp_highs"
        assert len(solves) > 1
        ref = dense_reference_cost(lam, mu)
        assert abs(res.cost - ref) <= 1e-12 * ref
        assert res.duality_gap <= 1e-9
        assert res.feasibility_violation <= 1e-9
        # The exit duals are HiGHS's own: feasible on the full cost and tight
        # on the plan's support, to rounding.
        cost = res.plan.cost_matrix
        slack = res.u[:, None] + res.v[None, :] - cost
        assert slack.max() <= 1e-12 * max(1.0, float(cost.max()))
        assert np.abs(slack[res.plan.mass > 0]).max() <= 1e-12

    @staticmethod
    def assert_matches_reference(res, lam, mu):
        ref = dense_reference_cost(lam, mu)
        assert res.method == "lp_highs"
        assert abs(res.cost - ref) <= 1e-12 * ref
        assert res.duality_gap <= CERT_RTOL
        assert res.feasibility_violation <= CERT_RTOL

    @pytest.mark.parametrize("n", [8, 11])
    @pytest.mark.parametrize("zero_atoms", [False, True])
    def test_pyramid_matches_dense_reference(self, monkeypatch, n, zero_atoms):
        monkeypatch.setattr(solvers, "PYRAMID_ATOMS", 12)
        lam, mu = shifted_narrow_pair(n, zero_atoms)
        res = exact_ot(lam, mu)
        self.assert_matches_reference(res, lam, mu)
        levels = [s.level for s in res.solves]
        # Coarse to fine, each level priced until no pair violates.
        assert levels == sorted(levels, reverse=True) and levels[-1] == 0
        assert len(set(levels)) >= 2
        for level in set(levels):
            assert [s.added for s in res.solves if s.level == level][-1] == 0
        assert res.solves[0].atoms[0] <= 12 and res.solves[0].atoms[1] <= 12
        assert res.solves[-1].atoms == (np.count_nonzero(lam.weights),
                                        np.count_nonzero(mu.weights))

    def test_pyramid_on_different_grids_with_odd_extents(self, monkeypatch):
        monkeypatch.setattr(solvers, "PYRAMID_ATOMS", 10)
        rng = np.random.default_rng(5)
        src = GridSpec(dim=2, h=0.2, extent=(9, 7), origin_offset=(4.0, 3.0))
        tgt = GridSpec(dim=2, h=0.15, extent=(11, 5), origin_offset=(4.5, 2.0))
        wl, wm = rng.random(src.n_points), rng.random(tgt.n_points)
        wl[rng.random(wl.size) < 0.2] = 0.0
        wm[rng.random(wm.size) < 0.2] = 0.0
        lam = GridMeasure(spec=src, weights=wl / wl.sum(), alpha=0.5)
        mu = GridMeasure(spec=tgt, weights=wm / wm.sum(), alpha=0.5)
        res = exact_ot(lam, mu)
        self.assert_matches_reference(res, lam, mu)
        assert len({s.level for s in res.solves}) >= 3

    def test_fine_level_pricing_adds_pairs(self, monkeypatch):
        # With one partner per row and column in the seed, the dual-seeded
        # shortlist misses pairs of the fine optimum, and pricing adds them.
        monkeypatch.setattr(solvers, "PYRAMID_ATOMS", 12)
        monkeypatch.setattr(solvers, "SHORTLIST_STENCIL", 1)
        lam, mu = shifted_narrow_pair(8, False)
        res = exact_ot(lam, mu)
        self.assert_matches_reference(res, lam, mu)
        assert any(s.level == 0 and s.added > 0 for s in res.solves)
        assert max(s.level for s in res.solves) >= 1

    def test_tiny_weight_atoms_certify(self):
        # The smallest source weight is 1.3e-12.  With HiGHS presolve on, a
        # feasible restricted LP of this pair is declared infeasible.
        grid = {"dim": 2, "n": 14, "lo": -1.0, "hi": 1.0}
        lam = make_measure({"grid": grid, "alpha": 0.5, "normalize": True,
                            "density": {"kind": "gaussian", "sigma": 0.2, "floor": 0.0}})
        mu = make_measure({"grid": grid, "alpha": 0.5, "normalize": True,
                           "density": {"kind": "uniform"}})
        assert lam.weights.min() < 1e-11
        res = exact_ot(lam, mu)
        assert res.method == "lp_highs"
        assert res.duality_gap <= CERT_RTOL
        assert res.feasibility_violation <= CERT_RTOL

    def test_lp_path_matches_monotone_path_in_1d(self):
        # Integer weights with zero-weight atoms on both sides, on grids of 9
        # and 7 points: the cumulative masses of the positive atoms tie
        # exactly at 2, 6 and 7.
        tied = (line_measure(np.arange(-4, 5) * 0.25, [0, 2, 1, 3, 0, 1, 2, 0, 3], h=0.25),
                line_measure(np.arange(-3, 4) * 0.25, [2, 0, 4, 1, 0, 5, 0], h=0.25))
        for lam, mu in (wavy_pair(), tied):
            monotone = exact_ot(lam, mu)
            lp = _exact_ot_lp(lam, mu)
            assert (monotone.method, lp.method) == ("monotone_1d", "lp_highs")
            assert abs(lp.cost - monotone.cost) <= 1e-12 * monotone.cost
            assert lp.duality_gap <= 1e-9 and lp.feasibility_violation <= 1e-9

    def test_pyramid_lp_matches_monotone_path_in_1d(self):
        # 257 and 240 positive atoms: the LP runs on blocks of two cells,
        # then on the atoms.
        lam, mu = zero_atom_pair_1d(300)
        monotone = exact_ot(lam, mu)
        lp = _exact_ot_lp(lam, mu)
        assert (monotone.method, lp.method) == ("monotone_1d", "lp_highs")
        assert monotone.solves == []
        assert [s.level for s in lp.solves][0] == 1 and lp.solves[-1].atoms == (257, 240)
        assert abs(lp.cost - monotone.cost) <= 1e-12 * monotone.cost
        assert lp.duality_gap <= 1e-9 and lp.feasibility_violation <= 1e-9

    def test_certificate_rejects_plan_off_its_marginals(self):
        lam, mu = wavy_pair()
        res = exact_ot(lam, mu)
        cost, plan = res.plan.cost_matrix, res.plan.mass.copy()
        _, violation = _certify(cost, plan, res.u, res.v, lam.weights, mu.weights)
        assert violation <= CERT_RTOL
        # One row sum (and one column sum) off by 1e-7 of the mass.
        i, j = np.unravel_index(np.argmax(plan), plan.shape)
        plan[i, j] += 1e-7 * lam.total_mass
        _, violation = _certify(cost, plan, res.u, res.v, lam.weights, mu.weights)
        assert violation > CERT_RTOL

    def test_monotone_certificate_sees_raised_dual_off_the_staircase(self, monkeypatch):
        # Raise the dual of one zero-weight target atom, which no staircase
        # cell meets: the support slack, the marginals and the dual cost stay
        # as they were, and only the dual violation max_i (u_i - v^c_i) over
        # all pairs can see it.
        lam, mu = zero_atom_pair_1d(64)
        assert exact_ot(lam, mu).feasibility_violation <= CERT_RTOL
        calls = []

        def raise_first_zero_column(y, v, x):
            out = _c_transform_1d(y, v, x)
            if not calls:
                out[0] += 1e-6
            calls.append(x.size)
            return out

        monkeypatch.setattr(solvers, "_c_transform_1d", raise_first_zero_column)
        with pytest.raises(CertificateError, match="violation") as err:
            _exact_ot_monotone(lam, mu)
        assert calls[0] == np.count_nonzero(mu.weights == 0)
        violation = float(str(err.value).rsplit("violation ", 1)[1].rstrip(")"))
        assert violation > CERT_RTOL

    @pytest.mark.parametrize("solve", [lambda lam: exact_ot(lam, lam),
                                       lambda lam: sinkhorn(lam, lam, epsilon=0.3)],
                             ids=["exact_ot", "sinkhorn"])
    def test_oversized_input_rejected_up_front(self, solve):
        spec = symmetric_grid(dim=2, n=128, lo=-1.0, hi=1.0)
        lam = GridMeasure(spec=spec, weights=np.full(spec.n_points, 1.0), alpha=0.5)
        with pytest.raises(DomainError, match="16384 x 16384 support points needs about"):
            solve(lam)


def sorted_points(size):
    """Points in ascending order: a grid of any spacing and origin, or
    non-uniform points, repeats allowed."""
    grid = st.builds(lambda h, off: (np.arange(size) - off * (size - 1)) * h,
                     st.floats(1e-3, 10.0), st.floats(0.0, 1.0))
    scattered = st.lists(st.floats(-20.0, 20.0), min_size=size, max_size=size).map(
        lambda xs: np.sort(np.asarray(xs)))
    return st.one_of(grid, scattered)


@st.composite
def envelope_cases(draw):
    n, m = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    x, y = draw(sorted_points(n)), draw(sorted_points(m))
    cost = (x[:, None] - y[None, :]) ** 2
    # Duals up to the size of the largest cost, of either sign.
    v = np.asarray(draw(st.lists(st.floats(-1.0, 1.0), min_size=m, max_size=m)))
    return x, y, v * max(1.0, float(cost.max())), cost


@settings(max_examples=150, deadline=None, derandomize=True)
@given(envelope_cases())
def test_c_transform_1d_matches_dense(case):
    x, y, v, cost = case
    dense = np.min(cost - v[None, :], axis=1)
    envelope = _c_transform_1d(y, v, x)
    # Each entry is one of the dense terms, evaluated the same way, so it can
    # only miss the minimum where rounding misplaces a crossing.
    assert np.all(envelope >= dense)
    assert np.all(envelope - dense <= 1e-13 * (float(cost.max()) + float(np.abs(v).max())))


def zero_atom_pair_1d(n):
    """A 1-d pair in which every 7th source and every 5th target atom has weight 0."""
    grid = {"dim": 1, "n": n, "lo": -1.0, "hi": 1.0}
    lam, mu = (make_measure({"grid": grid, "alpha": 0.5, "density": d}) for d in (
        {"kind": "perturbed_uniform", "amplitude": 0.3, "freq": 2.0},
        {"kind": "gaussian", "sigma": 0.4, "floor": 0.1}))
    wl, wm = lam.weights.copy(), mu.weights.copy()
    wl[::7] = 0.0
    wm[3::5] = 0.0
    return GridMeasure(lam.spec, wl / wl.sum(), 0.5), GridMeasure(mu.spec, wm / wm.sum(), 0.5)


def lp_pair_2d(n):
    grid = {"dim": 2, "n": n, "lo": -1.0, "hi": 1.0}
    return tuple(make_measure({"grid": grid, "alpha": 0.5, "normalize": True, "density": d})
                 for d in ({"kind": "perturbed_uniform", "amplitude": 0.2, "freq": 1.0},
                           {"kind": "gaussian", "sigma": 0.5, "floor": 0.3}))


@pytest.mark.parametrize("case", [
    ("lp_highs", lambda: lp_pair_2d(16), exact_ot, solvers.EXACT_OT_DENSE_ARRAYS),
    ("lp_highs", lambda: lp_pair_2d(20), exact_ot, solvers.EXACT_OT_DENSE_ARRAYS),
    ("monotone_1d", lambda: zero_atom_pair_1d(512), exact_ot, solvers.EXACT_OT_DENSE_ARRAYS),
    (None, lambda: curved_pair(512), lambda lam, mu: sinkhorn(lam, mu, 0.1, tol=1e-9),
     solvers.SINKHORN_DENSE_ARRAYS),
], ids=["exact_ot_lp_2d", "exact_ot_lp_pyramid_2d", "exact_ot_monotone_1d", "sinkhorn_1d"])
def test_peak_memory_within_size_guard(case):
    # The size guard counts n x m float arrays; the traced peak of a solve
    # stays within the count its guard uses.
    method, make_pair, solve, arrays = case
    lam, mu = make_pair()
    tracemalloc.start()
    try:
        res = solve(lam, mu)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert getattr(res, "method", None) == method
    assert peak <= arrays * 8 * lam.spec.n_points * mu.spec.n_points


def test_monotone_peak_memory_is_the_plan():
    # The 1-d certificate reads the cost on the staircase's cells only, so
    # the returned plan is its one n x m array.
    lam, mu = zero_atom_pair_1d(512)
    tracemalloc.start()
    try:
        res = exact_ot(lam, mu)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.method == "monotone_1d"
    assert peak <= 2 * 8 * lam.spec.n_points * mu.spec.n_points
