"""Solvers: log-domain Sinkhorn, exact quadratic transport, Gibbs identity."""

import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings, strategies as st
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
from eotlab import grids
from eotlab.errors import SizeError
from eotlab.grids import squared_distances
from eotlab.solvers import (CERT_RTOL, PRICE_RTOL, _c_transform_1d, _c_transform_grid,
                            _certify, _epsilon_ladder, _exact_ot_lp, _exact_ot_monotone)
from conftest import dense_cost, line_measure, plane_measure


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


def single_stage(monkeypatch):
    """Make each sinkhorn call one stage at its own epsilon, without the ladder."""
    monkeypatch.setattr(solvers, "_epsilon_ladder", lambda epsilon, cost_max: [epsilon])


def log_domain_reference(lam, mu, ladder, tol, max_iter=100_000):
    """Plain log-domain Sinkhorn on the dense cost, with sinkhorn's stage
    rules and ``max_iter``; returns the normalized plan and the iterations."""
    a, b = lam.weights / lam.total_mass, mu.weights / mu.total_mass
    with np.errstate(divide="ignore"):
        log_a, log_b = np.log(a), np.log(b)
    c = squared_distances(lam.points, mu.points)
    f, g, iterations = np.zeros(a.size), np.zeros(b.size), 0
    for stage, eps in enumerate(ladder):
        final, e2 = stage == len(ladder) - 1, eps**2
        stage_iter = max_iter if final else 200
        for it in range(1, stage_iter + 1):
            f = -e2 * logsumexp((g[None, :] - c) / e2 + log_b[None, :], axis=1)
            g = -e2 * logsumexp((f[:, None] - c) / e2 + log_a[:, None], axis=0)
            iterations += 1
            if it % solvers.CHECK_EVERY and it < stage_iter:
                continue
            plan = np.exp((f[:, None] + g[None, :] - c) / e2 + log_a[:, None] + log_b[None, :])
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

    @pytest.mark.parametrize("opts", [{"tol": float("nan")}, {"tol": 0.0}, {"tol": -1.0},
                                      {"max_iter": 0}, {"max_iter": -1}])
    def test_tolerance_and_cap_must_be_positive(self, uniform_1d, opts):
        # A NaN tol once ran past the whole cap, and a cap of 0 or -1 still
        # ran 10 iterations: neither was refused.
        with pytest.raises(DomainError, match="tol and max_iter must be positive"):
            sinkhorn(uniform_1d, uniform_1d, 0.5, **opts)

    def test_dimension_mismatch_rejected(self, uniform_1d, uniform_2d):
        # The kernel has one factor per axis, so the two grids must share them.
        with pytest.raises(DomainError, match="dimensions differ"):
            sinkhorn(uniform_1d, uniform_2d, 0.3)

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
            np.exp((res.f[:, None] + res.g[None, :] - dense_cost(pi)) / res.epsilon**2)
            * lam.weights[:, None]
            * mu.weights[None, :]
        )
        np.testing.assert_allclose(pi.mass, gibbs, rtol=1e-12, atol=1e-300)

    def test_marginal_error_monotone_along_iterations(self, monkeypatch):
        # The peaked target drives the single stage's scalings far past
        # ABSORB_BOUND, so the second input runs through repeated absorptions.
        single_stage(monkeypatch)
        lam, wavy = wavy_pair()
        for mu, eps in ((wavy, 0.15), (peaked_target(), 0.05)):
            res = sinkhorn(lam, mu, epsilon=eps, tol=1e-11)
            assert res.converged
            errs = [e for _, e in res.err_history]
            assert all(a >= b - 1e-12 for a, b in zip(errs, errs[1:]))

    @pytest.mark.parametrize("peaked, eps, laddered", [(True, 0.05, False),
                                                        (False, 0.08, True)])
    def test_matches_log_domain_reference(self, monkeypatch, peaked, eps, laddered):
        # With relaxation capped at 1 the iterates are plain Sinkhorn's.
        monkeypatch.setattr(solvers, "OMEGA_MAX", 1.0)
        ladder = _epsilon_ladder(eps, 4.0) if laddered else [eps]
        if not laddered:
            single_stage(monkeypatch)
        lam, mu = wavy_pair()
        if peaked:
            mu = peaked_target()
        res = sinkhorn(lam, mu, epsilon=eps, tol=1e-11)
        ref, iterations = log_domain_reference(lam, mu, ladder, tol=1e-11)
        assert res.iterations == iterations
        plan = res.plan.mass / res.mass
        keep = (plan > np.finfo(float).tiny) | (ref > np.finfo(float).tiny)
        np.testing.assert_allclose(plan[keep], ref[keep], rtol=1e-10, atol=0)

    @pytest.mark.parametrize("peaked, eps, laddered", [(True, 0.05, False),
                                                        (False, 0.08, True)])
    def test_overrelaxed_matches_log_domain_reference(self, monkeypatch, peaked, eps, laddered):
        ladder = _epsilon_ladder(eps, 4.0) if laddered else [eps]
        if not laddered:
            single_stage(monkeypatch)
        lam, mu = wavy_pair()
        if peaked:
            mu = peaked_target()
        tol = 1e-11
        res = sinkhorn(lam, mu, epsilon=eps, tol=tol)
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
        single_stage(monkeypatch)
        lam, wavy = wavy_pair()
        for mu, eps in ((wavy, 0.15), (peaked_target(), 0.05)):
            res = sinkhorn(lam, mu, epsilon=eps, tol=1e-11)
            assert res.converged
            assert res.stages[-1].rollbacks >= 1
            assert res.stages[-1].omega < 3.0
            errs = [e for _, e in res.err_history]
            assert all(a >= b for a, b in zip(errs, errs[1:]))

    def test_in_bounds_solve_skips_log_domain(self, monkeypatch):
        # Each stage opens on its kernel, so a solve whose scalings stay in
        # bounds never sweeps in the log domain; the peaked target, solved in
        # one stage, leaves them.
        calls = []
        softmin = solvers._softmin
        monkeypatch.setattr(solvers, "_softmin", lambda *args: calls.append(1) or softmin(*args))
        lam, wavy = wavy_pair()
        res = sinkhorn(lam, wavy, epsilon=0.08, tol=1e-11)
        assert res.converged and calls == []
        single_stage(monkeypatch)
        assert sinkhorn(lam, peaked_target(), epsilon=0.05, tol=1e-11).converged
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
        single_stage(monkeypatch)
        lam, mu = curved_pair(128)
        res = sinkhorn(lam, mu, epsilon=0.04, tol=1e-9)
        assert res.converged and res.stages[-1].rollbacks == 0
        assert tuned[0] < res.stages[-1].omega <= solvers.OMEGA_MAX

    def test_stagnated_solve_stops_early(self, monkeypatch):
        # epsilon is far below the grid spacing 0.05: the marginal error
        # does not move, and plain iteration would run all of max_iter.
        spec = symmetric_grid(dim=1, n=41, lo=-1.0, hi=1.0)
        lam = measure_from_density(spec, lambda p: np.ones(len(p)), alpha=0.5,
                                   normalize=True)
        mu = measure_from_density(spec, lambda p: 1.0 + 0.5 * p[:, 0], alpha=0.5,
                                  normalize=True)
        with monkeypatch.context() as patch:
            single_stage(patch)
            res = sinkhorn(lam, mu, epsilon=1e-3, tol=1e-9)
        assert not res.converged
        assert res.iterations <= 10_000
        assert res.stages[-1].stop == "stagnated"
        # On the ladder the stages run down to eps = 0.002.  Only the final
        # stage has a stagnation stop, so the 200-iteration cap is what ends
        # the stages below the grid spacing.
        laddered = sinkhorn(lam, mu, epsilon=1e-3, tol=1e-9)
        capped = [s for s in laddered.stages if s.stop == "stage_cap"]
        assert capped and all(s.epsilon < spec.h and s.iterations == 200 for s in capped)
        assert laddered.stages[-1].stop == "stagnated"
        assert laddered.iterations < 2_000

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

    @pytest.mark.parametrize("n", [32, 48])
    def test_converged_2d_plan_satisfies_identity(self, n):
        # On the size pair at eps 0.05, a plan formed as the product of the
        # solve's untruncated factors missed the bar by up to three orders
        # of magnitude.
        lam, mu = sinkhorn_pair_2d(n)
        res = sinkhorn(lam, mu, epsilon=0.05, tol=1e-9)
        assert res.converged
        assert gibbs_identity_check(res, n_samples=2000, seed=1) <= 1e-6

    def test_product_plan_with_flat_potentials(self):
        # f = g = 0 and zero cost differences force a unit ratio.
        lam = two_atom_measure()
        res = sinkhorn(lam, lam, epsilon=5.0, tol=1e-12)
        assert gibbs_identity_check(res, n_samples=100, seed=0) <= 1e-9

    @pytest.mark.parametrize("dim, n", [(1, 40), (2, 7)])
    def test_sampled_costs_match_the_dense_cost(self, dim, n):
        # The check forms each sampled pair's cost from its points; the same
        # rule over all pairs is the cost matrix, so the dense evaluation of
        # the same samples gives the same value.
        spec = symmetric_grid(dim=dim, n=n, lo=-0.9, hi=1.1)
        lam = measure_from_density(spec, lambda p: 1.0 + 0.3 * p[:, 0], alpha=0.5,
                                   normalize=True)
        mu = measure_from_density(spec, lambda p: 1.2 - 0.2 * p[:, -1], alpha=0.5,
                                  normalize=True)
        res = sinkhorn(lam, mu, epsilon=0.4, tol=1e-11)
        plan, cost, eps2 = res.plan.mass, dense_cost(res.plan), res.epsilon**2
        assert np.all(plan > np.finfo(float).tiny)  # one batch, no resampling
        ii, jj = np.nonzero(plan)
        rng = np.random.default_rng(7)
        a = rng.integers(0, ii.size, size=300)
        b = rng.integers(0, ii.size, size=300)
        i, j, k, l = ii[a], jj[a], ii[b], jj[b]
        lhs = np.log(plan[i, j]) + np.log(plan[k, l]) - np.log(plan[i, l]) - np.log(plan[k, j])
        rhs = -(cost[i, j] + cost[k, l] - cost[i, l] - cost[k, j]) / eps2
        scale = np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
        expected = float(np.max(np.abs(lhs - rhs) / scale))
        assert gibbs_identity_check(res, n_samples=300, seed=7) == expected

    def test_peak_memory_beyond_the_plan(self):
        # The sampled pairs are drawn from one flat index array of the plan's
        # positive entries: one int64 array of n x m entries at most, where
        # row and column arrays took two.
        lam, mu = curved_pair(256)
        res = sinkhorn(lam, mu, epsilon=0.3, tol=1e-9)
        plan = res.plan.mass
        tracemalloc.start()
        try:
            gibbs_identity_check(res, n_samples=200, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(plan > np.finfo(float).tiny)
        assert peak <= 1.3 * plan.nbytes

    def test_size_guard_counts_what_the_check_holds(self, monkeypatch):
        # Between the solve's count (about 2.11 n x m on the 20x20 pair) and
        # the check's (2.125 n x m and 16 arrays of samples), the solve runs
        # and the check is refused before it forms the plan.
        lam, mu = sinkhorn_pair_2d(20)
        n_m = lam.spec.n_points * mu.spec.n_points
        monkeypatch.setattr(grids, "DENSE_BYTES_LIMIT", int(2.17 * 8 * n_m))
        res = sinkhorn(lam, mu, 0.32, tol=1e-9)
        assert res.converged
        with pytest.raises(SizeError, match="Gibbs identity check with 1000 samples on 400 x 400"):
            gibbs_identity_check(res, n_samples=1000)
        assert "plan" not in res.__dict__
        assert gibbs_identity_check(res, n_samples=10) <= 1e-6

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
    def test_dimension_mismatch_rejected(self, uniform_1d, uniform_2d):
        # As in sinkhorn, the dimensions are checked first: these masses
        # differ too.
        with pytest.raises(DomainError, match="dimensions differ"):
            exact_ot(uniform_1d, uniform_2d)

    def test_monotone_fallback_warning_names_its_cause(self, monkeypatch, caplog, uniform_1d):
        cause = "optimality certificate failed (gap 1.000e-03, violation 2.000e-03)"

        def fail(lam, mu):
            raise CertificateError(cause)

        monkeypatch.setattr(solvers, "_exact_ot_monotone", fail)
        res = exact_ot(uniform_1d, uniform_1d)
        assert res.method == "lp_highs"
        assert f"monotone path: {cause}; falling back to the LP path" in caplog.text

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

    @staticmethod
    def assert_matches_reference(res, lam, mu):
        ref = dense_reference_cost(lam, mu)
        assert res.method == "lp_highs"
        assert abs(res.cost - ref) <= 1e-12 * ref
        assert res.duality_gap <= CERT_RTOL
        assert res.feasibility_violation <= CERT_RTOL

    @pytest.mark.parametrize("n", [8, 11])
    @pytest.mark.parametrize("zero_atoms", [False, True])
    def test_shortlist_lp_matches_dense_reference(self, n, zero_atoms):
        lam, mu = shifted_narrow_pair(n, zero_atoms)
        res = exact_ot(lam, mu)
        self.assert_matches_reference(res, lam, mu)
        # One level, so more than one solve means pricing solved again.
        assert len(res.solves) > 1
        # The exit duals are HiGHS's own: feasible on the full cost and tight
        # on the plan's support, to rounding.
        cost = dense_cost(res.plan)
        slack = res.u[:, None] + res.v[None, :] - cost
        assert slack.max() <= 1e-12 * max(1.0, float(cost.max()))
        assert np.abs(slack[res.plan.mass > 0]).max() <= 1e-12

    @pytest.mark.parametrize("n", [8, 11])
    @pytest.mark.parametrize("zero_atoms", [False, True])
    def test_pyramid_matches_dense_reference(self, n, zero_atoms):
        lam, mu = shifted_narrow_pair(n, zero_atoms)
        res = exact_ot(lam, mu)
        self.assert_matches_reference(res, lam, mu)
        # One LP over the positive atoms, priced until no pair violates.
        assert res.solves[-1].added == 0
        assert {s.atoms for s in res.solves} == {(np.count_nonzero(lam.weights),
                                                  np.count_nonzero(mu.weights))}

    def test_pyramid_on_different_grids_with_odd_extents(self):
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
        # The seed solve runs at two spacings of the coarser grid.
        assert res.seed_stages[-1].epsilon == solvers.SEED_SPACINGS * 0.2

    def test_fine_level_pricing_adds_pairs(self, monkeypatch):
        # Seeds from a Sinkhorn solve at four grid spacings are far enough
        # from the optimal duals that the shortlist around their argmins
        # misses pairs of the optimum, and pricing adds them.
        monkeypatch.setattr(solvers, "SEED_SPACINGS", 4.0)
        lam, mu = lp_pair_2d(12)
        res = exact_ot(lam, mu)
        self.assert_matches_reference(res, lam, mu)
        assert any(s.added > 0 for s in res.solves)

    def test_every_level_opens_on_its_staircase(self, monkeypatch):
        # The shortlist opens with the cells of the north-west staircase,
        # which make the restricted LP feasible, then one star cell per
        # column, tight at the seeds.  Its columns cost c_ij - u_i - v_j at
        # the dual-feasible seeds, and HiGHS opens on the basis of the star
        # cells and the source rows' logicals, so it opens dual-feasible at
        # the seeds.
        from scipy.optimize._highspy import _core

        staircases, levels, columns, bases = [], [], [], []
        staircase, shortlist_lp = solvers._staircase, solvers._shortlist_lp
        add_cols, set_basis, run = _core._Highs.addCols, _core._Highs.setBasis, _core._Highs.run
        monkeypatch.setattr(solvers, "_staircase", lambda ca, cb:
                            staircases.append(staircase(ca, cb)) or staircases[-1])
        monkeypatch.setattr(solvers, "_shortlist_lp", lambda lam, mu, u, v, near_j, near_i:
                            levels.append((u.copy(), v.copy(), near_i.copy()))
                            or shortlist_lp(lam, mu, u, v, near_j, near_i))
        monkeypatch.setattr(_core._Highs, "addCols", lambda self, k, costs, *rest:
                            columns.append((self, np.array(costs), np.array(rest[4])))
                            or add_cols(self, k, costs, *rest))
        monkeypatch.setattr(_core._Highs, "setBasis", lambda self, basis:
                            bases.append((self, len(columns), list(basis.col_status),
                                          list(basis.row_status))) or set_basis(self, basis))
        monkeypatch.setattr(_core._Highs, "run", lambda self:
                            bases.append((self, "run")) or run(self))
        lam, mu = shifted_narrow_pair(8, False)
        res = exact_ot(lam, mu)
        self.assert_matches_reference(res, lam, mu)
        assert len(staircases) == len(levels) == 1
        models = list(dict.fromkeys(call[0] for call in columns))
        assert len(models) == len(levels) == 1
        (u, v, near_i), (si, sj), model = levels[0], staircases[0], models[0]
        # The basis is set once, on the opening columns, before the first run.
        bases = [call for call in bases if call[0] is model]
        assert bases[1:] == [(model, "run")] * len(res.solves)
        owner, opening, col_status, row_status = bases[0]
        assert owner is model and opening == 1
        costs, rows = columns[0][1], columns[0][2]
        rows_lp, cols_lp = np.flatnonzero(lam.weights > 0), np.flatnonzero(mu.weights > 0)
        n, m, k = rows_lp.size, cols_lp.size, si.size
        ii, jj = rows[0::2], rows[1::2] - n
        assert k == n + m - 1
        assert np.array_equal(ii[:k], si) and np.array_equal(jj[:k], sj)
        cost = squared_distances(lam.points[rows_lp[ii]], mu.points[cols_lp[jj]], pairwise=True)
        scale = PRICE_RTOL * max(1.0, float(squared_distances(lam.points, mu.points).max()))
        assert costs.min() >= -scale
        assert np.abs(costs - (cost - u[ii] - v[jj])).max() <= scale
        # One basic star cell per column, at the source that attains its seed.
        B, L = _core.HighsBasisStatus.kBasic, _core.HighsBasisStatus.kLower
        basic = np.array([status == B for status in col_status])
        assert set(col_status) <= {B, L} and row_status == [B] * n + [L] * m
        assert np.array_equal(np.sort(jj[basic]), np.arange(m))
        order = np.argsort(jj[basic])
        assert np.array_equal(rows_lp[ii[basic][order]], near_i)
        assert np.abs(costs[basic]).max() <= scale
        # The LP opens at the seeds of the Sinkhorn solve, not at zero.
        assert min(np.abs(u).max(), np.abs(v).max()) > 0.1

    def test_pricing_selects_only_when_some_pair_violates(self, monkeypatch):
        # This pair takes one solve: its one pricing round finds no violating
        # line, so the shortlist's opening columns are the only ones added.
        from scipy.optimize._highspy import _core

        calls = []
        add_cols = _core._Highs.addCols
        monkeypatch.setattr(_core._Highs, "addCols", lambda self, k, *rest:
                            calls.append(k) or add_cols(self, k, *rest))
        lam, mu = lp_pair_2d(20)
        res = exact_ot(lam, mu)
        assert [s.added for s in res.solves] == [0]
        assert calls == [res.solves[0].pairs]

    def test_solves_record_simplex_iterations(self):
        lam, mu = lp_pair_2d(16)
        first, second = exact_ot(lam, mu).solves, exact_ot(lam, mu).solves
        assert all(s.iterations > 0 for s in first)
        assert [s.iterations for s in first] == [s.iterations for s in second]

    @pytest.mark.parametrize("atom_side", ["source", "target"])
    def test_one_positive_atom_forces_the_plan(self, atom_side):
        # One positive atom against a uniform 30x30 partner: the only
        # feasible plan moves the atom's mass to every partner atom in
        # proportion to its weight.
        spec = GridSpec(dim=2, h=0.1, extent=(30, 30), origin_offset=(14.5, 14.5))
        w = np.zeros(spec.n_points)
        w[5] = 1.0
        atom = GridMeasure(spec=spec, weights=w, alpha=0.5)
        uniform = GridMeasure(spec=spec, weights=np.full(spec.n_points, 1.0 / spec.n_points),
                              alpha=0.5)
        lam, mu = (atom, uniform) if atom_side == "source" else (uniform, atom)
        res = exact_ot(lam, mu)
        expected = math.fsum(uniform.weights * np.sum((spec.points - spec.points[5]) ** 2, axis=1))
        assert res.method == "lp_highs"
        assert res.duality_gap <= CERT_RTOL and res.feasibility_violation <= CERT_RTOL
        assert abs(res.cost - expected) <= 1e-12 * expected

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

    def test_seed_on_identical_measures(self):
        # The seeds come from a Sinkhorn plan spread over neighbours, yet the
        # LP ends on the identity: cost 0, every diagonal pair tight.
        lam = lp_pair_2d(12)[0]
        res = exact_ot(lam, lam)
        self.assert_matches_reference(res, lam, lam)
        assert res.cost == 0.0
        assert np.abs(res.u + res.v).max() <= 1e-12

    def test_seed_on_floor_zero_gaussian_to_uniform(self):
        # Source weights down to 6e-7: the seed solve and the LP both meet
        # atoms of near-zero weight.
        grid = {"dim": 2, "n": 14, "lo": -1.0, "hi": 1.0}
        lam = make_measure({"grid": grid, "alpha": 0.5, "normalize": True,
                            "density": {"kind": "gaussian", "sigma": 0.3, "floor": 0.0}})
        mu = make_measure({"grid": grid, "alpha": 0.5, "normalize": True,
                           "density": {"kind": "uniform"}})
        self.assert_matches_reference(exact_ot(lam, mu), lam, mu)

    def test_seed_solve_bypasses_the_public_sinkhorn(self, monkeypatch):
        # Callers that count their own solves by replacing solvers.sinkhorn,
        # such as a benchmark's probe, must not see exact_ot's seed solve.
        def fail(*args, **kwargs):
            raise AssertionError("exact_ot called solvers.sinkhorn")

        monkeypatch.setattr(solvers, "sinkhorn", fail)
        lam, mu = lp_pair_2d(12)
        res = exact_ot(lam, mu)
        assert res.method == "lp_highs" and res.seed_stages[-1].stop == "converged"

    def test_seed_stop_is_recorded_not_logged(self, monkeypatch, caplog):
        # No setting reaches the seed solve's epsilon or max_iter, so a seed
        # that stops short goes to seed_stages and is not logged with advice
        # to raise them.  At a SEED_TOL of 1e-300 the seed stagnates.
        monkeypatch.setattr(solvers, "SEED_TOL", 1e-300)
        lam, mu = lp_pair_2d(12)
        res = exact_ot(lam, mu)
        assert res.seed_stages[-1].stop == "stagnated"
        assert res.duality_gap <= CERT_RTOL and res.feasibility_violation <= CERT_RTOL
        assert "did not converge" not in caplog.text
        # The caller's own solve at the same settings still warns.
        sinkhorn(lam, mu, res.seed_stages[-1].epsilon, tol=1e-300)
        assert "sinkhorn did not converge (stagnated)" in caplog.text

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
        # 257 and 240 positive atoms, on which the LP runs.
        lam, mu = zero_atom_pair_1d(300)
        monotone = exact_ot(lam, mu)
        lp = _exact_ot_lp(lam, mu)
        assert (monotone.method, lp.method) == ("monotone_1d", "lp_highs")
        assert monotone.solves == []
        assert lp.solves[-1].atoms == (257, 240)
        assert abs(lp.cost - monotone.cost) <= 1e-12 * monotone.cost
        assert lp.duality_gap <= 1e-9 and lp.feasibility_violation <= 1e-9

    def test_certificate_rejects_plan_off_its_marginals(self):
        lam, mu = wavy_pair()
        res = exact_ot(lam, mu)
        ii, jj = np.nonzero(res.plan.mass)
        masses, c_cells = res.plan.mass[ii, jj], dense_cost(res.plan)[ii, jj]

        def certify(masses):
            return _certify(lam, mu, ii, jj, masses, c_cells, res.u.copy(), res.v.copy(),
                            res.method, [])

        assert certify(masses).feasibility_violation <= CERT_RTOL
        # One row sum (and one column sum) off by 1e-7 of the mass.
        off = masses.copy()
        off[np.argmax(off)] += 1e-7 * lam.total_mass
        with pytest.raises(CertificateError, match="violation") as err:
            certify(off)
        violation = float(str(err.value).rsplit("violation ", 1)[1].rstrip(")"))
        assert violation > CERT_RTOL

    @pytest.mark.parametrize("make_pair", [wavy_pair, lambda: odd_extent_pair()],
                             ids=["monotone_1d", "lp_2d"])
    def test_certificate_rejects_nan_dual(self, make_pair):
        # A NaN compares false with the tolerance and is dropped by max, so
        # it once passed for a certified plan.
        lam, mu = make_pair()
        res = exact_ot(lam, mu)
        ii, jj = np.nonzero(res.plan.mass)
        u = res.u.copy()
        u[ii[0]] = np.nan
        with pytest.raises(CertificateError, match="gap nan, violation nan"):
            _certify(lam, mu, ii, jj, res.plan.mass[ii, jj], dense_cost(res.plan)[ii, jj], u,
                     res.v.copy(), res.method, [])

    def test_monotone_certificate_sees_raised_dual_off_the_staircase(self, monkeypatch):
        # Raise the dual of one zero-weight target atom, which no staircase
        # cell meets: the support slack, the marginals and the dual cost stay
        # as they were, and only the dual violation max_i (u_i - v^c_i) over
        # all pairs can see it.
        lam, mu = zero_atom_pair_1d(64)
        assert exact_ot(lam, mu).feasibility_violation <= CERT_RTOL
        calls = []

        def raise_first_zero_column(y, v, x):
            out, best = _c_transform_1d(y, v, x)
            if not calls:
                out[0] += 1e-6
            calls.append(x.size)
            return out, best

        monkeypatch.setattr(solvers, "_c_transform_1d", raise_first_zero_column)
        with pytest.raises(CertificateError, match="violation") as err:
            _exact_ot_monotone(lam, mu)
        assert calls[0] == np.count_nonzero(mu.weights == 0)
        violation = float(str(err.value).rsplit("violation ", 1)[1].rstrip(")"))
        assert violation > CERT_RTOL

    def test_lp_certificate_sees_raised_dual_off_the_plan(self, monkeypatch):
        # The 2-d analogue: raise the completed dual of one zero-weight target
        # atom, tight against a positive source atom, on the zero-atom pair of
        # test_pyramid_on_different_grids_with_odd_extents.  The LP's two
        # seeds are the first two c-transforms, and each solve's pricing two
        # more, one over the positive atoms of each side; the completion
        # follows them.
        lam, mu = odd_extent_pair()
        res = exact_ot(lam, mu)
        assert res.feasibility_violation <= CERT_RTOL
        zero = np.flatnonzero(mu.weights == 0)
        slack = (res.u[:, None] + res.v[zero] - dense_cost(res.plan)[:, zero])[lam.weights > 0]
        k = int(np.argmax(slack.max(axis=0)))
        assert slack[:, k].max() >= -1e-12
        calls = []

        completion = 2 + 2 * len(res.solves)

        def raise_tight_zero_column(spec, v, x):
            out, best = _c_transform_grid(spec, v, x)
            if len(calls) == completion:
                out[k] += 1e-6
            calls.append(len(x))
            return out, best

        monkeypatch.setattr(solvers, "_c_transform_grid", raise_tight_zero_column)
        with pytest.raises(CertificateError, match="violation") as err:
            exact_ot(lam, mu)
        pricing = [np.count_nonzero(lam.weights), np.count_nonzero(mu.weights)]
        assert calls[:completion + 1] == [lam.spec.n_points, np.count_nonzero(mu.weights),
                                          *pricing * len(res.solves),
                                          np.count_nonzero(mu.weights == 0)]
        violation = float(str(err.value).rsplit("violation ", 1)[1].rstrip(")"))
        assert violation > CERT_RTOL

    @pytest.mark.parametrize("method, status, message", [
        ("getModelStatus", "HighsModelStatus.kUnknown", "model status Unknown"),
        ("run", "HighsStatus.kError", "run status kError"),
    ], ids=["model_status_unknown", "run_error"])
    def test_failed_highs_solve_raises_naming_its_status(self, monkeypatch, method, status,
                                                         message):
        # highs-ipm once ended a 48x48 pyramid solve in model status 15,
        # Unknown.  A status other than Optimal, or a run that returns kError,
        # fails the solve instead of pricing on its duals.
        from scipy.optimize._highspy import _core

        kind, member = status.split(".")
        monkeypatch.setattr(_core._Highs, method, lambda self: getattr(getattr(_core, kind), member))
        lam, mu = shifted_narrow_pair(8, False)
        with pytest.raises(CertificateError, match=f"transport LP failed: .*{message}"):
            exact_ot(lam, mu)

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
    envelope, best = _c_transform_1d(y, v, x)
    assert np.array_equal(envelope, (x - y[best]) ** 2 - v[best])
    # Each entry is one of the dense terms, evaluated the same way, so it can
    # only miss the minimum where rounding misplaces a crossing.
    assert np.all(envelope >= dense)
    assert np.all(envelope - dense <= 1e-13 * (float(cost.max()) + float(np.abs(v).max())))


@st.composite
def grid_envelope_cases(draw):
    """Source and target grids of one dimension, each of its own spacing,
    extent and origin, and target duals up to the size of the largest cost."""
    dim = draw(st.sampled_from([1, 2]))

    def grid():
        extent = tuple(draw(st.integers(2, 12)) for _ in range(dim))
        return GridSpec(dim=dim, h=draw(st.floats(1e-2, 3.0)), extent=extent,
                        origin_offset=tuple(draw(st.floats(0.0, 1.0)) * (n - 1) for n in extent))

    src, tgt = grid(), grid()
    cost = ((src.points[:, None, :] - tgt.points[None, :, :]) ** 2).sum(axis=2)
    v = np.asarray(draw(st.lists(st.floats(-1.0, 1.0), min_size=tgt.n_points,
                                 max_size=tgt.n_points))) * max(1.0, float(cost.max()))
    # The LP's seeds give the zero-weight atoms -inf, and keep one finite.
    if draw(st.booleans()):
        dropped = np.asarray(draw(st.lists(st.booleans(), min_size=tgt.n_points,
                                           max_size=tgt.n_points)))
        dropped[draw(st.integers(0, tgt.n_points - 1))] = False
        v[dropped] = -np.inf
    return src, tgt, v, cost


@settings(max_examples=150, deadline=None, derandomize=True)
@given(grid_envelope_cases())
def test_c_transform_grid_matches_dense(case):
    src, tgt, v, cost = case
    dense = np.min(cost - v[None, :], axis=1)
    envelope, best = _c_transform_grid(tgt, v, src.points)
    assert not np.isnan(envelope).any()
    # In d = 2 the per-axis terms are added in another order than the dense
    # sum, so the two agree to rounding, within the 1-d test's tolerance.
    scale = float(cost.max()) + float(np.abs(v[np.isfinite(v)]).max())
    assert np.all(np.abs(envelope - dense) <= 1e-13 * scale)
    # The argmin is a flat index of the target grid, never one of a -inf
    # dual, and the dense reduced cost there is the returned minimum.
    assert best.shape == envelope.shape and np.isfinite(v[best]).all()
    at_best = cost[np.arange(best.size), best] - v[best]
    assert np.all(np.abs(at_best - envelope) <= 1e-13 * scale)


HIGHS_NAMES = ["_Highs", "HighsSolution.col_value", "HighsSolution.row_dual",
               "HighsInfo.simplex_iteration_count", "HighsModelStatus.kOptimal",
               "HighsStatus.kError", "HighsBasis", "HighsBasisStatus.kBasic",
               "HighsBasisStatus.kLower",
               *(f"_Highs.{method}" for method in (
                   "setOptionValue", "addRows", "addCols", "setBasis", "run", "getModelStatus",
                   "modelStatusToString", "getInfo", "getSolution"))]


def test_highs_binding_has_every_name_the_lp_uses():
    # The 2-d LP drives the HiGHS binding bundled in scipy, which is private:
    # a scipy that moves or renames one of these names fails here, by name.
    import scipy

    try:
        from scipy.optimize._highspy import _core
    except ImportError as exc:
        pytest.fail(f"scipy {scipy.__version__} has no scipy.optimize._highspy._core: {exc}")
    missing = []
    for name in HIGHS_NAMES:
        owner = _core
        for part in name.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            missing.append(name)
    assert not missing, (f"scipy {scipy.__version__}'s scipy.optimize._highspy._core lacks "
                         f"{', '.join(missing)}, which the 2-d exact-OT LP uses")


# A 2-d exact_ot in a fresh process: whether it loaded scipy.optimize, and a
# digest of every output bit.  ``{patch}`` runs after eotlab is imported.
HIGHS_PROBE = """
import hashlib, sys
import numpy as np
import eotlab.solvers as solvers
from eotlab import exact_ot, measure_from_density, symmetric_grid
{patch}
spec = symmetric_grid(2, 6, -1.0, 1.0)
lam = measure_from_density(spec, lambda p: np.ones(len(p)), 0.5, normalize=True)
mu = measure_from_density(spec, lambda p: 1.0 + 0.5 * p[:, 0], 0.5, normalize=True)

def digest():
    res = exact_ot(lam, mu)
    parts = (res.plan.mass, res.u, res.v, np.array([res.cost, res.duality_gap]))
    return hashlib.sha256(b"".join(a.tobytes() for a in parts)).hexdigest()

first = digest()
print("scipy.optimize" in sys.modules, first)
import scipy.optimize
from scipy.optimize._highspy import _core
print(_core is solvers._highs_binding(), digest() == first)
"""


def run_highs_probe(patch=""):
    src = str(Path(solvers.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", HIGHS_PROBE.format(patch=patch)],
                          env=dict(os.environ, PYTHONPATH=path), capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return [line.split() for line in proc.stdout.splitlines()]


def test_lp_loads_the_highs_binding_without_scipy_optimize():
    # The binding's extension file is loaded by itself, and a later
    # ``import scipy.optimize`` reuses it.  When the file lookup finds
    # nothing, the usual import runs and loads scipy.optimize.  Both give
    # the same bits.
    (loaded, direct), (reused, same) = run_highs_probe()
    assert (loaded, reused, same) == ("False", "True", "True")
    (loaded, fallback), (reused, same) = run_highs_probe(
        "import importlib.machinery; importlib.machinery.EXTENSION_SUFFIXES = []")
    assert (loaded, reused, same) == ("True", "True", "True")
    assert direct == fallback


@st.composite
def lp_grid_pairs(draw):
    """Two 2-d grid measures of up to 12 x 12 points, each on a grid of its own
    extent, spacing and origin, with zero-weight atoms on either side and
    equal total masses."""
    def side():
        extent = (draw(st.integers(2, 12)), draw(st.integers(2, 12)))
        spec = GridSpec(dim=2, h=draw(st.floats(0.05, 0.5)), extent=extent,
                        origin_offset=tuple(draw(st.floats(0.0, 1.0)) * (n - 1) for n in extent))
        w = np.asarray(draw(st.lists(st.one_of(st.just(0.0), st.floats(0.01, 1.0)),
                                     min_size=spec.n_points, max_size=spec.n_points)))
        assume(w.sum() > 0)
        return GridMeasure(spec=spec, weights=w / w.sum(), alpha=0.5)

    return side(), side()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(pair=lp_grid_pairs())
def test_pyramid_lp_matches_dense_reference_on_random_pairs(pair):
    lam, mu = pair
    res = exact_ot(lam, mu)
    ref = dense_reference_cost(lam, mu)
    assert res.method == "lp_highs"
    assert abs(res.cost - ref) <= 1e-12 * max(ref, np.finfo(float).tiny)
    assert res.duality_gap <= CERT_RTOL
    assert res.feasibility_violation <= CERT_RTOL


@st.composite
def sinkhorn_grid_pairs(draw):
    """Two 2-d grid measures of 2 to 12 points per axis, each on a grid of its
    own extent, spacing and origin, with equal total masses, and an epsilon
    of 0.3 to 8 of the larger spacing.  Every atom has positive weight, or,
    in about a third of the examples, a fifth of each side's atoms (at least
    one) have weight 0."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sparse = rng.random() < 0.5

    def side():
        extent = (draw(st.integers(2, 12)), draw(st.integers(2, 12)))
        spec = GridSpec(dim=2, h=draw(st.floats(0.05, 0.5)), extent=extent,
                        origin_offset=tuple(draw(st.floats(0.0, 1.0)) * (n - 1) for n in extent))
        w = np.asarray(draw(st.lists(st.floats(0.01, 1.0), min_size=spec.n_points,
                                     max_size=spec.n_points)))
        if sparse:
            w[rng.choice(w.size, size=max(1, round(0.2 * w.size)), replace=False)] = 0.0
        return GridMeasure(spec=spec, weights=w / w.sum(), alpha=0.5)

    lam, mu = side(), side()
    return lam, mu, max(lam.spec.h, mu.spec.h) * draw(st.floats(0.3, 8.0))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(case=sinkhorn_grid_pairs())
def test_sinkhorn_2d_result_consistent_on_random_pairs(case):
    # Read from the result alone: the plan is the Gibbs form of the returned
    # potentials, meets its marginals, and its cost and entropy give the
    # reported entropic cost.
    lam, mu, eps = case
    tol = 1e-9
    res = sinkhorn(lam, mu, eps, tol=tol)
    plan = res.plan.mass
    cost = dense_cost(res.plan)
    gibbs = (np.exp((res.f[:, None] + res.g[None, :] - cost) / eps**2)
             * lam.weights[:, None] * mu.weights[None, :])
    assert np.abs(plan - gibbs).max() <= 1e-12 * plan.max()
    assert res.converged and res.marg_err <= tol
    assert max(np.abs(plan.sum(axis=1) - lam.weights).sum(),
               np.abs(plan.sum(axis=0) - mu.weights).sum()) <= tol
    pos = plan > 0
    ref = lam.weights[:, None] * mu.weights[None, :]
    direct = float(np.sum(cost * plan) + eps**2 * np.sum(plan[pos] * np.log(plan[pos] / ref[pos])))
    assert abs(entropic_cost(res) - direct) <= 1e-12 * abs(direct)
    assert gibbs_identity_check(res, 200) <= 1e-6


@settings(max_examples=40, deadline=None, derandomize=True)
@given(case=sinkhorn_grid_pairs())
def test_separable_cost_max_is_the_dense_maximum(case):
    # On product grids the largest squared distance is the sum of the
    # per-axis maxima, in the same bits as the maximum of the dense cost;
    # the solve reads it over the whole grids, zero-weight atoms included.
    lam, mu, eps = case
    seen = []

    class Stop(Exception):
        pass

    def ladder(epsilon, cost_max):
        seen.append(cost_max)
        raise Stop

    with mock.patch.object(solvers, "_epsilon_ladder", ladder), pytest.raises(Stop):
        sinkhorn(lam, mu, eps)
    assert seen == [float(squared_distances(lam.points, mu.points).max())]


def sinkhorn_pair_2d(n):
    grid = {"dim": 2, "n": n, "lo": -1.0, "hi": 1.0}
    return tuple(make_measure({"grid": grid, "alpha": 0.5, "normalize": True, "density": d})
                 for d in ({"kind": "perturbed_uniform", "amplitude": 0.2, "freq": 1.0},
                           {"kind": "gaussian", "sigma": 0.5, "floor": 0.3,
                            "center": [0.05, -0.05]}))


class TestFactoredKernel:
    """Sinkhorn keeps every stage's kernel in per-axis factors, at any
    epsilon and with zero-weight atoms; ``log_domain_reference`` is the
    same solve on the dense cost."""

    @pytest.fixture
    def cost_reads(self, monkeypatch):
        """The calls to squared_distances, the dense cost, that solves make."""
        calls = []
        original = solvers.squared_distances
        monkeypatch.setattr(solvers, "squared_distances",
                            lambda *args, **kw: calls.append(args) or original(*args, **kw))
        return calls

    @staticmethod
    def assert_matches_reference(lam, mu, eps, monkeypatch, cost_reads, max_iter=100_000):
        # With relaxation capped at 1 the iterates are plain Sinkhorn's.
        monkeypatch.setattr(solvers, "OMEGA_MAX", 1.0)
        res = sinkhorn(lam, mu, eps, tol=1e-9, max_iter=max_iter)
        assert cost_reads == []
        ladder = solvers._epsilon_ladder(eps, float(squared_distances(lam.points,
                                                                      mu.points).max()))
        ref, iterations = log_domain_reference(lam, mu, ladder, 1e-9, max_iter)
        assert res.iterations == iterations
        plan = res.plan.mass / res.mass
        keep = (plan > np.finfo(float).tiny) | (ref > np.finfo(float).tiny)
        np.testing.assert_allclose(plan[keep], ref[keep], rtol=1e-9, atol=0)
        return res

    @pytest.mark.parametrize("eps", [0.5, 0.32])
    def test_matches_dense_kernel(self, cost_reads, monkeypatch, eps):
        lam, mu = sinkhorn_pair_2d(20)
        res = self.assert_matches_reference(lam, mu, eps, monkeypatch, cost_reads)
        assert res.converged
        assert gibbs_identity_check(res, 500) <= 1e-6

    @pytest.mark.parametrize("weight", [0.0, 1e-60])
    def test_extreme_weight_atom_runs_factored(self, cost_reads, monkeypatch, weight):
        # A zero-weight atom has alpha 0, and an atom of weight 1e-60 an
        # alpha far below 1/ABSORB_BOUND: neither bounds the iteration.
        lam, mu = sinkhorn_pair_2d(12)
        w = lam.weights.copy()
        w[17] = weight
        lam = GridMeasure(lam.spec, w / w.sum(), 0.5)
        res = self.assert_matches_reference(lam, mu, 0.32, monkeypatch, cost_reads)
        assert res.converged and res.plan.mass[17].sum() <= 1e-55

    def test_small_epsilon_stages_stay_factored(self, cost_reads, monkeypatch):
        # At eps = 0.02 the potentials over eps^2 span hundreds of units, but
        # their per-axis parts go into the factors: every stage of the
        # ladder stays factored.  A single stage at that epsilon, opened from
        # f = g = 0, takes the reference's first 40 plain iterations.
        lam, mu = sinkhorn_pair_2d(20)
        assert len(sinkhorn(lam, mu, 0.02, tol=1e-9).stages) == 7
        assert cost_reads == []
        single_stage(monkeypatch)
        res = self.assert_matches_reference(lam, mu, 0.02, monkeypatch, cost_reads, max_iter=40)
        assert res.stages[0].stop == "stage_cap"

    def test_absorption_stays_factored(self, cost_reads, monkeypatch):
        # With bounds of 1e3 the scalings leave them: each such iteration is
        # redone as a log-domain sweep, one pass per axis, and the solve
        # goes on with new factors.
        monkeypatch.setattr(solvers, "ABSORB_BOUND", 1e3)
        lam, mu = sinkhorn_pair_2d(20)
        res = self.assert_matches_reference(lam, mu, 0.32, monkeypatch, cost_reads)
        assert sum(s.absorptions for s in res.stages) >= 1
        assert res.converged and res.marg_err <= 1e-9
        assert gibbs_identity_check(res, 500) <= 1e-6

    def test_size_guard_counts_the_plan_up_front(self, monkeypatch):
        # The guard counts the plan's two n x m arrays and the small per-axis
        # arrays, zero-weight atoms or not: three n x m arrays admit both
        # solves, two refuse both before the first allocation.
        lam, mu = sinkhorn_pair_2d(20)
        w = lam.weights.copy()
        w[17] = 0.0
        sparse_lam = GridMeasure(lam.spec, w / w.sum(), 0.5)
        n_m = lam.spec.n_points * mu.spec.n_points
        monkeypatch.setattr(grids, "DENSE_BYTES_LIMIT", 3 * 8 * n_m)
        assert sinkhorn(lam, mu, 0.32, tol=1e-9).converged
        assert sinkhorn(sparse_lam, mu, 0.32, tol=1e-9).converged
        monkeypatch.setattr(grids, "DENSE_BYTES_LIMIT", 2 * 8 * n_m)
        for source in (lam, sparse_lam):
            with pytest.raises(SizeError, match="sinkhorn on 400 x 400 support points"):
                sinkhorn(source, mu, 0.32, tol=1e-9)

    def test_size_guard_admits_a_90x90_grid(self):
        # At the default limit a 90 x 90 pair with zero-weight atoms passes
        # the guard; the solve is stopped as it reads the ladder.
        lam, mu = sinkhorn_pair_2d(90)
        w = lam.weights.copy()
        w[::5] = 0.0
        lam = GridMeasure(lam.spec, w / w.sum(), 0.5)

        class Stop(Exception):
            pass

        def ladder(epsilon, cost_max):
            raise Stop

        with mock.patch.object(solvers, "_epsilon_ladder", ladder), pytest.raises(Stop):
            sinkhorn(lam, mu, 0.1)

    def test_peak_memory_is_the_plan(self):
        # A 2-d solve forms no n x m array.
        lam, mu = sinkhorn_pair_2d(20)
        tracemalloc.start()
        try:
            sinkhorn(lam, mu, 0.32, tol=1e-9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 8 * lam.spec.n_points * mu.spec.n_points

    def test_plan_is_formed_on_first_read(self, cost_reads):
        # With the plan unread, the solve forms no n x m array and no dense
        # cost.  Read, the plan is exp((f_i + g_j - c_ij)/eps^2 + log a_i +
        # log b_j) mass, which the test forms from the returned potentials
        # (mass 1, so f and g are the solve's own) in the same operations; a
        # second read returns it again.
        lam, mu = sinkhorn_pair_2d(20)
        eps2 = 0.32 * 0.32
        tracemalloc.start()
        try:
            res = sinkhorn(lam, mu, 0.32, tol=1e-9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.5 * 8 * lam.spec.n_points * mu.spec.n_points
        assert res.mass == 1.0 and cost_reads == []
        expected = squared_distances(lam.points, mu.points)
        np.subtract(res.f[:, None], expected, out=expected)
        expected += res.g[None, :]
        expected /= eps2
        expected += np.log(lam.weights / lam.total_mass)[:, None]
        expected += np.log(mu.weights / mu.total_mass)[None, :]
        np.exp(expected, out=expected)
        expected *= res.mass
        plan = res.plan
        assert np.array_equal(plan.mass, expected)
        assert res.plan is plan and len(cost_reads) == 1


def odd_extent_pair():
    """2-d source and target on grids of their own spacing, odd extents and
    origin, with about a fifth of the atoms of zero weight on each side."""
    rng = np.random.default_rng(5)
    src = GridSpec(dim=2, h=0.2, extent=(9, 7), origin_offset=(4.0, 3.0))
    tgt = GridSpec(dim=2, h=0.15, extent=(11, 5), origin_offset=(4.5, 2.0))
    wl, wm = rng.random(src.n_points), rng.random(tgt.n_points)
    wl[rng.random(wl.size) < 0.2] = 0.0
    wm[rng.random(wm.size) < 0.2] = 0.0
    return (GridMeasure(spec=src, weights=wl / wl.sum(), alpha=0.5),
            GridMeasure(spec=tgt, weights=wm / wm.sum(), alpha=0.5))


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
    ("lp_highs", lambda: lp_pair_2d(16), exact_ot, solvers.PLAN_ARRAYS),
    ("lp_highs", lambda: lp_pair_2d(20), exact_ot, solvers.PLAN_ARRAYS),
    ("monotone_1d", lambda: zero_atom_pair_1d(512), exact_ot, solvers.PLAN_ARRAYS),
    # In d = 1 the Sinkhorn guard counts the plan's arrays and three n x m
    # arrays per axis: the cost, the factor and a log-domain sweep's pass.
    (None, lambda: curved_pair(512), lambda lam, mu: sinkhorn(lam, mu, 0.1, tol=1e-9),
     solvers.PLAN_ARRAYS + 3),
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


def test_lp_peak_memory_holds_no_full_cost():
    # The 2-d LP reads its cost on the shortlist's cells, and prices and
    # certifies with c-transforms over the grids, so no cost over the full
    # grids is formed.
    lam, mu = lp_pair_2d(20)
    tracemalloc.start()
    try:
        res = exact_ot(lam, mu)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.method == "lp_highs"
    assert peak <= 4 * 8 * lam.spec.n_points * mu.spec.n_points


def two_line_pair():
    """A 2-d pair on one grid of two lines of 200 points, weights 0.5 + U(0, 1)."""
    rng = np.random.default_rng(1)
    spec = GridSpec(dim=2, h=0.01, extent=(2, 200), origin_offset=(0.5, 99.5))
    weights = [0.5 + rng.random(spec.n_points) for _ in range(2)]
    return tuple(GridMeasure(spec=spec, weights=w / w.sum(), alpha=0.5) for w in weights)


def test_lp_peak_memory_with_the_plan_unread():
    # The LP reads its reduced costs in row blocks, and the plan is built
    # from its cells on first read: with the plan unread, the cost on the
    # positive atoms and its shortlist mask are the only n x m arrays.  The
    # c-transforms of the seeds and the certificate hold at most n x m / 2
    # entries, before the cost is formed and after it is dropped; on the
    # grid of two lines the seeds' first one reaches that bound.
    for lam, mu in (lp_pair_2d(20), two_line_pair()):
        tracemalloc.start()
        try:
            res = exact_ot(lam, mu)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.method == "lp_highs"
        assert peak <= 2 * 8 * lam.spec.n_points * mu.spec.n_points
        plan = res.plan
        assert res.plan is plan
        assert abs(float(np.sum(plan.mass * dense_cost(plan))) - res.cost) <= 1e-12 * res.cost


@pytest.mark.parametrize("make_pair, bound", [
    (lambda: sinkhorn_pair_2d(20), 0.5),
    (lambda: sinkhorn_pair_2d(32), 0.25),
    (two_line_pair, 1.1),
], ids=["size_pair_20", "size_pair_32", "two_lines"])
def test_lp_peak_memory_holds_no_pair_array(make_pair, bound):
    # The LP reads the cost on its shortlist's cells only and prices with
    # c-transforms over the grids, so with the plan unread it holds no n x m
    # array: the peaks measure 0.38, 0.15 and 0.96 n x m, where a cost over
    # the positive atoms and a shortlist mask took 1.59, 1.22 and 1.59.  On
    # the grid of two lines the seeds' first reduction holds n x m / 2.
    lam, mu = make_pair()
    exact_ot(*lp_pair_2d(6))  # the HiGHS binding's first load is not the LP's
    tracemalloc.start()
    try:
        res = exact_ot(lam, mu)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.method == "lp_highs" and "plan" not in vars(res)
    assert peak <= bound * 8 * lam.spec.n_points * mu.spec.n_points


def crossed_line_pair():
    """A 2-d pair of two lines of 200 points each, the target's lines across
    the source's, weights 0.5 + U(0, 1): Sinkhorn at epsilon 0.02 on it stops
    non_finite."""
    rng = np.random.default_rng(1)
    specs = [GridSpec(dim=2, h=0.01, extent=(2, 200), origin_offset=(0.5, 99.5)),
             GridSpec(dim=2, h=0.01, extent=(200, 2), origin_offset=(99.5, 0.5))]
    weights = [0.5 + rng.random(spec.n_points) for spec in specs]
    return tuple(GridMeasure(spec=spec, weights=w / w.sum(), alpha=0.5)
                 for spec, w in zip(specs, weights))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_non_finite_stop_raises_no_runtime_warning():
    # The stage that stops non_finite leaves NaN scalings; the cost
    # contraction over them reports the stop, not floating-point warnings.
    lam, mu = crossed_line_pair()
    res = sinkhorn(lam, mu, 0.02)
    assert res.stages[-1].stop == "non_finite" and not res.converged
    # exact_ot's seed solve hits the same stop, and the LP still certifies.
    ot = exact_ot(lam, mu)
    assert ot.seed_stages[-1].stop == "non_finite"
    TestExactOT.assert_matches_reference(ot, lam, mu)
    assert len(ot.solves) <= 9
