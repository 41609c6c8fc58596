"""Couplings: marginal checks, regions, local energy, affine fit."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eotlab import (
    Coupling,
    ConfigError,
    DomainError,
    GridMeasure,
    HashRegion,
    affine_fit,
    check_marginals,
    diagonal_coupling,
    load_coupling,
    local_energy,
    long_trajectory_stats,
    measure_from_density,
    monge_coupling,
    save_coupling,
    symmetric_grid,
)
from eotlab import couplings
from eotlab.grids import hull_reach
from conftest import dense_cost, grid_couplings, line_measure, region_mask, region_radii


@pytest.fixture
def random_coupling():
    rng = np.random.default_rng(11)
    xs = np.arange(-4, 5) * 0.25
    lam_w = 0.5 + rng.random(xs.size)
    mass = rng.random((xs.size, xs.size))
    lam = line_measure(xs, mass.sum(axis=1), h=0.25)
    mu = line_measure(xs, mass.sum(axis=0), h=0.25)
    return Coupling(source=lam, target=mu, mass=mass)


def brute_force_local_energy(pi, R):
    total = 0.0
    x, y = pi.source.points, pi.target.points
    for i in range(x.shape[0]):
        for j in range(y.shape[0]):
            if np.linalg.norm(x[i]) <= R or np.linalg.norm(y[j]) <= R:
                total += np.sum((x[i] - y[j]) ** 2) * pi.mass[i, j]
    return total / R ** (pi.dim + 2)


class TestMarginals:
    def test_diagonal_passes(self, uniform_1d):
        assert check_marginals(diagonal_coupling(uniform_1d), tol=1e-15).ok

    def test_single_entry_perturbation_detected(self, uniform_1d):
        pi = diagonal_coupling(uniform_1d)
        mass = pi.mass.copy()
        mass[3, 5] += 1e-3
        perturbed = Coupling(source=pi.source, target=pi.target, mass=mass)
        report = check_marginals(perturbed, tol=1e-6)
        assert not report.ok
        row_mass = uniform_1d.weights[3]
        assert report.max_row_err == pytest.approx(1e-3 / row_mass, rel=1e-9)


    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries_rejected(self, uniform_1d, bad):
        # A NaN or +inf entry once passed the sign test, and every statistic
        # of the plan, and its marginal budget in apply_to_coupling, read nan or inf.
        mass = diagonal_coupling(uniform_1d).mass.copy()
        mass[3, 5] = bad
        with pytest.raises(DomainError, match="finite and nonnegative"):
            Coupling(source=uniform_1d, target=uniform_1d, mass=mass)

    def test_errors_are_summed_once_per_coupling(self, random_coupling, monkeypatch):
        # The plan is read-only, so its errors are cached like its cost: a
        # second check, at another tolerance, sums no row or column again.
        calls = []
        original = couplings._relative_errors
        monkeypatch.setattr(couplings, "_relative_errors",
                            lambda sums, w: calls.append(1) or original(sums, w))
        pi = Coupling(source=random_coupling.source, target=random_coupling.target,
                      mass=random_coupling.mass)
        first, second = check_marginals(pi, tol=1.0), check_marginals(pi, tol=0.0)
        assert len(calls) == 2  # the row sums and the column sums, once
        assert (first.max_row_err, first.max_col_err) == (second.max_row_err, second.max_col_err)
        assert first.ok and (second.ok == (first.max_row_err == first.max_col_err == 0.0))


class TestLocalEnergy:
    def test_diagonal_coupling_is_zero(self, uniform_1d):
        assert local_energy(diagonal_coupling(uniform_1d), 1.0) == 0.0

    @pytest.mark.parametrize("R", [0.3, 0.5, 1.0])
    def test_diagonal_coupling_is_zero_off_centre(self, R):
        # Each diagonal cost is the difference of a point with itself, exactly
        # 0, wherever the grid sits; x^2 + y^2 - 2xy left up to 8.9e-16 here.
        spec = symmetric_grid(dim=2, n=33, lo=-1.3, hi=0.7)
        m = measure_from_density(spec, lambda p: 1.0 + 0.5 * p[:, 0] * p[:, 1], alpha=0.5,
                                 normalize=True)
        assert local_energy(diagonal_coupling(m), R) == 0.0

    def test_single_atom_value(self):
        lam = line_measure([0.0], [1.0], h=0.5)
        mu = line_measure([0.5], [1.0], h=0.5)
        pi = monge_coupling(lam, mu, np.array([1, 0]))
        assert local_energy(pi, 1.0) == pytest.approx(0.25)

    def test_matches_brute_force(self, random_coupling, random_coupling_2d):
        for pi in (random_coupling, random_coupling_2d):
            for R in (0.3, 0.7, 1.5):
                assert local_energy(pi, R) == pytest.approx(
                    brute_force_local_energy(pi, R), rel=1e-12
                )

    def test_nonpositive_radius_rejected(self, random_coupling):
        with pytest.raises(DomainError):
            local_energy(random_coupling, 0.0)

    @pytest.mark.parametrize("R", [1e308, 1e-200])
    def test_radius_whose_power_overflows_rejected(self, random_coupling, R):
        # R^3 overflows or underflows the float range.
        with pytest.raises(DomainError, match="out of range"):
            local_energy(random_coupling, R)


class TestHashRegion:
    """The region's reads agree with masked sums over the dense plan."""

    def test_reads_match_direct_sums(self, random_coupling, random_coupling_2d):
        for pi in (random_coupling, random_coupling_2d):
            x, y = pi.source.points, pi.target.points
            dist2 = np.sum((x[:, None, :] - y[None, :, :]) ** 2, axis=2)
            for R, t in ((0.3, 0.2), (0.7, 0.5)):
                region = HashRegion(R)
                inside = ((np.linalg.norm(x, axis=1) <= R)[:, None]
                          | (np.linalg.norm(y, axis=1) <= R)[None, :])
                np.testing.assert_array_equal(region_mask(region, pi), inside)
                long = region_mask(region, pi, t)
                np.testing.assert_array_equal(long, inside & (dist2 >= t**2 - 1e-12))
                assert region.energy(pi) == pytest.approx(np.sum((dist2 * pi.mass)[inside]))
                assert region.energy(pi, threshold=t) == pytest.approx(
                    np.sum((dist2 * pi.mass)[long]))
                assert region.mass(pi) == pytest.approx(np.sum(pi.mass[inside]))
                assert region.mass(pi, threshold=t) == pytest.approx(np.sum(pi.mass[long]))

    def test_row_moments_and_residual(self, random_coupling_2d):
        pi = random_coupling_2d
        region = HashRegion(0.5)
        plan = np.where(region_mask(region, pi), pi.mass, 0.0)
        rows = plan.sum(axis=1) > 0
        x, w, s, residual = region.row_moments(pi)
        np.testing.assert_array_equal(x, pi.source.points[rows])
        np.testing.assert_allclose(w, plan.sum(axis=1)[rows])
        np.testing.assert_allclose(s, plan[rows] @ pi.target.points)
        pred = x + 0.1
        y = pi.target.points
        direct = sum(plan[rows][i, j] * np.sum((y[j] - pred[i]) ** 2)
                     for i in range(pred.shape[0]) for j in range(y.shape[0]))
        assert residual(pred) == pytest.approx(direct, rel=1e-12)

    @pytest.mark.parametrize("R", [0.0, -1.0, float("nan")])
    def test_nonpositive_radius_rejected(self, R):
        with pytest.raises(DomainError, match="radius must be positive"):
            HashRegion(R)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(pi=grid_couplings(), R=region_radii,
           threshold=st.one_of(st.none(), st.just(0.0), st.floats(0.0, 3.0)))
    def test_blocks_cover_the_dense_mask_and_sum_alike(self, pi, R, threshold):
        region = HashRegion(R)
        dense = region_mask(region, pi, threshold)
        covered = np.zeros(pi.mass.shape, dtype=int)
        for rows, cols, where in region.blocks(pi, threshold):
            block = covered[rows, cols]
            block += np.broadcast_to(True if where is None else where, block.shape)
        np.testing.assert_array_equal(covered, dense)  # disjoint, and exactly the region
        energy = np.sum(dense_cost(pi) * pi.mass, where=dense)
        mass = np.sum(pi.mass, where=dense)
        got = region.energy(pi, threshold=threshold), region.mass(pi, threshold=threshold)
        assert all(isinstance(v, float) for v in got)  # 0.0, not 0, on an empty region
        assert abs(got[0] - energy) <= 1e-13 * energy
        assert abs(got[1] - mass) <= 1e-13 * mass

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(pi=grid_couplings(), R=region_radii)
    def test_row_moments_match_the_dense_plan(self, pi, R):
        plan = np.where(region_mask(HashRegion(R), pi), pi.mass, 0.0)
        rows = plan.sum(axis=1) > 0
        plan = plan[rows]
        y = pi.target.points
        x, w, s, residual = HashRegion(R).row_moments(pi)
        np.testing.assert_array_equal(x, pi.source.points[rows])
        np.testing.assert_allclose(w, plan.sum(axis=1), rtol=1e-13, atol=0)
        # S_i can cancel; bound its error by the sum of |P_ij y_j|.
        assert np.all(np.abs(s - np.einsum("ij,ja->ia", plan, y))
                      <= 1e-13 * np.einsum("ij,ja->ia", plan, np.abs(y)))
        pred = x + np.linspace(-0.3, 0.3, x.shape[0])[:, None]
        direct = np.einsum("ij,ija->", plan, (y[None, :, :] - pred[:, None, :]) ** 2)
        assert abs(residual(pred) - direct) <= 1e-13 * direct

    def test_reads_stay_off_the_dense_plan(self):
        # At R = 0.1 the 1-d region is about a fifth of the plan; every read
        # walks it in blocks, so no call holds anything near one n x m array.
        # At R = 0.8 the 2-d region is nearly all of the plan, which its reads
        # take through per-axis sums, so they hold no block-sized array.
        spec = symmetric_grid(dim=1, n=512, lo=-1.0, hi=1.0)
        lam = GridMeasure(spec, np.full(512, 1.0 / 512), 0.5)
        pi = Coupling(source=lam, target=lam,
                      mass=np.random.default_rng(5).random((512, 512)) / 512**2)
        spec_2d = symmetric_grid(dim=2, n=32, lo=-1.0, hi=1.0)
        lam_2d = GridMeasure(spec_2d, np.full(1024, 1.0 / 1024), 0.5)
        pi_2d = Coupling(source=lam_2d, target=lam_2d,
                         mass=np.random.default_rng(6).random((1024, 1024)) / 1024**2)
        for plan, read in ((pi, lambda: local_energy(pi, 0.1)),
                           (pi, lambda: long_trajectory_stats(pi, 0.1, 0.7)),
                           (pi, lambda: affine_fit(pi, 0.1)),
                           (pi_2d, lambda: local_energy(pi_2d, 0.8)),
                           (pi_2d, lambda: affine_fit(pi_2d, 0.8))):
            tracemalloc.start()
            try:
                read()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 0.5 * plan.mass.nbytes


class TestLongTrajectories:
    def test_diagonal_is_empty(self, uniform_1d):
        stats = long_trajectory_stats(diagonal_coupling(uniform_1d), 0.5, 0.1)
        assert stats.energy == 0.0 and stats.mass == 0.0

    def test_threshold_beyond_diameter_is_empty(self, random_coupling, random_coupling_2d):
        for pi in (random_coupling, random_coupling_2d):
            stats = long_trajectory_stats(pi, 0.5, 100.0)
            assert stats.energy == 0.0 and stats.mass == 0.0

    @pytest.mark.parametrize("threshold", [1.4e154, 1e200, 1.7976931348623157e308, np.inf])
    def test_threshold_whose_square_overflows_selects_no_pair(self, threshold):
        # A Python float's square past the float range once raised a bare
        # OverflowError, where an infinite threshold read zeros.
        lam = measure_from_density(symmetric_grid(1, 9, -1.0, 1.0),
                                   lambda p: np.ones(len(p)), alpha=0.5)
        stats = long_trajectory_stats(diagonal_coupling(lam), 0.5, threshold)
        assert (stats.energy, stats.mass) == (0.0, 0.0)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(pi=grid_couplings())
    def test_hull_reach_bounds_every_rounded_cost(self, pi):
        # No rounded cost exceeds the reach, and a pair of grid corners,
        # whose cost rounds alike, attains it.
        assert dense_cost(pi).max() == hull_reach(pi.source.spec, pi.target.spec)

    def test_threshold_past_the_reach_reads_no_cost(self, random_coupling, random_coupling_2d,
                                                    monkeypatch):
        formed = []
        original = couplings.squared_distances
        monkeypatch.setattr(couplings, "squared_distances",
                            lambda *a, **k: formed.append(a) or original(*a, **k))
        for pi in (random_coupling, random_coupling_2d):
            reach = hull_reach(pi.source.spec, pi.target.spec) ** 0.5
            stats = long_trajectory_stats(pi, 0.5, 1.01 * reach)
            assert (stats.energy, stats.mass) == (0.0, 0.0)
        assert formed == []  # no pair's distance was formed
        long_trajectory_stats(random_coupling, 0.5, 0.5)
        assert formed  # the spy sees the distances of a threshold within the reach
        # At the reach itself (2, on [-1, 1]) the two pairs of ends count.
        reach = hull_reach(random_coupling.source.spec, random_coupling.target.spec)
        stats = long_trajectory_stats(random_coupling, 1.0, reach**0.5)
        ends = random_coupling.mass[0, -1] + random_coupling.mass[-1, 0]
        assert stats.mass == ends and stats.energy == reach * ends

    def test_one_block_pass_for_energy_and_mass(self, random_coupling, random_coupling_2d,
                                                monkeypatch):
        masks = []
        original = couplings._long
        monkeypatch.setattr(couplings, "_long", lambda cost, threshold: (
            masks.append(np.ndim(cost)) or original(cost, threshold)))
        for pi in (random_coupling, random_coupling_2d):
            region = HashRegion(0.6)
            blocks = len(region.blocks(pi))
            masks.clear()
            stats = long_trajectory_stats(pi, 0.6, 0.4)
            assert masks.count(2) == blocks  # one mask per block
            assert stats.energy == region.per_radius(region.energy(pi, 0.4), pi.dim + 2)
            assert stats.mass == region.per_radius(region.mass(pi, 0.4), pi.dim)
            assert stats.mass > 0

    @pytest.mark.parametrize("threshold", [-0.1, float("nan")])
    def test_threshold_must_be_nonnegative(self, random_coupling, threshold):
        with pytest.raises(DomainError, match="threshold must be nonnegative"):
            long_trajectory_stats(random_coupling, 0.5, threshold)

    def test_zero_threshold_recovers_local_energy(self, random_coupling, random_coupling_2d):
        R = 0.6
        for pi in (random_coupling, random_coupling_2d):
            stats = long_trajectory_stats(pi, R, 0.0)
            assert stats.energy == pytest.approx(local_energy(pi, R))
            mask = region_mask(HashRegion(R), pi)
            expected_mass = np.sum(pi.mass, where=mask) / R**pi.dim
            assert stats.mass == pytest.approx(expected_mass)

    def test_energy_nonincreasing_in_threshold(self, random_coupling, random_coupling_2d):
        for pi in (random_coupling, random_coupling_2d):
            values = [
                long_trajectory_stats(pi, 0.6, t).energy
                for t in (0.0, 0.2, 0.4, 0.8, 1.6)
            ]
            assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("R, ties", [(0.125, 28), (1.0, 56)])
    def test_pairs_at_the_threshold_count(self, R, ties):
        # The grid of the onestep stage-record config, at its smallest scan
        # radius: threshold 7 * 0.125 = 21h.  The rounded squared
        # displacements of pairs 21 cells apart fall on either side of 0.875^2.
        spec = symmetric_grid(dim=1, n=49, lo=-1.0, hi=1.0)
        lam = GridMeasure(spec=spec, weights=np.full(49, 1 / 49), alpha=0.5)
        pi = Coupling(source=lam, target=lam, mass=np.full((49, 49), 1 / 49**2))
        region = HashRegion(R)
        i, j = np.indices(pi.mass.shape)
        apart = np.abs(i - j)
        assert np.count_nonzero(region_mask(region, pi) & (apart == 21)) == ties
        long = region_mask(region, pi, threshold=7 * 0.125)
        assert np.array_equal(long, region_mask(region, pi) & (apart >= 21))
        covered = np.zeros_like(long)
        for rows, cols, where in region.blocks(pi, threshold=7 * 0.125):
            covered[rows, cols] |= True if where is None else where
        assert np.array_equal(covered, long)


def grid_search_affine_oracle(pi, r, beta, center_a, center_b, width, levels=6, n=11):
    """Coarse-to-fine scan of the defect over (A, b); d=1 instances only."""
    mask = region_mask(HashRegion(r), pi)
    ii, jj = np.nonzero(mask & (pi.mass > 0))
    w = pi.mass[ii, jj]
    x = pi.source.points[ii, 0]
    y = pi.target.points[jj, 0]

    def defect(a, b):
        return np.sum(w * (y - a * x - b) ** 2) / r ** (1 + 2 + 2 * beta)

    best = (defect(center_a, center_b), center_a, center_b)
    for _ in range(levels):
        a_grid = np.linspace(best[1] - width, best[1] + width, n)
        b_grid = np.linspace(best[2] - width, best[2] + width, n)
        for a in a_grid:
            for b in b_grid:
                val = defect(a, b)
                if val < best[0]:
                    best = (val, a, b)
        width /= 4.0
    return best


class TestAffineFit:
    def test_exact_affine_graph(self):
        xs = np.arange(-3, 4) * 0.25
        lam = line_measure(xs, np.ones(xs.size), h=0.25)
        ys = 2.0 * xs + 1.0
        mu = line_measure(ys, np.ones(xs.size), h=0.25)
        idx = [int(round((y - mu.points[0, 0]) / 0.25)) for y in ys]
        pi = monge_coupling(lam, mu, np.array(idx))
        fit = affine_fit(pi, 5.0)
        assert fit.A[0, 0] == pytest.approx(2.0, abs=1e-12)
        assert fit.b[0] == pytest.approx(1.0, abs=1e-12)
        assert fit.defect <= 1e-20

    def test_diagonal_gives_identity(self, uniform_1d):
        fit = affine_fit(diagonal_coupling(uniform_1d), 1.0)
        assert fit.A[0, 0] == pytest.approx(1.0, abs=1e-10)
        assert fit.b[0] == pytest.approx(0.0, abs=1e-12)
        assert fit.defect <= 1e-18

    def test_three_atoms_match_grid_search_oracle(self):
        lam = line_measure([-0.5, 0.0, 0.5], [0.2, 0.5, 0.3], h=0.25)
        mu = line_measure([-0.25, 0.25, 0.75], [0.2, 0.5, 0.3], h=0.25)
        # Atoms occupy every other grid point; zero-weight points map anywhere.
        pi = monge_coupling(lam, mu, np.array([0, 0, 2, 0, 4]))
        fit = affine_fit(pi, 2.0)
        oracle = grid_search_affine_oracle(pi, 2.0, 0.0, 1.0, 0.0, 2.0)
        assert fit.defect == pytest.approx(oracle[0], abs=1e-6)
        assert fit.A[0, 0] == pytest.approx(oracle[1], abs=1e-4)
        assert fit.b[0] == pytest.approx(oracle[2], abs=1e-4)

    def test_zero_mass_region_flags_degenerate(self, random_coupling):
        # All mass lives outside the queried region.
        pi = random_coupling
        mass = np.zeros_like(pi.mass)
        mass[0, 0] = pi.mass[0, 0]  # atom at x = y = -1
        shifted = Coupling(source=pi.source, target=pi.target, mass=mass)
        fit = affine_fit(shifted, 0.25)
        assert fit.degenerate
        assert fit.defect == 0.0
        np.testing.assert_array_equal(fit.A, np.eye(1))

    def test_collapsed_source_falls_back_to_b_only(self):
        lam = line_measure([0.0], [1.0], h=0.5)
        mu = line_measure([0.5, 1.0], [0.5, 0.5], h=0.5)
        mass = np.zeros((lam.spec.n_points, mu.spec.n_points))
        mass[0, 1] = 0.5
        mass[0, 2] = 0.5
        pi = Coupling(source=lam, target=mu, mass=mass)
        fit = affine_fit(pi, 2.0)
        assert fit.b_only
        assert fit.A[0, 0] == 0.0
        assert fit.b[0] == pytest.approx(0.75)

    def test_2d_matches_fit_over_gathered_pairs(self, random_coupling_2d):
        # Reference: weighted least squares over every pair of #_r, gathered
        # with the region's mask; the zero row and column lie inside #_0.5.
        pi = random_coupling_2d
        for r in (0.3, 0.5, 0.8):
            ii, jj = np.nonzero(region_mask(HashRegion(r), pi))
            sw = np.sqrt(pi.mass[ii, jj])[:, None]
            x, y = pi.source.points[ii], pi.target.points[jj]
            z = np.concatenate([x, np.ones((ii.size, 1))], axis=1)
            theta, *_ = np.linalg.lstsq(z * sw, y * sw, rcond=None)
            resid = float(np.sum((sw * (y - z @ theta)) ** 2))
            fit = affine_fit(pi, r)
            assert not (fit.degenerate or fit.ridged or fit.b_only)
            np.testing.assert_allclose(fit.A, theta[:2].T, rtol=0, atol=1e-12)
            np.testing.assert_allclose(fit.b, theta[2], rtol=0, atol=1e-12)
            assert fit.defect == pytest.approx(resid / r**4, rel=1e-12)

    def test_translation_covariance_of_minimum(self, random_coupling):
        # On the translated coupling's own region, the re-fit minimum cannot
        # exceed the value of the translated original optimum (argmin
        # covariance, not value equality).
        pi = random_coupling
        fit = affine_fit(pi, 0.9)
        shift = 0.25
        lam2 = line_measure(pi.source.points[:, 0] + shift, pi.source.weights, h=0.25)
        mu2 = line_measure(pi.target.points[:, 0] + shift, pi.target.weights, h=0.25)
        pi2 = Coupling(source=lam2, target=mu2, mass=pi.mass)
        mask2 = region_mask(HashRegion(0.9), pi2)
        ii, jj = np.nonzero(mask2 & (pi2.mass > 0))
        w = pi2.mass[ii, jj]
        x2 = pi2.source.points[ii, 0]
        y2 = pi2.target.points[jj, 0]
        b_shifted = fit.b[0] + shift - fit.A[0, 0] * shift
        translated_value = np.sum(w * (y2 - fit.A[0, 0] * x2 - b_shifted) ** 2) / 0.9**3
        assert affine_fit(pi2, 0.9).defect <= translated_value + 1e-10


class TestCouplingIO:
    def test_roundtrip(self, tmp_path, random_coupling):
        path = tmp_path / "plan.bin"
        save_coupling(random_coupling, path)
        loaded = load_coupling(path)
        np.testing.assert_array_equal(loaded.mass, random_coupling.mass)
        assert loaded.source.spec == random_coupling.source.spec
        assert loaded.epsilon is None

    def test_save_holds_no_copy_of_the_plan(self, tmp_path):
        # The plan is written from its own buffer: the 2-d Sinkhorn size guard
        # counts the plan as two n x m arrays, and a copy made for the write
        # would be a third.
        spec = symmetric_grid(dim=1, n=1500, lo=-1.0, hi=1.0)
        mass = np.random.default_rng(5).random((spec.n_points, spec.n_points))
        pi = Coupling(source=GridMeasure(spec, mass.sum(axis=1), 0.5),
                      target=GridMeasure(spec, mass.sum(axis=0), 0.5), mass=mass)
        path = tmp_path / "plan.bin"
        tracemalloc.start()
        try:
            save_coupling(pi, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.1 * pi.mass.nbytes
        np.testing.assert_array_equal(load_coupling(path).mass, pi.mass)

    @pytest.mark.parametrize("case", ["no_n_source", "no_source_grid", "text_n_source",
                                      "invalid_json", "fractional_n_source", "text_epsilon",
                                      "fractional_dim", "text_alpha"])
    def test_malformed_header_raises_config_error(self, tmp_path, random_coupling, case):
        path = tmp_path / "plan.bin"
        save_coupling(random_coupling, path)
        header_path = path.with_suffix(".json")
        header = json.loads(header_path.read_text())
        if case == "no_n_source":
            del header["n_source"]
        elif case == "no_source_grid":
            del header["source_grid"]
        elif case == "text_n_source":
            header["n_source"] = "nine"
        # The last four once loaded: int and float truncate and parse strings.
        elif case == "fractional_n_source":
            header["n_source"] = 9.5
        elif case == "text_epsilon":
            header["epsilon"] = "0.3"
        elif case == "fractional_dim":
            header["source_grid"]["dim"] = 1.9
        elif case == "text_alpha":
            header["target_grid"]["alpha"] = "0.5"
        text = json.dumps(header)
        header_path.write_text(text[:-1] if case == "invalid_json" else text)
        with pytest.raises(ConfigError, match="malformed coupling header .*plan.json"):
            load_coupling(path)

    def test_negative_header_sizes_raise_config_error(self, tmp_path, random_coupling):
        # -n x -m matches the dump's n * m values but names no matrix shape.
        path = tmp_path / "plan.bin"
        save_coupling(random_coupling, path)
        header = json.loads(path.with_suffix(".json").read_text())
        header["n_source"], header["n_target"] = -header["n_source"], -header["n_target"]
        path.with_suffix(".json").write_text(json.dumps(header))
        with pytest.raises(ConfigError, match="coupling dump holds"):
            load_coupling(path)
