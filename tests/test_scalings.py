"""Rescaling group: action on atoms/measures/couplings and composition."""

import tracemalloc

import numpy as np
import pytest

from eotlab import (
    AdmissibilityError,
    ConfigError,
    Coupling,
    DomainError,
    GridMeasure,
    Scaling,
    apply_to_coupling,
    apply_to_measures,
    check_marginals,
    compose,
    density_at,
    diagonal_coupling,
    identity_scaling,
    local_energy,
    make_measure,
    measure_from_density,
    normalizing_scaling,
    scalings,
    sinkhorn,
    symmetric_grid,
    transform_source_atoms,
    transform_target_atoms,
)
from eotlab.scalings import scaling_from_json_dict, scaling_to_json_dict
from conftest import dense_cost, line_measure


def random_admissible_pair(rng, d):
    def one():
        if d == 1:
            a = np.array([[rng.uniform(0.7, 1.4)]])
        else:
            # Random SPD with eigenvalues in a safe band; generically
            # non-commuting across draws.
            q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
            a = (q * rng.uniform(0.7, 1.4, size=2)) @ q.T
        return Scaling(
            A=a,
            b=rng.uniform(-0.3, 0.3, size=d),
            gamma=rng.uniform(0.6, 1.8),
            kappa=rng.uniform(0.3, 3.0),
        )

    return one(), one()


class TestScalingType:
    def test_rejects_asymmetric_matrix(self):
        with pytest.raises(Exception):
            Scaling(A=np.array([[1.0, 0.5], [0.0, 1.0]]), b=np.zeros(2), gamma=1.0, kappa=1.0)

    def test_rejects_nonpositive_definite(self):
        with pytest.raises(Exception):
            Scaling(A=np.array([[1.0, 0.0], [0.0, -2.0]]), b=np.zeros(2), gamma=1.0, kappa=1.0)

    def test_admissibility_windows(self):
        s = Scaling(A=np.eye(1), b=np.zeros(1), gamma=3.0, kappa=1.0)
        with pytest.raises(AdmissibilityError):
            s.require_admissible()

    def test_json_roundtrip(self):
        s = Scaling(A=np.array([[1.2, 0.1], [0.1, 0.9]]), b=np.array([0.1, -0.2]),
                    gamma=1.1, kappa=0.8)
        s2 = scaling_from_json_dict(scaling_to_json_dict(s))
        np.testing.assert_allclose(s2.A, s.A)
        np.testing.assert_allclose(s2.b, s.b)
        assert (s2.gamma, s2.kappa) == (s.gamma, s.kappa)

    def test_json_roundtrip_keeps_source_matrix_of_composite(self):
        s1 = Scaling(A=np.array([[1.2, 0.1], [0.1, 0.9]]), b=np.array([0.1, -0.2]),
                     gamma=1.1, kappa=0.8)
        s2 = Scaling(A=np.array([[0.9, -0.3], [-0.3, 1.1]]), b=np.array([0.05, 0.0]),
                     gamma=0.9, kappa=1.2)
        comp = compose(s2, s1)
        assert comp.x_matrix is not None
        back = scaling_from_json_dict(scaling_to_json_dict(comp))
        for name in ("A", "b", "x_matrix"):
            assert np.array_equal(getattr(back, name), getattr(comp, name))
        assert (back.gamma, back.kappa) == (comp.gamma, comp.kappa)

    @pytest.mark.parametrize("d", [
        {},
        {"A": [1.0], "b": [0.0, 0.0], "gamma": 1.0, "kappa": 1.0},
        {"A": [1.0], "b": [0.0], "gamma": "1", "kappa": 1.0},
    ], ids=["empty", "A_wrong_length", "gamma_string"])
    def test_json_malformed_dict_is_config_error(self, d):
        with pytest.raises(ConfigError, match="scaling"):
            scaling_from_json_dict(d)

    def test_json_well_formed_invalid_scaling_is_domain_error(self):
        with pytest.raises(DomainError, match="gamma and kappa"):
            scaling_from_json_dict({"A": [1.0], "b": [0.0], "gamma": -1.0, "kappa": 1.0})


class TestApplyToMeasures:
    def test_identity_is_identity(self, uniform_1d):
        lam_s, mu_s = apply_to_measures(identity_scaling(1), uniform_1d, uniform_1d)
        np.testing.assert_allclose(lam_s.weights[lam_s.weights > 0],
                                   uniform_1d.weights[uniform_1d.weights > 0])
        np.testing.assert_allclose(
            sorted(lam_s.points[lam_s.weights > 0, 0]),
            sorted(uniform_1d.points[uniform_1d.weights > 0, 0]),
            atol=1e-14,
        )

    def test_kappa_scales_weights(self, uniform_1d):
        s = Scaling(A=np.eye(1), b=np.zeros(1), gamma=1.0, kappa=2.5)
        lam_s, _ = apply_to_measures(s, uniform_1d, uniform_1d)
        assert lam_s.total_mass == pytest.approx(2.5 * uniform_1d.total_mass, rel=1e-12)

    def test_dilation_halves_support_and_conserves_mass(self, uniform_1d):
        s = Scaling(A=np.array([[2.0]]), b=np.zeros(1), gamma=1.0, kappa=1.0)
        lam_s, _ = apply_to_measures(s, uniform_1d, uniform_1d)
        assert lam_s.total_mass == pytest.approx(uniform_1d.total_mass, rel=1e-12)
        support = lam_s.points[lam_s.weights > 0, 0]
        np.testing.assert_allclose(
            sorted(support), sorted(uniform_1d.points[:, 0] / 2.0), atol=1e-12
        )

    def test_normalization_target(self):
        spec = symmetric_grid(dim=1, n=201, lo=-1.0, hi=1.0)
        lam = measure_from_density(spec, lambda p: 1.6 + 0 * p[:, 0], alpha=0.5)
        mu = measure_from_density(spec, lambda p: 0.9 + 0 * p[:, 0], alpha=0.5)
        s_bar = normalizing_scaling(lam, mu)
        lam_s, mu_s = apply_to_measures(s_bar, lam, mu)
        r_avg = 3 * lam_s.spec.h
        assert density_at(lam_s, [0.0], r_avg) == pytest.approx(1.0, abs=1e-2)
        assert density_at(mu_s, [0.0], 3 * mu_s.spec.h) == pytest.approx(1.0, abs=1e-2)


class TestApplyToCoupling:
    def test_identity_keeps_plan(self, uniform_1d):
        pi = diagonal_coupling(uniform_1d)
        out = apply_to_coupling(identity_scaling(1), pi)
        assert out.total_mass == pytest.approx(pi.total_mass, rel=1e-14)
        assert local_energy(out, 0.7) == pytest.approx(local_energy(pi, 0.7), abs=1e-14)

    def test_kappa_doubles_entries(self, uniform_1d):
        pi = diagonal_coupling(uniform_1d)
        s = Scaling(A=np.eye(1), b=np.zeros(1), gamma=1.0, kappa=2.0)
        out = apply_to_coupling(s, pi)
        assert out.total_mass == pytest.approx(2.0 * pi.total_mass, rel=1e-13)

    def test_translation_shifts_displacement(self, uniform_1d):
        # Pure target translation by b: every displacement changes by -gamma*A*b;
        # recompute the local energy directly on transformed atoms.
        pi = diagonal_coupling(uniform_1d)
        b = np.array([0.25])
        s = Scaling(A=np.eye(1), b=b, gamma=1.0, kappa=1.0)
        out = apply_to_coupling(s, pi)
        report = check_marginals(out, tol=1e-8)
        assert report.ok
        xs = transform_source_atoms(s, pi.source.points)
        ys = transform_target_atoms(s, pi.target.points)
        disp = ys[np.arange(xs.shape[0])] - xs
        np.testing.assert_allclose(disp[:, 0], -0.25, atol=1e-12)
        expected = np.sum(
            pi.source.weights
            * 0.0625
            * ((np.abs(xs[:, 0]) <= 0.5) | (np.abs(ys[:, 0]) <= 0.5))
        ) / 0.5**3
        assert local_energy(out, 0.5) == pytest.approx(expected, rel=1e-12)

    def test_marginal_consistency_after_transform(self):
        rng = np.random.default_rng(5)
        xs = np.arange(-6, 7) * 0.125
        mass = rng.random((xs.size, xs.size))
        lam = line_measure(xs, mass.sum(axis=1), h=0.125)
        mu = line_measure(xs, mass.sum(axis=0), h=0.125)
        pi = Coupling(source=lam, target=mu, mass=mass)
        s = Scaling(A=np.array([[1.25]]), b=np.array([0.125]), gamma=0.8, kappa=1.7)
        out = apply_to_coupling(s, pi)
        assert check_marginals(out, tol=1e-8).ok
        assert out.total_mass == pytest.approx(1.7 * pi.total_mass, rel=1e-12)

    @pytest.mark.parametrize("gamma", [0.6, 1.7])
    def test_dilated_plan_is_gibbs_at_its_recorded_epsilon(self, gamma):
        # Q2 scales every cross term (x_i - x_k)(y_j - y_l) by gamma, so the
        # log cross-ratios of a plan that is Gibbs at epsilon read epsilon^2 *
        # gamma after the dilation: the recorded epsilon is epsilon * sqrt(gamma).
        grid = {"dim": 1, "n": 33, "lo": -1.0, "hi": 1.0}
        lam, mu = (make_measure({"grid": grid, "alpha": 0.5, "normalize": True, "density": d})
                   for d in ({"kind": "uniform"}, {"kind": "gaussian", "sigma": 0.6,
                                                   "floor": 0.2}))
        pi = sinkhorn(lam, mu, 0.2, tol=1e-10).plan
        out = apply_to_coupling(Scaling(A=np.eye(1), b=np.zeros(1), gamma=gamma, kappa=1.0), pi)
        cells = np.ix_(out.source.weights > 0, out.target.weights > 0)
        log_plan, cost = np.log(out.mass[cells]), dense_cost(out)[cells]
        # Each pair's cross-ratio against the first row and column.
        lhs = log_plan + log_plan[0, 0] - log_plan[:, :1] - log_plan[:1, :]
        rhs = -(cost + cost[0, 0] - cost[:, :1] - cost[:1, :]) / out.epsilon**2
        scale = np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
        assert np.max(np.abs(lhs - rhs) / scale) <= 1e-6
        assert out.epsilon == pytest.approx(0.2 * gamma**0.5, rel=1e-15)


def dense_deposit(s, pi):
    """kappa * pi summed entry by entry into the cells of the transformed grids."""
    (lam_s, row_cell), (mu_s, col_cell) = scalings._deposit_marginals(s, pi.source, pi.target)
    ref = np.zeros((lam_s.spec.n_points, mu_s.spec.n_points))
    np.add.at(ref, (row_cell[:, None], col_cell[None, :]), s.kappa * pi.mass)
    return ref, row_cell, col_cell


def is_run(cell):
    return np.array_equal(cell, np.arange(cell[0], cell[0] + cell.size))


class TestDeposition:
    def test_copy_matches_the_dense_sum_in_1d(self):
        xs = np.arange(-9, 6) * 0.125
        mass = np.random.default_rng(11).random((xs.size, xs.size))
        lam = line_measure(xs, mass.sum(axis=1), h=0.125)
        mu = line_measure(xs, mass.sum(axis=0), h=0.125)
        pi = Coupling(source=lam, target=mu, mass=mass)
        s = Scaling(A=np.array([[1.3]]), b=np.array([0.2]), gamma=0.7, kappa=1.9)
        ref, row_cell, col_cell = dense_deposit(s, pi)
        assert is_run(row_cell) and is_run(col_cell)
        assert np.array_equal(apply_to_coupling(s, pi).mass, ref)

    def test_sum_matches_the_dense_sum_under_shear(self):
        # A sheared 2-d scaling sends atoms to scattered cells, some shared,
        # so the deposition sums per cell.
        spec = symmetric_grid(dim=2, n=9, lo=-1.0, hi=1.0)
        mass = np.random.default_rng(12).random((spec.n_points, spec.n_points))
        lam = GridMeasure(spec, mass.sum(axis=1), 0.5)
        mu = GridMeasure(spec, mass.sum(axis=0), 0.5)
        pi = Coupling(source=lam, target=mu, mass=mass)
        s = Scaling(A=np.array([[1.2, 0.4], [0.4, 0.9]]), b=np.array([0.1, -0.05]),
                    gamma=1.1, kappa=0.8)
        ref, row_cell, col_cell = dense_deposit(s, pi)
        assert not (is_run(row_cell) and is_run(col_cell))
        assert np.array_equal(apply_to_coupling(s, pi).mass, ref)

    def test_peak_memory_of_a_1d_deposit(self):
        # The copy path holds the new plan and the sign test's boolean mask:
        # about 1.13 n x m float arrays (a summed deposit held 3).
        n = 512
        spec = symmetric_grid(dim=1, n=n, lo=-1.0, hi=1.0)
        mass = np.random.default_rng(13).random((n, n)) / n**2
        pi = Coupling(source=GridMeasure(spec, mass.sum(axis=1), 0.5),
                      target=GridMeasure(spec, mass.sum(axis=0), 0.5), mass=mass)
        s = Scaling(A=np.array([[1.1]]), b=np.array([0.05]), gamma=1.2, kappa=0.9)
        apply_to_coupling(s, pi)  # the grids' cached points
        tracemalloc.start()
        try:
            apply_to_coupling(s, pi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 8 * n * n


class TestCompose:
    def test_identity_is_neutral(self):
        rng = np.random.default_rng(0)
        s, _ = random_admissible_pair(rng, 2)
        out = compose(identity_scaling(2), s)
        np.testing.assert_allclose(out.A, s.A, atol=1e-12)
        np.testing.assert_allclose(out.b, s.b, atol=1e-12)
        assert out.gamma == pytest.approx(s.gamma)
        assert out.kappa == pytest.approx(s.kappa)

    def test_dilation_then_translation(self):
        # gamma and kappa multiply; the offset solves the transform identity,
        # so the upstream dilation halves the printed-form offset here.
        s1 = Scaling(A=np.eye(2), b=np.zeros(2), gamma=2.0, kappa=1.0)
        s2 = Scaling(A=np.eye(2), b=np.array([1.0, 0.0]), gamma=1.0, kappa=1.0)
        out = compose(s2, s1)
        np.testing.assert_allclose(out.A, np.eye(2), atol=1e-14)
        assert out.gamma == pytest.approx(2.0)
        assert out.kappa == pytest.approx(1.0)
        np.testing.assert_allclose(out.b, [0.5, 0.0], atol=1e-14)
        # The defining property: composed action == sequential action.
        y = np.array([[0.3, -0.2], [1.0, 0.7]])
        seq = transform_target_atoms(s2, transform_target_atoms(s1, y))
        np.testing.assert_allclose(transform_target_atoms(out, y), seq, atol=1e-12)

    @pytest.mark.parametrize("d", [1, 2])
    def test_pushforward_identity_on_atoms(self, d):
        # 100 random admissible pairs, including non-commuting 2-d matrices:
        # composing the transforms equals transforming twice, atom by atom.
        rng = np.random.default_rng(42)
        pts = rng.uniform(-1.0, 1.0, size=(5, d))
        for _ in range(100):
            s1, s2 = random_admissible_pair(rng, d)
            comp = compose(s2, s1)
            seq_x = transform_source_atoms(s2, transform_source_atoms(s1, pts))
            seq_y = transform_target_atoms(s2, transform_target_atoms(s1, pts))
            np.testing.assert_allclose(
                transform_source_atoms(comp, pts), seq_x, atol=1e-10
            )
            np.testing.assert_allclose(
                transform_target_atoms(comp, pts), seq_y, atol=1e-10
            )
            assert comp.kappa == s1.kappa * s2.kappa

    def test_noncommuting_composite_tracks_source_matrix(self):
        rng = np.random.default_rng(3)
        while True:
            s1, s2 = random_admissible_pair(rng, 2)
            if np.abs(s1.A @ s2.A - s2.A @ s1.A).max() > 1e-3:
                break
        comp = compose(s2, s1)
        assert comp.x_matrix is not None
        # And the composite of d=1 scalings stays in the plain form.
        t1, t2 = random_admissible_pair(rng, 1)
        assert compose(t2, t1).x_matrix is None

    def test_composition_respects_windows(self):
        s = Scaling(A=np.eye(1), b=np.zeros(1), gamma=1.9, kappa=1.0)
        with pytest.raises(AdmissibilityError):
            compose(s, s).require_admissible()

    def test_associativity_on_atoms(self):
        rng = np.random.default_rng(9)
        pts = rng.uniform(-1.0, 1.0, size=(4, 2))
        s1, s2 = random_admissible_pair(rng, 2)
        s3, _ = random_admissible_pair(rng, 2)
        left = compose(s3, compose(s2, s1))
        right = compose(compose(s3, s2), s1)
        np.testing.assert_allclose(
            transform_source_atoms(left, pts), transform_source_atoms(right, pts),
            atol=1e-10,
        )
        np.testing.assert_allclose(
            transform_target_atoms(left, pts), transform_target_atoms(right, pts),
            atol=1e-10,
        )
