"""Grid measures: ball-averaged density, Hölder seminorm, data term."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eotlab import grids
from eotlab import (
    ConfigError,
    DomainError,
    GridMeasure,
    GridSpec,
    data_term,
    density_at,
    holder_seminorm,
    load_measure,
    make_measure,
    measure_from_density,
    save_measure,
    symmetric_grid,
)


def quad_average(density, x0, r, n=200_001):
    """Independent quadrature of a density over a 1-d ball (trapezoid rule)."""
    xs = np.linspace(x0 - r, x0 + r, n)
    return np.trapezoid(density(xs), xs) / (2 * r)


def brute_force_holder(points, densities, alpha):
    best = 0.0
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            dist = np.linalg.norm(points[i] - points[j])
            if dist > 0:
                best = max(best, abs(densities[i] - densities[j]) / dist**alpha)
    return best


class TestGridSpec:
    def test_points_shape_and_spacing(self):
        spec = symmetric_grid(dim=1, n=5, lo=-1.0, hi=1.0)
        assert spec.points.shape == (5, 1)
        np.testing.assert_allclose(np.diff(spec.points[:, 0]), 0.5)

    def test_origin_must_lie_in_hull(self):
        with pytest.raises(DomainError):
            GridSpec(dim=1, h=0.1, extent=(5,), origin_offset=(6.0,))

    def test_dim_restricted(self):
        with pytest.raises(DomainError):
            GridSpec(dim=3, h=0.1, extent=(4, 4, 4), origin_offset=(0.0, 0.0, 0.0))

    def test_grid_whose_squared_distances_overflow_rejected(self):
        # Points near 1e308 have squared distances beyond the float range.
        with pytest.raises(DomainError, match="squared distances overflow"):
            symmetric_grid(dim=1, n=9, lo=-1.0, hi=1e308)
        symmetric_grid(dim=2, n=9, lo=-1e150, hi=1e150)


class TestSquaredDistances:
    # Off-centre grids of their own spacing, so no coordinate is a rounded
    # mirror image of another.
    PAIRS = [
        (GridSpec(dim=1, h=0.013, extent=(97,), origin_offset=(31.7,)),
         GridSpec(dim=1, h=0.029, extent=(53,), origin_offset=(40.2,))),
        (GridSpec(dim=2, h=0.071, extent=(13, 11), origin_offset=(3.3, 8.6)),
         GridSpec(dim=2, h=0.047, extent=(9, 15), origin_offset=(7.9, 1.4))),
        # 437 x 357 points: the second axis goes in in ten row blocks, the
        # last one partial.
        (GridSpec(dim=2, h=0.043, extent=(23, 19), origin_offset=(6.2, 11.9)),
         GridSpec(dim=2, h=0.061, extent=(21, 17), origin_offset=(13.4, 2.7))),
    ]
    IDS = ["1d", "2d", "2d_blocks"]

    @pytest.mark.parametrize("src, tgt", PAIRS, ids=IDS)
    def test_equals_the_sum_over_axes(self, src, tgt):
        x, y = src.points, tgt.points
        expected = sum((x[:, None, a] - y[None, :, a]) ** 2 for a in range(src.dim))
        assert np.all(grids.squared_distances(x, y) == expected)

    @pytest.mark.parametrize("src, tgt", PAIRS, ids=IDS)
    def test_pairwise_form_gives_the_same_bits(self, src, tgt):
        x, y = src.points, tgt.points
        rng = np.random.default_rng(src.dim)
        i = rng.integers(0, src.n_points, size=500)
        j = rng.integers(0, tgt.n_points, size=500)
        pairwise = grids.squared_distances(x[i], y[j], pairwise=True)
        assert np.all(pairwise == grids.squared_distances(x, y)[i, j])

    @pytest.mark.parametrize("spec", [src for src, _ in PAIRS], ids=IDS)
    def test_coincident_points_give_zero(self, spec):
        c = grids.squared_distances(spec.points, spec.points)
        assert np.all(np.diag(c) == 0.0)
        assert np.all(c[~np.eye(spec.n_points, dtype=bool)] > 0.0)

    def test_pairwise_form_past_one_block(self):
        src, tgt = self.PAIRS[2]
        x, y = src.points, tgt.points
        rng = np.random.default_rng(3)
        i = rng.integers(0, src.n_points, size=40_000)
        j = rng.integers(0, tgt.n_points, size=40_000)
        pairwise = grids.squared_distances(x[i], y[j], pairwise=True)
        assert np.all(pairwise == grids.squared_distances(x, y)[i, j])


class TestMeasureFromDensity:
    @pytest.mark.parametrize("density", [
        lambda p: np.cos(1e308 * np.pi * p[:, 0]),  # invalid value: cos(inf)
        lambda p: 1.0 + 1e308 * np.exp(p[:, 0]) * 10.0,  # overflow in the array
        lambda p: np.ones(len(p)) * np.exp(-p[:, 0] ** 2 / (2.0 * 1e308**2)),  # float overflow
    ], ids=["cos_inf", "array_overflow", "float_overflow"])
    def test_non_finite_density_is_a_config_error(self, density):
        spec = symmetric_grid(dim=1, n=9, lo=-2.0, hi=2.0)
        with pytest.raises(ConfigError, match="density"):
            measure_from_density(spec, density, alpha=0.5)


class TestDensityAt:
    def test_uniform_density_is_flat(self, uniform_1d):
        assert density_at(uniform_1d, [0.0], 0.25) == pytest.approx(1.0, abs=1e-12)

    def test_far_mass_gives_zero(self):
        spec = symmetric_grid(dim=1, n=41, lo=-1.0, hi=1.0)
        w = np.zeros(41)
        w[-1] = 1.0
        m = GridMeasure(spec=spec, weights=w, alpha=0.5)
        assert density_at(m, [0.0], 0.25) == 0.0

    def test_affine_density_cancels_at_center(self):
        # Symmetric averaging kills the odd part; oracle is direct quadrature.
        spec = symmetric_grid(dim=1, n=201, lo=-1.0, hi=1.0)
        m = measure_from_density(spec, lambda p: 1.0 + p[:, 0], alpha=0.5)
        got = density_at(m, [0.0], 0.05)
        oracle = quad_average(lambda x: 1.0 + x, 0.0, 0.05)
        assert got == pytest.approx(oracle, abs=1e-2)
        assert got == pytest.approx(1.0, abs=1e-2)

    def test_outside_hull_raises(self, uniform_1d):
        with pytest.raises(DomainError):
            density_at(uniform_1d, [2.0], 0.25)

    def test_radius_below_spacing_raises(self, uniform_1d):
        with pytest.raises(DomainError):
            density_at(uniform_1d, [0.0], uniform_1d.spec.h / 2)

    def test_scales_linearly_with_mass(self, uniform_1d):
        doubled = uniform_1d.scaled(2.0)
        assert density_at(doubled, [0.0], 0.25) == pytest.approx(
            2.0 * density_at(uniform_1d, [0.0], 0.25)
        )


class TestHolderSeminorm:
    def test_constant_density_is_zero(self, uniform_1d):
        assert holder_seminorm(uniform_1d, 0.8) == 0.0

    @pytest.mark.parametrize("dim", [1, 2])
    def test_constant_density_forms_no_pair(self, dim, monkeypatch):
        # Every gap of a density constant on B_R is exactly 0, so is the sup;
        # no distance is formed.  Outside the ball the density may vary.
        spec = symmetric_grid(dim=dim, n=21, lo=-1.0, hi=1.0)
        values = np.where(spec.point_norms <= 0.5, 1.7, 1.0 + spec.point_norms)
        m = measure_from_density(spec, values, alpha=0.5)
        calls = []
        original = grids.squared_distances
        monkeypatch.setattr(grids, "squared_distances",
                            lambda *a, **k: calls.append(a) or original(*a, **k))
        assert holder_seminorm(m, 0.5) == 0.0
        assert calls == []
        assert holder_seminorm(m, 0.8) > 0.0 and calls

    def test_affine_density_matches_brute_force(self):
        spec = symmetric_grid(dim=1, n=41, lo=-1.0, hi=1.0)
        c = 0.37
        m = measure_from_density(spec, lambda p: 2.0 + c * p[:, 0], alpha=0.5)
        R = 0.6
        inside = spec.point_norms <= R
        oracle = brute_force_holder(spec.points[inside], m.densities[inside], 0.5)
        got = holder_seminorm(m, R)
        assert got == pytest.approx(oracle, rel=1e-12)
        # For an affine density the sup sits at the extreme pair.
        diam = spec.points[inside].max() - spec.points[inside].min()
        assert got == pytest.approx(abs(c) * diam**0.5, rel=1e-12)

    def test_single_bump_matches_brute_force(self):
        spec = symmetric_grid(dim=1, n=21, lo=-1.0, hi=1.0)
        values = np.ones(21)
        bump = 13
        delta = 0.8
        values[bump] += delta
        m = measure_from_density(spec, values, alpha=0.5)
        oracle = brute_force_holder(spec.points, m.densities, 0.5)
        got = holder_seminorm(m, 2.0)
        assert got == pytest.approx(oracle, rel=1e-12)
        assert got == pytest.approx(delta / spec.h**0.5, rel=1e-12)

    def test_needs_two_points(self, uniform_1d):
        with pytest.raises(DomainError):
            holder_seminorm(uniform_1d, uniform_1d.spec.h / 100)

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("extra", [-1, 0, 1, grids._PAIR_BLOCK + 3])
    def test_equals_the_max_over_all_ordered_pairs(self, dim, extra):
        # Each unordered pair is formed once, in row blocks; the sup is taken
        # over the very same ratios, so it equals the dense one exactly.
        count = grids._PAIR_BLOCK + extra
        extent = (count + 40,) if dim == 1 else (21, 21)
        offset = (13.37,) if dim == 1 else (9.31, 8.77)
        spec = GridSpec(dim=dim, h=0.1, extent=extent, origin_offset=offset)
        norms = np.sort(spec.point_norms)
        assert norms[count - 1] < norms[count]
        R = float(0.5 * (norms[count - 1] + norms[count]))
        values = 1.0 + np.random.default_rng(count + dim).random(spec.n_points)
        m = measure_from_density(spec, values, alpha=0.5)
        inside = spec.point_norms <= R
        pts, dens = m.points[inside], m.densities[inside]
        assert pts.shape[0] == count
        dist = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.abs(dens[:, None] - dens[None, :]) / dist**m.alpha
        assert holder_seminorm(m, R) == float(np.max(np.where(dist == 0.0, 0.0, ratio)))

    @pytest.mark.parametrize("dim, alpha", [(1, 0.5), (1, 0.3), (2, 0.5), (2, 0.7)])
    def test_ladder_equals_each_radius_bit_for_bit(self, dim, alpha, monkeypatch):
        # One pass over the largest ball gives every radius the max of the very
        # ratios that a lone radius forms: each sup equals the dense one exactly.
        # The density is constant on B_0.3, where the sup is 0 with no pair formed.
        spec = symmetric_grid(dim=dim, n=301 if dim == 1 else 25, lo=-1.0, hi=1.0)
        rng = np.random.default_rng(40 + dim)
        values = np.where(spec.point_norms <= 0.3, 1.5, 1.0 + rng.random(spec.n_points))
        m = measure_from_density(spec, values, alpha=alpha)
        radii = [0.8, 0.3, 0.55, 1.0, 0.31, 0.8]
        sups = holder_seminorm(m, radii)
        assert sups == [holder_seminorm(m, R) for R in radii]
        for R, sup in zip(radii, sups):
            inside = spec.point_norms <= R
            pts, dens = m.points[inside], m.densities[inside]
            dist = np.sqrt(grids.squared_distances(pts, pts))
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = np.abs(dens[:, None] - dens[None, :]) / dist**alpha
            assert sup == float(np.max(np.where(dist == 0.0, 0.0, ratio)))
        assert sups[1] == 0.0 and sups[4] > 0.0
        calls = []
        original = grids.squared_distances
        monkeypatch.setattr(grids, "squared_distances",
                            lambda *a, **k: calls.append(a) or original(*a, **k))
        assert holder_seminorm(m, [0.3, 0.2]) == [0.0, 0.0] and calls == []

    def test_ladder_raises_at_a_radius_with_one_point(self, uniform_1d):
        h = uniform_1d.spec.h
        with pytest.raises(DomainError, match=f"fewer than 2 grid points inside B_{h / 100}"):
            holder_seminorm(uniform_1d, [0.8, h / 100, 0.4])

    @given(t=st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=20, deadline=None, derandomize=True)
    def test_dilation_covariance(self, t):
        # Dilating the grid by t while keeping density values maps the
        # seminorm to seminorm * t^{-alpha}, exactly on the discrete sup.
        n, alpha = 17, 0.5
        rng = np.random.default_rng(7)
        values = 1.0 + rng.random(n)
        spec = symmetric_grid(dim=1, n=n, lo=-1.0, hi=1.0)
        spec_t = GridSpec(
            dim=1, h=spec.h * t, extent=spec.extent, origin_offset=spec.origin_offset
        )
        m = measure_from_density(spec, values, alpha=alpha)
        m_t = GridMeasure(spec=spec_t, weights=values * spec_t.cell_volume, alpha=alpha)
        s = holder_seminorm(m, 10.0)
        s_t = holder_seminorm(m_t, 10.0 * t)
        assert s_t == pytest.approx(s * t**-alpha, rel=1e-10)


class TestDataTerm:
    def test_identical_uniform_measures(self, uniform_1d):
        report = data_term(uniform_1d, uniform_1d, 0.5)
        assert report.D == 0.0

    def test_origin_gap_only(self, uniform_1d):
        mu = uniform_1d.scaled(1.1)
        report = data_term(uniform_1d, mu, 0.7)
        assert report.holder_lambda == 0.0
        assert report.holder_mu == 0.0
        assert report.D == pytest.approx(0.01, rel=1e-9)

    def test_against_independent_evaluation(self):
        # Second implementation path: evaluate the definition directly from
        # points and densities, not through the library helpers.
        spec = symmetric_grid(dim=1, n=81, lo=-1.0, hi=1.0)
        lam = measure_from_density(spec, lambda p: 1.0 + p[:, 0] / 4.0, alpha=0.5)
        mu = measure_from_density(spec, lambda p: np.ones(p.shape[0]), alpha=0.5)
        R, r_avg = 1.0, 3 * spec.h
        report = data_term(lam, mu, R)

        inside = spec.point_norms <= R
        hl = brute_force_holder(spec.points[inside], lam.densities[inside], 0.5)
        hm = brute_force_holder(spec.points[inside], mu.densities[inside], 0.5)
        ball = np.abs(spec.points[:, 0]) <= r_avg
        lam0 = lam.weights[ball].sum() / (ball.sum() * spec.h)
        mu0 = mu.weights[ball].sum() / (ball.sum() * spec.h)
        expected = R * (hl**2 + hm**2) + (lam0 - mu0) ** 2
        assert report.D == pytest.approx(expected, rel=1e-12)

    def test_symmetric_in_arguments(self):
        spec = symmetric_grid(dim=1, n=41, lo=-1.0, hi=1.0)
        lam = measure_from_density(spec, lambda p: 1.0 + 0.2 * p[:, 0], alpha=0.5)
        mu = measure_from_density(spec, lambda p: 1.2 - 0.1 * p[:, 0] ** 2, alpha=0.5)
        assert data_term(lam, mu, 0.8).D == pytest.approx(data_term(mu, lam, 0.8).D)

    def test_monotone_in_radius(self):
        spec = symmetric_grid(dim=1, n=41, lo=-1.0, hi=1.0)
        rng = np.random.default_rng(3)
        lam = measure_from_density(spec, 1.0 + 0.3 * rng.random(41), alpha=0.5)
        mu = measure_from_density(spec, 1.0 + 0.3 * rng.random(41), alpha=0.5)
        values = [data_term(lam, mu, r).D for r in (0.2, 0.4, 0.6, 0.8, 1.0)]
        assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))

    def test_mismatched_dimension_or_exponent_raises(self, uniform_1d, uniform_2d):
        with pytest.raises(DomainError, match="same dimension"):
            data_term(uniform_1d, uniform_2d, 0.5)
        other = GridMeasure(uniform_1d.spec, uniform_1d.weights, alpha=0.25)
        with pytest.raises(DomainError, match="same Hölder exponent"):
            data_term(uniform_1d, other, 0.5)


def _measure_file(tmp, header):
    """A 1-d measure's sidecar at tmp/m.json and, with ``header``, its CSV."""
    spec = symmetric_grid(dim=1, n=4, lo=-1.0, hi=1.0)
    save_measure(GridMeasure(spec, np.ones(4), 0.5), tmp / "m.csv")
    (tmp / "m.csv").unlink()
    if header is not None:
        (tmp / "m.csv").write_text(header)
    return tmp / "m.csv"


def _shifted(dim, c0=0.0):
    return make_measure({"grid": {"dim": dim, "n": 9}, "alpha": 0.5,
                         "density": {"kind": "shifted_profile", "c0": c0}})


@pytest.mark.parametrize("make, error, phrase", [
    (lambda tmp: GridMeasure(symmetric_grid(1, 4, -1.0, 1.0), np.ones(5), 0.5), DomainError,
     "weights length 5 does not match grid with 4 points"),
    (lambda tmp: density_at(GridMeasure(symmetric_grid(1, 4, -1.0, 1.0), np.ones(4), 0.5),
                            [0.0, 0.0], 0.5), DomainError, r"point must have shape \(1,\)"),
    (lambda tmp: symmetric_grid(1, 1, -1.0, 1.0), DomainError, "at least 2 points"),
    (lambda tmp: _shifted(2), ConfigError, "one-dimensional"),
    (lambda tmp: _shifted(1, c0=5.0), ConfigError, "non-monotone"),
    (lambda tmp: make_measure({"file": str(_measure_file(tmp, None))}), ConfigError,
     "cannot read measure file"),
    (lambda tmp: load_measure(tmp / "none.csv"), ConfigError, "missing JSON sidecar"),
    (lambda tmp: load_measure(_measure_file(tmp, "index_0,index_1,weight\n")), ConfigError,
     "CSV has 2 index columns but the sidecar says dim=1"),
], ids=["weights_length", "point_shape", "one_point", "shifted_2d", "shifted_non_monotone",
        "unreadable_file", "missing_sidecar", "index_columns"])
def test_input_checks(tmp_path, make, error, phrase):
    with pytest.raises(error, match=phrase):
        make(tmp_path)


class TestMeasureIO:
    def test_roundtrip(self, tmp_path, uniform_2d):
        path = tmp_path / "m.csv"
        save_measure(uniform_2d, path)
        loaded = load_measure(path)
        assert loaded.spec == uniform_2d.spec
        np.testing.assert_array_equal(loaded.weights, uniform_2d.weights)
        assert loaded.alpha == uniform_2d.alpha

    def test_rejects_negative_weights(self):
        spec = symmetric_grid(dim=1, n=5, lo=-1.0, hi=1.0)
        with pytest.raises(DomainError):
            GridMeasure(spec=spec, weights=np.array([1, 1, -1, 1, 1.0]), alpha=0.5)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_rejects_non_finite_weights(self, bad):
        spec = symmetric_grid(dim=1, n=5, lo=-1.0, hi=1.0)
        with pytest.raises(DomainError, match="finite"):
            GridMeasure(spec=spec, weights=np.array([1, 1, bad, 1, 1.0]), alpha=0.5)

    @pytest.mark.parametrize("key, value", [
        ("dim", 1.9), ("dim", True), ("dim", "1"), ("extent", [11.5]), ("extent", [True]),
        ("extent", ["11"]), ("h", "0.2"), ("h", True), ("h", float("nan")),
        ("origin_offset", ["5"]), ("origin_offset", [float("inf")]), ("alpha", "0.5"),
    ])
    def test_sidecar_values_are_read_as_written(self, tmp_path, key, value):
        # Each value once loaded (int and float truncate, parse strings and
        # read true as 1) or failed later as a DomainError; now none is coerced.
        spec = symmetric_grid(dim=1, n=11, lo=-1.0, hi=1.0)
        save_measure(GridMeasure(spec, np.full(11, 1.0 / 11), 0.5), tmp_path / "m.csv")
        sidecar = tmp_path / "m.json"
        sidecar.write_text(json.dumps(dict(json.loads(sidecar.read_text()), **{key: value})))
        with pytest.raises(ConfigError, match=f"malformed measure sidecar .*{key} must be"):
            load_measure(tmp_path / "m.csv")
