"""The library twin of the CLI's TestExitCodeProperty: every exported function,
called on tiny valid measures and couplings with extreme finite or non-finite
values for its numeric arguments, returns or raises an EotlabError."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import eotlab
from eotlab import (Coupling, DomainError, EotlabError, GridMeasure, GridSpec, HashRegion,
                    RegularityConfig, Scaling, affine_fit, apply_to_coupling, apply_to_measures,
                    campanato_iterate, check_marginals, compose, data_term, density_at,
                    expansion_experiment, fit_harmonic_displacement, gibbs_identity_check,
                    harmonic_fit, holder_seminorm, identity_scaling, local_energy,
                    long_traj_experiment, long_trajectory_stats, measure_from_density,
                    monge_coupling, one_step, quasimin_defect, radius_scan_rows, sinkhorn,
                    soft_lemma_check, symmetric_grid, transform_source_atoms,
                    transform_target_atoms)

ORDINARY = [0.25, 0.5, 0.9, 1.0, 1.5, 2.0]
EXTREME = [0.0, -0.0, 5e-324, 1e-300, 1e-160, 1e-8, 1e8, 1.4e154, 1e200,
           1.7976931348623157e308, -1.0, -1e308, math.inf, -math.inf, math.nan]
scalars = st.one_of(st.sampled_from(ORDINARY), st.sampled_from(EXTREME), st.floats())
# Iteration caps stay small: a cap of 10**18 with a tiny tolerance is a valid
# request for a very long run, not a bad input.
ints = st.sampled_from([-1, 0, 1, 2, 3, 2**31, 2**63, 10**18])
caps = st.sampled_from([-1, 0, 1, 2, 50])


def _setup(dim, n):
    spec = symmetric_grid(dim, n, -1.0, 1.0)
    lam = measure_from_density(spec, lambda p: np.ones(len(p)), 0.5, normalize=True)
    mu = measure_from_density(spec, lambda p: 1.0 + 0.5 * p[:, 0], 0.5, normalize=True)
    return lam, mu, sinkhorn(lam, mu, 0.5)


SETUPS = {"1d": _setup(1, 9), "2d": _setup(2, 4)}


def scaled(draw, array):
    """``array`` times a drawn scalar, made without a warning: these are inputs."""
    with np.errstate(over="ignore", invalid="ignore"):
        return draw(scalars) * array


def scaling(draw, d):
    return Scaling(A=np.diag(np.full(d, draw(scalars))), b=np.full(d, draw(scalars)),
                   gamma=draw(scalars), kappa=draw(scalars))


def config(draw):
    return RegularityConfig(eps1=draw(scalars), delta=draw(scalars), c0=draw(scalars))


def ladder(draw):
    return draw(st.lists(scalars, min_size=1, max_size=3))


def solver_opts(draw):
    return {"tol": draw(scalars), "max_iter": draw(caps)}


# name -> call(draw, lam, mu, res), with res the Sinkhorn solve of (lam, mu).
CALLS = {
    "affine_fit": lambda draw, lam, mu, res: affine_fit(res.plan, draw(scalars)),
    "apply_to_coupling": lambda draw, lam, mu, res: apply_to_coupling(scaling(draw, lam.dim),
                                                                      res.plan),
    "apply_to_measures": lambda draw, lam, mu, res: apply_to_measures(scaling(draw, lam.dim),
                                                                      lam, mu),
    "campanato_iterate": lambda draw, lam, mu, res: campanato_iterate(
        res.plan, lam, mu, draw(scalars), draw(scalars), draw(scalars), max_levels=draw(caps),
        config=config(draw)),
    "check_marginals": lambda draw, lam, mu, res: check_marginals(res.plan, draw(scalars)),
    "compose": lambda draw, lam, mu, res: compose(scaling(draw, lam.dim), scaling(draw, lam.dim)),
    "data_term": lambda draw, lam, mu, res: data_term(lam, mu, draw(scalars)),
    "density_at": lambda draw, lam, mu, res: density_at(
        lam, [draw(scalars) for _ in range(lam.dim)], draw(scalars)),
    "expansion_experiment": lambda draw, lam, mu, res: expansion_experiment(
        lam, mu, ladder(draw), solver_opts(draw)),
    "fit_harmonic_displacement": lambda draw, lam, mu, res: fit_harmonic_displacement(
        scaled(draw, lam.points), scaled(draw, mu.points), scaled(draw, lam.weights)),
    "gibbs_identity_check": lambda draw, lam, mu, res: gibbs_identity_check(
        res, draw(ints), draw(ints)),
    "harmonic_fit": lambda draw, lam, mu, res: harmonic_fit(res.plan, draw(scalars)),
    "holder_seminorm": lambda draw, lam, mu, res: holder_seminorm(lam, draw(scalars)),
    "identity_scaling": lambda draw, lam, mu, res: identity_scaling(draw(ints)),
    "local_energy": lambda draw, lam, mu, res: local_energy(res.plan, draw(scalars)),
    "long_traj_experiment": lambda draw, lam, mu, res: long_traj_experiment(
        lam, mu, draw(scalars), ladder(draw), solver_opts(draw), long_factor=draw(scalars)),
    "long_trajectory_stats": lambda draw, lam, mu, res: long_trajectory_stats(
        res.plan, draw(scalars), draw(scalars)),
    "measure_from_density": lambda draw, lam, mu, res: measure_from_density(
        lam.spec, np.full(lam.spec.n_points, draw(scalars)), draw(scalars),
        normalize=draw(st.booleans())),
    "monge_coupling": lambda draw, lam, mu, res: monge_coupling(
        lam, mu, [draw(ints)] * lam.spec.n_points),
    "one_step": lambda draw, lam, mu, res: one_step(
        res.plan, lam, mu, draw(scalars), draw(scalars), epsilon=draw(scalars),
        config=config(draw)),
    "quasimin_defect": lambda draw, lam, mu, res: quasimin_defect(
        res.plan, lam, mu, draw(scalars), draw(scalars), epsilon=draw(scalars)),
    "radius_scan_rows": lambda draw, lam, mu, res: radius_scan_rows(res.plan, lam, mu,
                                                                    ladder(draw)),
    "sinkhorn": lambda draw, lam, mu, res: sinkhorn(lam, mu, draw(scalars), **solver_opts(draw)),
    "soft_lemma_check": lambda draw, lam, mu, res: soft_lemma_check(
        res.plan, draw(scalars), ladder(draw), draw(scalars)),
    "symmetric_grid": lambda draw, lam, mu, res: symmetric_grid(
        draw(ints), draw(ints), draw(scalars), draw(scalars)),
    "transform_source_atoms": lambda draw, lam, mu, res: transform_source_atoms(
        scaling(draw, lam.dim), scaled(draw, lam.points)),
    "transform_target_atoms": lambda draw, lam, mu, res: transform_target_atoms(
        scaling(draw, lam.dim), scaled(draw, mu.points)),
    # Constructors with numeric arguments.
    "Coupling": lambda draw, lam, mu, res: Coupling(lam, mu, scaled(draw, res.plan.mass),
                                                    epsilon=draw(scalars)),
    "GridMeasure": lambda draw, lam, mu, res: GridMeasure(lam.spec, scaled(draw, lam.weights),
                                                          draw(scalars)),
    "GridSpec": lambda draw, lam, mu, res: GridSpec(
        lam.dim, draw(scalars), tuple(draw(ints) for _ in range(lam.dim)),
        tuple(draw(scalars) for _ in range(lam.dim))),
    "HashRegion": lambda draw, lam, mu, res: HashRegion(draw(scalars)).mass(res.plan),
    "RegularityConfig": lambda draw, lam, mu, res: config(draw),
    "Scaling": lambda draw, lam, mu, res: scaling(draw, lam.dim),
}
# Exports without a numeric argument, or whose numbers come from a config or a
# file (the CLI's property tests draw those), and the error and result types.
NOT_DRAWN = {"diagonal_coupling", "entropic_cost", "exact_ot", "normalizing_scaling",
             "make_measure", "load_coupling", "load_measure", "save_coupling", "save_measure",
             "AffineFit", "CampanatoTrace", "DataTermReport", "DefectReport", "ExactOTResult",
             "HarmonicFit", "OneStepOutcome", "SinkhornResult", "SinkhornStage"}


inf, nan, top = math.inf, math.nan, 1.7976931348623157e308
# Draws that once escaped as another exception or a RuntimeWarning: name,
# setup, and the values that call(draw, ...) draws, in order.
ESCAPES = [
    ("Scaling", "1d", [nan, -1.6e16, 0.25, 5e-324]),  # LinAlgError in cond
    ("apply_to_coupling", "1d", [inf, 5.1e16, 2.0, 0.5]),  # inf - inf in the symmetry test
    ("apply_to_coupling", "2d", [top, -1.0, 1.5, 0.25]),  # grid spacing 0
    ("apply_to_coupling", "2d", [1.3e-269, 5e-324, 0.5, 0.9]),  # det(A^-1) overflows
    ("apply_to_coupling", "1d", [0.9, 1e200, 2.0, 0.5]),  # cell index past int64
    ("apply_to_measures", "2d", [1.5, top, 0.5, 0.9]),  # atom / spacing overflows
    ("compose", "1d", [1e200, 0.5, 1.0, 1.0, 1e200, 0.5, 1.0, 1.0]),  # A2 A1 overflows
    ("fit_harmonic_displacement", "2d", [0.0, 6e300, -top]),  # weights times y overflow
    ("fit_harmonic_displacement", "2d", [-1.4e16, 0.9, inf]),  # LinAlgError in cond
    ("gibbs_identity_check", "1d", [0, -1]),  # default_rng(-1)
    ("identity_scaling", "1d", [0]),
    ("identity_scaling", "1d", [2**63]),
    ("measure_from_density", "1d", [top, 1.0, False]),  # the total overflows
    ("monge_coupling", "1d", [2**31]),  # IndexError
    ("monge_coupling", "1d", [2**63]),  # OverflowError
    ("quasimin_defect", "2d", [1.25e16, 1.5, 9.8e182]),  # epsilon**2 overflows
    ("campanato_iterate", "1d", [2.0, 0.25, top, 2, 0.25, 1.0, 0.0]),  # (eps / R)**2 overflows
    ("long_traj_experiment", "1d", [top, [1.9e16], 2.0, 1, 0.0]),  # long_factor 0: (R / eps)**2
    ("long_trajectory_stats", "1d", [0.5, 1e200]),  # threshold**2 overflows
    ("transform_source_atoms", "1d", [1e-300, 5.9e13, 1.0, 1e-160, 5.4e31]),  # matmul overflows
    ("transform_target_atoms", "2d", [1e200, -1e308, 1.5, 2.0, 0.25]),
]


@pytest.mark.parametrize("name, setup, values", ESCAPES,
                         ids=[f"{name}-{k}" for k, (name, _, _) in enumerate(ESCAPES)])
def test_escape_found_raises_eotlab_error(name, setup, values):
    drawn = iter(values)
    try:
        CALLS[name](lambda strategy: next(drawn), *SETUPS[setup])
    except EotlabError:
        pass
    assert next(drawn, None) is None  # every value was drawn


SHAPE_ESCAPES = {  # once a ValueError or TypeError from numpy, or (transform_target_atoms) a result
    "apply_to_coupling": lambda lam, mu, res: apply_to_coupling(identity_scaling(2), res.plan),
    "apply_to_measures": lambda lam, mu, res: apply_to_measures(identity_scaling(2), lam, mu),
    "transform_source_atoms": lambda lam, mu, res: transform_source_atoms(identity_scaling(2),
                                                                          lam.points),
    "transform_target_atoms": lambda lam, mu, res: transform_target_atoms(identity_scaling(2),
                                                                          lam.points),
    "fit_harmonic_displacement": lambda lam, mu, res: fit_harmonic_displacement(
        lam.points, mu.points[:-1], lam.weights),
    "local_energy": lambda lam, mu, res: local_energy(res.plan, 0.5, tables=[np.zeros((2, 2))]),
    "HashRegion.mass": lambda lam, mu, res: HashRegion(0.5).mass(res.plan, 0.1, tables="ab"),
}


@pytest.mark.parametrize("name", SHAPE_ESCAPES)
def test_mismatched_shapes_raise_domain_error(name):
    with pytest.raises(DomainError, match="shape"):
        SHAPE_ESCAPES[name](*SETUPS["1d"])


def test_every_export_is_drawn():
    exported = {name for name, value in vars(eotlab).items()
                if callable(value) and not name.startswith("_")
                and not (isinstance(value, type) and issubclass(value, Exception))}
    assert exported - set(CALLS) - NOT_DRAWN == set()
    assert set(CALLS) | NOT_DRAWN <= exported


@pytest.mark.parametrize("name", CALLS)
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data(), setup=st.sampled_from(sorted(SETUPS)))
def test_returns_or_raises_eotlab_error(name, data, setup):
    try:
        CALLS[name](data.draw, *SETUPS[setup])
    except EotlabError:
        pass
