import logging

import numpy as np
import pytest
from hypothesis import strategies as st

from eotlab import (Coupling, GridMeasure, GridSpec, HashRegion, measure_from_density,
                    symmetric_grid)
from eotlab.couplings import _long
from eotlab.grids import squared_distances


class _BugRecords(logging.Handler):
    """Keeps the messages of the records that call themselves a bug."""

    def __init__(self) -> None:
        super().__init__(logging.WARNING)
        self.messages: list[str] = []

    def emit(self, record: logging.LogRecord) -> None:
        message = record.getMessage()
        if "indicates a bug" in message:
            self.messages.append(message)


@pytest.fixture(autouse=True)
def no_solver_bug_warning():
    """Fail a test in which eotlab.solvers logs that the marginal error
    increased between checks, which it calls a bug: a logged warning would
    otherwise pass silently."""
    handler = _BugRecords()
    logger = logging.getLogger("eotlab.solvers")
    logger.addHandler(handler)
    try:
        yield
    finally:
        logger.removeHandler(handler)
    if handler.messages:
        pytest.fail("eotlab.solvers logged a bug: " + "; ".join(handler.messages))


@pytest.fixture
def uniform_1d():
    spec = symmetric_grid(dim=1, n=41, lo=-1.0, hi=1.0)
    return measure_from_density(spec, lambda p: np.ones(p.shape[0]), alpha=0.5)


@pytest.fixture
def uniform_2d():
    spec = symmetric_grid(dim=2, n=11, lo=-1.0, hi=1.0)
    return measure_from_density(spec, lambda p: np.ones(p.shape[0]), alpha=0.5)


@pytest.fixture
def random_coupling_2d():
    """Random 2-d coupling between grids of different shapes, with one all-zero
    row (source point (-0.25, -0.375)) and one all-zero column (target point
    (-0.25, -0.25))."""
    rng = np.random.default_rng(12)
    src = GridSpec(dim=2, h=0.25, extent=(5, 6), origin_offset=(2.0, 2.5))
    tgt = GridSpec(dim=2, h=0.25, extent=(6, 5), origin_offset=(3.0, 2.0))
    mass = rng.random((src.n_points, tgt.n_points))
    mass[7, :] = 0.0
    mass[:, 11] = 0.0
    return Coupling(
        source=GridMeasure(src, mass.sum(axis=1), 0.5),
        target=GridMeasure(tgt, mass.sum(axis=0), 0.5),
        mass=mass,
    )


def dense_cost(pi: Coupling) -> np.ndarray:
    """The dense reference cost of a plan: |x_i - y_j|^2 for every pair of its points."""
    return squared_distances(pi.source.points, pi.target.points)


def region_mask(region: HashRegion, pi: Coupling, threshold: float | None = None) -> np.ndarray:
    """The dense reference for the region's block reads: its pairs as an n x m
    mask; with ``threshold``, only those displaced by at least ``threshold``
    (by the package's own threshold rule)."""
    mask = ((pi.source.spec.point_norms <= region.radius)[:, None]
            | (pi.target.spec.point_norms <= region.radius)[None, :])
    if threshold is not None:
        mask &= _long(dense_cost(pi), threshold)
    return mask


def line_measure(xs, ws, h, alpha=0.5):
    """1-d measure with the given atoms; coordinates must sit on the lattice h*Z."""
    xs = np.asarray(xs, dtype=float)
    ws = np.asarray(ws, dtype=float)
    k = np.round(xs / h).astype(int)
    assert np.allclose(k * h, xs, atol=1e-12), "atoms must be lattice-representable"
    kmin = min(int(k.min()), 0)
    kmax = max(int(k.max()), 0)
    if kmax == kmin:
        kmax += 1  # extent >= 2 even for a single atom
    n = kmax - kmin + 1
    spec = GridSpec(dim=1, h=h, extent=(n,), origin_offset=(float(-kmin),))
    w = np.zeros(n)
    np.add.at(w, k - kmin, ws)
    return GridMeasure(spec=spec, weights=w, alpha=alpha)


def plane_measure(points, ws, h, alpha=0.5):
    """2-d measure with the given atoms; coordinates must sit on the lattice (h*Z)^2."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    ws = np.asarray(ws, dtype=float)
    k = np.round(points / h).astype(int)
    assert np.allclose(k * h, points, atol=1e-12), "atoms must be lattice-representable"
    kmin = np.minimum(k.min(axis=0), 0)
    kmax = np.maximum(k.max(axis=0), 0)
    kmax = np.where(kmax == kmin, kmax + 1, kmax)
    extent = tuple(int(v) for v in (kmax - kmin + 1))
    spec = GridSpec(
        dim=2, h=h, extent=extent, origin_offset=tuple(float(-v) for v in kmin)
    )
    w = np.zeros(spec.n_points)
    flat = (k[:, 0] - kmin[0]) * extent[1] + (k[:, 1] - kmin[1])
    np.add.at(w, flat, ws)
    return GridMeasure(spec=spec, weights=w, alpha=alpha)


@st.composite
def grid_couplings(draw):
    """A coupling of random nonnegative mass, about a third of it zero, between
    two independently drawn grids of one dimension (1 or 2): each has its own
    spacing and extent, and its origin at an edge of the hull, at its centre
    or anywhere between grid points."""
    dim = draw(st.sampled_from([1, 2]))

    def spec() -> GridSpec:
        extent = tuple(draw(st.integers(2, 30 if dim == 1 else 8)) for _ in range(dim))
        offset = tuple(draw(st.one_of(st.sampled_from([0.0, n - 1.0, (n - 1) / 2]),
                                      st.floats(0.0, n - 1.0)))
                       for n in extent)
        return GridSpec(dim=dim, h=draw(st.sampled_from([0.1, 0.25, 0.37])),
                        extent=extent, origin_offset=offset)

    src, tgt = spec(), spec()
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mass = rng.random((src.n_points, tgt.n_points))
    mass[rng.random(mass.shape) < 0.3] = 0.0
    return Coupling(source=GridMeasure(src, np.ones(src.n_points), 0.5),
                    target=GridMeasure(tgt, np.ones(tgt.n_points), 0.5), mass=mass)


# Radii below every spacing (an empty band unless the origin is a grid point),
# between spacing and hull, and beyond every hull.
region_radii = st.one_of(st.sampled_from([1e-3, 0.05, 1e3]), st.floats(0.01, 3.0))
