"""Couplings between grid measures: regions, local energy, affine fit, diagnostics."""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import ConfigError, DomainError
from .grids import GridMeasure, GridSpec, data_term

__all__ = [
    "Coupling",
    "MarginalReport",
    "LongTrajStats",
    "AffineFit",
    "HashRegion",
    "check_marginals",
    "local_energy",
    "long_trajectory_stats",
    "affine_fit",
    "diagonal_coupling",
    "monge_coupling",
    "radius_scan_rows",
    "save_coupling",
    "load_coupling",
]

RADIUS_SCAN_COLUMNS = ["R", "E", "D", "long_energy", "long_mass", "defect_beta0"]


def squared_distances(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Quadratic cost matrix |x_i - y_j|^2 between two (n, d) point arrays."""
    c = (
        np.sum(x**2, axis=1)[:, None]
        + np.sum(y**2, axis=1)[None, :]
        - 2.0 * (x @ y.T)
    )
    np.maximum(c, 0.0, out=c)
    return c


@dataclass
class Coupling:
    """Dense nonnegative mass matrix over (source points x target points)."""

    source: GridMeasure
    target: GridMeasure
    mass: np.ndarray
    epsilon: float | None = None

    def __post_init__(self) -> None:
        m = np.ascontiguousarray(np.asarray(self.mass, dtype=float))
        expected = (self.source.spec.n_points, self.target.spec.n_points)
        if m.shape != expected:
            raise DomainError(f"mass matrix shape {m.shape} != {expected}")
        if np.any(m < 0):
            raise DomainError("coupling entries must be nonnegative")
        if self.source.dim != self.target.dim:
            raise DomainError("source and target dimensions differ")
        m.setflags(write=False)
        self.mass = m

    @property
    def dim(self) -> int:
        return self.source.dim

    @property
    def total_mass(self) -> float:
        return float(np.sum(self.mass))

    @cached_property
    def source_points(self) -> np.ndarray:
        return self.source.points

    @cached_property
    def target_points(self) -> np.ndarray:
        return self.target.points

    @cached_property
    def source_norms(self) -> np.ndarray:
        return self.source.spec.point_norms

    @cached_property
    def target_norms(self) -> np.ndarray:
        return self.target.spec.point_norms

    @cached_property
    def cost_matrix(self) -> np.ndarray:
        """Squared-distance matrix |x_i - y_j|^2."""
        c = squared_distances(self.source_points, self.target_points)
        c.setflags(write=False)
        return c

    @cached_property
    def dist_matrix(self) -> np.ndarray:
        d = np.sqrt(self.cost_matrix)
        d.setflags(write=False)
        return d


# ---------------------------------------------------------------------------
# Regions over point pairs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HashRegion:
    """Pairs with |x| <= R or |y| <= R."""

    radius: float

    def mask(self, pi: Coupling) -> np.ndarray:
        return (pi.source_norms <= self.radius)[:, None] | (
            pi.target_norms <= self.radius
        )[None, :]

    def row_moments(self, pi: Coupling) -> tuple[np.ndarray, ...]:
        """(x_i, W_i, S_i, P_i) for the rows with W_i > 0: P_i is row i of the plan
        restricted to the region, W_i = sum_j P_ij and S_i = sum_j P_ij y_j.  The
        sums are numpy reductions in a fixed order, independent of BLAS threads."""
        plan = np.where(self.mask(pi), pi.mass, 0.0)
        w = plan.sum(axis=1)
        rows = w > 0
        plan = plan[rows]
        s = np.einsum("ij,ja->ia", plan, pi.target_points)
        return pi.source_points[rows], w[rows], s, plan


def _region_residual(plan: np.ndarray, y: np.ndarray, pred: np.ndarray) -> float:
    """sum_ij plan_ij |y_j - pred_i|^2 in one pass over the plan, which avoids the
    cancellation of the closed form sum w |y|^2 - theta^T rhs of a least-squares fit."""
    return float(
        sum(np.sum(plan * (y[:, a] - pred[:, a, None]) ** 2) for a in range(y.shape[1]))
    )


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MarginalReport:
    max_row_err: float
    max_col_err: float
    ok: bool


def _relative_errors(sums: np.ndarray, weights: np.ndarray) -> np.ndarray:
    err = np.abs(sums - weights)
    out = np.where(
        weights > 0,
        err / np.where(weights > 0, weights, 1.0),
        np.where(err == 0.0, 0.0, np.inf),
    )
    return out


def check_marginals(pi: Coupling, tol: float = 1e-8) -> MarginalReport:
    """Per-row/column relative marginal errors against the declared measures."""
    row = float(np.max(_relative_errors(pi.mass.sum(axis=1), pi.source.weights)))
    col = float(np.max(_relative_errors(pi.mass.sum(axis=0), pi.target.weights)))
    return MarginalReport(max_row_err=row, max_col_err=col, ok=row <= tol and col <= tol)


def local_energy(pi: Coupling, R: float) -> float:
    """R^{-(d+2)} times the second displacement moment over the hash region."""
    if not R > 0:
        raise DomainError(f"radius must be positive, got {R}")
    mask = HashRegion(R).mask(pi)
    total = float(np.sum(pi.cost_matrix * pi.mass, where=mask))
    return total / R ** (pi.dim + 2)


@dataclass(frozen=True)
class LongTrajStats:
    energy: float
    mass: float


def long_trajectory_stats(pi: Coupling, R: float, threshold: float) -> LongTrajStats:
    """Normalized energy and mass of pairs in #_R with displacement >= threshold."""
    if not R > 0:
        raise DomainError(f"radius must be positive, got {R}")
    if threshold < 0:
        raise DomainError(f"threshold must be nonnegative, got {threshold}")
    mask = HashRegion(R).mask(pi) & (pi.dist_matrix >= threshold)
    d = pi.dim
    energy = float(np.sum(pi.cost_matrix * pi.mass, where=mask)) / R ** (d + 2)
    mass = float(np.sum(pi.mass, where=mask)) / R**d
    return LongTrajStats(energy=energy, mass=mass)


@dataclass(frozen=True)
class AffineFit:
    A: np.ndarray
    b: np.ndarray
    defect: float
    beta: float
    r: float
    degenerate: bool = False
    ridged: bool = False
    b_only: bool = False


def affine_fit(pi: Coupling, r: float, beta: float = 0.0) -> AffineFit:
    """Weighted least-squares fit of y ~ A x + b over the hash region at r.

    The defect is the minimized value of
    sum over #_r of |y - A x - b|^2 pi(x, y), divided by r^{d+2+2*beta}.
    """
    if not r > 0:
        raise DomainError(f"radius must be positive, got {r}")
    d = pi.dim
    x, w, s, plan = HashRegion(r).row_moments(pi)
    if w.size == 0:
        return AffineFit(
            A=np.eye(d), b=np.zeros(d), defect=0.0, beta=beta, r=r, degenerate=True
        )
    # The design [x, 1] depends on the row only: the pairwise fit has the normal
    # equations of S_i / W_i on [x_i, 1] with weights W_i, shared by all outputs.
    z = np.concatenate([x, np.ones((x.shape[0], 1))], axis=1)
    gram = np.einsum("i,ia,ib->ab", w, z, z)
    rhs = np.einsum("ia,ib->ab", z, s)
    mass = np.sum(w)

    ridged = False
    b_only = False
    if np.linalg.cond(gram) > 1e12:
        dx = x - np.einsum("i,ia->a", w, x) / mass
        cov = np.einsum("i,ia,ib->ab", w, dx, dx) / mass
        if np.linalg.eigvalsh(cov).min() < 1e-12 * max(1.0, float(np.trace(cov))):
            b_only = True
        else:
            gram = gram + 1e-12 * np.eye(d + 1)
            ridged = True

    if b_only:
        a_mat = np.zeros((d, d))
        b_vec = np.sum(s, axis=0) / mass
    else:
        theta = np.linalg.solve(gram, rhs)
        a_mat = theta[:d, :].T
        b_vec = theta[d, :]

    pred = np.einsum("ab,ib->ia", a_mat, x) + b_vec
    defect = _region_residual(plan, pi.target_points, pred) / r ** (d + 2 + 2 * beta)
    return AffineFit(
        A=a_mat, b=b_vec, defect=defect, beta=beta, r=r, ridged=ridged, b_only=b_only
    )


# ---------------------------------------------------------------------------
# Constructors used throughout the tests and experiments
# ---------------------------------------------------------------------------


def diagonal_coupling(lam: GridMeasure) -> Coupling:
    """Identity-map coupling of a measure with itself."""
    mass = np.diag(lam.weights)
    return Coupling(source=lam, target=lam, mass=mass)


def monge_coupling(
    lam: GridMeasure, target: GridMeasure, assignment: np.ndarray
) -> Coupling:
    """Deterministic-map coupling sending source point i to target point assignment[i]."""
    assignment = np.asarray(assignment, dtype=int)
    if assignment.shape != (lam.spec.n_points,):
        raise DomainError("assignment must map every source point")
    mass = np.zeros((lam.spec.n_points, target.spec.n_points))
    mass[np.arange(assignment.size), assignment] = lam.weights
    return Coupling(source=lam, target=target, mass=mass)


def radius_scan_rows(
    pi: Coupling, lam: GridMeasure, mu: GridMeasure, radii: list[float]
) -> list[dict]:
    """Per-radius report rows with columns R,E,D,long_energy,long_mass,defect_beta0;
    a long trajectory at radius r is a displacement of at least 7r."""
    rows = []
    for r in radii:
        stats = long_trajectory_stats(pi, r, 7.0 * r)
        rows.append(
            {
                "R": float(r),
                "E": local_energy(pi, r),
                "D": data_term(lam, mu, r).D,
                "long_energy": stats.energy,
                "long_mass": stats.mass,
                "defect_beta0": affine_fit(pi, r, beta=0.0).defect,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Binary dump + JSON header I/O
# ---------------------------------------------------------------------------


def save_coupling(pi: Coupling, bin_path: str | Path) -> None:
    """Row-major little-endian float64 dump plus a JSON header sidecar."""
    bin_path = Path(bin_path)
    with open(bin_path, "wb") as fh:
        fh.write(pi.mass.astype("<f8").tobytes(order="C"))
    header = {
        "n_source": pi.source.spec.n_points,
        "n_target": pi.target.spec.n_points,
        "epsilon": pi.epsilon,
        "source_grid": dict(pi.source.spec.to_json_dict(), alpha=pi.source.alpha),
        "target_grid": dict(pi.target.spec.to_json_dict(), alpha=pi.target.alpha),
    }
    with open(bin_path.with_suffix(".json"), "w") as fh:
        json.dump(header, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_coupling(
    bin_path: str | Path,
    source: GridMeasure | None = None,
    target: GridMeasure | None = None,
) -> Coupling:
    """Read a coupling written by :func:`save_coupling`.

    When the marginal measures are not given they are reconstructed from the
    row/column sums, which is only faithful for marginal-consistent couplings.
    A malformed header raises ConfigError.
    """
    bin_path = Path(bin_path)
    header_path = bin_path.with_suffix(".json")
    if not header_path.exists():
        raise ConfigError(f"missing JSON header for coupling dump: {header_path}")
    with open(header_path) as fh:
        try:
            header = json.load(fh)
            n, m = int(header["n_source"]), int(header["n_target"])
            # (spec, alpha) of each marginal that is not given.
            grids = [None if given is not None else
                     (GridSpec.from_json_dict(header[key]), float(header[key]["alpha"]))
                     for given, key in ((source, "source_grid"), (target, "target_grid"))]
            eps = header.get("epsilon")
            eps = None if eps is None else float(eps)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"malformed coupling header {header_path}: {exc!r}") from exc
    raw = np.fromfile(bin_path, dtype="<f8")
    if min(n, m) < 0 or raw.size != n * m:
        raise ConfigError(
            f"coupling dump holds {raw.size} values, expected {n}x{m}={n * m}"
        )
    mass = raw.reshape(n, m)
    if source is None:
        source = GridMeasure(grids[0][0], mass.sum(axis=1), grids[0][1])
    if target is None:
        target = GridMeasure(grids[1][0], mass.sum(axis=0), grids[1][1])
    return Coupling(source=source, target=target, mass=mass, epsilon=eps)
