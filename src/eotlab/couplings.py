"""Couplings between grid measures: regions, local energy, affine fit, diagnostics."""

from __future__ import annotations

import json
from collections.abc import Callable
from dataclasses import asdict, dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import ConfigError, DomainError, config_value
from .grids import GridMeasure, GridSpec, data_term, hull_reach, squared_distances
from .reports import write_json

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
# A long trajectory at radius r is a displacement of at least this factor times r.
LONG_TRAJECTORY_FACTOR = 7.0


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
        # One pass each, no n x m temporary; a NaN fails the first test.
        if not (m.min() >= 0 and np.isfinite(m.max())):
            raise DomainError("coupling entries must be finite and nonnegative")
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
    def marginal_errors(self) -> tuple[float, float]:
        """Largest relative row-sum and column-sum errors against the marginals."""
        return (float(np.max(_relative_errors(self.mass.sum(axis=1), self.source.weights))),
                float(np.max(_relative_errors(self.mass.sum(axis=0), self.target.weights))))


# ---------------------------------------------------------------------------
# Regions over point pairs
# ---------------------------------------------------------------------------


def _long(cost: np.ndarray, threshold: float) -> np.ndarray:
    """The pairs of squared displacement ``cost`` displaced by at least
    ``threshold``.  The test has a margin of 8 ulps: a pair of #_R displaced
    by exactly 7R has both ends within 8R of the origin, so its rounded cost
    is off by at most about 5 ulps, and it counts whatever the rounding.  A
    threshold whose square overflows is past every pair, like an infinite one."""
    try:
        least = threshold**2 * (1.0 - 8 * np.finfo(float).eps)
    except OverflowError:
        least = np.inf
    return cost >= least


def _axis_distances(pi: Coupling, rows=slice(None), spans=(slice(None),) * 2, tables=None):
    """Per target axis k, (x_ik - y_k[q])^2 over source ``rows`` and axis-k coordinates
    ``spans[k]``: views of the full ``tables`` if given, or formed.  Radius scans keep
    the full table in d = 1 only: a 2-d block reads every target line of its rows."""
    if tables is not None:
        return [t[rows, s] for t, s in zip(tables, spans)]
    return [squared_distances(pi.source.points[rows, k:k + 1], a[s, None])
            for k, (a, s) in enumerate(zip(pi.target.spec.axes, spans))]


@dataclass(frozen=True)
class HashRegion:
    """Pairs with |x| <= R or |y| <= R.  Every statistic of a plan over the
    region reads the plan through these methods, and reads only the pairs in
    the region's blocks (see :meth:`blocks`), through their per-axis sums."""

    radius: float

    def __post_init__(self) -> None:
        if not self.radius > 0:
            raise DomainError(f"radius must be positive, got {self.radius}")

    def blocks(self, pi: Coupling, threshold: float | None = None, tables=None) -> list[tuple]:
        """The region as at most three disjoint rectangles (rows, cols, mask, dist),
        in row order: the rows before the contiguous row span of {|x| <= R}
        against the column span of {|y| <= R}, that row span against every
        column, and the rows after it against the column span.  Rows outside
        the span have |x| > R, so the blocks cover the region exactly on any
        grid ordering; column spans hold whole lines of the target grid.
        ``mask`` selects the region's pairs of the block (broadcastable to it;
        None when all of them are in it, as in d = 1, where the spans are the
        bands); with ``threshold`` it keeps only pairs displaced by at least
        ``threshold``, by each block's distances, and none past the hulls' reach.
        ``dist`` holds the block's :func:`_axis_distances` if a threshold or ``tables`` ask.
        ``tables`` of another shape raise DomainError; their values are the caller's: a
        table of the right shape with other values gives other numbers."""
        src, tgt = pi.source.spec, pi.target.spec
        if tables is not None:
            want = [(src.n_points, len(a)) for a in tgt.axes]
            got = [np.shape(t) for t in tables] if np.iterable(tables) else np.shape(tables)
            if got != want:
                raise DomainError(f"distance tables of shape {got}, expected {want}")
        if threshold is not None and not _long(hull_reach(src, tgt), threshold):
            return []
        lines = tgt.n_points // tgt.extent[0]
        row_span, ball = src.ball_span(self.radius), tgt.ball_span(self.radius)
        col_span = slice(ball.start // lines * lines, -(-ball.stop // lines) * lines)
        col_band = tgt.point_norms <= self.radius
        span_rows = src.point_norms[row_span] <= self.radius
        row_mask = None if span_rows.all() else span_rows[:, None] | col_band[None, :]
        span_cols = col_band[col_span]
        col_mask = None if span_cols.all() else span_cols[None, :]
        out = []
        for rows, cols, mask in ((slice(0, row_span.start), col_span, col_mask),
                                 (row_span, slice(0, tgt.n_points), row_mask),
                                 (slice(row_span.stop, src.n_points), col_span, col_mask)):
            if rows.stop <= rows.start or cols.stop <= cols.start:
                continue
            dist = None if threshold is None and tables is None else _axis_distances(
                pi, rows, (slice(cols.start // lines, cols.stop // lines), slice(None)), tables)
            if threshold is not None:  # once per block, for the mask and the energy
                pairs = dist[0] if len(dist) == 1 else dist[0][:, :, None] + dist[1][:, None, :]
                long = _long(pairs.reshape(len(pairs), -1), threshold)
                mask = long if mask is None else long & mask
                if not mask.any():
                    continue
            out.append((rows, cols, mask, dist))
        return out

    def _axis_sums(self, pi: Coupling, threshold: float | None = None, tables=None) -> list:
        """Per block, (rows, dist, [(subscripts, factors, y_k) per target axis k]): the
        einsum product of the 2-d ``factors`` is M^k, the block's pairs summed over the
        target points of each axis-k coordinate y_k[q].  In d = 1 that is the block and
        its mask, unmultiplied; in d = 2, one einsum over the block's lines per axis."""
        axes, out = pi.target.spec.axes, []
        for rows, cols, where, dist in self.blocks(pi, threshold, tables):
            f = (pi.mass[rows, cols],) + (() if where is None else (where,))
            if len(axes) == 1:
                out.append((rows, dist, [(",".join(["ij"] * len(f)), f, axes[0][cols])]))
                continue
            lines = len(axes[1])
            cubes = [a.reshape(len(a), -1, lines) for a in f]
            sub = ",".join(["iql"] * len(cubes))
            out.append((rows, dist, [("ij", (np.einsum(sub + "->iq", *cubes),),
                                axes[0][cols.start // lines:cols.stop // lines]),
                               ("ij", (np.einsum(sub + "->il", *cubes),), axes[1])]))
        return out

    @staticmethod
    def _second_moment(sums: list[tuple], p: np.ndarray | None, about_x: bool = False) -> float:
        """sum pi_ij |y_j - p_i|^2 over the pairs of :meth:`_axis_sums` about a point p_i
        per source row, as sum_k sum_q (y_k[q] - p_ik)^2 M^k_i[q], since the cost is a sum
        over axes; with p None, the pairs' mass, sum M^0.  ``about_x`` says that p is the
        source points, so a block's ``dist``, formed about them, is read in place of p's."""
        total = 0.0
        for rows, dist, axis_sums in sums:
            for k, (sub, f, y) in enumerate(axis_sums[:1] if p is None else axis_sums):
                if p is not None:  # M^k weighed by (y_k[q] - p_ik)^2
                    w = (dist[k] if about_x and dist is not None else
                         squared_distances(p[rows, k:k + 1], y[:, None]))
                    sub, f = "ij," + sub, (w, *f)
                total += np.einsum(sub + "->", *f)
        return float(total)

    def energy(self, pi: Coupling, threshold: float | None = None, tables=None) -> float:
        """sum |x - y|^2 pi(x, y) over the region, or over its pairs displaced by at
        least ``threshold``, reading ``tables`` (see :meth:`blocks`) if given."""
        return self._second_moment(self._axis_sums(pi, threshold, tables), pi.source.points,
                                   about_x=True)

    def mass(self, pi: Coupling, threshold: float | None = None, tables=None) -> float:
        """pi(#_R), or the mass of its pairs displaced by at least ``threshold``."""
        return self._second_moment(self._axis_sums(pi, threshold, tables), None)

    def per_radius(self, value: float, power: float) -> float:
        """value / R^power; DomainError when R^power is not a positive finite float."""
        try:
            return value / self.radius**power
        except (OverflowError, ZeroDivisionError):
            raise DomainError(f"radius {self.radius!r} is out of range: "
                              f"R^{power} overflows or underflows") from None

    def row_moments(self, pi: Coupling) -> tuple:
        """(x_i, W_i, S_i, residual) for the rows with W_i > 0 of the plan P restricted
        to the region: W_i = sum_j P_ij, S_i = sum_j P_ij y_j and residual(pred) = sum_ij
        P_ij |y_j - pred_i|^2, a second moment, which avoids the cancellation of a least-
        squares fit's closed form.  All are numpy reductions of the region's per-axis
        sums in a fixed order, independent of BLAS threads."""
        n, d = pi.source.points.shape
        w, s = np.zeros(n), np.zeros((n, d))
        sums = self._axis_sums(pi)
        for rows, _, axis_sums in sums:
            w[rows] = np.einsum(axis_sums[0][0] + "->i", *axis_sums[0][1])
            for k, (sub, f, y) in enumerate(axis_sums):
                s[rows, k:k + 1] = np.einsum(sub + ",ja->ia", *f, y[:, None])
        keep = w > 0

        def residual(pred: np.ndarray) -> float:
            # A row without region mass has P_ij = 0 on the region, so its pred is never weighed.
            full = np.zeros((n, d))
            full[keep] = pred
            return self._second_moment(sums, full)

        return pi.source.points[keep], w[keep], s[keep], residual


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
    return np.where(weights > 0, err / np.where(weights > 0, weights, 1.0),
                    np.where(err == 0.0, 0.0, np.inf))


def check_marginals(pi: Coupling, tol: float = 1e-8) -> MarginalReport:
    """Per-row/column relative marginal errors against the declared measures."""
    row, col = pi.marginal_errors
    return MarginalReport(max_row_err=row, max_col_err=col, ok=row <= tol and col <= tol)


def local_energy(pi: Coupling, R: float, tables=None) -> float:
    """R^{-(d+2)} times the second displacement moment over the hash region;
    ``tables``, the plan's :func:`_axis_distances`, are read if given.  Only their
    shapes are checked: the diagonal plan of the uniform 16-point measure of mass 1
    on [-1, 1] reads 20.0 at R = 0.5 with ``[5 * np.ones((16, 16))]``, against 0.0."""
    region = HashRegion(R)
    return region.per_radius(region.energy(pi, None, tables), pi.dim + 2)


@dataclass(frozen=True)
class LongTrajStats:
    energy: float
    mass: float


def long_trajectory_stats(pi: Coupling, R: float, threshold: float, tables=None) -> LongTrajStats:
    """Normalized energy and mass of pairs in #_R with displacement >= threshold, from
    one pass over the blocks (``tables`` as for :func:`local_energy`)."""
    region = HashRegion(R)
    if not threshold >= 0:
        raise DomainError(f"threshold must be nonnegative, got {threshold}")
    sums, x = region._axis_sums(pi, threshold, tables), pi.source.points
    return LongTrajStats(energy=region.per_radius(region._second_moment(sums, x, True), pi.dim + 2),
                         mass=region.per_radius(region._second_moment(sums, None), pi.dim))


@dataclass(frozen=True)
class AffineFit:
    A: np.ndarray
    b: np.ndarray
    defect: float
    r: float
    degenerate: bool = False
    ridged: bool = False
    b_only: bool = False


def _ridged_solve(gram: np.ndarray, rhs: np.ndarray, cond_limit: float,
                  singular: Callable[[], bool] | None = None) -> tuple:
    """(theta, ridged) solving a least-squares fit's normal equations gram theta = rhs:
    past ``cond_limit``, with a 1e-12 ridge, or theta None if ``singular()`` holds."""
    if not (np.isfinite(gram).all() and np.isfinite(rhs).all()):
        raise DomainError("the least-squares fit's normal equations overflow")
    if np.linalg.cond(gram) > cond_limit:
        if singular is not None and singular():
            return None, False
        return np.linalg.solve(gram + 1e-12 * np.eye(len(gram)), rhs), True
    return np.linalg.solve(gram, rhs), False


def affine_fit(pi: Coupling, r: float) -> AffineFit:
    """Weighted least-squares fit of y ~ A x + b over the hash region at r.

    The defect is the minimized value of
    sum over #_r of |y - A x - b|^2 pi(x, y), divided by r^{d+2}.
    """
    region = HashRegion(r)
    d = pi.dim
    x, w, s, residual = region.row_moments(pi)
    if w.size == 0:
        return AffineFit(A=np.eye(d), b=np.zeros(d), defect=0.0, r=r, degenerate=True)
    # The design [x, 1] depends on the row only: the pairwise fit has the normal
    # equations of S_i / W_i on [x_i, 1] with weights W_i, shared by all outputs.
    z = np.concatenate([x, np.ones((x.shape[0], 1))], axis=1)
    gram = np.einsum("i,ia,ib->ab", w, z, z)
    rhs = np.einsum("ia,ib->ab", z, s)
    mass = np.sum(w)

    def flat() -> bool:
        # The rows' x span less than d dimensions: only b is determined.
        dx = x - np.einsum("i,ia->a", w, x) / mass
        cov = np.einsum("i,ia,ib->ab", w, dx, dx) / mass
        return np.linalg.eigvalsh(cov).min() < 1e-12 * max(1.0, float(np.trace(cov)))

    theta, ridged = _ridged_solve(gram, rhs, 1e12, flat)
    if theta is None:
        a_mat = np.zeros((d, d))
        b_vec = np.sum(s, axis=0) / mass
    else:
        a_mat = theta[:d, :].T
        b_vec = theta[d, :]

    pred = np.einsum("ab,ib->ia", a_mat, x) + b_vec
    defect = region.per_radius(residual(pred), d + 2)
    return AffineFit(A=a_mat, b=b_vec, defect=defect, r=r, ridged=ridged, b_only=theta is None)


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
    try:
        assignment = np.asarray(assignment, dtype=int)
    except (OverflowError, TypeError, ValueError) as exc:
        raise DomainError(f"assignment must hold target point indices: {exc}") from None
    if assignment.shape != (lam.spec.n_points,):
        raise DomainError("assignment must map every source point")
    if not np.all((0 <= assignment) & (assignment < target.spec.n_points)):
        raise DomainError("assignment names a target point that does not exist")
    mass = np.zeros((lam.spec.n_points, target.spec.n_points))
    mass[np.arange(assignment.size), assignment] = lam.weights
    return Coupling(source=lam, target=target, mass=mass)


def radius_scan_rows(
    pi: Coupling, lam: GridMeasure, mu: GridMeasure, radii: list[float]
) -> list[dict]:
    """Per-radius report rows with columns R,E,D,long_energy,long_mass,defect_beta0;
    a long trajectory at radius r is a displacement of at least
    ``LONG_TRAJECTORY_FACTOR * r``.  Hölder sups take one pass, 1-d distances one table."""
    tables, rows = _axis_distances(pi) if pi.dim == 1 else None, []
    for r, data in zip(radii, data_term(lam, mu, radii)):
        stats = long_trajectory_stats(pi, r, LONG_TRAJECTORY_FACTOR * r, tables)
        rows.append({"R": float(r), "E": local_energy(pi, r, tables), "D": data.D,
                     "long_energy": stats.energy, "long_mass": stats.mass,
                     "defect_beta0": affine_fit(pi, r).defect})
    return rows


# ---------------------------------------------------------------------------
# Binary dump + JSON header I/O
# ---------------------------------------------------------------------------


def save_coupling(pi: Coupling, bin_path: str | Path) -> None:
    """Row-major little-endian float64 dump plus a JSON header sidecar."""
    bin_path = Path(bin_path)
    with open(bin_path, "wb") as fh:
        pi.mass.astype("<f8", copy=False).tofile(fh)
    header = {
        "n_source": pi.source.spec.n_points,
        "n_target": pi.target.spec.n_points,
        "epsilon": pi.epsilon,
        "source_grid": dict(asdict(pi.source.spec), alpha=pi.source.alpha),
        "target_grid": dict(asdict(pi.target.spec), alpha=pi.target.alpha),
    }
    write_json(bin_path.with_suffix(".json"), header)


def load_coupling(bin_path: str | Path) -> Coupling:
    """Read a coupling written by :func:`save_coupling`.

    The marginal measures are rebuilt from the header's grids and the plan's
    row/column sums, which is only faithful for marginal-consistent couplings.
    A malformed header raises ConfigError, as does a value that is not of its
    type (sizes integers, ``alpha`` and ``epsilon`` finite numbers).
    """
    bin_path = Path(bin_path)
    header_path = bin_path.with_suffix(".json")
    if not header_path.exists():
        raise ConfigError(f"missing JSON header for coupling dump: {header_path}")
    with open(header_path) as fh:
        try:
            header = json.load(fh)
            n, m = (config_value(header, key, int) for key in ("n_source", "n_target"))
            grids = [(GridSpec.from_json_dict(header[key]),
                      config_value(header[key], "alpha", float))
                     for key in ("source_grid", "target_grid")]
            eps = None if header.get("epsilon") is None else config_value(header, "epsilon", float)
        except (ConfigError, KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"malformed coupling header {header_path}: {exc!r}") from exc
    raw = np.fromfile(bin_path, dtype="<f8")
    if min(n, m) < 0 or raw.size != n * m:
        raise ConfigError(
            f"coupling dump holds {raw.size} values, expected {n}x{m}={n * m}"
        )
    mass = raw.reshape(n, m)
    (src, src_alpha), (tgt, tgt_alpha) = grids
    return Coupling(source=GridMeasure(src, mass.sum(axis=1), src_alpha),
                    target=GridMeasure(tgt, mass.sum(axis=0), tgt_alpha), mass=mass, epsilon=eps)
