"""Discrete measures on regular grids: densities, Hölder seminorms, data term."""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import ConfigError, DomainError, SizeError, config_value
from .reports import write_json

__all__ = [
    "GridSpec",
    "GridMeasure",
    "DataTermReport",
    "averaging_radius",
    "density_at",
    "origin_density",
    "holder_seminorm",
    "squared_distances",
    "hull_reach",
    "data_term",
    "symmetric_grid",
    "make_measure",
    "measure_from_density",
    "save_measure",
    "load_measure",
    "DENSITY_KINDS",
    "DENSE_BYTES_LIMIT",
    "PLAN_ARRAYS",
    "require_dense_size",
]

# Neither solver forms an n x m array until its plan is read: Sinkhorn keeps
# its kernel in per-axis factors and the LP its cost on the shortlist's cells.
# Each solve's guard counts PLAN_ARRAYS: the plan it returns and one n x m
# temporary of a region read (a block's distances).  Sinkhorn adds its per-axis
# arrays, three n x m ones in d = 1.  An input whose arrays would pass
# DENSE_BYTES_LIMIT fails before they are allocated; so does a grid that no
# solve could take, even against the smallest grid of its dimension (2^dim points).
DENSE_BYTES_LIMIT = 2**30
PLAN_ARRAYS = 2

# Row blocks of this many points when forming the O(n^2) Hölder sup, and of
# about its square in entries when adding an axis to squared distances: each
# block's temporaries stay in cache.
_PAIR_BLOCK = 128


@dataclass(frozen=True)
class GridSpec:
    """Regular grid in dimension 1 or 2 with uniform spacing.

    The physical coordinate of the grid index ``i`` along axis ``a`` is
    ``(i - origin_offset[a]) * h``.  ``origin_offset`` may be fractional; the
    origin is only required to lie inside the grid's convex hull.
    """

    dim: int
    h: float
    extent: tuple[int, ...]
    origin_offset: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.dim not in (1, 2):
            raise DomainError(f"dim must be 1 or 2, got {self.dim}")
        if not 0 < self.h < np.inf:
            raise DomainError(f"grid spacing must be positive and finite, got {self.h}")
        if len(self.extent) != self.dim or len(self.origin_offset) != self.dim:
            raise DomainError("extent and origin_offset must have length dim")
        for a, (n, off) in enumerate(zip(self.extent, self.origin_offset)):
            if n < 2:
                raise DomainError(f"extent along axis {a} must be >= 2, got {n}")
            if not 0.0 <= off <= n - 1:
                raise DomainError(
                    f"origin lies outside the grid hull along axis {a}: "
                    f"offset {off} not in [0, {n - 1}]"
                )
        require_dense_size(self.n_points, 2**self.dim, PLAN_ARRAYS,
                           "the smallest solve with this grid")
        # Squared distances between points of two such grids, at most 4 max |x|^2, stay finite.
        with np.errstate(over="ignore"):
            reach = 4.0 * float(np.sum(np.max(np.abs(self.hull_bounds), axis=0) ** 2))
        if not reach < np.inf:
            raise DomainError(f"grid with spacing {self.h} and extent {self.extent} reaches so "
                              "far from the origin that its squared distances overflow")

    @property
    def n_points(self) -> int:
        return math.prod(int(n) for n in self.extent)

    @property
    def cell_volume(self) -> float:
        return float(self.h) ** self.dim

    @property
    def hull_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-axis coordinates of the first and the last grid index."""
        return np.array([a[0] for a in self.axes]), np.array([a[-1] for a in self.axes])

    @cached_property
    def axes(self) -> tuple[np.ndarray, ...]:
        """The coordinates along each axis, ascending; the grid is their product."""
        axes = tuple((np.arange(n, dtype=float) - off) * self.h
                     for n, off in zip(self.extent, self.origin_offset))
        for a in axes:
            a.setflags(write=False)
        return axes

    @cached_property
    def points(self) -> np.ndarray:
        """All grid points as an (n_points, dim) array, row-major index order."""
        pts = np.stack(np.meshgrid(*self.axes, indexing="ij"), axis=-1).reshape(-1, self.dim)
        pts.setflags(write=False)
        return pts

    @cached_property
    def point_norms(self) -> np.ndarray:
        norms = np.linalg.norm(self.points, axis=1)
        norms.setflags(write=False)
        return norms

    def ball_span(self, radius: float) -> slice:
        """The shortest slice of point indices holding every point with
        |x| <= radius; empty when there is none."""
        hits = np.flatnonzero(self.point_norms <= radius)
        return slice(int(hits[0]), int(hits[-1]) + 1) if hits.size else slice(0, 0)

    @classmethod
    def from_json_dict(cls, d: dict) -> "GridSpec":
        """The spec of ``dataclasses.asdict(spec)``; ConfigError unless ``dim`` and ``extent``
        are integers and ``h`` and ``origin_offset`` finite (none is truncated or parsed)."""
        return cls(
            dim=config_value(d, "dim", int),
            h=config_value(d, "h", float),
            extent=tuple(config_value({"extent": n}, "extent", int) for n in d["extent"]),
            origin_offset=tuple(config_value(d, "origin_offset", list)),
        )


@dataclass(frozen=True)
class GridMeasure:
    """Nonnegative weights on a regular grid; density = weight / h^dim."""

    spec: GridSpec
    weights: np.ndarray
    alpha: float

    def __post_init__(self) -> None:
        w = np.ascontiguousarray(np.asarray(self.weights, dtype=float).ravel())
        if w.shape[0] != self.spec.n_points:
            raise DomainError(
                f"weights length {w.shape[0]} does not match grid with "
                f"{self.spec.n_points} points"
            )
        if not np.all(np.isfinite(w)):
            raise DomainError("weights must be finite (no NaN or inf)")
        if np.any(w < 0):
            raise DomainError("weights must be nonnegative")
        with np.errstate(over="ignore"):
            total = np.sum(w)
        if not 0 < total < np.inf:
            raise DomainError("total mass must be positive and finite")
        if not 0.0 < self.alpha < 1.0:
            raise DomainError(f"alpha must lie in (0, 1), got {self.alpha}")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def dim(self) -> int:
        return self.spec.dim

    @property
    def points(self) -> np.ndarray:
        return self.spec.points

    @property
    def total_mass(self) -> float:
        return float(np.sum(self.weights))

    @cached_property
    def densities(self) -> np.ndarray:
        d = self.weights / self.spec.cell_volume
        d.setflags(write=False)
        return d

    def scaled(self, factor: float) -> "GridMeasure":
        """Return a copy with all weights multiplied by ``factor``."""
        return GridMeasure(self.spec, self.weights * factor, self.alpha)


@dataclass(frozen=True)
class DataTermReport:
    """Hölder seminorms of two densities plus their squared origin gap."""

    R: float
    holder_lambda: float
    holder_mu: float
    origin_gap: float
    D: float


def require_dense_size(n: int, m: int, arrays: int, what: str) -> None:
    """Raise SizeError, before anything large is allocated, when ``arrays``
    float arrays of n x m entries would need more than DENSE_BYTES_LIMIT."""
    need = arrays * n * m * np.dtype(float).itemsize
    if need > DENSE_BYTES_LIMIT:
        raise SizeError(
            f"{what} on {n} x {m} support points needs about {need / 2**20:,.0f} MiB "
            f"of dense arrays; the limit is {DENSE_BYTES_LIMIT / 2**20:,.0f} MiB"
        )


def squared_distances(x: np.ndarray, y: np.ndarray, pairwise: bool = False) -> np.ndarray:
    """|x_i - y_j|^2 for all i, j of two (n, d) point arrays (with ``pairwise``, for
    i = j only, in the same bits): sum_a (x_a - y_a)^2, exactly 0 at coincident points."""
    diff = np.subtract if pairwise else np.subtract.outer
    total = diff(x[:, 0], y[:, 0])
    np.square(total, out=total)
    # The other axes are added in row blocks of about _PAIR_BLOCK^2 entries,
    # so that no second n x m array is allocated.
    step = _PAIR_BLOCK**2 if pairwise else max(1, _PAIR_BLOCK**2 // max(1, len(y)))
    for a in range(1, x.shape[1]):
        for start in range(0, len(x), step):
            rows = slice(start, start + step)
            gap = diff(x[rows, a], (y[rows] if pairwise else y)[:, a])
            total[rows] += np.square(gap, out=gap)
    return total


def hull_reach(x: GridSpec, y: GridSpec) -> float:
    """max |x - y|^2 over two grids' hulls, sum_a max(hi_x - lo_y, hi_y - lo_x)^2:
    rounding is monotone, so no pair's rounded squared distance exceeds it."""
    (lo_x, hi_x), (lo_y, hi_y) = x.hull_bounds, y.hull_bounds
    return float(np.sum(np.maximum(hi_x - lo_y, hi_y - lo_x) ** 2))


def _as_point(x, dim: int) -> np.ndarray:
    p = np.atleast_1d(np.asarray(x, dtype=float))
    if p.shape != (dim,):
        raise DomainError(f"point must have shape ({dim},), got {p.shape}")
    return p


def _in_hull(spec: GridSpec, x: np.ndarray) -> bool:
    lo, hi = spec.hull_bounds
    return bool(np.all((lo - 1e-12 <= x) & (x <= hi + 1e-12)))


def averaging_radius(*measures: GridMeasure) -> float:
    """Radius of the ball averages: three spacings of the coarsest grid given.
    Taken on one measure alone, it dilates with that measure's grid."""
    return 3.0 * max(m.spec.h for m in measures)


def density_at(m: GridMeasure, x, r_avg: float) -> float:
    """Ball-averaged density at ``x``: mass of B_r(x) over its discrete volume."""
    p = _as_point(x, m.dim)
    if not _in_hull(m.spec, p):
        raise DomainError(f"point {p.tolist()} lies outside the grid hull")
    if r_avg < m.spec.h:
        raise DomainError(
            f"averaging radius {r_avg} is below the grid spacing {m.spec.h}"
        )
    inside = np.linalg.norm(m.points - p[None, :], axis=1) <= r_avg
    count = int(np.count_nonzero(inside))
    if count == 0:
        raise DomainError(f"no grid points inside the ball of radius {r_avg} at {p.tolist()}")
    return float(np.sum(m.weights[inside]) / (count * m.spec.cell_volume))


def origin_density(m: GridMeasure) -> float:
    """Ball-averaged density at the origin over ``averaging_radius(m)``, three
    of the measure's own spacings: the normalisation and its check read this."""
    return density_at(m, np.zeros(m.dim), averaging_radius(m))


def holder_seminorm(m: GridMeasure, R: float) -> float:
    """Exact discrete sup over point pairs in B_R of |density gap| / dist^alpha."""
    inside = m.spec.point_norms <= R
    pts = m.points[inside]
    dens = m.densities[inside]
    n = pts.shape[0]
    if n < 2:
        raise DomainError(f"fewer than 2 grid points inside B_{R} at grid spacing {m.spec.h:.4g}")
    if dens.min() == dens.max():
        return 0.0  # every gap is exactly 0, as is every ratio below
    best = 0.0
    # Each unordered pair once: a row block against the points from its own start.
    for start in range(0, n, _PAIR_BLOCK):
        stop = min(start + _PAIR_BLOCK, n)
        dist = np.sqrt(squared_distances(pts[start:stop], pts[start:]))
        gap = np.abs(dens[start:stop, None] - dens[None, start:])
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = gap / dist**m.alpha
        ratio[dist == 0.0] = 0.0
        best = max(best, float(ratio.max()))
    return best


def data_term(lam: GridMeasure, mu: GridMeasure, R: float) -> DataTermReport:
    """Assemble R^{2a}(Hölder seminorms squared) + squared origin density gap,
    the densities averaged over ``averaging_radius(lam, mu)``."""
    if lam.dim != mu.dim:
        raise DomainError("measures must share the same dimension")
    if lam.alpha != mu.alpha:
        raise DomainError("measures must share the same Hölder exponent")
    hl = holder_seminorm(lam, R)
    hm = holder_seminorm(mu, R)
    origin = np.zeros(lam.dim)
    r_avg = averaging_radius(lam, mu)
    gap = abs(density_at(lam, origin, r_avg) - density_at(mu, origin, r_avg))
    d_val = R ** (2.0 * lam.alpha) * (hl**2 + hm**2) + gap**2
    return DataTermReport(R=R, holder_lambda=hl, holder_mu=hm, origin_gap=gap, D=d_val)


# ---------------------------------------------------------------------------
# Grid construction and analytic densities
# ---------------------------------------------------------------------------


def symmetric_grid(dim: int, n: int, lo: float, hi: float) -> GridSpec:
    """Endpoint-inclusive grid with ``n`` points per axis on [lo, hi]^dim."""
    if dim not in (1, 2):  # before (n,) * dim is built
        raise DomainError(f"dim must be 1 or 2, got {dim}")
    if not lo < 0.0 < hi:
        raise DomainError(f"interval [{lo}, {hi}] must contain 0 in its interior")
    if n < 2:
        raise DomainError("need at least 2 points per axis")
    h = (hi - lo) / (n - 1)
    off = -lo / h
    return GridSpec(dim=dim, h=h, extent=(n,) * dim, origin_offset=(off,) * dim)


def _density_uniform(pts: np.ndarray, params: dict) -> np.ndarray:
    value = config_value(params, "value", float, 1.0, where="density.")
    return np.full(pts.shape[0], value)


def _per_axis(params: dict, key: str, dim: int) -> np.ndarray:
    """``params[key]`` (default 0) as one value per axis: a number, or a list of
    1 or ``dim`` numbers."""
    raw = params.get(key, 0.0)
    values = config_value({key: raw if isinstance(raw, list) else [raw]}, key, list,
                          where="density.")
    if len(values) not in (1, dim):
        raise ConfigError(f"density.{key} must have 1 or {dim} entries, got {raw!r}")
    return np.resize(np.asarray(values), dim)


def _density_affine(pts: np.ndarray, params: dict) -> np.ndarray:
    intercept = config_value(params, "intercept", float, 1.0, where="density.")
    return intercept + pts @ _per_axis(params, "slope", pts.shape[1])


def _density_gaussian(pts: np.ndarray, params: dict) -> np.ndarray:
    sigma = config_value(params, "sigma", float, 0.5, positive=True, where="density.")
    amplitude = config_value(params, "amplitude", float, 1.0, where="density.")
    floor = config_value(params, "floor", float, 0.0, where="density.")
    center = _per_axis(params, "center", pts.shape[1])
    sq = squared_distances(pts, center[None, :])[:, 0]
    return floor + amplitude * np.exp(-sq / (2.0 * sigma**2))


def _density_perturbed_uniform(pts: np.ndarray, params: dict) -> np.ndarray:
    amplitude = config_value(params, "amplitude", float, 0.1, where="density.")
    freq = config_value(params, "freq", float, 1.0, where="density.")
    wave = np.prod(np.cos(freq * np.pi * pts), axis=1)
    return 1.0 + amplitude * wave


def _image_of_unit_density(pts: np.ndarray, u: Callable, du: Callable) -> np.ndarray:
    """Density of the image of the unit density on [-1, 1] under the map
    T(x) = x + u(x): 1 / T'(T^{-1}(y)), with T^{-1} found by bisection.

    One-dimensional only; T must be monotone, which is checked on a probe grid.
    """
    if pts.shape[1] != 1:
        raise ConfigError("shifted_profile densities are one-dimensional")
    probe = np.linspace(-1.0, 1.0, 4001)
    if np.min(1.0 + du(probe)) <= 1e-6:
        raise ConfigError("shifted_profile parameters make the transport map non-monotone")
    y = pts[:, 0]
    lo = np.full_like(y, -1.0)
    hi = np.full_like(y, 1.0)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        too_low = mid + u(mid) < y
        lo = np.where(too_low, mid, lo)
        hi = np.where(too_low, hi, mid)
    x = 0.5 * (lo + hi)
    return 1.0 / (1.0 + du(x))


def _density_shifted_profile(pts: np.ndarray, params: dict) -> np.ndarray:
    """Image of the unit density under x -> x + u(x) on [-1, 1], with
    u = (c0 + c1|x|^{1+p}) * (1-x^2)^w.

    The displacement vanishes at the interval ends so the map sends [-1, 1]
    onto itself.
    """
    c0 = config_value(params, "c0", float, 0.0, where="density.")
    c1 = config_value(params, "c1", float, 0.0, where="density.")
    p = config_value(params, "exponent", float, 0.25, where="density.")
    w = config_value(params, "window_power", float, 1.0, where="density.")

    def u(x: np.ndarray) -> np.ndarray:
        return (c0 + c1 * np.abs(x) ** (1.0 + p)) * (1.0 - x**2) ** w

    def du(x: np.ndarray) -> np.ndarray:
        cusp = c1 * (1.0 + p) * np.sign(x) * np.abs(x) ** p
        win = (1.0 - x**2) ** w
        dwin = -2.0 * w * x * (1.0 - x**2) ** (w - 1.0)
        return cusp * win + dwin * (c0 + c1 * np.abs(x) ** (1.0 + p))

    return _image_of_unit_density(pts, u, du)


DENSITY_KINDS: dict[str, Callable[[np.ndarray, dict], np.ndarray]] = {
    "uniform": _density_uniform,
    "affine": _density_affine,
    "gaussian": _density_gaussian,
    "perturbed_uniform": _density_perturbed_uniform,
    "shifted_profile": _density_shifted_profile,
}


def measure_from_density(
    spec: GridSpec,
    density: Callable[[np.ndarray], np.ndarray] | np.ndarray,
    alpha: float,
    normalize: bool = False,
) -> GridMeasure:
    """Build a measure with weight = density(x) * cell volume at each point."""
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            values = density(spec.points) if callable(density) else np.asarray(density, float)
            if not np.all(np.isfinite(values) & (values >= 0)):
                raise ConfigError("density takes negative or non-finite values on the grid")
            weights = values * spec.cell_volume
            if normalize:
                weights = weights / np.sum(weights)
    except OverflowError as exc:
        raise ConfigError(f"density parameters overflow on the grid: {exc}") from exc
    return GridMeasure(spec=spec, weights=weights, alpha=alpha)


def make_measure(cfg: dict) -> GridMeasure:
    """Build a GridMeasure from a config dict (analytic density or CSV file)."""
    if "file" in cfg:
        path = config_value(cfg, "file", str)
        try:
            return load_measure(Path(path))
        except OSError as exc:
            raise ConfigError(f"cannot read measure file {path}: {exc}") from exc
    grid_cfg, density_cfg = cfg.get("grid"), cfg.get("density")
    if not (isinstance(grid_cfg, dict) and isinstance(density_cfg, dict)):
        raise ConfigError("marginal spec needs a 'grid' and a 'density' object")
    alpha = config_value(cfg, "alpha", float)
    spec = symmetric_grid(
        dim=config_value(grid_cfg, "dim", int, 1, where="grid."),
        n=config_value(grid_cfg, "n", int, where="grid."),
        lo=config_value(grid_cfg, "lo", float, -1.0, where="grid."),
        hi=config_value(grid_cfg, "hi", float, 1.0, where="grid."),
    )
    kind = config_value(density_cfg, "kind", str, where="density.")
    if kind not in DENSITY_KINDS:
        raise ConfigError(
            f"unknown density kind {kind!r}; valid kinds: {sorted(DENSITY_KINDS)}"
        )
    fn = DENSITY_KINDS[kind]
    params = {k: v for k, v in density_cfg.items() if k != "kind"}
    return measure_from_density(
        spec,
        lambda pts: fn(pts, params),
        alpha=alpha,
        normalize=config_value(cfg, "normalize", bool, True),
    )


# ---------------------------------------------------------------------------
# CSV + JSON sidecar I/O
# ---------------------------------------------------------------------------


def _sidecar_path(csv_path: Path) -> Path:
    return csv_path.with_suffix(".json")


def save_measure(m: GridMeasure, csv_path: str | Path) -> None:
    """Write weights as CSV (header index_0, ..., weight) plus a JSON sidecar."""
    csv_path = Path(csv_path)
    index = np.unravel_index(np.arange(m.spec.n_points), m.spec.extent)
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"index_{a}" for a in range(m.dim)] + ["weight"])
        for *idx, w in zip(*(i.tolist() for i in index), m.weights.tolist()):
            writer.writerow([*idx, repr(w)])
    write_json(_sidecar_path(csv_path), dict(asdict(m.spec), alpha=m.alpha))


def load_measure(csv_path: str | Path) -> GridMeasure:
    """Read a measure written by :func:`save_measure`; points without a row get
    weight 0.  A malformed sidecar or row, or an index off the grid or repeated,
    raises ConfigError."""
    csv_path = Path(csv_path)
    sidecar = _sidecar_path(csv_path)
    if not sidecar.exists():
        raise ConfigError(f"missing JSON sidecar for measure file: {sidecar}")
    with open(sidecar) as fh:
        try:
            meta = json.load(fh)
            spec = GridSpec.from_json_dict(meta)
            alpha = config_value(meta, "alpha", float)
        except (ConfigError, KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"malformed measure sidecar {sidecar}: {exc!r}") from exc
    weights = np.zeros(spec.n_points)
    seen = np.zeros(spec.n_points, dtype=bool)
    with open(csv_path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        index_cols = len(header) - 1
        if index_cols != spec.dim:
            raise ConfigError(
                f"CSV has {index_cols} index columns but the sidecar says dim={spec.dim}"
            )
        for line, row in enumerate(reader, start=2):
            where = f"{csv_path} line {line}"
            if len(row) != len(header):
                raise ConfigError(f"{where}: {len(row)} cells, expected {len(header)}")
            try:
                idx = tuple(int(v) for v in row[:index_cols])
                weight = float(row[-1])
            except ValueError as exc:
                raise ConfigError(f"{where}: non-numeric cell in {row}") from exc
            if not all(0 <= i < n for i, n in zip(idx, spec.extent)):
                raise ConfigError(f"{where}: index {idx} outside the grid extent {spec.extent}")
            flat = int(np.ravel_multi_index(idx, spec.extent))
            if seen[flat]:
                raise ConfigError(f"{where}: duplicate row for index {idx}")
            seen[flat] = True
            weights[flat] = weight
    return GridMeasure(spec=spec, weights=weights, alpha=alpha)
