"""Discrete measures on regular grids: densities, Hölder seminorms, data term."""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import ConfigError, DomainError, config_value

__all__ = [
    "GridSpec",
    "GridMeasure",
    "DataTermReport",
    "averaging_radius",
    "density_at",
    "holder_seminorm",
    "data_term",
    "symmetric_grid",
    "make_measure",
    "measure_from_density",
    "save_measure",
    "load_measure",
    "DENSITY_KINDS",
]

# Pair blocks of this many rows when forming the O(n^2) Hölder sup, to cap
# peak memory at desk scale.
_PAIR_BLOCK = 512


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

    @property
    def n_points(self) -> int:
        return int(np.prod(self.extent))

    @property
    def cell_volume(self) -> float:
        return float(self.h) ** self.dim

    @property
    def hull_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-axis coordinates of the first and the last grid index."""
        off = np.asarray(self.origin_offset, dtype=float)
        return -off * self.h, (np.asarray(self.extent) - 1 - off) * self.h

    @cached_property
    def points(self) -> np.ndarray:
        """All grid points as an (n_points, dim) array, row-major index order."""
        axes = [
            (np.arange(n, dtype=float) - off) * self.h
            for n, off in zip(self.extent, self.origin_offset)
        ]
        if self.dim == 1:
            pts = axes[0][:, None]
        else:
            mesh = np.meshgrid(*axes, indexing="ij")
            pts = np.stack(mesh, axis=-1).reshape(-1, self.dim)
        pts.setflags(write=False)
        return pts

    @cached_property
    def point_norms(self) -> np.ndarray:
        norms = np.linalg.norm(self.points, axis=1)
        norms.setflags(write=False)
        return norms

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "h": self.h,
            "extent": list(self.extent),
            "origin_offset": list(self.origin_offset),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "GridSpec":
        return cls(
            dim=int(d["dim"]),
            h=float(d["h"]),
            extent=tuple(int(n) for n in d["extent"]),
            origin_offset=tuple(float(o) for o in d["origin_offset"]),
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
        if not 0 < np.sum(w) < np.inf:
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


def _as_point(x, dim: int) -> np.ndarray:
    p = np.atleast_1d(np.asarray(x, dtype=float))
    if p.shape != (dim,):
        raise DomainError(f"point must have shape ({dim},), got {p.shape}")
    return p


def _in_hull(spec: GridSpec, x: np.ndarray) -> bool:
    lo, hi = spec.hull_bounds
    return bool(np.all((lo - 1e-12 <= x) & (x <= hi + 1e-12)))


def averaging_radius(lam: GridMeasure, mu: GridMeasure) -> float:
    """Radius of the origin ball averages: three spacings of the coarser grid."""
    return 3.0 * max(lam.spec.h, mu.spec.h)


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


def holder_seminorm(m: GridMeasure, R: float) -> float:
    """Exact discrete sup over point pairs in B_R of |density gap| / dist^alpha."""
    inside = m.spec.point_norms <= R
    pts = m.points[inside]
    dens = m.densities[inside]
    n = pts.shape[0]
    if n < 2:
        raise DomainError(f"fewer than 2 grid points inside B_{R}")
    best = 0.0
    for start in range(0, n, _PAIR_BLOCK):
        stop = min(start + _PAIR_BLOCK, n)
        diff = pts[start:stop, None, :] - pts[None, :, :]
        dist = np.linalg.norm(diff, axis=2)
        gap = np.abs(dens[start:stop, None] - dens[None, :])
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = gap / dist**m.alpha
        ratio[dist == 0.0] = 0.0
        best = max(best, float(ratio.max()))
    return best


def data_term(
    lam: GridMeasure, mu: GridMeasure, R: float, r_avg: float | None = None
) -> DataTermReport:
    """Assemble R^{2a}(Hölder seminorms squared) + squared origin density gap."""
    if lam.dim != mu.dim:
        raise DomainError("measures must share the same dimension")
    if lam.alpha != mu.alpha:
        raise DomainError("measures must share the same Hölder exponent")
    if r_avg is None:
        r_avg = averaging_radius(lam, mu)
    hl = holder_seminorm(lam, R)
    hm = holder_seminorm(mu, R)
    origin = np.zeros(lam.dim)
    gap = abs(density_at(lam, origin, r_avg) - density_at(mu, origin, r_avg))
    d_val = R ** (2.0 * lam.alpha) * (hl**2 + hm**2) + gap**2
    return DataTermReport(R=R, holder_lambda=hl, holder_mu=hm, origin_gap=gap, D=d_val)


# ---------------------------------------------------------------------------
# Grid construction and analytic densities
# ---------------------------------------------------------------------------


def symmetric_grid(dim: int, n: int, lo: float, hi: float) -> GridSpec:
    """Endpoint-inclusive grid with ``n`` points per axis on [lo, hi]^dim."""
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
    sigma = config_value(params, "sigma", float, 0.5, where="density.")
    amplitude = config_value(params, "amplitude", float, 1.0, where="density.")
    floor = config_value(params, "floor", float, 0.0, where="density.")
    center = _per_axis(params, "center", pts.shape[1])
    sq = np.sum((pts - center[None, :]) ** 2, axis=1)
    return floor + amplitude * np.exp(-sq / (2.0 * sigma**2))


def _density_perturbed_uniform(pts: np.ndarray, params: dict) -> np.ndarray:
    amplitude = config_value(params, "amplitude", float, 0.1, where="density.")
    freq = config_value(params, "freq", float, 1.0, where="density.")
    wave = np.prod(np.cos(freq * np.pi * pts), axis=1)
    return 1.0 + amplitude * wave


def _image_of_unit_density(
    pts: np.ndarray, u: Callable, du: Callable, kind: str
) -> np.ndarray:
    """Density of the image of the unit density on [-1, 1] under the map
    T(x) = x + u(x): 1 / T'(T^{-1}(y)), with T^{-1} found by bisection.

    One-dimensional only; T must be monotone, which is checked on a probe grid.
    """
    if pts.shape[1] != 1:
        raise ConfigError(f"{kind} densities are one-dimensional")
    probe = np.linspace(-1.0, 1.0, 4001)
    if np.min(1.0 + du(probe)) <= 1e-6:
        raise ConfigError(f"{kind} parameters make the transport map non-monotone")
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

    return _image_of_unit_density(pts, u, du, "shifted_profile")


def _density_ramp_shift(pts: np.ndarray, params: dict) -> np.ndarray:
    """Image of the unit density under an odd inward ramp displacement.

    u'(x) = -c * S((|x| - offset)/width) with S the cubic smoothstep, plus an
    optional centered shift c0*(1-x^2)^2.  The slope vanishes near the origin,
    so the displacement energy is carried at the ramp scale and decays when the
    observation radius drops below it.
    """
    c0 = config_value(params, "c0", float, 0.0, where="density.")
    c = config_value(params, "c", float, 0.1, where="density.")
    offset = config_value(params, "offset", float, 0.05, where="density.")
    width = config_value(params, "width", float, 0.3, where="density.")

    def smoothstep(t: np.ndarray) -> np.ndarray:
        t = np.clip(t, 0.0, 1.0)
        return t * t * (3.0 - 2.0 * t)

    def ramp_integral(t: np.ndarray) -> np.ndarray:
        # integral of smoothstep from 0 to t
        t_c = np.clip(t, 0.0, 1.0)
        inner = t_c**3 - 0.5 * t_c**4
        return inner + np.maximum(t - 1.0, 0.0)

    def u(x: np.ndarray) -> np.ndarray:
        shelf = width * ramp_integral((np.abs(x) - offset) / width)
        return c0 * (1.0 - x**2) ** 2 - c * np.sign(x) * shelf * (1.0 - x**2) ** 2

    def du(x: np.ndarray) -> np.ndarray:
        win = (1.0 - x**2) ** 2
        dwin = -4.0 * x * (1.0 - x**2)
        shelf = width * ramp_integral((np.abs(x) - offset) / width)
        dshelf = smoothstep((np.abs(x) - offset) / width) * np.sign(x)
        return (
            c0 * dwin
            - c * np.sign(x) * (dshelf * win + shelf * dwin)
        )

    return _image_of_unit_density(pts, u, du, "ramp_shift")


DENSITY_KINDS: dict[str, Callable[[np.ndarray, dict], np.ndarray]] = {
    "uniform": _density_uniform,
    "affine": _density_affine,
    "gaussian": _density_gaussian,
    "perturbed_uniform": _density_perturbed_uniform,
    "shifted_profile": _density_shifted_profile,
    "ramp_shift": _density_ramp_shift,
}


def measure_from_density(
    spec: GridSpec,
    density: Callable[[np.ndarray], np.ndarray] | np.ndarray,
    alpha: float,
    normalize: bool = False,
) -> GridMeasure:
    """Build a measure with weight = density(x) * cell volume at each point."""
    values = density(spec.points) if callable(density) else np.asarray(density, float)
    if np.any(values < 0):
        raise ConfigError("density takes negative values on the grid")
    weights = values * spec.cell_volume
    if normalize:
        weights = weights / np.sum(weights)
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
    """Write weights as CSV (header index_0[,index_1],weight) plus a JSON sidecar."""
    csv_path = Path(csv_path)
    header = ["index_0", "weight"] if m.dim == 1 else ["index_0", "index_1", "weight"]
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        if m.dim == 1:
            for i, w in enumerate(m.weights):
                writer.writerow([i, repr(float(w))])
        else:
            n1 = m.spec.extent[1]
            for flat, w in enumerate(m.weights):
                writer.writerow([flat // n1, flat % n1, repr(float(w))])
    sidecar = dict(m.spec.to_json_dict(), alpha=m.alpha)
    with open(_sidecar_path(csv_path), "w") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")


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
            alpha = float(meta["alpha"])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
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
