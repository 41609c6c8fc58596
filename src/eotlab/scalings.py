"""Affine rescalings acting on measures and couplings, with composition.

A rescaling s = (A, b, gamma, kappa) acts through the pair of maps

    Q1(x) = A^{-1} x,        Q2(y) = gamma * A (y - b),

pushing the source measure through Q1, the target through Q2, and scaling all
weights by kappa.  Composition is defined so that applying s1 then s2 agrees
exactly with applying compose(s2, s1).  Matching both maps forces

    gamma = gamma2 * gamma1,   kappa = kappa2 * kappa1,
    A = A2 @ A1,               b = b1 + A1^{-1} b2 / gamma1,

and, when A1 and A2 do not commute, a separately tracked source-side matrix
(A2 A1 is then not symmetric and no single matrix serves both maps).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .couplings import Coupling, check_marginals
from .errors import AdmissibilityError, DomainError
from .grids import GridMeasure, GridSpec, averaging_radius, density_at

__all__ = [
    "Windows",
    "DEFAULT_WINDOWS",
    "Scaling",
    "identity_scaling",
    "compose",
    "apply_to_measures",
    "apply_to_coupling",
    "normalizing_scaling",
    "transform_source_atoms",
    "transform_target_atoms",
    "scaling_to_json_dict",
    "scaling_from_json_dict",
]


@dataclass(frozen=True)
class Windows:
    """Compact admissibility windows for the dilation and mass factors."""

    gamma_min: float = 0.5
    gamma_max: float = 2.0
    kappa_min: float = 0.2
    kappa_max: float = 5.0


DEFAULT_WINDOWS = Windows()


@dataclass(frozen=True)
class Scaling:
    """One admissible rescaling; ``x_matrix`` overrides A^{-1} for composites."""

    A: np.ndarray
    b: np.ndarray
    gamma: float
    kappa: float
    x_matrix: np.ndarray | None = None

    def __post_init__(self) -> None:
        a = np.atleast_2d(np.asarray(self.A, dtype=float))
        b = np.atleast_1d(np.asarray(self.b, dtype=float))
        d = a.shape[0]
        if a.shape != (d, d) or b.shape != (d,):
            raise DomainError(f"matrix/vector shapes {a.shape}, {b.shape} inconsistent")
        if not (self.gamma > 0 and self.kappa > 0):
            raise DomainError("gamma and kappa must be positive")
        if self.x_matrix is None:
            scale = max(1.0, float(np.abs(a).max()))
            if np.abs(a - a.T).max() > 1e-12 * scale:
                raise DomainError("A must be symmetric")
            if np.linalg.eigvalsh(a).min() <= 0:
                raise DomainError("A must be positive-definite")
        else:
            xm = np.atleast_2d(np.asarray(self.x_matrix, dtype=float))
            if xm.shape != (d, d):
                raise DomainError("x_matrix shape inconsistent with A")
            xm.setflags(write=False)
            object.__setattr__(self, "x_matrix", xm)
        if np.linalg.cond(a) > 1e12:
            raise DomainError("A is numerically singular (cond > 1e12)")
        a.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "A", a)
        object.__setattr__(self, "b", b)

    @property
    def dim(self) -> int:
        return self.A.shape[0]

    @cached_property
    def source_matrix(self) -> np.ndarray:
        """Linear map applied to source points."""
        m = self.x_matrix if self.x_matrix is not None else np.linalg.inv(self.A)
        m = np.ascontiguousarray(m)
        m.setflags(write=False)
        return m

    @property
    def det_A(self) -> float:
        return float(np.linalg.det(self.A))

    def is_admissible(self, windows: Windows = DEFAULT_WINDOWS) -> bool:
        return (
            windows.gamma_min <= self.gamma <= windows.gamma_max
            and windows.kappa_min <= self.kappa <= windows.kappa_max
        )

    def require_admissible(self, windows: Windows = DEFAULT_WINDOWS) -> None:
        if not self.is_admissible(windows):
            raise AdmissibilityError(
                f"scaling (gamma={self.gamma}, kappa={self.kappa}) outside windows "
                f"G=[{windows.gamma_min}, {windows.gamma_max}], "
                f"K=[{windows.kappa_min}, {windows.kappa_max}]"
            )


def identity_scaling(dim: int) -> Scaling:
    return Scaling(A=np.eye(dim), b=np.zeros(dim), gamma=1.0, kappa=1.0)


def transform_source_atoms(s: Scaling, points: np.ndarray) -> np.ndarray:
    """Push source atom positions through Q1."""
    return np.asarray(points, dtype=float) @ s.source_matrix.T


def transform_target_atoms(s: Scaling, points: np.ndarray) -> np.ndarray:
    """Push target atom positions through Q2."""
    pts = np.asarray(points, dtype=float)
    return (pts - s.b[None, :]) @ (s.gamma * s.A).T


def compose(s2: Scaling, s1: Scaling, windows: Windows | None = DEFAULT_WINDOWS) -> Scaling:
    """Composite scaling: apply ``s1`` first, then ``s2``.

    Defined by the pushforward identity on both coordinates; see the module
    docstring for the component formulas.
    """
    if s1.dim != s2.dim:
        raise DomainError("scalings act in different dimensions")
    a_c = s2.A @ s1.A
    b_c = s1.b + np.linalg.solve(s1.A, s2.b) / s1.gamma
    gamma_c = s2.gamma * s1.gamma
    kappa_c = s2.kappa * s1.kappa
    x_c = s2.source_matrix @ s1.source_matrix
    # Drop the explicit source matrix whenever A_c^{-1} reproduces it, so
    # commuting composites stay in the plain symmetric form.
    try:
        inv_ac = np.linalg.inv(a_c)
        scale = max(1.0, float(np.abs(inv_ac).max()))
        plain = np.abs(x_c - inv_ac).max() <= 1e-12 * scale and np.abs(
            a_c - a_c.T
        ).max() <= 1e-12 * max(1.0, float(np.abs(a_c).max()))
    except np.linalg.LinAlgError:
        plain = False
    out = Scaling(
        A=a_c,
        b=b_c,
        gamma=gamma_c,
        kappa=kappa_c,
        x_matrix=None if plain else x_c,
    )
    if windows is not None:
        out.require_admissible(windows)
    return out


# ---------------------------------------------------------------------------
# Grid deposition
# ---------------------------------------------------------------------------


def _deposit(
    points: np.ndarray, weights: np.ndarray, h_new: float, alpha: float
) -> tuple[GridMeasure, np.ndarray]:
    """Conservative nearest-cell deposition onto a lattice anchored at the
    first transformed point; returns the measure and each atom's flat cell index."""
    d = points.shape[1]
    anchor = points[0] / h_new
    frac = anchor - np.floor(anchor)
    rel = points / h_new - frac[None, :]
    k = np.rint(rel).astype(int)
    k0 = np.rint(-frac).astype(int)
    kmin = np.minimum(k.min(axis=0), k0)
    kmax = np.maximum(k.max(axis=0), k0)
    # The origin must land inside the hull; pad by one cell where rounding
    # leaves it marginally outside.
    offset = -kmin - frac
    for a in range(d):
        if offset[a] < 0:
            kmin[a] -= 1
            offset[a] += 1
        if offset[a] > (kmax[a] - kmin[a]):
            kmax[a] += 1
    extent = tuple(int(kmax[a] - kmin[a] + 1) for a in range(d))
    spec = GridSpec(dim=d, h=h_new, extent=extent, origin_offset=tuple(float(o) for o in offset))
    cell = k - kmin[None, :]
    if d == 1:
        flat = cell[:, 0]
    else:
        flat = cell[:, 0] * extent[1] + cell[:, 1]
    new_weights = np.bincount(flat, weights=weights, minlength=spec.n_points)
    return GridMeasure(spec=spec, weights=new_weights, alpha=alpha), flat


def _source_spacing(s: Scaling, h: float) -> float:
    return h * abs(float(np.linalg.det(s.source_matrix))) ** (1.0 / s.dim)


def _target_spacing(s: Scaling, h: float) -> float:
    return h * s.gamma * abs(s.det_A) ** (1.0 / s.dim)


def _deposit_marginals(
    s: Scaling, lam: GridMeasure, mu: GridMeasure
) -> tuple[tuple[GridMeasure, np.ndarray], tuple[GridMeasure, np.ndarray]]:
    """Deposit both pushed-forward marginals; each comes with its atoms' cells."""
    source = _deposit(
        transform_source_atoms(s, lam.points),
        s.kappa * lam.weights,
        _source_spacing(s, lam.spec.h),
        lam.alpha,
    )
    target = _deposit(
        transform_target_atoms(s, mu.points),
        s.kappa * mu.weights,
        _target_spacing(s, mu.spec.h),
        mu.alpha,
    )
    return source, target


def apply_to_measures(
    s: Scaling,
    lam: GridMeasure,
    mu: GridMeasure,
    windows: Windows = DEFAULT_WINDOWS,
) -> tuple[GridMeasure, GridMeasure]:
    """Push both marginals through the rescaling and re-deposit onto fresh grids."""
    s.require_admissible(windows)
    (lam_s, _), (mu_s, _) = _deposit_marginals(s, lam, mu)
    return lam_s, mu_s


def apply_to_coupling(
    s: Scaling, pi: Coupling, windows: Windows = DEFAULT_WINDOWS
) -> Coupling:
    """Transform a coupling; the result is marginal-consistent with the
    transformed measures by construction (weights scale by kappa), and its
    ``source``/``target`` are what :func:`apply_to_measures` returns for
    ``pi.source``/``pi.target``."""
    s.require_admissible(windows)
    (lam_s, row_cell), (mu_s, col_cell) = _deposit_marginals(s, pi.source, pi.target)
    n, m = lam_s.spec.n_points, mu_s.spec.n_points
    cell = (row_cell[:, None] * m + col_cell[None, :]).ravel()
    mass = np.bincount(cell, weights=(s.kappa * pi.mass).ravel(), minlength=n * m)
    mass = mass.reshape(n, m)
    eps = None if pi.epsilon is None else pi.epsilon * s.gamma**-0.5
    out = Coupling(source=lam_s, target=mu_s, mass=mass, epsilon=eps)
    # The deposition is exact, so any marginal violation beyond what the input
    # coupling already carried indicates an internal error.
    before = check_marginals(pi, tol=np.inf)
    budget = max(1e-8, 2.0 * max(before.max_row_err, before.max_col_err))
    report = check_marginals(out, tol=budget)
    if not report.ok:
        raise DomainError(
            "internal consistency failure: transformed coupling violates "
            f"marginals (row {report.max_row_err:.3e}, col {report.max_col_err:.3e})"
        )
    return out


def normalizing_scaling(lam: GridMeasure, mu: GridMeasure) -> Scaling:
    """Scaling that sets both ball-averaged densities to 1 at the origin.

    kappa = 1/lam(0); gamma is the dilation factor that makes the transformed
    target density equal 1 at the origin, (mu(0)/lam(0))^{1/d} under the Q2
    convention used here.
    """
    r_avg = averaging_radius(lam, mu)
    d = lam.dim
    lam0 = density_at(lam, np.zeros(d), r_avg)
    mu0 = density_at(mu, np.zeros(d), r_avg)
    if lam0 <= 0 or mu0 <= 0:
        raise DomainError("origin densities must be positive to normalize")
    return Scaling(
        A=np.eye(d), b=np.zeros(d), gamma=(mu0 / lam0) ** (1.0 / d), kappa=1.0 / lam0
    )


def scaling_to_json_dict(s: Scaling) -> dict:
    out = {
        "A": [float(v) for v in s.A.ravel()],
        "b": [float(v) for v in s.b],
        "gamma": s.gamma,
        "kappa": s.kappa,
    }
    if s.x_matrix is not None:
        out["x_matrix"] = [float(v) for v in s.x_matrix.ravel()]
    return out


def scaling_from_json_dict(d: dict) -> Scaling:
    b = np.asarray(d["b"], dtype=float)
    dim = b.shape[0]
    xm = d.get("x_matrix")
    return Scaling(
        A=np.asarray(d["A"], dtype=float).reshape(dim, dim),
        b=b,
        gamma=float(d["gamma"]),
        kappa=float(d["kappa"]),
        x_matrix=None if xm is None else np.asarray(xm, dtype=float).reshape(dim, dim),
    )
