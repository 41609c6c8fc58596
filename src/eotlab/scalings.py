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
from .errors import AdmissibilityError, ConfigError, DomainError, SizeError, config_value
from .grids import GridMeasure, GridSpec, origin_density

__all__ = [
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


# The compact admissibility windows G and K for the dilation and mass factors.
GAMMA_WINDOW = (0.5, 2.0)
KAPPA_WINDOW = (0.2, 5.0)


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
        if not (0 < self.gamma < np.inf and 0 < self.kappa < np.inf):
            raise DomainError("gamma and kappa must be positive and finite")
        if not (np.isfinite(a).all() and np.isfinite(b).all()):
            raise DomainError("A and b must be finite")
        if self.x_matrix is None:
            scale = max(1.0, float(np.abs(a).max()))
            if np.abs(a - a.T).max() > 1e-12 * scale:
                raise DomainError("A must be symmetric")
            if np.linalg.eigvalsh(a).min() <= 0:
                raise DomainError("A must be positive-definite")
        else:
            xm = np.atleast_2d(np.asarray(self.x_matrix, dtype=float))
            if xm.shape != (d, d) or not np.isfinite(xm).all():
                raise DomainError("x_matrix must be a finite matrix of A's shape")
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

    def require_admissible(self) -> None:
        (g_lo, g_hi), (k_lo, k_hi) = GAMMA_WINDOW, KAPPA_WINDOW
        if not (g_lo <= self.gamma <= g_hi and k_lo <= self.kappa <= k_hi):
            raise AdmissibilityError(
                f"scaling (gamma={self.gamma}, kappa={self.kappa}) outside windows "
                f"G=[{g_lo}, {g_hi}], K=[{k_lo}, {k_hi}]"
            )


def identity_scaling(dim: int) -> Scaling:
    if dim not in (1, 2):
        raise DomainError(f"dim must be 1 or 2, got {dim}")
    return Scaling(A=np.eye(dim), b=np.zeros(dim), gamma=1.0, kappa=1.0)


def _atoms(s: Scaling, points: np.ndarray) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != s.dim:
        raise DomainError(f"atoms of a {s.dim}-d scaling need shape (n, {s.dim}), got {pts.shape}")
    return pts


def _finite_atoms(image: np.ndarray) -> np.ndarray:
    if not np.isfinite(image).all():
        raise DomainError("transformed atom positions overflow or are not finite")
    return image


def transform_source_atoms(s: Scaling, points: np.ndarray) -> np.ndarray:
    """Push source atom positions through Q1."""
    pts = _atoms(s, points)
    with np.errstate(over="ignore", invalid="ignore"):
        return _finite_atoms(pts @ s.source_matrix.T)


def transform_target_atoms(s: Scaling, points: np.ndarray) -> np.ndarray:
    """Push target atom positions through Q2."""
    pts = _atoms(s, points)
    with np.errstate(over="ignore", invalid="ignore"):
        return _finite_atoms((pts - s.b[None, :]) @ (s.gamma * s.A).T)


def compose(s2: Scaling, s1: Scaling) -> Scaling:
    """Composite scaling: apply ``s1`` first, then ``s2``.

    Defined by the pushforward identity on both coordinates; see the module
    docstring for the component formulas.  The windows are not checked here;
    ``apply_to_*`` check them, and so can ``.require_admissible()`` on the result.
    """
    if s1.dim != s2.dim:
        raise DomainError("scalings act in different dimensions")
    # A product that overflows is refused before A_c is inverted; a b_c that
    # does, by Scaling.
    with np.errstate(over="ignore", invalid="ignore"):
        a_c = s2.A @ s1.A
        b_c = s1.b + np.linalg.solve(s1.A, s2.b) / s1.gamma
        x_c = s2.source_matrix @ s1.source_matrix
    gamma_c = s2.gamma * s1.gamma
    kappa_c = s2.kappa * s1.kappa
    if not (np.isfinite(a_c).all() and np.isfinite(x_c).all()):
        raise DomainError("composite scaling overflows")
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
    return Scaling(A=a_c, b=b_c, gamma=gamma_c, kappa=kappa_c,
                   x_matrix=None if plain else x_c)


# ---------------------------------------------------------------------------
# Grid deposition
# ---------------------------------------------------------------------------


def _deposit(
    points: np.ndarray, weights: np.ndarray, h_new: float, alpha: float
) -> tuple[GridMeasure, np.ndarray]:
    """Conservative nearest-cell deposition onto a lattice anchored at the
    first transformed point; returns the measure and each atom's flat cell index."""
    if not 0 < h_new < np.inf:
        raise DomainError(f"the scaling takes the grid spacing to {h_new}")
    d = points.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        anchor = points[0] / h_new
        frac = anchor - np.floor(anchor)
        rel = points / h_new - frac[None, :]
    # Past 2^31 cells from the origin the lattice is far over the size limit
    # (and its indices would overflow).
    if not np.abs(rel).max() < 2.0**31:
        raise SizeError(f"rescaled atoms lie {np.abs(rel).max():.3g} cells of {h_new:.3g} "
                        "from the origin")
    k = np.rint(rel).astype(int)
    k0 = np.rint(-frac).astype(int)
    kmin = np.minimum(k.min(axis=0), k0)
    kmax = np.maximum(k.max(axis=0), k0)
    # The origin must land inside the hull; pad by one cell where rounding
    # leaves it marginally outside.
    offset = -kmin - frac
    low = offset < 0
    kmin -= low
    offset += low
    kmax += offset > kmax - kmin
    extent = tuple(int(kmax[a] - kmin[a] + 1) for a in range(d))
    spec = GridSpec(dim=d, h=h_new, extent=extent, origin_offset=tuple(float(o) for o in offset))
    flat = np.ravel_multi_index((k - kmin[None, :]).T, extent)
    new_weights = np.bincount(flat, weights=weights, minlength=spec.n_points)
    return GridMeasure(spec=spec, weights=new_weights, alpha=alpha), flat


def _deposit_marginals(
    s: Scaling, lam: GridMeasure, mu: GridMeasure
) -> tuple[tuple[GridMeasure, np.ndarray], tuple[GridMeasure, np.ndarray]]:
    """Deposit both pushed-forward marginals; each comes with its atoms' cells.  Q1
    scales the spacing by |det A^{-1}|^{1/d} and Q2 by gamma |det A|^{1/d}; a
    determinant that overflows gives a spacing that _deposit refuses."""
    with np.errstate(over="ignore"):
        h_lam = lam.spec.h * abs(float(np.linalg.det(s.source_matrix))) ** (1.0 / s.dim)
        h_mu = mu.spec.h * s.gamma * abs(s.det_A) ** (1.0 / s.dim)
    source = _deposit(transform_source_atoms(s, lam.points), s.kappa * lam.weights, h_lam,
                      lam.alpha)
    target = _deposit(transform_target_atoms(s, mu.points), s.kappa * mu.weights, h_mu, mu.alpha)
    return source, target


def apply_to_measures(
    s: Scaling, lam: GridMeasure, mu: GridMeasure
) -> tuple[GridMeasure, GridMeasure]:
    """Push both marginals through the rescaling and re-deposit onto fresh grids."""
    s.require_admissible()
    (lam_s, _), (mu_s, _) = _deposit_marginals(s, lam, mu)
    return lam_s, mu_s


def apply_to_coupling(s: Scaling, pi: Coupling) -> Coupling:
    """Transform a coupling; the result is marginal-consistent with the
    transformed measures by construction (weights scale by kappa), and its
    ``source``/``target`` are what :func:`apply_to_measures` returns for
    ``pi.source``/``pi.target``.  When both cell maps are the identity of the new grids
    the plan is kappa * pi (``pi.mass`` itself, read-only, at kappa = 1); otherwise
    kappa * pi is summed per cell.  The maps scale every cross term
    (x_i - x_k) . (y_j - y_l) by gamma, so a plan that is Gibbs at epsilon comes out
    Gibbs at epsilon * sqrt(gamma)."""
    s.require_admissible()
    (lam_s, row_cell), (mu_s, col_cell) = _deposit_marginals(s, pi.source, pi.target)
    n, m = lam_s.spec.n_points, mu_s.spec.n_points
    if all(np.array_equal(c, np.arange(k)) for c, k in ((row_cell, n), (col_cell, m))):
        mass = pi.mass if s.kappa == 1 else s.kappa * pi.mass
    else:
        cell = (row_cell[:, None] * m + col_cell[None, :]).ravel()
        mass = np.bincount(cell, weights=(s.kappa * pi.mass).ravel(),
                           minlength=n * m).reshape(n, m)
    eps = None if pi.epsilon is None else pi.epsilon * s.gamma**0.5
    out = Coupling(source=lam_s, target=mu_s, mass=mass, epsilon=eps)
    # The deposition is exact, so any marginal violation beyond what the input
    # coupling already carried (cached, if a call made it) is an internal error.
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
    convention used here.  Each density is averaged over its own grid's
    ``averaging_radius``: the dilated target grid's ball then holds the images
    of the same atoms (up to rounding at its edge), so the rescaled pair reads
    1 there too.
    """
    d = lam.dim
    lam0, mu0 = origin_density(lam), origin_density(mu)
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
    """Read a scaling written by :func:`scaling_to_json_dict`.  A malformed dict
    (a field missing, of the wrong type or of the wrong length) raises
    ConfigError; a well-formed one that is no valid scaling, DomainError."""
    if not isinstance(d, dict):
        raise ConfigError(f"a scaling must be a JSON object, got {d!r}")
    b = np.asarray(config_value(d, "b", list, where="scaling."))

    def matrix(key: str) -> np.ndarray:
        values = config_value(d, key, list, where="scaling.")
        if len(values) != b.size**2:
            raise ConfigError(f"scaling.{key} must hold {b.size**2} numbers, got {len(values)}")
        return np.reshape(values, (b.size, b.size))

    return Scaling(
        A=matrix("A"),
        b=b,
        gamma=config_value(d, "gamma", float, where="scaling."),
        kappa=config_value(d, "kappa", float, where="scaling."),
        x_matrix=None if d.get("x_matrix") is None else matrix("x_matrix"),
    )
