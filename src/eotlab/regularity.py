"""Local regularity machinery: harmonic displacement fit, one-step improvement,
geometric-cascade iteration, quasi-minimality and long-trajectory experiments."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .couplings import (LONG_TRAJECTORY_FACTOR, Coupling, HashRegion, _axis_distances,
                        _ridged_solve, affine_fit, local_energy, long_trajectory_stats)
from .errors import AdmissibilityError, DomainError, SmallnessError
from .grids import (GridMeasure, averaging_radius, data_term, density_at, origin_density,
                    squared_distances)
from .scalings import Scaling, apply_to_coupling, compose, normalizing_scaling
from .solvers import SinkhornResult, entropic_cost, exact_ot, sinkhorn

__all__ = [
    "RegularityConfig",
    "HarmonicFit",
    "OneStepOutcome",
    "CampanatoLevel",
    "CampanatoTrace",
    "DefectReport",
    "fit_harmonic_displacement",
    "harmonic_fit",
    "one_step",
    "campanato_iterate",
    "quasimin_defect",
    "long_traj_experiment",
    "expansion_experiment",
    "soft_lemma_check",
    "solve_ladder",
]


@dataclass(frozen=True)
class RegularityConfig:
    """Exposed smallness thresholds.

    None of these have canonical values; they are experiment parameters with
    the defaults below, and every report records the values actually used.
    """

    eps1: float = 0.1
    delta: float = 0.05
    c0: float = 5.0


DEFAULT_CONFIG = RegularityConfig()
# The harmonic fit sits at one tenth of the radius at which the energy is
# measured, mirroring the fit-over-#_1 / energy-at-10 geometry.
FIT_RADIUS_FACTOR = 0.1
NORMALIZATION_TOL = 1e-2
# The quasi-minimality competitor lives on balls of this factor times R, and the
# campanato cascade stops after this many improvement steps at most.
COMPETITOR_FACTOR = 2.75
MAX_CASCADE_LEVELS = 16


# ---------------------------------------------------------------------------
# Harmonic displacement fit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HarmonicFit:
    """Best degree-<=2 harmonic polynomial fit of the displacement field.

    The basis has d linear terms plus d(d+1)/2 - 1 trace-free quadratics,
    so trace(hess0) = 0 holds by construction.
    """

    coeffs: np.ndarray
    grad0: np.ndarray
    hess0: np.ndarray
    residual: float
    degenerate: bool = False
    ridged: bool = False


def _basis_gradients(x: np.ndarray) -> np.ndarray:
    """Gradients of the harmonic basis at each point: shape (K, d, n_basis)."""
    k, d = x.shape
    if d == 1:
        phi = np.ones((k, 1, 1))
        return phi
    if d == 2:
        phi = np.zeros((k, 2, 4))
        phi[:, 0, 0] = 1.0
        phi[:, 1, 1] = 1.0
        phi[:, 0, 2] = 2.0 * x[:, 0]
        phi[:, 1, 2] = -2.0 * x[:, 1]
        phi[:, 0, 3] = x[:, 1]
        phi[:, 1, 3] = x[:, 0]
        return phi
    raise DomainError(f"harmonic basis only implemented for d in (1, 2), got {d}")


def _hessian_from_coeffs(coeffs: np.ndarray, d: int) -> np.ndarray:
    if d == 1:
        return np.zeros((1, 1))
    c_diag, c_off = coeffs[2], coeffs[3]
    return np.array([[2.0 * c_diag, c_off], [c_off, -2.0 * c_diag]])


def _harmonic_from_moments(
    x: np.ndarray, w: np.ndarray, s: np.ndarray, residual
) -> HarmonicFit:
    """Harmonic fit from per-row masses w_i and target moments s_i = sum_j pi_ij y_j,
    which give the pairwise normal equations because the basis depends on x only;
    ``residual(pred)`` returns sum_ij pi_ij |y_j - pred_i|^2 for the fitted pred_i."""
    d = x.shape[1]
    if w.size == 0 or np.sum(w) <= 0:
        return HarmonicFit(
            coeffs=np.zeros(1 if d == 1 else 4),
            grad0=np.zeros(d),
            hess0=np.zeros((d, d)),
            residual=0.0,
            degenerate=True,
        )
    phi = _basis_gradients(x)
    gram = np.einsum("i,ica,icb->ab", w, phi, phi)
    rhs = np.einsum("ica,ic->a", phi, s - w[:, None] * x)
    coeffs, ridged = _ridged_solve(gram, rhs, 1e10)
    return HarmonicFit(
        coeffs=coeffs,
        grad0=coeffs[:d].copy(),
        hess0=_hessian_from_coeffs(coeffs, d),
        residual=residual(x + np.einsum("ica,a->ic", phi, coeffs)),
        ridged=ridged,
    )


def fit_harmonic_displacement(
    x: np.ndarray, y: np.ndarray, w: np.ndarray
) -> HarmonicFit:
    """Weighted least squares of y - x against the harmonic gradient basis."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    w = np.asarray(w, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if y.ndim == 1:
        y = y[:, None]
    if x.shape != y.shape or w.shape != x.shape[:1]:
        raise DomainError(f"x, y and w must have shapes (n, d), (n, d) and (n,), got "
                          f"{x.shape}, {y.shape} and {w.shape}")
    if not all(np.isfinite(a).all() for a in (x, y, w)):
        raise DomainError("x, y and w must be finite")
    with np.errstate(over="ignore", invalid="ignore"):
        fit = _harmonic_from_moments(
            x, w, w[:, None] * y,
            lambda pred: float(np.sum(w * squared_distances(y, pred, pairwise=True))))
    if not np.isfinite(fit.residual):
        raise DomainError("the harmonic fit's residual overflows")
    return fit


def harmonic_fit(pi: Coupling, fit_radius: float) -> HarmonicFit:
    """Fit the displacement over the hash region at ``fit_radius``."""
    return _harmonic_from_moments(*HashRegion(fit_radius).row_moments(pi))


# ---------------------------------------------------------------------------
# One-step improvement
# ---------------------------------------------------------------------------


@dataclass
class OneStepOutcome:
    scaling_hat: Scaling
    theta: float
    E_before: float
    E_after: float
    D_before: float
    D_after: float
    fit: HarmonicFit
    det_A: float
    eps_term: float


def _matrix_exp_symmetric(s: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(s)
    return (vecs * np.exp(vals)) @ vecs.T


def _improve(
    pi: Coupling, lam: GridMeasure, mu: GridMeasure, R: float, energy: float, eps: float,
    config: RegularityConfig,
) -> tuple[Scaling, HarmonicFit, float, Coupling]:
    """Improvement step at radius R given ``energy`` = E(R) + D(R): the step
    scaling from the harmonic fit, the fit, det A and the rescaled plan."""
    d = pi.dim
    lam0, mu0 = origin_density(lam), origin_density(mu)
    if abs(lam0 - 1.0) > NORMALIZATION_TOL or abs(mu0 - 1.0) > NORMALIZATION_TOL:
        raise DomainError(
            f"marginals are not normalized at the origin: lam(0)={lam0:.4f}, "
            f"mu(0)={mu0:.4f}"
        )
    try:
        smallness = energy + (eps / R) ** 2 + config.delta
    except OverflowError:  # eps / R past 1e154 is nowhere near small
        smallness = np.inf
    if smallness >= config.eps1:
        raise SmallnessError(
            f"smallness {smallness:.4f} >= eps1 {config.eps1} at radius {R}"
        )

    fit = harmonic_fit(pi, FIT_RADIUS_FACTOR * R)
    a_mat = _matrix_exp_symmetric(-fit.hess0 / 2.0)
    det_a = float(np.linalg.det(a_mat))
    if abs(det_a - 1.0) > 1e-8:
        raise DomainError(f"improvement matrix determinant {det_a} deviates from 1")
    b_vec = fit.grad0
    try:
        gamma = density_at(mu, b_vec, averaging_radius(lam, mu)) ** (1.0 / d)
    except DomainError as exc:
        raise AdmissibilityError(
            f"fitted offset {b_vec.tolist()} leaves the target grid hull"
        ) from exc
    s_hat = Scaling(A=a_mat, b=b_vec, gamma=gamma, kappa=1.0)
    return s_hat, fit, det_a, apply_to_coupling(s_hat, pi)


def _plan_epsilon(pi: Coupling, epsilon: float | None) -> float:
    """``epsilon``, else the plan's own (0 for an unregularised plan); DomainError
    unless it is nonnegative with a finite square."""
    eps = epsilon if epsilon is not None else (pi.epsilon or 0.0)
    if not (eps >= 0 and eps * eps < np.inf):
        raise DomainError(f"epsilon must be nonnegative with a finite square, got {eps}")
    return eps


def one_step(
    pi: Coupling,
    lam: GridMeasure,
    mu: GridMeasure,
    R: float,
    theta: float,
    epsilon: float | None = None,
    config: RegularityConfig = DEFAULT_CONFIG,
) -> OneStepOutcome:
    """E and D measured at radius R, one improvement step (harmonic fit at
    ``FIT_RADIUS_FACTOR * R``, affine renormalization), and E and D
    re-measured on the rescaled plan at theta * R.  The contraction is
    evaluated and recorded, never assumed.

    Preconditions: both ball-averaged densities are 1 at the origin within
    ``NORMALIZATION_TOL``, and E(R) + D(R) + eps^2/R^2 + delta is below
    ``config.eps1`` (energies are taken at the calling radius; on a bounded
    grid wider radii saturate the localization region).  ``D_after`` averages
    over the rescaled grids' spacings.  ``epsilon`` defaults to the plan's own.
    """
    if not 0.0 < theta < 1.0:
        raise DomainError(f"theta must lie in (0, 1), got {theta}")
    eps = _plan_epsilon(pi, epsilon)
    e_before = local_energy(pi, R)
    d_before = data_term(lam, mu, R).D
    s_hat, fit, det_a, pi_hat = _improve(pi, lam, mu, R, e_before + d_before, eps, config)
    return OneStepOutcome(
        scaling_hat=s_hat,
        theta=theta,
        E_before=e_before,
        E_after=local_energy(pi_hat, theta * R),
        D_before=d_before,
        D_after=data_term(pi_hat.source, pi_hat.target, theta * R).D,
        fit=fit,
        det_A=det_a,
        eps_term=(eps / R) ** 2,
    )


# ---------------------------------------------------------------------------
# Geometric cascade of one-step improvements
# ---------------------------------------------------------------------------


@dataclass
class CampanatoLevel:
    k: int
    r: float
    E: float
    D: float
    defect: float
    holder_lam: float
    holder_mu: float
    step_scaling: Scaling | None
    composed: Scaling


@dataclass
class CampanatoTrace:
    levels: list[CampanatoLevel]
    stop_reason: str
    base_scaling: Scaling

    def radii(self) -> list[float]:
        return [lvl.r for lvl in self.levels]

    def energies(self) -> list[float]:
        return [lvl.E for lvl in self.levels]


def campanato_iterate(
    pi: Coupling,
    lam: GridMeasure,
    mu: GridMeasure,
    R0: float,
    theta: float,
    epsilon: float,
    max_levels: int = MAX_CASCADE_LEVELS,
    config: RegularityConfig = DEFAULT_CONFIG,
) -> CampanatoTrace:
    """Iterate the one-step improvement down to the entropic length scale.

    The normalizing scaling is applied first.  Each level measures E and D
    once, and the improvement step reuses them; the step scaling is composed
    onto the running transform and the radius shrinks by theta.  A level
    whose composed scaling dilates by gamma carries the plan's length scale
    epsilon * sqrt(gamma) (as ``apply_to_coupling`` records), which both the
    smallness term and the stop read.  Stops at r <= c0 * epsilon *
    sqrt(gamma), on a smallness or admissibility exit, or at ``max_levels``.
    """
    if not 0.0 < theta < 1.0:
        raise DomainError(f"theta must lie in (0, 1), got {theta}")
    if not (R0 > 0 and epsilon > 0):
        raise DomainError("R0 and epsilon must be positive")
    if not (isinstance(max_levels, (int, np.integer)) and max_levels >= 0):
        raise DomainError(f"max_levels must be a nonnegative integer, got {max_levels!r}")
    s_bar = normalizing_scaling(lam, mu)
    pi_k = apply_to_coupling(s_bar, pi)

    levels: list[CampanatoLevel] = []
    composed = s_bar
    r = R0
    stop_reason = "max_levels"
    for k in range(max_levels + 1):
        lam_k, mu_k = pi_k.source, pi_k.target
        try:
            data = data_term(lam_k, mu_k, r)
        except DomainError as exc:
            raise DomainError(f"cascade level {k} at r = {r:.4g}: {exc}; raise thresholds.c0 "
                              "or solver.epsilon, or refine the grid") from exc
        level = CampanatoLevel(
            k=k,
            r=r,
            E=local_energy(pi_k, r),
            D=data.D,
            defect=affine_fit(pi_k, r).defect,
            holder_lam=data.holder_lambda,
            holder_mu=data.holder_mu,
            step_scaling=None,
            composed=composed,
        )
        levels.append(level)
        eps_k = epsilon * composed.gamma**0.5
        if r <= config.c0 * eps_k:
            stop_reason = "reached_epsilon_scale"
            break
        if k == max_levels:
            break
        try:
            step, _, _, pi_k = _improve(pi_k, lam_k, mu_k, r, level.E + level.D, eps_k, config)
        except SmallnessError:
            stop_reason = "smallness_violated"
            break
        except AdmissibilityError:
            stop_reason = "admissibility_exit"
            break
        level.step_scaling = step
        composed = compose(step, composed)
        r = theta * r
    return CampanatoTrace(levels=levels, stop_reason=stop_reason, base_scaling=s_bar)


# ---------------------------------------------------------------------------
# Quasi-minimality defect
# ---------------------------------------------------------------------------


@dataclass
class DefectReport:
    R: float
    lam_factor: float
    lhs: float
    competitor_cost: float
    defect: float
    eps2_mass: float
    energy_2r: float
    degenerate: bool = False


def quasimin_defect(
    pi: Coupling,
    lam: GridMeasure,
    mu: GridMeasure,
    R: float,
    lam_factor: float = COMPETITOR_FACTOR,
    epsilon: float | None = None,
) -> DefectReport:
    """Gap between local quadratic cost and the optimal cost of the coupling's
    own normalized marginals on the competitor region.

    lhs integrates |x-y|^2 over the hash region at R; the competitor is
    pi(P_R) * OT(lam_bar, mu_bar) with (lam_bar, mu_bar) the normalized
    marginals of the restriction to P_R.  Normalizers: eps^2 * pi(#_{L R}) and
    the second moment over #_{2R}.
    """
    if not lam_factor > 1.0:
        raise DomainError(f"competitor factor must exceed 1, got {lam_factor}")
    eps = _plan_epsilon(pi, epsilon)
    # P_R: |x| <= R with |y| <= Lambda R, or |x| <= Lambda R with |y| <= R.  It
    # lies in the box of the Lambda R balls' index spans.
    lr = lam_factor * R
    rows, cols = pi.source.spec.ball_span(lr), pi.target.spec.ball_span(lr)
    sx, ty = pi.source.spec.point_norms[rows], pi.target.spec.point_norms[cols]
    in_pr = ((sx <= R)[:, None] & (ty <= lr)[None, :]) | (
        (sx <= lr)[:, None] & (ty <= R)[None, :]
    )
    restricted = np.where(in_pr, pi.mass[rows, cols], 0.0)
    mass_pr = float(np.sum(restricted))
    lhs = HashRegion(R).energy(pi)
    eps2_mass = eps**2 * HashRegion(lam_factor * R).mass(pi)
    energy_2r = HashRegion(2 * R).energy(pi)
    # A plan with no mass on P_R has no competitor: its report reads zeros.
    degenerate = mass_pr <= 0
    if degenerate:
        lhs = competitor = 0.0
    else:
        row_w, col_w = np.zeros(pi.mass.shape[0]), np.zeros(pi.mass.shape[1])
        row_w[rows], col_w[cols] = restricted.sum(axis=1), restricted.sum(axis=0)
        lam_bar = GridMeasure(lam.spec, row_w / mass_pr, lam.alpha)
        mu_bar = GridMeasure(mu.spec, col_w / mass_pr, mu.alpha)
        competitor = mass_pr * exact_ot(lam_bar, mu_bar).cost
    return DefectReport(R=R, lam_factor=lam_factor, lhs=lhs, competitor_cost=competitor,
                        defect=lhs - competitor, eps2_mass=eps2_mass, energy_2r=energy_2r,
                        degenerate=degenerate)


# ---------------------------------------------------------------------------
# Ladder experiments
# ---------------------------------------------------------------------------


def _regression_slope(xs: list[float], ys: list[float]) -> tuple[float, float] | None:
    """(slope, intercept) of the least-squares line through the points, or
    None unless ``xs`` holds at least two distinct values."""
    if len(set(xs)) < 2:
        return None
    slope, intercept = np.polyfit(np.asarray(xs), np.asarray(ys), 1)
    return float(slope), float(intercept)


def solve_ladder(lam: GridMeasure, mu: GridMeasure, eps_ladder: list[float],
                 solver_opts: dict | None, row: Callable[[float, SinkhornResult], dict]
                 ) -> tuple[list[dict], list]:
    """One Sinkhorn solve per epsilon, each dropped before the next so that one
    plan at most is held: the rows ``row(eps, res)``, each with the solve's
    ``converged`` appended, and each solve's ``stages``."""
    rows, stages = [], []
    for eps in eps_ladder:
        res = sinkhorn(lam, mu, eps, **(solver_opts or {}))
        stages.append(res.stages)
        rows.append(dict(row(eps, res), converged=res.converged))
        del res
    return rows, stages


def _hull_covers_ball(m: GridMeasure, radius: float) -> bool:
    lo, hi = m.spec.hull_bounds
    return not np.any((lo > -radius) | (hi < radius))


def long_traj_experiment(
    lam: GridMeasure,
    mu: GridMeasure,
    R: float,
    eps_ladder: list[float],
    solver_opts: dict | None = None,
    long_factor: float = LONG_TRAJECTORY_FACTOR,
) -> dict:
    """Energy/mass carried by displacements >= long_factor*R inside #_{4R},
    relative to E(pi, 5R), across an epsilon ladder.

    Also reports the regression slope of log(ratio) against R^2/eps^2;
    ``stages`` holds each solve's ``SinkhornResult.stages``.
    """
    if not (R > 0 and long_factor > 0):
        raise DomainError(f"radius and long_factor must be positive, got {R} and {long_factor}")
    for m, name in ((lam, "source"), (mu, "target")):
        if not _hull_covers_ball(m, long_factor * R):
            raise DomainError(
                f"{name} grid hull does not contain the ball of radius "
                f"{long_factor * R:g}; the threshold set is not representable"
            )

    def row(eps: float, res: SinkhornResult) -> dict:
        stats = long_trajectory_stats(res.plan, 4.0 * R, long_factor * R)
        e5 = local_energy(res.plan, 5.0 * R)
        return {
            "epsilon": float(eps),
            "long_energy": stats.energy,
            "long_mass": stats.mass,
            "E_5R": e5,
            "energy_ratio": stats.energy / e5 if e5 > 0 else 0.0,
            "mass_ratio": stats.mass / e5 if e5 > 0 else 0.0,
            "inv_temp": (R / eps) ** 2,
        }

    rows, stages = solve_ladder(lam, mu, eps_ladder, solver_opts, row)

    def slope_of(key: str):
        pts = [(r["inv_temp"], np.log(r[key])) for r in rows if r[key] > 0]
        return _regression_slope([p[0] for p in pts], [p[1] for p in pts])

    return {
        "R": R,
        "long_factor": long_factor,
        "rows": rows,
        "mass_slope": slope_of("mass_ratio"),
        "energy_slope": slope_of("energy_ratio"),
        "stages": stages,
    }


def expansion_experiment(
    lam: GridMeasure,
    mu: GridMeasure,
    eps_ladder: list[float],
    solver_opts: dict | None = None,
) -> dict:
    """Entropic-vs-exact cost gap across an epsilon ladder.

    Both marginals are normalized to probability measures first, which makes
    the reported table invariant under simultaneous mass rescaling.
    remainder(eps) = (OT_eps - OT - (d/2) eps^2 log(1/eps^2)) / eps^2; the
    reported slope regresses (OT_eps - OT)/eps^2 on log(1/eps^2) over ladder
    points resolved by the grid (eps >= 3h).  ``exact_ot`` records the exact
    solve's method, its LP solves and, if it ran one, its seed solve's
    stages, and ``stages`` each Sinkhorn solve's ``SinkhornResult.stages``.
    """
    d = lam.dim
    h = max(lam.spec.h, mu.spec.h)
    lam = lam.scaled(1.0 / lam.total_mass)
    mu = mu.scaled(1.0 / mu.total_mass)
    exact = exact_ot(lam, mu)
    ot, exact_record = exact.cost, {"method": exact.method, "solves": exact.solves}
    if exact.seed_stages:  # the LP's; the 1-d monotone path runs no seed solve
        exact_record["seed_stages"] = exact.seed_stages
    del exact  # its plan is not read below: drop it before the Sinkhorn solves

    def row(eps: float, res: SinkhornResult) -> dict:
        ot_eps = entropic_cost(res)
        log_term = np.log(eps**-2)
        gap_over_eps2 = (ot_eps - ot) / eps**2
        return {
            "epsilon": float(eps),
            "ot_eps": ot_eps,
            "ot": ot,
            "gap_over_eps2": gap_over_eps2,
            "remainder": gap_over_eps2 - 0.5 * d * log_term,
            "log_inv_eps2": float(log_term),
            "under_resolved": bool(eps < 3.0 * h),
        }

    rows, stages = solve_ladder(lam, mu, eps_ladder, solver_opts, row)
    included = [r for r in rows if not r["under_resolved"]]
    reg = _regression_slope(
        [r["log_inv_eps2"] for r in included], [r["gap_over_eps2"] for r in included]
    )
    return {"dim": d, "ot": ot, "rows": rows, "slope": reg, "reference_slope": 0.5 * d,
            "exact_ot": exact_record, "stages": stages}


def soft_lemma_check(
    pi: Coupling, R: float, rho_ladder: list[float], delta_r: float
) -> dict:
    """Mass of displacements >= rho in #_{R-1} against delta_r * R^d / rho^{d+2}.

    The window condition E(pi, R) << rho^{d+2} << R^{d+2} is reported per row,
    not enforced; the implied constant is fitted, never asserted.  In d = 1, E and
    the long-pair masks read one distance table."""
    if not R > 1.0:
        raise DomainError(f"needs R > 1 so that the inner region #_{{R-1}} exists, got {R}")
    if delta_r < 0:
        raise DomainError(f"defect bound must be nonnegative, got {delta_r}")
    d, inner = pi.dim, HashRegion(R - 1.0)
    tables = _axis_distances(pi) if d == 1 else None
    e_r = local_energy(pi, R, tables)
    rows = []
    for rho in rho_ladder:
        try:
            rho_pow = rho ** (d + 2)
        except OverflowError:
            rho_pow = np.inf
        if not (rho > 0 and 0 < rho_pow < np.inf):
            raise DomainError(f"rho must be positive with a positive finite rho^{d + 2}, got {rho}")
        # Normalised as LongTrajStats.mass is, then scaled back, so its bits are that mass's.
        mass = inner.per_radius(inner.mass(pi, rho, tables), d) * (R - 1.0) ** d
        bound = delta_r * R**d / rho_pow
        fitted = mass * rho_pow / (delta_r * R**d) if delta_r > 0 else None
        rows.append(
            {
                "rho": float(rho),
                "mass": mass,
                "bound": bound,
                "fitted_const": fitted,
                "energy_over_rho_pow": e_r / rho_pow,
                "rho_over_R_pow": rho_pow / R ** (d + 2),
            }
        )
    return {"R": R, "delta_r": delta_r, "E_R": e_r, "rows": rows}
