"""Entropic and exact quadratic transport solvers on grid measures.

The entropic objective uses the length-scale convention: the regularization
strength is epsilon^2, so the Gibbs kernel is exp(-|x-y|^2 / epsilon^2) and
epsilon has the units of a distance.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import logging
import math
import os
import sys
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .couplings import Coupling
from .errors import CertificateError, DomainError, MassMismatchError
from .grids import (PLAN_ARRAYS, GridMeasure, GridSpec, hull_reach, require_dense_size,
                    squared_distances)

__all__ = [
    "SinkhornResult",
    "SinkhornStage",
    "ExactOTResult",
    "LPSolve",
    "sinkhorn",
    "exact_ot",
    "entropic_cost",
    "gibbs_identity_check",
    "require_gibbs_check_size",
]

logger = logging.getLogger("eotlab.solvers")

MASS_RTOL = 1e-12
# Sinkhorn scalings are absorbed into the log potentials once they leave
# (1/ABSORB_BOUND, ABSORB_BOUND).  A kernel factor entry dropped below
# ABSORB_BOUND * tiny then stands for a plan entry below 1e-157 times the
# kernel's other factors, far under any marginal tolerance.
ABSORB_BOUND = 1e50
# Over-relaxed Sinkhorn converges for factors in (0, 2) (Lehmann et al., Optim.
# Lett. 16, 2022); OMEGA_MAX keeps the factor off that edge, where the relaxed
# iteration barely contracts.  A factor that a rollback halves to within
# OMEGA_FLOOR of 1 drops to plain Sinkhorn.
OMEGA_MAX = 1.95
OMEGA_FLOOR = 0.05
# Every CHECK_EVERY-th iteration is a plain check that reads the marginal error.
CHECK_EVERY = 10
# Why a Sinkhorn stage stopped, and what to change when the final one did not
# converge.
STOP_REASONS = {
    "converged": "",
    "stage_cap": "raise solver.max_iter or solver.epsilon",
    "non_finite": "check the marginals or raise solver.epsilon",
    "stagnated": "the measured rate needs more than solver.max_iter iterations; "
                 "raise solver.epsilon or solver.max_iter",
}


@dataclass
class SinkhornStage:
    """One epsilon stage of a Sinkhorn solve: its iterations, the relaxation
    factor it ended with, the checks it rolled back, the absorptions its kept
    iterates went through, the marginal error it exited with and why it
    stopped (one of STOP_REASONS)."""
    epsilon: float
    iterations: int
    omega: float
    rollbacks: int
    absorptions: int
    marg_err: float
    stop: str


@dataclass
class _PlanOnRead:
    """A solver result whose dense n x m plan ``_build_plan`` builds, from
    what the solve holds, on first read of ``plan``; the plan is cached."""
    _build_plan: Callable[[], Coupling] = field(repr=False, compare=False)

    @cached_property
    def plan(self) -> Coupling:
        return self._build_plan()


@dataclass
class SinkhornResult(_PlanOnRead):
    f: np.ndarray
    g: np.ndarray
    epsilon: float
    iterations: int
    marg_err: float
    primal_cost: float
    entropy: float
    converged: bool
    mass: float
    err_history: list[tuple[int, float]]
    stages: list[SinkhornStage]


@dataclass
class LPSolve:
    """One solve of the shortlist LP: the positive atoms n x m, the pairs on
    the shortlist, the pairs that pricing its duals added to the shortlist
    (0 on the last solve), and HiGHS's simplex iterations."""
    atoms: tuple[int, int]
    pairs: int
    added: int
    iterations: int


@dataclass
class ExactOTResult(_PlanOnRead):
    cost: float
    method: str
    duality_gap: float
    feasibility_violation: float
    u: np.ndarray
    v: np.ndarray
    solves: list[LPSolve]
    seed_stages: list[SinkhornStage]


def _require_pair(lam: GridMeasure, mu: GridMeasure) -> float:
    """The mean total mass of a transport pair; DomainError unless the two
    measures share a dimension, MassMismatchError unless their masses agree."""
    if lam.dim != mu.dim:
        raise DomainError("source and target dimensions differ")
    ml, mm = lam.total_mass, mu.total_mass
    gap = abs(ml - mm) / max(ml, mm)
    if gap > MASS_RTOL:
        raise MassMismatchError(
            f"marginal masses differ: relative gap {gap:.3e} exceeds {MASS_RTOL:.0e}"
        )
    return 0.5 * (ml + mm)


def _positive_atoms(lam: GridMeasure, mu: GridMeasure) -> tuple[np.ndarray, ...]:
    """(rows, cols, wa, wb): the indices and weights of the positive-weight
    atoms of ``lam`` and ``mu``.  Exact OT works on these; the other atoms
    carry no mass."""
    rows, cols = np.flatnonzero(lam.weights > 0), np.flatnonzero(mu.weights > 0)
    return rows, cols, lam.weights[rows], mu.weights[cols]


def _softmin(axis_costs: list[np.ndarray], pot: np.ndarray, log_w: np.ndarray,
             eps2: float) -> np.ndarray:
    """-eps2 * log sum_j exp((pot_j - c_ij)/eps2 + log_w_j) for each point i of
    the source grid, c_ij = sum_k c_k[i_k, j_k], with ``pot`` and ``log_w`` on
    the target grid: one log-sum-exp pass per axis, each stabilized by its
    maximum.  The column sweep passes the transposed axis costs."""
    p = (pot + eps2 * log_w).reshape([c.shape[1] for c in axis_costs])
    for k, c in enumerate(axis_costs):
        terms = np.subtract(np.moveaxis(p, k, -1)[..., None, :], c)
        np.divide(terms, eps2, out=terms)
        peak = terms.max(axis=-1)
        # A grid line of zero-weight atoms has peak -inf, and its sum is 0.
        np.maximum(peak, np.finfo(float).min, out=peak)
        np.subtract(terms, peak[..., None], out=terms)
        np.exp(terms, out=terms)
        p = np.moveaxis(eps2 * (np.log(terms.sum(axis=-1)) + peak), -1, k)
    return -p.ravel()


def _split(p: np.ndarray, extent: tuple[int, ...]) -> tuple[list[np.ndarray], np.ndarray]:
    """The per-axis parts p_k and the residual r of ``p`` on a grid of
    ``extent``, p = sum_k p_k(x_k) + r: part k is the mean over the other axes
    of what the parts before it leave.  In d = 1, p_1 = p and r = 0."""
    rest = p.reshape(extent).copy()
    parts = []
    for k in range(len(extent)):
        other = tuple(a for a in range(len(extent)) if a != k)
        parts.append(rest.mean(axis=other))
        rest -= np.expand_dims(parts[-1], other)
    return parts, rest.ravel()


def _kron_matvec(factors: list[np.ndarray], x: np.ndarray, out: np.ndarray) -> None:
    """out <- (G_1 (x) ... (x) G_d) x: one small matrix product per axis on
    the grid shapes (Solomon et al., ACM TOG 34(4), 2015)."""
    if len(factors) == 1:
        np.matmul(factors[0], x, out=out)
    else:
        g1, g2 = factors
        np.matmul(g1 @ x.reshape(g1.shape[1], g2.shape[1]), g2.T,
                  out=out.reshape(g1.shape[0], g2.shape[0]))


def _bounded(scaling: np.ndarray) -> bool:
    """True if every entry lies strictly inside (1/ABSORB_BOUND, ABSORB_BOUND)."""
    return 1.0 / ABSORB_BOUND < scaling.min() and scaling.max() < ABSORB_BOUND


def _epsilon_ladder(epsilon: float, cost_max: float) -> list[float]:
    """Geometric epsilon-scaling ladder from half the domain diameter down to epsilon."""
    start = 0.5 * np.sqrt(max(cost_max, 0.0))
    ladder: list[float] = []
    e = start
    while e > 1.5 * epsilon:
        ladder.append(e)
        e *= 0.5
    ladder.append(epsilon)
    return ladder


def _omega_for_rate(rate: float) -> float:
    """Optimal over-relaxation factor for a linear contraction ``rate`` per
    plain iteration, 2 / (1 + sqrt(1 - rate)) (Thibault, Chizat, Dossal &
    Papadakis, Algorithms 14(5), 2021), capped at OMEGA_MAX."""
    return min(OMEGA_MAX, 2.0 / (1.0 + float(np.sqrt(max(1.0 - rate, 0.0)))))


def sinkhorn(
    lam: GridMeasure,
    mu: GridMeasure,
    epsilon: float,
    tol: float = 1e-9,
    max_iter: int = 100_000,
) -> SinkhornResult:
    """Over-relaxed Sinkhorn iteration at temperature epsilon^2, in the
    scaling domain, on a kernel kept in per-axis factors.

    Each stage of _epsilon_ladder opens by absorbing the centred potentials
    (f, g) into K = diag(alpha) (G_1 (x) ... (x) G_d) diag(beta) (Solomon et
    al., ACM TOG 34(4), 2015): _split's per-axis parts of f and g go into the
    factors G_k = exp((f_k + g_k - (x_k - y_k)^2)/eps^2), their residuals r
    and s into alpha = exp(r/eps^2) a and beta = exp(s/eps^2) b, and no n x m
    array is formed.  The iteration runs on scalings: u <- u (a / (u K
    v))^omega and v <- v (b / (v K^T u))^omega, with a / alpha read as
    exp(-r/eps^2), finite on zero-weight atoms.  A scaling that leaves
    (1/ABSORB_BOUND, ABSORB_BOUND), or turns non-finite or zero, sends that
    iteration through a plain log-domain sweep, one pass per axis, and a new
    kernel (Schmitzer, SIAM J. Sci. Comput. 41(3), 2019).

    Every CHECK_EVERY-th iteration is plain (omega = 1) and reads the
    marginal error.  A stage starts plain.  From the second check on, each
    check measures the per-iteration contraction rate lambda since the one
    before; while lambda exceeds omega - 1, Young's relation theta =
    (lambda + omega - 1)^2 / (lambda omega^2) gives the plain rate theta, and
    omega is raised to _omega_for_rate(theta) (Hageman & Young, Applied
    Iterative Methods, 1981, ch. 9), but never to a factor that a rollback
    rejected in the stage.  A relaxed check whose error exceeds the last
    accepted one is rolled back to that check's state and omega - 1 is
    halved.  Two agreeing rates at one omega that project the final stage's
    error to reach ``tol`` only after ``max_iter`` end it as stagnated; a
    non-finite error ends a stage at once.  ``stages`` records each stage.

    Marginals are normalized to probability internally; the returned plan,
    potentials, cost and entropy refer to the original mass scale, and the
    plan satisfies pi = exp((f + g - c)/eps^2) * lam (x) mu entrywise (f and
    g are 0 on zero-weight atoms).  The cost and entropy are contractions of
    the factors; the plan is formed from its exponents on first read of
    ``plan``.  The size guard counts PLAN_ARRAYS n x m arrays, the plan and
    one region-read temporary, plus the per-axis arrays; an input whose
    count would pass DENSE_BYTES_LIMIT raises SizeError up front.
    """
    res = _sinkhorn(lam, mu, epsilon, tol, max_iter)
    if not res.converged:
        stop = res.stages[-1].stop
        logger.warning("sinkhorn did not converge (%s): marginal error %.3e after %d iterations; "
                       "%s", stop, res.marg_err, res.iterations, STOP_REASONS[stop])
    return res


def _sinkhorn(lam: GridMeasure, mu: GridMeasure, epsilon: float, tol: float,
              max_iter: int) -> SinkhornResult:
    """The solve of ``sinkhorn``, without its warning.  exact_ot's seed solve
    calls it, so that a caller who replaces ``solvers.sinkhorn`` does not see
    the seed, and the seed's stop, which no setting reaches, is not logged."""
    # The temperature epsilon^2 divides every potential update.
    if not (epsilon > 0 and 0.0 < epsilon * epsilon < np.inf):
        raise DomainError(f"epsilon must be positive with a nonzero finite square, got {epsilon}")
    if not (tol > 0 and max_iter >= 1):
        raise DomainError(f"tol and max_iter must be positive, got {tol} and {max_iter}")
    mass = _require_pair(lam, mu)
    extent_a, extent_b = lam.spec.extent, mu.spec.extent
    n, m = lam.spec.n_points, mu.spec.n_points
    # Per axis k the solve holds the cost c_k, the factor G_k and at times a
    # log-domain sweep's pass over axis k: all three are n x m in d = 1.
    per_axis = sum(2 * a * b + math.prod(extent_a[:k + 1]) * math.prod(extent_b[k:])
                   for k, (a, b) in enumerate(zip(extent_a, extent_b)))
    require_dense_size(n, m, PLAN_ARRAYS + per_axis / (n * m), "sinkhorn")

    # Not squared_distances, which forms dense costs: TestFactoredKernel spies on it
    # to check that a factored solve forms none.
    axis_costs = [np.subtract.outer(x, y) ** 2 for x, y in zip(lam.spec.axes, mu.spec.axes)]
    factors = [np.empty_like(c) for c in axis_costs]
    factors_t = [factor.T for factor in factors]
    cost_max = float(sum(c.max() for c in axis_costs))
    # f + g - c carries the rounding of the largest cost; past epsilon^2 the
    # Gibbs factors exp((f + g - c)/epsilon^2) are noise.
    if cost_max * np.finfo(float).eps > epsilon * epsilon:
        raise DomainError(f"epsilon^2 = {epsilon * epsilon:.3e} is below the rounding error of "
                          f"the largest squared distance {cost_max:.3e}; raise solver.epsilon")
    la, mb = lam.weights / lam.total_mass, mu.weights / mu.total_mass
    with np.errstate(divide="ignore"):
        log_la, log_mb = np.log(la), np.log(mb)

    ladder = _epsilon_ladder(epsilon, cost_max)

    f, g = np.zeros(n), np.zeros(m)
    iterations = 0
    err_history: list[tuple[int, float]] = []
    stages: list[SinkhornStage] = []
    # The scalings u, v and their next values each share one buffer, so that
    # one bounds test covers both.  kv = G (beta v) and ktu = G^T (alpha u)
    # are K v and K^T u without their outer diagonals.
    uv, nxt = np.empty(n + m), np.empty(n + m)
    u, v, u_next, v_next = uv[:n], uv[n:], nxt[:n], nxt[n:]
    kv, ktu = np.empty(n), np.empty(m)
    alpha = beta = inv_alpha = inv_beta = None
    drop = np.finfo(float).tiny * ABSORB_BOUND

    def build_kernel(eps2: float) -> None:
        """Absorb f, g into the factors and the outer diagonals; the scalings
        restart at 1."""
        nonlocal alpha, beta, inv_alpha, inv_beta
        uv[:] = 1.0
        (f_parts, r), (g_parts, s) = _split(f, extent_a), _split(g, extent_b)
        for factor, c, f_k, g_k in zip(factors, axis_costs, f_parts, g_parts):
            np.add.outer(f_k, g_k, out=factor)
            np.subtract(factor, c, out=factor)
            np.divide(factor, eps2, out=factor)
            np.exp(factor, out=factor)
            # Subnormal products make the matrix products several times
            # slower.  Entries below tiny * ABSORB_BOUND go, so that no entry
            # times an in-bounds scaling is subnormal.
            factor[factor < drop] = 0.0
        alpha, beta = np.exp(r / eps2 + log_la), np.exp(s / eps2 + log_mb)
        # a / alpha and b / beta, finite on zero-weight atoms too.
        inv_alpha, inv_beta = np.exp(-r / eps2), np.exp(-s / eps2)
        _kron_matvec(factors, beta, kv)  # v is 1

    def center() -> None:
        shift = float(np.mean(f))
        f[:] -= shift
        g[:] += shift

    def relax(new: np.ndarray, old: np.ndarray, omega: float) -> None:
        """new <- old * (new / old)**omega, in place."""
        np.divide(new, old, out=new)
        np.power(new, omega, out=new)
        np.multiply(new, old, out=new)

    for stage, eps in enumerate(ladder):
        final = stage == len(ladder) - 1
        eps2 = eps * eps
        stage_tol = tol if final else max(tol, 1e-3)
        stage_iter = max_iter if final else 200
        # A scaling out of bounds, zero or non-finite sends its iteration down
        # the log-domain path, so the floating-point warnings it raises on the
        # way carry no news.
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            build_kernel(eps2)
            absorptions = 0
            # omega is only ever raised below `ceiling`, the smallest factor a
            # rollback rejected in this stage.
            omega, ceiling, rollbacks = 1.0, np.inf, 0
            # The last accepted check: its error, its state, and the rate
            # measured from the check before it.
            accepted, saved, ref, rate = np.inf, None, None, None
            stop, it = "stage_cap", 0
            for it in range(1, stage_iter + 1):
                check = it % CHECK_EVERY == 0 or it == stage_iter
                np.divide(inv_alpha, kv, out=u_next)
                if omega != 1.0:
                    relax(u_next, u, omega)
                _kron_matvec(factors_t, alpha * u_next, ktu)
                np.divide(inv_beta, ktu, out=v_next)
                # A check ends on a plain v-update: its column marginal is
                # exact, and the error is the row error, as in plain Sinkhorn.
                if omega != 1.0 and not check:
                    relax(v_next, v, omega)
                if _bounded(nxt):
                    uv[:] = nxt
                    _kron_matvec(factors, beta * v, kv)
                else:
                    # Redo this iteration as a plain log-domain sweep from the
                    # last scalings that stayed in bounds, then absorb the
                    # potentials into a new kernel.
                    g += eps2 * np.log(v)
                    f = _softmin(axis_costs, g, log_mb, eps2)
                    g = _softmin([c.T for c in axis_costs], f, log_la, eps2)
                    center()
                    build_kernel(eps2)
                    _kron_matvec(factors_t, alpha, ktu)
                    absorptions += 1
                iterations += 1
                if not check:
                    continue
                err = max(float(np.sum(np.abs(u * alpha * kv - la))),
                          float(np.sum(np.abs(v * beta * ktu - mb))))
                if omega > 1.0 and not err <= accepted:
                    # The relaxed iterations since the last accepted check made
                    # things worse: return to that check and relax less.
                    f_saved, g_saved, uv_saved, kv_saved, kept = saved
                    f, g = f_saved.copy(), g_saved.copy()
                    if kept != absorptions:
                        build_kernel(eps2)
                        absorptions = kept
                    uv[:] = uv_saved
                    kv[:] = kv_saved
                    rollbacks += 1
                    ceiling = omega
                    omega = 1.0 + 0.5 * (omega - 1.0)
                    if omega - 1.0 < OMEGA_FLOOR:
                        omega = 1.0
                    ref, rate = (it, accepted), None
                    continue
                if final:
                    if err_history and err > err_history[-1][1] + 1e-12:
                        logger.warning("sinkhorn marginal error increased between checks "
                                       "(%.3e -> %.3e); this indicates a bug",
                                       err_history[-1][1], err)
                    err_history.append((iterations, err))
                accepted = err
                saved = (f.copy(), g.copy(), uv.copy(), kv.copy(), absorptions)
                if err <= stage_tol:
                    stop = "converged"
                    break
                # Non-finite scalings rebuild the kernel in the same iteration,
                # so a non-finite error has already survived a re-absorption.
                if not np.isfinite(err):
                    stop = "non_finite"
                    break
                if ref is not None and ref[1] > 0.0:
                    new_rate = min(1.0, (err / ref[1]) ** (1.0 / (it - ref[0])))
                    # Below the optimal factor the relaxed rate exceeds
                    # omega - 1, and Young's relation recovers the plain rate
                    # theta from it; at omega = 1 theta is the rate itself.
                    if new_rate > omega - 1.0:
                        theta = (new_rate + omega - 1.0) ** 2 / (new_rate * omega**2)
                        raised = _omega_for_rate(theta)
                        if omega < raised < ceiling:
                            omega, new_rate = raised, None
                    if (final and new_rate is not None and rate is not None
                            and abs(new_rate - rate) <= 0.1 * (1.0 - new_rate)
                            and err * new_rate ** (stage_iter - it) > stage_tol):
                        stop = "stagnated"
                        break
                    rate = new_rate
                ref = (it, err)
            f += eps2 * np.log(u)
            g += eps2 * np.log(v)
        center()
        stages.append(SinkhornStage(float(eps), it, omega, rollbacks, absorptions, accepted, stop))

    marg_err = stages[-1].marg_err
    eps2 = epsilon * epsilon
    # The plan diag(alpha u) (G_1 (x) ... (x) G_d) diag(beta v) of the last
    # iterate, whose row and column sums are au kv and bv ktu.  Its cost sums
    # c_k over the plan for each axis k, and its relative entropy is (sum_ij
    # pi_ij (f_i + g_j - c_ij)) / eps^2: contractions of the factors, with
    # G_k c_k in the place of G_k for the cost of axis k.
    # After a non_finite stop these are NaN, which the stop already reports.
    with np.errstate(over="ignore", invalid="ignore"):
        au, bv = alpha * u, beta * v
        potentials = float(np.sum(f * au * kv) + np.sum(g * bv * ktu))
        primal_sub = 0.0
        for k, c in enumerate(axis_costs):
            _kron_matvec([g_a * c if a == k else g_a for a, g_a in enumerate(factors)], bv, kv)
            primal_sub += float(np.sum(au * kv))
    entropy_sub = (potentials - primal_sub) / eps2

    def build_plan() -> np.ndarray:
        # mass exp((f_i + g_j - c_ij)/eps^2 + log a_i + log b_j) in one buffer.
        plan = squared_distances(lam.points, mu.points)
        np.subtract(f[:, None], plan, out=plan)
        plan += g[None, :]
        plan /= eps2
        plan += log_la[:, None]
        plan += log_mb[None, :]
        np.exp(plan, out=plan)
        plan *= mass
        return plan

    return SinkhornResult(
        _build_plan=lambda: Coupling(source=lam, target=mu, mass=build_plan(), epsilon=epsilon),
        f=np.where(lam.weights > 0, f - eps2 * np.log(mass), 0.0),
        g=np.where(mu.weights > 0, g, 0.0),
        epsilon=epsilon,
        iterations=iterations,
        marg_err=marg_err,
        primal_cost=mass * primal_sub,
        entropy=mass * entropy_sub - mass * np.log(mass),
        converged=marg_err <= tol,
        mass=mass,
        err_history=err_history,
        stages=stages,
    )


def entropic_cost(res: SinkhornResult) -> float:
    """Quadratic cost plus epsilon^2 times the relative entropy of the plan."""
    return res.primal_cost + res.epsilon**2 * res.entropy


def require_gibbs_check_size(n: int, m: int, n_samples: int) -> None:
    """SizeError unless the Gibbs identity check fits: it holds the plan, a bool mask and
    an int64 index of its positive entries (2.125 n x m) and ~16 arrays of n_samples."""
    require_dense_size(n, m, 2.125 + 16 * n_samples / (n * m),
                       f"the Gibbs identity check with {n_samples} samples")


def gibbs_identity_check(res: SinkhornResult, n_samples: int, seed: int = 0) -> float:
    """Max relative log-ratio error of the two-point density identity.

    Both sides are evaluated independently: the left from materialized plan
    entries, the right from the sampled pairs' costs at temperature epsilon^2.
    Quadruples touching an underflowed (zero) entry are skipped and resampled.
    :func:`require_gibbs_check_size` refuses an oversized check up front."""
    if not (n_samples >= 0 and seed >= 0):
        raise DomainError(f"n_samples and seed must be nonnegative, got {n_samples} and {seed}")
    require_gibbs_check_size(res.f.size, res.g.size, n_samples)
    plan = res.plan.mass
    x, y = res.plan.source.points, res.plan.target.points
    eps2 = res.epsilon**2

    def cost(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        return squared_distances(x[rows], y[cols], pairwise=True)

    # Subnormal entries carry too few significand bits for an accurate log;
    # treat them like underflowed zeros and resample.
    positive = np.finfo(float).tiny
    flat = np.flatnonzero(plan > positive)
    if flat.size == 0:
        raise DomainError("plan has no positive entries")
    rng = np.random.default_rng(seed)
    worst = 0.0
    accepted = 0
    attempts = 0
    while accepted < n_samples:
        attempts += 1
        if attempts > 1000:
            raise DomainError("could not sample enough strictly positive quadruples")
        batch = max(n_samples - accepted, 1)
        i, j = np.divmod(flat[rng.integers(0, flat.size, size=batch)], plan.shape[1])
        k, l = np.divmod(flat[rng.integers(0, flat.size, size=batch)], plan.shape[1])
        valid = (plan[i, l] > positive) & (plan[k, j] > positive)
        if not np.any(valid):
            continue
        i, j, k, l = i[valid], j[valid], k[valid], l[valid]
        lhs = (np.log(plan[i, j]) + np.log(plan[k, l])
               - np.log(plan[i, l]) - np.log(plan[k, j]))
        rhs = -(cost(i, j) + cost(k, l) - cost(i, l) - cost(k, j)) / eps2
        scale = np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
        worst = max(worst, float(np.max(np.abs(lhs - rhs) / scale)))
        accepted += int(np.count_nonzero(valid))
    return worst


# ---------------------------------------------------------------------------
# Exact quadratic transport
# ---------------------------------------------------------------------------

CERT_RTOL = 1e-9
# Shortlist LP: a row or column of the LP violates when its smallest reduced
# cost is below -PRICE_RTOL of the cost scale: far below CERT_RTOL, so the
# exit duals certify with room to spare, while slack at rounding level adds
# no pairs.
PRICE_RTOL = 1e-12
# At the HiGHS defaults (1e-7) a restricted solve can return a plan 4e-8 off
# its marginals and in cost, which the certificate and the cost both feel.
# Presolve is off: on atoms of weight near 1e-12 it declared feasible
# restricted LPs infeasible (a 14x14 gaussian of floor 0 to a uniform).
HIGHS_OPTIONS = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10,
                 "presolve": "off", "output_flag": False}
# The LP's seeds come from a Sinkhorn solve at SEED_SPACINGS times the larger
# grid spacing, to SEED_TOL: entropic potentials at a small epsilon are near
# the optimal duals (Schmitzer, SIAM J. Sci. Comput. 41(3), 2019).  On the
# README's 20x20 and 32x32 pairs, seeds at 1 to 2 spacings need no pricing
# round; at 3 spacings the LP needs two or three solves and takes 1.3-1.5
# times as long, at 4 four or five and 3.7-4.3 times as long.
SEED_SPACINGS = 2.0
SEED_TOL = 1e-4


def exact_ot(lam: GridMeasure, mu: GridMeasure) -> ExactOTResult:
    """Exact quadratic transport with a dual-feasibility certificate.

    Dimension 1 uses the monotone coupling of the sorted supports and forms
    no n x m array.  Dimension 2 solves the transport LP on a shortlist of
    pairs, seeded by a loose Sinkhorn solve and grown by pricing against the
    full cost; ``solves`` records each LP solve and ``seed_stages`` the seed
    solve's stages.  Both paths verify dual feasibility over all pairs,
    complementary slackness, the marginals and a vanishing duality gap
    before returning, in one certificate that reads the cost on the plan's
    cells and takes c-transforms over the grids, as do the LP's seeds,
    shortlist and pricing: a lower envelope of parabolas in d = 1, one
    reduction per axis in d = 2.  Neither path forms an n x m array until
    the dense plan is built from its cells, on first read of ``plan``.  The
    size guard counts PLAN_ARRAYS n x m arrays, the plan and one region-read
    temporary, as ``sinkhorn``'s does; an input past DENSE_BYTES_LIMIT raises
    SizeError up front.
    """
    _require_pair(lam, mu)
    require_dense_size(lam.spec.n_points, mu.spec.n_points, PLAN_ARRAYS, "exact_ot")
    if lam.dim == 1:
        try:
            return _exact_ot_monotone(lam, mu)
        except CertificateError as exc:
            logger.warning("monotone path: %s; falling back to the LP path", exc)
    return _exact_ot_lp(lam, mu)


def _certify(lam: GridMeasure, mu: GridMeasure, ii: np.ndarray, jj: np.ndarray,
             masses: np.ndarray, c_cells: np.ndarray, u: np.ndarray, v: np.ndarray,
             method: str, solves: list[LPSolve],
             seed_stages: list[SinkhornStage] = ()) -> ExactOTResult:
    """The ExactOTResult of the plan ``masses`` on the cells (ii, jj), whose
    costs are ``c_cells``, with the duals ``u`` and ``v``; CertificateError if
    its certificate misses CERT_RTOL.

    The zero-weight atoms' duals, zero on entry, are completed by
    c-transforms, the target's first.  The certificate is the relative
    duality gap and the largest of: the dual violation max_ij (u_i + v_j -
    c_ij) = max_i (u_i - v^c_i) and the slack on the plan's support, both
    relative to the largest cost, and the plan's row-sum and column-sum
    errors, relative to the total mass.  Only v^c reads the cost off the
    cells, through _c_transform_grid.  A NaN gap or violation fails."""
    zero_i, zero_j = lam.weights == 0, mu.weights == 0
    if zero_j.any():
        v[zero_j] = _c_transform_grid(lam.spec, u, mu.points[zero_j])[0]
    v_c = _c_transform_grid(mu.spec, v, lam.points)[0]
    u[zero_i] = v_c[zero_i]
    scale = max(1.0, hull_reach(lam.spec, mu.spec))
    support = masses > max(1e-300, 1e-12 * float(masses.max()))
    tight = np.abs(u[ii] + v[jj] - c_cells)[support].max(initial=0.0)
    marginal = max(float(np.abs(np.bincount(idx, weights=masses, minlength=w.size) - w).max())
                   for idx, w in ((ii, lam.weights), (jj, mu.weights)))
    # np.max keeps a NaN, which max drops; + 0.0 turns its -0.0 into 0.0.
    violation = float(np.max([np.max(u - v_c, initial=0.0) / scale, tight / scale,
                              marginal / lam.total_mass])) + 0.0
    primal = float(np.sum(c_cells * masses))
    gap = abs(primal - float(u @ lam.weights + v @ mu.weights)) / max(1.0, abs(primal))
    if not (gap <= CERT_RTOL and violation <= CERT_RTOL):
        raise CertificateError(
            f"optimality certificate failed (gap {gap:.3e}, violation {violation:.3e})"
        )

    def build_plan() -> Coupling:
        plan = np.zeros((u.size, v.size))
        plan[ii, jj] = masses
        return Coupling(source=lam, target=mu, mass=plan)

    return ExactOTResult(_build_plan=build_plan, cost=primal, method=method, duality_gap=gap,
                         feasibility_violation=violation, u=u, v=v, solves=solves,
                         seed_stages=list(seed_stages))


def _staircase(ca: np.ndarray, cb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cells of the north-west-corner rule on the cumulative marginals ``ca``
    and ``cb``: a path from (0, 0) to (n-1, m-1) that meets every row and
    column and carries a feasible plan.  It steps down a row when the row's
    cumulative mass is used up first (ties step down), else right."""
    steps = np.argsort(np.concatenate([ca[:-1], cb[:-1]]), kind="stable")
    down = steps < ca.size - 1
    return (np.concatenate([[0], np.cumsum(down)]),
            np.concatenate([[0], np.cumsum(~down)]))


def _exact_ot_monotone(lam: GridMeasure, mu: GridMeasure) -> ExactOTResult:
    """The north-west-corner staircase on the positive atoms, in grid order,
    which on a line is sorted order, with the path's tree duals.  The
    quadratic cost is Monge on a line, so the tree duals of any staircase are
    feasible and its plan is optimal (Hoffman, "On simple linear programming
    problems", 1963).  _certify reads the cost on the path's cells only."""
    rows, cols, wa, wb = _positive_atoms(lam, mu)
    # A path cell carries the overlap of its row's and its column's
    # cumulative-mass intervals, empty past the smaller total.  The sums run
    # in np.longdouble (extended precision on x86), so that an overlap, the
    # difference of two long sums, keeps the last bits of the cell's mass.
    ca, cb = np.cumsum(wa, dtype=np.longdouble), np.cumsum(wb, dtype=np.longdouble)
    ri, cj = _staircase(ca, cb)
    start_a, start_b = np.concatenate([[0.0], ca[:-1]]), np.concatenate([[0.0], cb[:-1]])
    overlap = np.minimum(ca[ri], cb[cj]) - np.maximum(start_a[ri], start_b[cj])
    masses = np.maximum(overlap, 0.0).astype(float)
    # u_i + v_j = c_ij along the path: u moves only on down steps, by the cost
    # difference of the step.
    ii, jj = rows[ri], cols[cj]
    c_path = squared_distances(lam.points[ii], mu.points[jj], pairwise=True)
    down = np.diff(ri, prepend=0) > 0
    u_path = np.cumsum(np.where(down, np.diff(c_path, prepend=c_path[0]), 0.0))
    u, v = np.zeros(lam.spec.n_points), np.zeros(mu.spec.n_points)
    u[ii] = u_path
    v[jj] = c_path - u_path
    return _certify(lam, mu, ii, jj, masses, c_path, u, v, "monotone_1d", [])


def _c_transform_1d(y: np.ndarray, v: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """min_j ((x_i - y_j)^2 - v_j) for each x_i and the j attaining it, for
    points ``y`` in ascending order, v_j = -inf leaving y_j out: the lower
    envelope of the parabolas, in one stack pass over ``y`` and one binary
    search per ``x_i`` (Felzenszwalb & Huttenlocher, Theory Comput. 8, 2012)."""
    ys, vs = y.tolist(), v.tolist()
    inf = np.inf
    # The envelope's parabolas, left to right, and where each takes over.
    hull: list[int] = []
    starts: list[float] = []
    for k, yk in enumerate(ys):
        vk = vs[k]
        s = -inf
        while hull:
            j = hull[-1]
            dy = yk - ys[j]
            # Parabola k lies below parabola j right of s; at equal points the
            # one with the larger v lies below everywhere.
            if dy:
                s = 0.5 * (yk + ys[j]) - (vk - vs[j]) / (dy + dy)
            else:
                s = -inf if vk > vs[j] else inf
            if s > starts[-1]:
                break
            hull.pop()
            starts.pop()
            s = -inf
        if s < inf:
            hull.append(k)
            starts.append(s)
    best = np.asarray(hull)[np.searchsorted(starts, x, side="right") - 1]
    return squared_distances(x[:, None], y[best, None], pairwise=True) - v[best], best


def _c_transform_grid(spec: GridSpec, v: np.ndarray,
                      x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """min_j (|x_i - y_j|^2 - v_j) for each row x_i of ``x``, over the points
    y_j of the grid ``spec`` (P x Q in d = 2), and the flat grid index j that
    attains it, always one of finite v_j; v_j = -inf leaves y_j out.  In d =
    1 the envelope forms no n x m array.  In d = 2 the cost is a sum over
    axes, and the minimum two reductions over _c_transform_1d's terms:
    lines[p, k] = min_q ((x1_k - y_q)^2 - v_pq) at the K distinct x_i1, then
    min_p ((x_i0 - y_p)^2 + lines[p, k(i)]), of P Q K and len(x) P entries."""
    if spec.dim == 1:
        return _c_transform_1d(spec.axes[0], v, x[:, 0])
    first, last = spec.axes
    x1, which = np.unique(x[:, 1], return_inverse=True)
    terms = squared_distances(x1[:, None], last[:, None]) - v.reshape(spec.extent)[:, None]
    q = terms.argmin(axis=2)
    terms = np.take_along_axis(terms, q[..., None], axis=2)[..., 0].T[which]
    terms += squared_distances(x[:, :1], first[:, None])
    p = terms.argmin(axis=1)
    return terms[np.arange(p.size), p], p * last.size + q[p, which]


def _exact_ot_lp(lam: GridMeasure, mu: GridMeasure) -> ExactOTResult:
    """Transport LP over the positive-weight atoms; the others carry no mass.

    The LP is solved on a shortlist of pairs (Merigot, Comput. Graph. Forum
    30(5), 2011; Schmitzer, JMIV 56, 2016), seeded with dual-feasible (u, v):
    the target potential of a Sinkhorn solve of the pair at SEED_SPACINGS
    times the larger grid spacing, to SEED_TOL, c-transformed twice over the
    positive atoms.  The transforms' argmins give each source the target that
    attains u_i and each target j the source i*(j) that attains v_j, where the
    star cell (i*(j), j) is tight.  _shortlist_lp builds its shortlist from
    them, prices on the grid and reads the cost on its cells only.  The exit
    duals are dual-feasible on the full cost, so the last plan is optimal.
    """
    rows, cols = _positive_atoms(lam, mu)[:2]
    seed = _sinkhorn(lam, mu, SEED_SPACINGS * max(lam.spec.h, mu.spec.h), tol=SEED_TOL,
                     max_iter=100_000)
    u_seed, near_j = _c_transform_grid(mu.spec, np.where(mu.weights > 0, seed.g, -np.inf),
                                       lam.points)
    u_seed[lam.weights == 0] = -np.inf
    v, near_i = _c_transform_grid(lam.spec, u_seed, mu.points[cols])
    (ii, jj), x, c_cells, u, v, rounds = _shortlist_lp(lam, mu, u_seed[rows], v, near_j[rows],
                                                       near_i)
    u_full, v_full = np.zeros(lam.spec.n_points), np.zeros(mu.spec.n_points)
    u_full[rows], v_full[cols] = u, v
    return _certify(lam, mu, rows[ii], cols[jj], np.maximum(x, 0.0), c_cells, u_full, v_full,
                    "lp_highs", [LPSolve((rows.size, cols.size), *solve) for solve in rounds],
                    seed.stages)


HIGHS_MODULE = "scipy.optimize._highspy._core"


def _highs_binding():
    """scipy's bundled HiGHS binding.  It is loaded on the first LP, not at
    import: only the transport LP uses scipy.  ``from scipy.optimize._highspy
    import _core`` would run all of scipy.optimize's __init__, most of a 2-d
    run's start-up, so the extension file is loaded by itself and registered
    under its full name, where a later ``import scipy.optimize`` finds it.
    If no such file is where scipy keeps it, or it does not load, the binding
    is imported the usual way."""
    binding = sys.modules.get(HIGHS_MODULE)
    if binding is not None:
        return binding
    import scipy

    folder = os.path.join(os.path.dirname(scipy.__file__), "optimize", "_highspy")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(folder, "_core" + suffix)
        if not os.path.isfile(path):
            continue
        loader = importlib.machinery.ExtensionFileLoader(HIGHS_MODULE, path)
        try:
            binding = importlib.util.module_from_spec(
                importlib.util.spec_from_file_location(HIGHS_MODULE, path, loader=loader))
            loader.exec_module(binding)
        except ImportError:
            break
        sys.modules[HIGHS_MODULE] = binding
        return binding
    from scipy.optimize._highspy import _core
    return _core


def _shortlist_lp(lam: GridMeasure, mu: GridMeasure, u: np.ndarray, v: np.ndarray,
                  near_j: np.ndarray, near_i: np.ndarray) -> tuple:
    """The pricing loop of _exact_ot_lp from the seeds (u, v) on the positive
    atoms, attained at the targets ``near_j`` and the sources ``near_i``: the
    cells (positions among the positive atoms) in row-major order, the last
    LP's solution and costs on them, its row and column duals, and per solve
    the shortlist's pairs, the pairs its duals added and its iterations.

    The shortlist opens with the staircase cells, which make the LP feasible,
    the star cells (near_i[j], j) and each line's plus around its argmin.
    One HiGHS model holds the LP: the marginals are its rows, the cells its
    columns, of cost c_ij - u_i - v_j >= 0, 0 to rounding on the star cells.
    The basis of the star cells and the source rows' logicals is then
    dual-feasible, and the dual simplex opens at the seeds; the seeds plus
    the row duals are the duals of c.  After each run, a line whose smallest
    reduced cost under these duals is below -threshold adds the plus around
    its argmin, and HiGHS re-runs from its last basis until no cell is new."""
    highs = _highs_binding()
    rows, cols, wa, wb = _positive_atoms(lam, mu)
    n, m = rows.size, cols.size
    # Each grid point's position among the positive atoms, -1 for a
    # zero-weight atom and, in the extra last entry, for plus's -1.
    row_of, col_of = np.full(lam.spec.n_points + 1, -1), np.full(mu.spec.n_points + 1, -1)
    row_of[rows], col_of[cols] = np.arange(n), np.arange(m)
    threshold = PRICE_RTOL * max(1.0, hull_reach(lam.spec, mu.spec))

    def plus(lines: np.ndarray, near: np.ndarray, columns: bool = False) -> np.ndarray:
        """Keys i m + j of the cells that pair each row (or column) of
        ``lines`` with the positive atoms at ``near`` and beside it along
        each grid axis (-1 off the grid)."""
        spec, position = (lam.spec, row_of) if columns else (mu.spec, col_of)
        partners, stride = [near], 1
        for size in reversed(spec.extent):
            at = near // stride % size
            partners += [np.where(at > 0, near - stride, -1),
                         np.where(at < size - 1, near + stride, -1)]
            stride *= size
        partners = position[np.stack(partners, axis=1)]
        keep = partners >= 0
        lines = np.broadcast_to(lines[:, None], partners.shape)[keep]
        return partners[keep] * m + lines if columns else lines * m + partners[keep]

    def violating(spec: GridSpec, atoms: np.ndarray, duals: np.ndarray, points: np.ndarray,
                  own: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The lines whose smallest reduced cost is below -threshold, and its argmin."""
        on_grid = np.full(spec.n_points, -np.inf)
        on_grid[atoms] = duals
        smallest, near = _c_transform_grid(spec, on_grid, points)
        bad = np.flatnonzero(smallest - own < -threshold)
        return bad, near[bad]

    model = highs._Highs()
    for name, value in HIGHS_OPTIONS.items():
        model.setOptionValue(name, value)
    weights, empty = np.concatenate([wa, wb]), np.zeros(0, dtype=np.int32)
    model.addRows(n + m, weights, weights, 0, empty, empty, np.zeros(0))

    def add_columns(keys: np.ndarray) -> np.ndarray:
        ii, jj = np.divmod(keys, m)
        k, c = keys.size, squared_distances(lam.points[rows[ii]], mu.points[cols[jj]], pairwise=True)
        model.addCols(k, c - u[ii] - v[jj], np.zeros(k), np.full(k, np.inf), 2 * k,
                      np.arange(0, 2 * k, 2, dtype=np.int32),
                      np.stack([ii, n + jj], axis=1).astype(np.int32).ravel(), np.ones(2 * k))
        return c

    si, sj = _staircase(np.cumsum(wa), np.cumsum(wb))
    star = row_of[near_i] * m + np.arange(m)
    keys = np.concatenate([si * m + sj, star, plus(np.arange(n), near_j),
                           plus(np.arange(m), near_i, True)])
    keys = keys[np.sort(np.unique(keys, return_index=True)[1])]
    costs = add_columns(keys)
    basis, status = highs.HighsBasis(), highs.HighsBasisStatus
    kinds = np.array([status.kLower, status.kBasic], dtype=object)
    basis.col_status = kinds[np.isin(keys, star).astype(np.intp)].tolist()
    basis.row_status = [status.kBasic] * n + [status.kLower] * m
    model.setBasis(basis)
    rounds = []
    while True:
        run = model.run()
        status = model.getModelStatus()
        if run == highs.HighsStatus.kError or status != highs.HighsModelStatus.kOptimal:
            raise CertificateError(f"transport LP failed: HiGHS run status {run.name}, "
                                   f"model status {model.modelStatusToString(status)}")
        solution = model.getSolution()
        duals = np.asarray(solution.row_dual)
        u_s, v_s = duals[:n] + u, duals[n:] + v
        new = np.setdiff1d(np.concatenate([
            plus(*violating(mu.spec, cols, v_s, lam.points[rows], u_s)),
            plus(*violating(lam.spec, rows, u_s, mu.points[cols], v_s), True)]), keys)
        rounds.append((keys.size, new.size, model.getInfo().simplex_iteration_count))
        if not new.size:
            break
        costs = np.concatenate([costs, add_columns(new)])
        # The new columns price out negative: the last basis stays primal
        # feasible but not dual feasible, so the primal simplex re-runs from
        # it in tens of iterations where the dual one took about a thousand.
        model.setOptionValue("simplex_strategy", 4)
        keys = np.concatenate([keys, new])
    # In row-major order, the cost sums over the plan in the same order
    # whatever order its columns were added in.
    order = np.argsort(keys)
    return (np.divmod(keys[order], m), np.asarray(solution.col_value)[order], costs[order],
            u_s, v_s, rounds)
