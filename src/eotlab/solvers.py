"""Entropic and exact quadratic transport solvers on grid measures.

The entropic objective uses the length-scale convention: the regularization
strength is epsilon^2, so the Gibbs kernel is exp(-|x-y|^2 / epsilon^2) and
epsilon has the units of a distance.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .couplings import Coupling, squared_distances
from .errors import CertificateError, DomainError, MassMismatchError, SizeError
from .grids import (DENSE_BYTES_LIMIT, EXACT_OT_DENSE_ARRAYS, SINKHORN_DENSE_ARRAYS,
                    GridMeasure, require_dense_size)

__all__ = [
    "SinkhornResult",
    "SinkhornStage",
    "ExactOTResult",
    "LPSolve",
    "sinkhorn",
    "exact_ot",
    "entropic_cost",
    "gibbs_identity_check",
]

logger = logging.getLogger("eotlab.solvers")

MASS_RTOL = 1e-12
# Sinkhorn scalings are absorbed into the log potentials once they leave
# (1/ABSORB_BOUND, ABSORB_BOUND).  A kernel entry dropped below
# ABSORB_BOUND * tiny then stands for a plan entry below 1e-157, far under any
# marginal tolerance.
ABSORB_BOUND = 1e50
# Over-relaxed Sinkhorn converges for factors in (0, 2) (Lehmann et al., Optim.
# Lett. 16, 2022); OMEGA_MAX keeps the factor off that edge, where the relaxed
# iteration barely contracts.  A factor that a rollback halves to within
# OMEGA_FLOOR of 1 drops to plain Sinkhorn.
OMEGA_MAX = 1.95
OMEGA_FLOOR = 0.05
# Only a check can end a stage early, so the iterations between checks are bounded.
CHECK_EVERY_MAX = 1000
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
    factor it ended with, the checks it rolled back, the marginal error it
    exited with and why it stopped (one of STOP_REASONS)."""
    epsilon: float
    iterations: int
    omega: float
    rollbacks: int
    marg_err: float
    stop: str


@dataclass
class SinkhornResult:
    plan: Coupling
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
    """One solve of the shortlist LP: its pyramid level (0 is the input, each
    level above halves the grid), the atoms n x m at that level, the pairs on
    the shortlist, and the violated pairs that pricing its duals added to the
    shortlist (0 on a level's last solve)."""
    level: int
    atoms: tuple[int, int]
    pairs: int
    added: int


@dataclass
class ExactOTResult:
    plan: Coupling
    cost: float
    method: str
    duality_gap: float
    feasibility_violation: float
    u: np.ndarray
    v: np.ndarray
    solves: list[LPSolve]


def _require_equal_masses(lam: GridMeasure, mu: GridMeasure) -> float:
    ml, mm = lam.total_mass, mu.total_mass
    gap = abs(ml - mm) / max(ml, mm)
    if gap > MASS_RTOL:
        raise MassMismatchError(
            f"marginal masses differ: relative gap {gap:.3e} exceeds {MASS_RTOL:.0e}"
        )
    return 0.5 * (ml + mm)


def _positive_atoms(lam: GridMeasure, mu: GridMeasure) -> tuple[np.ndarray, ...]:
    """(rows, cols, wa, wb): the indices and weights of the positive-weight
    atoms of ``lam`` and ``mu``.  The solvers work on these; the other atoms
    carry no mass."""
    rows = np.nonzero(lam.weights > 0)[0]
    cols = np.nonzero(mu.weights > 0)[0]
    return rows, cols, lam.weights[rows], mu.weights[cols]


def _softmin(cost: np.ndarray, work: np.ndarray, pot: np.ndarray, log_w: np.ndarray,
             eps2: float) -> np.ndarray:
    """-eps2 * log sum_j exp((pot_j - c_ij)/eps2 + log_w_j) for each row i of
    ``cost``, stabilized by the row maximum; ``work`` is scratch of cost's shape.
    The column sweep passes the transposed views ``cost.T`` and ``work.T``."""
    np.subtract((pot + eps2 * log_w)[None, :], cost, out=work)
    np.divide(work, eps2, out=work)
    peak = work.max(axis=1)
    np.subtract(work, peak[:, None], out=work)
    np.exp(work, out=work)
    return -eps2 * (np.log(work.sum(axis=1)) + peak)


def _bounded(scaling: np.ndarray) -> bool:
    """True if every entry lies strictly inside (1/ABSORB_BOUND, ABSORB_BOUND)."""
    return 1.0 / ABSORB_BOUND < scaling.min() and scaling.max() < ABSORB_BOUND


def _epsilon_ladder(epsilon: float, cost_max: float) -> list[float]:
    """Geometric warm-start ladder from half the domain diameter down to epsilon."""
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
    warm_start: bool = True,
    check_every: int = 10,
) -> SinkhornResult:
    """Over-relaxed Sinkhorn iteration at temperature epsilon^2, in the
    scaling domain.

    Each epsilon stage opens by absorbing the centred potentials (f, g) into
    the kernel K = exp((f + g - c)/eps^2) * (a (x) b), and the iteration runs
    on scalings: u <- u (a / (u K v))^omega, v <- v (b / (v K^T u))^omega.  A
    scaling that leaves (1/ABSORB_BOUND, ABSORB_BOUND), or turns non-finite or
    zero, sends that iteration through a plain log-domain sweep and a new
    kernel (Schmitzer, SIAM J. Sci. Comput. 41(3), 2019).

    Every ``check_every``-th iteration is plain (omega = 1) and reads the
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
    plan satisfies pi = exp((f + g - c)/eps^2) * lam (x) mu entrywise.
    """
    # The temperature epsilon^2 divides every potential update.
    if not (epsilon > 0 and 0.0 < epsilon * epsilon < np.inf):
        raise DomainError(f"epsilon must be positive with a nonzero finite square, got {epsilon}")
    if not 1 <= check_every <= CHECK_EVERY_MAX:
        raise DomainError(f"check_every must lie in [1, {CHECK_EVERY_MAX}], got {check_every}")
    mass = _require_equal_masses(lam, mu)
    require_dense_size(lam.spec.n_points, mu.spec.n_points, SINKHORN_DENSE_ARRAYS, "sinkhorn")

    rows, cols, wa, wb = _positive_atoms(lam, mu)
    la, mb = wa / lam.total_mass, wb / mu.total_mass
    cost = squared_distances(lam.points[rows], mu.points[cols])
    cost_max = float(cost.max())
    # f + g - c carries the rounding of the largest cost; past epsilon^2 the
    # Gibbs factors exp((f + g - c)/epsilon^2) are noise.
    if cost_max * np.finfo(float).eps > epsilon * epsilon:
        raise DomainError(f"epsilon^2 = {epsilon * epsilon:.3e} is below the rounding error of "
                          f"the largest squared distance {cost_max:.3e}; raise solver.epsilon")
    log_la = np.log(la)
    log_mb = np.log(mb)
    n, m = cost.shape

    ladder = _epsilon_ladder(epsilon, cost_max) if warm_start else [epsilon]

    f = np.zeros(n)
    g = np.zeros(m)
    iterations = 0
    err_history: list[tuple[int, float]] = []
    stages: list[SinkhornStage] = []
    # The kernel; the log-domain sweeps use it as scratch.
    work = np.empty_like(cost)
    # The scalings u, v and their next values each share one buffer, so that
    # one bounds test covers both; kv = K v and ktu = K^T u.
    uv, nxt = np.empty(n + m), np.empty(n + m)
    u, v, u_next, v_next = uv[:n], uv[n:], nxt[:n], nxt[n:]
    kv, ktu = np.empty(n), np.empty(m)

    def build_kernel(eps2: float) -> None:
        """Absorb f, g into the kernel; the scalings restart at 1."""
        np.add((f + eps2 * log_la)[:, None], (g + eps2 * log_mb)[None, :], out=work)
        np.subtract(work, cost, out=work)
        np.divide(work, eps2, out=work)
        np.exp(work, out=work)
        # Subnormal products make the matrix-vector products several times
        # slower.  Entries below tiny * ABSORB_BOUND go, so that no entry times
        # an in-bounds scaling is subnormal.
        work[work < np.finfo(float).tiny * ABSORB_BOUND] = 0.0
        uv[:] = 1.0
        np.sum(work, axis=1, out=kv)

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
                check = it % check_every == 0 or it == stage_iter
                np.divide(la, kv, out=u_next)
                if omega != 1.0:
                    relax(u_next, u, omega)
                np.matmul(work.T, u_next, out=ktu)
                np.divide(mb, ktu, out=v_next)
                # A check ends on a plain v-update: its column marginal is
                # exact, and the error is the row error, as in plain Sinkhorn.
                if omega != 1.0 and not check:
                    relax(v_next, v, omega)
                if _bounded(nxt):
                    uv[:] = nxt
                    np.matmul(work, v, out=kv)
                else:
                    # Redo this iteration as a plain log-domain sweep from the
                    # last scalings that stayed in bounds, then absorb the
                    # potentials.
                    g += eps2 * np.log(v)
                    f = _softmin(cost, work, g, log_mb, eps2)
                    g = _softmin(cost.T, work.T, f, log_la, eps2)
                    center()
                    build_kernel(eps2)
                    np.sum(work, axis=0, out=ktu)
                    absorptions += 1
                iterations += 1
                if not check:
                    continue
                err = max(
                    float(np.sum(np.abs(u * kv - la))),
                    float(np.sum(np.abs(v * ktu - mb))),
                )
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
                        logger.warning(
                            "sinkhorn marginal error increased between checks "
                            "(%.3e -> %.3e); this indicates a bug",
                            err_history[-1][1],
                            err,
                        )
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
                    if check_every > 1 and new_rate > omega - 1.0:
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
        stages.append(SinkhornStage(float(eps), it, omega, rollbacks, accepted, stop))

    # Free the kernel before the plan, and f + g - c once the entropy has it:
    # at most four n x m arrays are alive at once from here on.
    del work
    marg_err = stages[-1].marg_err
    eps2 = epsilon * epsilon
    fgc = f[:, None] + g[None, :] - cost
    plan_sub = np.exp(fgc / eps2 + log_la[:, None] + log_mb[None, :])
    primal_sub = float(np.sum(cost * plan_sub))
    # Relative entropy of the normalized plan w.r.t. the normalized product,
    # evaluated in the log domain (exact for the materialized plan).
    entropy_sub = float(np.sum(plan_sub * fgc)) / eps2
    del fgc

    full = np.zeros((lam.spec.n_points, mu.spec.n_points))
    full[np.ix_(rows, cols)] = mass * plan_sub
    f_full = np.zeros(lam.spec.n_points)
    g_full = np.zeros(mu.spec.n_points)
    f_full[rows] = f - eps2 * np.log(mass)
    g_full[cols] = g

    converged = marg_err <= tol
    if not converged:
        stop = stages[-1].stop
        logger.warning(
            "sinkhorn did not converge (%s): marginal error %.3e after %d iterations; %s",
            stop,
            marg_err,
            iterations,
            STOP_REASONS[stop],
        )
    return SinkhornResult(
        plan=Coupling(source=lam, target=mu, mass=full, epsilon=epsilon),
        f=f_full,
        g=g_full,
        epsilon=epsilon,
        iterations=iterations,
        marg_err=marg_err,
        primal_cost=mass * primal_sub,
        entropy=mass * entropy_sub - mass * np.log(mass),
        converged=converged,
        mass=mass,
        err_history=err_history,
        stages=stages,
    )


def entropic_cost(res: SinkhornResult) -> float:
    """Quadratic cost plus epsilon^2 times the relative entropy of the plan."""
    return res.primal_cost + res.epsilon**2 * res.entropy


def gibbs_identity_check(res: SinkhornResult, n_samples: int, seed: int = 0) -> float:
    """Max relative log-ratio error of the two-point density identity.

    Both sides are evaluated independently: the left from materialized plan
    entries, the right from the cost differences at temperature epsilon^2.
    Quadruples touching an underflowed (zero) entry are skipped and resampled.
    A sample count whose batch, about 16 arrays of ``n_samples`` entries, would
    pass DENSE_BYTES_LIMIT raises SizeError up front.
    """
    need = 16 * n_samples * np.dtype(float).itemsize
    if need > DENSE_BYTES_LIMIT:
        raise SizeError(f"the Gibbs identity check on {n_samples} samples needs about "
                        f"{need / 2**20:,.0f} MiB; the limit is {DENSE_BYTES_LIMIT / 2**20:,.0f} MiB")
    plan = res.plan.mass
    cost = res.plan.cost_matrix
    eps2 = res.epsilon**2
    # Subnormal entries carry too few significand bits for an accurate log;
    # treat them like underflowed zeros and resample.
    positive = np.finfo(float).tiny
    ii, jj = np.nonzero(plan > positive)
    if ii.size == 0:
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
        a = rng.integers(0, ii.size, size=batch)
        b = rng.integers(0, ii.size, size=batch)
        i, j = ii[a], jj[a]
        k, l = ii[b], jj[b]
        cross1 = plan[i, l]
        cross2 = plan[k, j]
        valid = (cross1 > positive) & (cross2 > positive)
        if not np.any(valid):
            continue
        i, j, k, l = i[valid], j[valid], k[valid], l[valid]
        lhs = (
            np.log(plan[i, j])
            + np.log(plan[k, l])
            - np.log(plan[i, l])
            - np.log(plan[k, j])
        )
        rhs = -(cost[i, j] + cost[k, l] - cost[i, l] - cost[k, j]) / eps2
        scale = np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
        worst = max(worst, float(np.max(np.abs(lhs - rhs) / scale)))
        accepted += int(np.count_nonzero(valid))
    return worst


# ---------------------------------------------------------------------------
# Exact quadratic transport
# ---------------------------------------------------------------------------

CERT_RTOL = 1e-9
# Shortlist LP: each positive atom starts with its SHORTLIST_STENCIL**dim
# nearest partners, the stencil of cells around the image of a smooth map, and
# each pricing round adds the dim + 1 most violated pairs of every row and
# column.  A pair violates when its slack exceeds PRICE_RTOL of the cost
# scale: far below CERT_RTOL, so the exit duals certify with room to spare,
# while slack at rounding level adds no pairs.
SHORTLIST_STENCIL = 3
PRICE_RTOL = 1e-12
# At the HiGHS defaults (1e-7) a restricted solve can return a plan 4e-8 off
# its marginals and in cost, which the certificate and the cost both feel.
# Presolve is off: on atoms of weight near 1e-12 it declared feasible
# restricted LPs infeasible (a 14x14 gaussian of floor 0 to a uniform).
HIGHS_OPTIONS = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10,
                 "presolve": False}
# The LP runs on a pyramid of coarsened grids once either side has more than
# this many positive atoms; its coarsest level has at most this many per side.
PYRAMID_ATOMS = 256


def linprog(*args, **kwargs):
    """scipy.optimize.linprog, imported on the first LP solve: importing scipy
    takes most of eotlab's start-up time, and only the transport LP uses it."""
    from scipy.optimize import linprog as scipy_linprog

    return scipy_linprog(*args, **kwargs)


def exact_ot(lam: GridMeasure, mu: GridMeasure) -> ExactOTResult:
    """Exact quadratic transport with a dual-feasibility certificate.

    Dimension 1 uses the monotone coupling of the sorted supports and
    certifies it in O(n + m) work, up to one binary search per atom, through
    lower envelopes of parabolas; the returned plan is its only n x m array.
    Dimension 2 solves the transport LP on a shortlist of pairs, coarse to
    fine, grown by pricing against the full cost; ``solves`` records each LP
    solve.  Both paths verify dual feasibility over all pairs, complementary
    slackness, the marginals and a vanishing duality gap before returning.
    An input whose dense arrays would pass DENSE_BYTES_LIMIT raises SizeError
    up front.
    """
    _require_equal_masses(lam, mu)
    require_dense_size(lam.spec.n_points, mu.spec.n_points, EXACT_OT_DENSE_ARRAYS, "exact_ot")
    if lam.dim == 1:
        try:
            return _exact_ot_monotone(lam, mu)
        except CertificateError:
            logger.warning("monotone certificate failed; falling back to the LP path")
    return _exact_ot_lp(lam, mu)


def _certificate(scale: float, excess: float, slack: np.ndarray, masses: np.ndarray,
                 row_sums: np.ndarray, col_sums: np.ndarray, primal: float, u: np.ndarray,
                 v: np.ndarray, wl: np.ndarray, wm: np.ndarray) -> tuple[float, float]:
    """Return (relative duality gap, relative feasibility violation).

    The violation is the largest of the dual violation ``excess`` = max_ij
    (u_i + v_j - c_ij) and the slack u_i + v_j - c_ij on the plan's support,
    both relative to the cost ``scale``, and the plan's row-sum and
    column-sum errors, relative to the total mass.  ``slack`` and ``masses``
    are aligned: the slack and the plan's mass at the same pairs.
    """
    scale = max(1.0, scale)
    violation = max(0.0, excess) / scale
    support = masses > max(1e-300, 1e-12 * float(masses.max()))
    tight = float(np.abs(slack[support]).max()) / scale if support.any() else 0.0
    marginal = max(float(np.abs(row_sums - wl).max()),
                   float(np.abs(col_sums - wm).max())) / float(wl.sum())
    dual = float(u @ wl + v @ wm)
    gap = abs(primal - dual) / max(1.0, abs(primal))
    return gap, max(violation, tight, marginal)


def _certify(
    cost: np.ndarray,
    plan: np.ndarray,
    u: np.ndarray,
    v: np.ndarray,
    wl: np.ndarray,
    wm: np.ndarray,
) -> tuple[float, float]:
    """_certificate of a dense plan against the dense ``cost``."""
    slack = u[:, None] + v[None, :] - cost
    return _certificate(float(np.abs(cost).max()), float(slack.max()), slack, plan,
                        plan.sum(axis=1), plan.sum(axis=0), float(np.sum(cost * plan)),
                        u, v, wl, wm)


def _result(lam: GridMeasure, mu: GridMeasure, plan: np.ndarray, primal: float,
            certificate: tuple[float, float], u: np.ndarray, v: np.ndarray, method: str,
            solves: list[LPSolve]) -> ExactOTResult:
    """The ExactOTResult of a plan of cost ``primal``; CertificateError if its
    certificate misses CERT_RTOL."""
    gap, violation = certificate
    if gap > CERT_RTOL or violation > CERT_RTOL:
        raise CertificateError(
            f"optimality certificate failed (gap {gap:.3e}, violation {violation:.3e})"
        )
    return ExactOTResult(plan=Coupling(source=lam, target=mu, mass=plan), cost=primal,
                         method=method, duality_gap=gap, feasibility_violation=violation,
                         u=u, v=v, solves=solves)


def _embed_result(
    lam: GridMeasure, mu: GridMeasure, cost: np.ndarray, rows: np.ndarray, cols: np.ndarray,
    cells: tuple[np.ndarray, np.ndarray], masses: np.ndarray, u_s: np.ndarray,
    v_s: np.ndarray, method: str, solves: list[LPSolve],
) -> ExactOTResult:
    """Embed a plan and duals solved on the atoms ``rows`` x ``cols``, complete
    the zero-weight atoms' duals, and certify against the full ``cost``.  The
    plan is ``masses`` on ``cells``, index arrays into ``rows`` and ``cols``."""
    n, m = lam.spec.n_points, mu.spec.n_points
    plan = np.zeros((n, m))
    plan[rows[cells[0]], cols[cells[1]]] = masses
    u = np.zeros(n)
    v = np.zeros(m)
    u[rows] = u_s
    v[cols] = v_s
    zero_i, zero_j = lam.weights == 0, mu.weights == 0
    v[zero_j] = _c_transform(cost[:, zero_j].T, u)
    u[zero_i] = _c_transform(cost[zero_i], v)
    certificate = _certify(cost, plan, u, v, lam.weights, mu.weights)
    return _result(lam, mu, plan, float(np.sum(cost * plan)), certificate, u, v, method, solves)


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
    problems", 1963).

    The certificate is the LP path's, evaluated in O(n + m) up to one binary
    search per atom: the cost is read on the path's cells only, and each
    c-transform, for the zero-weight atoms' duals and for the dual violation
    over all n x m pairs, is a lower envelope of parabolas (_c_transform_1d).
    The plan is the only n x m array."""
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
    x, y = lam.points[:, 0], mu.points[:, 0]
    ii, jj = rows[ri], cols[cj]
    c_path = (x[ii] - y[jj]) ** 2
    down = np.diff(ri, prepend=0) > 0
    u_path = np.cumsum(np.where(down, np.diff(c_path, prepend=c_path[0]), 0.0))
    n, m = x.size, y.size
    u, v = np.zeros(n), np.zeros(m)
    u[ii] = u_path
    v[jj] = c_path - u_path
    zero_i, zero_j = lam.weights == 0, mu.weights == 0
    if zero_j.any():
        v[zero_j] = _c_transform_1d(x, u, y[zero_j])
    v_c = _c_transform_1d(y, v, x)
    u[zero_i] = v_c[zero_i]

    plan = np.zeros((n, m))
    plan[ii, jj] = masses
    primal = float(np.sum(c_path * masses))
    certificate = _certificate(
        max((x[-1] - y[0]) ** 2, (y[-1] - x[0]) ** 2), float(np.max(u - v_c)),
        u[ii] + v[jj] - c_path, masses, np.bincount(ii, weights=masses, minlength=n),
        np.bincount(jj, weights=masses, minlength=m), primal, u, v, lam.weights, mu.weights)
    return _result(lam, mu, plan, primal, certificate, u, v, "monotone_1d", [])


def _c_transform_1d(y: np.ndarray, v: np.ndarray, x: np.ndarray) -> np.ndarray:
    """min_j ((x_i - y_j)^2 - v_j) for each x_i, for points ``y`` in ascending
    order: the lower envelope of the parabolas, built in one stack pass over
    ``y`` and read with one binary search per ``x_i`` (Felzenszwalb &
    Huttenlocher, Theory Comput. 8, 2012).  _c_transform is its dense form."""
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
    return (x - y[best]) ** 2 - v[best]


def _smallest_per_line(values: np.ndarray, k: int, below: float) -> np.ndarray:
    """Mask of the ``k`` smallest entries of each row and of each column, kept
    where they are below ``below``."""
    mask = np.zeros(values.shape, dtype=bool)
    for axis in (0, 1):
        k_axis = min(k, values.shape[axis])
        top = np.take(np.argpartition(values, k_axis - 1, axis=axis), np.arange(k_axis), axis=axis)
        np.put_along_axis(mask, top, True, axis=axis)
    return mask & (values < below)


def _exact_ot_lp(lam: GridMeasure, mu: GridMeasure) -> ExactOTResult:
    """Transport LP over the positive-weight atoms; the others carry no mass.

    The LP is solved on a shortlist of pairs, coarse to fine (Merigot,
    Comput. Graph. Forum 30(5), 2011; Schmitzer, JMIV 56, 2016).  While
    either side has more than PYRAMID_ATOMS atoms, both are coarsened by
    summing 2^dim blocks of cells, at the blocks' barycentres.  Each level is
    seeded with dual-feasible (u, v): zero on the coarsest level, else the
    coarser level's v on each atom's block, then c-transformed twice on this
    level's cost.  Its shortlist is each row's and column's smallest reduced
    costs c - u - v (on the coarsest level, the nearest partners) and a
    north-west-corner staircase, which makes the restricted LP feasible.
    HiGHS's basis duals, tight on the plan's support to rounding, are priced
    against the level's full cost; while some pair outside the shortlist
    violates u_i + v_j <= c_ij, the most violated pairs of each row and column
    join it and the LP is solved again (Gottschlich & Schuhmacher, SIAM J.
    Imaging Sci. 7(4), 2014).  The finest level's exit duals are
    dual-feasible on the full cost, so its last plan is optimal there.
    """
    rows, cols, wa, wb = _positive_atoms(lam, mu)
    cost = squared_distances(lam.points, mu.points)
    # Each level holds, per side, the atoms' grid multi-indices, the grid's
    # extent, the weights and the points; parents[l] maps the target atoms of
    # level l to their blocks at level l + 1.
    levels = [tuple((np.array(np.unravel_index(idx, m.spec.extent)), m.spec.extent, w,
                     m.points[idx]) for m, idx, w in ((lam, rows, wa), (mu, cols, wb)))]
    parents = []
    while max(side[2].size for side in levels[-1]) > PYRAMID_ATOMS:
        (src, _), (dst, parent) = (_coarsen(*side) for side in levels[-1])
        levels.append((src, dst))
        parents.append(parent)
    solves: list[LPSolve] = []
    for level in reversed(range(len(levels))):
        (_, _, wa_l, xa), (_, _, wb_l, xb) = levels[level]
        cost_l = cost[np.ix_(rows, cols)] if level == 0 else squared_distances(xa, xb)
        if level == len(levels) - 1:
            u, v = np.zeros(wa_l.size), np.zeros(wb_l.size)
        else:
            u = _c_transform(cost_l, v[parents[level]])
            v = _c_transform(cost_l.T, u)
        cells, x, u, v, rounds = _shortlist_lp(cost_l, wa_l, wb_l, lam.dim, u, v)
        solves += [LPSolve(level, cost_l.shape, pairs, added) for pairs, added in rounds]
    del cost_l
    return _embed_result(lam, mu, cost, rows, cols, cells, np.maximum(x, 0.0), u, v,
                         method="lp_highs", solves=solves)


def _coarsen(index: np.ndarray, extent: tuple[int, ...], w: np.ndarray,
             x: np.ndarray) -> tuple[tuple, np.ndarray]:
    """Merge the atoms at grid multi-indices ``index`` (dim x k) of a grid of
    ``extent`` by 2^dim blocks of cells; at an odd extent the last block is
    one cell wide.  Returns the blocks as (multi-indices, extent, weights,
    barycentres), in grid order, and each atom's block."""
    extent = tuple((n + 1) // 2 for n in extent)
    keys, parent = np.unique(np.ravel_multi_index(index // 2, extent), return_inverse=True)
    wc = np.bincount(parent, weights=w)
    xc = np.stack([np.bincount(parent, weights=w * x[:, a]) for a in range(x.shape[1])], axis=1)
    return (np.array(np.unravel_index(keys, extent)), extent, wc, xc / wc[:, None]), parent


def _c_transform(cost: np.ndarray, v: np.ndarray) -> np.ndarray:
    """min_j (c_ij - v_j) for each row i of ``cost``."""
    return np.min(cost - v[None, :], axis=1)


def _shortlist_lp(cost_s: np.ndarray, wa: np.ndarray, wb: np.ndarray, dim: int,
                  u: np.ndarray, v: np.ndarray) -> tuple:
    """The pricing loop of _exact_ot_lp on one level's cost ``cost_s``, seeded
    from the dual-feasible (u, v): the shortlist's cells, the last LP's
    solution on them, its row and column duals, and for each solve the pairs
    on the shortlist and the violated pairs its duals added.  Its n x m arrays
    are gone when it returns."""
    import scipy.sparse as sp

    n, m = cost_s.shape
    near, batch = SHORTLIST_STENCIL**dim, dim + 1
    threshold = PRICE_RTOL * max(1.0, float(cost_s.max()))

    chosen = _smallest_per_line(cost_s - u[:, None] - v[None, :], near, np.inf)
    chosen[_staircase(np.cumsum(wa), np.cumsum(wb))] = True
    b_eq = np.concatenate([wa, wb])
    rounds = []
    while True:
        ii, jj = np.nonzero(chosen)
        k = np.arange(ii.size)
        a_eq = sp.csr_matrix(
            (np.ones(2 * k.size), (np.concatenate([ii, n + jj]), np.concatenate([k, k]))),
            shape=(n + m, k.size),
        )
        res = linprog(cost_s[ii, jj], A_eq=a_eq, b_eq=b_eq, bounds=(0, None),
                      method="highs", options=HIGHS_OPTIONS)
        if res.status != 0:
            raise CertificateError(f"transport LP failed: {res.message}")
        marg = np.asarray(res.eqlin.marginals, dtype=float)
        u_s, v_s = marg[:n], marg[n:]
        reduced = cost_s - u_s[:, None] - v_s[None, :]
        reduced[chosen] = np.inf
        violated = _smallest_per_line(reduced, batch, -threshold)
        rounds.append((ii.size, int(np.count_nonzero(violated))))
        if not rounds[-1][1]:
            break
        chosen |= violated
    return (ii, jj), res.x, u_s, v_s, rounds
