"""Independent checks of eotlab's outputs.

Everything here is written with numpy and scipy from the definitions, not by
calling eotlab, so a fault in the program cannot hide itself.  Each check
returns a list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

GIBBS_TOL = 1e-6
# Rounding slack on a recomputed marginal error, far below any solver tol.
MARGINAL_SLACK = 1e-12


def sq_dist(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.sum((x[:, None, :] - y[None, :, :]) ** 2, axis=2)


def close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(1e-300, abs(a), abs(b))


def plan_marginals(plan: np.ndarray, a: np.ndarray, b: np.ndarray, tol: float, what: str) -> list[str]:
    """Relative L1 marginal errors of a plan against the input weights."""
    mass = float(a.sum())
    row = float(np.abs(plan.sum(axis=1) - a).sum()) / mass
    col = float(np.abs(plan.sum(axis=0) - b).sum()) / mass
    if max(row, col) <= tol + MARGINAL_SLACK:
        return []
    return [f"{what}: marginal errors row {row:.3e} col {col:.3e} exceed tol {tol:.0e}"]


def gibbs_identity(plan: np.ndarray, cost: np.ndarray, eps: float, rng, what: str,
                   n_samples: int = 256) -> list[str]:
    """log pi_ij + log pi_kl - log pi_il - log pi_kj = -(c_ij + c_kl - c_il - c_kj)/eps^2
    on quadruples sampled from the plan's positive entries."""
    tiny = 1e-250
    ii, jj = np.nonzero(plan > tiny)
    worst, accepted = 0.0, 0
    for _ in range(100):
        a = rng.integers(0, ii.size, size=n_samples)
        b = rng.integers(0, ii.size, size=n_samples)
        i, j, k, l = ii[a], jj[a], ii[b], jj[b]
        ok = (plan[i, l] > tiny) & (plan[k, j] > tiny)
        i, j, k, l = i[ok], j[ok], k[ok], l[ok]
        lhs = np.log(plan[i, j]) + np.log(plan[k, l]) - np.log(plan[i, l]) - np.log(plan[k, j])
        rhs = -(cost[i, j] + cost[k, l] - cost[i, l] - cost[k, j]) / eps**2
        err = np.abs(lhs - rhs) / np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
        if err.size:
            worst = max(worst, float(err.max()))
        accepted += int(ok.sum())
        if accepted >= n_samples:
            break
    if accepted < n_samples:
        return [f"{what}: only {accepted} positive quadruples found"]
    if worst > GIBBS_TOL:
        return [f"{what}: Gibbs identity error {worst:.3e} > {GIBBS_TOL:.0e}"]
    return []


def entropic_cost(plan: np.ndarray, cost: np.ndarray, a: np.ndarray, b: np.ndarray, eps: float) -> float:
    """<c, pi> + eps^2 KL(pi | a (x) b) for a plan of unit mass."""
    pos = plan > 0
    ab = np.outer(a, b)
    kl = float(np.sum(plan[pos] * np.log(plan[pos] / ab[pos])))
    return float(np.sum(cost * plan)) + eps**2 * kl


def reference_ot(a: np.ndarray, b: np.ndarray, cost: np.ndarray) -> tuple[float, list[str]]:
    """Exact transport cost from an interior-point transport LP, certified by
    primal feasibility, dual feasibility against the full cost and a zero gap."""
    n, m = cost.shape
    var = np.arange(n * m)
    rows = sp.csr_matrix((np.ones(n * m), (var // m, var)), shape=(n, n * m))
    cols = sp.csr_matrix((np.ones(n * m), (var % m, var)), shape=(m, n * m))
    res = linprog(cost.ravel(), A_eq=sp.vstack([rows, cols]), b_eq=np.concatenate([a, b]),
                  bounds=(0, None), method="highs-ipm")
    if res.status != 0:
        return float("nan"), [f"reference LP failed: {res.message}"]
    plan = res.x.reshape(n, m)
    u = np.asarray(res.eqlin.marginals[:n])
    v = np.min(cost - u[:, None], axis=0)  # c-transform: feasible by construction
    primal = float(np.sum(cost * plan))
    gap = abs(primal - float(u @ a + v @ b)) / max(1.0, abs(primal))
    problems = []
    feas = max(float(np.abs(plan.sum(axis=1) - a).max()), float(np.abs(plan.sum(axis=0) - b).max()))
    if feas > 1e-12 or plan.min() < -1e-15:
        problems.append(f"reference LP plan infeasible ({feas:.3e})")
    if float((u[:, None] + v[None, :] - cost).max()) > 1e-12:
        problems.append("reference LP duals infeasible")
    if gap > 1e-9:
        problems.append(f"reference LP duality gap {gap:.3e}")
    return primal, problems


def hash_mask(x: np.ndarray, y: np.ndarray, r: float) -> np.ndarray:
    """Pairs with |x| <= r or |y| <= r."""
    return (np.linalg.norm(x, axis=1) <= r)[:, None] | (np.linalg.norm(y, axis=1) <= r)[None, :]


def local_energy(plan, x, y, cost, r: float) -> float:
    d = x.shape[1]
    return float(np.sum((cost * plan)[hash_mask(x, y, r)])) / r ** (d + 2)


def long_trajectory(plan, x, y, cost, r: float, threshold: float) -> tuple[float, float]:
    d = x.shape[1]
    mask = hash_mask(x, y, r) & (np.sqrt(cost) >= threshold)
    return (float(np.sum((cost * plan)[mask])) / r ** (d + 2),
            float(np.sum(plan[mask])) / r**d)


def simple_fit_defects(plan, x, y, r: float) -> tuple[float, float]:
    """Defects of y ~ x + b (translation) and y ~ b (constant), each with its
    optimal b; the affine fit y ~ A x + b can do no worse than either."""
    d = x.shape[1]
    ii, jj = np.nonzero(hash_mask(x, y, r) & (plan > 0))
    w = plan[ii, jj]
    out = []
    for resid in (y[jj] - x[ii], y[jj]):
        mean = (w @ resid) / w.sum()
        out.append(float(np.sum(w * np.sum((resid - mean) ** 2, axis=1))) / r ** (d + 2))
    return out[0], out[1]


def w2_squared_1d(xs: np.ndarray, a: np.ndarray, ys: np.ndarray, b: np.ndarray) -> float:
    """Integral over t in (0, 1) of |F^{-1}(t) - G^{-1}(t)|^2 for two unit-mass
    measures on the line."""
    ox, oy = np.argsort(xs, kind="stable"), np.argsort(ys, kind="stable")
    xs, a, ys, b = xs[ox], a[ox], ys[oy], b[oy]
    fa, gb = np.cumsum(a), np.cumsum(b)
    t = np.union1d(fa, gb)
    t = t[t <= min(fa[-1], gb[-1])]
    lo = np.concatenate([[0.0], t[:-1]])
    mid = 0.5 * (lo + t)
    i = np.minimum(np.searchsorted(fa, mid), xs.size - 1)
    j = np.minimum(np.searchsorted(gb, mid), ys.size - 1)
    return float(np.sum((xs[i] - ys[j]) ** 2 * (t - lo)))


def competitor_cost(plan, x, y, r: float, lam_factor: float) -> float:
    """pi(P_R) times the quadratic cost between the normalized marginals of the
    plan restricted to the competitor region P_R (dimension 1)."""
    nx, ny = np.abs(x[:, 0]), np.abs(y[:, 0])
    lr = lam_factor * r
    mask = ((nx <= r)[:, None] & (ny <= lr)[None, :]) | ((nx <= lr)[:, None] & (ny <= r)[None, :])
    restricted = np.where(mask, plan, 0.0)
    mass = float(restricted.sum())
    return mass * w2_squared_1d(x[:, 0], restricted.sum(axis=1) / mass,
                                y[:, 0], restricted.sum(axis=0) / mass)


# ---------------------------------------------------------------------------
# Rescalings: Q1(x) = M x with M = x_matrix or A^{-1};  Q2(y) = gamma A (y - b)
# ---------------------------------------------------------------------------


def _parts(s) -> tuple[np.ndarray, np.ndarray, float, float, np.ndarray | None]:
    """(A, b, gamma, kappa, x_matrix) from a trace.json dict or a Scaling."""
    if isinstance(s, dict):
        b = np.asarray(s["b"], dtype=float)
        d = b.size
        xm = s.get("x_matrix")
        return (np.asarray(s["A"], dtype=float).reshape(d, d), b, float(s["gamma"]),
                float(s["kappa"]), None if xm is None else np.asarray(xm, float).reshape(d, d))
    return np.asarray(s.A), np.asarray(s.b), float(s.gamma), float(s.kappa), s.x_matrix


def q1(s, pts: np.ndarray) -> np.ndarray:
    a, _, _, _, xm = _parts(s)
    return pts @ xm.T if xm is not None else np.linalg.solve(a, pts.T).T


def q2(s, pts: np.ndarray) -> np.ndarray:
    a, b, gamma, _, _ = _parts(s)
    return gamma * (pts - b[None, :]) @ a.T


def cascade(radii, steps, composed, base, r0: float, theta: float, atoms_x, atoms_y) -> list[str]:
    """Radii are r0 theta^k, every step matrix has det 1, level 0 carries the
    base scaling, and each composed scaling equals its step applied after the
    previous composite on sample atoms of both sides."""
    problems = []
    for k, r in enumerate(radii):
        if not close(r, r0 * theta**k, 1e-12):
            problems.append(f"level {k}: radius {r} != R0 theta^k = {r0 * theta**k}")
    for k, s in enumerate(steps):
        if s is not None and abs(np.linalg.det(_parts(s)[0]) - 1.0) > 1e-8:
            problems.append(f"level {k}: step det A = {np.linalg.det(_parts(s)[0])}")

    def same(s, t, what):
        for q, pts in ((q1, atoms_x), (q2, atoms_y)):
            gap = float(np.abs(q(s, pts) - q(t, pts)).max())
            if gap > 1e-9 * max(1.0, float(np.abs(q(t, pts)).max())):
                problems.append(f"{what}: {q.__name__} differs by {gap:.3e}")

    same(composed[0], base, "level 0 composite vs base scaling")
    for k in range(len(composed) - 1):
        step = steps[k]
        if step is None:
            problems.append(f"level {k}: no step scaling before level {k + 1}")
            continue
        for q, pts in ((q1, atoms_x), (q2, atoms_y)):
            direct = q(step, q(composed[k], pts))
            gap = float(np.abs(q(composed[k + 1], pts) - direct).max())
            if gap > 1e-9 * max(1.0, float(np.abs(direct).max())):
                problems.append(f"level {k + 1}: composite {q.__name__} push-forward off by {gap:.3e}")
        kappa = _parts(step)[3] * _parts(composed[k])[3]
        if not close(_parts(composed[k + 1])[3], kappa, 1e-12):
            problems.append(f"level {k + 1}: composite kappa is not the product")
    return problems
