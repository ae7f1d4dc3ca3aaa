"""Dense linear programs with box constraints and an exposed active set.

The programs solved here are tiny but structured: minimize c^T y over a box
intersected with J half-spaces a_i^T y >= b_i.  Every constraint is one row
of ``G y >= h`` with

    G = [rows; I; -I],    h = [rhs; lower; -upper],

so rows 0..J-1 are the sample rows, the next Q the lower and the last Q the
upper box bounds.  A bounded-variable dual simplex (dual Bland rule) finds
the optimum from the box corner the costs pick, or from the optimal basis
of an earlier solve over fewer rows; the basis bookkeeping then yields Q
linearly independent rows of G tight at the vertex, reported as an
invertible Q x Q system (Theta, psi) = (G[S], h[S]) whose multipliers
``Theta^{-T} c`` are nonnegative.  That system is what the gap-tightening
step perturbs and re-solves.

Programs that share one polytope and differ only in the objective need not
all be solved: :func:`first_certified_vertex` tests, for many objectives at
once, which known optimal vertices stay optimal (nonnegative multipliers,
the critical regions of parametric LP).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "LPError",
    "InfeasibleError",
    "LPProblem",
    "LPSolution",
    "TightenedBound",
    "first_certified_vertex",
    "lp_minimize",
    "tighten_and_resolve",
]

_PIVOT_TOL = 1e-11
_MAX_ITERATIONS = 50_000
_CONDITION_CAP = 1e12


class LPError(RuntimeError):
    """Internal solver failure (iteration blow-up, rank-deficient vertex)."""


class InfeasibleError(LPError):
    """Empty feasible region; signals corrupted constraint data upstream."""


@dataclass(frozen=True)
class LPProblem:
    """min c^T y  s.t.  lower <= y <= upper  and  rows @ y >= rhs."""

    c: np.ndarray      # (Q,)
    lower: np.ndarray  # (Q,)
    upper: np.ndarray  # (Q,)
    rows: np.ndarray   # (J, Q)
    rhs: np.ndarray    # (J,)

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float)
        lo = np.asarray(self.lower, dtype=float)
        hi = np.asarray(self.upper, dtype=float)
        rows = np.asarray(self.rows, dtype=float)
        rhs = np.asarray(self.rhs, dtype=float).reshape(-1)
        if rows.size == 0:
            rows = rows.reshape(0, c.size)
        if rows.ndim != 2 or rows.shape[1] != c.size:
            raise ValueError(f"rows must have shape (J, {c.size})")
        if lo.shape != (c.size,) or hi.shape != (c.size,):
            raise ValueError(f"box bounds must have shape ({c.size},)")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "rhs", rhs)
        if not (np.all(np.isfinite(c)) and np.all(np.isfinite(lo))
                and np.all(np.isfinite(hi)) and np.all(np.isfinite(rows))
                and np.all(np.isfinite(rhs))):
            raise ValueError("all LP data must be finite")
        if np.any(lo > hi):
            raise ValueError("box lower bound exceeds upper bound")
        if rows.shape[0] != rhs.shape[0]:
            raise ValueError("rows/rhs length mismatch")

    @property
    def q(self):
        return self.c.size

    @property
    def n_rows(self):
        return self.rhs.size


@dataclass(frozen=True)
class LPSolution:
    """Optimal vertex with its active-constraint system.

    ``theta_mat`` stacks Q linearly independent rows of G (see the module
    docstring) tight at ``y`` and ``psi`` their entries of h, so
    theta_mat @ y == psi, and the multipliers theta_mat^{-T} c are
    nonnegative.  ``active`` tags the rows in G's order: ('sample', i),
    ('lower', q) or ('upper', q), an upper row being -e_q with right-hand
    side -upper[q].  ``degenerate`` flags more than Q tight rows, and
    ``all_box`` an active set without a sample row.
    """

    y: np.ndarray
    value: float
    active: tuple
    theta_mat: np.ndarray
    psi: np.ndarray
    condition: float
    degenerate: bool
    all_box: bool
    cache_hit: bool = False     # always False; read by the benchmark tracer
    pivots: int = 0             # dual simplex pivots of the solve

    def sample_indices(self):
        return [tag[1] for tag in self.active if tag[0] == "sample"]


@dataclass(frozen=True)
class TightenedBound:
    """Result of re-solving the active-set system with bumped right-hand sides."""

    y: np.ndarray
    eta: float
    fallback: str | None = None  # None, 'all_box' or 'ill_conditioned'


def _tag(g, j, q):
    """The ('sample' | 'lower' | 'upper', index) tag of row ``g`` of G."""
    if g < j:
        return ("sample", g)
    return ("lower", g - j) if g < j + q else ("upper", g - j - q)


def _select_active(G, h, y, nonbasic, feas_scale, tol):
    """Pick Q linearly independent rows of G tight at ``y``.

    Candidates are the rows tight at ``y`` plus the final basis's nonbasic
    rows (always independent), in index order; Gram-Schmidt keeps each
    candidate independent of those before it, which yields the
    lexicographically smallest independent active set.  Returns its row
    indices and whether more than Q rows were candidates.
    """
    q = G.shape[1]
    tight = np.abs(G @ y - h) <= tol * feas_scale
    tight[nonbasic] = True
    candidates = np.flatnonzero(tight)
    chosen = []
    ortho = []
    for g in candidates:
        v = G[g].copy()
        for u in ortho:
            v -= u * (u @ v)
        for u in ortho:
            v -= u * (u @ v)
        nrm = np.linalg.norm(v)
        if nrm > 1e-9 * max(np.linalg.norm(G[g]), 1.0):
            ortho.append(v / nrm)
            chosen.append(g)
            if len(chosen) == q:
                break
    if len(chosen) < q:
        raise LPError("active set has deficient rank; vertex is corrupted")
    return np.array(chosen), candidates.size > q


def lp_minimize(problem, tol=1e-8, start=None):
    """Solve the LP and report the optimal active-constraint system.

    The variables are y and the row slacks s = rows @ y - rhs >= 0.  A
    bounded-variable dual simplex starts from a dual-feasible basis: by
    default the slacks, with every y_q at the box end its cost favours
    (the box-only optimum); with ``start``, the basis of an earlier
    solution over the same box and a prefix of these rows whose active set
    is optimal for this objective (its Q active rows nonbasic, every other
    slack basic, so a newly added row's slack is the infeasible one).  A
    nonbasic y_q of that start whose reduced cost has the wrong sign moves
    to its other box end; a start with a wrong-signed sample-row multiplier
    is dropped for the default.  Each pivot takes the lowest-index
    infeasible basic variable to its violated bound, by the ratio test
    that keeps every reduced cost's sign (ties to the lowest index, which
    terminates).  The loop stops once every basic variable is within
    ``1e-9 * (1 + max|h|)`` of its bounds.  The basis is dual feasible
    throughout, so stopping short of primal feasibility could only report
    a value at or below the LP minimum, never above it.  An infeasible row
    with no entering candidate proves the polytope empty: it raises
    :class:`InfeasibleError` unless its violation is within
    ``tol * (1 + max|h|)``, which is accepted.
    """
    q, J = problem.q, problem.n_rows
    G = np.vstack([problem.rows, np.eye(q), -np.eye(q)])
    h = np.concatenate([problem.rhs, problem.lower, -problem.upper])
    feas_scale = 1.0 + float(np.max(np.abs(h)))
    cost_scale = 1.0 + float(np.max(np.abs(problem.c)))

    # x = (y, s) with E x = rhs; slacks have no upper bound
    E = np.hstack([problem.rows, -np.eye(J)])
    lb = np.concatenate([problem.lower, np.zeros(J)])
    ub = np.concatenate([problem.upper, np.full(J, np.inf)])
    cost = np.concatenate([problem.c, np.zeros(J)])

    def reduced_costs(basis, Binv):
        return cost - E.T @ (Binv.T @ cost[basis])

    status = np.full(q + J, 2, dtype=np.int8)  # 0 at lower, 1 upper, 2 basic
    status[:q] = problem.c < 0.0
    basis = q + np.arange(J)
    Binv = -np.eye(J)
    if start is not None:
        warm = np.full(q + J, 2, dtype=np.int8)
        for kind, k in start.active:
            warm[q + k if kind == "sample" else k] = kind == "upper"
        warm_basis = np.flatnonzero(warm == 2)
        warm_Binv = np.linalg.inv(E[:, warm_basis])
        d = reduced_costs(warm_basis, warm_Binv)
        wrong = (warm != 2) & (np.where(warm == 1, -d, d)
                               < -_PIVOT_TOL * cost_scale)
        if not wrong[q:].any():
            warm[:q][wrong[:q]] ^= 1
            status, basis, Binv = warm, warm_basis, warm_Binv

    waived = np.zeros(q + J, dtype=bool)
    pivots = 0
    for _ in range(_MAX_ITERATIONS):
        x = np.where(status == 1, ub, lb)
        x[basis] = 0.0
        xB = Binv @ (problem.rhs - E @ x)
        x[basis] = xB
        viol = np.maximum(lb[basis] - xB, xB - ub[basis])
        bad = np.flatnonzero((viol > 1e-9 * feas_scale) & ~waived[basis])
        if bad.size == 0:
            break
        r = bad[np.argmin(basis[bad])]  # dual Bland: lowest index leaves
        below = xB[r] < lb[basis[r]]
        alpha = Binv[r] @ E
        # moving a nonbasic x_j off its bound shifts x_r by -alpha_j per unit
        step = np.where(status == 0, 1.0, -1.0) * (-alpha if below else alpha)
        cand = np.flatnonzero((status != 2) & (ub > lb) & (step > _PIVOT_TOL))
        if cand.size == 0:
            # x_r cannot move toward its bound: row r is a Farkas certificate
            if viol[r] > tol * feas_scale:
                raise InfeasibleError(
                    f"LP infeasible (row violation {viol[r]:.3e})")
            waived[basis[r]] = True
            continue
        d = reduced_costs(basis, Binv)[cand]
        ratio = np.maximum(np.where(status[cand] == 1, -d, d), 0.0) \
            / np.abs(alpha[cand])
        e = int(cand[np.flatnonzero(ratio <= ratio.min() + _PIVOT_TOL)[0]])
        w = Binv @ E[:, e]
        status[basis[r]] = 0 if below else 1
        status[e] = 2
        basis[r] = e
        piv_row = Binv[r] / w[r]
        Binv -= np.outer(w, piv_row)
        Binv[r] = piv_row
        pivots += 1
    else:
        raise LPError("simplex iteration cap exceeded")
    y = x[:q].copy()

    # the rows of G whose slack or variable the final basis holds at 0 or a bound
    nonbasic = np.flatnonzero(np.concatenate(
        [status[q:] != 2, status[:q] == 0, status[:q] == 1]))
    chosen, degen = _select_active(G, h, y, nonbasic, feas_scale,
                                   max(tol, 1e-9))
    if degen and first_certified_vertex(
            problem.c, np.linalg.inv(G[chosen].T)[None], tol)[0] < 0:
        # at a degenerate vertex the first independent tight set need not
        # be optimal; the nonbasic set is: its multipliers are the final
        # basis's reduced costs, which the dual simplex keeps nonnegative
        chosen = nonbasic
    theta, psi = G[chosen], h[chosen]

    condition = float(np.linalg.cond(theta))
    # polish the vertex through the active-set system; keep the simplex
    # iterate if the refined point leaves the feasible region
    y_ref = np.linalg.solve(theta, psi)
    if np.all(G @ y_ref >= h - 1e-9 * feas_scale):
        y = y_ref
    value = float(problem.c @ y)
    return LPSolution(y=y, value=value,
                      active=tuple(_tag(g, J, q) for g in chosen.tolist()),
                      theta_mat=theta, psi=psi, condition=condition,
                      degenerate=degen, all_box=bool(np.all(chosen >= J)),
                      pivots=pivots)


def first_certified_vertex(c, inv_t, tol=1e-8):
    """Index of the first vertex certified optimal for each objective.

    ``c`` (m, Q) stacks objectives.  Vertex k is a feasible vertex of the
    shared polytope ``G y >= h`` whose active system ``Theta_k`` holds Q
    rows of G: ``inv_t[k]`` is ``Theta_k^{-T}``.  The vertex is optimal for
    ``c`` when the multipliers ``z = Theta_k^{-T} c`` satisfy
    ``z >= -slack`` with ``slack = tol * (1 + max|c|)``, an allowance for
    the roundoff in z.  Returns an (m,) integer array
    holding the smallest passing k, or -1 where no vertex passes.
    """
    c = np.atleast_2d(np.asarray(c, dtype=float))
    if len(inv_t) == 0:
        return np.full(len(c), -1, dtype=np.int64)
    z = np.einsum("kqr,ir->ikq", inv_t, c)
    slack = tol * (1.0 + np.max(np.abs(c), axis=1))
    ok = np.all(z >= -slack[:, None, None], axis=2)
    return np.where(ok.any(axis=1), ok.argmax(axis=1), -1)


def tighten_and_resolve(solution, bumps, c):
    """Re-solve the active-set system with sample rows shifted by ``bumps``.

    ``bumps`` maps sample index -> beta_i for every active sample constraint.
    Box rows keep their right-hand side.  Returns the perturbed vertex and
    eta = c^T y_check.  Falls back to eta = solution.value (flagged) when the
    active set is all-box or Theta is numerically singular.
    """
    c = np.asarray(c, dtype=float)
    if solution.all_box:
        return TightenedBound(y=solution.y.copy(), eta=solution.value,
                              fallback="all_box")
    if solution.condition > _CONDITION_CAP:
        return TightenedBound(y=solution.y.copy(), eta=solution.value,
                              fallback="ill_conditioned")
    psi = solution.psi.copy()
    for k, tag in enumerate(solution.active):
        if tag[0] == "sample":
            i = tag[1]
            if i not in bumps:
                raise ValueError(f"missing bump for active sample constraint {i}")
            psi[k] += bumps[i]
    y_check = np.linalg.solve(solution.theta_mat, psi)
    return TightenedBound(y=y_check, eta=float(c @ y_check))
