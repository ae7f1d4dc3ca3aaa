"""Dense linear programs with box constraints and an exposed active set.

The programs solved here are tiny but structured: minimize c^T y over a box
intersected with J half-spaces a_i^T y >= b_i.  Every constraint is one row
of ``G y >= h`` with

    G = [rows; I; -I],    h = [rhs; lower; -upper],

so rows 0..J-1 are the sample rows, the next Q the lower and the last Q the
upper box bounds.  Each vertex is Q linearly independent rows of G tight
there, and the solver works in that form: a dual simplex (dual Bland rule)
on the active set, holding the Q rows and the inverse of their Q x Q
system, from the box corner the costs pick or from the active set of an
earlier solve over fewer rows.  The optimum is reported as that system,
(Theta, psi) = (G[S], h[S]), with multipliers ``Theta^{-T} c >= 0`` whose
weak-duality bound (:func:`dual_bound`) is the reported value.

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
    "dual_bound",
    "first_certified_vertex",
    "lp_minimize",
    "tighten_and_resolve",
]

_PIVOT_TOL = 1e-11
_MAX_ITERATIONS = 50_000


class LPError(RuntimeError):
    """Internal solver failure (iteration blow-up)."""


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
    theta_mat @ y == psi; ``z`` holds the sample rows' multipliers
    theta_mat^{-T} c (zero at box rows) and ``value`` their
    :func:`dual_bound`.  ``active`` tags the rows in G's order: ('sample',
    i), ('lower', q) or ('upper', q), an upper row being -e_q with
    right-hand side -upper[q].  ``degenerate`` flags more than Q tight
    rows, and ``all_box`` an active set without a sample row.
    """

    y: np.ndarray
    value: float
    active: tuple
    theta_mat: np.ndarray
    psi: np.ndarray
    z: np.ndarray
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
    fallback: str | None = None  # why eta fell back to the LP value


def _tag(g, j, q):
    """The ('sample' | 'lower' | 'upper', index) tag of row ``g`` of G."""
    if g < j:
        return ("sample", g)
    return ("lower", g - j) if g < j + q else ("upper", g - j - q)


def _select_active(G, candidates, q):
    """The lexicographically smallest independent set among ``candidates``.

    Gram-Schmidt, in index order, keeps each candidate row of G that is
    independent of those kept before it, until Q are kept.  Returns their
    row indices, fewer than Q if the candidates do not span.
    """
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
    return np.array(chosen)


def lp_minimize(problem, tol=1e-8, start=None):
    """Solve the LP and report the optimal active-constraint system.

    A dual simplex on the active set: the state is Q rows S of G, taken as
    equalities, and ``Theta^{-1} = inv(G[S])``, so the iterate is
    ``y = Theta^{-1} h[S]`` and the multipliers are ``z = c^T Theta^{-1}``.
    Every z_k stays nonnegative (dual feasible).  The start is the box
    corner the signs of c pick, or with ``start`` the active set of an
    earlier solution over the same box and a prefix of these rows; a box
    row of that start with a negative multiplier moves to its coordinate's
    other end, and a sample row with one sends the solve back to the box
    corner.  Each pivot brings in the violated row g of lowest dual Bland
    rank (coordinate q's box rows rank q, sample row i ranks Q + i) and
    drops the position k with the least ``max(z_k, 0) / a_k`` over
    ``a = G[g] Theta^{-1}``, ``a_k > 0``, ties to the lowest rank; a box
    row of a fixed coordinate (lower == upper) never leaves.  The loop
    stops once no row is violated by more than ``1e-9 * (1 + max|h|)``;
    the value is :func:`dual_bound` of the final multipliers.  A violated
    row with no leaving candidate proves the polytope empty: it raises
    :class:`InfeasibleError` unless its violation is within
    ``tol * (1 + max|h|)``, which is accepted.  The reported active set is
    S, except where more than Q rows are tight: there the lexicographically
    smallest independent tight set is reported if its multipliers certify
    the vertex.
    """
    q, J = problem.q, problem.n_rows
    G = np.vstack([problem.rows, np.eye(q), -np.eye(q)])
    h = np.concatenate([problem.rhs, problem.lower, -problem.upper])
    feas_scale = 1.0 + float(np.max(np.abs(h)))
    cost_scale = 1.0 + float(np.max(np.abs(problem.c)))
    rank = np.concatenate([q + np.arange(J), np.arange(q), np.arange(q)])
    fixed = np.concatenate([np.zeros(J, dtype=bool),
                            np.tile(problem.lower == problem.upper, 2)])

    flip = problem.c < 0.0
    S = J + np.arange(q) + q * flip
    Tinv = np.diag(np.where(flip, -1.0, 1.0))
    if start is not None:
        offset = {"sample": 0, "lower": J, "upper": J + q}
        warm = np.array([offset[kind] + k for kind, k in start.active])
        warm_inv = np.linalg.inv(G[warm])
        wrong = problem.c @ warm_inv < -_PIVOT_TOL * cost_scale
        if not np.any(wrong & (warm < J)):
            warm[wrong] += np.where(warm[wrong] < J + q, q, -q)
            warm_inv[:, wrong] *= -1.0
            S, Tinv = warm, warm_inv

    # ranks held by S or waived as within tolerance of a Farkas row
    skip = np.zeros(q + J, dtype=bool)
    skip[rank[S]] = True
    pivots = 0
    for _ in range(_MAX_ITERATIONS):
        y = Tinv @ h[S]
        slack = G @ y - h
        bad = np.flatnonzero((slack < -1e-9 * feas_scale) & ~skip[rank])
        if bad.size == 0:
            break
        g = bad[np.argmin(rank[bad])]
        a = G[g] @ Tinv
        cand = np.flatnonzero((a > _PIVOT_TOL) & ~fixed[S])
        if cand.size == 0:
            # no active row can relax toward row g: it is a Farkas certificate
            if -slack[g] > tol * feas_scale:
                raise InfeasibleError(
                    f"LP infeasible (row violation {-slack[g]:.3e})")
            skip[rank[g]] = True
            continue
        ratio = np.maximum(problem.c @ Tinv[:, cand], 0.0) / a[cand]
        ties = cand[ratio <= ratio.min() + _PIVOT_TOL]
        k = ties[np.argmin(rank[S[ties]])]
        skip[rank[S[k]]] = False
        skip[rank[g]] = True
        S[k] = g
        col = Tinv[:, k] / a[k]
        Tinv -= np.outer(col, a)
        Tinv[:, k] = col
        pivots += 1
    else:
        raise LPError("simplex iteration cap exceeded")

    chosen = np.sort(S)
    tight = np.abs(slack) <= max(tol, 1e-9) * feas_scale
    tight[S] = True
    degen = bool(np.count_nonzero(tight) > q)
    if degen:
        # at a degenerate vertex report the first independent tight set if
        # it is optimal too; S always is
        pick = _select_active(G, np.flatnonzero(tight), q)
        if pick.size == q and first_certified_vertex(
                problem.c, np.linalg.inv(G[pick].T)[None], tol)[0][0] >= 0:
            chosen = pick
    theta, psi = G[chosen], h[chosen]
    z = np.where(chosen < J, np.linalg.solve(theta.T, problem.c), 0.0)
    value = float(dual_bound(problem.c, z, theta, psi, problem.lower,
                             problem.upper))
    return LPSolution(y=y, value=value,
                      active=tuple(_tag(g, J, q) for g in chosen.tolist()),
                      theta_mat=theta, psi=psi, z=z, degenerate=degen,
                      all_box=bool(np.all(chosen >= J)), pivots=pivots)


def dual_bound(c, z, rows, rhs, lower, upper):
    """Weak-duality lower bound on ``min c^T y`` over the LP's polytope.

    ``z`` (..., k) are multipliers of rows ``rows @ y >= rhs`` (..., k, Q)
    (a zero drops a row); leading axes broadcast.  For z+ = max(z, 0) and
    ``r = c - rows^T z+``, any feasible y has ``c^T y = z+ . rows y + r . y
    >= rhs . z+ + sum_q min(r_q lower_q, r_q upper_q)``, whatever z is
    (Neumaier & Shcherbina, Math. Program. 99, 2004).  A multiplier that is
    zero in exact arithmetic comes out of a solve as noise of either sign,
    which the box's width magnifies in r, so this returns the larger of the
    bounds at z+ and at z+ with entries below _PIVOT_TOL * (1 + max|c|)
    zeroed.
    """
    z = np.maximum(z, 0.0)
    zero = _PIVOT_TOL * (1.0 + np.abs(c).max(axis=-1, keepdims=True))
    z = np.array([z, np.where(z > zero, z, 0.0)])
    r = c - (z[..., None, :] @ rows)[..., 0, :]
    return ((z * rhs).sum(axis=-1)
            + np.minimum(r * lower, r * upper).sum(axis=-1)).max(axis=0)


def first_certified_vertex(c, inv_t, tol=1e-8):
    """The first vertex certified optimal for each objective, and the
    objective's multipliers there.

    ``c`` (m, Q) stacks objectives.  Vertex k is a feasible vertex of the
    shared polytope ``G y >= h`` whose active system ``Theta_k`` holds Q
    rows of G: ``inv_t[k]`` is ``Theta_k^{-T}``.  The vertex is optimal for
    ``c`` when the multipliers ``z = Theta_k^{-T} c`` satisfy
    ``z >= -slack`` with ``slack = tol * (1 + max|c|)``, an allowance for
    the roundoff in z.  Returns the smallest passing k per objective (-1
    where none passes) and the (m, Q) multipliers there.
    """
    c = np.atleast_2d(np.asarray(c, dtype=float))
    if len(inv_t) == 0:
        return np.full(len(c), -1, dtype=np.int64), np.zeros_like(c)
    z = np.einsum("kqr,ir->ikq", inv_t, c)
    slack = tol * (1.0 + np.max(np.abs(c), axis=1))
    ok = np.all(z >= -slack[:, None, None], axis=2)
    hit = np.where(ok.any(axis=1), ok.argmax(axis=1), -1)
    return hit, z[np.arange(len(c)), hit]


def tighten_and_resolve(solution, bumps, c):
    """Re-solve the active-set system with sample rows shifted by ``bumps``.

    ``bumps`` maps sample index -> beta_i for every active sample constraint.
    Box rows keep their right-hand side.  Returns the perturbed vertex and
    eta = c^T y_check: the solve-based reference for the weak-duality eta
    of the sweep.  Falls back to eta = solution.value (flagged) when the
    active set is all-box or cond(Theta) exceeds 1e12.
    """
    c = np.asarray(c, dtype=float)
    if solution.all_box:
        return TightenedBound(y=solution.y.copy(), eta=solution.value,
                              fallback="all_box")
    if np.linalg.cond(solution.theta_mat) > 1e12:
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
