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

Programs over one polytope that differ only in the objective are solved
together: an (m, Q) stack of objectives gives an :class:`LPBatch` with one
row per objective, and a (Q,) objective a batch of one row.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

__all__ = [
    "LPError",
    "InfeasibleError",
    "LPBatch",
    "LPProblem",
    "TightenedBound",
    "dual_bound",
    "lp_minimize",
    "tighten_and_resolve",
]

_PIVOT_TOL = 1e-11
_MAX_ITERATIONS = 50_000
_ACCEPT_TOL = 1e-8    # Farkas waiver, tight-row test, degenerate multipliers


class LPError(RuntimeError):
    """Internal solver failure (iteration blow-up)."""


class InfeasibleError(LPError):
    """Empty feasible region; signals corrupted constraint data upstream."""


@dataclass(frozen=True)
class LPProblem:
    """min c^T y  s.t.  lower <= y <= upper  and  rows @ y >= rhs."""

    c: np.ndarray      # (Q,), or (m, Q) objectives over the one polytope
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
        if c.ndim not in (1, 2):
            raise ValueError("c must have shape (Q,) or (m, Q)")
        q = c.shape[-1]
        if rows.size == 0:
            rows = rows.reshape(0, q)
        if rows.ndim != 2 or rows.shape[1] != q:
            raise ValueError(f"rows must have shape (J, {q})")
        if lo.shape != (q,) or hi.shape != (q,):
            raise ValueError(f"box bounds must have shape ({q},)")
        data = {"c": c, "lower": lo, "upper": hi, "rows": rows, "rhs": rhs}
        for name, value in data.items():
            object.__setattr__(self, name, value)
        if not all(np.all(np.isfinite(v)) for v in data.values()):
            raise ValueError("all LP data must be finite")
        if np.any(lo > hi):
            raise ValueError("box lower bound exceeds upper bound")
        if rows.shape[0] != rhs.shape[0]:
            raise ValueError("rows/rhs length mismatch")

    @property
    def q(self):
        return self.c.shape[-1]

    @property
    def n_rows(self):
        return self.rhs.size


@dataclass(frozen=True)
class LPBatch:
    """Optimal vertices of LPs over one polytope, one row per objective.

    Row i holds the active set ``active[i]``: Q linearly independent rows
    of G (see the module docstring) tight at ``y[i]``, as ascending row
    indices into the G of ``n_rows`` sample rows, so a sample row is an
    index below ``n_rows``.  ``theta_mat[i]`` stacks those rows and
    ``psi[i]`` their entries of h, so theta_mat[i] @ y[i] == psi[i];
    ``z[i]`` holds the sample rows' multipliers theta_mat[i]^{-T} c_i
    (zero at box rows) and ``value[i]`` their :func:`dual_bound`.
    ``row_pivots`` counts each row's dual simplex pivots and
    ``row_degenerate`` flags more than Q tight rows; the properties
    ``pivots`` and ``degenerate`` total them.
    """

    y: np.ndarray               # (m, Q)
    value: np.ndarray           # (m,)
    active: np.ndarray          # (m, Q) int
    theta_mat: np.ndarray       # (m, Q, Q)
    psi: np.ndarray             # (m, Q)
    z: np.ndarray               # (m, Q)
    row_pivots: np.ndarray      # (m,) int
    row_degenerate: np.ndarray  # (m,) bool
    n_rows: int
    cache_hit = False           # not a field; read by the benchmark tracer

    pivots = property(lambda self: int(self.row_pivots.sum()))
    degenerate = property(lambda self: int(self.row_degenerate.sum()))

    def take(self, idx):
        """The batch of rows ``idx``."""
        return replace(self, **{f: getattr(self, f)[idx] for f in _ROW_FIELDS})


_ROW_FIELDS = tuple(f.name for f in fields(LPBatch) if f.name != "n_rows")


@dataclass(frozen=True)
class TightenedBound:
    """Result of re-solving the active-set system with bumped right-hand sides."""

    y: np.ndarray
    eta: float
    fallback: str | None = None  # why eta fell back to the LP value


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


def lp_minimize(problem, start=None):
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
    ``_ACCEPT_TOL * (1 + max|h|)``, which is accepted.  A row that holds
    with equality to within that amount is tight.  The reported active set
    is S, except where more than Q rows are tight: there the
    lexicographically smallest independent tight set is reported if its
    multipliers are at least ``-_ACCEPT_TOL * (1 + max|c|)``.  The
    reported ``y`` is solved from the reported system.

    Returns an :class:`LPBatch`.  An (m, Q) stack of objectives runs m
    such solves in lockstep, each from its row of the batch ``start``, and
    a (Q,) objective is a stack of one.
    """
    c = np.atleast_2d(problem.c)
    m, q, J = len(c), problem.q, problem.n_rows
    G = np.vstack([problem.rows, np.eye(q), -np.eye(q)])
    h = np.concatenate([problem.rhs, problem.lower, -problem.upper])
    feas_scale = 1.0 + float(np.max(np.abs(h)))
    cost_scale = 1.0 + np.abs(c).max(axis=1)
    rank = np.concatenate([q + np.arange(J), np.arange(q), np.arange(q)])
    movable = np.concatenate([np.ones(J, dtype=bool),
                              np.tile(problem.lower != problem.upper, 2)])
    top = q + J     # above every rank
    ids = np.arange(m)

    flip = c < 0.0
    S = J + np.arange(q) + q * flip
    Tinv = np.eye(q) * np.where(flip, -1.0, 1.0)[:, None, :]
    if start is not None:
        # the start's rows in this G
        a, j0 = start.active, start.n_rows
        warm = np.where(a >= j0, a + J - j0, a)
        warm_inv = np.linalg.inv(G[warm])
        wrong = ((c[:, None] @ warm_inv)[:, 0]
                 < -_PIVOT_TOL * cost_scale[:, None])
        ok = ~np.any(wrong & (warm < J), axis=1)
        wrong &= ok[:, None]
        warm[wrong] += np.where(warm[wrong] < J + q, q, -q)
        warm_inv *= np.where(wrong, -1.0, 1.0)[:, None, :]
        S = np.where(ok[:, None], warm, S)
        Tinv = np.where(ok[:, None, None], warm_inv, Tinv)

    # ranks held by S or waived as within tolerance of a Farkas row
    skip = np.zeros((m, top), dtype=bool)
    skip[ids[:, None], rank[S]] = True
    pivots = np.zeros(m, dtype=int)
    # the unfinished rows' state, written back to S, Tinv and pivots as
    # each row finishes
    live, Sl, Tl, skl, cl, pl = ids, S, Tinv, skip, c, pivots
    for _ in range(_MAX_ITERATIONS):
        slack = (Tl @ h[Sl, None])[..., 0] @ G.T - h
        bad = (slack < -1e-9 * feas_scale) & ~skl[:, rank]
        go = bad.any(axis=1)
        if not go.all():
            done = live[~go]
            S[done], Tinv[done], pivots[done] = Sl[~go], Tl[~go], pl[~go]
            live, Sl, Tl, skl, cl, pl, bad, slack = (
                x[go] for x in (live, Sl, Tl, skl, cl, pl, bad, slack))
        if live.size == 0:
            break
        g = np.where(bad, rank, top).argmin(axis=1)
        a = (G[g, None] @ Tl)[:, 0]
        cand = (a > _PIVOT_TOL) & movable[Sl]
        stuck = ~cand.any(axis=1)
        if stuck.any():
            # a Farkas certificate; the other rows pivot next round
            worst = float(np.max(-slack[stuck, g[stuck]]))
            if worst > _ACCEPT_TOL * feas_scale:
                raise InfeasibleError(
                    f"LP infeasible (row violation {worst:.3e})")
            skl[stuck, rank[g[stuck]]] = True
            continue
        ratio = np.divide(np.maximum((cl[:, None] @ Tl)[:, 0], 0.0), a,
                          out=np.full(a.shape, np.inf), where=cand)
        ties = cand & (ratio <= ratio.min(axis=1, keepdims=True) + _PIVOT_TOL)
        k = np.where(ties, rank[Sl], top).argmin(axis=1)
        at = np.arange(live.size)
        skl[at, rank[Sl[at, k]]] = False
        skl[at, rank[g]] = True
        Sl[at, k] = g
        col = Tl[at, :, k] / a[at, k, None]
        Tl -= col[:, :, None] * a[:, None, :]
        Tl[at, :, k] = col
        pl += 1
    else:
        raise LPError("simplex iteration cap exceeded")

    y = (Tinv @ h[S, None])[..., 0]
    tight = np.abs(y @ G.T - h) <= _ACCEPT_TOL * feas_scale
    tight[ids[:, None], S] = True
    degen = np.count_nonzero(tight, axis=1) > q
    chosen = np.sort(S, axis=1)
    for i in np.flatnonzero(degen):
        # at a degenerate vertex report the first independent tight set if
        # it is optimal too; S always is
        pick = _select_active(G, np.flatnonzero(tight[i]), q)
        if pick.size == q and np.all(np.linalg.solve(G[pick].T, c[i])
                                     >= -_ACCEPT_TOL * cost_scale[i]):
            chosen[i] = pick
    theta, psi = G[chosen], h[chosen]
    # not the iterate: at an ill-conditioned vertex the running inverse
    # leaves it off its own active rows
    y = np.linalg.solve(theta, psi[..., None])[..., 0]
    z = np.where(chosen < J, np.linalg.solve(np.swapaxes(theta, 1, 2),
                                             c[..., None])[..., 0], 0.0)
    value = dual_bound(c, z, theta, psi, problem.lower, problem.upper)
    return LPBatch(y=y, value=value, active=chosen, theta_mat=theta, psi=psi,
                   z=z, row_pivots=pivots, row_degenerate=degen, n_rows=J)


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


def tighten_and_resolve(solution, bumps, c):
    """Re-solve the active-set system with sample rows shifted by ``bumps``.

    ``solution`` is a one-row :class:`LPBatch`.  ``bumps`` maps sample
    index -> beta_i for every active sample constraint.  Box rows keep
    their right-hand side.  Returns the perturbed vertex and eta = c^T
    y_check: the solve-based reference for the weak-duality eta of the
    sweep.  Falls back to eta = the LP value (flagged) when the active set
    holds no sample row or cond(Theta) exceeds 1e12.
    """
    c = np.asarray(c, dtype=float)
    (y,), (value,), (active,) = solution.y, solution.value, solution.active
    (theta,), (psi,) = solution.theta_mat, solution.psi
    sample = np.flatnonzero(active < solution.n_rows)
    if sample.size == 0:
        return TightenedBound(y=y.copy(), eta=float(value), fallback="box_only")
    if np.linalg.cond(theta) > 1e12:
        return TightenedBound(y=y.copy(), eta=float(value),
                              fallback="ill_conditioned")
    psi = psi.copy()
    for k in sample:
        i = int(active[k])
        if i not in bumps:
            raise ValueError(f"missing bump for active sample constraint {i}")
        psi[k] += bumps[i]
    y_check = np.linalg.solve(theta, psi)
    return TightenedBound(y=y_check, eta=float(c @ y_check))
