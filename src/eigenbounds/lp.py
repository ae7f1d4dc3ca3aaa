"""Dense linear programs with box constraints and an exposed active set.

The programs solved here are tiny but structured: minimize c^T y over a box
intersected with J half-spaces a_i^T y >= b_i.  Every constraint is one row
of ``G y >= h`` with

    G = [rows; I; -I],    h = [rhs; lower; -upper],

so rows 0..J-1 are the sample rows, the next Q the lower and the last Q the
upper box bounds.  A bounded-variable primal simplex (Bland's rule, two
phases) finds the optimum; the basis bookkeeping then yields Q linearly
independent rows of G tight at the vertex, reported as an invertible Q x Q
system (Theta, psi) = (G[S], h[S]) whose multipliers ``Theta^{-T} c`` are
nonnegative.  That system is what the gap-tightening step perturbs and
re-solves.

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
    """Internal solver failure (unbounded ray, iteration blow-up)."""


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


def lp_minimize(problem, tol=1e-8):
    """Solve the LP and report the optimal active-constraint system."""
    q, J = problem.q, problem.n_rows
    G = np.vstack([problem.rows, np.eye(q), -np.eye(q)])
    h = np.concatenate([problem.rhs, problem.lower, -problem.upper])
    feas_scale = 1.0 + float(np.max(np.abs(h)))

    # Variables: y (box bounds), s (slacks >= 0), artificials on violated rows.
    y0 = np.where(problem.c >= 0.0, problem.lower, problem.upper)
    s0 = problem.rows @ y0 - problem.rhs
    is_violated = s0 < -tol * feas_scale
    violated = np.flatnonzero(is_violated)
    n_art = len(violated)
    nvar = q + J + n_art

    E = np.zeros((J, nvar))
    E[:, :q] = problem.rows
    E[np.arange(J), q + np.arange(J)] = -1.0
    E[violated, q + J + np.arange(n_art)] = 1.0

    lb = np.concatenate([problem.lower, np.zeros(J), np.zeros(n_art)])
    ub = np.concatenate([problem.upper, np.full(J, np.inf), np.full(n_art, np.inf)])

    status = np.zeros(nvar, dtype=np.int8)  # 0 at lower, 1 at upper, 2 basic
    status[:q] = np.where(problem.c >= 0.0, 0, 1)
    basis = np.empty(J, dtype=np.int64)
    ok = np.flatnonzero(~is_violated)
    basis[ok] = q + ok
    basis[violated] = q + J + np.arange(n_art)
    status[basis] = 2

    Binv = np.eye(J)
    Binv[ok, ok] = -1.0  # slack columns are -e_i

    c_phase1 = np.zeros(nvar)
    c_phase1[q + J:] = 1.0
    c_phase2 = np.zeros(nvar)
    c_phase2[:q] = problem.c

    cost_scale = 1.0 + float(np.max(np.abs(problem.c)))

    def basic_values():
        xN = np.where(status == 1, np.where(np.isfinite(ub), ub, 0.0), lb)
        xN[basis] = 0.0
        return Binv @ (problem.rhs - E @ xN)

    def pivot(pos, e, w, to_upper=False):
        """Variable ``e`` (with column ``w = Binv E[:, e]``) enters the basis
        at position ``pos``; the variable there leaves to a bound."""
        nonlocal Binv
        status[basis[pos]] = 1 if to_upper else 0
        status[e] = 2
        basis[pos] = e
        piv_row = Binv[pos] / w[pos]
        Binv -= np.outer(w, piv_row)
        Binv[pos] = piv_row

    def run_simplex(cost, opt_tol):
        for _ in range(_MAX_ITERATIONS):
            xB = basic_values()
            dual = Binv.T @ cost[basis]
            red = cost - E.T @ dual
            movable = (ub - lb) > 0
            cand_lo = (status == 0) & movable & (red < -opt_tol)
            cand_hi = (status == 1) & movable & (red > opt_tol)
            cand = np.where(cand_lo | cand_hi)[0]
            if cand.size == 0:
                return
            e = int(cand[0])  # Bland: smallest index
            sigma = 1.0 if status[e] == 0 else -1.0
            w = Binv @ E[:, e]

            sw = sigma * w
            v_lb = lb[basis]
            v_ub = ub[basis]
            deltas = np.full(J, np.inf)
            dec = sw > _PIVOT_TOL
            inc = (sw < -_PIVOT_TOL) & np.isfinite(v_ub)
            deltas[dec] = (xB[dec] - v_lb[dec]) / sw[dec]
            deltas[inc] = (v_ub[inc] - xB[inc]) / (-sw[inc])
            np.maximum(deltas, 0.0, out=deltas)
            dmin = deltas.min()
            flip_delta = ub[e] - lb[e]
            if not np.isfinite(dmin) and not np.isfinite(flip_delta):
                raise LPError("LP is unbounded; box constraints are corrupted")
            if flip_delta <= dmin + _PIVOT_TOL:
                status[e] = 1 - status[e]  # bound flip
                continue
            ties = np.where(deltas <= dmin + _PIVOT_TOL)[0]
            leave_pos = int(ties[np.argmin(basis[ties])])  # Bland tie-break
            pivot(leave_pos, e, w, to_upper=not dec[leave_pos])
        raise LPError("simplex iteration cap exceeded")

    if n_art:
        run_simplex(c_phase1, tol * cost_scale)
        art = basis >= q + J
        art_total = float(np.sum(np.maximum(basic_values()[art], 0.0)))
        if art_total > tol * feas_scale * max(1.0, n_art):
            raise InfeasibleError(
                f"LP infeasible (phase-1 objective {art_total:.3e})")
        # an artificial still basic sits at 0: its row's slack replaces it,
        # so that exactly Q rows of G are nonbasic
        for pos in np.flatnonzero(art):
            s = q + violated[basis[pos] - q - J]
            pivot(pos, s, Binv @ E[:, s])
        ub[q + J:] = 0.0  # pin artificials; they never enter again
    run_simplex(c_phase2, tol * cost_scale)

    xB = basic_values()
    x = np.where(status == 1, np.where(np.isfinite(ub), ub, 0.0), lb)
    x[basis] = xB
    y = x[:q].copy()

    # the rows of G whose slack or variable the final basis holds at 0 or a bound
    nonbasic = np.flatnonzero(np.concatenate(
        [status[q:q + J] != 2, status[:q] == 0, status[:q] == 1]))
    chosen, degen = _select_active(G, h, y, nonbasic, feas_scale,
                                   max(tol, 1e-9))
    if degen and first_certified_vertex(
            problem.c, np.linalg.inv(G[chosen].T)[None], tol)[0] < 0:
        # at a degenerate vertex the first independent tight set need not
        # be optimal; the nonbasic set is: its multipliers are the phase-2
        # reduced costs
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
                      degenerate=degen, all_box=bool(np.all(chosen >= J)))


def first_certified_vertex(c, inv_t, tol=1e-8):
    """Index of the first vertex certified optimal for each objective.

    ``c`` (m, Q) stacks objectives.  Vertex k is a feasible vertex of the
    shared polytope ``G y >= h`` whose active system ``Theta_k`` holds Q
    rows of G: ``inv_t[k]`` is ``Theta_k^{-T}``.  The vertex is optimal for
    ``c`` when the multipliers ``z = Theta_k^{-T} c`` satisfy
    ``z >= -slack`` with ``slack = tol * (1 + max|c|)``, the reduced-cost
    slack of :func:`lp_minimize`'s phase 2.  Returns an (m,) integer array
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
