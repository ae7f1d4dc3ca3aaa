"""Dense linear programs with box constraints and an exposed active set.

The programs solved here are tiny but structured: minimize c^T y over a box
intersected with J half-spaces a_i^T y >= b_i.  A bounded-variable primal
simplex (Bland's rule, two phases) finds the optimum; the basis bookkeeping
then yields exactly Q linearly independent active constraints, reported as
an invertible Q x Q system (Theta, psi) with per-row provenance.  That
system is what the gap-tightening step perturbs and re-solves.

Programs that share one polytope and differ only in the objective need not
all be solved: :func:`first_certified_vertex` tests, for many objectives at
once, which known optimal vertices stay optimal (the sign test on the
multipliers ``Theta^{-T} c``, the critical regions of parametric LP).
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
        rows = np.asarray(self.rows, dtype=float).reshape(-1, c.size)
        rhs = np.asarray(self.rhs, dtype=float).reshape(-1)
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

    ``active`` holds Q tags, each ('sample', i), ('lower', q) or
    ('upper', q); ``theta_mat`` stacks the corresponding constraint rows and
    ``psi`` their right-hand sides, so theta_mat @ y == psi at the vertex.
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


def _tag_row(tag, problem):
    kind, idx = tag
    if kind == "sample":
        return problem.rows[idx], problem.rhs[idx]
    e = np.zeros(problem.q)
    e[idx] = 1.0
    return e, (problem.lower[idx] if kind == "lower" else problem.upper[idx])


def _select_active(problem, y, basis_tags, feas_scale, tol):
    """Pick Q linearly independent tight constraints.

    Candidates are all constraints tight at ``y`` plus the basis-derived set
    (always independent); selection is greedy in tag order, which yields the
    lexicographically smallest independent active set.
    """
    q = problem.q
    tight = []
    resid = problem.rows @ y - problem.rhs if problem.n_rows else np.zeros(0)
    for i in range(problem.n_rows):
        if abs(resid[i]) <= tol * feas_scale:
            tight.append(("sample", i))
    for k in range(q):
        if abs(y[k] - problem.lower[k]) <= tol * feas_scale:
            tight.append(("lower", k))
        if abs(problem.upper[k] - y[k]) <= tol * feas_scale:
            tight.append(("upper", k))
    candidates = sorted(set(tight) | set(basis_tags),
                        key=lambda t: ({"sample": 0, "lower": 1, "upper": 2}[t[0]], t[1]))
    degenerate = len(candidates) > q

    chosen = []
    ortho = []
    for tag in candidates:
        row, _ = _tag_row(tag, problem)
        v = row.astype(float).copy()
        for u in ortho:
            v -= u * (u @ v)
        for u in ortho:
            v -= u * (u @ v)
        nrm = np.linalg.norm(v)
        if nrm > 1e-9 * max(np.linalg.norm(row), 1.0):
            ortho.append(v / nrm)
            chosen.append(tag)
            if len(chosen) == q:
                break
    if len(chosen) < q:
        raise LPError("active set has deficient rank; vertex is corrupted")
    theta = np.vstack([_tag_row(t, problem)[0] for t in chosen])
    psi = np.array([_tag_row(t, problem)[1] for t in chosen])
    return tuple(chosen), theta, psi, degenerate


def _box_only_solution(problem, tol):
    y = np.where(problem.c >= 0.0, problem.lower, problem.upper)
    tags = tuple(("lower", k) if problem.c[k] >= 0.0 else ("upper", k)
                 for k in range(problem.q))
    feas_scale = 1.0 + max(np.max(np.abs(problem.lower)),
                           np.max(np.abs(problem.upper)), 0.0)
    tags, theta, psi, degen = _select_active(problem, y, tags, feas_scale, tol)
    return LPSolution(y=y, value=float(problem.c @ y), active=tags,
                      theta_mat=theta, psi=psi,
                      condition=float(np.linalg.cond(theta)),
                      degenerate=degen, all_box=True)


def _feasible(problem, y, tol, feas_scale):
    if y.shape != (problem.q,):
        return False
    if np.any(y < problem.lower - tol * feas_scale):
        return False
    if np.any(y > problem.upper + tol * feas_scale):
        return False
    if problem.n_rows and np.any(problem.rows @ y < problem.rhs - tol * feas_scale):
        return False
    return True


def lp_minimize(problem, tol=1e-8):
    """Solve the LP and report the optimal active-constraint system."""
    q = problem.q
    feas_scale = 1.0 + max(
        float(np.max(np.abs(problem.rhs))) if problem.n_rows else 0.0,
        float(np.max(np.abs(problem.lower))),
        float(np.max(np.abs(problem.upper))))

    if problem.n_rows == 0:
        return _box_only_solution(problem, tol)

    J = problem.n_rows
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

    def run_simplex(cost, opt_tol):
        nonlocal Binv
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
            leaving = basis[leave_pos]
            status[leaving] = 0 if dec[leave_pos] else 1
            status[e] = 2
            basis[leave_pos] = e
            piv_row = Binv[leave_pos] / w[leave_pos]
            Binv -= np.outer(w, piv_row)
            Binv[leave_pos] = piv_row
        raise LPError("simplex iteration cap exceeded")

    if n_art:
        run_simplex(c_phase1, tol * cost_scale)
        xB = basic_values()
        art_total = float(sum(max(xB[t], 0.0) for t in range(J)
                              if basis[t] >= q + J))
        if art_total > tol * feas_scale * max(1.0, n_art):
            raise InfeasibleError(
                f"LP infeasible (phase-1 objective {art_total:.3e})")
        ub[q + J:] = 0.0  # pin artificials; degenerate pivots push them out
    run_simplex(c_phase2, tol * cost_scale)

    xB = basic_values()
    x = np.where(status == 1, np.where(np.isfinite(ub), ub, 0.0), lb)
    x[basis] = xB
    y = x[:q].copy()

    basis_tags = []
    for v in range(q):
        if status[v] != 2:
            basis_tags.append(("lower", v) if status[v] == 0 else ("upper", v))
    for i in range(J):
        if status[q + i] != 2:
            basis_tags.append(("sample", i))
    tags, theta, psi, degen = _select_active(problem, y, basis_tags,
                                             feas_scale, max(tol, 1e-9))

    condition = float(np.linalg.cond(theta))
    # polish the vertex through the active-set system; keep the simplex
    # iterate if the refined point leaves the feasible region
    y_ref = np.linalg.solve(theta, psi)
    if _feasible(problem, y_ref, 1e-9, feas_scale):
        y = y_ref
    value = float(problem.c @ y)
    return LPSolution(y=y, value=value, active=tags, theta_mat=theta, psi=psi,
                      condition=condition, degenerate=degen,
                      all_box=all(t[0] != "sample" for t in tags))


def first_certified_vertex(c, inv_t, signs, tol=1e-8):
    """Index of the first vertex certified optimal for each objective.

    ``c`` (m, Q) stacks objectives.  Vertex k is a feasible vertex of the
    shared polytope with active system ``Theta_k``: ``inv_t[k]`` holds
    ``Theta_k^{-T}`` and ``signs[k]`` is +1 on sample and lower-box rows,
    -1 on upper-box rows.  The vertex is optimal for ``c`` when the
    multipliers ``z = Theta_k^{-T} c`` satisfy ``signs[k] * z >= -slack``
    with ``slack = tol * (1 + max|c|)``, the reduced-cost slack of
    :func:`lp_minimize`'s phase 2.  Returns an (m,) integer array holding
    the smallest passing k, or -1 where no vertex passes.  A degenerate
    vertex whose stored active set fails the test is a miss, never a wrong
    hit.
    """
    c = np.atleast_2d(np.asarray(c, dtype=float))
    if len(inv_t) == 0:
        return np.full(len(c), -1, dtype=np.int64)
    z = np.einsum("kqr,ir->ikq", inv_t, c)
    slack = tol * (1.0 + np.max(np.abs(c), axis=1))
    ok = np.all(signs[None] * z >= -slack[:, None, None], axis=2)
    return np.where(ok.any(axis=1), ok.argmax(axis=1), -1)


def tighten_and_resolve(solution, bumps, c):
    """Re-solve the active-set system with sample rows shifted by ``bumps``.

    ``bumps`` maps sample index -> beta_i for every active sample constraint.
    Box rows keep their right-hand side.  Returns the perturbed vertex and
    eta = c^T y_check.  Falls back to eta = solution.value (flagged) when the
    active set is all-box or Theta is numerically singular.
    """
    c = np.asarray(c, dtype=float)
    sample_idx = solution.sample_indices()
    if not sample_idx:
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
