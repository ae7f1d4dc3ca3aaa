"""Classical successive constraint method (SCM) and the greedy loop.

Given a training set, the greedy loop alternates between sweeping the
current lower/upper bounds over all training parameters and appending the
parameter with the worst relative gap.  Upper bounds come from sampled
joint-Rayleigh points, lower bounds from a small LP over the bounding box
cut by the sampled spectral constraints.  The subspace pipeline
(:mod:`eigenbounds.subspace`) runs the same loop with a richer sample set
and one more bound step.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .family import (AffineFamily, BoundingBox, compute_bounding_box,
                     joint_rayleigh)
# dense_smallest is not called here but stays bound: bench/tracer.py counts
# the sample eigensolves through scm.dense_smallest and scm.smallest_eigpairs
# (tests/test_bench_bindings.py checks that both names exist).
from .hermitian import (ArgumentError, DenseHermitian, EigensolverError,
                        dense_smallest, orthonormal_columns, smallest_eigpairs)
from .lp import LPProblem, dual_bound, first_certified_vertex, lp_minimize

__all__ = [
    "GreedyError",
    "GreedyRecord",
    "GreedyResult",
    "ScmState",
    "solve_at_sample",
    "upper_bound",
    "lower_bound",
    "error_ratio",
    "scm_greedy",
    "worst_case_family",
]

RATIO_DENOMINATOR_FLOOR = 1e-14
# The sample shift sits this far below the loop's bound at the selected
# point, relative to the box's bound sum_q |theta_q| max(|lo_q|, |hi_q|) on
# |A(mu)|, so that a tight bound never gives an exactly singular A - sigma X.
SHIFT_MARGIN = 1e-8


class GreedyError(RuntimeError):
    """Greedy loop aborted; ``partial`` carries the state built so far."""

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


@dataclass
class GreedyRecord:
    """One greedy iteration: what was selected and how good the bounds are."""

    iteration: int
    selected_index: int
    selected_mu: np.ndarray
    max_ratio: float
    wall_seconds: float
    eig_seconds: float
    lp_seconds: float
    reduced_seconds: float
    lp_count: int
    eig_count: int
    lp_cached: int = 0
    lp_pivots: int = 0
    lp_degenerate: int = 0
    shift_fallbacks: int = 0
    max_abs_ub_error: float | None = None
    max_abs_lb_error: float | None = None
    heuristic_valid: bool | None = None


@dataclass
class GreedyResult:
    converged: bool
    reason: str
    model: ScmState             # or its subclass SubspacePool
    box: BoundingBox
    records: list
    tables: dict                # per-training-point arrays from the final sweep


def solve_at_sample(family, mu, k, seed=0, below=None):
    """Smallest k eigenpairs of A(mu) (of the pencil with an inner product).

    k is capped at n.  :func:`smallest_eigpairs` picks dense or iterative,
    and shift-inverts a sparse A(mu) at ``below`` when that shift passes
    its positive-definite test.
    """
    return smallest_eigpairs(family.operator_at(mu), min(k, family.n),
                             seed=seed, M=family.inner_product, below=below)


class ScmState:
    """Greedy sample set: samples, their smallest eigenpairs, joint-Rayleigh
    points and the LP constraints ``rows @ y >= rhs``.  ``shift_fallbacks``
    counts the sample solves whose shift failed its positive-definite test."""

    def __init__(self, family):
        self.family = family
        self.samples = []
        self.vectors = []
        self.upper_points = np.zeros((0, family.q))
        self.rows = np.zeros((0, family.q))
        self.rhs = np.zeros(0)
        self.shift_fallbacks = 0

    @property
    def j(self):
        return len(self.samples)

    @property
    def values(self):
        """The sampled smallest eigenvalues: a read-only view of ``rhs``."""
        view = self.rhs.view()
        view.flags.writeable = False
        return view

    def has_sample(self, mu):
        mu = np.atleast_1d(np.asarray(mu, dtype=float))
        return any(np.array_equal(mu, s) for s in self.samples)

    def append(self, mu, value, vector):
        mu = np.atleast_1d(np.asarray(mu, dtype=float))
        self.samples.append(mu)
        self.vectors.append(np.asarray(vector).reshape(-1))
        point = joint_rayleigh(self.family, vector)
        self.upper_points = np.vstack([self.upper_points, point])
        self.rows = np.vstack([self.rows, self.family.theta_at(mu)])
        self.rhs = np.append(self.rhs, float(value))

    def add_sample(self, mu, seed=0, below=None):
        """Solve for the smallest eigenpair at ``mu`` and append it."""
        pairs = solve_at_sample(self.family, mu, 1, seed=seed, below=below)
        self.shift_fallbacks += pairs.shift_fallback
        self.append(mu, pairs.values[0], pairs.vectors[:, 0])


def upper_bound(state, mu):
    """min over stored joint-Rayleigh points of theta(mu)^T R(v_i).

    Returns +inf for an empty sample set.
    """
    if state.j == 0:
        return math.inf
    th = state.family.theta_at(mu)
    return float(np.min(state.upper_points @ th))


def lower_bound(state, box, mu, lp_tol=1e-8, c=None, start=None):
    """LP lower bound over the box cut by the sampled constraints.

    ``c`` is the objective row theta(mu) when the caller already holds it;
    ``start`` an earlier solution optimal for it to restart the dual
    simplex from (see :func:`~eigenbounds.lp.lp_minimize`).
    """
    if c is None:
        c = state.family.theta_at(mu)
    problem = LPProblem(c=c, lower=box.lower,
                        upper=box.upper, rows=state.rows, rhs=state.rhs)
    sol = lp_minimize(problem, tol=lp_tol, start=start)
    return sol.value, sol


def error_ratio(lb, ub):
    """Relative gap (ub - lb) / |ub|.

    Falls back to the absolute gap when |ub| is below 1e-14 (the caller is
    expected to flag such parameters); +inf for the empty-sample sentinel.
    """
    return float(_ratio_array(lb, ub))


def _ratio_array(lb, ub):
    """error_ratio elementwise."""
    lb = np.asarray(lb, dtype=float)
    ub = np.asarray(ub, dtype=float)
    scale = np.abs(ub)
    with np.errstate(divide="ignore", invalid="ignore"):
        gap = ub - lb
        out = np.where(scale < RATIO_DENOMINATOR_FLOOR, np.abs(gap),
                       gap / scale)
    out[np.isinf(ub)] = math.inf
    return out


class _VertexCache:
    """Distinct optimal vertices of the greedy's LP polytope.

    Every training point's LP shares the polytope (the box cut by the
    sampled rows); only the objective changes.  Each vertex keeps its
    ``LPSolution`` and, for :func:`~eigenbounds.lp.first_certified_vertex`,
    the inverse transpose of its active system.
    """

    def __init__(self, q):
        self.sols = []
        self.inv_t = np.zeros((0, q, q))

    def restrict(self, row, rhs, tol):
        """Drop the vertices that violate the new row ``row @ y >= rhs``."""
        keep = [k for k, sol in enumerate(self.sols)
                if sol.y @ row >= rhs - tol]
        self.sols = [self.sols[k] for k in keep]
        self.inv_t = self.inv_t[keep]

    def add(self, sol):
        """Add a solved vertex; False if its active set is known."""
        if any(v.active == sol.active for v in self.sols):
            return False
        self.sols.append(sol)
        self.inv_t = np.concatenate(
            [self.inv_t, np.linalg.inv(sol.theta_mat.T)[None]])
        return True

    def match(self, c, tol, last_only=False):
        """Per objective row, the first certified vertex (or -1) and z."""
        lo = len(self.sols) - 1 if last_only else 0
        hit, z = first_certified_vertex(c, self.inv_t[lo:], tol)
        return np.where(hit >= 0, hit + lo, -1), z


def _greedy(model, train, eps, j_max, *, warm_start, oracle, lp_tol, seed,
            sweep=None, mode="certified"):
    """The greedy loop of both pipelines.

    The loop starts with the bounding box (2Q extreme-eigenvalue solves).
    Each iteration solves at the selected parameter (``model.add_sample``),
    shifted below the selected point's lower bound (``sample_shift``),
    updates the sampled upper bounds ``lam_ub``, finds the LP lower bound
    ``lam_lb`` of every training point, then picks the point with the worst
    ratio.  Without ``warm_start`` every LP is solved cold (from the box
    corner), every iteration.  With it, a point keeps its minimizer while
    that satisfies the new constraint; the other points are tested against
    a cache of distinct optimal vertices (those that still satisfy every
    row), and only the points no vertex certifies are solved, in index
    order, each by a dual simplex restarted from its own previous solution,
    which is optimal for its objective whether it was solved or taken from
    the cache.  Each solve with a new active set joins the cache and is
    tested at once against the points still waiting.  A certified point
    takes the vertex's solution with its own multipliers there.  Every
    ``lam_lb`` is the weak-duality value (:func:`~eigenbounds.lp.dual_bound`)
    of its solution's multipliers, so these shortcuts decide how much LP
    work is done, never whether a bound holds.  Classical SCM ranks points
    by the relative gap between ``lam_lb`` and ``lam_ub``.  With ``sweep``
    (the subspace pipeline), ``sweep(tables, box, theta, sols)`` then fills
    the ``lam_slb``, ``lam_sub``, ``residual``, ``chosen_r`` and
    ``heuristic`` columns of ``tables`` at every training point from the LP
    solutions.  The ratio is then the relative gap between ``lam_slb`` and
    ``lam_sub``, or with ``mode='heuristic'`` the relative Ritz residual.
    The loop stops, not converged, when the worst ratio sits at a parameter
    already sampled.
    """
    family = model.family
    pts = train.points
    m = len(pts)
    if m == 0:
        raise ArgumentError("training set is empty")
    t0 = time.perf_counter()
    eig_seconds = lp_seconds = reduced_seconds = 0.0
    t = time.perf_counter()
    box = compute_bounding_box(family, seed=seed)
    eig_seconds += time.perf_counter() - t
    eig_count = 2 * family.q
    lp_count = lp_cached = lp_pivots = lp_degenerate = 0

    theta_all = family.theta_table(pts)
    sols = [None] * m
    sol_y = np.zeros((m, family.q))    # sols[i].y, for the warm-start test
    cache = _VertexCache(family.q)
    tables = {"lam_lb": np.full(m, -math.inf), "lam_ub": np.full(m, math.inf)}
    lower, upper = "lam_lb", "lam_ub"
    if sweep is not None:
        tables.update(lam_slb=np.full(m, -math.inf),
                      lam_sub=np.full(m, math.inf),
                      heuristic=np.full(m, math.inf),
                      residual=np.full(m, math.inf),
                      chosen_r=np.zeros(m, dtype=np.int64))
        lower, upper = "lam_slb", "lam_sub"
    records = []
    converged = False
    reason = ""
    selected = 0  # all ratios are +inf while C_J is empty: first index wins

    def settle(points, hits, z):
        """Give each point its certified vertex; return the others."""
        nonlocal lp_cached
        found = hits >= 0
        if found.any():
            idx, verts = points[found], [cache.sols[k] for k in hits[found]]
            z = np.where([[t[0] == "sample" for t in v.active] for v in verts],
                         z[found], 0.0)
            values = dual_bound(theta_all[idx], z,
                                np.array([v.theta_mat for v in verts]),
                                np.array([v.psi for v in verts]),
                                box.lower, box.upper)
            for i, vertex, zi, value in zip(idx, verts, z, values):
                sols[i] = replace(vertex, value=float(value), z=zi)
                sol_y[i] = vertex.y
            tables["lam_lb"][idx] = values
            lp_cached += idx.size
        return points[~found]

    def sample_shift(i):
        """A shift for the sample solve at training point ``i``.

        The point's LP lower bound ``lam_lb``; in the subspace pipeline the
        larger of that and the residual heuristic, which the shifted
        factor's positive-definite test may still reject.  Before the first
        sample, the box alone: sum_q min(theta_q lo_q, theta_q hi_q).
        Lowered by SHIFT_MARGIN.
        """
        th = theta_all[i]
        if model.j == 0:
            s = float(np.sum(np.minimum(th * box.lower, th * box.upper)))
        else:
            s = tables["lam_lb"][i]
            if sweep is not None:
                s = max(s, tables["heuristic"][i])
        scale = np.abs(th) @ np.maximum(np.abs(box.lower), np.abs(box.upper))
        return float(s - SHIFT_MARGIN * scale)

    def result():
        tabs = {key: col.copy() for key, col in tables.items()}
        tabs["ratio"] = _ratio_array(tables[lower], tables[upper])
        tabs["ratio_fallback"] = (np.abs(tables[upper])
                                  < RATIO_DENOMINATOR_FLOOR)
        if oracle is not None:
            tabs["oracle"] = np.asarray(oracle, dtype=float)
        return GreedyResult(converged=converged, reason=reason, model=model,
                            box=box, records=records, tables=tabs)

    for it in range(1, j_max + 1):
        mu_new = pts[selected]
        if model.has_sample(mu_new):
            # a second solve there adds no constraint, so no bound can move
            reason = (f"worst ratio at training point {selected}, which is "
                      f"already sampled, after J={it - 1} (not converged)")
            break
        t = time.perf_counter()
        try:
            model.add_sample(mu_new, seed=seed,
                             below=sample_shift(selected))
        except EigensolverError as exc:
            reason = f"eigensolver failed at sample {it}: {exc}"
            raise GreedyError(reason, partial=result()) from exc
        eig_seconds += time.perf_counter() - t
        eig_count += 1
        lam_new, th_new = model.rhs[-1], model.rows[-1]
        tables["lam_ub"] = np.min(theta_all @ model.upper_points.T, axis=1)

        t = time.perf_counter()
        lam_lb = tables["lam_lb"]
        todo = np.arange(m)
        if warm_start:
            if it > 1:
                # a point's minimizer stays optimal as long as it
                # satisfies the one constraint this iteration added
                todo = np.flatnonzero(~(sol_y @ th_new >= lam_new - lp_tol))
            cache.restrict(th_new, lam_new, lp_tol)
            todo = settle(todo, *cache.match(theta_all[todo], lp_tol))
        while todo.size:
            i, todo = todo[0], todo[1:]
            lam_lb[i], sols[i] = lower_bound(
                model, box, pts[i], lp_tol=lp_tol, c=theta_all[i],
                start=sols[i] if warm_start else None)
            sol_y[i] = sols[i].y
            lp_count += 1
            lp_pivots += sols[i].pivots
            lp_degenerate += sols[i].degenerate
            if warm_start and cache.add(sols[i]):
                todo = settle(todo, *cache.match(theta_all[todo], lp_tol,
                                                 last_only=True))
        lp_seconds += time.perf_counter() - t

        if sweep is not None:
            t = time.perf_counter()
            sweep(tables, box, theta_all, sols)
            reduced_seconds += time.perf_counter() - t

        if mode == "heuristic":
            ratios = tables["residual"] / np.maximum(
                np.abs(tables["lam_sub"]), RATIO_DENOMINATOR_FLOOR)
        else:
            ratios = _ratio_array(tables[lower], tables[upper])
        max_ratio = float(ratios.max())
        rec = GreedyRecord(
            iteration=it, selected_index=int(selected),
            selected_mu=mu_new.copy(), max_ratio=max_ratio,
            wall_seconds=time.perf_counter() - t0,
            eig_seconds=eig_seconds, lp_seconds=lp_seconds,
            reduced_seconds=reduced_seconds,
            lp_count=lp_count, eig_count=eig_count, lp_cached=lp_cached,
            lp_pivots=lp_pivots, lp_degenerate=lp_degenerate,
            shift_fallbacks=model.shift_fallbacks)
        if oracle is not None:
            rec.max_abs_ub_error = float(np.max(np.abs(tables[upper]
                                                       - oracle)))
            rec.max_abs_lb_error = float(np.max(np.abs(tables[lower]
                                                       - oracle)))
            if sweep is not None:
                rec.heuristic_valid = bool(np.all(tables["heuristic"]
                                                  <= oracle + 1e-9))
        records.append(rec)

        if max_ratio <= eps:
            converged = True
            what = "residual" if mode == "heuristic" else "gap"
            reason = (f"relative {what} {max_ratio:.3e} <= {eps:.1e} "
                      f"after J={it}")
            break
        selected = int(np.argmax(ratios))
    else:
        reason = f"iteration cap J_max={j_max} reached (not converged)"

    return result()


def scm_greedy(family, train, eps=1e-4, j_max=200, *, warm_start=True,
               oracle=None, lp_tol=1e-8, seed=0):
    """Greedy SCM loop.

    Parameters
    ----------
    family, train : problem and training set
    eps : relative-gap stopping tolerance
    j_max : iteration cap; reaching it flags the result as not converged
    warm_start : reuse a parameter's LP minimizer while it stays feasible,
        answer the other LPs from a cache of optimal vertices (a vertex
        answers a point when its active system's multipliers for the
        point's objective are nonnegative) and restart the dual simplex of
        the rest from their previous solutions (see :func:`_greedy`);
        without it every LP is solved from the box corner
    oracle : optional per-training-point exact smallest eigenvalues, used
        only for the error columns of the iteration records
    """
    return _greedy(ScmState(family), train, eps, j_max,
                   warm_start=warm_start, oracle=oracle, lp_tol=lp_tol,
                   seed=seed)


def worst_case_family(state, y_tilde):
    """Family that attains the SCM lower bound where ``y_tilde`` is optimal.

    Projects every term onto the span of the sampled eigenvectors and fills
    the orthogonal complement with the coordinates of ``y_tilde``, the LP
    minimizer at some parameter mu: the rebuilt family keeps the sampled
    smallest eigenvalues and its smallest eigenvalue at mu drops exactly
    to the lower bound.
    Used by tests to certify that no better lower bound can be extracted
    from eigenvalue samples alone.  Standard families only.
    """
    family = state.family
    if family.inner_product is not None:
        raise ArgumentError("worst-case family of a pencil family")
    n = family.n
    if state.j >= n:
        raise ArgumentError("need fewer samples than the matrix dimension")
    y = np.asarray(y_tilde, dtype=float).reshape(-1)
    if y.size != family.q:
        raise ArgumentError("minimizer length must equal the term count")
    if state.j:
        V, _ = orthonormal_columns(np.column_stack(state.vectors))
    else:
        V = np.zeros((n, 0))
    eye = np.eye(n)
    proj = V @ V.conj().T if V.shape[1] else np.zeros((n, n))
    perp = eye - proj
    terms = []
    for qi, term in enumerate(family.terms):
        A = term.dense()
        terms.append(DenseHermitian(proj @ A @ proj + y[qi] * perp))
    return AffineFamily(terms=tuple(terms), theta=family.theta,
                        domain=family.domain,
                        name=family.name + ":worst-case")
