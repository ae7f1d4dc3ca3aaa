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
from dataclasses import dataclass

import numpy as np

from .family import (AffineFamily, BoundingBox, compute_bounding_box,
                     joint_rayleigh)
from .hermitian import (ArgumentError, DenseHermitian, EigensolverError,
                        dense_smallest, orthonormal_columns, smallest_eigpairs)
from .lp import LPProblem, lp_minimize

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
    training: object


def solve_at_sample(family, mu, k, seed=0):
    """Smallest k eigenpairs of A(mu) (of the pencil with an inner product).

    Takes the dense path when k reaches the full dimension (the iterative
    solver requires k < n); :func:`smallest_eigpairs` picks dense or
    iterative by size otherwise.
    """
    n = family.n
    k = min(k, n)
    if k >= n:
        return dense_smallest(family.assemble_dense(mu), k,
                              size_cap=max(n, 2000), M=family.inner_product)
    return smallest_eigpairs(family.operator_at(mu), k, seed=seed,
                             M=family.inner_product)


class ScmState:
    """Greedy sample set: samples, their smallest eigenpairs, joint-Rayleigh
    points and the LP constraints ``rows @ y >= rhs``."""

    def __init__(self, family):
        self.family = family
        self.samples = []
        self.values = []
        self.vectors = []
        self.upper_points = np.zeros((0, family.q))
        self.rows = np.zeros((0, family.q))
        self.rhs = np.zeros(0)

    @property
    def j(self):
        return len(self.samples)

    def has_sample(self, mu):
        mu = np.atleast_1d(np.asarray(mu, dtype=float))
        return any(np.array_equal(mu, s) for s in self.samples)

    def append(self, mu, value, vector):
        mu = np.atleast_1d(np.asarray(mu, dtype=float))
        self.samples.append(mu)
        self.values.append(float(value))
        self.vectors.append(np.asarray(vector).reshape(-1))
        point = joint_rayleigh(self.family, vector)
        self.upper_points = np.vstack([self.upper_points, point])
        self.rows = np.vstack([self.rows, self.family.theta_at(mu)])
        self.rhs = np.append(self.rhs, float(value))

    def add_sample(self, mu, seed=0):
        """Solve for the smallest eigenpair at ``mu`` and append it."""
        pairs = solve_at_sample(self.family, mu, 1, seed=seed)
        self.append(mu, pairs.values[0], pairs.vectors[:, 0])


def upper_bound(state, mu):
    """min over stored joint-Rayleigh points of theta(mu)^T R(v_i).

    Returns +inf for an empty sample set.
    """
    if state.j == 0:
        return math.inf
    th = state.family.theta_at(mu)
    return float(np.min(state.upper_points @ th))


def lower_bound(state, box, mu, warm=None, lp_tol=1e-8):
    """LP lower bound over the box cut by the sampled constraints."""
    problem = LPProblem(c=state.family.theta_at(mu), lower=box.lower,
                        upper=box.upper, rows=state.rows, rhs=state.rhs)
    sol = lp_minimize(problem, warm=warm, tol=lp_tol)
    return sol.value, sol


def error_ratio(lb, ub):
    """Relative gap (ub - lb) / |ub|.

    Falls back to the absolute gap when |ub| is below 1e-14 (the caller is
    expected to flag such parameters); +inf for the empty-sample sentinel.
    """
    if math.isinf(ub):
        return math.inf
    if abs(ub) < RATIO_DENOMINATOR_FLOOR:
        return abs(ub - lb)
    return (ub - lb) / abs(ub)


def _ratio_array(lb, ub):
    """error_ratio elementwise, with the same branches."""
    lb = np.asarray(lb, dtype=float)
    ub = np.asarray(ub, dtype=float)
    scale = np.abs(ub)
    with np.errstate(divide="ignore", invalid="ignore"):
        gap = ub - lb
        out = np.where(scale < RATIO_DENOMINATOR_FLOOR, np.abs(gap),
                       gap / scale)
    out[np.isinf(ub)] = math.inf
    return out


def _greedy(model, train, eps, j_max, *, warm_start, oracle, lp_tol, seed,
            sweep=None, mode="certified"):
    """The greedy loop of both pipelines.

    The loop starts with the bounding box (2Q extreme-eigenvalue solves).
    Each iteration solves at the selected parameter (``model.add_sample``),
    updates the sampled upper bounds ``lam_ub``, solves the LP lower bound
    ``lam_lb`` of every training point whose cached minimizer violates the
    new constraint (all of them without ``warm_start``), then picks the
    point with the worst ratio.  Classical SCM ranks points by the relative
    gap between ``lam_lb`` and ``lam_ub``.  With ``sweep`` (the subspace
    pipeline), ``sweep(tables, theta, sols)`` then fills the ``lam_slb``,
    ``lam_sub``, ``residual``, ``chosen_r`` and ``heuristic`` columns of
    ``tables`` at every training point from the LP solutions.  The ratio
    is then the relative gap between ``lam_slb`` and ``lam_sub``, or with
    ``mode='heuristic'`` the relative Ritz residual.  The loop stops, not
    converged, when the worst ratio sits at a parameter already sampled.
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
    lp_count = 0

    theta_all = family.theta_table(pts)
    sols = [None] * m
    sol_y = np.zeros((m, family.q))    # sols[i].y, for the warm-start test
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

    def result():
        tabs = {key: col.copy() for key, col in tables.items()}
        tabs["ratio"] = _ratio_array(tables[lower], tables[upper])
        tabs["ratio_fallback"] = (np.abs(tables[upper])
                                  < RATIO_DENOMINATOR_FLOOR)
        if oracle is not None:
            tabs["oracle"] = np.asarray(oracle, dtype=float)
        return GreedyResult(converged=converged, reason=reason, model=model,
                            box=box, records=records, tables=tabs,
                            training=train)

    for it in range(1, j_max + 1):
        mu_new = pts[selected]
        if model.has_sample(mu_new):
            # a second solve there adds no constraint, so no bound can move
            reason = (f"worst ratio at training point {selected}, which is "
                      f"already sampled, after J={it - 1} (not converged)")
            break
        t = time.perf_counter()
        try:
            model.add_sample(mu_new, seed=seed)
        except EigensolverError as exc:
            reason = f"eigensolver failed at sample {it}: {exc}"
            raise GreedyError(reason, partial=result()) from exc
        eig_seconds += time.perf_counter() - t
        eig_count += 1
        lam_new, th_new = model.rhs[-1], model.rows[-1]
        tables["lam_ub"] = np.min(theta_all @ model.upper_points.T, axis=1)

        t = time.perf_counter()
        # warm start: a cached minimizer stays optimal as long as it
        # satisfies the one constraint this iteration added
        cache_ok = np.zeros(m, dtype=bool)
        if warm_start and it > 1:
            cache_ok = sol_y @ th_new >= lam_new - lp_tol
        todo = np.flatnonzero(~cache_ok)
        lam_lb = tables["lam_lb"]
        for i in todo:
            lam_lb[i], sols[i] = lower_bound(model, box, pts[i], lp_tol=lp_tol)
            sol_y[i] = sols[i].y
        lp_count += len(todo)
        lp_seconds += time.perf_counter() - t

        if sweep is not None:
            t = time.perf_counter()
            sweep(tables, theta_all, sols)
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
            lp_count=lp_count, eig_count=eig_count)
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
    warm_start : reuse a parameter's LP minimizer while it stays feasible
    oracle : optional per-training-point exact smallest eigenvalues, used
        only for the error columns of the iteration records
    """
    return _greedy(ScmState(family), train, eps, j_max,
                   warm_start=warm_start, oracle=oracle, lp_tol=lp_tol,
                   seed=seed)


def worst_case_family(state, mu_tilde, y_tilde, max_n=4096):
    """Family that attains the SCM lower bound at ``mu_tilde``.

    Projects every term onto the span of the sampled eigenvectors and fills
    the orthogonal complement with the LP minimizer's coordinates:
    the rebuilt family keeps the sampled smallest eigenvalues and its
    smallest eigenvalue at ``mu_tilde`` drops exactly to the lower bound.
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
        A = term.dense(max_n=max_n)
        terms.append(DenseHermitian(proj @ A @ proj + y[qi] * perp))
    return AffineFamily(terms=tuple(terms), theta=family.theta,
                        domain=family.domain,
                        name=family.name + ":worst-case")
