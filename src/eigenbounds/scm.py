"""Classical successive constraint method (SCM) and the greedy loop.

Given a training set, the greedy loop alternates between sweeping the
current lower/upper bounds over all training parameters and appending the
parameter with the worst relative gap.  Upper bounds come from sampled
joint-Rayleigh points, lower bounds from a small LP over the bounding box
cut by the sampled spectral constraints (:meth:`ScmState.bounds_at`).  The
subspace pipeline (:mod:`eigenbounds.subspace`) runs the same loop with a
model whose ``bounds_at`` adds the subspace bounds.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .family import compute_bounding_box, joint_rayleigh
# bench/tracer.py counts the sample eigensolves through scm.smallest_eigpairs
# and scm.dense_smallest, which stays bound here uncalled.
from .hermitian import (ArgumentError, DenseHermitian, EigensolverError,
                        dense_smallest, orthonormal_columns,
                        smallest_eigpairs)
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
    lp_pivots: int = 0
    lp_degenerate: int = 0
    shift_fallbacks: int = 0
    loose_estimates: int = 0
    sparse_factors: int = 0
    band_factors: int = 0
    sparse_orderings: int = 0
    max_abs_ub_error: float | None = None
    max_abs_lb_error: float | None = None
    heuristic_valid: bool | None = None


@dataclass
class GreedyResult:
    converged: bool
    reason: str
    model: ScmState             # or its subclass SubspacePool
    records: list
    tables: dict                # per-training-point arrays from the final sweep

    @property
    def box(self):
        """The model's bounding box."""
        return self.model.box


def solve_at_sample(family, mu, k, seed=0, below=None, pattern=None):
    """Smallest k eigenpairs of A(mu) (of the pencil with an inner product).

    k is capped at n.  A sparse A(mu) is summed on ``pattern`` (see
    :meth:`~eigenbounds.family.AffineFamily.operator_at`), whose ordering
    its factor shares.  :func:`smallest_eigpairs` picks dense or iterative,
    and shift-inverts a sparse A(mu) at ``below`` (with none, at the
    Gershgorin floor or just below a loose estimate) when that shift
    passes its positive-definite test.
    """
    return smallest_eigpairs(family.operator_at(mu, pattern),
                             min(k, family.n), seed=seed,
                             M=family.inner_product, below=below)


class ScmState:
    """Greedy sample set of one family: its bounding box ``box``, built
    here in ``box_seconds`` with the solver ``seed`` that every sample
    solve takes too, the samples, the joint-Rayleigh points of their
    smallest eigenvectors (no n-vector is kept) and the LP constraints
    ``rows @ y >= rhs``, whose right-hand sides are the sampled smallest
    eigenvalues.  A sparse family's samples are summed and factored on the
    model's own ``pattern`` (None for a dense family), made here so that
    each run computes its own ordering.  ``eig_seconds``, ``eig_count``,
    ``shift_fallbacks``, ``loose_estimates``, ``sparse_factors``,
    ``band_factors`` and ``sparse_orderings`` total the box and sample
    solves; the ``lp_*`` counters and ``sweep_seconds`` the work of
    :meth:`bounds_at`."""

    # the (lower, upper) bound columns the greedy loop ranks points by
    ranked = ("lam_lb", "lam_ub")
    # every bound column of bounds_at and its value before the first sample
    unsampled = {"lam_lb": -math.inf, "lam_ub": math.inf}
    k = 1  # the smallest eigenpairs each sample solve asks for

    def __init__(self, family, seed=0):
        self.family, self.seed = family, seed
        self.samples = []
        self.upper_points = np.zeros((0, family.q))
        self.rows = np.zeros((0, family.q))
        self.rhs = np.zeros(0)
        t = time.perf_counter()
        self.box = compute_bounding_box(family, seed=seed)
        self.box_seconds = time.perf_counter() - t
        self.eig_seconds, self.eig_count = self.box_seconds, self.box.eig_count
        self.shift_fallbacks = self.box.shift_fallbacks
        self.loose_estimates = self.box.loose_estimates
        self.pattern = family.sparse_pattern()
        self.lp_count = self.lp_pivots = self.lp_degenerate = 0
        self.lp_seconds = self.sweep_seconds = 0.0

    @property
    def j(self):
        return len(self.samples)

    @property
    def values(self):
        """The sampled smallest eigenvalues: a read-only view of ``rhs``."""
        view = self.rhs.view()
        view.flags.writeable = False
        return view

    @property
    def sparse_factors(self):
        """The sparse factors of A - sigma X made by the box and samples."""
        return self.box.sparse_factors + getattr(self.pattern, "factors", 0)

    @property
    def band_factors(self):
        """Those of the factors that LAPACK's band Cholesky made."""
        return self.box.band_factors + getattr(self.pattern,
                                               "band_factors", 0)

    @property
    def sparse_orderings(self):
        """The orderings computed for those factors."""
        return (self.box.sparse_orderings
                + getattr(self.pattern, "orderings", 0))

    def has_sample(self, mu):
        mu = np.atleast_1d(np.asarray(mu, dtype=float))
        return any(np.array_equal(mu, s) for s in self.samples)

    def add_sample(self, mu, below=None):
        """Solve for the ``k`` smallest eigenpairs at a new sample ``mu``
        (shifted at ``below``), :meth:`extend` the model by them and count
        the solve; a solve that raises leaves the model as it was, but for
        the factors it made on ``pattern``, which stay counted there and
        may have set its ordering."""
        mu = np.atleast_1d(np.asarray(mu, dtype=float))
        if self.has_sample(mu):
            raise ArgumentError("sample already present in the pool")
        t = time.perf_counter()
        pairs = solve_at_sample(self.family, mu, self.k, seed=self.seed,
                                below=below, pattern=self.pattern)
        self.extend(mu, pairs)
        self.shift_fallbacks += pairs.shift_fallback
        self.loose_estimates += pairs.loose_estimate
        self.eig_seconds += time.perf_counter() - t
        self.eig_count += 1

    def extend(self, mu, pairs):
        """Add ``mu`` with the joint-Rayleigh point and constraint of the
        smallest pair of its solve's EigenPairs ``pairs``."""
        self.samples.append(mu)
        point = joint_rayleigh(self.family, pairs.vectors[:, 0])
        self.upper_points = np.vstack([self.upper_points, point])
        self.rows = np.vstack([self.rows, self.family.theta_at(mu)])
        self.rhs = np.append(self.rhs, float(pairs.values[0]))

    def bounds_at(self, theta, start=None):
        """Bounds at the coefficient rows ``theta`` (m, Q).

        Returns a dict of per-row arrays (here ``lam_ub`` and the LP bound
        ``lam_lb``) and the :class:`~eigenbounds.lp.LPBatch` of the rows'
        LP solutions, from one :func:`lower_bound` call.  With ``start``,
        the batch returned for the same rows one sample ago, every row
        restarts the dual simplex from its vertex there, and one that the
        newest row does not violate ends after zero pivots.  ``lam_lb`` is
        each solution's weak-duality value, so restarts never decide
        whether a bound holds.  ``lp_count`` grows by every row of a cold
        call and by the rows of a restarted one that pivot.  With no sample
        yet, the ``unsampled`` values and no batch.
        """
        m = len(theta)
        if start is not None and (start.n_rows != self.j - 1
                                  or len(start.y) != m):
            raise ArgumentError("start must be the batch of the same rows "
                                "one sample ago")
        if self.j == 0:
            return {k: np.full(m, v) for k, v in self.unsampled.items()}, None
        lam_ub = np.min(theta @ self.upper_points.T, axis=1)
        t = time.perf_counter()
        lam_lb, sols = lower_bound(self, None, c=theta, start=start)
        self.lp_count += (m if start is None
                          else int(np.count_nonzero(sols.row_pivots)))
        self.lp_pivots += sols.pivots
        self.lp_degenerate += sols.degenerate
        self.lp_seconds += time.perf_counter() - t
        return {"lam_lb": lam_lb.copy(), "lam_ub": lam_ub}, sols


def upper_bound(state, mu):
    """min over stored joint-Rayleigh points of theta(mu)^T R(v_i).

    Returns +inf for an empty sample set.
    """
    if state.j == 0:
        return math.inf
    th = state.family.theta_at(mu)
    return float(np.min(state.upper_points @ th))


def lower_bound(state, mu, c=None, start=None):
    """LP lower bound over the state's box cut by the sampled constraints.

    Returns the bound and the one-row :class:`~eigenbounds.lp.LPBatch` of
    its LP solution.  ``c`` is the objective row theta(mu) when the caller
    already holds it, or an (m, Q) stack of such rows, which gives an array
    of bounds and a batch of m rows; ``start`` an earlier batch optimal for
    the same objectives to restart the dual simplex from (see
    :func:`~eigenbounds.lp.lp_minimize`).
    """
    if c is None:
        c = state.family.theta_at(mu)
    problem = LPProblem(c=c, lower=state.box.lower, upper=state.box.upper,
                        rows=state.rows, rhs=state.rhs)
    sol = lp_minimize(problem, start=start)
    return (sol.value if problem.c.ndim == 2 else float(sol.value[0])), sol


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


def _greedy(make_model, family, train, eps, j_max, *, warm_start, oracle,
            mode="certified"):
    """The greedy loop of both pipelines.

    Evaluates theta at the training points before the model
    ``make_model(family)`` builds its box.  Each iteration takes the model's
    sample step at the selected parameter (``model.add_sample``), shifted
    below the selected point's lower bound (``sample_shift``; the first
    sample where the eigensolver places its own shift), bounds every
    training point with ``model.bounds_at``, restarted from the previous
    iteration's LP solutions with ``warm_start``, and picks the point with
    the worst ratio: the relative gap between the bound columns
    ``model.ranked``, or with ``mode='heuristic'`` the relative Ritz
    residual.  The loop stops, not converged, when the worst ratio sits at
    a parameter already sampled.
    """
    pts = train.points
    if len(pts) == 0:
        raise ArgumentError("training set is empty")
    t0 = time.perf_counter()
    theta_all = family.theta_table(pts)
    model = make_model(family)
    box_scale = np.maximum(np.abs(model.box.lower), np.abs(model.box.upper))
    tables, sols = model.bounds_at(theta_all)
    lower, upper = model.ranked
    records = []
    converged = False
    reason = ""
    selected = 0  # all ratios are +inf while C_J is empty: first index wins

    def sample_shift(i):
        """A shift for the sample solve at training point ``i``.

        The point's LP lower bound ``lam_lb``, or the larger of that and
        the residual heuristic where the model gives one, lowered by
        SHIFT_MARGIN; the shifted factor's positive-definite test may still
        reject it.  None before the first sample, where only the box bounds
        A(mu): the eigensolver then places the shift itself.
        """
        if model.j == 0:
            return None
        s = tables["lam_lb"][i]
        if "heuristic" in tables:
            s = max(s, tables["heuristic"][i])
        return float(s - SHIFT_MARGIN * (np.abs(theta_all[i]) @ box_scale))

    def result():
        tabs = {key: col.copy() for key, col in tables.items()}
        tabs["ratio"] = _ratio_array(tables[lower], tables[upper])
        tabs["ratio_fallback"] = (np.abs(tables[upper])
                                  < RATIO_DENOMINATOR_FLOOR)
        if oracle is not None:
            tabs["oracle"] = np.asarray(oracle, dtype=float)
        return GreedyResult(converged=converged, reason=reason, model=model,
                            records=records, tables=tabs)

    for it in range(1, j_max + 1):
        mu_new = pts[selected]
        if model.has_sample(mu_new):
            # a second solve there adds no constraint, so no bound can move
            reason = (f"worst ratio at training point {selected}, which is "
                      f"already sampled, after J={it - 1} (not converged)")
            break
        try:
            model.add_sample(mu_new, below=sample_shift(selected))
        except EigensolverError as exc:
            reason = f"eigensolver failed at sample {it}: {exc}"
            raise GreedyError(reason, partial=result()) from exc
        tables, sols = model.bounds_at(theta_all,
                                       start=sols if warm_start else None)

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
            eig_seconds=model.eig_seconds, lp_seconds=model.lp_seconds,
            reduced_seconds=model.sweep_seconds,
            lp_count=model.lp_count, eig_count=model.eig_count,
            lp_pivots=model.lp_pivots, lp_degenerate=model.lp_degenerate,
            shift_fallbacks=model.shift_fallbacks,
            loose_estimates=model.loose_estimates,
            sparse_factors=model.sparse_factors,
            band_factors=model.band_factors,
            sparse_orderings=model.sparse_orderings)
        if oracle is not None:
            rec.max_abs_ub_error = float(np.max(np.abs(tables[upper]
                                                       - oracle)))
            rec.max_abs_lb_error = float(np.max(np.abs(tables[lower]
                                                       - oracle)))
            if "heuristic" in tables:
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
               oracle=None, seed=0):
    """Greedy SCM loop.

    Parameters
    ----------
    family, train : problem and training set
    eps : relative-gap stopping tolerance
    j_max : iteration cap; reaching it flags the result as not converged
    warm_start : restart every parameter's dual simplex from its previous
        LP solution, in one stacked solve per iteration (see
        :meth:`ScmState.bounds_at`); without it every LP starts cold
    oracle : optional per-training-point exact smallest eigenvalues, used
        only for the error columns of the iteration records
    """
    return _greedy(lambda fam: ScmState(fam, seed=seed), family, train, eps,
                   j_max, warm_start=warm_start, oracle=oracle)


def worst_case_family(state, y_tilde):
    """Family that attains the SCM lower bound where ``y_tilde`` is optimal.

    Projects every term onto the span of the smallest eigenvectors at the
    samples, solved again here as :meth:`ScmState.add_sample` does, and fills
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
        V, _ = orthonormal_columns(np.column_stack(
            [solve_at_sample(family, mu, 1, seed=state.seed).vectors[:, 0]
             for mu in state.samples]))
    else:
        V = np.zeros((n, 0))
    proj = V @ V.conj().T           # zero with no samples
    perp = np.eye(n) - proj
    terms = []
    for qi, term in enumerate(family.terms):
        A = term.dense()
        terms.append(DenseHermitian(proj @ A @ proj + y[qi] * perp))
    return replace(family, terms=tuple(terms),
                   name=family.name + ":worst-case")
