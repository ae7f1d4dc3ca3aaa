"""Subspace-accelerated bounds for the parametric smallest eigenvalue.

Sampled eigenvectors are accumulated in an orthonormal basis V with
precomputed reduced matrices V*A_q V and V*A_q X^{-1} A_p V (X = I
without an inner product; with one, V is X-orthonormal), so that for
every parameter the Ritz upper bound, the Ritz residual and the
gap-tightened lower bound all come from small dense problems:

* upper bound: smallest eigenvalue of the projected matrix V*A(mu)V;
* lower bound: a quadratic residual perturbation bound applied to the
  leading Ritz block, with the unknown complementary-subspace eigenvalue
  replaced by eta, the LP's weak-duality bound with gap-shifted rows.

:func:`sweep_bounds` evaluates these bounds for a whole batch of
parameters with array code, given their LP solutions: one GEMM builds
every projected matrix and one every projected A(mu)^2, a stacked
eigensolve gives all Ritz pairs, the residuals of every Ritz dimension r
come from one stacked eigensolve per r, the gap-lemma shifts of every
sample and every r from the sample-to-Ritz overlaps, and eta for every r
from one :func:`~eigenbounds.lp.dual_bound` call.  The per-parameter
functions (:func:`ritz_upper_bound`, :func:`residual_norm`,
:func:`beta_gap`) compute the same quantities one point at a time and
serve as the reference.

:class:`SubspacePool` extends the classical SCM sample set, and its
``bounds_at`` adds these bounds to the classical ones at any parameters;
:func:`subspace_greedy` runs the SCM greedy loop with a pool.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

# bench/tracer.py patches these names in this module, so they stay bound
# here uncalled: ScmState builds the box through scm's binding, and
# tighten_and_resolve is the solve-based reference for the sweep's eta.
from .family import compute_bounding_box  # noqa: F401
from .hermitian import ArgumentError, orthonormal_columns
from .lp import dual_bound, tighten_and_resolve  # noqa: F401
from .scm import ScmState, _greedy, lower_bound, solve_at_sample

__all__ = [
    "SubspacePool",
    "RitzData",
    "append_sample",
    "ritz_upper_bound",
    "residual_norm",
    "beta_gap",
    "f_bound",
    "sweep_bounds",
    "subspace_lower_bound",
    "residual_heuristic_bound",
    "subspace_greedy",
]

RHO_SQ_FLOOR = -1e-10
# Bytes of stacked per-parameter arrays one chunk of a sweep may hold.
SWEEP_CHUNK_BYTES = 1 << 22


class SubspacePool(ScmState):
    """Samples, their eigen-data, the joint basis V and its reduced matrices.

    :func:`append_sample` grows one array per quantity: ``applied`` A_q V
    (Q, n, dim), ``reduced`` V*A_q V (Q, dim, dim), ``cross`` V*A_q X^{-1}
    A_p V (Q, Q, dim, dim), ``sample_values`` (J, min(ell + 1, n)) and the
    zero-padded basis coefficients ``coeffs`` (J, dim, ell) of each sample;
    bounds take the best Ritz dimension r <= ``r_max`` (default Q).
    """

    ranked = ("lam_slb", "lam_sub")
    unsampled = {**ScmState.unsampled, "lam_slb": -math.inf,
                 "lam_sub": math.inf, "heuristic": math.inf,
                 "residual": math.inf, "chosen_r": 0}

    def __init__(self, family, ell=1, r_max=None, seed=0):
        if ell < 1:
            raise ArgumentError("ell must be at least 1")
        self.ell = int(min(ell, family.n))
        self.r_max = _valid_r_max(r_max, family.q)
        super().__init__(family, seed=seed)
        n, q = family.n, family.q
        self.sample_values = np.zeros((0, min(self.ell + 1, n)))
        self.coeffs = np.zeros((0, 0, self.ell))
        self.dropped = []         # per sample: number of near-dependent vectors
        self.basis = np.zeros((n, 0))
        self.applied = np.zeros((q, n, 0))
        self.reduced = np.zeros((q, 0, 0))
        self.cross = np.zeros((q, q, 0, 0))

    @property
    def dim(self):
        return self.basis.shape[1]

    def add_sample(self, mu, below=None):
        append_sample(self, mu, below=below)

    def bounds_at(self, theta, start=None):
        """:meth:`ScmState.bounds_at` plus the :func:`sweep_bounds` columns
        ``lam_slb``, ``lam_sub``, ``residual`` and ``chosen_r``, and the
        residual heuristic ``heuristic`` = ``lam_sub - residual``."""
        cols, sols = super().bounds_at(theta, start=start)
        if sols is not None:
            t = time.perf_counter()
            out = sweep_bounds(self, theta, sols)
            cols.update({key: out[key] for key in ("lam_slb", "lam_sub",
                                                   "residual", "chosen_r")},
                        heuristic=out["lam_sub"] - out["residual"])
            self.sweep_seconds += time.perf_counter() - t
        return cols, sols


def _valid_r_max(r_max, default):
    """``r_max``, or ``default`` when it is None; never negative."""
    if r_max is not None and r_max < 0:
        raise ArgumentError("r_max must be non-negative")
    return default if r_max is None else r_max


def _bordered(old, cols):
    """``old`` (..., m_old, m_old) bordered by the new columns ``cols``.

    ``cols`` (..., m, m - m_old) are the new columns of a tensor equal to
    its adjoint: conjugated, last two axes swapped, leading (term) axes
    reversed.  The new rows mirror them, and the new diagonal block is
    averaged with its mirror, so the result equals its adjoint exactly.
    """
    m_old, m = old.shape[-1], cols.shape[-2]
    lead = cols.ndim - 2
    axes = (*reversed(range(lead)), lead + 1, lead)
    out = np.zeros(cols.shape[:-1] + (m,), dtype=np.result_type(old, cols))
    out[..., :m_old, :m_old] = old
    out[..., m_old:] = cols
    out[..., m_old:, :m_old] = cols[..., :m_old, :].transpose(axes).conj()
    new = cols[..., m_old:, :]
    out[..., m_old:, m_old:] = 0.5 * (new + new.transpose(axes).conj())
    return out


def append_sample(pool, mu_new, below=None):
    """Solve at a new sample and extend the pool incrementally.

    Requests ell+1 eigenvalues (one more than the number of vectors kept:
    the extra value feeds the gap lemma) and ell eigenvectors, orthogonalizes
    the new vectors N against the basis V with a drop tolerance for
    near-dependence, and borders the reduced and cross matrices with the
    new columns only: V*(A_q N) and (A_q V)* X^{-1} (A_p N) for all terms
    at once, with one solve with X for all new columns and terms.
    ``below`` is the :func:`solve_at_sample` shift; the seed is the pool's.
    """
    family = pool.family
    X = family.inner_product
    mu_new = np.atleast_1d(np.asarray(mu_new, dtype=float))
    if pool.has_sample(mu_new):
        raise ArgumentError("sample already present in the pool")
    k = min(pool.ell + 1, family.n)
    pairs = solve_at_sample(family, mu_new, k, seed=pool.seed, below=below)
    pool.shift_fallbacks += pairs.shift_fallback
    vectors = pairs.vectors[:, :pool.ell]

    new_block, _ = orthonormal_columns(vectors, against=pool.basis, M=X)
    m_new = new_block.shape[1]
    if pool.dim == 0 and m_new == 0:
        raise ArgumentError("cannot start a pool with an empty block")
    if m_new:
        n, q = family.n, family.q
        pool.basis = np.hstack([pool.basis, new_block])
        applied_new = family.apply_terms(new_block)           # (Q, n, m_new)
        pool.applied = np.concatenate([pool.applied, applied_new], axis=2)
        stacked = np.hstack(applied_new)                      # (n, Q m_new)
        solved = (stacked if X is None else X.solve(stacked)).reshape(
            n, q, m_new)
        pool.reduced = _bordered(pool.reduced,
                                 pool.basis.conj().T @ applied_new)
        pool.cross = _bordered(pool.cross, np.tensordot(
            pool.applied.conj(), solved, axes=(1, 0)).transpose(0, 2, 1, 3))

    pool.append(mu_new, pairs.values[0], pairs.vectors[:, 0])
    pool.sample_values = np.vstack([pool.sample_values, pairs.values])
    X_vectors = vectors if X is None else X.matrix.matmat(vectors)
    new = pool.basis.conj().T @ X_vectors
    coeffs = np.zeros((pool.j,) + new.shape, np.result_type(pool.coeffs, new))
    coeffs[:-1, :pool.dim - m_new] = pool.coeffs
    coeffs[-1] = new
    pool.coeffs = coeffs
    pool.dropped.append(pool.ell - m_new)
    return pool


@dataclass
class RitzData:
    """Leading Ritz block of the projected problem at one parameter."""

    r: int
    values: np.ndarray        # the r smallest Ritz values, ascending
    coeffs: np.ndarray        # (dim, r) block: Ritz basis = V @ coeffs
    rho: float | None = None
    eta: float | None = None


def _hermitian_part(B):
    return 0.5 * (B + np.swapaxes(B, -1, -2).conj())


def ritz_upper_bound(pool, mu, r=1):
    """Smallest r Ritz pairs of A(mu) with respect to the pool basis.

    The first Ritz value is the subspace upper bound for the smallest
    eigenvalue; it can never exceed the classical sampled upper bound.
    """
    if pool.dim == 0:
        raise ArgumentError("subspace pool is empty")
    r = min(r, pool.dim)
    if r < 1:
        raise ArgumentError("r must be at least 1")
    th = pool.family.theta_at(mu)
    H = np.tensordot(th, pool.reduced, axes=1)
    vals, vecs = np.linalg.eigh(0.5 * (H + H.conj().T))
    return RitzData(r=r, values=vals[:r].copy(), coeffs=vecs[:, :r].copy())


def _rho_from_parts(P_block, values):
    """Residual norms from W*(V*A^2 V)W and the Ritz values.

    Works on stacks: ``P_block`` is (..., r, r), ``values`` (..., r), and
    the result holds one norm per leading index.
    """
    B = np.array(P_block, copy=True)
    diag = np.arange(values.shape[-1])
    B[..., diag, diag] -= values ** 2
    rho2 = np.linalg.eigvalsh(_hermitian_part(B))[..., -1]
    if np.any(rho2 < RHO_SQ_FLOOR):
        raise RuntimeError(
            f"negative squared residual {np.min(rho2):.3e}: reduced matrices "
            "are internally inconsistent")
    return np.sqrt(np.maximum(rho2, 0.0))


def residual_norm(pool, mu, ritz):
    """Two-norm of A(mu) U - U (U*A(mu)U) computed from reduced matrices.

    No length-n work: the squared norm is the largest eigenvalue of
    W*(V*A(mu)^2 V)W - Lambda^2.
    """
    th = pool.family.theta_at(mu)
    S = np.einsum("q,p,qpij->ij", th, th, pool.cross, optimize=True)
    W = ritz.coeffs
    return float(_rho_from_parts(W.conj().T @ S @ W, ritz.values))


def beta_gap(pool, i, u_coeffs):
    """Certified eigenvalue shift at sample i for vectors orthogonal to U.

    ``u_coeffs`` expresses the orthonormal Ritz basis U in pool-basis
    coordinates (U = V @ u_coeffs).  Returns beta_i such that every unit
    vector orthogonal to U satisfies u*A(mu_i)u >= lambda_i + beta_i,
    assuming exact eigen-data at the sample.
    """
    U = np.asarray(u_coeffs)
    if U.ndim == 1:
        U = U.reshape(-1, 1)
    r = U.shape[1]
    n = pool.family.n
    if n - r < r:
        raise ArgumentError("gap lemma requires n - r >= r")
    lam, ell = pool.sample_values[i], pool.ell
    lam_head = lam[:ell]
    lam_top = lam[min(ell, len(lam) - 1)]
    C = pool.coeffs[i]                            # (dim, ell)
    M = C.conj().T @ U                            # V_i* U
    P = np.eye(ell) - M @ M.conj().T
    # spec(P S) = spec(P^{1/2} S P^{1/2}); the symmetric square root keeps
    # the eigensolve Hermitian even though the raw product is not.
    wp, Up = np.linalg.eigh(0.5 * (P + P.conj().T))
    Ph = (Up * np.sqrt(np.clip(wp, 0.0, None))) @ Up.conj().T
    S = np.diag(lam_head - lam_top)
    smallest = float(np.linalg.eigvalsh(Ph @ S @ Ph).min())
    return smallest + float(lam_top - lam_head[0])


def _gap_shifts(pool, W):
    """beta_gap for every sample and every leading block of W, at once.

    ``W`` stacks Ritz coefficient blocks, shape (m, dim, r_hi); entry
    [k, i, r - 1] of the (m, J, r_hi) result is beta_gap(pool, i,
    W[k, :, :r]).  M = V_i* U grows by one column per r, so the Gram
    matrices M M* of all r are one cumulative sum.  For ell = 1 the lemma
    has the closed form (lam2 - lam1) * min(||M||^2, 1): the min is the
    clip of P = 1 - ||M||^2 at zero.  The caller keeps r_hi <= n / 2, the
    lemma's domain.
    """
    C, ell, lam = pool.coeffs, pool.ell, pool.sample_values
    head = lam[:, :ell]
    top = lam[:, min(ell, lam.shape[1] - 1)]
    gap = top - head[:, 0]
    G = np.swapaxes(C, 1, 2).conj() @ W[:, None]     # (m, J, ell, r_hi)
    if ell == 1:
        overlap = np.cumsum(np.abs(G[:, :, 0]) ** 2, axis=-1)
        return gap[:, None] * np.minimum(overlap, 1.0)
    P = np.eye(ell) - np.cumsum(np.einsum("mjar,mjbr->mjrab", G, G.conj()),
                                axis=2)
    wp, Up = np.linalg.eigh(_hermitian_part(P))
    Ph = (Up * np.sqrt(np.clip(wp, 0.0, None))[..., None, :]) \
        @ np.swapaxes(Up, -1, -2).conj()
    # Ph * s scales the columns: Ph @ diag(s) with s = head - top per sample
    s = (head - top[:, None])[:, None, None, :]
    smallest = np.linalg.eigvalsh((Ph * s) @ Ph)[..., 0]
    return smallest + gap[:, None]


def f_bound(lam_v1, eta, rho):
    """Quadratic residual lower bound min(lam_v1, eta) - correction.

    Monotonically increasing and continuous in eta; with rho = 0 it reduces
    to min(lam_v1, eta) (the correction's 0/0 limit at eta = lam_v1).
    Accepts scalars or broadcastable arrays.
    """
    lam_v1 = np.asarray(lam_v1, dtype=float)
    eta = np.asarray(eta, dtype=float)
    rho = np.asarray(rho, dtype=float)
    delta = np.abs(lam_v1 - eta)
    denom = delta + np.sqrt(delta * delta + 4.0 * rho * rho)
    with np.errstate(divide="ignore", invalid="ignore"):
        corr = np.where(denom > 0.0, 2.0 * rho * rho / np.where(denom > 0, denom, 1.0), 0.0)
    out = np.minimum(lam_v1, eta) - corr
    return float(out) if out.ndim == 0 else out


def _sweep_rows(pool, theta, sols, r_max):
    """Subspace bounds for coefficient rows whose LP solutions are known.

    The array core of :func:`sweep_bounds`, for one chunk of rows and the
    :class:`~eigenbounds.lp.LPBatch` ``sols`` of their solutions.
    Returns the dict of per-row arrays of :func:`sweep_bounds` plus the
    Ritz values ``vals`` (m, dim) and vectors ``vecs`` (m, dim, dim).
    """
    q, d, m = pool.family.q, pool.dim, len(theta)
    r_hi = int(min(r_max, d, pool.family.n // 2))
    rows = np.arange(m)

    H = (theta @ pool.reduced.reshape(q, -1)).reshape(m, d, d)
    vals, vecs = np.linalg.eigh(_hermitian_part(H))
    pairs = (theta[:, :, None] * theta[:, None, :]).reshape(m, q * q)
    S = (pairs @ pool.cross.reshape(q * q, -1)).reshape(m, d, d)
    W = vecs[:, :, :max(r_hi, 1)]
    P = np.swapaxes(W, 1, 2).conj() @ S @ W
    rho = np.stack([_rho_from_parts(P[:, :r, :r], vals[:, :r])
                    for r in range(1, W.shape[2] + 1)], axis=1)

    lam_lb = sols.value
    beta = _gap_shifts(pool, vecs[:, :, :r_hi])           # (m, J, r_hi)
    # a box row (sample index -1) has zero multiplier
    idx = np.where(sols.active < sols.n_rows, sols.active, -1)
    psi = sols.psi[:, None] + np.swapaxes(beta[rows[:, None], idx], 1, 2)
    eta = dual_bound(theta[:, None], sols.z[:, None], sols.theta_mat[:, None],
                     psi, pool.box.lower, pool.box.upper)
    cands = np.hstack([lam_lb[:, None],
                       f_bound(vals[:, :1], eta, rho[:, :r_hi])])

    # first maximum: ties go to the smallest r
    chosen = np.argmax(cands, axis=1)
    won = chosen > 0
    rho_c = np.full(m, math.nan)
    eta_c = np.full(m, math.nan)
    rho_c[won] = rho[won, chosen[won] - 1]
    eta_c[won] = eta[won, chosen[won] - 1]
    return {"lam_slb": cands[rows, chosen], "lam_lb": lam_lb,
            "chosen_r": chosen.astype(np.int64), "lam_sub": vals[:, 0].copy(),
            "residual": rho[:, 0].copy(), "rho": rho_c, "eta": eta_c,
            "vals": vals, "vecs": vecs}


def sweep_bounds(pool, theta, sols, r_max=None):
    """Subspace bounds at many parameters at once.

    ``theta`` (m, Q) holds the parameters' coefficient rows and ``sols``
    the :class:`~eigenbounds.lp.LPBatch` of their LP solutions over the
    pool's box, one row each (from :func:`~eigenbounds.scm.lower_bound`
    with ``theta`` as the objective stack).  Each row gets the same bounds
    as :func:`subspace_lower_bound`, from array code run in chunks of at
    most about SWEEP_CHUNK_BYTES, with the pool's ``r_max`` by default.
    Returns a dict of per-row arrays ``lam_slb``, ``lam_lb``, ``chosen_r``,
    ``lam_sub``, the r = 1 residual norm ``residual``, and the ``rho`` and
    ``eta`` of ``chosen_r`` (NaN where r = 0 wins).
    """
    if pool.dim == 0:
        raise ArgumentError("subspace pool is empty")
    r_max = _valid_r_max(r_max, pool.r_max)
    theta = np.asarray(theta, dtype=float)
    m = len(theta)
    d, j = pool.dim, pool.j
    row_bytes = 16 * (3 * d * d + pool.family.q ** 2
                      + 4 * j * min(r_max, d) * pool.ell ** 2)
    step = max(1, SWEEP_CHUNK_BYTES // row_bytes)
    parts = [_sweep_rows(pool, theta[at], sols.take(at), r_max)
             for at in (slice(lo, lo + step) for lo in range(0, m, step))]
    return {key: np.concatenate([p[key] for p in parts]) if parts else
            np.zeros(0) for key in ("lam_slb", "lam_lb", "chosen_r",
                                    "lam_sub", "residual", "rho", "eta")}


def subspace_lower_bound(pool, mu, r_max=None):
    """Best certified lower bound over Ritz-space dimensions r = 0..r_max.

    r = 0 reproduces the classical LP lower bound; each r >= 1 combines the
    Ritz residual with the gap-tightened eta.  Returns the maximum over r
    (ties broken toward the smallest r) together with the Ritz data of the
    winning r and the one-row :class:`~eigenbounds.lp.LPBatch` of the LP
    solution.  This is the one-row case of :func:`sweep_bounds`.
    """
    if pool.dim == 0:
        raise ArgumentError("subspace pool is empty")
    r_max = _valid_r_max(r_max, pool.r_max)
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    _, sol = lower_bound(pool, mu)
    out = _sweep_rows(pool, pool.family.theta_at(mu)[None], sol, r_max)
    r = int(out["chosen_r"][0])
    vals, vecs = out["vals"][0], out["vecs"][0]
    data = RitzData(r=r, values=vals[:r].copy(), coeffs=vecs[:, :r].copy())
    if r:
        data.rho = float(out["rho"][0])
        data.eta = float(out["eta"][0])
    return float(out["lam_slb"][0]), data, sol


def residual_heuristic_bound(pool, mu):
    """Upper bound minus the residual norm of the leading Ritz vector.

    A guaranteed lower bound for *some* eigenvalue of A(mu) (first-order
    perturbation), not necessarily the smallest; cheap and often much
    tighter early on.  Returns (value, residual_norm).
    """
    ritz = ritz_upper_bound(pool, mu, r=1)
    rho = residual_norm(pool, mu, ritz)
    return float(ritz.values[0] - rho), rho


def subspace_greedy(family, train, eps=1e-4, j_max=200, ell=1, r_max=None,
                    mode="certified", *, warm_start=True, oracle=None,
                    seed=0):
    """Greedy loop driven by the subspace bounds.

    ``mode='certified'`` selects/stops on the relative gap between the
    subspace bounds; ``mode='heuristic'`` uses the relative Ritz residual
    instead (cheaper to trust, not guaranteed).  Each iteration sweeps the
    whole training set with :meth:`SubspacePool.bounds_at`.

    Returns a GreedyResult whose tables also include the classical bounds
    for comparison.
    """
    if mode not in ("certified", "heuristic"):
        raise ArgumentError(f"unknown mode {mode!r}")
    return _greedy(SubspacePool(family, ell=ell, r_max=r_max, seed=seed),
                   train, eps, j_max, warm_start=warm_start, oracle=oracle,
                   mode=mode)
