"""Subspace-accelerated bounds for the parametric smallest eigenvalue.

Sampled eigenvectors are accumulated in an orthonormal basis V with
precomputed reduced matrices V*A_q V and V*A_q A_q' V, so that for every
parameter the Ritz upper bound, the Ritz residual and the gap-tightened
lower bound all come from small dense problems:

* upper bound: smallest eigenvalue of the projected matrix V*A(mu)V;
* lower bound: a quadratic residual perturbation bound applied to the
  leading Ritz block, with the unknown complementary-subspace eigenvalue
  replaced by eta from the tightened active-set LP system.

With an inner product X, V is X-orthonormal; A_q A_q' reads A_q X^{-1} A_q'.

:func:`sweep_bounds` evaluates these bounds for a whole batch of
parameters with array code, given their LP solutions: one GEMM builds
every projected matrix and one every projected A(mu)^2, a stacked
eigensolve gives all Ritz pairs, the residuals of every Ritz dimension r
come from one stacked eigensolve per r, the gap-lemma shifts of every
sample and every r from the sample-to-Ritz overlaps, and eta for every r
from one stacked active-set solve.  The per-parameter functions
(:func:`ritz_upper_bound`, :func:`residual_norm`, :func:`beta_gap`)
compute the same quantities one point at a time and serve as the
reference.

:class:`SubspacePool` extends the classical SCM sample set, and
:func:`subspace_greedy` runs the SCM greedy loop with :func:`sweep_bounds`
as its bound step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

# bench/tracer.py patches these names in this module, so they stay bound
# here: compute_bounding_box is called by the greedy loop in scm, and
# tighten_and_resolve is the per-point form of the eta step in _sweep_rows.
from .family import compute_bounding_box  # noqa: F401
from .hermitian import ArgumentError, orthonormal_columns
from .lp import _CONDITION_CAP, tighten_and_resolve  # noqa: F401
from .scm import ScmState, _greedy, lower_bound, solve_at_sample

__all__ = [
    "SubspacePool",
    "RitzData",
    "SweepBounds",
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

DROP_TOL = 1e-10
RHO_SQ_FLOOR = -1e-10
# Bytes of stacked per-parameter arrays one chunk of a sweep may hold.
SWEEP_CHUNK_BYTES = 1 << 22


class SubspacePool(ScmState):
    """Samples, their eigen-data, the joint basis and its reduced matrices."""

    def __init__(self, family, ell=1):
        if ell < 1:
            raise ArgumentError("ell must be at least 1")
        super().__init__(family)
        self.ell = int(min(ell, family.n))
        n, q = family.n, family.q
        self.sample_values = []   # per sample: ascending, up to ell+1 values
        self.coeffs = []          # per sample: basis coefficients of its vectors
        self.dropped = []         # per sample: number of near-dependent vectors
        self.basis = np.zeros((n, 0))
        self.applied = [np.zeros((n, 0)) for _ in range(q)]   # A_q V
        self.reduced = np.zeros((q, 0, 0))                    # V* A_q V
        self.cross = np.zeros((q, q, 0, 0))           # V* A_q X^{-1} A_q' V

    @property
    def dim(self):
        return self.basis.shape[1]

    def add_sample(self, mu, seed=0):
        append_sample(self, mu, seed=seed)

    def sample_coeffs(self, i):
        """Basis coefficients of sample i's eigenvectors, zero-padded."""
        C = self.coeffs[i]
        if C.shape[0] < self.dim:
            pad = np.zeros((self.dim - C.shape[0], C.shape[1]), dtype=C.dtype)
            C = np.vstack([C, pad])
        return C


def append_sample(pool, mu_new, seed=0):
    """Solve at a new sample and extend the pool incrementally.

    Requests ell+1 eigenvalues (one more than the number of vectors kept:
    the extra value feeds the gap lemma) and ell eigenvectors, orthogonalizes
    the new vectors against the basis with a drop tolerance for
    near-dependence, and extends the reduced and cross matrices with only
    the new rows/columns (with an inner product X, one solve with X per new
    column and term).
    """
    family = pool.family
    X = family.inner_product
    mu_new = np.atleast_1d(np.asarray(mu_new, dtype=float))
    if pool.has_sample(mu_new):
        raise ArgumentError("sample already present in the pool")
    k = min(pool.ell + 1, family.n)
    pairs = solve_at_sample(family, mu_new, k, seed=seed)
    ell_eff = min(pool.ell, pairs.vectors.shape[1])
    vectors = pairs.vectors[:, :ell_eff]

    new_block, kept = orthonormal_columns(vectors, against=pool.basis,
                                          drop_tol=DROP_TOL, M=X)
    if pool.basis.shape[1] == 0 and new_block.shape[1] == 0:
        raise ArgumentError("cannot start a pool with an empty block")
    basis = np.hstack([pool.basis, new_block]) if new_block.shape[1] else pool.basis

    q = family.q
    m_old = pool.dim
    m_new = new_block.shape[1]
    if m_new:
        applied_new = [family.terms[qi].matmat(new_block) for qi in range(q)]
        solved_new = [a if X is None else X.solve(a) for a in applied_new]
        m = m_old + m_new
        reduced = np.zeros((q, m, m), dtype=np.result_type(basis, float))
        cross = np.zeros((q, q, m, m), dtype=reduced.dtype)
        for qi in range(q):
            reduced[qi, :m_old, :m_old] = pool.reduced[qi]
            tr = pool.basis.conj().T @ applied_new[qi] if m_old else \
                np.zeros((0, m_new))
            reduced[qi, :m_old, m_old:] = tr
            reduced[qi, m_old:, :m_old] = tr.conj().T
            br = new_block.conj().T @ applied_new[qi]
            reduced[qi, m_old:, m_old:] = 0.5 * (br + br.conj().T)
        for qi in range(q):
            for qj in range(q):
                cross[qi, qj, :m_old, :m_old] = pool.cross[qi, qj]
                if m_old:
                    cross[qi, qj, :m_old, m_old:] = \
                        pool.applied[qi].conj().T @ solved_new[qj]
                    cross[qi, qj, m_old:, :m_old] = \
                        solved_new[qi].conj().T @ pool.applied[qj]
                cross[qi, qj, m_old:, m_old:] = \
                    applied_new[qi].conj().T @ solved_new[qj]
        pool.applied = [np.hstack([pool.applied[qi], applied_new[qi]])
                        for qi in range(q)]
        pool.reduced = reduced
        pool.cross = cross
        pool.basis = basis

    pool.append(mu_new, pairs.values[0], pairs.vectors[:, 0])
    pool.sample_values.append(pairs.values.copy())
    X_vectors = vectors if X is None else X.matrix.matmat(vectors)
    pool.coeffs.append(pool.basis.conj().T @ X_vectors if pool.dim else
                       np.zeros((0, ell_eff)))
    pool.dropped.append(ell_eff - m_new)
    return pool


@dataclass
class RitzData:
    """Leading Ritz block of the projected problem at one parameter."""

    mu: np.ndarray
    r: int
    values: np.ndarray        # the r smallest Ritz values, ascending
    coeffs: np.ndarray        # (dim, r) block: Ritz basis = V @ coeffs
    rho: float | None = None
    eta: float | None = None
    eta_fallback: str | None = None
    clamped: bool = False     # r was clamped to the pool dimension
    chosen: bool = False      # selected by the r-sweep


def _reduced_matrix(pool, th):
    return np.tensordot(th, pool.reduced, axes=1)


def _cross_matrix(pool, th):
    return np.einsum("q,p,qpij->ij", th, th, pool.cross, optimize=True)


def _hermitian_part(B):
    return 0.5 * (B + np.swapaxes(B, -1, -2).conj())


def ritz_upper_bound(pool, mu, r=1):
    """Smallest r Ritz pairs of A(mu) with respect to the pool basis.

    The first Ritz value is the subspace upper bound for the smallest
    eigenvalue; it can never exceed the classical sampled upper bound.
    """
    if pool.dim == 0:
        raise ArgumentError("subspace pool is empty")
    clamped = r > pool.dim
    r = min(r, pool.dim)
    if r < 1:
        raise ArgumentError("r must be at least 1")
    th = pool.family.theta_at(mu)
    H = _reduced_matrix(pool, th)
    vals, vecs = np.linalg.eigh(0.5 * (H + H.conj().T))
    return RitzData(mu=np.atleast_1d(np.asarray(mu, dtype=float)), r=r,
                    values=vals[:r].copy(), coeffs=vecs[:, :r].copy(),
                    clamped=clamped)


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
        raise ArgumentError(
            f"negative squared residual {np.min(rho2):.3e}: reduced matrices "
            "are internally inconsistent")
    return np.sqrt(np.maximum(rho2, 0.0))


def residual_norm(pool, mu, ritz):
    """Two-norm of A(mu) U - U (U*A(mu)U) computed from reduced matrices.

    No length-n work: the squared norm is the largest eigenvalue of
    W*(V*A(mu)^2 V)W - Lambda^2.
    """
    th = pool.family.theta_at(mu)
    S = _cross_matrix(pool, th)
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
    lam = pool.sample_values[i]
    ell = pool.coeffs[i].shape[1]
    lam_head = lam[:ell]
    lam_top = lam[ell] if len(lam) > ell else lam[-1]
    C = pool.sample_coeffs(i)                     # (dim, ell)
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
    C = np.stack([pool.sample_coeffs(i) for i in range(pool.j)])
    ell = C.shape[2]                                 # C is (J, dim, ell)
    head = np.array([lam[:ell] for lam in pool.sample_values])
    top = np.array([lam[ell] if len(lam) > ell else lam[-1]
                    for lam in pool.sample_values])
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

    The array core of :func:`sweep_bounds`, for one chunk of rows.
    Returns a dict of per-row arrays (see :class:`SweepBounds`) plus the
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

    lam_lb = np.array([sol.value for sol in sols], dtype=float)
    eta = np.full((m, r_hi), math.nan)
    fallback = np.full(m, None, dtype=object)
    cands = lam_lb[:, None]
    if r_hi:
        beta = _gap_shifts(pool, vecs[:, :, :r_hi])
        solve_rows, mats, rhs = [], [], []
        for k, sol in enumerate(sols):
            active = [(pos, tag[1]) for pos, tag in enumerate(sol.active)
                      if tag[0] == "sample"]
            if not active:
                fallback[k] = "all_box"
            elif sol.condition > _CONDITION_CAP:
                fallback[k] = "ill_conditioned"
            if fallback[k]:
                eta[k] = sol.value
                continue
            pos, idx = (list(v) for v in zip(*active))
            bumps = np.zeros((q, r_hi))
            bumps[pos] = beta[k, idx]
            solve_rows.append(k)
            mats.append(sol.theta_mat)
            rhs.append(sol.psi[:, None] + bumps)
        if solve_rows:
            # one stacked solve of every row's active-set system, with one
            # right-hand side per r
            Y = np.linalg.solve(np.stack(mats), np.stack(rhs))
            eta[solve_rows] = (theta[solve_rows, None, :] @ Y)[:, 0, :]
        cands = np.hstack([cands, f_bound(vals[:, :1], eta, rho[:, :r_hi])])

    # first maximum: ties go to the smallest r
    chosen = np.argmax(cands, axis=1)
    won = chosen > 0
    rho_c = np.full(m, math.nan)
    eta_c = np.full(m, math.nan)
    fallback_c = np.full(m, None, dtype=object)
    rho_c[won] = rho[won, chosen[won] - 1]
    eta_c[won] = eta[won, chosen[won] - 1]
    fallback_c[won] = fallback[won]
    return {"lam_slb": cands[rows, chosen], "lam_lb": lam_lb,
            "chosen_r": chosen.astype(np.int64), "lam_sub": vals[:, 0].copy(),
            "residual": rho[:, 0].copy(), "rho": rho_c, "eta": eta_c,
            "eta_fallback": fallback_c, "vals": vals, "vecs": vecs}


@dataclass
class SweepBounds:
    """Bounds from one batched sweep, one entry per swept parameter.

    ``rho``, ``eta`` and ``eta_fallback`` belong to the winning Ritz
    dimension ``chosen_r`` (NaN / None where r = 0 wins); ``residual`` is
    the r = 1 residual norm.
    """

    lam_slb: np.ndarray
    lam_lb: np.ndarray
    chosen_r: np.ndarray
    lam_sub: np.ndarray
    residual: np.ndarray
    rho: np.ndarray
    eta: np.ndarray
    eta_fallback: np.ndarray


def sweep_bounds(pool, theta, sols, r_max=None):
    """Subspace bounds at many parameters at once.

    ``theta`` (m, Q) holds the parameters' coefficient rows and ``sols``
    their LP solutions (from :func:`~eigenbounds.scm.lower_bound`), which
    must be optimal for the pool's constraints.  Each row gets the same
    bounds as :func:`subspace_lower_bound`, from array code run in chunks
    of at most about SWEEP_CHUNK_BYTES.
    """
    if pool.dim == 0:
        raise ArgumentError("subspace pool is empty")
    if r_max is None:
        r_max = pool.family.q
    theta = np.asarray(theta, dtype=float)
    m = len(theta)
    d, j = pool.dim, pool.j
    row_bytes = 16 * (3 * d * d + pool.family.q ** 2
                      + 4 * j * min(r_max, d) * pool.ell ** 2)
    step = max(1, SWEEP_CHUNK_BYTES // row_bytes)
    parts = [_sweep_rows(pool, theta[lo:lo + step], sols[lo:lo + step], r_max)
             for lo in range(0, m, step)]
    return SweepBounds(**{
        f.name: np.concatenate([p[f.name] for p in parts]) if parts else
        np.zeros(0) for f in fields(SweepBounds)})


def subspace_lower_bound(pool, box, mu, r_max=None, warm=None, lp_tol=1e-8):
    """Best certified lower bound over Ritz-space dimensions r = 0..r_max.

    r = 0 reproduces the classical LP lower bound; each r >= 1 combines the
    Ritz residual with the gap-tightened eta.  Returns the maximum over r
    (ties broken toward the smallest r) together with the Ritz data of the
    winning r and the LP solution.  This is the one-row case of
    :func:`sweep_bounds`, with ``warm`` offered to the LP solver.
    """
    if pool.dim == 0:
        raise ArgumentError("subspace pool is empty")
    if r_max is None:
        r_max = pool.family.q
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    _, sol = lower_bound(pool, box, mu, warm=warm, lp_tol=lp_tol)
    out = _sweep_rows(pool, pool.family.theta_at(mu)[None], [sol], r_max)
    r = int(out["chosen_r"][0])
    vals, vecs = out["vals"][0], out["vecs"][0]
    data = RitzData(mu=mu, r=r, values=vals[:r].copy(),
                    coeffs=vecs[:, :r].copy(), chosen=True)
    if r:
        data.rho = float(out["rho"][0])
        data.eta = float(out["eta"][0])
        data.eta_fallback = out["eta_fallback"][0]
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
                    lp_tol=1e-8, seed=0):
    """Greedy loop driven by the subspace bounds.

    ``mode='certified'`` selects/stops on the relative gap between the
    subspace bounds; ``mode='heuristic'`` uses the relative Ritz residual
    instead (cheaper to trust, not guaranteed).  Each iteration sweeps the
    whole training set with :func:`sweep_bounds`.

    Returns a GreedyResult whose tables also include the classical bounds
    for comparison.
    """
    if mode not in ("certified", "heuristic"):
        raise ArgumentError(f"unknown mode {mode!r}")
    if r_max is not None and r_max < 0:
        raise ArgumentError("r_max must be non-negative")
    pool = SubspacePool(family, ell=ell)

    def sweep(tables, theta, sols):
        out = sweep_bounds(pool, theta, sols, r_max=r_max)
        for key in ("lam_slb", "lam_sub", "residual", "chosen_r"):
            tables[key][:] = getattr(out, key)
        tables["heuristic"][:] = out.lam_sub - out.residual

    return _greedy(pool, train, eps, j_max, warm_start=warm_start,
                   oracle=oracle, lp_tol=lp_tol, seed=seed, sweep=sweep,
                   mode=mode)
