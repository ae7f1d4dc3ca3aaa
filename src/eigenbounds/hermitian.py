"""Hermitian operators and the eigensolvers used throughout the package.

Every bound computation in this package reduces to three primitives: the k
smallest eigenpairs of a large Hermitian operator (restarted block Lanczos),
the extreme eigenvalues of a single term (for the bounding box), and full
eigendecompositions of small projected matrices.  Operators come in three
storage flavours: dense arrays, sparse matrices, and "sandwich" products
L^{-1} M L^{-T} that are applied through triangular solves and never formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sparse
from scipy.linalg import get_lapack_funcs, solve_triangular

__all__ = [
    "ArgumentError",
    "EigensolverError",
    "NotPositiveDefiniteError",
    "HermitianOperator",
    "DenseHermitian",
    "SparseHermitian",
    "SandwichHermitian",
    "ProductHermitian",
    "EigenPairs",
    "CholeskyFactor",
    "hermitian",
    "orthonormal_columns",
    "smallest_eigpairs",
    "extreme_eigs",
    "dense_smallest",
    "cholesky",
]

DENSE_FALLBACK_SIZE = 72
REDUCED_SIZE_CAP = 2000
DENSIFY_CAP = 4096


class ArgumentError(ValueError):
    """Raised when an operation is called outside its contract."""


class NotPositiveDefiniteError(ValueError):
    """Cholesky failure; ``pivot`` is the 1-based index of the bad pivot."""

    def __init__(self, pivot):
        super().__init__(f"matrix is not positive definite (pivot {pivot})")
        self.pivot = pivot


class EigensolverError(RuntimeError):
    """Iterative eigensolver ran out of restarts.

    Carries the best iterate so far in ``best`` (an :class:`EigenPairs`)
    so the caller can inspect residuals or retry with a different seed.
    """

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


@dataclass(frozen=True)
class EigenPairs:
    """Ascending eigenvalues with an orthonormal block of eigenvectors."""

    values: np.ndarray    # (k,) real, ascending
    vectors: np.ndarray   # (n, k) orthonormal columns
    residuals: np.ndarray # (k,) two-norms of A v - lambda v

    @property
    def count(self):
        return len(self.values)


class HermitianOperator:
    """A self-adjoint linear operator on R^n or C^n.

    Subclasses implement :meth:`matmat`.  Instances are immutable after
    construction and safe to share across threads.
    """

    n: int
    iscomplex: bool
    symmetrization_defect: float

    def matmat(self, X):
        raise NotImplementedError

    def matvec(self, x):
        return self.matmat(np.asarray(x).reshape(-1, 1))[:, 0]

    def dense(self, max_n=DENSIFY_CAP):
        """Materialize the operator as a dense array (guarded by ``max_n``)."""
        if self.n > max_n:
            raise ArgumentError(
                f"refusing to densify operator of dimension {self.n} > {max_n}")
        eye = np.eye(self.n, dtype=complex if self.iscomplex else float)
        return self.matmat(eye)

    def __neg__(self):
        return _Negated(self)


class _Negated(HermitianOperator):
    def __init__(self, inner):
        self.inner = inner
        self.n = inner.n
        self.iscomplex = inner.iscomplex
        self.symmetrization_defect = inner.symmetrization_defect

    def matmat(self, X):
        return -self.inner.matmat(X)

    def __neg__(self):
        return self.inner


class DenseHermitian(HermitianOperator):
    """Dense Hermitian matrix, symmetrized on construction."""

    def __init__(self, array):
        A = np.asarray(array)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ArgumentError("expected a square matrix")
        if A.shape[0] < 1:
            raise ArgumentError("dimension must be positive")
        self.iscomplex = np.iscomplexobj(A)
        A = A.astype(complex if self.iscomplex else float)
        H = 0.5 * (A + A.conj().T)
        defect = np.linalg.norm(A - H)
        scale = max(np.linalg.norm(H), 1.0)
        self.array = H
        self.n = A.shape[0]
        self.symmetrization_defect = float(defect / scale)

    def matmat(self, X):
        return self.array @ X

    def dense(self, max_n=DENSIFY_CAP):
        return self.array


class SparseHermitian(HermitianOperator):
    """Sparse Hermitian matrix in CSR form, symmetrized on construction."""

    def __init__(self, matrix):
        A = sparse.csr_matrix(matrix)
        if A.shape[0] != A.shape[1]:
            raise ArgumentError("expected a square matrix")
        self.iscomplex = np.iscomplexobj(A.data) if A.nnz else False
        H = 0.5 * (A + A.conj().T)
        defect = sparse.linalg.norm(A - H) if A.nnz else 0.0
        scale = max(sparse.linalg.norm(H), 1.0) if H.nnz else 1.0
        self.matrix = H.tocsr()
        self.n = A.shape[0]
        self.symmetrization_defect = float(defect / scale)

    def matmat(self, X):
        return self.matrix @ X

    def dense(self, max_n=DENSIFY_CAP):
        if self.n > max_n:
            raise ArgumentError(
                f"refusing to densify operator of dimension {self.n} > {max_n}")
        return self.matrix.toarray()


class SandwichHermitian(HermitianOperator):
    """The operator L^{-1} M L^{-T} applied through triangular solves.

    Hermitian by construction whenever ``middle`` is Hermitian; nothing of
    size n x n is ever formed beyond the stored factor.
    """

    def __init__(self, factor, middle):
        self.factor = factor
        self.middle = middle
        self.n = middle.n
        self.iscomplex = middle.iscomplex or np.iscomplexobj(factor.L)
        self.symmetrization_defect = middle.symmetrization_defect

    def matmat(self, X):
        T = self.factor.solve_upper(X)        # L^{-T} X  (L^{-*} in the complex case)
        U = self.middle.matmat(T)
        return self.factor.solve_lower(U)     # L^{-1} (...)


class ProductHermitian(HermitianOperator):
    """Operator given by a callable block product, Hermitian by construction."""

    def __init__(self, apply_fn, n, iscomplex=False):
        self._apply = apply_fn
        self.n = n
        self.iscomplex = iscomplex
        self.symmetrization_defect = 0.0

    def matmat(self, X):
        return self._apply(X)


def hermitian(matrix):
    """Wrap an array or sparse matrix as a :class:`HermitianOperator`."""
    if isinstance(matrix, HermitianOperator):
        return matrix
    if sparse.issparse(matrix):
        return SparseHermitian(matrix)
    return DenseHermitian(matrix)


@dataclass(frozen=True)
class CholeskyFactor:
    """Lower-triangular factor L with L L* = X."""

    L: np.ndarray
    permutation: object = None  # dense factorization uses no pivoting

    @property
    def n(self):
        return self.L.shape[0]

    def solve_lower(self, B):
        """L^{-1} B."""
        return solve_triangular(self.L, B, lower=True, check_finite=False)

    def solve_upper(self, B):
        """L^{-*} B."""
        return solve_triangular(self.L, B, lower=True, trans='C',
                                check_finite=False)

    def reconstruct(self):
        return self.L @ self.L.conj().T


def cholesky(X, max_n=DENSIFY_CAP):
    """Cholesky factorization X = L L* of a symmetric positive definite X.

    Sparse input is densified up to ``max_n``; a non-positive pivot raises
    :class:`NotPositiveDefiniteError` with the 1-based pivot index.
    """
    op = hermitian(X)
    A = op.dense(max_n=max_n)
    potrf, = get_lapack_funcs(("potrf",), (A,))
    L, info = potrf(A, lower=1, clean=1, overwrite_a=0)
    if info > 0:
        raise NotPositiveDefiniteError(pivot=int(info))
    if info < 0:
        raise ArgumentError(f"illegal argument {-info} to potrf")
    return CholeskyFactor(L=L)


def orthonormal_columns(X, against=None, drop_tol=1e-10):
    """Two-pass Gram-Schmidt orthonormalization with near-dependence dropping.

    Orthogonalizes the columns of ``X`` against ``against`` (if given) and
    against each other; columns whose norm falls below ``drop_tol`` times the
    original column norm are dropped.  Returns (Q, kept_indices).
    """
    X = np.array(X, dtype=complex if np.iscomplexobj(X) else float, copy=True)
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    orig = np.linalg.norm(X, axis=0)
    orig[orig == 0.0] = 1.0
    cols = []
    kept = []
    for j in range(X.shape[1]):
        v = X[:, j]
        for _ in range(2):
            if against is not None and against.shape[1]:
                v = v - against @ (against.conj().T @ v)
            for q in cols:
                v = v - q * np.vdot(q, v)
        nrm = np.linalg.norm(v)
        if nrm <= drop_tol * orig[j]:
            continue
        cols.append(v / nrm)
        kept.append(j)
    if not cols:
        shape = (X.shape[0], 0)
        return np.zeros(shape, dtype=X.dtype), []
    return np.column_stack(cols), kept


def _dense_eigpairs(op, k):
    """Exact smallest eigenpairs through a full dense eigendecomposition."""
    A = op.dense()
    w, S = np.linalg.eigh(A)
    V = S[:, :k]
    R = A @ V - V * w[:k]
    return EigenPairs(values=w[:k].copy(),
                      vectors=np.ascontiguousarray(V),
                      residuals=np.linalg.norm(R, axis=0))


def _random_block(rng, n, b, iscomplex):
    X = rng.standard_normal((n, b))
    if iscomplex:
        X = X + 1j * rng.standard_normal((n, b))
    return X


def smallest_eigpairs(A, k, tol=1e-6, seed=0, restart_cap=None):
    """The k smallest eigenpairs of a Hermitian operator.

    Restarted block Lanczos with thick restart: each cycle extends a block
    Krylov basis (block size k+2, two-pass reorthogonalization against the
    whole basis), performs a Rayleigh-Ritz extraction and restarts from the
    leading Ritz block.  Converged when every requested pair has residual
    norm at most ``tol`` times a running spectral-radius estimate.

    Parameters
    ----------
    A : HermitianOperator or array-like
    k : number of smallest eigenpairs, 1 <= k < n
    tol : relative residual tolerance
    seed : seed for the random starting block (determinism)
    restart_cap : maximum restart cycles; defaults to 50*k

    Raises
    ------
    ArgumentError if k is out of range, EigensolverError (carrying the best
    iterate) on non-convergence.
    """
    op = hermitian(A)
    n = op.n
    if not isinstance(k, (int, np.integer)) or not 1 <= k < n:
        raise ArgumentError(f"k must satisfy 1 <= k < n, got k={k}, n={n}")
    if not tol > 0:
        raise ArgumentError("tol must be positive")
    if n <= DENSE_FALLBACK_SIZE:
        return _dense_eigpairs(op, k)

    rng = np.random.default_rng(seed)
    b = min(k + 2, n - 1)
    m_max = min(n, max(48, 6 * b))
    m_cap = min(n, max(256, 12 * b))
    cap = restart_cap if restart_cap is not None else 50 * k

    V, _ = orthonormal_columns(_random_block(rng, n, b, op.iscomplex))
    scale = 0.0
    best = None
    prev_res = math.inf
    stall = 0
    for _cycle in range(cap):
        V = _expand_basis(op, V, b, m_max, rng)
        AV = op.matmat(V)
        H = V.conj().T @ AV
        H = 0.5 * (H + H.conj().T)
        w, S = np.linalg.eigh(H)
        scale = max(scale, abs(w[0]), abs(w[-1]))
        Y = V @ S[:, :k]
        R = AV @ S[:, :k] - Y * w[:k]
        res = np.linalg.norm(R, axis=0)
        if best is None or res.max() < best.residuals.max():
            best = EigenPairs(values=w[:k].real.copy(), vectors=Y,
                              residuals=res)
        if np.all(res <= tol * max(scale, np.finfo(float).tiny)):
            return EigenPairs(values=w[:k].real.copy(), vectors=Y,
                              residuals=res)
        # clustered spectra stall restarted iterations; widen the basis
        if res.max() > 0.5 * prev_res:
            stall += 1
            if stall >= 2 and m_max < m_cap:
                m_max = min(m_cap, 2 * m_max)
                stall = 0
        else:
            stall = 0
        prev_res = min(prev_res, res.max())
        keep = min(V.shape[1], k + b)
        V = V @ S[:, :keep]
    raise EigensolverError(
        f"no convergence within {cap} restarts (best residual "
        f"{best.residuals.max():.3e}, tol {tol:.1e}, scale {scale:.3e})",
        best=best)


def _expand_basis(op, V, b, m_max, rng):
    """Grow an orthonormal basis by block Krylov steps until m_max columns.

    The chain is seeded with the leading block (after a restart these are
    the best Ritz vectors, so the first expansion adds their residual
    directions).
    """
    X = V[:, :min(b, V.shape[1])]
    while V.shape[1] < m_max:
        width = min(b, m_max - V.shape[1])
        W = op.matmat(X[:, :width] if X.shape[1] >= width else X)
        Qn, _ = orthonormal_columns(W, against=V)
        if Qn.shape[1] == 0:
            # Krylov space exhausted; enrich with random directions.
            W = _random_block(rng, op.n, width, op.iscomplex)
            Qn, _ = orthonormal_columns(W, against=V)
            if Qn.shape[1] == 0:
                break
        Qn = Qn[:, :m_max - V.shape[1]]
        V = np.hstack([V, Qn])
        X = Qn
    return V


def extreme_eigs(A, tol=1e-6, seed=0):
    """Smallest and largest eigenvalue of a Hermitian operator.

    The largest eigenvalue is obtained by running the smallest-eigenvalue
    solver on -A, so extreme_eigs(-A) == -reversed(extreme_eigs(A)) holds
    exactly by construction.
    """
    op = hermitian(A)
    if op.n == 1:
        d = float(np.real(op.matvec(np.ones(1))[0]))
        return d, d
    lo = smallest_eigpairs(op, 1, tol=tol, seed=seed).values[0]
    hi = -smallest_eigpairs(-op, 1, tol=tol, seed=seed).values[0]
    return float(lo), float(hi)


def dense_smallest(H, r, size_cap=REDUCED_SIZE_CAP):
    """The r smallest eigenpairs of a small dense Hermitian matrix.

    Full symmetric eigendecomposition; ``size_cap`` guards against reduced
    problems growing unexpectedly large.
    """
    H = np.asarray(H)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ArgumentError("expected a square matrix")
    m = H.shape[0]
    if m > size_cap:
        raise ArgumentError(f"reduced problem of size {m} exceeds cap {size_cap}")
    if not 1 <= r <= m:
        raise ArgumentError(f"r must satisfy 1 <= r <= {m}, got {r}")
    Hs = 0.5 * (H + H.conj().T)
    w, S = np.linalg.eigh(Hs)
    V = S[:, :r]
    R = Hs @ V - V * w[:r]
    return EigenPairs(values=w[:r].copy(), vectors=np.ascontiguousarray(V),
                      residuals=np.linalg.norm(R, axis=0))
