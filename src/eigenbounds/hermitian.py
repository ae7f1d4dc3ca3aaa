"""Hermitian operators and the eigensolvers used throughout the package.

Every bound computation in this package reduces to three primitives: the k
smallest eigenpairs of a large Hermitian operator (ARPACK's implicitly
restarted Lanczos, run to working precision), the extreme eigenvalues of a
single term (for the bounding box), and full eigendecompositions of small
projected matrices.  The iterative eigenpairs carry explicitly computed
residual norms: each Ritz value lies within ||r|| of an eigenvalue, and it
is the wanted one provided ARPACK missed no eigenvalue below it.  Operators
are stored matrices, dense or sparse, and each negates exactly.  Given the
sparse factor of an SPD X (:func:`cholesky`), the eigensolvers solve the
pencil (A, X): X-orthonormal vectors, residuals in the X^{-1} norm.  Given
a shift below the spectrum, a sparse eigensolve runs ARPACK in shift-invert
mode on the factor of A - sigma X (spectral-transformation Lanczos,
Ericsson & Ruhe, Math. Comp. 35, 1980); the factor's pivots certify the
shift by Sylvester's law of inertia.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sparse
from scipy.sparse.linalg import (ArpackNoConvergence, LinearOperator, eigsh,
                                 splu)

__all__ = [
    "ArgumentError",
    "EigensolverError",
    "NotPositiveDefiniteError",
    "HermitianOperator",
    "DenseHermitian",
    "SparseHermitian",
    "EigenPairs",
    "SpdFactor",
    "hermitian",
    "orthonormal_columns",
    "smallest_eigpairs",
    "extreme_eigs",
    "dense_smallest",
    "cholesky",
]

DENSE_FALLBACK_SIZE = 72
DENSIFY_CAP = 4096


class ArgumentError(ValueError):
    """Raised when an operation is called outside its contract."""


class NotPositiveDefiniteError(ValueError):
    """Factorization failure at 1-based ``pivot`` (None: exactly singular)."""

    def __init__(self, pivot):
        where = "exactly singular" if pivot is None else f"pivot {pivot}"
        super().__init__(f"matrix is not positive definite ({where})")
        self.pivot = pivot


class EigensolverError(RuntimeError):
    """Iterative eigensolver ran out of restarts.

    Carries the pairs that did converge in ``best`` (an :class:`EigenPairs`
    with fewer than the requested count, possibly none) so the caller can
    inspect residuals or retry with a different seed.
    """

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


@dataclass(frozen=True)
class EigenPairs:
    """Ascending eigenvalues with an orthonormal block of eigenvectors."""

    values: np.ndarray    # (k,) real, ascending
    vectors: np.ndarray   # (n, k) orthonormal (X-orthonormal) columns
    residuals: np.ndarray # (k,) norms of A v - lambda v (or - lambda X v)
    shift_fallback: bool = False  # a shift failed the factor test (unshifted)

    @property
    def count(self):
        return len(self.values)


class HermitianOperator:
    """A self-adjoint matrix on R^n or C^n, stored dense or sparse.

    Subclasses implement :meth:`matmat`, :meth:`dense` and negation.
    Instances are immutable after construction and safe to share across
    threads.
    """

    n: int
    iscomplex: bool

    def matmat(self, X):
        raise NotImplementedError

    def matvec(self, x):
        return self.matmat(np.asarray(x).reshape(-1, 1))[:, 0]


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
        self.array = 0.5 * (A + A.conj().T)
        self.n = A.shape[0]

    def matmat(self, X):
        return self.array @ X

    def dense(self):
        return self.array

    def __neg__(self):
        return DenseHermitian(-self.array)


class SparseHermitian(HermitianOperator):
    """Sparse Hermitian matrix in CSR form, symmetrized on construction."""

    def __init__(self, matrix):
        A = sparse.csr_matrix(matrix)
        if A.shape[0] != A.shape[1]:
            raise ArgumentError("expected a square matrix")
        self.iscomplex = np.iscomplexobj(A.data) if A.nnz else False
        self.matrix = (0.5 * (A + A.conj().T)).tocsr()
        self.n = A.shape[0]

    def matmat(self, X):
        return self.matrix @ X

    def dense(self):
        """The matrix as a dense array (n <= DENSIFY_CAP)."""
        if self.n > DENSIFY_CAP:
            raise ArgumentError(f"refusing to densify operator of dimension "
                                f"{self.n} > {DENSIFY_CAP}")
        return self.matrix.toarray()

    def __neg__(self):
        return SparseHermitian(-self.matrix)


def hermitian(matrix):
    """Wrap an array or sparse matrix as a :class:`HermitianOperator`."""
    if isinstance(matrix, HermitianOperator):
        return matrix
    if sparse.issparse(matrix):
        return SparseHermitian(matrix)
    return DenseHermitian(matrix)


@dataclass(frozen=True)
class SpdFactor:
    """An SPD matrix X with its sparse factor; made by :func:`cholesky`."""

    matrix: SparseHermitian    # X
    lu: object                 # SuperLU factor of X

    @property
    def n(self):
        return self.matrix.n

    def solve(self, B):
        """X^{-1} B for a vector or a block of columns."""
        if np.iscomplexobj(B) and not self.matrix.iscomplex:
            return self.lu.solve(B.real) + 1j * self.lu.solve(B.imag)
        return self.lu.solve(B)


def cholesky(X):
    """Sparse factorization of a symmetric positive definite X, never dense.

    SuperLU in symmetric mode pivots on the diagonal only: P X P^T = L D L^T,
    and X is positive definite iff every pivot is positive.  A non-positive
    or skipped pivot raises NotPositiveDefiniteError with its index in X.
    """
    op = SparseHermitian(X)
    try:
        lu = splu(op.matrix.tocsc(), permc_spec="MMD_AT_PLUS_A",
                  diag_pivot_thresh=0, options={"SymmetricMode": True})
    except RuntimeError as exc:          # "Factor is exactly singular"
        raise NotPositiveDefiniteError(pivot=None) from exc
    # pivot k sits at row order_r[k] and column order_c[k] of X
    order_r, order_c = np.argsort(lu.perm_r), np.argsort(lu.perm_c)
    bad = np.flatnonzero((order_r != order_c)
                         | ~(np.real(lu.U.diagonal()) > 0.0))
    if bad.size:
        raise NotPositiveDefiniteError(pivot=int(order_c[bad[0]]) + 1)
    return SpdFactor(op, lu)


def _norms(V, apply):
    """Column norms sqrt(v* apply(v)); two-norms when ``apply`` is None."""
    if apply is None:
        return np.linalg.norm(V, axis=0)
    return np.sqrt(np.maximum(np.real(np.sum(V.conj() * apply(V), axis=0)), 0))


def orthonormal_columns(X, against=None, M=None):
    """Two-pass Gram-Schmidt orthonormalization with near-dependence dropping.

    Orthogonalizes the columns of ``X`` against ``against`` (if given) and
    against each other; columns whose norm falls below 1e-10 times the
    original column norm are dropped.  With the factor ``M`` of an SPD X,
    in the X inner product.  Returns (Q, kept_indices).
    """
    gram = (lambda v: v) if M is None else M.matrix.matmat    # v -> X v
    X = np.array(X, dtype=complex if np.iscomplexobj(X) else float, copy=True)
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    orig = _norms(X, M and gram)
    orig[orig == 0.0] = 1.0
    cols = []
    kept = []
    for j in range(X.shape[1]):
        v = X[:, j]
        for _ in range(2):
            if against is not None and against.shape[1]:
                v = v - against @ (against.conj().T @ gram(v))
            for q in cols:
                v = v - q * np.vdot(q, gram(v))
        nrm = np.linalg.norm(v) if M is None else _norms(v, gram)
        if nrm <= 1e-10 * orig[j]:
            continue
        cols.append(v / nrm)
        kept.append(j)
    if not cols:
        shape = (X.shape[0], 0)
        return np.zeros(shape, dtype=X.dtype), []
    return np.column_stack(cols), kept


def _ritz_pairs(op, values, vectors, M, shift_fallback=False):
    """EigenPairs in ascending order, with residuals computed explicitly."""
    order = np.argsort(values)
    w = np.asarray(values, dtype=float)[order]
    V = np.ascontiguousarray(vectors[:, order])
    R = op.matmat(V) - (V if M is None else M.matrix.matmat(V)) * w
    return EigenPairs(values=w, vectors=V, residuals=_norms(R, M and M.solve),
                      shift_fallback=shift_fallback)


def _shifted_factor(op, sigma, M):
    """The factor of A - sigma X (X = I without ``M``), or None.

    None when the factor has a non-positive pivot, that is when sigma is
    not below every eigenvalue of the pencil.
    """
    X = sparse.identity(op.n, format="csr") if M is None else M.matrix.matrix
    try:
        return cholesky(op.matrix - sigma * X)
    except NotPositiveDefiniteError:
        return None


def _inverse(factor, n, dtype):
    """The solve of an :class:`SpdFactor` as a LinearOperator."""
    return LinearOperator((n, n), matvec=factor.solve, matmat=factor.solve,
                          dtype=dtype)


def smallest_eigpairs(A, k, seed=0, restart_cap=None, M=None, below=None):
    """The k smallest eigenpairs of a Hermitian operator, or of a pencil.

    Implicitly restarted Lanczos (ARPACK through ``scipy.sparse.linalg.eigsh``)
    run to working precision, applied to the operator one vector at a time;
    problems of dimension at most ``DENSE_FALLBACK_SIZE``, and every k = n,
    take a full dense eigendecomposition (:func:`dense_smallest`) instead.
    This is the one place that chooses between the two.  The returned
    residual norms are computed
    explicitly as ||A v - lambda v||, so each returned value lies within its
    residual of an eigenvalue of A.  That the values are the k *smallest*
    eigenvalues assumes ARPACK missed none below them.

    With ``M`` (the :class:`SpdFactor` of X) ARPACK's generalized mode
    solves the pencil (A, X), applying X^{-1} through the factor; residuals
    are then ||A v - lambda X v|| in the X^{-1} norm.

    With ``below`` = sigma and a sparse operator, A - sigma X is factored
    first.  If every pivot is positive, sigma lies below the spectrum and
    ARPACK runs in shift-invert mode on that factor, where the wanted
    eigenvalues are the best separated; otherwise the solve runs unshifted
    and the result has ``shift_fallback`` set.  Dense operators and the
    dense eigendecomposition ignore ``below``.

    Parameters
    ----------
    A : HermitianOperator or array-like
    k : number of smallest eigenpairs, 1 <= k <= n
    seed : seed for the random starting vector (determinism)
    restart_cap : maximum ARPACK restart iterations; defaults to 10*n
    below : optional shift sigma, expected below the smallest eigenvalue

    Raises
    ------
    ArgumentError if k is out of range, EigensolverError on
    non-convergence; its ``best`` holds only the pairs that converged
    (fewer than k, possibly none).
    """
    op = hermitian(A)
    n = op.n
    if not isinstance(k, (int, np.integer)) or not 1 <= k <= n:
        raise ArgumentError(f"k must satisfy 1 <= k <= n, got k={k}, n={n}")
    if below is not None and not np.isfinite(below):
        raise ArgumentError(f"the shift must be finite, got {below}")
    if n <= DENSE_FALLBACK_SIZE or k == n:     # ARPACK needs k < n
        return dense_smallest(op.dense(), k, M=M)

    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(n)
    if op.iscomplex:
        v0 = v0 + 1j * rng.standard_normal(n)
    lin = LinearOperator((n, n), matvec=op.matvec, matmat=op.matmat,
                         dtype=v0.dtype)
    arpack = {"Minv": M and _inverse(M, n, v0.dtype), "which": "SA"}
    fallback = False
    if below is not None and isinstance(op, SparseHermitian):
        shifted = _shifted_factor(op, below, M)
        fallback = shifted is None
        if shifted is not None:
            arpack = {"sigma": below, "which": "LM",
                      "OPinv": _inverse(shifted, n, v0.dtype)}
    try:
        w, V = eigsh(lin, k=k, M=M and M.matrix.matrix, tol=0, v0=v0,
                     maxiter=restart_cap, **arpack)
    except ArpackNoConvergence as exc:
        raise EigensolverError(
            f"no convergence: {exc}",
            best=_ritz_pairs(op, exc.eigenvalues, exc.eigenvectors, M,
                             fallback)) from exc
    return _ritz_pairs(op, w, V, M, fallback)


def extreme_eigs(A, seed=0, M=None):
    """Smallest and largest eigenvalue of a Hermitian operator (or pencil).

    Both come from :func:`smallest_eigpairs` at working precision, so each
    lies within its residual norm of an eigenvalue, assuming ARPACK missed
    none beyond it.  The largest eigenvalue is obtained by running the
    smallest-eigenvalue solver on -A, so extreme_eigs(-A) ==
    -reversed(extreme_eigs(A)) holds exactly by construction.
    """
    op = hermitian(A)
    lo = smallest_eigpairs(op, 1, seed=seed, M=M).values[0]
    hi = -smallest_eigpairs(-op, 1, seed=seed, M=M).values[0]
    return float(lo), float(hi)


def dense_smallest(H, r, M=None):
    """The r smallest eigenpairs of a small dense Hermitian matrix.

    Full symmetric eigendecomposition.  With ``M`` as in
    :func:`smallest_eigpairs`, the dense pencil (H, X) instead.
    """
    H = np.asarray(H)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ArgumentError("expected a square matrix")
    m = H.shape[0]
    if not 1 <= r <= m:
        raise ArgumentError(f"r must satisfy 1 <= r <= {m}, got {r}")
    Hs = 0.5 * (H + H.conj().T)
    X = None if M is None else M.matrix.dense()
    w, S = np.linalg.eigh(Hs) if X is None else scipy.linalg.eigh(Hs, X)
    V = S[:, :r]
    R = Hs @ V - (V if X is None else X @ V) * w[:r]
    return EigenPairs(values=w[:r].copy(), vectors=np.ascontiguousarray(V),
                      residuals=_norms(R, M and M.solve))
