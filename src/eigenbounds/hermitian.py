"""Hermitian operators and the eigensolvers used throughout the package.

The eigensolvers give the k smallest eigenpairs of a Hermitian operator
(the samples) and the extreme eigenvalues of a single term (the bounding
box).  One two-way rule picks the solver for both: LAPACK takes every
operator with n <= ``DENSE_FALLBACK_SIZE`` and a dense one up to
``DENSE_PARTIAL_CAP`` (a dense pencil: ``DENSE_PENCIL_CAP``); ARPACK's
implicitly restarted Lanczos, run to working precision, takes the rest.
LAPACK gives the k smallest eigenpairs by its partial solver (``dsyevr``,
MRRR; Dhillon, Parlett & Voemel, ACM TOMS 32, 2006; a pencil: ``dsygvx``).
The returned eigenpairs carry explicitly computed residual norms: each
value lies within ||r|| of an eigenvalue.  LAPACK's tridiagonal solve
cannot skip an eigenvalue below the ones it returns; from ARPACK they are
the wanted ones provided it missed no eigenvalue below them.  The extreme
eigenvalues of an operator that LAPACK takes (a bounding-box term) need no
eigenvectors: one backward-stable Householder reduction to tridiagonal form
T (for a pencil, of the standard form from the dense Cholesky factor of X),
then both ends as the exact extreme eigenvalues of T by Sturm-count
bisection to full accuracy (Demmel, Applied Numerical Linear Algebra, SIAM
1997, sec. 5.3); the counts, not a residual, make each the extreme one.  A
standard sparse term that is zero outside the rows S with stored entries is
permutation-similar to diag(A[S, S], 0): its ends are those of the
principal submatrix A[S, S], solved by the same rule at its own size, with
the zero eigenvalue folded in.  Operators are stored matrices, dense or
sparse, and each negates exactly.  Given the sparse factor of an SPD X
(:func:`cholesky`), the eigensolvers solve the pencil (A, X): X-orthonormal
vectors, residuals in the X^{-1} norm.  Every sparse eigensolve that
ARPACK takes runs in shift-invert mode on the factor of A - sigma X
(spectral-transformation Lanczos, Ericsson & Ruhe, Math. Comp. 35, 1980)
when the factor's pivots certify sigma below the spectrum by Sylvester's
law of inertia: at the caller's shift, or else at the Gershgorin floor of
an operator with a positive diagonal, which costs no eigensolve, and
failing that just below a loose estimate of the smallest eigenvalue,
whose Ritz vector starts the shifted solve.  Box ends and samples take
that one rule alike, and every such factor is made on a
:class:`SparsePattern`, whose factors share one fill-reducing ordering.
"""

from __future__ import annotations

import copy
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
    "SparsePattern",
    "hermitian",
    "orthonormal_columns",
    "smallest_eigpairs",
    "extreme_eigs",
    "dense_smallest",
    "cholesky",
]

# LAPACK takes every operator up to DENSE_FALLBACK_SIZE (a sparse one
# densified), and a dense one (standard problem, pencil) up to its cap;
# above the caps ARPACK is faster at k = 1 (measured crossovers in README)
DENSE_FALLBACK_SIZE = 72
DENSE_PARTIAL_CAP = 800
DENSE_PENCIL_CAP = 350
DENSIFY_CAP = 4096
# relative accuracy of the loose pass that places a sparse solve's shift
# when the caller gives none and the Gershgorin floor fails, and the
# shift's distance below its estimate e as a fraction of |e|
ESTIMATE_TOL = 1e-2


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
    shift_fallback: bool = False  # unshifted: no shift passed the factor test
    loose_estimate: bool = False  # a loose pass ran to place the shift


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

    @classmethod
    def _exact(cls, array):
        """Wrap a float or complex array that is exactly Hermitian, as it
        stands."""
        op = cls.__new__(cls)
        op.array, op.n = array, array.shape[0]
        op.iscomplex = np.iscomplexobj(array)
        return op

    def matmat(self, X):
        return self.array @ X

    def dense(self):
        return self.array

    def __neg__(self):
        return DenseHermitian._exact(-self.array)


class SparseHermitian(HermitianOperator):
    """Sparse Hermitian matrix in CSR form, symmetrized on construction.

    ``pattern`` is the :class:`SparsePattern` whose layout the matrix is
    stored in, when :meth:`SparsePattern.operator` made it, else None.
    """

    pattern = None

    def __init__(self, matrix):
        A = sparse.csr_matrix(matrix)
        if A.shape[0] != A.shape[1]:
            raise ArgumentError("expected a square matrix")
        if A.shape[0] < 1:
            raise ArgumentError("dimension must be positive")
        self.iscomplex = np.iscomplexobj(A.data) if A.nnz else False
        self.matrix = (0.5 * (A + A.conj().T)).tocsr()
        self.n = A.shape[0]

    @classmethod
    def _exact(cls, matrix, pattern=None):
        """Wrap a CSR matrix that is exactly Hermitian, as it stands (in
        the layout of ``pattern``, if given)."""
        op = cls.__new__(cls)
        op.matrix, op.n, op.pattern = matrix, matrix.shape[0], pattern
        op.iscomplex = np.iscomplexobj(matrix.data) if matrix.nnz else False
        return op

    def matmat(self, X):
        return self.matrix @ X

    def dense(self):
        """The matrix as a dense array (n <= DENSIFY_CAP)."""
        if self.n > DENSIFY_CAP:
            raise ArgumentError(f"refusing to densify operator of dimension "
                                f"{self.n} > {DENSIFY_CAP}")
        return self.matrix.toarray()

    def __neg__(self):
        return SparseHermitian._exact(-self.matrix)


def hermitian(matrix):
    """Wrap an array or sparse matrix as a :class:`HermitianOperator`."""
    if isinstance(matrix, HermitianOperator):
        return matrix
    if sparse.issparse(matrix):
        return SparseHermitian(matrix)
    return DenseHermitian(matrix)


@dataclass(frozen=True)
class SpdFactor:
    """An SPD matrix X with its sparse factor; made by :func:`cholesky`
    or :meth:`SparsePattern.factor`.  With ``order``, ``lu`` factors
    X[order][:, order] in its natural order."""

    matrix: SparseHermitian    # X
    lu: object                 # SuperLU factor of X (of X[order][:, order])
    order: np.ndarray | None = None

    @property
    def n(self):
        return self.matrix.n

    def solve(self, B):
        """X^{-1} B for a vector or a block of columns."""
        if self.order is None:
            return self._lu_solve(B)
        y = self._lu_solve(B[self.order])
        x = np.empty_like(y)
        x[self.order] = y
        return x

    def _lu_solve(self, B):
        if np.iscomplexobj(B) and not self.matrix.iscomplex:
            return self.lu.solve(B.real) + 1j * self.lu.solve(B.imag)
        return self.lu.solve(B)


def _superlu(csc, order=None):
    """SuperLU's factor of the symmetric positive definite ``csc``.

    Symmetric mode pivots on the diagonal only: P X P^T = L D L^T, and X
    is positive definite iff every pivot is positive.  P is SuperLU's MMD
    ordering of X, or with ``order`` (``csc`` is X[order][:, order]) the
    natural order of ``csc``.  A non-positive or skipped pivot raises
    NotPositiveDefiniteError with its row in X.
    """
    try:
        lu = splu(csc, permc_spec="MMD_AT_PLUS_A" if order is None
                  else "NATURAL", diag_pivot_thresh=0,
                  options={"SymmetricMode": True})
    except RuntimeError as exc:          # "Factor is exactly singular"
        raise NotPositiveDefiniteError(pivot=None) from exc
    # pivot k sits at row order_r[k] and column order_c[k] of csc
    order_r, order_c = np.argsort(lu.perm_r), np.argsort(lu.perm_c)
    bad = np.flatnonzero((order_r != order_c)
                         | ~(np.real(lu.U.diagonal()) > 0.0))
    if bad.size:
        row = order_c[bad[0]]
        raise NotPositiveDefiniteError(
            pivot=int(row if order is None else order[row]) + 1)
    return lu


def cholesky(X):
    """Sparse factorization of a symmetric positive definite X, never dense.

    SuperLU in symmetric mode under its MMD ordering (:func:`_superlu`);
    a non-positive or skipped pivot raises NotPositiveDefiniteError with
    its index in X.  A :class:`SparseHermitian` is taken as it stands;
    anything else is wrapped (and symmetrized) first.
    """
    op = X if isinstance(X, SparseHermitian) else SparseHermitian(X)
    return SpdFactor(op, _superlu(op.matrix.tocsc()))


def _entries(matrix, n):
    """(keys, data) of a sparse matrix's entries in CSR order, each key
    row * n + column, duplicates summed."""
    m = sparse.csr_matrix(matrix)
    if not m.has_canonical_format:
        m = m.copy()
        m.sum_duplicates()
    rows = np.repeat(np.arange(n, dtype=np.int64) * n, np.diff(m.indptr))
    return rows + m.indices, m.data


def _union(keys):
    """The sorted union of sorted arrays of distinct entry keys, and each
    array's positions in it."""
    joined = np.concatenate(keys)
    order = np.argsort(joined, kind="stable")    # merges the sorted runs
    ranked = joined[order]
    first = np.concatenate(([True], ranked[1:] != ranked[:-1]))
    where = np.empty(joined.size, dtype=np.int64)
    where[order] = np.cumsum(first) - 1
    return ranked[first], np.split(where, np.cumsum([k.size
                                                     for k in keys[:-1]]))


def _csr_index(keys, n):
    """(indices, indptr) of the CSR pattern of the sorted entry keys."""
    return ((keys % n).astype(np.int32),
            np.searchsorted(keys, np.arange(n + 1, dtype=np.int64)
                            * n).astype(np.int32))


class SparsePattern:
    """One merged CSR pattern of sparse Hermitian matrices, with X.

    The pattern is the union of the matrices' patterns.  ``values`` holds
    one row per matrix, zero off its own pattern, so that A(theta) =
    sum_q theta_q A_q is the rows summed in matrix order (:meth:`operator`),
    value for value the sum of the CSR matrices.  Its factors
    (:meth:`factor`) take the union with the pattern of X (of I without
    the factor ``M`` of an inner product), on which A - sigma X is A's
    values minus sigma times X's.

    The factors share one fill-reducing ordering P (George & Liu, Computer
    Solution of Large Sparse Positive Definite Systems, 1981: the symbolic
    analysis depends on the pattern only).  The first factor that passes
    the positive-definite test takes SuperLU's MMD ordering; every later
    one factors P (A - sigma X) P^T, gathered through an index computed
    once, in its natural order.  P (A - sigma X) P^T is congruent to
    A - sigma X, so its pivots certify sigma alike.  ``factors`` counts the
    factors made, ``orderings`` the MMD orderings computed.
    """

    def __init__(self, matrices, M=None):
        n = matrices[0].shape[0]
        entries = [_entries(m, n) for m in matrices]
        x_keys, x_data = _entries(sparse.identity(n, format="csr") if M is None
                                  else M.matrix.matrix, n)
        merged, where = _union([keys for keys, _ in entries])
        factored, (from_a, from_x) = _union([merged, x_keys])
        self.n, self.inner_product = n, M
        self.indices, self.indptr = _csr_index(merged, n)
        self.values = np.zeros((len(entries), merged.size),
                               dtype=np.result_type(*(d for _, d in entries)))
        for row, at, (_, data) in zip(self.values, where, entries):
            row[at] = data
        # on the factors' pattern: where A's values sit among A's data
        # padded with one zero, and X's values
        self._factored = _csr_index(factored, n)
        self._take = np.full(factored.size, merged.size)
        self._take[from_a] = np.arange(merged.size)
        self._x = np.zeros(factored.size, dtype=x_data.dtype)
        self._x[from_x] = x_data
        self.order = self._layout = None
        self.factors = self.orderings = 0

    def unordered_copy(self):
        """A pattern on the same arrays with no ordering and no counts."""
        twin = copy.copy(self)
        twin.order = twin._layout = None
        twin.factors = twin.orderings = 0
        return twin

    def _csc_layout(self, order):
        """(gather, indices, indptr): the CSC arrays of B = C[order][:,
        order] for a matrix C on the factors' pattern, B's data being C's
        CSR data[gather]."""
        indices, indptr = self._factored
        inverse = np.argsort(order)
        rows = np.repeat(inverse, np.diff(indptr))
        cols = inverse[indices]
        gather = np.argsort(cols.astype(np.int64) * self.n + rows)
        indptr = np.searchsorted(cols[gather], np.arange(self.n + 1))
        return gather, rows[gather].astype(np.int32), indptr.astype(np.int32)

    def operator(self, theta):
        """sum_q theta_q A_q, summed in term order, as a SparseHermitian in
        this pattern's layout.  A real combination of exactly Hermitian
        matrices is exactly Hermitian, so it is wrapped as it stands."""
        rows = self.values
        acc = theta[0] * rows[0]
        for c, row in zip(theta[1:], rows[1:]):
            acc += c * row
        return SparseHermitian._exact(sparse.csr_matrix(
            (acc, self.indices, self.indptr), shape=(self.n, self.n)), self)

    def factor(self, op, sigma):
        """The :class:`SpdFactor` of A - sigma X for an operator ``op`` = A
        that :meth:`operator` made.  Raises NotPositiveDefiniteError, with
        the row of A - sigma X of the failing pivot, when sigma is not below
        every eigenvalue of the pencil."""
        if op.pattern is not self:
            raise ArgumentError("the operator is not in this pattern's layout")
        data = np.append(op.matrix.data, 0.0)[self._take] - sigma * self._x
        shifted = SparseHermitian._exact(sparse.csr_matrix(
            (data, *self._factored), shape=(self.n, self.n)))
        self.factors += 1
        if self.order is None:
            self.orderings += 1
            lu = _superlu(shifted.matrix.tocsc())
            # pivot k eliminates row and column argsort(perm_c)[k]; taking
            # perm_c itself for the order grows the fill several times
            self.order = np.argsort(lu.perm_c)
            return SpdFactor(shifted, lu)
        if self._layout is None:
            self._layout = self._csc_layout(self.order)
        gather, indices, indptr = self._layout
        csc = sparse.csc_matrix((data[gather], indices, indptr),
                                shape=(self.n, self.n))
        return SpdFactor(shifted, _superlu(csc, self.order), self.order)


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


def _ritz_pairs(op, values, vectors, M, **flags):
    """EigenPairs in ascending order, with residuals computed explicitly;
    ``flags`` are its ``shift_fallback`` and ``loose_estimate``."""
    order = np.argsort(values)
    w = np.asarray(values, dtype=float)[order]
    V = np.ascontiguousarray(vectors[:, order])
    R = op.matmat(V) - (V if M is None else M.matrix.matmat(V)) * w
    return EigenPairs(values=w, vectors=V, residuals=_norms(R, M and M.solve),
                      **flags)


def _shifted_factor(op, sigma, M):
    """The factor of A - sigma X (X = I without ``M``) on the pattern of
    ``op`` (a one-off pattern of A and X when ``op`` has none for ``M``),
    or None.

    None when the factor has a non-positive pivot, that is when sigma is
    not below every eigenvalue of the pencil.  The difference of two
    exactly Hermitian matrices is exactly Hermitian, so it is factored as
    it stands.
    """
    pattern = op.pattern
    if pattern is None or pattern.inner_product is not M:
        pattern = SparsePattern((op.matrix,), M)
        op = pattern.operator(np.ones(1))
    try:
        return pattern.factor(op, sigma)
    except NotPositiveDefiniteError:
        return None


def _inverse(factor, n, dtype):
    """The solve of an :class:`SpdFactor` as a LinearOperator."""
    return LinearOperator((n, n), matvec=factor.solve, matmat=factor.solve,
                          dtype=dtype)


def _arpack_start(op, seed):
    """``op`` as a LinearOperator, with the seeded random start vector."""
    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(op.n)
    if op.iscomplex:
        v0 = v0 + 1j * rng.standard_normal(op.n)
    lin = LinearOperator((op.n, op.n), matvec=op.matvec, matmat=op.matmat,
                         dtype=v0.dtype)
    return lin, v0


def smallest_eigpairs(A, k, seed=0, M=None, below=None):
    """The k smallest eigenpairs of a Hermitian operator, or of a pencil.

    One two-way rule chooses the solver:

    * k = n, n <= ``DENSE_FALLBACK_SIZE``, or a dense operator with
      n <= ``DENSE_PARTIAL_CAP`` (a dense pencil: n <= ``DENSE_PENCIL_CAP``):
      LAPACK's partial solver on the densified operator
      (:func:`dense_smallest`), which reduces to tridiagonal form and
      returns only the k smallest pairs;
    * otherwise (sparse operators, larger dense ones): implicitly restarted
      Lanczos (ARPACK through ``scipy.sparse.linalg.eigsh``) run to working
      precision, applied to the operator one vector at a time.

    The caps are the measured crossovers at k = 1 (README).  The returned
    residual norms are computed explicitly as ||A v - lambda v||, so each
    returned value lies within its residual of an eigenvalue of A.  From
    LAPACK the values are the k smallest; from ARPACK, that assumes it
    missed none below them.

    With ``M`` (the :class:`SpdFactor` of X) the pencil (A, X) is solved:
    LAPACK (``dsygvx``) takes X densified, ARPACK's generalized mode
    applies X^{-1} through the factor; residuals are then
    ||A v - lambda X v|| in the X^{-1} norm.

    A sparse operator that ARPACK takes is solved at a shift sigma: the
    caller's ``below``, or with none the shift that one rule places
    (:func:`_placed_shift`): the Gershgorin floor sigma_0 of the pencil
    when every diagonal entry of A is positive and its factor passes the
    pivot test, else sigma = e - ESTIMATE_TOL |e| from a loose estimate e
    of the smallest eigenvalue (one regular-mode ARPACK pass at
    ``tol=ESTIMATE_TOL``), whose Ritz vector then starts the shifted solve.
    A - sigma X is factored on the :class:`SparsePattern` that made the
    operator (for an operator that no pattern of ``M`` made, a one-off
    pattern of A and X), so that the samples of one pattern share its
    ordering.  If every pivot is positive, sigma lies below the spectrum
    and ARPACK runs in shift-invert mode on that factor, where the wanted
    eigenvalues are the best separated.  If a pivot is not, or the
    estimate does not converge, the solve runs unshifted from the seeded
    start and the result has ``shift_fallback`` set; a result whose shift
    took a loose pass has ``loose_estimate`` set.  Dense operators ignore
    ``below``, and LAPACK ignores it with ``seed``.

    Parameters
    ----------
    A : HermitianOperator or array-like
    k : number of smallest eigenpairs, 1 <= k <= n
    seed : seed for ARPACK's random starting vector (determinism)
    below : optional shift sigma, expected below the smallest eigenvalue

    Raises
    ------
    ArgumentError if k is out of range, ValueError if LAPACK meets a
    non-finite entry, EigensolverError on ARPACK non-convergence (its
    ``best`` holds only the pairs that converged, fewer than k, possibly
    none) or on a LAPACK failure (``best`` None).
    """
    op = hermitian(A)
    n = op.n
    if not isinstance(k, (int, np.integer)) or not 1 <= k <= n:
        raise ArgumentError(f"k must satisfy 1 <= k <= n, got k={k}, n={n}")
    if below is not None and not np.isfinite(below):
        raise ArgumentError(f"the shift must be finite, got {below}")
    if k == n or _takes_lapack(op, M):      # ARPACK needs k < n
        return dense_smallest(op if isinstance(op, DenseHermitian)
                              else op.dense(), k, M=M)

    lin, v0 = _arpack_start(op, seed)
    arpack = {"Minv": M and _inverse(M, n, v0.dtype), "which": "SA"}
    flags = {}
    if isinstance(op, SparseHermitian):
        start = None
        if below is None:
            below, shifted, start, flags["loose_estimate"] = _placed_shift(
                op, seed, M)
        else:
            shifted = _shifted_factor(op, below, M)
        flags["shift_fallback"] = shifted is None
        if shifted is not None:
            arpack = {"sigma": below, "which": "LM",
                      "OPinv": _inverse(shifted, n, v0.dtype)}
            if start is not None:
                v0 = start
    try:
        w, V = eigsh(lin, k=k, M=M and M.matrix.matrix, tol=0, v0=v0,
                     **arpack)
    except ArpackNoConvergence as exc:
        raise EigensolverError(
            f"no convergence: {exc}",
            best=_ritz_pairs(op, exc.eigenvalues, exc.eigenvectors, M,
                             **flags)) from exc
    return _ritz_pairs(op, w, V, M, **flags)


def _gershgorin(matrix):
    """(diagonal, radii) of a Hermitian CSR matrix: the real diagonal and
    each row's absolute off-diagonal sum, so that every eigenvalue lies in
    some disc [d_i - r_i, d_i + r_i]."""
    n = matrix.shape[0]
    rows = np.repeat(np.arange(n), np.diff(matrix.indptr))
    on = matrix.indices == rows
    return (np.bincount(rows[on], np.real(matrix.data[on]), n),
            np.bincount(rows[~on], np.abs(matrix.data[~on]), n))


def _floor(op, M):
    """The Gershgorin floor sigma_0 of the pencil (A, X) of the sparse
    ``op`` (X = I without ``M``), or None when a diagonal entry of A is
    not positive.

    sigma_0 = g_A / x_hi when A's Gershgorin lower end g_A = min_i(a_ii -
    sum_{j != i} |a_ij|) is positive, else 0; x_hi is X's Gershgorin upper
    end, 1 without ``M``.  Then A - g_A I and x_hi I - X are positive
    semidefinite, so A - sigma_0 X is too.  A positive diagonal is
    necessary for A - sigma_0 X to be positive definite at a sigma_0 >= 0,
    so an operator without one takes no trial factor.
    """
    diagonal, radii = _gershgorin(op.matrix)
    if not np.all(diagonal > 0):
        return None
    g = float(np.min(diagonal - radii))
    if g <= 0:
        return 0.0
    if M is None:
        return g
    x_diagonal, x_radii = _gershgorin(M.matrix.matrix)
    return g / float(np.max(x_diagonal + x_radii))


def _placed_shift(op, seed, M):
    """(sigma, factor, start, loose): the shift of a sparse solve whose
    caller gives none, the factor of A - sigma X (X = I without ``M``),
    the start vector of the shifted solve and whether a loose pass ran.

    The first try is the Gershgorin floor sigma_0 (:func:`_floor`) of an
    A with a positive diagonal: if its factor passes the pivot test,
    sigma_0 lies below the spectrum and the solve starts from the seeded
    vector, with no loose pass.  Otherwise :func:`_estimate` makes one,
    sigma = e - ESTIMATE_TOL |e| below its estimate e, and its Ritz vector
    is the start.  ``factor`` is None when no shift passed the test or the
    pass did not converge: the solve then runs unshifted from the seeded
    vector.  Each choice depends only on ``op``, ``seed`` and ``M``, so
    the ends of a box term, A and -A, each take the route they would alone.
    """
    floor = _floor(op, M)
    if floor is not None:
        factor = _shifted_factor(op, floor, M)
        if factor is not None:
            return floor, factor, None, False
    estimate = _estimate(op, seed, M)
    if estimate is None:
        return None, None, None, True
    e, ritz = estimate
    sigma = e - ESTIMATE_TOL * abs(e)
    return sigma, _shifted_factor(op, sigma, M), ritz, True


def _estimate(op, seed, M):
    """(e, v): the smallest eigenvalue e of the sparse ``op`` (of the
    pencil (A, X) with ``M``) to relative accuracy ESTIMATE_TOL and its
    Ritz vector v, from one regular-mode pass that places a shift where
    the Gershgorin floor does not (:func:`_placed_shift`); None if ARPACK
    gives up."""
    lin, v0 = _arpack_start(op, seed)
    pencil = {} if M is None else {"M": M.matrix.matrix,
                                   "Minv": _inverse(M, op.n, v0.dtype)}
    try:
        w, V = eigsh(lin, k=1, which="SA", tol=ESTIMATE_TOL, v0=v0,
                     **pencil)
    except ArpackNoConvergence:
        return None
    return float(w[0]), V[:, 0]


def _takes_lapack(op, M):
    """Whether LAPACK solves ``op`` (the pencil (op, X) with ``M``): every
    operator up to DENSE_FALLBACK_SIZE, a dense one up to the cap of its
    problem kind."""
    cap = DENSE_PARTIAL_CAP if M is None else DENSE_PENCIL_CAP
    return (op.n <= DENSE_FALLBACK_SIZE
            or isinstance(op, DenseHermitian) and op.n <= cap)


def _lapack_checked(name, info):
    if info:
        raise np.linalg.LinAlgError(f"{name} returned info={info}")


def _tridiagonal_ends(A, M=None):
    """The smallest and largest eigenvalue of a dense Hermitian ``A`` (of
    the pencil (A, X) with the Cholesky factor ``M`` of X).

    One backward-stable Householder reduction to a real tridiagonal T
    (``?sytrd``/``?hetrd``; for a pencil, of L^{-1} A L^{-*} from
    ``?sygst``/``?hegst`` with the dense lower factor L = ``?potrf``(X)),
    then T's smallest eigenvalue and that of -T, each by Sturm-count
    bisection (``?stebz``) to full accuracy: the extreme eigenvalues of T
    exactly as ``dsyevr``/``dsygvx`` compute them from the same T, with no
    vector and no residual.  The reduction of -A is (-d, -e) bitwise, and
    bisection reads e only through |e| and e^2, so the high end is what a
    smallest-eigenvalue solve of -A returns.  Raises ValueError on a
    non-finite entry, EigensolverError if LAPACK fails.
    """
    A = np.asarray_chkfinite(A)
    if M is not None:
        X = M.matrix.dense()
        A = A.astype(np.result_type(A.dtype, X.dtype), copy=False)
    pfx = "he" if np.iscomplexobj(A) else "sy"
    try:
        if M is not None:
            potrf, gst = scipy.linalg.get_lapack_funcs(
                ("potrf", pfx + "gst"), (A,))
            L, info = potrf(X.astype(A.dtype, copy=False), lower=1)
            _lapack_checked("potrf", info)
            A, info = gst(A, L, itype=1, lower=1)
            _lapack_checked(pfx + "gst", info)
        trd, trd_lwork = scipy.linalg.get_lapack_funcs(
            (pfx + "trd", pfx + "trd_lwork"), (A,))
        work, info = trd_lwork(A.shape[0], lower=1)
        _lapack_checked(pfx + "trd_lwork", info)
        _, d, e, _, info = trd(A, lower=1, lwork=int(work.real))
        _lapack_checked(pfx + "trd", info)
        lo, neg_hi = (scipy.linalg.eigvalsh_tridiagonal(
            diagonal, e, select="i", select_range=(0, 0))[0]
            for diagonal in (d, -d))
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"LAPACK failed: {exc}") from exc
    return float(lo), float(-neg_hi)


def _extreme_values(op, seed, M):
    """(lo, hi, counts): the extreme eigenvalues of ``op`` (of the pencil
    (op, X) with ``M``) and the counts of the work by the names of the
    :class:`~eigenbounds.family.BoundingBox` fields, a count left out
    being zero: ``eig_count`` the eigensolves run (none for a term with no
    stored entry, one tridiagonal reduction, or two ARPACK solves; see
    extreme_eigs), ``shift_fallbacks`` the ends that ran unshifted after a
    failed shift, ``loose_estimates`` the ends whose shift a loose pass
    placed, and ``sparse_factors`` and ``sparse_orderings`` the work
    of the factors on the one-off :class:`SparsePattern` of a sparse
    ``op``, each end ordered afresh.
    """
    if isinstance(op, SparseHermitian):
        support = np.flatnonzero(np.diff(op.matrix.indptr))
        if support.size == 0:
            return 0.0, 0.0, {}
        if M is None and support.size < op.n:
            # A is permutation-similar to diag(A[S, S], 0)
            sub = op.matrix[support][:, support]
            sub = (DenseHermitian._exact(sub.toarray())
                   if support.size <= DENSE_PARTIAL_CAP
                   else SparseHermitian._exact(sub.tocsr()))
            lo, hi, counts = _extreme_values(sub, seed, None)
            return min(lo, 0.0), max(hi, 0.0), counts
    if _takes_lapack(op, M):
        return (*_tridiagonal_ends(op.dense(), M), {"eig_count": 1})
    ends = (op, -op)
    patterns = ()
    if isinstance(op, SparseHermitian):
        # an ordering per end, so that each end is solved as it would be
        # alone and extreme_eigs(-A) mirrors extreme_eigs(A) exactly
        pattern = SparsePattern((op.matrix,), M)
        patterns = (pattern, pattern.unordered_copy())
        ends = [p.operator(np.array([sign]))
                for p, sign in zip(patterns, (1.0, -1.0))]
    lo, neg_hi = [smallest_eigpairs(end, 1, seed=seed, M=M) for end in ends]
    return float(lo.values[0]), float(-neg_hi.values[0]), {
        "eig_count": 2,
        "shift_fallbacks": lo.shift_fallback + neg_hi.shift_fallback,
        "loose_estimates": lo.loose_estimate + neg_hi.loose_estimate,
        "sparse_factors": sum(p.factors for p in patterns),
        "sparse_orderings": sum(p.orderings for p in patterns)}


def extreme_eigs(A, seed=0, M=None):
    """Smallest and largest eigenvalue of a Hermitian operator (or pencil).

    The rule of :func:`smallest_eigpairs` picks the solver.  An operator
    that LAPACK takes is densified and reduced once to tridiagonal form T
    by a backward-stable Householder reduction (a pencil: after the
    standard form L^{-1} A L^{-*} from the dense Cholesky factor of X);
    both ends are then the exact extreme eigenvalues of T by Sturm-count
    bisection, with no vector and no residual.  They are the values
    LAPACK's partial solver gives for A and -A.  Every other operator
    takes :func:`smallest_eigpairs` on A and on -A at working precision,
    a sparse one shift-inverted and factored on a one-off
    :class:`SparsePattern` of A and X, under an ordering of the end's own:
    an end whose operator has a positive diagonal at its Gershgorin floor
    if that factor passes the pivot test, any other end just below a loose
    estimate, started from its Ritz vector.  Each end lies within its
    residual norm of an eigenvalue, the extreme one provided ARPACK missed
    none beyond it.  Either way the largest eigenvalue is the negated
    smallest of -A, and each end's route depends on its own operator only,
    so extreme_eigs(-A) == -reversed(extreme_eigs(A)) holds exactly by
    construction.

    A sparse operator with no stored entry has the ends (0, 0) and takes
    no solve.  A standard sparse one (no ``M``) whose rows with stored
    entries, S, are fewer than n is permutation-similar to
    diag(A[S, S], 0): its ends are those of the principal submatrix A[S, S]
    with 0 folded in, (min(lo, 0), max(hi, 0)).  The submatrix is solved
    as above at its own size, densified up to DENSE_PARTIAL_CAP (so by one
    reduction and Sturm counts) and sparse beyond it.  A pencil keeps its
    route, since X couples the rows.
    """
    lo, hi, _ = _extreme_values(hermitian(A), seed=seed, M=M)
    return lo, hi


def dense_smallest(H, r, M=None):
    """The r smallest eigenpairs of a dense Hermitian matrix.

    ``H`` is a :class:`DenseHermitian`, taken as it stands, or an array,
    symmetrized first.  LAPACK's partial solver (``scipy.linalg.eigh``
    with ``subset_by_index``), with residuals computed explicitly.  With
    ``M`` as in :func:`smallest_eigpairs`, the dense pencil (H, X)
    instead.  Raises ValueError on a non-finite entry, EigensolverError
    (``best`` None) if LAPACK fails.
    """
    op = H if isinstance(H, DenseHermitian) else DenseHermitian(H)
    if not 1 <= r <= op.n:
        raise ArgumentError(f"r must satisfy 1 <= r <= {op.n}, got {r}")
    try:
        w, V = scipy.linalg.eigh(op.array, None if M is None
                                 else M.matrix.dense(),
                                 subset_by_index=[0, r - 1])
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"LAPACK failed: {exc}") from exc
    return _ritz_pairs(op, w, V, M)
