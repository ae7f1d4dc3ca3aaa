import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sparse
from numpy.testing import assert_allclose

from eigenbounds import (ArgumentError, DenseHermitian,
                         EigensolverError, NotPositiveDefiniteError,
                         SparseHermitian, block_grid_family, cholesky,
                         coercivity_transform, dense_smallest,
                         extreme_eigs, hermitian, smallest_eigpairs)
from eigenbounds.hermitian import orthonormal_columns


def jacobi_eigenvalues(A, tol=1e-14, max_sweeps=60):
    """Cyclic Jacobi rotations; independent oracle for symmetric eigenvalues."""
    A = np.array(A, dtype=float, copy=True)
    n = A.shape[0]
    for _ in range(max_sweeps):
        off = np.sqrt(np.sum(np.tril(A, -1) ** 2))
        if off <= tol * np.linalg.norm(A):
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(A[p, q]) < 1e-300:
                    continue
                theta = 0.5 * (A[q, q] - A[p, p]) / A[p, q]
                t = np.sign(theta) / (abs(theta) + np.sqrt(theta ** 2 + 1.0)) \
                    if theta != 0 else 1.0
                c = 1.0 / np.sqrt(t ** 2 + 1.0)
                s = t * c
                rot = np.eye(n)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                A = rot.T @ A @ rot
    return np.sort(np.diag(A))


class TestHermitianOperator:
    def test_symmetrization_and_defect(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((8, 8))
        op = DenseHermitian(A)
        assert_allclose(op.array, 0.5 * (A + A.T), atol=0)

    @pytest.mark.parametrize("n", [3, 17, 64])
    def test_matvec_matches_dense(self, n):
        rng = np.random.default_rng(n)
        A = rng.standard_normal((n, n))
        A = 0.5 * (A + A.T)
        sp_op = SparseHermitian(sparse.csr_matrix(A))
        x = rng.standard_normal(n)
        ref = A @ x
        assert_allclose(sp_op.matvec(x), ref, rtol=1e-13)
        assert_allclose(DenseHermitian(A).matvec(x), ref, rtol=1e-13)

    def test_complex_rayleigh_quotient_is_real(self):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
        op = hermitian(A)
        for _ in range(20):
            u = rng.standard_normal(12) + 1j * rng.standard_normal(12)
            quad = np.vdot(u, op.matvec(u))
            assert abs(quad.imag) <= 1e-12 * max(abs(quad), 1.0)

    def test_negation_is_involutive(self):
        for A in (hermitian(np.diag([1.0, 2.0])),
                  hermitian(sparse.diags([1.0, 2.0]))):
            assert type(-A) is type(A)
            assert np.array_equal((-(-A)).dense(), A.dense())


class TestSmallestEigpairs:
    def test_diagonal(self):
        ep = smallest_eigpairs(np.diag(np.arange(1.0, 11.0)), 2)
        assert_allclose(ep.values, [1.0, 2.0], atol=1e-12)
        assert_allclose(np.abs(ep.vectors[0, 0]), 1.0, atol=1e-10)
        assert_allclose(np.abs(ep.vectors[1, 1]), 1.0, atol=1e-10)

    def test_tridiagonal_analytic(self):
        n = 50
        T = sparse.diags([-np.ones(n - 1), 2 * np.ones(n), -np.ones(n - 1)],
                         [-1, 0, 1])
        ep = smallest_eigpairs(T, 1)
        exact = 2.0 - 2.0 * np.cos(np.pi / (n + 1))
        assert_allclose(ep.values[0], exact, atol=1e-10)

    def test_random_matches_dense_oracle(self):
        rng = np.random.default_rng(42)
        A = rng.standard_normal((200, 200))
        A = 0.5 * (A + A.T)
        expected = np.linalg.eigvalsh(A)[:3]
        ep = smallest_eigpairs(A, 3)
        assert_allclose(ep.values, expected, atol=1e-8)
        # orthonormality of the eigenvector block
        gram = ep.vectors.T @ ep.vectors
        assert_allclose(gram, np.eye(3), atol=1e-10)

    def test_complex_hermitian(self):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((90, 90)) + 1j * rng.standard_normal((90, 90))
        A = 0.5 * (A + A.conj().T)
        expected = np.linalg.eigvalsh(A)[:2]
        ep = smallest_eigpairs(A, 2)
        assert_allclose(ep.values, expected, atol=1e-7)

    def test_monotone_in_k(self):
        rng = np.random.default_rng(9)
        A = rng.standard_normal((120, 120))
        A = 0.5 * (A + A.T)
        tol = 1e-8
        v2 = smallest_eigpairs(A, 2).values
        v5 = smallest_eigpairs(A, 5).values
        assert np.all(np.abs(v2 - v5[:2]) <= 10 * tol)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(11)
        A = rng.standard_normal((150, 150))
        A = 0.5 * (A + A.T)
        a = smallest_eigpairs(A, 2, seed=3)
        b = smallest_eigpairs(A, 2, seed=3)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.vectors, b.vectors)

    def test_k_out_of_range(self):
        A = np.eye(4)
        with pytest.raises(ArgumentError):
            smallest_eigpairs(A, 5)
        with pytest.raises(ArgumentError):
            smallest_eigpairs(A, 0)

    @pytest.mark.parametrize("kind", ["dense", "sparse"])
    def test_k_equal_n_is_the_dense_decomposition(self, kind):
        # n above DENSE_FALLBACK_SIZE: only k == n takes the dense path
        rng = np.random.default_rng(31)
        n = 90
        A = rng.standard_normal((n, n))
        A = 0.5 * (A + A.T)
        op = hermitian(sparse.csr_matrix(A) if kind == "sparse" else A)
        ep = smallest_eigpairs(op, n)
        ref = dense_smallest(op.dense(), n)
        assert ep.count == n
        for name in ("values", "vectors", "residuals"):
            assert np.array_equal(getattr(ep, name), getattr(ref, name))
        with pytest.raises(ArgumentError):
            smallest_eigpairs(op, n + 1)

    def test_nonconvergence_carries_best_iterate(self):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((300, 300))
        A = 0.5 * (A + A.T)
        with pytest.raises(EigensolverError) as err:
            smallest_eigpairs(A, 2, restart_cap=1)
        best = err.value.best
        assert best is not None
        # ARPACK hands back only the pairs that converged
        assert best.count < 2
        assert best.vectors.shape == (300, best.count)
        assert np.all(np.isfinite(best.residuals))
        assert np.all(best.residuals >= 0)

    def test_residual_tolerance_honored(self):
        rng = np.random.default_rng(21)
        A = rng.standard_normal((160, 160))
        A = 0.5 * (A + A.T)
        tol = 1e-7
        ep = smallest_eigpairs(A, 2)
        norm_est = np.abs(np.linalg.eigvalsh(A)).max()
        assert np.all(ep.residuals <= tol * norm_est * 1.01)


def _grid_families():
    """A small sparse block-grid family (n = 120) and its pencil form."""
    fam = block_grid_family(nx=12, ny=10, blocks=(2, 2))
    lap = fam.terms[0].matrix
    X = (lap + 0.3 * lap.diagonal().mean()
         * sparse.identity(fam.n, format="csr")).tocsr()
    return {"standard": fam, "pencil": coercivity_transform(fam, X)}


class TestShiftInvert:
    @pytest.mark.parametrize("kind", ["standard", "pencil"])
    @pytest.mark.parametrize("gap", [1e-8, 0.5])
    def test_shift_below_gives_the_smallest_pairs(self, kind, gap):
        fam = _grid_families()[kind]
        mu = [0.2, 0.45, 0.1, 0.3]
        op, M = fam.operator_at(mu), fam.inner_product
        plain = smallest_eigpairs(op, 3, M=M)
        sigma = plain.values[0] - gap * abs(plain.values[0])
        shifted = smallest_eigpairs(op, 3, M=M, below=sigma)
        assert not plain.shift_fallback and not shifted.shift_fallback
        assert np.all(np.abs(shifted.values - plain.values)
                      <= shifted.residuals + plain.residuals)
        gram = shifted.vectors.T @ (shifted.vectors if M is None
                                    else M.matrix.matmat(shifted.vectors))
        assert_allclose(gram, np.eye(3), atol=1e-10)

    @pytest.mark.parametrize("kind", ["standard", "pencil"])
    def test_shift_above_falls_back_to_the_unshifted_solve(self, kind):
        fam = _grid_families()[kind]
        mu = [0.4, 0.1, 0.25, 0.35]
        op, M = fam.operator_at(mu), fam.inner_product
        plain = smallest_eigpairs(op, 2, M=M)
        above = smallest_eigpairs(op, 2, M=M,
                                  below=0.5 * (plain.values[0]
                                               + plain.values[1]))
        assert above.shift_fallback
        assert np.array_equal(above.values, plain.values)
        assert np.array_equal(above.vectors, plain.vectors)

    def test_dense_operator_ignores_the_shift(self):
        rng = np.random.default_rng(13)
        A = rng.standard_normal((100, 100))
        A = DenseHermitian(A + A.T)
        plain = smallest_eigpairs(A, 2)
        for sigma in (plain.values[0] - 1.0, plain.values[1] + 1.0):
            shifted = smallest_eigpairs(A, 2, below=sigma)
            assert not shifted.shift_fallback
            for field in ("values", "vectors", "residuals"):
                assert np.array_equal(getattr(shifted, field),
                                      getattr(plain, field))

    @pytest.mark.parametrize("sigma", [np.nan, -np.inf])
    def test_non_finite_shift_rejected(self, sigma):
        with pytest.raises(ArgumentError, match="finite"):
            smallest_eigpairs(sparse.identity(80, format="csr"), 1,
                              below=sigma)


class TestExtremeEigs:
    def test_diag(self):
        assert extreme_eigs(np.diag([1.0, -1.0])) == (-1.0, 1.0)

    def test_antidiag(self):
        lo, hi = extreme_eigs(np.array([[0.0, -1.0], [-1.0, 0.0]]))
        assert_allclose([lo, hi], [-1.0, 1.0], atol=1e-12)

    def test_random_sparse_matches_dense(self):
        rng = np.random.default_rng(17)
        n = 500
        A = sparse.random(n, n, density=0.02, random_state=17,
                          data_rvs=rng.standard_normal)
        A = 0.5 * (A + A.T)
        lo, hi = extreme_eigs(A)
        w = np.linalg.eigvalsh(A.toarray())
        assert_allclose([lo, hi], [w[0], w[-1]], atol=1e-8)

    def test_negation_symmetry_exact(self):
        rng = np.random.default_rng(23)
        A = rng.standard_normal((130, 130))
        A = 0.5 * (A + A.T)
        op = hermitian(A)
        lo, hi = extreme_eigs(op)
        lo2, hi2 = extreme_eigs(-op)
        assert lo2 == -hi and hi2 == -lo

    def test_negation_symmetry_exact_sparse(self):
        A = sparse.random(300, 300, density=0.03, random_state=29)
        op = hermitian(A + A.T)
        assert isinstance(-op, SparseHermitian)
        lo, hi = extreme_eigs(op)
        assert extreme_eigs(-op) == (-hi, -lo)

    def test_one_by_one(self):
        assert extreme_eigs(np.array([[-2.5]])) == (-2.5, -2.5)


class TestDenseSmallest:
    def test_scalar(self):
        ep = dense_smallest(np.array([[3.5]]), 1)
        assert_allclose(ep.values, [3.5])
        assert_allclose(np.abs(ep.vectors), [[1.0]])

    def test_diag_ordering(self):
        ep = dense_smallest(np.diag([3.0, 1.0, 2.0]), 2)
        assert_allclose(ep.values, [1.0, 2.0])

    def test_against_jacobi_oracle(self):
        rng = np.random.default_rng(7)
        A = rng.standard_normal((40, 40))
        A = 0.5 * (A + A.T)
        expected = jacobi_eigenvalues(A)
        ep = dense_smallest(A, 40)
        assert_allclose(ep.values, expected, atol=1e-12)


class TestCholesky:
    def test_identity(self):
        v = np.random.default_rng(1).standard_normal(4)
        assert_allclose(cholesky(np.eye(4)).solve(v), v)

    def test_diagonal(self):
        X = np.diag([4.0, 9.0])
        v = np.array([1.0, -2.0])
        assert_allclose(cholesky(X).solve(X @ v), v)

    def test_random_spd_reconstruction(self):
        rng = np.random.default_rng(3)
        G = rng.standard_normal((100, 100))
        X = G @ G.T + 100 * np.eye(100)
        fac = cholesky(X)
        V = rng.standard_normal((100, 3))
        rel = np.linalg.norm(fac.solve(X @ V) - V) / np.linalg.norm(V)
        assert rel <= 1e-12

    def test_vector_and_block_solves(self):
        rng = np.random.default_rng(4)
        G = rng.standard_normal((30, 30))
        X = G @ G.T + 30 * np.eye(30)
        fac = cholesky(sparse.csr_matrix(X))
        v = rng.standard_normal(30)
        B = rng.standard_normal((30, 2)) + 1j * rng.standard_normal((30, 2))
        assert_allclose(X @ fac.solve(v), v, atol=1e-10)
        assert_allclose(X @ fac.solve(B), B, atol=1e-10)

    def test_not_positive_definite_reports_pivot(self):
        X = np.diag([1.0, -1.0, 2.0])
        with pytest.raises(NotPositiveDefiniteError) as err:
            cholesky(X)
        assert err.value.pivot == 2

    def test_pivot_index_in_own_numbering(self):
        # a diagonally dominant X with one negative diagonal entry: every
        # pivot eliminated before it is positive, and its own is negative
        n = 400
        X = sparse.diags([-np.ones(n - 1), 3.0 * np.ones(n),
                          -np.ones(n - 1)], [-1, 0, 1]).tolil()
        X[237, 237] = -5.0
        with pytest.raises(NotPositiveDefiniteError) as err:
            cholesky(X.tocsr())
        assert err.value.pivot == 238

    def test_exactly_singular_raises(self):
        with pytest.raises(NotPositiveDefiniteError) as err:
            cholesky(np.ones((2, 2)))
        assert err.value.pivot is None

    def test_indefinite_sparse_raises_without_densifying(self):
        # the n = 4225 grid Laplacian shifted into indefiniteness; a dense
        # copy would take 143 MB, the sparse factor a few
        nx = 65
        T = sparse.diags([-np.ones(nx - 1), 2.0 * np.ones(nx),
                          -np.ones(nx - 1)], [-1, 0, 1])
        lap = sparse.kronsum(T, T).tocsr()
        X = lap - 0.3 * lap.diagonal().mean() * sparse.identity(nx * nx)
        tracemalloc.start()
        try:
            with pytest.raises(NotPositiveDefiniteError) as err:
                cholesky(X.tocsr())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 1 <= err.value.pivot <= nx * nx
        assert peak < 8 * (nx * nx) ** 2 / 16

    def test_complex_hermitian_spd(self):
        rng = np.random.default_rng(8)
        G = rng.standard_normal((20, 20)) + 1j * rng.standard_normal((20, 20))
        X = G @ G.conj().T + 40 * np.eye(20)
        fac = cholesky(X)
        v = rng.standard_normal(20) + 1j * rng.standard_normal(20)
        rel = np.linalg.norm(fac.solve(X @ v) - v) / np.linalg.norm(v)
        assert rel <= 1e-12


def test_orthonormal_columns_drops_dependent():
    rng = np.random.default_rng(6)
    X = rng.standard_normal((10, 2))
    X = np.column_stack([X, X[:, 0] + X[:, 1]])
    Q, kept = orthonormal_columns(X)
    assert Q.shape == (10, 2)
    assert kept == [0, 1]
    assert_allclose(Q.T @ Q, np.eye(2), atol=1e-12)


def test_orthonormal_columns_against_block():
    rng = np.random.default_rng(12)
    base, _ = orthonormal_columns(rng.standard_normal((20, 5)))
    Q, _ = orthonormal_columns(rng.standard_normal((20, 3)), against=base)
    assert_allclose(base.T @ Q, np.zeros((5, 3)), atol=1e-12)
    assert_allclose(Q.T @ Q, np.eye(3), atol=1e-12)
