import functools
import importlib
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sparse
from numpy.testing import assert_allclose

from eigenbounds import (AffineFamily, ArgumentError, DenseHermitian,
                         EigensolverError, NotPositiveDefiniteError,
                         SparseHermitian, block_grid_family, cholesky,
                         coercivity_transform, compute_bounding_box,
                         dense_smallest, extreme_eigs, hermitian,
                         smallest_eigpairs, solve_at_sample)
from eigenbounds.hermitian import orthonormal_columns
from helpers import no_placed_shift

# the package re-exports a function named ``hermitian`` over the module
hermitian_module = importlib.import_module("eigenbounds.hermitian")


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


def _dense_and_sparse(A):
    """A as a dense array (LAPACK's partial solver for 72 < n <= 800) and
    as CSR (ARPACK)."""
    return A, sparse.csr_matrix(A)


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
        for stored in _dense_and_sparse(A):
            ep = smallest_eigpairs(stored, 3)
            assert_allclose(ep.values, expected, atol=1e-8)
            # orthonormality of the eigenvector block
            gram = ep.vectors.T @ ep.vectors
            assert_allclose(gram, np.eye(3), atol=1e-10)

    def test_complex_hermitian(self):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((90, 90)) + 1j * rng.standard_normal((90, 90))
        A = 0.5 * (A + A.conj().T)
        expected = np.linalg.eigvalsh(A)[:2]
        for stored in _dense_and_sparse(A):
            ep = smallest_eigpairs(stored, 2)
            assert_allclose(ep.values, expected, atol=1e-7)

    def test_monotone_in_k(self):
        rng = np.random.default_rng(9)
        A = rng.standard_normal((120, 120))
        A = 0.5 * (A + A.T)
        tol = 1e-8
        for stored in _dense_and_sparse(A):
            v2 = smallest_eigpairs(stored, 2).values
            v5 = smallest_eigpairs(stored, 5).values
            assert np.all(np.abs(v2 - v5[:2]) <= 10 * tol)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(11)
        A = rng.standard_normal((150, 150))
        A = 0.5 * (A + A.T)
        for stored in _dense_and_sparse(A):
            a = smallest_eigpairs(stored, 2, seed=3)
            b = smallest_eigpairs(stored, 2, seed=3)
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
        # n above DENSE_FALLBACK_SIZE: k == n goes to LAPACK even for a
        # sparse operator (ARPACK needs k < n), with the pairs that
        # dense_smallest gives for the densified matrix
        rng = np.random.default_rng(31)
        n = 90
        A = rng.standard_normal((n, n))
        A = 0.5 * (A + A.T)
        op = hermitian(sparse.csr_matrix(A) if kind == "sparse" else A)
        ep = smallest_eigpairs(op, n)
        ref = dense_smallest(op.dense(), n)
        assert len(ep.values) == n
        for name in ("values", "vectors", "residuals"):
            assert np.array_equal(getattr(ep, name), getattr(ref, name))
        with pytest.raises(ArgumentError):
            smallest_eigpairs(op, n + 1)

    def test_nonconvergence_carries_best_iterate(self, monkeypatch):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((300, 300))
        A = sparse.csr_matrix(0.5 * (A + A.T))       # sparse: ARPACK
        # unshifted, with one restart; shift-inverted it would converge
        monkeypatch.setattr(hermitian_module, "_placed_shift",
                            no_placed_shift)
        monkeypatch.setattr(hermitian_module, "eigsh", functools.partial(
            hermitian_module.eigsh, maxiter=1))
        with pytest.raises(EigensolverError) as err:
            smallest_eigpairs(A, 2)
        best = err.value.best
        assert best is not None
        # ARPACK hands back only the pairs that converged
        assert len(best.values) < 2
        assert best.vectors.shape == (300, len(best.values))
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


def _negated_laplacian(fam):
    """``fam`` with its Laplacian term negated (the pencil keeps its X):
    every A(mu) has a negative diagonal, so no Gershgorin floor is tried."""
    return replace(fam, terms=(-fam.terms[0], *fam.terms[1:]))


def _unshifted(monkeypatch, op, k, M=None):
    """The unshifted solve: no shift given and none placed."""
    with monkeypatch.context() as patched:
        patched.setattr(hermitian_module, "_placed_shift", no_placed_shift)
        pairs = smallest_eigpairs(op, k, M=M)
    assert pairs.shift_fallback
    return pairs


class TestShiftInvert:
    @pytest.mark.parametrize("kind", ["standard", "pencil"])
    @pytest.mark.parametrize("gap", [1e-8, 0.5])
    def test_shift_below_gives_the_smallest_pairs(self, monkeypatch, kind,
                                                  gap):
        fam = _grid_families()[kind]
        mu = [0.2, 0.45, 0.1, 0.3]
        op, M = fam.operator_at(mu), fam.inner_product
        plain = _unshifted(monkeypatch, op, 3, M=M)
        sigma = plain.values[0] - gap * abs(plain.values[0])
        shifted = smallest_eigpairs(op, 3, M=M, below=sigma)
        assert not shifted.shift_fallback
        assert np.all(np.abs(shifted.values - plain.values)
                      <= shifted.residuals + plain.residuals)
        gram = shifted.vectors.T @ (shifted.vectors if M is None
                                    else M.matrix.matmat(shifted.vectors))
        assert_allclose(gram, np.eye(3), atol=1e-10)

    @pytest.mark.parametrize("kind", ["standard", "pencil"])
    def test_shift_above_falls_back_to_the_unshifted_solve(self, monkeypatch,
                                                           kind):
        fam = _grid_families()[kind]
        mu = [0.4, 0.1, 0.25, 0.35]
        op, M = fam.operator_at(mu), fam.inner_product
        plain = _unshifted(monkeypatch, op, 2, M=M)
        above = smallest_eigpairs(op, 2, M=M,
                                  below=0.5 * (plain.values[0]
                                               + plain.values[1]))
        assert above.shift_fallback
        assert np.array_equal(above.values, plain.values)
        assert np.array_equal(above.vectors, plain.vectors)

    @pytest.mark.parametrize("kind", ["standard", "pencil"])
    def test_no_shift_is_placed_below_a_loose_estimate(self, monkeypatch,
                                                       kind):
        # a negative diagonal: no floor is tried, so one factor is made
        fam = _negated_laplacian(_grid_families()[kind])
        mu = [0.3, 0.2, 0.4, 0.15]
        op, M = fam.operator_at(mu), fam.inner_product
        plain = _unshifted(monkeypatch, op, 2, M=M)
        calls = _record_shifted_factors(monkeypatch)
        placed = smallest_eigpairs(op, 2, M=M)
        lam1 = plain.values[0]
        sigma, = calls
        assert lam1 - 0.021 * abs(lam1) <= sigma < lam1
        assert not placed.shift_fallback
        assert np.all(np.abs(placed.values - plain.values)
                      <= placed.residuals + plain.residuals)

    @pytest.mark.parametrize("kind", ["standard", "pencil"])
    @pytest.mark.parametrize("which", ["laplacian", "sample"])
    def test_no_shift_is_placed_at_the_gershgorin_floor(self, monkeypatch,
                                                        kind, which):
        # the Laplacian's low end and a sample A(mu) have a positive
        # diagonal: one factor at sigma_0 <= lambda_1, and no loose pass
        fam = _grid_families()[kind]
        op = (fam.terms[0] if which == "laplacian"
              else fam.operator_at([0.3, 0.2, 0.4, 0.15]))
        M = fam.inner_product
        plain = _unshifted(monkeypatch, op, 2, M=M)
        calls = _record_shifted_factors(monkeypatch)
        monkeypatch.setattr(hermitian_module, "_estimate", None)  # uncallable
        placed = smallest_eigpairs(op, 2, M=M)
        lam1 = scipy.linalg.eigh(op.dense(), None if M is None
                                 else M.matrix.dense(), eigvals_only=True)[0]
        sigma, = calls
        assert sigma == hermitian_module._floor(op, M) <= lam1
        assert not placed.shift_fallback and not placed.loose_estimate
        assert np.all(np.abs(placed.values - plain.values)
                      <= placed.residuals + plain.residuals)

    def test_a_positive_floor_needs_no_more_solves(self, monkeypatch):
        # L + 1e4 I (n = 1056): sigma_0 = g_A > 0 sits just below lambda_1
        lap = block_grid_family().terms[0].matrix
        op = hermitian(lap + 1e4 * sparse.identity(lap.shape[0]))
        diagonal, radii = hermitian_module._gershgorin(op.matrix)
        assert hermitian_module._floor(op, None) == np.min(diagonal
                                                           - radii) > 0
        solves = []
        original = hermitian_module.SpdFactor.solve

        def counted(factor, B):
            solves.append(1)
            return original(factor, B)

        monkeypatch.setattr(hermitian_module.SpdFactor, "solve", counted)
        floored = smallest_eigpairs(op, 1)
        at_floor = len(solves)
        with monkeypatch.context() as patched:
            patched.setattr(hermitian_module, "_floor", lambda *args: None)
            estimated = smallest_eigpairs(op, 1)
        assert not floored.loose_estimate and estimated.loose_estimate
        assert 0 < at_floor <= len(solves) - at_floor
        assert (abs(floored.values[0] - estimated.values[0])
                <= floored.residuals[0] + estimated.residuals[0])

    @pytest.mark.parametrize("kind", ["standard", "pencil"])
    @pytest.mark.parametrize("which", ["negated laplacian", "cross term"])
    def test_loose_shift_starts_from_the_pass_ritz_vector(self, monkeypatch,
                                                          kind, which):
        # a non-positive diagonal entry: the loose pass places the shift
        # within 2.1% below lambda_1, and its Ritz vector starts the solve
        fam = _grid_families()[kind]
        op = -fam.terms[0] if which == "negated laplacian" else fam.terms[1]
        M = fam.inner_product
        plain = _unshifted(monkeypatch, op, 1, M=M)
        calls = _record_shifted_factors(monkeypatch)
        estimates, starts = [], []
        estimate, eigsh = hermitian_module._estimate, hermitian_module.eigsh

        def recorded_estimate(*args):
            estimates.append(estimate(*args))
            return estimates[-1]

        def recorded_eigsh(*args, **kwargs):
            if "sigma" in kwargs:
                starts.append(kwargs["v0"])
            return eigsh(*args, **kwargs)

        monkeypatch.setattr(hermitian_module, "_estimate", recorded_estimate)
        monkeypatch.setattr(hermitian_module, "eigsh", recorded_eigsh)
        placed = smallest_eigpairs(op, 1, M=M)
        (_, ritz), = estimates
        start, = starts
        sigma, = calls
        lam1 = plain.values[0]
        assert lam1 - 0.021 * abs(lam1) <= sigma < lam1
        assert start is ritz
        assert placed.loose_estimate and not placed.shift_fallback
        assert (abs(placed.values[0] - lam1)
                <= placed.residuals[0] + plain.residuals[0])

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


def _x_matrix(fam):
    """X of the family's pencil as a CSR matrix, I without one."""
    M = fam.inner_product
    return (sparse.identity(fam.n, format="csr") if M is None
            else M.matrix.matrix)


def _ordered_pattern(monkeypatch, kind, mu):
    """A grid family, a pattern whose ordering one factor below lambda_1
    has set, A(mu) summed on it and the unshifted pairs of A(mu)."""
    fam = _grid_families()[kind]
    pattern = fam.sparse_pattern()
    op = fam.operator_at(mu, pattern)
    plain = _unshifted(monkeypatch, op, 2, M=fam.inner_product)
    first = pattern.factor(op, plain.values[0] - 0.5 * abs(plain.values[0]))
    assert first.order is None and pattern.order is not None
    return fam, pattern, op, plain


class TestReusedOrdering:
    """A factor under the ordering of an earlier one certifies a shift as
    a fresh factor of A - sigma X does."""

    @pytest.mark.parametrize("kind", ["standard", "pencil"])
    def test_shift_above_falls_back_as_a_fresh_factor_refuses_it(
            self, monkeypatch, kind):
        fam, pattern, op, plain = _ordered_pattern(monkeypatch, kind,
                                                   [0.4, 0.1, 0.25, 0.35])
        above = 0.5 * (plain.values[0] + plain.values[1])
        with pytest.raises(NotPositiveDefiniteError):
            cholesky(SparseHermitian._exact(op.matrix
                                            - above * _x_matrix(fam)))
        got = smallest_eigpairs(op, 2, M=fam.inner_product, below=above)
        assert got.shift_fallback
        assert np.array_equal(got.values, plain.values)
        assert np.array_equal(got.vectors, plain.vectors)
        assert (pattern.factors, pattern.orderings) == (2, 1)

    @pytest.mark.parametrize("kind", ["standard", "pencil"])
    def test_failing_pivot_names_the_row_a_fresh_factor_names(
            self, monkeypatch, kind):
        fam, pattern, op, plain = _ordered_pattern(monkeypatch, kind,
                                                   [0.2, 0.45, 0.1, 0.3])
        above = 0.5 * (plain.values[0] + plain.values[1])
        with pytest.raises(NotPositiveDefiniteError) as fresh:
            cholesky(SparseHermitian._exact(op.matrix
                                            - above * _x_matrix(fam)))
        with pytest.raises(NotPositiveDefiniteError) as reused:
            pattern.factor(op, above)
        assert reused.value.pivot == fresh.value.pivot is not None

    @pytest.mark.parametrize("kind", ["standard", "pencil"])
    def test_reused_ordering_keeps_the_fresh_fill(self, monkeypatch, kind):
        # pre-permuting by perm_c itself instead of its inverse grows the
        # fill several times over
        fam, pattern, op, plain = _ordered_pattern(monkeypatch, kind,
                                                   [0.3, 0.2, 0.4, 0.15])
        sigma = plain.values[0] - 1e-3 * abs(plain.values[0])
        fresh = cholesky(SparseHermitian._exact(op.matrix
                                                - sigma * _x_matrix(fam)))
        reused = pattern.factor(op, sigma)
        assert reused.order is not None
        assert (reused.lu.L.nnz + reused.lu.U.nnz
                == fresh.lu.L.nnz + fresh.lu.U.nnz)
        b = np.random.default_rng(3).standard_normal((fam.n, 2))
        assert_allclose(reused.solve(b), fresh.solve(b), rtol=1e-10)


def _complex_grid_family():
    """The n = 120 grid family with every subdomain term made complex
    Hermitian: i (U - U^T) from its strict upper triangle U."""
    fam = block_grid_family(nx=12, ny=10, blocks=(2, 2))
    terms = [fam.terms[0].matrix]
    for term in fam.terms[1:]:
        upper = sparse.triu(term.matrix, 1)
        terms.append((1j * (upper - upper.T)).tocsr())
    return AffineFamily(terms=tuple(terms), theta=fam.theta,
                        domain=fam.domain)


class TestComplexPattern:
    """A complex Hermitian sparse family (n > DENSE_FALLBACK_SIZE, so its
    samples are shift-inverted by ARPACK) through one merged pattern."""

    POINTS = np.random.default_rng(31).uniform(0.1, 0.5, size=(4, 4))

    def test_assembly_is_the_term_by_term_sum(self):
        fam = _complex_grid_family()
        pattern = fam.sparse_pattern()
        for mu in self.POINTS:
            th = fam.theta_at(mu)
            acc = th[0] * fam.terms[0].matrix
            for c, term in zip(th[1:], fam.terms[1:]):
                acc = acc + c * term.matrix
            op = fam.operator_at(mu, pattern)
            assert op.iscomplex and op.pattern is pattern
            assert np.array_equal(op.matrix.toarray(), acc.toarray())

    def test_samples_match_the_dense_spectrum(self):
        fam = _complex_grid_family()
        assert fam.n > hermitian_module.DENSE_FALLBACK_SIZE
        pattern = fam.sparse_pattern()
        for mu in self.POINTS:
            pairs = solve_at_sample(fam, mu, 2, pattern=pattern)
            w = np.linalg.eigvalsh(fam.assemble_dense(mu))[:2]
            scale = np.abs(w).max()
            assert not pairs.shift_fallback
            # a factor of the conjugate (the transpose) would give the
            # same values with conjugated vectors and large residuals
            assert np.all(pairs.residuals <= 1e-10 * scale)
            assert np.all(np.abs(pairs.values - w)
                          <= pairs.residuals + 1e-13 * scale)
        assert (pattern.factors, pattern.orderings) == (len(self.POINTS), 1)

    def test_reused_factor_solves_the_complex_system(self):
        fam = _complex_grid_family()
        pattern = fam.sparse_pattern()
        op = fam.operator_at(self.POINTS[0], pattern)
        A = op.matrix.toarray()
        sigma = np.linalg.eigvalsh(A)[0] - 1.0
        rng = np.random.default_rng(5)
        b = rng.standard_normal((fam.n, 2)) + 1j * rng.standard_normal(
            (fam.n, 2))
        for factor in (pattern.factor(op, sigma), pattern.factor(op, sigma)):
            x = factor.solve(b)
            assert_allclose((A - sigma * np.eye(fam.n)) @ x, b, atol=1e-10)
        assert factor.order is not None


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

    def test_negation_symmetry_exact_across_the_two_routes(self):
        # the sparse Laplacian's low end takes its Gershgorin floor and the
        # high end, of -L, a loose pass; the ends of -L swap the routes
        lap = _grid_families()["standard"].terms[0]
        lo, hi, counts = hermitian_module._extreme_values(lap, 0, None)
        assert counts["loose_estimates"] == 1
        assert extreme_eigs(lap) == (lo, hi)
        assert extreme_eigs(-lap) == (-hi, -lo)

    def test_one_by_one(self):
        assert extreme_eigs(np.array([[-2.5]])) == (-2.5, -2.5)

    @pytest.mark.parametrize("pencil", [False, True])
    def test_singular_psd_term_matches_dense(self, pencil):
        # the 1-D Neumann Laplacian: PSD with the constant null vector, so
        # the loose estimate e of the low end is near 0
        n = 200
        main = np.full(n, 2.0)
        main[[0, -1]] = 1.0
        A = sparse.diags([-np.ones(n - 1), main, -np.ones(n - 1)],
                         [-1, 0, 1], format="csr")
        M = _tridiagonal_pencil(n) if pencil else None
        lo, hi = extreme_eigs(A, M=M)
        ends = (smallest_eigpairs(A, 1, M=M), smallest_eigpairs(-A, 1, M=M))
        assert (lo, hi) == (ends[0].values[0], -ends[1].values[0])
        w = scipy.linalg.eigh(A.toarray(),
                              None if M is None else M.matrix.dense(),
                              eigvals_only=True)
        # each end within its residual, plus the dense solve's roundoff
        roundoff = 1e-14 * abs(w[-1])
        assert abs(lo - w[0]) <= ends[0].residuals[0] + roundoff
        assert abs(hi - w[-1]) <= ends[1].residuals[0] + roundoff


def _pencil(nx, ny, blocks):
    """A block-grid family with X = Laplacian + 0.3 mean(diag) I attached."""
    fam = block_grid_family(nx=nx, ny=ny, blocks=blocks)
    lap = fam.terms[0].matrix
    X = (lap + 0.3 * lap.diagonal().mean()
         * sparse.identity(fam.n, format="csr")).tocsr()
    return coercivity_transform(fam, X), X.toarray()


def _record_shifted_factors(monkeypatch):
    calls = []
    original = hermitian_module._shifted_factor

    def recorded(op, sigma, M):
        calls.append(sigma)
        return original(op, sigma, M)

    monkeypatch.setattr(hermitian_module, "_shifted_factor", recorded)
    return calls


class TestPencilBox:
    @pytest.mark.parametrize("shape", [(12, 10, (2, 2)), (20, 18, (3, 2))])
    def test_ends_match_the_dense_pencil(self, monkeypatch, shape):
        # every term but the Laplacian is masked to one block: singular
        fam, X = _pencil(*shape)
        calls = _record_shifted_factors(monkeypatch)
        box = compute_bounding_box(fam)
        assert len(calls) == 2 * fam.q and box.shift_fallbacks == 0
        for q, term in enumerate(fam.terms):
            w = scipy.linalg.eigh(term.dense(), X, eigvals_only=True)
            scale = max(abs(w[0]), abs(w[-1]))
            assert abs(box.lower[q] - w[0]) <= 1e-13 * scale
            assert abs(box.upper[q] - w[-1]) <= 1e-13 * scale
        assert np.sum(np.abs(fam.terms[1].dense()).sum(axis=0) == 0) > 0

    def test_negation_symmetry_exact(self):
        fam, _ = _pencil(12, 10, (2, 2))
        for term in fam.terms[:2]:
            lo, hi = extreme_eigs(term, M=fam.inner_product)
            assert extreme_eigs(-term, M=fam.inner_product) == (-hi, -lo)

    @pytest.mark.parametrize("failure", ["above", "unconverged"])
    def test_failed_shift_is_solved_unshifted_and_counted(self, monkeypatch,
                                                          failure):
        fam, _ = _pencil(12, 10, (2, 2))
        M = fam.inner_product
        plain = [(_unshifted(monkeypatch, t, 1, M=M).values[0],
                  -_unshifted(monkeypatch, -t, 1, M=M).values[0])
                 for t in fam.terms]
        estimate = hermitian_module._estimate

        def placed_shift(op, seed, M):
            if failure == "unconverged":
                return None, None, None, True
            # the other end's estimate puts sigma near the top of the
            # spectrum, far above its smallest eigenvalue
            e = -estimate(-op, seed, M)[0]
            sigma = e - hermitian_module.ESTIMATE_TOL * abs(e)
            return (sigma, hermitian_module._shifted_factor(op, sigma, M),
                    None, True)

        monkeypatch.setattr(hermitian_module, "_placed_shift", placed_shift)
        box = compute_bounding_box(fam)
        assert box.shift_fallbacks == 2 * fam.q
        assert np.array_equal(box.lower, [lo for lo, _ in plain])
        assert np.array_equal(box.upper, [hi for _, hi in plain])

    def test_other_operators_are_never_shifted(self, monkeypatch):
        fam, X = _pencil(12, 10, (2, 2))
        calls = _record_shifted_factors(monkeypatch)
        term = fam.terms[1]
        extreme_eigs(term)                  # standard subdomain: LAPACK
        extreme_eigs(DenseHermitian(term.dense()))          # dense
        extreme_eigs(DenseHermitian(term.dense()), M=fam.inner_product)
        small, _ = _pencil(8, 8, (2, 2))                    # n = 64: LAPACK
        extreme_eigs(small.terms[0], M=small.inner_product)
        assert calls == []


def _no_arpack(monkeypatch):
    """Make every ARPACK call raise, so a test can see which solver runs."""
    class ArpackCalled(Exception):
        pass

    def eigsh(*args, **kwargs):
        raise ArpackCalled

    monkeypatch.setattr(hermitian_module, "eigsh", eigsh)
    return ArpackCalled


def _random_symmetric(n, seed):
    g = np.random.default_rng(seed).standard_normal((n, n))
    return 0.5 * (g + g.T)


def _tridiagonal_pencil(n):
    """The SPD factor of the 1-D Laplacian plus 0.1 I, sparse."""
    lap = sparse.diags([-np.ones(n - 1), 2.0 * np.ones(n), -np.ones(n - 1)],
                       [-1, 0, 1], format="csr")
    return cholesky((lap + 0.1 * sparse.identity(n, format="csr")).tocsr())


class TestDensePartialSolver:
    """Every operator with n <= DENSE_FALLBACK_SIZE, and a dense one with
    n <= DENSE_PARTIAL_CAP (pencils: n <= DENSE_PENCIL_CAP), takes LAPACK's
    partial solver; larger sparse and dense ones, ARPACK."""

    @pytest.mark.parametrize("n", [hermitian_module.DENSE_FALLBACK_SIZE + 1,
                                   300, hermitian_module.DENSE_PARTIAL_CAP])
    def test_dense_solves_without_arpack(self, monkeypatch, n):
        _no_arpack(monkeypatch)
        A = _random_symmetric(n, n)
        w = np.linalg.eigvalsh(A)
        allowance = n * np.finfo(float).eps * np.abs(w).max()
        op = DenseHermitian(A)
        for k in (1, 2):
            ep = smallest_eigpairs(op, k)
            assert np.all(np.abs(ep.values - w[:k]) <= allowance)
            assert np.all(ep.residuals <= allowance)
            assert_allclose(ep.vectors.T @ ep.vectors, np.eye(k),
                            rtol=0, atol=n * np.finfo(float).eps)
        lo, hi = extreme_eigs(op)
        assert abs(lo - w[0]) <= allowance and abs(hi - w[-1]) <= allowance
        assert extreme_eigs(-op) == (-hi, -lo)

    def test_sparse_and_larger_dense_reach_arpack(self, monkeypatch):
        arpack_called = _no_arpack(monkeypatch)
        cap = hermitian_module.DENSE_PARTIAL_CAP
        for op in (SparseHermitian(sparse.diags(np.arange(1.0, cap + 1))),
                   DenseHermitian(np.diag(np.arange(1.0, cap + 2)))):
            for solve in (lambda: smallest_eigpairs(op, 1),
                          lambda: smallest_eigpairs(op, 2),
                          lambda: extreme_eigs(op)):
                with pytest.raises(arpack_called):
                    solve()

    def test_dense_pencil_matches_scipy(self, monkeypatch):
        _no_arpack(monkeypatch)
        n = 150
        A = _random_symmetric(n, 3)
        M = _tridiagonal_pencil(n)
        X = M.matrix.matrix
        w = scipy.linalg.eigh(A, X.toarray(), eigvals_only=True)
        allowance = n * np.finfo(float).eps * np.abs(w).max()
        ep = smallest_eigpairs(DenseHermitian(A), 2, M=M)
        assert np.all(np.abs(ep.values - w[:2]) <= allowance)
        assert_allclose(ep.vectors.T @ (X @ ep.vectors), np.eye(2),
                        rtol=0, atol=1e-12)
        lo, hi = extreme_eigs(DenseHermitian(A), M=M)
        assert abs(lo - w[0]) <= allowance and abs(hi - w[-1]) <= allowance

    def test_larger_dense_pencil_reaches_arpack(self, monkeypatch):
        arpack_called = _no_arpack(monkeypatch)
        n = hermitian_module.DENSE_PENCIL_CAP + 1
        op = DenseHermitian(np.diag(np.arange(1.0, n + 1)))
        M = cholesky(sparse.identity(n, format="csr"))
        for solve in (lambda: smallest_eigpairs(op, 1, M=M),
                      lambda: extreme_eigs(op, M=M)):
            with pytest.raises(arpack_called):
                solve()

    def test_lapack_failure_is_an_eigensolver_error(self, monkeypatch):
        def eigh(*args, **kwargs):
            raise np.linalg.LinAlgError("did not converge")

        monkeypatch.setattr(scipy.linalg, "eigh", eigh)
        for solve in (
                lambda: smallest_eigpairs(
                    DenseHermitian(_random_symmetric(100, 4)), 1),
                lambda: smallest_eigpairs(
                    DenseHermitian(_random_symmetric(40, 4)), 1),
                lambda: dense_smallest(_random_symmetric(40, 4), 1)):
            with pytest.raises(EigensolverError) as err:
                solve()
            assert err.value.best is None

    @pytest.mark.parametrize("n", [20, 100])
    def test_non_finite_operator_raises_value_error(self, n):
        A = np.eye(n)
        A[3, 3] = np.nan
        for solve in (lambda: smallest_eigpairs(A, 1),
                      lambda: extreme_eigs(A)):
            with pytest.raises(ValueError, match="infs or NaNs"):
                solve()

    def test_double_smallest_eigenvalue_returns_both_copies(self, monkeypatch):
        _no_arpack(monkeypatch)
        n = 100
        Q, _ = np.linalg.qr(np.random.default_rng(8).standard_normal((n, n)))
        lam = np.concatenate([[-1.0, -1.0], np.linspace(0.5, 5.0, n - 2)])
        ep = smallest_eigpairs(DenseHermitian((Q * lam) @ Q.T), 2)
        allowance = n * np.finfo(float).eps * 5.0
        assert np.all(np.abs(ep.values + 1.0) <= allowance)
        # both vectors lie in the eigenspace spanned by Q's first two columns
        assert_allclose(Q[:, :2] @ (Q[:, :2].T @ ep.vectors), ep.vectors,
                        rtol=0, atol=1e-12)
        assert_allclose(ep.vectors.T @ ep.vectors, np.eye(2),
                        rtol=0, atol=1e-13)


def _two_partial_solves(op, M=None):
    """The box ends as one partial solve each of A and -A gives them."""
    return (smallest_eigpairs(op, 1, M=M).values[0],
            -smallest_eigpairs(-op, 1, M=M).values[0])


def _dense_family(q, n, M=None, entry=None):
    """A dense family of ``q`` random terms; ``entry`` = (i, j, value) is
    written into the first term at (i, j) and (j, i)."""
    terms = [_random_symmetric(n, 40 + k) for k in range(q)]
    if entry is not None:
        i, j, value = entry
        terms[0][i, j] = terms[0][j, i] = value
    return AffineFamily(terms=tuple(terms),
                        theta=lambda mu: np.concatenate([[1.0], mu]),
                        domain=((0.0, 1.0),) * (q - 1), inner_product=M)


class TestDenseBoxReduction:
    """A term that LAPACK takes (every one up to DENSE_FALLBACK_SIZE, a
    dense one up to the caps) takes both box ends from one tridiagonal
    reduction: bit for bit the values of the two partial solves of A and
    -A it replaces."""

    @pytest.mark.parametrize("n", [1, 2, 40,
                                   hermitian_module.DENSE_FALLBACK_SIZE,
                                   hermitian_module.DENSE_FALLBACK_SIZE + 1,
                                   300, hermitian_module.DENSE_PARTIAL_CAP])
    def test_real_ends_equal_two_partial_solves(self, n):
        op = DenseHermitian(_random_symmetric(n, n + 7))
        lo, hi = extreme_eigs(op)
        assert (lo, hi) == _two_partial_solves(op)
        assert extreme_eigs(-op) == (-hi, -lo)

    def test_complex_ends_equal_two_partial_solves(self):
        rng = np.random.default_rng(90)
        op = DenseHermitian(rng.standard_normal((90, 90))
                            + 1j * rng.standard_normal((90, 90)))
        lo, hi = extreme_eigs(op)
        assert (lo, hi) == _two_partial_solves(op)
        assert extreme_eigs(-op) == (-hi, -lo)

    def test_pencil_ends_equal_two_partial_solves(self):
        M = _tridiagonal_pencil(150)
        op = DenseHermitian(_random_symmetric(150, 3))
        lo, hi = extreme_eigs(op, M=M)
        assert (lo, hi) == _two_partial_solves(op, M)
        assert extreme_eigs(-op, M=M) == (-hi, -lo)

    def test_box_runs_no_partial_solve(self, monkeypatch):
        def eigensolve(*args, **kwargs):
            raise AssertionError("an eigensolve with vectors ran")

        for owner, name in ((scipy.linalg, "eigh"), (np.linalg, "eigh"),
                            (hermitian_module, "eigsh")):
            monkeypatch.setattr(owner, name, eigensolve)
        small_sparse = block_grid_family(nx=8, ny=8, blocks=(2, 2))
        assert small_sparse.n <= hermitian_module.DENSE_FALLBACK_SIZE
        for fam in (_dense_family(4, 300), _dense_family(4, 40),
                    small_sparse):
            box = compute_bounding_box(fam)
            assert box.shift_fallbacks == 0 and np.all(box.lower < box.upper)

    def test_pencil_box_ends_equal_two_partial_solves(self):
        fam = _dense_family(4, 150, M=_tridiagonal_pencil(150))
        box = compute_bounding_box(fam)
        for q, term in enumerate(fam.terms):
            assert ((box.lower[q], box.upper[q])
                    == _two_partial_solves(term, fam.inner_product))

    def test_cholesky_failure_is_an_eigensolver_error(self, monkeypatch):
        # ?potrf of the densified X reports a non-positive leading minor
        lapack_funcs = scipy.linalg.get_lapack_funcs

        def failing_potrf(X, lower=0):
            return X, 2

        def patched(names, arrays=()):
            return [failing_potrf if name == "potrf" else func
                    for name, func in zip(names, lapack_funcs(names, arrays))]

        fam = _dense_family(2, 100, M=_tridiagonal_pencil(100))
        monkeypatch.setattr(scipy.linalg, "get_lapack_funcs", patched)
        with pytest.raises(EigensolverError,
                           match="bounding box failed on term 1: LAPACK "
                                 "failed: potrf returned info=2") as err:
            compute_bounding_box(fam)
        assert err.value.best is None

    def test_bisection_failure_is_an_eigensolver_error(self, monkeypatch):
        def bisection(*args, **kwargs):
            raise np.linalg.LinAlgError("bisection failed")

        monkeypatch.setattr(scipy.linalg, "eigvalsh_tridiagonal", bisection)
        with pytest.raises(EigensolverError,
                           match="bounding box failed on term 1") as err:
            compute_bounding_box(_dense_family(2, 100))
        assert err.value.best is None

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("pencil", [False, True])
    def test_non_finite_term_raises_value_error(self, value, pencil):
        for n in (40, 100):
            M = _tridiagonal_pencil(n) if pencil else None
            fam = _dense_family(2, n, M=M, entry=(3, 5, value))
            with pytest.raises(ValueError, match="infs or NaNs"):
                compute_bounding_box(fam)


class TestSupportedSparseEnds:
    """A standard sparse term with zero rows takes its box ends from its
    principal submatrix on the rows with stored entries, plus the zero
    eigenvalue of the rest."""

    @staticmethod
    def _subdomain_family():
        fam = block_grid_family(nx=24, ny=20, blocks=(2, 2))
        supports = [np.count_nonzero(np.diff(t.matrix.indptr))
                    for t in fam.terms[1:]]
        assert all(hermitian_module.DENSE_FALLBACK_SIZE < s < fam.n
                   for s in supports)
        return fam

    def test_box_matches_the_dense_spectrum(self):
        fam = self._subdomain_family()
        box = compute_bounding_box(fam)
        assert box.shift_fallbacks == 0
        for q, term in enumerate(fam.terms):
            w = np.linalg.eigvalsh(term.dense())
            scale = max(abs(w[0]), abs(w[-1]))
            assert abs(box.lower[q] - w[0]) <= 1e-13 * scale
            assert abs(box.upper[q] - w[-1]) <= 1e-13 * scale

    def test_negation_symmetry_exact(self):
        for term in self._subdomain_family().terms[1:]:
            lo, hi = extreme_eigs(term)
            assert extreme_eigs(-term) == (-hi, -lo)

    def test_supported_terms_run_no_arpack(self, monkeypatch):
        terms = self._subdomain_family().terms[1:]
        _no_arpack(monkeypatch)
        for term in terms:
            lo, hi = extreme_eigs(term)
            assert lo < 0.0 < hi

    def test_psd_term_has_lower_end_exactly_zero(self):
        diag = np.concatenate([np.arange(1.0, 6.0), np.zeros(95)])
        assert extreme_eigs(sparse.diags(diag).tocsr()) == (0.0, 5.0)

    def test_large_support_runs_arpack_on_the_submatrix(self, monkeypatch):
        # the 1-D Laplacian minus I on 900 of 1000 rows: both ends are
        # eigenvalues of the submatrix, 1 - 2 cos(k pi / 901)
        m = 900
        lap = sparse.diags([-np.ones(m - 1), np.ones(m), -np.ones(m - 1)],
                           [-1, 0, 1])
        E = sparse.identity(1000, format="csr")[50:50 + m]
        term = SparseHermitian((E.T @ lap @ E).tocsr())
        shapes = []
        original = hermitian_module.eigsh

        def recorded(A, *args, **kwargs):
            shapes.append(A.shape)
            return original(A, *args, **kwargs)

        monkeypatch.setattr(hermitian_module, "eigsh", recorded)
        lo, hi = extreme_eigs(term)
        # per end: the loose estimate, then the shift-invert solve
        assert shapes == [(m, m)] * 4
        w = 1.0 - 2.0 * np.cos(np.arange(1, m + 1) * np.pi / (m + 1))
        assert abs(lo - w.min()) <= 1e-13 * 3.0
        assert abs(hi - w.max()) <= 1e-13 * 3.0

    @pytest.mark.parametrize("n", [50, 100])
    def test_zero_term_is_zero_without_a_solve(self, monkeypatch, n):
        _no_arpack(monkeypatch)
        assert extreme_eigs(sparse.csr_matrix((n, n))) == (0.0, 0.0)

    def test_zero_pencil_term_is_zero_without_a_solve(self, monkeypatch):
        fam, _ = _pencil(12, 10, (2, 2))
        _no_arpack(monkeypatch)
        zero = sparse.csr_matrix((fam.n, fam.n))
        assert extreme_eigs(zero, M=fam.inner_product) == (0.0, 0.0)

    def test_box_of_a_family_with_a_zero_term(self):
        fam, _ = _pencil(12, 10, (2, 2))
        zero = sparse.csr_matrix((fam.n, fam.n))
        for M in (None, fam.inner_product):
            padded = AffineFamily(
                terms=fam.terms + (zero,),
                theta=lambda mu: np.concatenate([[1.0], mu, mu[:1]]),
                domain=fam.domain, inner_product=M)
            box = compute_bounding_box(padded)
            assert (box.lower[-1], box.upper[-1]) == (0.0, 0.0)
            assert box.shift_fallbacks == 0
            # a standard subdomain term takes one reduction, a pencil term
            # two ARPACK solves, the zero term none
            assert box.eig_count == (2 + 4 if M is None else 2 * 5)


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
