import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from eigenbounds import (AffineFamily, RitzData, SubspacePool,
                         beta_gap,
                         coercivity_transform, f_bound, lower_bound,
                         random_family, random_training_set,
                         residual_heuristic_bound, residual_norm,
                         ritz_upper_bound, solve_at_sample, subspace_greedy,
                         subspace_lower_bound, sweep_bounds,
                         tighten_and_resolve, unit_circle_family)
from eigenbounds.family import TrainingSet
from eigenbounds.hermitian import ArgumentError
from helpers import build_pool, make_smooth_family

SQ2 = math.sqrt(2.0)


def complex_family(n, seed):
    """Two complex Hermitian terms, theta = (1, mu) on [0, 0.5]."""
    rng = np.random.default_rng(seed)
    terms = []
    for _ in range(2):
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        terms.append(0.5 * (g + g.conj().T))
    return AffineFamily(terms=tuple(terms),
                        theta=lambda mu: np.array([1.0, mu[0]]),
                        domain=((0.0, 0.5),))


def diag_family(values):
    d = np.diag(np.asarray(values, dtype=float))
    return AffineFamily(terms=(d,), theta=lambda mu: np.array([1.0]),
                        domain=((0.0, 1.0),))


class TestAppendSample:
    def test_unit_circle_first_sample(self):
        fam = unit_circle_family()
        pool = build_pool(fam, [[0.0]])
        assert pool.dim == 1
        assert_allclose(np.abs(pool.basis.ravel()), [0.0, 1.0], atol=1e-12)
        assert_allclose(pool.reduced[0], [[-1.0]], atol=1e-12)
        assert_allclose(pool.reduced[1], [[0.0]], atol=1e-12)
        # one extra eigenvalue is stored for the gap lemma
        assert pool.sample_values[0].shape == (2,)
        assert_allclose(pool.sample_values[0], [-1.0, 1.0], atol=1e-12)

    def test_full_space_after_second_sample(self):
        fam = unit_circle_family()
        pool = build_pool(fam, [[0.0], [np.pi / 2]])
        assert pool.dim == 2
        for mu in np.linspace(0, np.pi, 17):
            rd = ritz_upper_bound(pool, [mu], r=1)
            assert_allclose(rd.values[0], -1.0, atol=1e-10)

    @pytest.mark.parametrize("kind, ell", [("real", 1), ("complex", 2)])
    def test_reduced_matrices_match_direct_recomputation(self, kind, ell):
        if kind == "real":
            fam = random_family(2, 50, delta=0.4, seed=0)
        else:
            fam = complex_family(30, seed=5)
        pool = build_pool(fam, [[0.1], [0.25], [0.33]], ell=ell)
        assert pool.dim == 3 * ell
        V = pool.basis
        for qi, term in enumerate(fam.terms):
            direct = V.conj().T @ term.dense() @ V
            assert_allclose(pool.reduced[qi], direct, atol=1e-12)
            assert np.array_equal(pool.reduced[qi], pool.reduced[qi].conj().T)
            for qj, term2 in enumerate(fam.terms):
                cross = V.conj().T @ term.dense() @ term2.dense() @ V
                assert_allclose(pool.cross[qi, qj], cross, atol=1e-10)
                assert np.array_equal(pool.cross[qi, qj],
                                      pool.cross[qj, qi].conj().T)

    def test_duplicate_sample_rejected(self):
        fam = unit_circle_family()
        pool = build_pool(fam, [[0.0]])
        with pytest.raises(ArgumentError):
            pool.add_sample([0.0])

    def test_dependent_vectors_dropped_but_constraints_kept(self):
        fam = diag_family([1.0, 2.0, 3.0])
        pool = build_pool(fam, [[0.2]])
        # same matrix at another parameter: eigenvectors are dependent
        pool.add_sample([0.7])
        assert pool.j == 2
        assert pool.dim == 1
        assert pool.dropped[1] == 1
        assert pool.rows.shape == (2, 1)

    def test_basis_orthonormal(self):
        fam = random_family(3, 40, delta=0.3, seed=1)
        pool = build_pool(fam, [[0.0, 0.1], [0.2, 0.05], [0.1, 0.28]], ell=2)
        gram = pool.basis.T @ pool.basis
        assert_allclose(gram, np.eye(pool.dim), atol=1e-10)


class TestRitzUpperBound:
    def test_sample_interpolation(self):
        fam = random_family(2, 60, delta=0.4, seed=2)
        pool = build_pool(fam, [[0.1], [0.3]])
        for i, mu in enumerate(pool.samples):
            rd = ritz_upper_bound(pool, mu, r=1)
            assert abs(rd.values[0] - pool.sample_values[i][0]) <= 1e-8

    def test_matches_direct_projection_oracle(self):
        fam = random_family(3, 200, delta=0.2, seed=3)
        pool = build_pool(fam, [[0.0, 0.1], [0.15, 0.02], [0.08, 0.19]])
        V = pool.basis
        rng = np.random.default_rng(0)
        for _ in range(10):
            mu = rng.uniform(0, 0.2, size=2)
            rd = ritz_upper_bound(pool, mu, r=2)
            direct = np.linalg.eigvalsh(V.T @ fam.assemble_dense(mu) @ V)
            assert_allclose(rd.values, direct[:2], atol=1e-10)

    def test_never_below_true_minimum(self):
        fam = random_family(2, 80, delta=0.4, seed=4)
        pool = build_pool(fam, [[0.05], [0.3]])
        rng = np.random.default_rng(1)
        for _ in range(10):
            mu = rng.uniform(0, 0.4, size=1)
            rd = ritz_upper_bound(pool, mu, r=1)
            oracle = np.linalg.eigvalsh(fam.assemble_dense(mu))[0]
            assert rd.values[0] >= oracle - 1e-8

    def test_r_clamped_with_flag(self):
        fam = unit_circle_family()
        pool = build_pool(fam, [[0.0]])
        rd = ritz_upper_bound(pool, [0.5], r=5)
        assert rd.r == pool.dim
        assert rd.r == 1


class TestResidualNorm:
    def test_invariant_subspace(self):
        fam = random_family(2, 90, delta=0.3, seed=5)
        pool = build_pool(fam, [[0.12]])
        rd = ritz_upper_bound(pool, [0.12], r=1)
        rho = residual_norm(pool, [0.12], rd)
        assert rho <= 1e-6 * np.linalg.norm(fam.assemble_dense([0.12]))

    def test_hand_instance(self):
        fam = diag_family([1.0, 2.0, 5.0])
        pool = build_pool(fam, [[0.0]], ell=2)
        assert pool.dim == 2
        rd = ritz_upper_bound(pool, [0.5], r=1)
        assert_allclose(rd.values[0], 1.0, atol=1e-12)
        assert residual_norm(pool, [0.5], rd) <= 1e-7

        # hand-made Ritz data for u = (e1 + e2)/sqrt(2): residual is 0.5
        u_coeffs = pool.basis.T @ (np.array([1.0, 1.0, 0.0]) / SQ2)
        hand = RitzData(r=1, values=np.array([1.5]),
                        coeffs=u_coeffs.reshape(-1, 1))
        assert_allclose(residual_norm(pool, [0.5], hand), 0.5, atol=1e-9)

    def test_matches_explicit_residual_oracle(self):
        fam = random_family(3, 120, delta=0.25, seed=6)
        pool = build_pool(fam, [[0.0, 0.1], [0.2, 0.2]])
        rng = np.random.default_rng(2)
        for _ in range(5):
            mu = rng.uniform(0, 0.25, size=2)
            rd = ritz_upper_bound(pool, mu, r=2)
            rho = residual_norm(pool, mu, rd)
            U = pool.basis @ rd.coeffs
            A = fam.assemble_dense(mu)
            explicit = np.linalg.norm(A @ U - U @ (U.T @ A @ U), ord=2)
            assert abs(rho - explicit) <= 1e-9


class TestPencilPool:
    """The pool of a family with an inner product X, against dense oracles."""

    @pytest.fixture(scope="class")
    def pencil(self):
        fam = random_family(3, 90, delta=0.25, seed=16)
        g = np.random.default_rng(17).standard_normal((90, 90))
        X = g @ g.T / 90 + np.eye(90)
        out = coercivity_transform(fam, X)
        return fam, X, build_pool(out, [[0.0, 0.1], [0.2, 0.2], [0.1, 0.0]],
                                  ell=2)

    def test_basis_x_orthonormal_and_reduced_terms(self, pencil):
        fam, X, pool = pencil
        V = pool.basis
        assert_allclose(V.T @ X @ V, np.eye(pool.dim), atol=1e-12)
        for qi, term in enumerate(fam.terms):
            assert_allclose(pool.reduced[qi], V.T @ term.dense() @ V,
                            atol=1e-12)

    def test_sample_coefficients_rebuild_sample_vectors(self, pencil):
        _, _, pool = pencil
        for i, mu in enumerate(pool.samples):
            # the solve add_sample made: k = ell + 1 pairs
            v = solve_at_sample(pool.family, mu, pool.k).vectors[:, 0]
            assert_allclose(pool.basis @ pool.coeffs[i][:, 0], v,
                            atol=1e-10)
            assert_allclose(pool.rows[i] @ pool.upper_points[i],
                            pool.values[i], atol=1e-12)

    def test_residual_matches_explicit_x_inverse_norm(self, pencil):
        fam, X, pool = pencil
        rng = np.random.default_rng(18)
        for _ in range(3):
            mu = rng.uniform(0, 0.25, size=2)
            rd = ritz_upper_bound(pool, mu, r=2)
            U = pool.basis @ rd.coeffs
            R = fam.assemble_dense(mu) @ U - X @ U * rd.values
            explicit = np.sqrt(np.linalg.eigvalsh(R.T @ np.linalg.solve(X, R))
                               [-1])
            assert abs(residual_norm(pool, mu, rd) - explicit) <= 1e-9


class TestBetaGap:
    def test_u_contains_sample_vector(self):
        fam = random_family(2, 40, delta=0.3, seed=7)
        pool = build_pool(fam, [[0.1]])
        beta = beta_gap(pool, 0, pool.coeffs[0][:, :1])
        lam = pool.sample_values[0]
        assert_allclose(beta, lam[1] - lam[0], rtol=1e-8)

    def test_u_orthogonal_to_sample_vector(self):
        fam = random_family(2, 40, delta=0.3, seed=8)
        pool = build_pool(fam, [[0.05], [0.25]])
        C0 = pool.coeffs[0][:, 0]
        # build a basis direction orthogonal to sample 0's eigenvector
        w = pool.coeffs[1][:, 0]
        w = w - C0 * (C0 @ w)
        w /= np.linalg.norm(w)
        beta = beta_gap(pool, 0, w.reshape(-1, 1))
        assert abs(beta) <= 1e-9

    @pytest.mark.parametrize("ell", [1, 2])
    def test_certified_against_projected_oracle(self, ell):
        rng = np.random.default_rng(10 + ell)
        fam = random_family(3, 30, delta=0.3, seed=10 + ell)
        mu0 = np.array([0.12, 0.21])
        pool = build_pool(fam, [mu0, [0.02, 0.28]], ell=ell)
        A0 = fam.assemble_dense(mu0)
        lam0 = pool.sample_values[0][0]
        for _ in range(5):
            w = rng.standard_normal(pool.dim)
            w /= np.linalg.norm(w)
            beta = beta_gap(pool, 0, w.reshape(-1, 1))
            U = (pool.basis @ w).reshape(-1, 1)
            # dense projected oracle on the orthogonal complement
            Uperp = np.linalg.svd(np.eye(30) - U @ U.T)[0][:, :29]
            oracle = np.linalg.eigvalsh(Uperp.T @ A0 @ Uperp)[0]
            assert lam0 + beta <= oracle + 1e-9
            # Monte-Carlo double check
            G = rng.standard_normal((30, 10_000))
            G -= U @ (U.T @ G)
            G /= np.linalg.norm(G, axis=0)
            quads = np.einsum("ij,ij->j", G, A0 @ G)
            assert lam0 + beta <= quads.min() + 1e-9


class TestEtaEstimate:
    def test_zero_bumps_give_lp_value(self):
        fam = unit_circle_family()
        pool = build_pool(fam, [[0.0], [np.pi / 2]])
        mu = [np.pi / 4]
        val, sol = lower_bound(pool, mu)
        (active,) = sol.active
        bumps = {i: 0.0 for i in active[active < sol.n_rows]}
        out = tighten_and_resolve(sol, bumps, fam.theta_at(mu))
        assert_allclose(out.eta, val, atol=1e-12)

    def test_eta_below_complement_minimum(self):
        fam = random_family(3, 40, delta=0.3, seed=12)
        pool = build_pool(fam, [[0.1, 0.1], [0.25, 0.05], [0.02, 0.22]])
        rng = np.random.default_rng(3)
        for _ in range(10):
            mu = rng.uniform(0, 0.3, size=2)
            slb, data, sol = subspace_lower_bound(pool, mu, r_max=2)
            if data.r == 0:
                continue
            U = pool.basis @ data.coeffs
            A = fam.assemble_dense(mu)
            Uperp = np.linalg.svd(np.eye(40) - U @ U.T)[0][:, :40 - data.r]
            oracle = np.linalg.eigvalsh(Uperp.T @ A @ Uperp)[0]
            assert data.eta <= oracle + 1e-8


class TestFBound:
    def test_zero_residual(self):
        assert f_bound(2.0, 5.0, 0.0) == 2.0
        assert f_bound(2.0, 1.0, 0.0) == 1.0

    def test_zero_gap(self):
        assert_allclose(f_bound(1.0, 1.0, 0.5), 0.5, atol=1e-15)

    def test_arithmetic_example(self):
        assert_allclose(f_bound(0.0, 3.0, 2.0), -1.0, atol=1e-14)

    def test_monotone_and_continuous(self):
        rng = np.random.default_rng(4)
        n = 100_000
        lam = rng.standard_normal(n) * 10
        rho = np.abs(rng.standard_normal(n)) * 3
        rho[:1000] = 0.0
        e1 = rng.standard_normal(n) * 10
        e2 = e1 + np.abs(rng.standard_normal(n)) * 5
        f1 = f_bound(lam, e1, rho)
        f2 = f_bound(lam, e2, rho)
        assert np.all(f1 <= f2 + 1e-14)
        # continuity across eta = lam_v1
        eps = 1e-9
        left = f_bound(lam, lam - eps, rho)
        right = f_bound(lam, lam + eps, rho)
        assert np.max(np.abs(left - right)) <= 1e-8
        exact = f_bound(lam, lam, rho)
        assert np.max(np.abs(left - exact)) <= 1e-8


class TestSubspaceLowerBound:
    def test_unit_circle_two_samples_exact(self):
        fam = unit_circle_family()
        pool = build_pool(fam, [[0.0], [np.pi / 2]])
        for mu in np.linspace(0.05, np.pi - 0.05, 15):
            slb, data, _ = subspace_lower_bound(pool, [mu], r_max=1)
            assert slb <= -1.0 + 1e-9
            assert slb >= -1.0 - 1e-6

    def test_sample_interpolation(self):
        fam = random_family(3, 60, delta=0.3, seed=13)
        pool = build_pool(fam, [[0.1, 0.2], [0.25, 0.02]])
        for i, mu in enumerate(pool.samples):
            slb, _, _ = subspace_lower_bound(pool, mu, r_max=3)
            assert abs(slb - pool.sample_values[i][0]) <= 1e-6

    def test_cascade_against_oracle(self):
        fam = random_family(4, 200, delta=0.2, seed=14)
        train = random_training_set(fam.domain, 60, seed=15)
        res = subspace_greedy(fam, train, eps=1e-12, j_max=10)
        pool = res.model
        rng = np.random.default_rng(5)
        for _ in range(30):
            mu = rng.uniform(0, 0.2, size=3)
            oracle = np.linalg.eigvalsh(fam.assemble_dense(mu))[0]
            slack = 1e-8 * (1 + abs(oracle))
            lam_lb, sol = lower_bound(pool, mu)
            slb, data, _ = subspace_lower_bound(pool, mu)
            rd = ritz_upper_bound(pool, mu, r=1)
            ub = float(np.min(pool.upper_points @ fam.theta_at(mu)))
            assert lam_lb <= slb + slack
            assert slb <= oracle + slack
            assert oracle <= rd.values[0] + slack
            assert rd.values[0] <= ub + slack

    def test_smallest_winning_r_reported(self):
        fam = unit_circle_family()
        pool = build_pool(fam, [[0.0], [np.pi / 2]])
        slb, data, _ = subspace_lower_bound(pool, [1.0], r_max=2)
        assert data.r in (0, 1, 2)

    @pytest.mark.parametrize("r_max", [-1, -2])
    def test_negative_r_max_rejected(self, r_max):
        fam = unit_circle_family()
        pool = build_pool(fam, [[0.0], [np.pi / 2]])
        with pytest.raises(ArgumentError, match="r_max must be non-negative"):
            subspace_lower_bound(pool, [1.0], r_max=r_max)

    @pytest.mark.parametrize("r_max", [-1, -2])
    def test_sweep_rejects_negative_r_max(self, r_max):
        fam = unit_circle_family()
        pool = build_pool(fam, [[0.0], [np.pi / 2]])
        _, sol = lower_bound(pool, [1.0])
        with pytest.raises(ArgumentError, match="r_max must be non-negative"):
            sweep_bounds(pool, fam.theta_at([1.0])[None], sol,
                         r_max=r_max)
        with pytest.raises(ArgumentError, match="r_max must be non-negative"):
            SubspacePool(fam, r_max=r_max)


class TestResidualHeuristic:
    def test_invariant_subspace_exact(self):
        fam = random_family(2, 80, delta=0.3, seed=16)
        pool = build_pool(fam, [[0.07]])
        mu = [0.07]
        val, rho = residual_heuristic_bound(pool, mu)
        oracle = np.linalg.eigvalsh(fam.assemble_dense(mu))[0]
        assert abs(val - oracle) <= 1e-6

    def test_bounds_some_eigenvalue(self):
        fam = random_family(3, 60, delta=0.3, seed=17)
        pool = build_pool(fam, [[0.05, 0.22], [0.28, 0.03]])
        rng = np.random.default_rng(6)
        for _ in range(10):
            mu = rng.uniform(0, 0.3, size=2)
            val, rho = residual_heuristic_bound(pool, mu)
            rd = ritz_upper_bound(pool, mu, r=1)
            spectrum = np.linalg.eigvalsh(fam.assemble_dense(mu))
            assert np.min(np.abs(spectrum - rd.values[0])) <= rho + 1e-9


class TestSubspaceGreedy:
    def test_unit_circle_converges_in_three(self):
        fam = unit_circle_family()
        train = TrainingSet(points=np.linspace(0, np.pi, 64).reshape(-1, 1))
        res = subspace_greedy(fam, train, eps=1e-4, j_max=10)
        assert res.converged
        assert len(res.records) <= 3

    def test_single_term_family(self):
        rng = np.random.default_rng(18)
        g = rng.standard_normal((25, 25))
        spd = g @ g.T / 25 + np.eye(25)
        fam = AffineFamily(terms=(spd,),
                           theta=lambda mu: np.array([1.0 + mu[0]]),
                           domain=((0.0, 1.0),))
        train = random_training_set(fam.domain, 30, seed=19)
        res = subspace_greedy(fam, train, eps=1e-10, j_max=5)
        assert res.converged
        assert res.model.j == 1

    def test_sub_monotone_in_j(self):
        fam = random_family(3, 60, delta=0.3, seed=20)
        pool = SubspacePool(fam, ell=1)
        probes = np.random.default_rng(7).uniform(0, 0.3, size=(8, 2))
        prev = np.full(8, np.inf)
        for mu in ([0.02, 0.2], [0.25, 0.05], [0.15, 0.28], [0.29, 0.17]):
            pool.add_sample(mu)
            for k, p in enumerate(probes):
                rd = ritz_upper_bound(pool, p, r=1)
                assert rd.values[0] <= prev[k] + 1e-10
                prev[k] = rd.values[0]

    def test_heuristic_mode_runs_and_records_validity(self):
        fam = random_family(3, 80, delta=0.25, seed=21)
        train = random_training_set(fam.domain, 40, seed=22)
        oracle = np.array([np.linalg.eigvalsh(fam.assemble_dense(mu))[0]
                           for mu in train.points])
        res = subspace_greedy(fam, train, eps=1e-5, j_max=25,
                              mode="heuristic", oracle=oracle)
        assert res.converged
        flags = [r.heuristic_valid for r in res.records]
        assert all(f is not None for f in flags)
        assert flags[-1]  # becomes a true lower bound by termination

    def test_warm_start_equivalence(self):
        fam = random_family(3, 60, delta=0.3, seed=23)
        train = random_training_set(fam.domain, 40, seed=24)
        res_on = subspace_greedy(fam, train, eps=1e-6, j_max=12,
                                 warm_start=True)
        res_off = subspace_greedy(fam, train, eps=1e-6, j_max=12,
                                  warm_start=False)
        assert len(res_on.records) == len(res_off.records)
        for a, b in zip(res_on.records, res_off.records):
            assert a.selected_index == b.selected_index
        for key in ("lam_lb", "lam_slb", "lam_sub"):
            assert np.allclose(res_on.tables[key], res_off.tables[key],
                               atol=1e-12)

    def test_negative_r_max_rejected_before_any_solve(self, monkeypatch):
        import eigenbounds.scm as scm

        def no_solve(*args, **kwargs):
            raise AssertionError("solved before checking r_max")

        monkeypatch.setattr(scm, "compute_bounding_box", no_solve)
        monkeypatch.setattr(scm, "solve_at_sample", no_solve)
        fam = unit_circle_family()
        train = TrainingSet(points=np.linspace(0, np.pi, 8).reshape(-1, 1))
        with pytest.raises(ArgumentError, match="r_max must be non-negative"):
            subspace_greedy(fam, train, r_max=-1)

class TestComplexHermitianFamily:
    def test_full_stack_cascade(self):
        rng = np.random.default_rng(31)
        n = 40
        terms = []
        for _ in range(2):
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            terms.append(0.5 * (g + g.conj().T))
        fam = AffineFamily(terms=tuple(terms),
                           theta=lambda mu: np.array([1.0, mu[0]]),
                           domain=((0.0, 0.5),))
        pool = build_pool(fam, [[0.1], [0.4]])
        assert np.iscomplexobj(pool.basis)
        for mu in rng.uniform(0.0, 0.5, 10):
            oracle = np.linalg.eigvalsh(fam.assemble_dense([mu]))[0]
            slack = 1e-8 * (1 + abs(oracle))
            lam_lb, _ = lower_bound(pool, [mu])
            slb, data, _ = subspace_lower_bound(pool, [mu], r_max=2)
            rd = ritz_upper_bound(pool, [mu], r=1)
            assert lam_lb <= slb + slack
            assert slb <= oracle + slack
            assert oracle <= rd.values[0] + slack
            # reduced residual agrees with the explicit complex residual
            rho = residual_norm(pool, [mu], rd)
            U = pool.basis @ rd.coeffs
            A = fam.assemble_dense([mu])
            explicit = np.linalg.norm(A @ U - U * rd.values[0], ord=2)
            assert abs(rho - explicit) <= 1e-9


class TestGradientInterpolation:
    def test_subspace_bounds_gradient_order2(self):
        fam, theta_grad = make_smooth_family(seed=30)
        sample_points = [[-0.5, -0.4], [0.0, 0.3], [0.45, -0.2],
                         [-0.2, 0.5], [0.3, 0.1]]
        pool = build_pool(fam, sample_points)
        from eigenbounds import joint_rayleigh

        def fd_gradient(fn, mu, h):
            out = np.empty(2)
            for p in range(2):
                e = np.zeros(2)
                e[p] = h
                out[p] = (fn(mu + e) - fn(mu - e)) / (2 * h)
            return out

        def sub_fn(mu):
            return ritz_upper_bound(pool, mu, r=1).values[0]

        def slb_fn(mu):
            return subspace_lower_bound(pool, mu, r_max=1)[0]

        for i, mu in enumerate(pool.samples):
            mu = np.asarray(mu)
            v = pool.basis @ pool.coeffs[i][:, 0]
            analytic = theta_grad(mu) @ joint_rayleigh(fam, v)
            for fn in (sub_fn, slb_fn):
                e3 = np.linalg.norm(fd_gradient(fn, mu, 1e-3) - analytic)
                e4 = np.linalg.norm(fd_gradient(fn, mu, 1e-4) - analytic)
                assert e3 <= 1e-4
                assert e3 / max(e4, 1e-16) > 20
