import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from eigenbounds import (AffineFamily, ScmState, SubspacePool,
                         coercivity_transform,
                         error_ratio, joint_rayleigh, lower_bound,
                         random_family, random_training_set, scm_greedy,
                         solve_at_sample, unit_circle_family, upper_bound,
                         worst_case_family)
from eigenbounds import scm
from eigenbounds.family import TrainingSet
from eigenbounds.hermitian import ArgumentError, EigensolverError
from eigenbounds.scm import _ratio_array
from helpers import build_state, make_smooth_family


@pytest.fixture(scope="module")
def circle_state():
    family = unit_circle_family()
    state = build_state(family, [[0.0], [np.pi / 2], [np.pi]])
    return family, state


class TestUpperBound:
    def test_hand_enumeration(self, circle_state):
        family, state = circle_state
        ub = upper_bound(state, [np.pi / 4])
        assert_allclose(ub, -math.sqrt(2) / 2, atol=1e-12)

    def test_interpolation_at_samples(self, circle_state):
        family, state = circle_state
        for i, mu in enumerate(state.samples):
            assert_allclose(upper_bound(state, mu), state.values[i], atol=1e-10)

    def test_empty_state_sentinel(self):
        family = unit_circle_family()
        assert upper_bound(ScmState(family), [0.3]) == math.inf

    def test_matches_brute_force_enumeration(self):
        fam = random_family(3, 40, delta=0.5, seed=5)
        samples = [[0.1, 0.2], [0.4, 0.1], [0.3, 0.3]]
        state = build_state(fam, samples)
        vectors = [solve_at_sample(fam, mu, 1).vectors[:, 0] for mu in samples]
        rng = np.random.default_rng(0)
        for _ in range(10):
            mu = rng.uniform(0.0, 0.5, size=2)
            th = fam.theta_at(mu)
            brute = min(th @ joint_rayleigh(fam, v) for v in vectors)
            assert_allclose(upper_bound(state, mu), brute, rtol=1e-12)


class TestLowerBound:
    def test_piecewise_formula(self, circle_state):
        family, state = circle_state
        val, _ = lower_bound(state, [np.pi / 4])
        assert_allclose(val, -math.sqrt(2), atol=1e-12)
        val, _ = lower_bound(state, [np.pi / 2])
        assert_allclose(val, -1.0, atol=1e-12)

    def test_below_oracle_on_random_family(self):
        fam = random_family(3, 60, delta=0.3, seed=2)
        state = build_state(fam, [[0.05, 0.2], [0.25, 0.1]])
        rng = np.random.default_rng(1)
        for _ in range(20):
            mu = rng.uniform(0.0, 0.3, size=2)
            val, _ = lower_bound(state, mu)
            oracle = np.linalg.eigvalsh(fam.assemble_dense(mu))[0]
            assert val <= oracle + 1e-8

    def test_one_sided_derivatives_at_crossing(self, circle_state):
        # the lower bound has a kink between samples: slopes +1 / -1 around
        # pi/2 while the exact eigenvalue derivative is 0
        family, state = circle_state
        h = 1e-7
        mid, _ = lower_bound(state, [np.pi / 2])
        left, _ = lower_bound(state, [np.pi / 2 - h])
        right, _ = lower_bound(state, [np.pi / 2 + h])
        assert_allclose((mid - left) / h, 1.0, atol=1e-6)
        assert_allclose((right - mid) / h, -1.0, atol=1e-6)


def _model_state(model):
    """Every attribute of a model, arrays by shape and bytes."""
    return {key: (val.shape, val.tobytes()) if isinstance(val, np.ndarray)
            else repr(val) for key, val in vars(model).items()}


class TestAddSample:
    # ScmState.add_sample is the sample step of both models

    @pytest.mark.parametrize("make, k", [
        (ScmState, 1), (lambda fam: SubspacePool(fam, ell=2), 3),
        (lambda fam: SubspacePool(fam, ell=5), 4)],
        ids=["scm", "subspace-ell2", "subspace-ell-capped"])
    def test_solves_k_pairs_and_counts_the_solve(self, monkeypatch, make, k):
        fam = random_family(q=3, n=4, seed=1)
        model = make(fam)
        assert model.k == k
        assert model.eig_seconds == model.box_seconds
        assert model.eig_count == model.box.eig_count
        asked = []

        def spy(family, mu, k, **kwargs):
            asked.append(k)
            return solve_at_sample(family, mu, k, **kwargs)

        monkeypatch.setattr(scm, "solve_at_sample", spy)
        for i, mu in enumerate(([0.1, 0.2], [0.2, 0.05]), start=1):
            seconds = model.eig_seconds
            model.add_sample(mu)
            assert model.eig_count == model.box.eig_count + i
            assert model.eig_seconds > seconds
        assert asked == [k, k] and model.j == 2

    @pytest.mark.parametrize("make", [ScmState, SubspacePool],
                             ids=["scm", "subspace"])
    def test_failed_solve_changes_nothing(self, monkeypatch, make):
        model = make(random_family(q=3, n=20, seed=2))
        model.add_sample([0.1, 0.2])
        before = _model_state(model)

        def fail(*args, **kwargs):
            raise EigensolverError("no convergence")

        monkeypatch.setattr(scm, "solve_at_sample", fail)
        with pytest.raises(EigensolverError):
            model.add_sample([0.2, 0.05])
        assert _model_state(model) == before

    def test_duplicate_sample_refused_before_the_solve(self, monkeypatch):
        state = ScmState(unit_circle_family())
        state.add_sample([0.3])
        solves = []
        monkeypatch.setattr(scm, "solve_at_sample",
                            lambda *a, **k: solves.append(a))
        with pytest.raises(ArgumentError, match="already present"):
            state.add_sample(np.array([0.3]))
        assert solves == [] and state.j == 1 and state.rows.shape == (1, 2)


class TestErrorRatio:
    def test_basic(self):
        assert_allclose(error_ratio(-1.1, -1.0), 0.1, rtol=1e-12)
        assert error_ratio(-2.0, -2.0) == 0.0

    def test_example_values(self):
        lb, ub = -math.sqrt(2), -math.sqrt(2) / 2
        assert_allclose(error_ratio(lb, ub), 1.0, rtol=1e-12)

    def test_near_zero_denominator_absolute_fallback(self):
        assert error_ratio(-1e-16, 1e-16) == pytest.approx(2e-16)

    def test_infinite_sentinel(self):
        assert error_ratio(-1.0, math.inf) == math.inf

    def test_array_form_matches_scalar_bit_for_bit(self):
        inf = math.inf
        lb = np.array([-1.1, -2.0, -1e-16, -1.0, -inf, 3.0, -inf, 0.5,
                       -0.3, 1e-15, inf, -1.0, 2.0, -0.0, 7e-15, -5.0])
        ub = np.array([-1.0, -2.0, 1e-16, inf, inf, -inf, -1.0, 0.0,
                       -0.0, 9e-15, 2.0, -1e-14, 1e-14 * (1 - 1e-12), 0.0,
                       -3e-15, -inf])
        rng = np.random.default_rng(5)
        lb = np.concatenate([lb, rng.standard_normal(200)])
        scales = 10.0 ** rng.integers(-16, 3, 200)
        ub = np.concatenate([ub, rng.standard_normal(200) * scales])
        expected = np.array([error_ratio(a, b) for a, b in zip(lb, ub)])
        got = _ratio_array(lb, ub)
        assert got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()


class TestGreedy:
    def test_single_term_family_converges_immediately(self):
        rng = np.random.default_rng(3)
        g = rng.standard_normal((30, 30))
        spd = g @ g.T / 30 + np.eye(30)
        fam = AffineFamily(terms=(spd,),
                           theta=lambda mu: np.array([1.0 + mu[0]]),
                           domain=((0.0, 1.0),))
        train = random_training_set(fam.domain, 40, seed=4)
        res = scm_greedy(fam, train, eps=1e-12, j_max=10)
        assert res.converged
        assert res.model.j == 1
        assert res.records[-1].max_ratio <= 1e-12

    def test_unit_circle_grid(self):
        fam = unit_circle_family()
        train = TrainingSet(points=np.linspace(0, np.pi, 64).reshape(-1, 1))
        res = scm_greedy(fam, train, eps=1e-3, j_max=20)
        ratios = [r.max_ratio for r in res.records]
        assert all(ratios[i + 1] <= ratios[i] + 1e-12
                   for i in range(len(ratios) - 1))
        # sampled parameters have zero gap
        tabs = res.tables
        for mu in res.model.samples:
            idx = int(np.argmin(np.abs(train.points[:, 0] - mu[0])))
            assert tabs["ratio"][idx] <= 1e-10

    def test_random_family_flattens_above_tolerance(self):
        fam = random_family(4, 120, delta=0.2, seed=1)
        train = random_training_set(fam.domain, 120, seed=2)
        res = scm_greedy(fam, train, eps=1e-4, j_max=40)
        assert not res.converged
        assert "not converged" in res.reason
        assert res.records[-1].max_ratio > 1e-4

    def test_warm_start_equivalence(self):
        fam = random_family(3, 60, delta=0.3, seed=6)
        train = random_training_set(fam.domain, 60, seed=7)
        res_on = scm_greedy(fam, train, eps=1e-3, j_max=12,
                            warm_start=True)
        res_off = scm_greedy(fam, train, eps=1e-3, j_max=12,
                             warm_start=False)
        assert len(res_on.records) == len(res_off.records)
        for a, b in zip(res_on.records, res_off.records):
            assert a.selected_index == b.selected_index
            assert abs(a.max_ratio - b.max_ratio) <= 1e-12
        assert np.allclose(res_on.tables["lam_lb"], res_off.tables["lam_lb"],
                           atol=1e-12)
        # warm start must actually skip LP solves
        assert res_on.records[-1].lp_count < res_off.records[-1].lp_count


class TestInvariantsAgainstOracle:
    @pytest.mark.parametrize("q,n,seed", [(2, 50, 0), (3, 120, 1)])
    def test_cascade_and_interpolation(self, q, n, seed):
        fam = random_family(q, n, delta=0.25, seed=seed)
        train = random_training_set(fam.domain, 60, seed=seed + 10)
        res = scm_greedy(fam, train, eps=1e-12, j_max=6)
        state = res.model
        rng = np.random.default_rng(seed)
        for _ in range(50):
            mu = rng.uniform(0.0, 0.25, size=q - 1)
            oracle = np.linalg.eigvalsh(fam.assemble_dense(mu))[0]
            slack = 1e-8 * (1.0 + abs(oracle))
            lb, _ = lower_bound(state, mu)
            ub = upper_bound(state, mu)
            assert lb <= oracle + slack
            assert ub >= oracle - slack
        for i, mu in enumerate(state.samples):
            oracle = np.linalg.eigvalsh(fam.assemble_dense(mu))[0]
            lb, _ = lower_bound(state, mu)
            ub = upper_bound(state, mu)
            assert abs(lb - oracle) <= 1e-6
            assert abs(ub - oracle) <= 1e-6

    def test_monotone_in_j(self):
        fam = random_family(3, 50, delta=0.3, seed=3)
        samples = [[0.05, 0.25], [0.2, 0.1], [0.28, 0.22], [0.12, 0.02]]
        probes = np.random.default_rng(4).uniform(0, 0.3, size=(10, 2))
        state = ScmState(fam)
        prev_lb = np.full(10, -np.inf)
        prev_ub = np.full(10, np.inf)
        for mu in samples:
            state.add_sample(mu)
            for k, p in enumerate(probes):
                lb, _ = lower_bound(state, p)
                ub = upper_bound(state, p)
                assert lb >= prev_lb[k] - 1e-10
                assert ub <= prev_ub[k] + 1e-10
                prev_lb[k], prev_ub[k] = lb, ub


class TestGradientInterpolation:
    def test_upper_bound_gradient_order2(self):
        fam, theta_grad = make_smooth_family(seed=8)
        sample_points = [[-0.5, -0.4], [0.0, 0.3], [0.45, -0.2],
                         [-0.2, 0.5], [0.3, 0.1]]
        state = build_state(fam, sample_points)
        errors = {h: [] for h in (1e-3, 1e-4)}
        for mu in state.samples:
            v = solve_at_sample(fam, mu, 1).vectors[:, 0]
            analytic = theta_grad(mu) @ joint_rayleigh(fam, v)
            for h in errors:
                fd = np.empty(2)
                for p in range(2):
                    e = np.zeros(2)
                    e[p] = h
                    fd[p] = (upper_bound(state, mu + e)
                             - upper_bound(state, mu - e)) / (2 * h)
                errors[h].append(np.linalg.norm(fd - analytic))
        err3 = np.max(errors[1e-3])
        err4 = np.max(errors[1e-4])
        assert err3 <= 1e-4  # small absolute error at the coarser step
        assert err3 / max(err4, 1e-16) > 20  # second-order decay


class TestWorstCaseFamily:
    def test_empty_sample_edge(self):
        fam = unit_circle_family()
        state = ScmState(fam)
        y = np.array([0.25, -0.5])
        bar = worst_case_family(state, y)
        mu = [0.7]
        th = fam.theta_at(mu)
        expected = float(th @ y)
        w = np.linalg.eigvalsh(bar.assemble_dense(mu))
        assert_allclose(w, [expected, expected], atol=1e-12)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_attains_lower_bound_and_keeps_samples(self, seed):
        fam = random_family(2, 20, delta=0.4, seed=seed)
        train = random_training_set(fam.domain, 30, seed=seed + 5)
        res = scm_greedy(fam, train, eps=1e-12, j_max=3)
        state = res.model
        rng = np.random.default_rng(seed)
        for trial in range(2):
            mu_t = rng.uniform(0.0, 0.4, size=1)
            val, sol = lower_bound(state, mu_t)
            bar = worst_case_family(state, sol.y)
            w_t = np.linalg.eigvalsh(bar.assemble_dense(mu_t))[0]
            assert abs(w_t - val) <= 1e-8
            for i, mu_i in enumerate(state.samples):
                w_i = np.linalg.eigvalsh(bar.assemble_dense(mu_i))[0]
                assert abs(w_i - state.values[i]) <= 1e-8

    def test_too_many_samples_rejected(self):
        fam = unit_circle_family()
        state = build_state(fam, [[0.0], [np.pi / 2]])
        with pytest.raises(ArgumentError):
            worst_case_family(state, np.zeros(2))

    def test_pencil_family_rejected(self):
        fam = coercivity_transform(unit_circle_family(), 2.0 * np.eye(2))
        state = ScmState(fam)
        with pytest.raises(ArgumentError, match="pencil"):
            worst_case_family(state, np.zeros(2))
