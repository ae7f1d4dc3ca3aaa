"""The greedy loop that classical SCM and the subspace pipeline share."""

import numpy as np
import pytest
import scipy.sparse as sparse
import scipy.sparse.linalg as sparse_linalg

from eigenbounds import (AffineFamily, EigensolverError, GeneralizedProblem,
                         GreedyError, ScmState, SubspacePool,
                         block_grid_family, coercivity_transform,
                         random_family, random_training_set, scm_greedy,
                         subspace_greedy)
from eigenbounds import scm, subspace

PIPELINES = {
    "scm": (scm_greedy, ScmState, {"lam_lb", "lam_ub"}),
    "subspace": (subspace_greedy, SubspacePool,
                 {"lam_lb", "lam_slb", "lam_sub", "lam_ub", "heuristic",
                  "residual", "chosen_r"}),
}


@pytest.fixture(scope="module")
def problem():
    fam = random_family(3, 40, delta=0.3, seed=60)
    return fam, random_training_set(fam.domain, 20, seed=61)


@pytest.mark.parametrize("pipeline", sorted(PIPELINES))
def test_cold_loop_solves_every_lp(problem, pipeline):
    fam, train = problem
    greedy = PIPELINES[pipeline][0]
    res = greedy(fam, train, eps=1e-12, j_max=4, warm_start=False)
    m = len(train)
    assert len(res.records) == 4
    for rec in res.records:
        assert rec.lp_count == m * rec.iteration


@pytest.mark.parametrize("pipeline", sorted(PIPELINES))
def test_eigensolver_failure_keeps_partial_result(problem, monkeypatch,
                                                  pipeline):
    fam, train = problem
    greedy, model_type, columns = PIPELINES[pipeline]
    calls = []

    def failing(original):
        def solve(*args, **kwargs):
            calls.append(1)
            if len(calls) == 3:
                raise EigensolverError("no convergence")
            return original(*args, **kwargs)
        return solve

    for module in (scm, subspace):
        monkeypatch.setattr(module, "solve_at_sample",
                            failing(module.solve_at_sample))
    with pytest.raises(GreedyError) as err:
        greedy(fam, train, eps=1e-12, j_max=6)
    partial = err.value.partial
    assert len(calls) == 3
    assert len(partial.records) == 2
    assert partial.converged is False
    assert partial.reason.startswith("eigensolver failed at sample 3")
    assert str(err.value) == partial.reason
    assert type(partial.model) is model_type
    assert partial.model.j == 2
    assert set(partial.tables) == columns | {"ratio", "ratio_fallback"}
    for col in partial.tables.values():
        assert len(col) == len(train)
    assert np.all(np.isfinite(partial.tables["ratio"]))



@pytest.mark.parametrize("pipeline", sorted(PIPELINES))
def test_worst_ratio_at_a_sample_stops_the_loop(pipeline):
    # one term: every ratio sits at roundoff, and after the second sample
    # the worst one lands on a parameter that is already sampled
    g = np.random.default_rng(11).standard_normal((20, 20))
    fam = AffineFamily(terms=(0.5 * (g + g.T),),
                       theta=lambda mu: np.array([1.0 + mu[0]]),
                       domain=((0.0, 1.0),))
    train = random_training_set(fam.domain, 6, seed=11)
    greedy, model_type, _ = PIPELINES[pipeline]
    res = greedy(fam, train, eps=1e-300, j_max=8)
    assert res.converged is False
    assert type(res.model) is model_type
    assert res.model.j == len(res.records) < 8
    index = int(np.argmax(res.tables["ratio"]))
    assert res.model.has_sample(train.points[index])
    assert f"training point {index}," in res.reason
    assert "not converged" in res.reason


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("pipeline", sorted(PIPELINES))
def test_bounds_certified_at_roundoff_allowance(pipeline, seed):
    # the allowance the benchmark's correctness gate uses: gamma_n times
    # the bound sum_q |theta_q| max(|lo_q|, |hi_q|) on ||A(mu)||
    fam = random_family(q=4, n=120, delta=0.2, seed=seed)
    train = random_training_set(fam.domain, 40, seed=5)
    res = PIPELINES[pipeline][0](fam, train, eps=1e-8, j_max=12)
    oracle = np.array([np.linalg.eigvalsh(fam.assemble_dense(mu))[0]
                       for mu in train.points])
    nu = fam.n * 2.0 ** -53
    scale = np.maximum(np.abs(res.box.lower), np.abs(res.box.upper))
    allowance = nu / (1.0 - nu) * (np.abs(fam.theta_table(train.points))
                                   @ scale)
    lower, upper = (("lam_lb", "lam_ub") if pipeline == "scm"
                    else ("lam_slb", "lam_sub"))
    assert np.all(res.tables[lower] <= oracle + allowance)
    assert np.all(res.tables[upper] >= oracle - allowance)


def _below_spectrum(A, X):
    """A shift strictly below every eigenvalue of the pencil (A, X), from
    the Gershgorin discs of A and of the SPD X."""
    def discs(M):
        radius = np.asarray(abs(M).sum(axis=1)).ravel() - np.abs(M.diagonal())
        return M.diagonal() - radius, M.diagonal() + radius
    a_lo = discs(A)[0].min()
    x_lo, x_hi = discs(X)[0].min(), discs(X)[1].max()
    assert x_lo > 0
    sigma = a_lo / x_lo if a_lo < 0 else a_lo / x_hi
    return sigma - 1e-3 * max(abs(sigma), 1.0)


def test_coercivity_bounds_certified_at_n_4225():
    # the grid workload's stencil and inner product at n = 4225, a size
    # no dense factor of X could reach; the reference is shift-invert
    # ARPACK on the pencil, independent of the package
    fam = block_grid_family(nx=65, ny=65, blocks=(2, 1))
    lap = fam.terms[0].matrix
    X = (lap + 0.3 * lap.diagonal().mean()
         * sparse.identity(fam.n, format="csr")).tocsr()
    pencil = coercivity_transform(GeneralizedProblem.build(fam, X))
    train = random_training_set(pencil.domain, 8, seed=0)
    res = subspace_greedy(pencil, train, j_max=2)
    ref = []
    for mu in train.points:
        A = sum(c * t.matrix for c, t in
                zip(fam.theta_at(mu), fam.terms)).tocsc()
        ref.append(sparse_linalg.eigsh(
            A, k=1, M=X, sigma=_below_spectrum(A, X), which="LM",
            v0=np.ones(fam.n), tol=0, return_eigenvectors=False)[0])
    nu = fam.n * 2.0 ** -53
    scale = np.maximum(np.abs(res.box.lower), np.abs(res.box.upper))
    allowance = nu / (1.0 - nu) * (np.abs(fam.theta_table(train.points))
                                   @ scale)
    assert len(res.records) == 2
    assert np.all(res.tables["lam_slb"] <= np.array(ref) + allowance)
    assert np.all(res.tables["lam_sub"] >= np.array(ref) - allowance)
