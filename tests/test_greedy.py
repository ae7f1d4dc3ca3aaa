"""The greedy loop that classical SCM and the subspace pipeline share."""

import numpy as np
import pytest
import scipy.sparse as sparse
import scipy.sparse.linalg as sparse_linalg

from eigenbounds import (AffineFamily, EigensolverError, GreedyError,
                         ScmState, SubspacePool, block_grid_family,
                         coercivity_transform, random_family,
                         random_training_set, scm_greedy, subspace_greedy)
from eigenbounds import scm, smallest_eigpairs, subspace
from eigenbounds.driver import RunConfig, load_problem, run_pipeline

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
        assert rec.lp_cached == 0


@pytest.mark.parametrize("pipeline", sorted(PIPELINES))
def test_vertex_cache_answers_some_lps(problem, pipeline):
    fam, train = problem
    res = PIPELINES[pipeline][0](fam, train, eps=1e-12, j_max=4)
    m = len(train)
    last = res.records[-1]
    assert last.lp_cached > 0
    assert last.lp_count + last.lp_cached <= m * last.iteration


@pytest.mark.parametrize("ell", [1, 2])
def test_warm_start_changes_nothing_at_q_10(ell):
    fam = block_grid_family(nx=10, ny=10, blocks=(3, 3))
    assert (fam.n, fam.q) == (100, 10)
    train = random_training_set(fam.domain, 30, seed=7)
    on, off = (subspace_greedy(fam, train, eps=1e-12, j_max=6, ell=ell,
                               warm_start=warm) for warm in (True, False))
    assert ([r.selected_index for r in on.records]
            == [r.selected_index for r in off.records])
    assert on.records[-1].lp_cached > 0
    assert on.records[-1].lp_count < off.records[-1].lp_count
    for key in ("lam_lb", "lam_slb", "lam_sub"):
        a, b = on.tables[key], off.tables[key]
        assert np.all(np.abs(a - b) <= 1e-12 * np.maximum(1.0, np.abs(b)))


@pytest.mark.parametrize("pipeline", sorted(PIPELINES))
def test_restarts_halve_the_pivots_per_lp(pipeline):
    # the family of acceptance criterion 12.  Pivots per LP, not in all:
    # the vertex cache alone already cuts the number of LPs solved
    fam = random_family(3, 80, delta=0.25, seed=12)
    train = random_training_set(fam.domain, 60, seed=13)
    on, off = (PIPELINES[pipeline][0](fam, train, eps=1e-6, j_max=12,
                                      warm_start=warm).records[-1]
               for warm in (True, False))
    assert on.lp_pivots / on.lp_count < 0.5 * off.lp_pivots / off.lp_count


@pytest.mark.parametrize("pipeline", ["scm", "subspace"])
def test_summary_counts_pivots_and_degenerate_lps(tmp_path, monkeypatch,
                                                  pipeline):
    solved = []
    original = scm.lower_bound

    def kept(*args, **kwargs):
        solved.append(original(*args, **kwargs)[1])
        return solved[-1].value, solved[-1]

    monkeypatch.setattr(scm, "lower_bound", kept)
    fam = random_family(3, 40, delta=0.3, seed=60)
    config = RunConfig(pipeline=pipeline, n_train=20, j_max=5, eps=1e-12)
    counts = run_pipeline(config, fam, str(tmp_path))["counts"]
    assert counts["lp_pivots"] == sum(s.pivots for s in solved) > 0
    assert counts["lp_degenerate"] == sum(s.degenerate for s in solved)


@pytest.mark.parametrize("pencil", [False, True])
def test_shifted_samples_change_no_selection(monkeypatch, pencil):
    fam = block_grid_family(nx=12, ny=10, blocks=(2, 2))
    if pencil:
        lap = fam.terms[0].matrix
        fam = coercivity_transform(fam, (lap + 0.3 * lap.diagonal().mean()
                                         * sparse.identity(fam.n)).tocsr())
    train = random_training_set(fam.domain, 30, seed=3)
    shifted = subspace_greedy(fam, train, eps=1e-12, j_max=6)
    shifts = []

    def unshifted(*args, below=None, **kwargs):
        shifts.append(below)
        return smallest_eigpairs(*args, **kwargs)

    monkeypatch.setattr(scm, "smallest_eigpairs", unshifted)
    plain = subspace_greedy(fam, train, eps=1e-12, j_max=6)
    assert len(shifts) == 6 and all(np.isfinite(shifts))
    assert shifted.records[-1].shift_fallbacks == 0
    assert ([r.selected_index for r in shifted.records]
            == [r.selected_index for r in plain.records])
    for key in ("lam_lb", "lam_slb", "lam_sub", "lam_ub"):
        a, b = shifted.tables[key], plain.tables[key]
        assert np.all(np.abs(a - b) <= 1e-10 * np.maximum(1.0, np.abs(b)))


@pytest.mark.parametrize("pipeline", ["scm", "subspace"])
def test_shift_above_the_spectrum_is_counted(tmp_path, monkeypatch,
                                            pipeline):
    # the loop's bound is at least minus the box's bound on |A(mu)|, so a
    # margin of -3 puts every shift above the whole spectrum: no shifted
    # factor is positive definite and every sample is solved unshifted
    fam = block_grid_family(nx=12, ny=10, blocks=(2, 2))
    config = RunConfig(pipeline=pipeline, n_train=20, j_max=4, eps=1e-12)
    normal = run_pipeline(config, fam, str(tmp_path / "normal"))
    monkeypatch.setattr(scm, "SHIFT_MARGIN", -3.0)
    forced = run_pipeline(config, fam, str(tmp_path / "forced"))
    assert normal["counts"]["shift_fallbacks"] == 0
    assert forced["counts"]["shift_fallbacks"] == 4


@pytest.mark.parametrize("pipeline", ["scm", "subspace"])
def test_every_cold_solve_goes_through_lower_bound(tmp_path, monkeypatch,
                                                   pipeline):
    # the benchmark times cold solves by wrapping scm.lower_bound, so the
    # vertex cache must never solve an LP past it
    calls = []
    original = scm.lower_bound

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(scm, "lower_bound", counted)
    fam, _ = load_problem(generator={"kind": "random", "Q": 3, "N": 40,
                                     "seed": 60})
    config = RunConfig(pipeline=pipeline, n_train=20, j_max=5, eps=1e-12)
    summary = run_pipeline(config, fam, str(tmp_path))
    assert summary["counts"]["lp_cached"] > 0
    assert len(calls) == summary["counts"]["lp"]


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


@pytest.mark.parametrize("pipeline", sorted(PIPELINES))
def test_one_by_one_family(pipeline):
    # lambda(mu) = 2 - mu: the box is a point, so one sample closes the
    # gap everywhere; every eigensolve has k == n == 1
    fam = AffineFamily(terms=(np.array([[2.0]]), np.array([[-1.0]])),
                       theta=lambda mu: np.array([1.0, mu[0]]),
                       domain=((-1.0, 1.0),))
    train = random_training_set(fam.domain, 6, seed=3)
    greedy, _, columns = PIPELINES[pipeline]
    res = greedy(fam, train, eps=1e-10, j_max=5)
    assert res.converged and len(res.records) == 1
    assert res.box.lower.tolist() == res.box.upper.tolist() == [2.0, -1.0]
    exact = 2.0 - train.points[:, 0]
    for key in columns & {"lam_lb", "lam_ub", "lam_slb", "lam_sub"}:
        np.testing.assert_allclose(res.tables[key], exact, rtol=1e-14)


@pytest.mark.parametrize("pipeline, seed, lp_tol", [
    pytest.param(pipeline, seed, lp_tol, id=f"{pipeline}-{seed}"
                 + ("" if lp_tol == 1e-8 else f"-lp_tol={lp_tol:g}"))
    for lp_tol in (1e-8, 1e-6, 1e-4) for pipeline in sorted(PIPELINES)
    for seed in (0, 1)])
def test_bounds_certified_at_roundoff_allowance(pipeline, seed, lp_tol):
    # the allowance the benchmark's correctness gate uses: gamma_n times
    # the bound sum_q |theta_q| max(|lo_q|, |hi_q|) on ||A(mu)||; it does
    # not grow with lp_tol, which decides only how much LP work is done
    fam = random_family(q=4, n=120, delta=0.2, seed=seed)
    train = random_training_set(fam.domain, 40, seed=5)
    res = PIPELINES[pipeline][0](fam, train, eps=1e-8, j_max=12,
                                 lp_tol=lp_tol)
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
    pencil = coercivity_transform(fam, X)
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
