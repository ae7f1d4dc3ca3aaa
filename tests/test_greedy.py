"""The greedy loop that classical SCM and the subspace pipeline share."""

import csv
import importlib
import itertools
import re
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sparse
import scipy.sparse.linalg as sparse_linalg

from eigenbounds import (AffineFamily, ArgumentError, EigensolverError,
                         EvaluationError, GreedyError, ScmState, SubspacePool,
                         block_grid_family, coercivity_transform,
                         compute_bounding_box, random_family,
                         random_training_set, scm_greedy, subspace_greedy)
from eigenbounds import driver, scm, smallest_eigpairs, subspace
from eigenbounds.driver import RunConfig, load_problem, run_pipeline
from eigenbounds.expressions import compile_theta
from helpers import no_placed_shift

# the package re-exports a function named ``hermitian`` over the module
hermitian_module = importlib.import_module("eigenbounds.hermitian")

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
def test_warm_start_restarts_fewer_lps(problem, pipeline):
    fam, train = problem
    res = PIPELINES[pipeline][0](fam, train, eps=1e-12, j_max=4)
    m = len(train)
    last = res.records[-1]
    assert last.lp_count < m * last.iteration


@pytest.mark.parametrize("ell", [1, 2])
def test_warm_start_changes_nothing_at_q_10(ell):
    fam = block_grid_family(nx=10, ny=10, blocks=(3, 3))
    assert (fam.n, fam.q) == (100, 10)
    train = random_training_set(fam.domain, 30, seed=7)
    on, off = (subspace_greedy(fam, train, eps=1e-12, j_max=6, ell=ell,
                               warm_start=warm) for warm in (True, False))
    assert ([r.selected_index for r in on.records]
            == [r.selected_index for r in off.records])
    assert on.records[-1].lp_count < off.records[-1].lp_count
    for key in ("lam_lb", "lam_slb", "lam_sub"):
        a, b = on.tables[key], off.tables[key]
        assert np.all(np.abs(a - b) <= 1e-12 * np.maximum(1.0, np.abs(b)))


@pytest.mark.parametrize("pipeline", sorted(PIPELINES))
def test_restarts_halve_the_pivots_per_lp(pipeline):
    # the family of acceptance criterion 12.  Pivots per LP, not in all:
    # a restarted LP that the newest row does not cut ends after zero
    # pivots and is not counted, and that alone already cuts the LP count
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


@pytest.mark.parametrize("pipeline", ["scm", "subspace"])
def test_box_seconds_is_the_first_part_of_eig_seconds(tmp_path, monkeypatch,
                                                      pipeline):
    results = []
    greedy = f"{pipeline}_greedy"
    original = getattr(driver, greedy)

    def kept(*args, **kwargs):
        results.append(original(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(driver, greedy, kept)
    fam = random_family(3, 100, delta=0.3, seed=60)
    config = RunConfig(pipeline=pipeline, n_train=20, j_max=3, eps=1e-12)
    summary = run_pipeline(config, fam, str(tmp_path))
    res, = results
    assert summary["box_seconds"] == res.model.box_seconds
    assert 0.0 <= res.model.box_seconds <= res.records[0].eig_seconds


def _grid_pencil():
    """The n = 120 block-grid family with X = Laplacian + 0.3 mean(diag) I."""
    fam = block_grid_family(nx=12, ny=10, blocks=(2, 2))
    lap = fam.terms[0].matrix
    return coercivity_transform(fam, (lap + 0.3 * lap.diagonal().mean()
                                      * sparse.identity(fam.n)).tocsr())


def _unshifted(solve, monkeypatch, shifts):
    """``solve`` with its shift dropped (appended to ``shifts``) and none
    placed: the unshifted solve."""
    def unshifted(*args, below=None, **kwargs):
        shifts.append(below)
        with monkeypatch.context() as patched:
            patched.setattr(hermitian_module, "_placed_shift",
                            no_placed_shift)
            return solve(*args, **kwargs)
    return unshifted


@pytest.mark.parametrize("pencil", [False, True])
def test_shifted_samples_change_no_selection(monkeypatch, pencil):
    fam = (_grid_pencil() if pencil
           else block_grid_family(nx=12, ny=10, blocks=(2, 2)))
    train = random_training_set(fam.domain, 30, seed=3)
    shifted = subspace_greedy(fam, train, eps=1e-12, j_max=6)
    shifts = []
    monkeypatch.setattr(scm, "smallest_eigpairs",
                        _unshifted(smallest_eigpairs, monkeypatch, shifts))
    plain = subspace_greedy(fam, train, eps=1e-12, j_max=6)
    # the first sample's shift is placed by the eigensolver
    assert len(shifts) == 6 and shifts[0] is None
    assert all(np.isfinite(shifts[1:]))
    assert shifted.records[-1].shift_fallbacks == 0
    assert ([r.selected_index for r in shifted.records]
            == [r.selected_index for r in plain.records])
    for key in ("lam_lb", "lam_slb", "lam_sub", "lam_ub"):
        a, b = shifted.tables[key], plain.tables[key]
        assert np.all(np.abs(a - b) <= 1e-10 * np.maximum(1.0, np.abs(b)))


def test_shifted_box_changes_no_selection(monkeypatch):
    fam = _grid_pencil()
    train = random_training_set(fam.domain, 30, seed=3)
    shifted = subspace_greedy(fam, train, eps=1e-12, j_max=6)
    shifts = []
    # the box's solves only: the sample solves are bound in scm
    monkeypatch.setattr(hermitian_module, "smallest_eigpairs",
                        _unshifted(hermitian_module.smallest_eigpairs,
                                   monkeypatch, shifts))
    plain = subspace_greedy(fam, train, eps=1e-12, j_max=6)
    assert shifts == [None] * (2 * fam.q)
    assert shifted.records[-1].shift_fallbacks == 0
    assert plain.box.shift_fallbacks == 2 * fam.q
    assert ([r.selected_index for r in shifted.records]
            == [r.selected_index for r in plain.records])
    for key in ("lam_lb", "lam_slb", "lam_sub", "lam_ub"):
        a, b = shifted.tables[key], plain.tables[key]
        assert np.all(np.abs(a - b) <= 1e-10 * np.maximum(1.0, np.abs(b)))


def test_unplaced_box_shifts_are_counted(tmp_path, monkeypatch):
    # no shift is placed: every box end and the first sample are solved
    # unshifted
    fam = _grid_pencil()
    monkeypatch.setattr(hermitian_module, "_placed_shift", no_placed_shift)
    config = RunConfig(pipeline="scm", n_train=20, j_max=3, eps=1e-12)
    counts = run_pipeline(config, fam, str(tmp_path))["counts"]
    assert counts["shift_fallbacks"] == 2 * fam.q + 1


@pytest.mark.parametrize("pipeline", ["scm", "subspace"])
def test_shift_above_the_spectrum_is_counted(tmp_path, monkeypatch,
                                            pipeline):
    # the loop's bound is at least minus the box's bound on |A(mu)|, so a
    # margin of -3 puts every shift the loop gives above the whole
    # spectrum: no shifted factor is positive definite and every sample
    # after the first, whose shift the eigensolver places, is solved
    # unshifted
    fam = block_grid_family(nx=12, ny=10, blocks=(2, 2))
    config = RunConfig(pipeline=pipeline, n_train=20, j_max=4, eps=1e-12)
    normal = run_pipeline(config, fam, str(tmp_path / "normal"))
    monkeypatch.setattr(scm, "SHIFT_MARGIN", -3.0)
    forced = run_pipeline(config, fam, str(tmp_path / "forced"))
    assert normal["counts"]["shift_fallbacks"] == 0
    assert forced["counts"]["shift_fallbacks"] == 3


def test_one_ordering_serves_every_sample_factor(tmp_path):
    # the blocks family's Laplacian takes two ARPACK box ends, factored
    # on one one-off pattern whose band ordering both share; its nine
    # subdomain terms take tridiagonal reductions and no factor.  The
    # samples share the run's pattern and its one band ordering.  Every
    # factor is a band factor
    fam, meta = load_problem(generator={"kind": "blocks"})
    box = compute_bounding_box(fam)
    assert (box.sparse_factors, box.sparse_orderings) == (2, 1)
    config = RunConfig(pipeline="subspace", n_train=25, j_max=4, eps=1e-12)
    counts = run_pipeline(config, fam, str(tmp_path), meta)["counts"]
    assert counts["eig"] == box.eig_count + 4
    assert counts["shift_fallbacks"] == 0
    assert counts["sparse_factors"] == box.sparse_factors + 4
    assert counts["sparse_orderings"] == box.sparse_orderings + 1
    assert counts["band_factors"] == counts["sparse_factors"]


@pytest.mark.parametrize("pipeline", ["scm", "subspace"])
def test_loose_passes_are_counted(tmp_path, pipeline):
    # a positive diagonal takes the Gershgorin floor: the Laplacian's low
    # end and the first sample.  Every other ARPACK-solved end (-L, and a
    # pencil's zero-diagonal cross terms) takes one loose pass, as do the
    # first samples of the family with its Laplacian negated
    blocks, _ = load_problem(generator={"kind": "blocks"})
    pencil = _grid_pencil()
    config = RunConfig(pipeline=pipeline, n_train=25, j_max=3, eps=1e-12)
    for run, (fam, box, first) in enumerate((
            (blocks, 1, 0), (pencil, 2 * pencil.q - 1, 0),
            (_negated_laplacian(pencil), 2 * pencil.q - 1, 1))):
        counts = run_pipeline(config, fam, str(tmp_path / str(run)))["counts"]
        assert compute_bounding_box(fam).loose_estimates == box
        assert counts["loose_estimates"] == box + first
        assert counts["shift_fallbacks"] == 0


def _first_sample(monkeypatch, fam, train):
    """The first sample's shift from the loop, the shift the eigensolver
    factored at for it, and the run's result."""
    shifts, factored = [], []
    original = scm.smallest_eigpairs
    shifted_factor = hermitian_module._shifted_factor

    def recorded(*args, below=None, **kwargs):
        shifts.append(below)
        factored.clear()            # drop the box's factors
        return original(*args, below=below, **kwargs)

    def recorded_factor(op, sigma, M):
        factored.append(sigma)
        return shifted_factor(op, sigma, M)

    monkeypatch.setattr(scm, "smallest_eigpairs", recorded)
    monkeypatch.setattr(hermitian_module, "_shifted_factor", recorded_factor)
    res = subspace_greedy(fam, train, eps=1e-12, j_max=1)
    return shifts[0], factored, res


def _negated_laplacian(fam):
    """``fam`` with its Laplacian term negated (a pencil keeps its X):
    every A(mu) has a negative diagonal, so no Gershgorin floor is tried."""
    return replace(fam, terms=(-fam.terms[0], *fam.terms[1:]))


def _first_lambda(fam, mu):
    X = fam.inner_product
    return scipy.linalg.eigh(fam.operator_at(mu).dense(),
                             None if X is None else X.matrix.dense(),
                             eigvals_only=True)[0]


def _assert_first_shift_estimated(monkeypatch, fam):
    """The loop gives the first sample no shift, and the eigensolver
    factors at one within 2.1% below lambda_min(A(mu)), placed by a loose
    pass."""
    train = random_training_set(fam.domain, 20, seed=3)
    below, factored, res = _first_sample(monkeypatch, fam, train)
    lam1 = _first_lambda(fam, train.points[0])
    assert below is None
    sigma, = factored
    assert lam1 - 0.021 * abs(lam1) <= sigma < lam1
    assert res.records[-1].shift_fallbacks == 0
    assert res.records[-1].loose_estimates == res.box.loose_estimates + 1


def _assert_first_shift_at_the_floor(monkeypatch, fam):
    """The loop gives the first sample no shift, and the eigensolver
    factors once, at the Gershgorin floor sigma_0 <= lambda_min(A(mu)),
    with no loose pass."""
    train = random_training_set(fam.domain, 20, seed=3)
    below, factored, res = _first_sample(monkeypatch, fam, train)
    op = fam.operator_at(train.points[0])
    assert below is None
    sigma, = factored
    assert sigma == hermitian_module._floor(op, fam.inner_product)
    assert sigma <= _first_lambda(fam, train.points[0])
    assert res.records[-1].shift_fallbacks == 0
    assert res.records[-1].loose_estimates == res.box.loose_estimates


def test_first_shift_of_a_standard_sparse_family_is_estimated(monkeypatch):
    _assert_first_shift_estimated(monkeypatch, _negated_laplacian(
        block_grid_family(nx=12, ny=10, blocks=(2, 2))))


def test_first_shift_of_a_pencil_is_estimated(monkeypatch):
    _assert_first_shift_estimated(monkeypatch,
                                  _negated_laplacian(_grid_pencil()))


def test_first_shift_of_a_standard_sparse_family_is_the_floor(monkeypatch):
    _assert_first_shift_at_the_floor(
        monkeypatch, block_grid_family(nx=12, ny=10, blocks=(2, 2)))


def test_first_shift_of_a_pencil_is_the_floor(monkeypatch):
    _assert_first_shift_at_the_floor(monkeypatch, _grid_pencil())


def test_first_sample_without_an_estimate_is_unshifted(monkeypatch):
    fam = block_grid_family(nx=12, ny=10, blocks=(2, 2))
    train = random_training_set(fam.domain, 20, seed=3)
    monkeypatch.setattr(hermitian_module, "_placed_shift", no_placed_shift)
    below, factored, res = _first_sample(monkeypatch, fam, train)
    assert below is None and factored == []
    # the Laplacian's two box ends, then the sample
    assert res.box is res.model.box
    assert res.box.shift_fallbacks == 2
    assert res.records[-1].shift_fallbacks == 3


def test_operator_at_is_assembled_once_per_sample(monkeypatch):
    fam = block_grid_family(nx=12, ny=10, blocks=(2, 2))
    train = random_training_set(fam.domain, 20, seed=3)
    calls = []
    original = AffineFamily.operator_at

    def counted(self, mu, pattern=None):
        calls.append(pattern)
        return original(self, mu, pattern)

    monkeypatch.setattr(AffineFamily, "operator_at", counted)
    res = subspace_greedy(fam, train, eps=1e-12, j_max=3)
    # every sample is summed on the run's one pattern
    assert res.model.j == 3 and calls == [res.model.pattern] * 3


@pytest.mark.parametrize("pipeline", ["scm", "subspace"])
def test_every_cold_solve_goes_through_lower_bound(tmp_path, monkeypatch,
                                                   pipeline):
    # the benchmark times LP solves by wrapping scm.lower_bound, so each
    # iteration's one stacked solve must go through it
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
    assert len(calls) == summary["termination"]["iterations"]


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
def test_theta_is_evaluated_before_the_model_builds_its_box(pipeline,
                                                           monkeypatch):
    # a training point in [0, 1e-4), where sqrt fails, is refused before
    # any box eigensolve
    fam = AffineFamily(terms=(np.diag([1.0, 2.0, 3.0]), np.eye(3)),
                       theta=compile_theta(["1", "sqrt(mu1 - 0.0001)"], 1),
                       domain=((0.0, 0.1),))
    train = random_training_set(fam.domain, 1000, seed=0)

    def no_box(*args, **kwargs):
        raise AssertionError("the bounding box was built")

    monkeypatch.setattr(scm, "compute_bounding_box", no_box)
    with pytest.raises(EvaluationError, match=re.escape(
            "theta[1] = 'sqrt(mu1 - 0.0001)': sqrt of negative value")):
        PIPELINES[pipeline][0](fam, train, j_max=2)


@pytest.mark.parametrize("pipeline", sorted(PIPELINES))
def test_worst_ratio_at_a_sample_stops_the_loop(pipeline, monkeypatch):
    # once a sample is taken, the model reports the same positive ratio
    # everywhere, so argmax picks training point 0, the first one sampled
    g = np.random.default_rng(11).standard_normal((20, 20))
    fam = AffineFamily(terms=(0.5 * (g + g.T),),
                       theta=lambda mu: np.array([1.0 + mu[0]]),
                       domain=((0.0, 1.0),))
    train = random_training_set(fam.domain, 6, seed=11)
    greedy, model_type, _ = PIPELINES[pipeline]
    bounds_at = model_type.bounds_at

    def equal_ratios(self, *args, **kwargs):
        tables, sols = bounds_at(self, *args, **kwargs)
        if self.j:
            lower, upper = self.ranked
            tables[lower] = np.ones(len(tables[upper]))
            tables[upper] = np.full(len(tables[upper]), 2.0)
        return tables, sols

    monkeypatch.setattr(model_type, "bounds_at", equal_ratios)
    res = greedy(fam, train, eps=1e-300, j_max=8)
    assert np.all(res.tables["ratio"] == 0.5)
    assert res.converged is False
    assert type(res.model) is model_type
    assert res.model.j == len(res.records) < 8
    index = int(np.argmax(res.tables["ratio"]))
    assert res.model.has_sample(train.points[index])
    assert f"training point {index}," in res.reason
    assert "already sampled" in res.reason and "not converged" in res.reason


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


@pytest.mark.parametrize("pipeline, seed", [
    pytest.param(pipeline, seed, id=f"{pipeline}-{seed}")
    for pipeline in sorted(PIPELINES) for seed in (0, 1)])
def test_bounds_certified_at_roundoff_allowance(pipeline, seed):
    # the allowance the benchmark's correctness gate uses: gamma_n times
    # the bound sum_q |theta_q| max(|lo_q|, |hi_q|) on ||A(mu)||; it has
    # no LP term, as each lower bound is the weak-duality value of its LP
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


@pytest.fixture(scope="module", params=[
    (pipeline, seed) for pipeline in sorted(PIPELINES) for seed in (0, 1)],
    ids=lambda param: f"{param[0]}-{param[1]}")
def finished_run(request):
    """The runs of test_bounds_certified_at_roundoff_allowance, with the
    allowance of their bounds at any parameter points."""
    pipeline, seed = request.param
    fam = random_family(q=4, n=120, delta=0.2, seed=seed)
    train = random_training_set(fam.domain, 40, seed=5)
    res = PIPELINES[pipeline][0](fam, train, eps=1e-8, j_max=12)
    nu = fam.n * 2.0 ** -53
    scale = np.maximum(np.abs(res.box.lower), np.abs(res.box.upper))

    def allowance(points):
        return nu / (1.0 - nu) * (np.abs(fam.theta_table(points)) @ scale)

    return pipeline, fam, train, res, allowance


def corners_and_edge_midpoints(domain):
    """D's 2^P corners and the midpoints of its P 2^(P-1) edges."""
    corners = np.array(list(itertools.product(*domain)))
    mids = []
    for axis, (lo, hi) in enumerate(domain):
        for corner in corners[corners[:, axis] == lo]:
            mids.append(corner.copy())
            mids[-1][axis] = 0.5 * (lo + hi)
    return np.vstack([corners, mids])


def test_held_out_bounds_certified_at_roundoff_allowance(finished_run):
    # uniform held-out points, and D's boundary, where the gaps are widest
    # (the ratio there is not asserted: the loop converges only on the
    # training set)
    pipeline, fam, _, res, allowance = finished_run
    lower, upper = (("lam_lb", "lam_ub") if pipeline == "scm"
                    else ("lam_slb", "lam_sub"))
    assert res.model.ranked == (lower, upper)
    edges = corners_and_edge_midpoints(fam.domain)
    assert len(edges) == 2 ** fam.p + fam.p * 2 ** (fam.p - 1) == 20
    for points in (random_training_set(fam.domain, 100, seed=99).points,
                   edges):
        cols, _ = res.model.bounds_at(fam.theta_table(points))
        oracle = np.array([np.linalg.eigvalsh(fam.assemble_dense(mu))[0]
                           for mu in points])
        assert np.all(cols[lower] <= oracle + allowance(points))
        assert np.all(cols[upper] >= oracle - allowance(points))


def test_cold_bounds_at_training_points_match_the_tables(finished_run):
    # the tables come from restarted LPs, these from cold ones
    pipeline, fam, train, res, _ = finished_run
    cols, sols = res.model.bounds_at(fam.theta_table(train.points))
    assert set(cols) == PIPELINES[pipeline][2]
    assert sols.n_rows == res.model.j
    for key, col in cols.items():
        ref = res.tables[key]
        assert np.all(np.abs(col - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))


@pytest.mark.parametrize("pipeline", sorted(PIPELINES))
@pytest.mark.parametrize("make, size, j_max", [
    (lambda: random_family(4, 120, seed=2), 60, 12),
    (lambda: block_grid_family(16, 17), 30, 8)], ids=["random", "blocks"])
@pytest.mark.parametrize("train_seed", [0, 1, 2])
def test_finished_model_alone_reproduces_the_tables(pipeline, make, size,
                                                    j_max, train_seed):
    # the model carries its box, so one call bounds any parameter after
    # the run; at the training points it gives the run's final table
    fam = make()
    train = random_training_set(fam.domain, size, seed=train_seed)
    res = PIPELINES[pipeline][0](fam, train, eps=1e-12, j_max=j_max)
    cols, _ = res.model.bounds_at(fam.theta_table(train.points))
    assert set(cols) == PIPELINES[pipeline][2]
    for key, col in cols.items():
        assert np.array_equal(col, res.tables[key]), key


@pytest.mark.parametrize("pipeline", sorted(PIPELINES))
def test_ratio_fallback_column_flags_an_upper_bound_below_the_floor(
        tmp_path, pipeline):
    # A(mu) = diag(0, mu, 1, 2): the upper bound is exactly 0 for mu > 0
    # (sample vector e1) and mu for mu < 0 (e2), so both flags occur
    fam = AffineFamily(terms=(np.diag([0.0, 0.0, 1.0, 2.0]),
                              np.diag([0.0, 1.0, 0.0, 0.0])),
                       theta=lambda mu: np.array([1.0, mu[0]]),
                       domain=((-1.0, 1.0),))
    config = RunConfig(pipeline=pipeline, n_train=20, j_max=4, eps=1e-12)
    run_pipeline(config, fam, str(tmp_path))
    with open(tmp_path / "bounds.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    upper = PIPELINES[pipeline][1].ranked[1]
    flags = [int(row["ratio_fallback"]) for row in rows]
    assert flags == [int(abs(float(row[upper])) < scm.RATIO_DENOMINATOR_FLOOR)
                     for row in rows]
    assert 0 in flags and 1 in flags


def test_bounds_at_rejects_a_start_of_another_sample_count():
    fam = random_family(3, 40, delta=0.3, seed=60)
    theta = fam.theta_table(random_training_set(fam.domain, 5, seed=61).points)
    model = ScmState(fam)
    cols, sols = model.bounds_at(theta)
    assert sols is None and np.all(np.isinf(cols["lam_lb"]))
    model.add_sample([0.1, 0.1])
    _, sols = model.bounds_at(theta)
    with pytest.raises(ArgumentError, match="one sample ago"):
        model.bounds_at(theta, start=sols)     # no new sample since
    model.add_sample([0.2, 0.05])
    with pytest.raises(ArgumentError, match="one sample ago"):
        model.bounds_at(theta, start=sols.take([0, 1]))
    warm, _ = model.bounds_at(theta, start=sols)
    cold, _ = model.bounds_at(theta)
    assert np.all(np.abs(warm["lam_lb"] - cold["lam_lb"])
                  <= 1e-12 * np.maximum(1.0, np.abs(cold["lam_lb"])))


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
