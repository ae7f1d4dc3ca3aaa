"""The greedy loop that classical SCM and the subspace pipeline share."""

import numpy as np
import pytest

from eigenbounds import (EigensolverError, GreedyError, ScmState,
                         SubspacePool, random_family, random_training_set,
                         scm_greedy, subspace_greedy)
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
    res = greedy(fam, train, eps=1e-12, j_max=4, tol=1e-9, warm_start=False)
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
        greedy(fam, train, eps=1e-12, j_max=6, tol=1e-9)
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

