"""What the benchmark relies on must stay where it finds it.

bench/tracer.py wraps functions by ``owner.__dict__[attr]`` in the modules
that call them; a name that moves makes the traced benchmark fail.
bench/measure.py builds a RunConfig from each workload's settings; a field
that goes away makes every benchmark run fail.  The tracer also reads
attributes off what the package returns (``LPBatch.cache_hit`` after
every ``lp_minimize``, the pool arrays in ``pool_stats``); a traced run
of each pipeline reaches every one of those reads.
"""

import importlib
import math
import os

import pytest

BENCH_DIR = os.path.join(os.path.dirname(__file__), "..", "bench")


def test_tracer_bindings_exist(monkeypatch):
    monkeypatch.syspath_prepend(BENCH_DIR)
    tracer = importlib.import_module("tracer")
    tables = (tracer.SPAN_BINDINGS, tracer.COUNT_BINDINGS)
    missing = [(name, owner.__name__, attr)
               for table in tables for name, bindings in table.items()
               for owner, attr in bindings if attr not in owner.__dict__]
    assert not missing
    for attr in ("scm_greedy", "subspace_greedy"):
        assert attr in tracer.driver.__dict__


def test_benchmark_run_configs_validate(monkeypatch):
    """Every RunConfig the benchmark builds must stay constructible."""
    monkeypatch.syspath_prepend(BENCH_DIR)
    workloads = importlib.import_module("workloads")
    from eigenbounds.driver import RunConfig
    for w in workloads.WORKLOADS.values():
        RunConfig(**w.config, train_seed=0, workers=1, oracle=False)


@pytest.mark.parametrize("pipeline", ["scm", "subspace"])
def test_traced_run_gives_layer_metrics(monkeypatch, tmp_path, pipeline):
    monkeypatch.syspath_prepend(BENCH_DIR)
    tracer = importlib.import_module("tracer")
    from eigenbounds.driver import RunConfig, load_problem, run_pipeline
    config = RunConfig(pipeline=pipeline, n_train=12, j_max=3, workers=1)
    with tracer.Tracer() as traced:
        family, meta = load_problem(generator={"kind": "one-param",
                                               "N": 30})
        summary = run_pipeline(config, family, str(tmp_path), meta)
    metrics = tracer.layer_metrics(traced, 1.0, 1.0, config.n_train,
                                   summary["termination"]["iterations"])
    assert all(math.isfinite(value) for value, _ in metrics.values())
    assert metrics["lp.minimize_calls"][0] > 0
    assert metrics["hermitian.eig_calls"][0] > 0
    assert (metrics["subspace.pool_dim"][0] > 0) == (pipeline == "subspace")
