"""What the benchmark relies on must stay where it finds it.

bench/tracer.py wraps functions by ``owner.__dict__[attr]`` in the modules
that call them; a name that moves makes the traced benchmark fail.
bench/measure.py builds a RunConfig from each workload's settings; a field
that goes away makes every benchmark run fail.
"""

import importlib
import os

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
        RunConfig(**w.config, train_seed=0, workers=1, oracle=False).validate()
