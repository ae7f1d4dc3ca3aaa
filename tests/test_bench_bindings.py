"""The names the benchmark's tracer patches must stay where it finds them.

bench/tracer.py wraps functions by ``owner.__dict__[attr]`` in the modules
that call them; a name that moves makes the traced benchmark fail.
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
