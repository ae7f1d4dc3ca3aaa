"""Outside-in tracer for the eigenbounds layers.

The tracer wraps public functions by name in the namespaces that *call*
them, because the package binds them with ``from .x import f``: patching
only the defining module would miss every call.  Each wrapper records a
span (parent span, name, start, end) in memory, or only counts calls where
a span per call would cost more than it tells.  Nothing in the package is
edited; :meth:`Tracer.uninstall` puts every original object back.

Single-threaded use only (the benchmark runs with ``workers=1``): the span
stack is shared by all wrappers.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import defaultdict

# import_module, not attribute access: the package namespace re-exports a
# function called ``hermitian`` that shadows the module of that name.
driver, expressions, family, hermitian, problems, scm, subspace = (
    importlib.import_module(f"eigenbounds.{name}") for name in
    ("driver", "expressions", "family", "hermitian", "problems", "scm",
     "subspace"))

# Span name -> the (namespace, attribute) bindings it is installed on.
SPAN_BINDINGS = {
    "driver.run_pipeline": [(driver, "run_pipeline")],
    "driver.load_problem": [(driver, "load_problem")],
    "problems.load_family": [(driver, "load_family")],
    "problems.coercivity_transform": [(problems, "coercivity_transform")],
    "hermitian.cholesky": [(problems, "cholesky")],
    "mmio.read_matrix_market": [(problems, "read_matrix_market")],
    "scm.scm_greedy": [(driver, "scm_greedy")],
    "subspace.subspace_greedy": [(driver, "subspace_greedy")],
    "family.compute_bounding_box": [(scm, "compute_bounding_box"),
                                    (subspace, "compute_bounding_box")],
    "scm.solve_at_sample": [(scm, "solve_at_sample"),
                            (subspace, "solve_at_sample")],
    "subspace.append_sample": [(subspace, "append_sample")],
    "subspace.subspace_lower_bound": [(subspace, "subspace_lower_bound")],
    "subspace.ritz_upper_bound": [(subspace, "ritz_upper_bound")],
    "subspace.residual_norm": [(subspace, "residual_norm")],
    "subspace.beta_gap": [(subspace, "beta_gap")],
    "scm.lower_bound": [(scm, "lower_bound"), (subspace, "lower_bound")],
    "lp.tighten_and_resolve": [(subspace, "tighten_and_resolve")],
}

# Counter name -> bindings whose calls are counted without a span.
COUNT_BINDINGS = {
    "lp.lp_minimize": [(scm, "lp_minimize")],
    "hermitian.eigensolves": [(hermitian, "smallest_eigpairs"),
                              (scm, "smallest_eigpairs"),
                              (scm, "dense_smallest")],
    "expressions.evaluate": [(expressions.ThetaExpression, "evaluate")],
    "family.theta_at": [(family.AffineFamily, "theta_at")],
}

# Span names that run under driver.run_pipeline, by the layer they belong to.
RUN_LAYERS = {
    "driver.io_s": ["driver.run_pipeline"],
    "scm.loop_s": ["scm.scm_greedy", "subspace.subspace_greedy"],
    "family.bbox_s": ["family.compute_bounding_box"],
    "hermitian.eig_s": ["scm.solve_at_sample"],
    "subspace.append_s": ["subspace.append_sample"],
    "subspace.sweep_s": ["subspace.subspace_lower_bound",
                         "subspace.ritz_upper_bound", "subspace.residual_norm",
                         "subspace.beta_gap"],
    "lp.minimize_s": ["scm.lower_bound"],
    "lp.tighten_s": ["lp.tighten_and_resolve"],
}


def _operator_classes():
    """Every HermitianOperator class that defines its own matmat."""
    found, todo = [], [hermitian.HermitianOperator]
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if "matmat" in cls.__dict__:
            found.append(cls)
    return found


class Tracer:
    """Spans and counters for one traced setup plus one traced run.

    Use as a context manager: wrappers are installed on entry and removed
    on exit, also when the traced code raises.
    """

    def __init__(self):
        self.spans = []         # (parent index or -1, name, t0_ns, t1_ns)
        self.counts = defaultdict(int)
        self.pool = None        # SubspacePool of the last subspace run
        self._stack = []
        self._matmat_depth = 0
        self._saved = []        # (owner, attribute, original)

    # -- installation -------------------------------------------------
    def install(self):
        if self._saved:
            raise RuntimeError("tracer is already installed")
        hooks = {
            "subspace.subspace_greedy": self._keep_pool,
            "lp.tighten_and_resolve": self._count_fallback,
            "mmio.read_matrix_market": self._count_bytes,
            "lp.lp_minimize": self._count_cache,
        }
        for table, wrap in ((SPAN_BINDINGS, self._span),
                            (COUNT_BINDINGS, self._counter)):
            for name, bindings in table.items():
                for owner, attr in bindings:
                    self._patch(owner, attr, lambda fn, n=name, w=wrap:
                                w(n, fn, hooks.get(n)))
        for cls in _operator_classes():
            self._patch(cls, "matmat", self._matmat)
        return self

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _patch(self, owner, attr, make_wrapper):
        original = owner.__dict__[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))

    # -- wrappers -----------------------------------------------------
    def _span(self, name, fn, on_result=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                spans[index] = (parent, name, t0, clock())
                stack.pop()
            if on_result is not None:
                on_result(args, out)
            return out
        return wrapper

    def _counter(self, name, fn, on_result=None):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            out = fn(*args, **kwargs)
            if on_result is not None:
                on_result(args, out)
            return out
        return wrapper

    def _matmat(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(op, X):
            # count only the outermost application: sandwich and product
            # operators apply their inner terms through matmat as well
            if tracer._matmat_depth == 0:
                tracer.counts["hermitian.matmat_cols"] += \
                    X.shape[1] if X.ndim == 2 else 1
            tracer._matmat_depth += 1
            try:
                return fn(op, X)
            finally:
                tracer._matmat_depth -= 1
        return wrapper

    def _keep_pool(self, args, result):
        self.pool = result.model

    def _count_fallback(self, args, tight):
        if tight.fallback is not None:
            self.counts["lp.tighten_fallbacks"] += 1

    def _count_bytes(self, args, result):
        self.counts["mmio.bytes_read"] += os.path.getsize(args[0])

    def _count_cache(self, args, sol):
        if sol.cache_hit:
            self.counts["lp.warm_hits"] += 1

    # -- results ------------------------------------------------------
    def self_times(self):
        """Seconds of self time (span minus its child spans) per span name."""
        child = [0] * len(self.spans)
        for parent, _, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = defaultdict(float)
        for k, (_, name, t0, t1) in enumerate(self.spans):
            out[name] += (t1 - t0 - child[k]) * 1e-9
        return out

    def span_counts(self):
        out = defaultdict(int)
        for _, name, _, _ in self.spans:
            out[name] += 1
        return out

    def write(self, path):
        """Write the spans as CSV: index, parent, name, start_ns, end_ns."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,parent,name,start_ns,end_ns\n")
            for k, (parent, name, t0, t1) in enumerate(self.spans):
                fh.write(f"{k},{parent},{name},{t0},{t1}\n")


def pool_stats(pool):
    """Dimension, stored bytes and dropped vectors of a subspace pool."""
    if not isinstance(pool, subspace.SubspacePool):
        return 0, 0, 0
    arrays = [pool.basis, pool.reduced, pool.cross, pool.upper_points,
              pool.rows, pool.rhs, *pool.applied, *pool.coeffs,
              *pool.sample_values]
    return pool.dim, sum(a.nbytes for a in arrays), int(sum(pool.dropped))


def layer_metrics(tracer, run_s, untraced_run_s, m, iterations):
    """Per-layer metrics from one traced setup and one traced run.

    ``run_s`` is the traced run time, ``untraced_run_s`` the untraced one
    it is compared with, ``m`` the training-set size and ``iterations``
    the greedy iterations of the traced run.
    """
    selfs = tracer.self_times()
    calls = tracer.span_counts()
    counts = tracer.counts
    metrics = {}
    for key, names in RUN_LAYERS.items():
        metrics[key] = (sum(selfs[n] for n in names), "s")
    coverage = sum(v for v, _ in metrics.values()) / run_s
    minimize_calls = counts["lp.lp_minimize"]
    dim, nbytes, dropped = pool_stats(tracer.pool)
    metrics.update({
        "subspace.beta_gap_s": (selfs["subspace.beta_gap"], "s"),
        "subspace.beta_gap_calls": (calls["subspace.beta_gap"], "count"),
        "subspace.point_evals": (calls["subspace.subspace_lower_bound"],
                                 "count"),
        "subspace.pool_dim": (dim, "count"),
        "subspace.pool_bytes": (nbytes, "B"),
        "subspace.dropped": (dropped, "count"),
        "lp.minimize_calls": (minimize_calls, "count"),
        "lp.cold_solves": (minimize_calls - counts["lp.warm_hits"], "count"),
        "lp.warm_hit_ratio": (counts["lp.warm_hits"] / minimize_calls
                              if minimize_calls else 0.0, "1"),
        "lp.sweep_skip_ratio": (1.0 - calls["scm.lower_bound"]
                                / (m * iterations), "1"),
        "lp.tighten_calls": (calls["lp.tighten_and_resolve"], "count"),
        "lp.tighten_fallbacks": (counts["lp.tighten_fallbacks"], "count"),
        "hermitian.eig_calls": (counts["hermitian.eigensolves"], "count"),
        "hermitian.matmat_cols": (counts["hermitian.matmat_cols"], "count"),
        "hermitian.cholesky_s": (selfs["hermitian.cholesky"], "s"),
        "family.theta_calls": (counts["family.theta_at"], "count"),
        "expressions.evals": (counts["expressions.evaluate"], "count"),
        "problems.load_s": (selfs["driver.load_problem"]
                            + selfs["problems.load_family"], "s"),
        "problems.transform_s": (selfs["problems.coercivity_transform"], "s"),
        "mmio.read_s": (selfs["mmio.read_matrix_market"], "s"),
        "mmio.bytes_read": (counts["mmio.bytes_read"], "B"),
        "trace.coverage": (coverage, "1"),
        "trace.overhead": (run_s / untraced_run_s - 1.0, "1"),
    })
    return metrics
