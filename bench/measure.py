"""One benchmark run of one workload: set up, time, trace, check.

A run drives the package the way the ``run`` CLI does: ``load_problem``
then ``run_pipeline`` with ``workers=1`` and the oracle off.  It repeats
``run_pipeline`` until the time budget is spent, cycling through the
workload's training sets (each drawn from the seed) and running the first
set at least twice, with a SETUP_BURST of ``load_problem`` calls before
each repeat and a calibration block (calibrate.py) after it.  Reported
times are scaled by the machine's speed over the run.  Repeats on one
training set double as the determinism check: their bounds.csv files must
hash the same.  References for the correctness gate are computed after
the timed region.
"""

from __future__ import annotations

import gc
import os
import platform
import resource
import statistics
import time
import traceback
from dataclasses import asdict, dataclass

import numpy as np
import scipy

from eigenbounds import driver

import gate
import tracer as tracing
from calibrate import Calibration
from workloads import WORKLOADS, checked_indices, reference_values

SETUP_BURST = 0.15      # seconds of load_problem calls before each run
CAL_FIRST = 0.5         # seconds of calibration before the first run
CAL_SHARE = 0.2         # calibration after each run, as a share of its time

# The six end-to-end metrics and their units, then the unscaled wall times
# and the machine speed they are scaled by (calibrate.py).  Only GATED ones
# carry a regression bound in BENCHMARK.json: iterations is fixed by each
# workload's cap, final_max_ratio varies about 4x between training sets,
# cert_fail_frac is 0 on a correct run (failures also end the run with a
# non-zero exit code) and the wall times move with the machine's speed.
END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "iterations": "count",
    "final_max_ratio": "1",
    "peak_rss_mb": "MiB",
    "cert_fail_frac": "1",
    "run_wall_s": "s",
    "setup_wall_s": "s",
    "machine_speed": "1",
}
GATED = ("run_s", "setup_s", "peak_rss_mb")


@dataclass
class Rep:
    """One call of run_pipeline and what it left behind."""

    seconds: float
    summary: dict | None = None
    table: dict | None = None
    digest: str | None = None
    error: str | None = None


class KeepBox:
    """Keeps the bounding box of each greedy run ``run_pipeline`` makes.

    The gate scales its roundoff allowance by ||A(mu)|| from the box, which
    run_pipeline computes but does not return.  One wrapper call per run.
    """

    def __init__(self):
        self.box = None
        self._saved = []

    def __enter__(self):
        for attr in ("scm_greedy", "subspace_greedy"):
            original = getattr(driver, attr)
            self._saved.append((attr, original))
            setattr(driver, attr, self._wrap(original))
        return self

    def __exit__(self, *exc):
        for attr, original in self._saved:
            setattr(driver, attr, original)
        self._saved.clear()
        return False

    def _wrap(self, fn):
        def greedy(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.box = result.box
            return result
        return greedy


def machine_record(blas_threads):
    """Cores, CPU, BLAS and library versions of this process."""
    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (KeyError, TypeError, AttributeError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas": blas,
        "blas_threads": blas_threads,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def _one_rep(config, family, meta, outdir):
    t0 = time.perf_counter()
    try:
        summary = driver.run_pipeline(config, family, outdir, meta)
    except Exception:                                    # noqa: BLE001
        # the run is counted as failed at every checked point
        return Rep(seconds=time.perf_counter() - t0,
                   error=traceback.format_exc())
    seconds = time.perf_counter() - t0
    table, digest = gate.read_bounds(os.path.join(outdir, "bounds.csv"))
    return Rep(seconds=seconds, summary=summary, table=table, digest=digest)


def _reference_terms(workload, family):
    if workload.reference == "dense":
        return [t.dense() for t in family.terms]
    return [t.matrix for t in family.terms]


def check_reps(workload, config, family, box, reps, terms, X):
    """(attempted, failed, worst excess / allowance) over all reps.

    Reps on one training set must be bit-identical to the first of them,
    and each training set is checked against its own references.
    """
    index = checked_indices(workload, config.n_train)
    attempted = len(index) * len(reps)
    if box is None:
        return attempted, attempted, None
    bases = {}
    failed, worst = 0, -np.inf
    for rep in reps:
        if rep.table is None:
            failed += len(index)
            continue
        train_seed = rep.summary["seeds"]["train_seed"]
        if train_seed not in bases:
            points = gate.points_of(rep.table)[index]
            thetas = np.array([workload.theta(mu) for mu in points])
            bases[train_seed] = (
                rep.digest, reference_values(workload, terms, X, points),
                gate.gamma(family.n) * gate.norm_bounds(box, thetas))
        digest, reference, allowance = bases[train_seed]
        if rep.digest != digest:
            failed += len(index)
            continue
        bad, excess = gate.failed_points(rep.table, config.pipeline, index,
                                         reference, allowance)
        failed += bad
        worst = max(worst, excess)
    return attempted, failed, worst if worst > -np.inf else None


def run_workload(name, seed, seconds, trace, outroot, blas_threads):
    """Run one workload and return its result record (a JSON-able dict)."""
    workload = WORKLOADS[name]
    workdir = os.path.join(outroot, name)
    os.makedirs(workdir, exist_ok=True)
    load_kwargs, terms, X = workload.prepare(workdir)
    # the seed draws the workload's training sets; the reps cycle through them
    train_seeds = [seed * workload.train_sets + k
                   for k in range(workload.train_sets)]
    configs = [driver.RunConfig(**workload.config, train_seed=s, workers=1,
                                oracle=False) for s in train_seeds]
    config = configs[0]

    setup_times = []

    def setup_burst():
        # Free the reference cycles a finished run leaves behind (they hold
        # about 40 MB on grid-coercivity) before loading more problems, and
        # keep only the burst's first problem, so peak memory stays that of
        # one problem plus one run.
        gc.collect()
        first, spent = None, 0.0
        while spent < SETUP_BURST:
            t0 = time.perf_counter()
            problem = driver.load_problem(**load_kwargs)
            setup_times.append(time.perf_counter() - t0)
            spent += setup_times[-1]
            first = first or problem
            del problem
        return first

    calibration = Calibration()
    start = time.perf_counter()
    calibration.measure(CAL_FIRST)
    family, meta = setup_burst()
    # with tracing on, half the budget goes to the untraced baseline
    budget = seconds / 2 if trace else seconds
    # one more run than there are training sets, so that the first set runs
    # twice and the determinism check compares them
    min_reps = 1 if trace else len(configs) + 1
    reps = []
    rep_dir = os.path.join(workdir, "run")
    with KeepBox() as keep:
        while len(reps) < min_reps or (
                time.perf_counter() - start
                + statistics.median(r.seconds for r in reps)
                * (1 + CAL_SHARE) + SETUP_BURST <= budget):
            if reps:
                setup_burst()
            rep = _one_rep(configs[len(reps) % len(configs)], family, meta,
                           rep_dir)
            calibration.measure(CAL_SHARE * rep.seconds)
            reps.append(rep)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    speed = calibration.speed()
    rep_seconds = [r.seconds for r in reps]
    # Means, not medians: the training sets differ in work (the LP solve
    # count varies by about 10% between sets), so the run's time is the
    # mean over its sets, each weighed the same.
    per_set = [[r.seconds for r in reps[k::len(configs)] if r.error is None]
               for k in range(len(configs))]
    per_set = [statistics.fmean(t) for t in per_set if t]
    run_wall_s = statistics.fmean(per_set) if per_set else None
    run_s = run_wall_s * speed if per_set else None
    traced_s = None

    layers = None
    if trace:
        with tracing.Tracer() as tracer:
            family_t, meta_t = driver.load_problem(**load_kwargs)
            traced = _one_rep(config, family_t, meta_t, rep_dir)
        tracer.write(os.path.join(workdir, "spans.csv"))
        reps.append(traced)
        traced_s = traced.seconds
        # the untraced runs on the traced run's training set
        untraced = [r.seconds for r in reps[:-1:len(configs)]
                    if r.error is None]
        if traced.error is None and untraced:
            layers = tracing.layer_metrics(
                tracer, traced.seconds, statistics.median(untraced),
                config.n_train, traced.summary["termination"]["iterations"])

    if terms is None:
        terms = _reference_terms(workload, family)
    attempted, failed, worst = check_reps(workload, config, family,
                                          keep.box, reps, terms, X)
    base = next((r for r in reps if r.summary is not None), None)
    metrics = {
        "run_s": run_s,
        "setup_s": statistics.median(setup_times) * speed,
        "iterations": base.summary["termination"]["iterations"]
        if base else None,
        "final_max_ratio": base.summary["final_max_ratio"] if base else None,
        "peak_rss_mb": peak_rss_mb,
        "cert_fail_frac": failed / attempted,
        "run_wall_s": run_wall_s,
        "setup_wall_s": statistics.median(setup_times),
        "machine_speed": speed,
    }
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "config": asdict(config),
        "train_seeds": train_seeds,
        "machine": machine_record(blas_threads),
        "metrics": {k: {"value": v, "unit": END_TO_END[k]}
                    for k, v in metrics.items()},
        "layers": None if layers is None else
        {k: {"value": v, "unit": u} for k, (v, u) in layers.items()},
        "correctness": {
            "attempted": attempted,
            "failed": failed,
            "worst_excess_over_allowance": worst,
            "digests": sorted({r.digest for r in reps if r.digest}),
            "errors": [r.error for r in reps if r.error],
        },
        "run_seconds_each": rep_seconds,
        "calibration_blocks": calibration.blocks,
        "traced_run_seconds": traced_s,
        "setup_seconds_each": setup_times,
    }
