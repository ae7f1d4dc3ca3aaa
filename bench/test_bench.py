"""Tests of the benchmark itself, on the seconds-long ``smoke`` workload.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SCRATCH = os.path.join(BENCH, "out", "tests")
sys.path.insert(0, os.path.join(ROOT, "src"))

import measure  # noqa: E402
import tracer  # noqa: E402
from eigenbounds import driver  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SMOKE = WORKLOADS["smoke"]


def _bench(*args, cwd=ROOT, script=os.path.join(BENCH, "run.py")):
    return subprocess.run([sys.executable, script, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300,
                          check=False)


def _smoke_rep(outdir, **config):
    load_kwargs, _, _ = SMOKE.prepare(outdir)
    family, meta = driver.load_problem(**load_kwargs)
    cfg = driver.RunConfig(**{**SMOKE.config, **config}, train_seed=5)
    with measure.KeepBox() as keep:
        rep = measure._one_rep(cfg, family, meta, outdir)
    return cfg, family, keep.box, rep


def _bindings():
    out = []
    for table in (tracer.SPAN_BINDINGS, tracer.COUNT_BINDINGS):
        for bindings in table.values():
            out.extend(bindings)
    out.extend((cls, "matmat") for cls in tracer._operator_classes())
    return {(id(owner), attr): owner.__dict__[attr] for owner, attr in out}


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    proc = _bench("--workload", "smoke", "--seed", "3", "--seconds", "1",
                  "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    key = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in spec[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    printed = dict(line.split(" = ", 1) for line in lines[:-1]
                   if " = " in line)
    named = dict(measure.END_TO_END)
    if trace:
        named.update(expected)
    for name, unit in named.items():
        assert printed[name].endswith(f" {unit}"), name


def test_gated_metrics_match_the_benchmark_file():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["end_to_end"]] == list(measure.GATED)
    for metric in spec["end_to_end"]:
        assert metric["unit"] == measure.END_TO_END[metric["name"]]
    names = [w["name"] for w in spec["workloads"]]
    assert all(name in WORKLOADS for name in names)


def test_tracer_leaves_no_wrapper_installed():
    outdir = os.path.join(SCRATCH, "tracer")
    before = _bindings()
    load_kwargs, _, _ = SMOKE.prepare(outdir)
    with tracer.Tracer() as traced:
        family, _ = driver.load_problem(**load_kwargs)
        driver.run_pipeline(driver.RunConfig(n_train=10, j_max=3), family,
                            outdir)
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert traced.spans and None not in traced.spans
    assert traced.self_times()["subspace.beta_gap"] > 0

    with pytest.raises(ValueError):
        with tracer.Tracer():
            driver.run_pipeline(driver.RunConfig(pipeline="none"), family,
                                outdir)
    after = _bindings()
    assert all(after[k] is before[k] for k in before)


def test_corrupted_bound_table_counts_as_failed():
    outdir = os.path.join(SCRATCH, "gate")
    cfg, family, box, rep = _smoke_rep(outdir)
    m = cfg.n_train
    terms = [t.dense() for t in family.terms]

    def check(*reps):
        return measure.check_reps(SMOKE, cfg, family, box, list(reps),
                                  terms, None)

    assert check(rep, rep)[:2] == (2 * m, 0)
    lifted = {k: v.copy() for k, v in rep.table.items()}
    lifted["lam_slb"][3] = lifted["lam_sub"][3] + 1.0
    corrupt = measure.Rep(rep.seconds, rep.summary, lifted, rep.digest)
    attempted, failed, _ = check(rep, corrupt)
    assert (attempted, failed) == (2 * m, 1)
    lifted["lam_sub"][7] = np.nan
    assert check(rep, corrupt)[1] == 2
    # a repeat that is not bit-identical fails at every checked point
    other = measure.Rep(rep.seconds, rep.summary, rep.table, "0" * 64)
    assert check(rep, other)[1] == m
    # a repeat that raised fails at every checked point
    crashed = measure.Rep(rep.seconds, error="Traceback ...")
    assert check(rep, crashed)[1] == m


def test_without_the_package_it_fails_and_prints_no_result():
    bare = os.path.join(SCRATCH, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(BENCH, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "smoke", "--seed", "1", "--seconds", "1",
                  cwd=bare, script=os.path.join(bare, "bench", "run.py"))
    assert proc.returncode not in (0, None)
    assert '"correct"' not in proc.stdout
