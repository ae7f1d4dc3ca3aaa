"""Batch orchestration: load or generate a problem, run a pipeline, write
plot-ready artifacts (convergence CSV, per-parameter bound table, summary
JSON) with full reproducibility of seeds and configuration.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import asdict, dataclass

import numpy as np

from .family import random_training_set
from .hermitian import ArgumentError, dense_smallest
from .mmio import write_matrix_market
from .problems import (ManifestError, block_grid_family, load_family,
                       one_parameter_analytic_family, random_family,
                       unit_circle_family)
from .scm import scm_greedy
from .subspace import subspace_greedy

__all__ = [
    "CSV_SCHEMA_VERSION",
    "RunConfig",
    "CompareError",
    "load_problem",
    "run_pipeline",
    "compare_runs",
    "generate_problem_files",
]

CSV_SCHEMA_VERSION = 1
PIPELINES = ("scm", "subspace", "subspace-heuristic")

CONVERGENCE_FIXED_COLUMNS = [
    "iter", "max_error_ratio", "max_abs_ub_error", "max_abs_lb_error",
    "heuristic_valid", "wall_seconds_cumulative", "eig_seconds",
    "lp_seconds", "reduced_seconds", "lp_count", "eig_count",
]
BOUND_FIXED_COLUMNS = [
    "lam_lb", "lam_slb", "lam_sub", "lam_ub", "heuristic", "residual",
    "chosen_r", "error_ratio", "oracle_lambda_min",
]


@dataclass
class RunConfig:
    """Run settings; defaults follow the standard experimental protocol."""

    pipeline: str = "subspace"
    eps: float = 1e-4
    j_max: int = 200
    n_train: int = 1000
    train_seed: int = 0
    ell: int = 1
    r_max: int | None = None      # defaults to the family's term count
    lp_tol: float = 1e-8
    warm_start: bool = True
    oracle: bool = False
    oracle_cap: int = 800
    seed: int = 0
    workers: int = 1              # runs are single-threaded; only 1 is valid

    def validate(self):
        if self.pipeline not in PIPELINES:
            raise ArgumentError(f"pipeline must be one of {PIPELINES}")
        if self.eps <= 0 or self.j_max < 1 or self.n_train < 1:
            raise ArgumentError("eps, j_max and n_train must be positive")
        if self.ell < 1:
            raise ArgumentError("ell must be at least 1")
        if self.lp_tol <= 0:
            raise ArgumentError("lp_tol must be positive")
        if self.r_max is not None and self.r_max < 0:
            raise ArgumentError("r_max must be non-negative")
        if self.workers != 1:
            raise ArgumentError("workers must be 1")
        return self


_GENERATORS = {
    "unit-circle": lambda spec: unit_circle_family(),
    "random": lambda spec: random_family(
        q=int(spec.get("Q", 4)), n=int(spec.get("N", 200)),
        delta=float(spec.get("delta", 0.2)), seed=int(spec.get("seed", 0))),
    "one-param": lambda spec: one_parameter_analytic_family(
        n=int(spec.get("N", 40)), gap=float(spec.get("gap", 1.0)),
        seed=int(spec.get("seed", 0))),
    "blocks": lambda spec: block_grid_family(
        nx=int(spec.get("nx", 32)), ny=int(spec.get("ny", 33)),
        blocks=(int(spec.get("blocks_x", 3)), int(spec.get("blocks_y", 3)))),
}


def load_problem(manifest=None, generator=None):
    """Problem from a manifest path or a generator spec dict (exactly one)."""
    if (manifest is None) == (generator is None):
        raise ArgumentError("provide exactly one of manifest or generator")
    if manifest is not None:
        family, meta = load_family(manifest)
        meta = {"source": "manifest", **meta}
        return family, meta
    kind = generator.get("kind")
    if kind not in _GENERATORS:
        raise ManifestError("kind", f"unknown generator {kind!r}; "
                            f"known: {sorted(_GENERATORS)}")
    family = _GENERATORS[kind](generator)
    return family, {"source": "generator", "generator": dict(generator)}


def _oracle_values(family, points):
    X = family.inner_product
    mats = (family.assemble_dense(mu) for mu in points)
    if X is None:
        return np.array([np.linalg.eigvalsh(A)[0] for A in mats])
    return np.array([dense_smallest(A, 1, size_cap=family.n, M=X).values[0]
                     for A in mats])


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float) and math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return repr(value) if isinstance(value, float) else str(value)


def _write_csv(path, columns, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _convergence_rows(result, p):
    rows = []
    for rec in result.records:
        row = [rec.iteration]
        row.extend(float(x) for x in rec.selected_mu)
        row.extend([rec.max_ratio, rec.max_abs_ub_error, rec.max_abs_lb_error,
                    rec.heuristic_valid, rec.wall_seconds, rec.eig_seconds,
                    rec.lp_seconds, rec.reduced_seconds, rec.lp_count,
                    rec.eig_count])
        rows.append(row)
    return rows


def _bound_rows(result, points):
    tabs = result.tables
    m = len(points)
    none_col = [None] * m
    def col(name):
        arr = tabs.get(name)
        return none_col if arr is None else arr
    rows = []
    ratio = tabs["ratio"]
    for i in range(m):
        row = list(float(x) for x in points[i])
        for name in ("lam_lb", "lam_slb", "lam_sub", "lam_ub", "heuristic",
                     "residual"):
            v = col(name)[i]
            row.append(None if v is None else float(v))
        cr = col("chosen_r")[i]
        row.append(None if cr is None else int(cr))
        row.append(float(ratio[i]))
        ov = col("oracle")[i]
        row.append(None if ov is None else float(ov))
        rows.append(row)
    return rows


def heuristic_first_valid(records):
    """First iteration from which the heuristic stays a true lower bound."""
    first = None
    for rec in records:
        if rec.heuristic_valid is None:
            return None
        if rec.heuristic_valid:
            if first is None:
                first = rec.iteration
        else:
            first = None
    return first


def run_pipeline(config, family, outdir, problem_meta=None):
    """Run the configured pipeline and write artifacts into ``outdir``.

    Writes convergence.csv (one row per greedy iteration), bounds.csv (final
    per-training-point bound table) and summary.json; returns the summary
    dict.
    """
    config.validate()
    os.makedirs(outdir, exist_ok=True)
    t0 = time.perf_counter()
    train = random_training_set(family.domain, config.n_train,
                                config.train_seed)
    oracle = None
    oracle_active = False
    if config.oracle and family.n <= config.oracle_cap:
        oracle = _oracle_values(family, train.points)
        oracle_active = True

    if config.pipeline == "scm":
        result = scm_greedy(family, train, eps=config.eps, j_max=config.j_max,
                            warm_start=config.warm_start, oracle=oracle,
                            lp_tol=config.lp_tol, seed=config.seed)
    else:
        mode = "heuristic" if config.pipeline == "subspace-heuristic" \
            else "certified"
        result = subspace_greedy(
            family, train, eps=config.eps, j_max=config.j_max,
            ell=config.ell, r_max=config.r_max, mode=mode,
            warm_start=config.warm_start, oracle=oracle,
            lp_tol=config.lp_tol, seed=config.seed)

    p = family.p
    mu_cols = [f"mu_{k + 1}" for k in range(p)]
    conv_cols = ["iter"] + mu_cols + CONVERGENCE_FIXED_COLUMNS[1:]
    _write_csv(os.path.join(outdir, "convergence.csv"), conv_cols,
               _convergence_rows(result, p))
    bound_cols = mu_cols + BOUND_FIXED_COLUMNS
    _write_csv(os.path.join(outdir, "bounds.csv"), bound_cols,
               _bound_rows(result, train.points))

    summary = {
        "csv_schema_version": CSV_SCHEMA_VERSION,
        "config": asdict(config),
        "problem": {
            "name": family.name,
            "Q": family.q,
            "P": family.p,
            "n": family.n,
            "domain": [[lo, hi] for lo, hi in family.domain],
            "meta": problem_meta or {},
        },
        "seeds": {"train_seed": config.train_seed,
                  "solver_seed": config.seed},
        "training_size": len(train),
        "termination": {
            "converged": result.converged,
            "reason": result.reason,
            "iterations": len(result.records),
        },
        "counts": {
            "lp": result.records[-1].lp_count if result.records else 0,
            "eig": result.records[-1].eig_count if result.records else 0,
        },
        "final_max_ratio": result.records[-1].max_ratio
            if result.records else None,
        "oracle_active": oracle_active,
        "heuristic_first_valid_iteration": heuristic_first_valid(result.records),
        "wall_seconds": time.perf_counter() - t0,
    }
    with open(os.path.join(outdir, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return summary


class CompareError(ValueError):
    """Incompatible run directories (different training sets or problems)."""


def _load_run(path):
    with open(os.path.join(path, "summary.json"), "r", encoding="utf-8") as fh:
        summary = json.load(fh)
    ratios = []
    with open(os.path.join(path, "convergence.csv"), "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        idx = header.index("max_error_ratio")
        for line in fh:
            parts = line.rstrip("\n").split(",")
            ratios.append(float(parts[idx]))
    return summary, ratios


def compare_runs(dir_a, dir_b):
    """Diff two run directories' convergence curves.

    Refuses runs with different training seeds/sizes or domains.  Returns
    (text_lines, csv_rows) where rows are (iter, ratio_a, ratio_b).
    """
    sum_a, ratios_a = _load_run(dir_a)
    sum_b, ratios_b = _load_run(dir_b)
    for key in ("train_seed",):
        if sum_a["seeds"][key] != sum_b["seeds"][key]:
            raise CompareError(
                f"training seeds differ ({sum_a['seeds'][key]} vs "
                f"{sum_b['seeds'][key]}); curves are not comparable")
    if sum_a["training_size"] != sum_b["training_size"]:
        raise CompareError("training set sizes differ")
    if sum_a["problem"]["domain"] != sum_b["problem"]["domain"]:
        raise CompareError("parameter domains differ")

    rows = []
    for it in range(max(len(ratios_a), len(ratios_b))):
        ra = ratios_a[it] if it < len(ratios_a) else None
        rb = ratios_b[it] if it < len(ratios_b) else None
        rows.append((it + 1, ra, rb))

    lines = []
    lines.append(f"run A: {sum_a['config']['pipeline']}, "
                 f"{sum_a['termination']['iterations']} iterations, "
                 f"final ratio {sum_a['final_max_ratio']:.6e}")
    lines.append(f"run B: {sum_b['config']['pipeline']}, "
                 f"{sum_b['termination']['iterations']} iterations, "
                 f"final ratio {sum_b['final_max_ratio']:.6e}")
    common = min(len(ratios_a), len(ratios_b))
    if ratios_a[:common] == ratios_b[:common] and len(ratios_a) == len(ratios_b):
        lines.append("curves are identical (zero diff)")
    else:
        dominated = all(rb <= ra * (1 + 1e-12) + 1e-15 for ra, rb in
                        zip(ratios_a[:common], ratios_b[:common]))
        lines.append("run B ratio <= run A ratio at every common iteration: "
                     + ("yes" if dominated else "no"))
    for label, summ in (("A", sum_a), ("B", sum_b)):
        jstar = summ.get("heuristic_first_valid_iteration")
        if summ.get("oracle_active") and jstar is not None:
            lines.append(f"run {label}: residual heuristic is a true lower "
                         f"bound for all training parameters from iteration "
                         f"{jstar} on")
        elif summ.get("oracle_active"):
            lines.append(f"run {label}: residual heuristic never became a "
                         "uniform lower bound (or no heuristic data)")
    return lines, rows


def generate_problem_files(kind, outdir, spec=None, pipeline="eig",
                           inner_seed=1):
    """Write a generator's matrices plus a manifest into ``outdir``.

    Emits one Matrix Market file per term (plus an SPD inner-product matrix
    for the coercivity/singular pipelines) and manifest.json referencing
    them, so `run --manifest` reproduces the generated problem.
    """
    spec = dict(spec or {})
    spec["kind"] = kind
    family, _ = load_problem(generator=spec)
    if family.theta_source is None:
        raise ArgumentError(f"generator {kind!r} has no expression form")
    os.makedirs(outdir, exist_ok=True)
    term_files = []
    for qi, term in enumerate(family.terms):
        name = f"term_{qi + 1}.mtx"
        write_matrix_market(os.path.join(outdir, name), term.dense()
                            if not hasattr(term, "matrix") else term.matrix)
        term_files.append(name)
    manifest = {
        "Q": family.q,
        "P": family.p,
        "domain": [[lo, hi] for lo, hi in family.domain],
        "theta": list(family.theta_source),
        "terms": term_files,
        "pipeline": pipeline,
    }
    if pipeline in ("coercivity", "singular"):
        rng = np.random.default_rng(inner_seed)
        G = rng.standard_normal((family.n, family.n))
        X = G @ G.T / family.n + np.eye(family.n)
        write_matrix_market(os.path.join(outdir, "inner_product.mtx"), X)
        manifest["inner_product"] = "inner_product.mtx"
    path = os.path.join(outdir, "manifest.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    return path
