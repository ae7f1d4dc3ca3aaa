"""Batch orchestration: load or generate a problem, run a pipeline, write
plot-ready artifacts (convergence CSV, per-parameter bound table, summary
JSON) with full reproducibility of seeds and configuration.
"""

from __future__ import annotations

import csv
import json
import os
import time
from dataclasses import asdict, dataclass

import numpy as np
import scipy.linalg

from .expressions import EvaluationError
from .family import random_training_set
from .hermitian import ArgumentError
from .problems import (ManifestError, generate_family, load_family,
                       read_input, require)
from .scm import scm_greedy
from .subspace import subspace_greedy

__all__ = [
    "CSV_SCHEMA_VERSION",
    "RunConfig",
    "CompareError",
    "load_problem",
    "run_pipeline",
    "compare_runs",
    "write_csv",
]

CSV_SCHEMA_VERSION = 3
PIPELINES = ("scm", "subspace", "subspace-heuristic")
ORACLE_CAP = 800    # largest n that an oracle run solves densely

# convergence.csv after iter and mu_*: (column, GreedyRecord attribute)
CONVERGENCE_COLUMNS = (
    ("max_error_ratio", "max_ratio"), ("max_abs_ub_error", "max_abs_ub_error"),
    ("max_abs_lb_error", "max_abs_lb_error"),
    ("heuristic_valid", "heuristic_valid"),
    ("wall_seconds_cumulative", "wall_seconds"), ("eig_seconds", "eig_seconds"),
    ("lp_seconds", "lp_seconds"), ("reduced_seconds", "reduced_seconds"),
    ("lp_count", "lp_count"), ("eig_count", "eig_count"),
)
# bounds.csv after mu_*: (column, GreedyResult.tables key); a key the run's
# tables lack gives an empty column
BOUND_COLUMNS = (
    ("lam_lb", "lam_lb"), ("lam_slb", "lam_slb"), ("lam_sub", "lam_sub"),
    ("lam_ub", "lam_ub"), ("heuristic", "heuristic"), ("residual", "residual"),
    ("chosen_r", "chosen_r"), ("error_ratio", "ratio"),
    ("oracle_lambda_min", "oracle"), ("ratio_fallback", "ratio_fallback"),
)
# summary.json "counts": (key, GreedyRecord attribute of the last record)
SUMMARY_COUNTS = (
    ("lp", "lp_count"), ("eig", "eig_count"),
    ("shift_fallbacks", "shift_fallbacks"),
    ("loose_estimates", "loose_estimates"), ("lp_pivots", "lp_pivots"),
    ("lp_degenerate", "lp_degenerate"), ("sparse_factors", "sparse_factors"),
    ("sparse_orderings", "sparse_orderings"),
)


@dataclass(frozen=True)
class RunConfig:
    """Run settings; defaults follow the standard experimental protocol.
    A config is checked when it is made, each field by the rule of
    manifest fields (:func:`~eigenbounds.problems.require`)."""

    pipeline: str = "subspace"
    eps: float = 1e-4
    j_max: int = 200
    n_train: int = 1000
    train_seed: int = 0
    ell: int = 1
    r_max: int | None = None      # defaults to the family's term count
    oracle: bool = False
    seed: int = 0
    workers: int = 1              # runs are single-threaded; only 1 is valid

    def __post_init__(self):
        for name, kind, rule in (
                ("pipeline", str, {"choices": PIPELINES}),
                ("eps", float, {"positive": True}),
                ("j_max", int, {"least": 1}), ("n_train", int, {"least": 1}),
                ("train_seed", int, {"least": 0}), ("ell", int, {"least": 1}),
                ("r_max", int, {"least": 0, "nullable": True}),
                ("oracle", bool, {}), ("seed", int, {"least": 0}),
                ("workers", int, {"choices": (1,)})):
            object.__setattr__(self, name,
                               require(vars(self), name, kind, **rule))


def load_problem(manifest=None, generator=None):
    """Problem from a manifest path or a generator spec dict (exactly one)."""
    if (manifest is None) == (generator is None):
        raise ArgumentError("provide exactly one of manifest or generator")
    if manifest is not None:
        family, meta = load_family(manifest)
        return family, {"source": "manifest", **meta}
    return generate_family(generator), {"source": "generator",
                                        "generator": dict(generator)}


def _oracle_values(family, points):
    # full dense decompositions, independent of the partial solvers the
    # pipelines sample with; a pencil's keeps its vectors, as eigvals_only
    # takes another tridiagonal solver and moves the last bits
    mats = (family.assemble_dense(mu) for mu in points)
    if family.inner_product is None:
        return np.array([np.linalg.eigvalsh(A)[0] for A in mats])
    X = family.inner_product.matrix.dense()
    return np.array([scipy.linalg.eigh(A, X)[0][0] for A in mats])


def write_csv(fh, header, columns):
    """Write ``header`` and the rows of ``columns``, one list of Python
    scalars per header name, to ``fh``: a bool as 1 or 0, None as an empty
    cell and a float by its repr."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([int(v) if isinstance(v, bool) else v for v in row]
                     for row in zip(*columns))


def heuristic_first_valid(records):
    """First iteration from which the heuristic stays a true lower bound."""
    first = None
    for rec in records:
        if rec.heuristic_valid is None:
            return None
        first = (first or rec.iteration) if rec.heuristic_valid else None
    return first


def run_pipeline(config, family, outdir, problem_meta=None):
    """Run the configured pipeline and write artifacts into ``outdir``.

    After the run, makes ``outdir`` and writes convergence.csv (a row per
    iteration), bounds.csv (final per-training-point bounds) and summary.json;
    returns the summary dict.  A compiled theta that fails at a training
    point, which its load-time probe missed, is refused as a ManifestError.
    """
    t0 = time.perf_counter()
    train = random_training_set(family.domain, config.n_train,
                                config.train_seed)
    oracle_active = bool(config.oracle) and family.n <= ORACLE_CAP
    try:
        oracle = (_oracle_values(family, train.points) if oracle_active
                  else None)
        if config.pipeline == "scm":
            result = scm_greedy(family, train, eps=config.eps,
                                j_max=config.j_max, oracle=oracle,
                                seed=config.seed)
        else:
            result = subspace_greedy(
                family, train, eps=config.eps, j_max=config.j_max,
                ell=config.ell, r_max=config.r_max,
                mode=("heuristic" if config.pipeline == "subspace-heuristic"
                      else "certified"),
                oracle=oracle, seed=config.seed)
    except EvaluationError as exc:
        raise ManifestError("theta", str(exc)) from exc

    os.makedirs(outdir, exist_ok=True)
    mu_cols = [f"mu_{k + 1}" for k in range(family.p)]
    recs, tabs = result.records, result.tables
    mus = np.reshape([rec.selected_mu for rec in recs], (len(recs), family.p))
    with open(os.path.join(outdir, "convergence.csv"), "w", newline="",
              encoding="utf-8") as fh:
        write_csv(fh, ["iter", *mu_cols, *(c for c, _ in CONVERGENCE_COLUMNS)],
                  [[rec.iteration for rec in recs], *mus.T.tolist(),
                   *([getattr(rec, attr) for rec in recs]
                     for _, attr in CONVERGENCE_COLUMNS)])
    with open(os.path.join(outdir, "bounds.csv"), "w", newline="",
              encoding="utf-8") as fh:
        write_csv(fh, [*mu_cols, *(c for c, _ in BOUND_COLUMNS)],
                  [*train.points.T.tolist(),
                   *(tabs[key].tolist() if key in tabs else [None] * len(train)
                     for _, key in BOUND_COLUMNS)])

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
        "counts": {key: getattr(result.records[-1], attr)
                   if result.records else 0
                   for key, attr in SUMMARY_COUNTS},
        "final_max_ratio": result.records[-1].max_ratio
            if result.records else None,
        "oracle_active": oracle_active,
        "heuristic_first_valid_iteration": heuristic_first_valid(result.records),
        "box_seconds": result.model.box_seconds,
        "wall_seconds": time.perf_counter() - t0,
    }
    with open(os.path.join(outdir, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return summary


class CompareError(ValueError):
    """Incompatible run directories (different training sets or problems)."""


def _load_run(path):
    # what compare_runs reads, refused as a CompareError naming its file
    summary_path, curve_path = (os.path.join(path, name) for name in
                                ("summary.json", "convergence.csv"))
    try:
        summary = read_input(summary_path)
        reader = csv.DictReader(read_input(curve_path,
                                           as_json=False).splitlines())
    except ManifestError as exc:
        raise CompareError(exc.reason) from exc
    for key, kind in (("seeds.train_seed", int), ("training_size", int),
                      ("problem.domain", list), ("config.pipeline", str),
                      ("termination.iterations", int),
                      ("final_max_ratio", float)):
        section, _, name = key.rpartition(".")
        try:
            require(require(summary, section, dict) if section else summary,
                    name, kind)
        except ManifestError as exc:
            raise CompareError(f"{summary_path}: missing or mistyped "
                               f"'{key}': {exc.reason}") from exc
    if "max_error_ratio" not in (reader.fieldnames or ()):
        raise CompareError(f"{curve_path} has no max_error_ratio column")
    try:
        return summary, [float(row["max_error_ratio"]) for row in reader]
    except (TypeError, ValueError) as exc:
        raise CompareError(f"{curve_path}: a max_error_ratio cell is not a "
                           f"number: {exc}") from exc


def compare_runs(dir_a, dir_b):
    """Diff two run directories' convergence curves.

    Refuses runs with different training seeds/sizes or domains.  Returns
    (text_lines, columns): the columns iter, ratio_a and ratio_b, with None
    where only the other run reached the iteration.
    """
    sum_a, ratios_a = _load_run(dir_a)
    sum_b, ratios_b = _load_run(dir_b)
    seed_a, seed_b = sum_a["seeds"]["train_seed"], sum_b["seeds"]["train_seed"]
    if seed_a != seed_b:
        raise CompareError(f"training seeds differ ({seed_a} vs {seed_b}); "
                           "curves are not comparable")
    if sum_a["training_size"] != sum_b["training_size"]:
        raise CompareError("training set sizes differ")
    if sum_a["problem"]["domain"] != sum_b["problem"]["domain"]:
        raise CompareError("parameter domains differ")

    length = max(len(ratios_a), len(ratios_b))
    columns = [list(range(1, length + 1)),
               ratios_a + [None] * (length - len(ratios_a)),
               ratios_b + [None] * (length - len(ratios_b))]

    lines = [f"run {label}: {summ['config']['pipeline']}, "
             f"{summ['termination']['iterations']} iterations, "
             f"final ratio {summ['final_max_ratio']:.6e}"
             for label, summ in (("A", sum_a), ("B", sum_b))]
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
    return lines, columns

