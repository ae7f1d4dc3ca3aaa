"""eigenbounds benchmark: one workload per call, or all of them.

    python3 bench/run.py --workload desk-scm --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 1

Run from the repository root.  The package is imported from ``src/`` next
to this directory; results, spans and scratch files go to ``bench/out/``.
Every metric is printed as ``name = value unit``; the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics`` (the gated end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``).  The exit
code is 0 when every checked bound holds and every repeat is
bit-identical, 1 when not, and 2 when the package cannot be imported.
README.md describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")
# One BLAS thread (nproc is 2 on the reference machine): with the machine
# shared, a single thread gives the steadiest timings, and the package's
# hot paths are small matrices where a second thread gains little.
BLAS_THREADS = 1
# The workloads of BENCHMARK.json, in the order ``--workload all`` runs them.
MAIN_WORKLOADS = ("desk-subspace", "desk-scm", "blocks-subspace",
                  "grid-coercivity")


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _import_package():
    """Import eigenbounds from this checkout's src/, or explain why not."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import eigenbounds
    except ImportError as exc:
        return f"cannot import eigenbounds from {src}: {exc}"
    if not os.path.abspath(eigenbounds.__file__).startswith(src + os.sep):
        return (f"eigenbounds was imported from {eigenbounds.__file__}, "
                f"not from {src}")
    return None


def _print_result(record):
    for key, metric in record["metrics"].items():
        print(f"{key} = {metric['value']} {metric['unit']}")
    for key, metric in (record["layers"] or {}).items():
        print(f"{key} = {metric['value']} {metric['unit']}")
    check = record["correctness"]
    print(f"correctness: {check['failed']} of {check['attempted']} checks "
          f"failed, worst excess {check['worst_excess_over_allowance']} "
          "x allowance")
    for err in check["errors"]:
        print(err, file=sys.stderr)


def _summary_line(record, gated):
    check = record["correctness"]
    if record["trace"]:
        metrics = record["layers"] or {}
    else:
        metrics = {k: record["metrics"][k] for k in gated}
    return {"correct": check["failed"] == 0, "attempted": check["attempted"],
            "failed": check["failed"], "metrics": metrics}


def run_one(args):
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    problem = _import_package()
    if problem:
        print(problem, file=sys.stderr)
        return 2
    import measure
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: "
              f"{', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    record = measure.run_workload(args.workload, args.seed, args.seconds,
                                  bool(args.trace), OUT_DIR, BLAS_THREADS)
    path = os.path.join(OUT_DIR, args.workload,
                        f"result-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    _print_result(record)
    line = _summary_line(record, measure.GATED)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def run_all(args):
    """Each workload in a fresh process, so peak memory is per workload."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for name in MAIN_WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              check=False)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(f"{name}: {line}")
        worst = max(worst, proc.returncode)
        if proc.returncode == 2 or not lines:
            return 2
        part = json.loads(lines[-1])
        total["correct"] &= part["correct"]
        total["attempted"] += part["attempted"]
        total["failed"] += part["failed"]
        for key, metric in part["metrics"].items():
            total["metrics"][f"{name}:{key}"] = metric
    print(json.dumps(total))
    return worst


def main(argv=None):
    args = _parse(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
