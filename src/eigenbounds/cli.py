"""Command-line interface: run, compare, gen.

Failures exit nonzero and print a single machine-readable JSON object to
stderr; exit code 2 marks configuration/manifest errors, 1 anything else.
A JSON config file passed with --config overrides the command-line flags.
"""

from __future__ import annotations

import argparse
import json
import sys
import typing

from .driver import (CompareError, RunConfig, compare_runs,
                     generate_problem_files, load_problem, run_pipeline)
from .hermitian import ArgumentError
from .problems import ManifestError

__all__ = ["main"]

USAGE_ERRORS = (ManifestError, ArgumentError, CompareError, ValueError)


def _error_json(exc, field=None):
    payload = {"error": type(exc).__name__, "message": str(exc)}
    if field is not None:
        payload["field"] = field
    elif isinstance(exc, ManifestError):
        payload["field"] = exc.field
    print(json.dumps(payload), file=sys.stderr)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="eigenbounds",
        description="Certified bounds for parametric smallest eigenvalues "
                    "(SCM and subspace-accelerated SCM).")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a pipeline and write artifacts")
    src = run.add_mutually_exclusive_group(required=True)
    src.add_argument("--manifest", help="path to a problem manifest JSON")
    src.add_argument("--generator",
                     help="generator spec as JSON text or @file")
    run.add_argument("--out", required=True, help="output directory")
    run.add_argument("--config", help="JSON config file; overrides flags")
    run.add_argument("--pipeline", default="subspace",
                     choices=["scm", "subspace", "subspace-heuristic"])
    run.add_argument("--eps", type=float, default=1e-4)
    run.add_argument("--j-max", type=int, default=200)
    run.add_argument("--train-size", type=int, default=1000)
    run.add_argument("--train-seed", type=int, default=0)
    run.add_argument("--ell", type=int, default=1)
    run.add_argument("--r-max", type=int, default=None)
    run.add_argument("--lp-tol", type=float, default=1e-8)
    run.add_argument("--no-warm-start", action="store_true")
    run.add_argument("--oracle", action="store_true",
                     help="dense cross-validation columns (n <= oracle cap)")
    run.add_argument("--oracle-cap", type=int, default=800)
    run.add_argument("--seed", type=int, default=0,
                     help="seed of the eigensolver starting vector")

    cmp_ = sub.add_parser("compare", help="diff two run directories")
    cmp_.add_argument("run_a")
    cmp_.add_argument("run_b")
    cmp_.add_argument("--out", help="write the per-iteration table as CSV")

    gen = sub.add_parser("gen", help="emit a generator's matrices + manifest")
    gen.add_argument("--kind", required=True,
                     choices=["unit-circle", "random", "one-param", "blocks"])
    gen.add_argument("--out", required=True)
    gen.add_argument("--pipeline", default="eig",
                     choices=["eig", "coercivity", "singular"])
    gen.add_argument("--spec", default=None,
                     help="generator parameters as JSON text or @file")
    return parser


def _load_json_arg(text):
    if text.startswith("@"):
        with open(text[1:], "r", encoding="utf-8") as fh:
            return json.load(fh)
    return json.loads(text)


def _fits(value, hint):
    """Whether a JSON value fits a RunConfig annotation: only a bool fits
    bool, and an int also fits float."""
    if typing.get_args(hint):       # a union such as int | None
        return any(_fits(value, h) for h in typing.get_args(hint))
    return (isinstance(value, (int, float) if hint is float else hint)
            and isinstance(value, bool) == (hint is bool))


def _config_from_args(args):
    config = RunConfig(
        pipeline=args.pipeline, eps=args.eps, j_max=args.j_max,
        n_train=args.train_size, train_seed=args.train_seed, ell=args.ell,
        r_max=args.r_max, lp_tol=args.lp_tol,
        warm_start=not args.no_warm_start, oracle=args.oracle,
        oracle_cap=args.oracle_cap, seed=args.seed)
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            overrides = json.load(fh)
        hints = typing.get_type_hints(RunConfig)
        for key, value in overrides.items():
            if key not in hints:
                raise ManifestError(key, "unknown config field")
            if not _fits(value, hints[key]):
                raise ManifestError(key, f"wrong type: {value!r}")
            setattr(config, key, float(value) if hints[key] is float
                    else value)
    return config.validate()


def _cmd_run(args):
    config = _config_from_args(args)
    generator = _load_json_arg(args.generator) if args.generator else None
    family, meta = load_problem(manifest=args.manifest, generator=generator)
    summary = run_pipeline(config, family, args.out, problem_meta=meta)
    term = summary["termination"]
    print(f"{config.pipeline}: {term['iterations']} iterations, "
          f"converged={term['converged']}, "
          f"final max ratio {summary['final_max_ratio']:.6e}")
    print(f"artifacts in {args.out}: convergence.csv bounds.csv summary.json")
    return 0


def _cmd_compare(args):
    lines, rows = compare_runs(args.run_a, args.run_b)
    for line in lines:
        print(line)
    header = "iter,max_ratio_a,max_ratio_b"
    csv_lines = [header]
    for it, ra, rb in rows:
        fa = "" if ra is None else repr(ra)
        fb = "" if rb is None else repr(rb)
        csv_lines.append(f"{it},{fa},{fb}")
    text = "\n".join(csv_lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text, end="")
    return 0


def _cmd_gen(args):
    spec = _load_json_arg(args.spec) if args.spec else {}
    path = generate_problem_files(args.kind, args.out, spec=spec,
                                  pipeline=args.pipeline)
    print(f"wrote {path}")
    return 0


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {"run": _cmd_run, "compare": _cmd_compare, "gen": _cmd_gen}
    try:
        return handlers[args.command](args)
    except USAGE_ERRORS as exc:
        _error_json(exc)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        _error_json(exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
