"""Command-line interface: run, compare, gen.

Failures exit nonzero and print a single machine-readable JSON object to
stderr.  Exit code 2 marks refused input, flags included: a command line
argparse refuses, an unreadable or malformed file or JSON argument, each
named in the message, and an invalid field or setting, which a
ManifestError names as its ``field``; 1 marks anything else.  A JSON
config file passed with --config overrides the command-line flags.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, fields

from .driver import (ORACLE_CAP, PIPELINES, RunConfig, compare_runs,
                     load_problem, run_pipeline, write_csv)
from .hermitian import ArgumentError
from .problems import (GENERATORS, PIPELINES as PROBLEM_PIPELINES,
                       ManifestError, read_input, write_problem_files)

__all__ = ["main"]


def _error_json(exc):
    payload = {"error": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, ManifestError):
        payload["field"] = exc.field
    print(json.dumps(payload), file=sys.stderr)


class _Parser(argparse.ArgumentParser):
    """An argument parser that raises its refusals instead of exiting."""

    def error(self, message):
        raise ArgumentError(message)


def _build_parser():
    parser = _Parser(
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
    # every RunConfig field takes its default from RunConfig itself
    run.set_defaults(**asdict(RunConfig()))
    run.add_argument("--pipeline", choices=PIPELINES)
    run.add_argument("--eps", type=float)
    run.add_argument("--j-max", type=int)
    run.add_argument("--train-size", dest="n_train", type=int)
    run.add_argument("--train-seed", type=int)
    run.add_argument("--ell", type=int)
    run.add_argument("--r-max", type=int)
    run.add_argument("--oracle", action="store_true",
                     help="dense cross-validation columns "
                          f"(n <= {ORACLE_CAP})")
    run.add_argument("--seed", type=int,
                     help="seed of the eigensolver starting vector")

    cmp_ = sub.add_parser("compare", help="diff two run directories")
    cmp_.add_argument("run_a")
    cmp_.add_argument("run_b")
    cmp_.add_argument("--out", help="write the per-iteration table as CSV")

    gen = sub.add_parser("gen", help="emit a generator's matrices + manifest")
    gen.add_argument("--kind", required=True, choices=sorted(GENERATORS))
    gen.add_argument("--out", required=True)
    gen.add_argument("--pipeline", default="eig", choices=PROBLEM_PIPELINES)
    gen.add_argument("--spec", default=None,
                     help="generator parameters as JSON text or @file")
    return parser


def _config_from_args(args):
    settings = {f.name: getattr(args, f.name) for f in fields(RunConfig)}
    if args.config:
        overrides = read_input(args.config)
        unknown = [key for key in overrides if key not in settings]
        if unknown:
            raise ManifestError(unknown[0], "unknown config field")
        settings.update(overrides)
    return RunConfig(**settings)


def _cmd_run(args):
    config = _config_from_args(args)
    generator = (read_input("--generator", text=args.generator)
                 if args.generator else None)
    family, meta = load_problem(manifest=args.manifest, generator=generator)
    summary = run_pipeline(config, family, args.out, problem_meta=meta)
    term = summary["termination"]
    print(f"{config.pipeline}: {term['iterations']} iterations, "
          f"converged={term['converged']}, "
          f"final max ratio {summary['final_max_ratio']:.6e}")
    print(f"artifacts in {args.out}: convergence.csv bounds.csv summary.json")
    return 0


def _cmd_compare(args):
    lines, columns = compare_runs(args.run_a, args.run_b)
    for line in lines:
        print(line)
    header = ["iter", "max_ratio_a", "max_ratio_b"]
    if args.out:
        with open(args.out, "w", newline="", encoding="utf-8") as fh:
            write_csv(fh, header, columns)
    else:
        write_csv(sys.stdout, header, columns)
    return 0


def _cmd_gen(args):
    spec = read_input("--spec", text=args.spec) if args.spec else {}
    path = write_problem_files(args.kind, args.out, spec=spec,
                               pipeline=args.pipeline)
    print(f"wrote {path}")
    return 0


def main(argv=None):
    handlers = {"run": _cmd_run, "compare": _cmd_compare, "gen": _cmd_gen}
    try:
        args = _build_parser().parse_args(argv)
        return handlers[args.command](args)
    except ValueError as exc:   # every refusal of input is a ValueError
        _error_json(exc)
        return 2
    except Exception as exc:    # an internal failure, not refused input
        _error_json(exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
