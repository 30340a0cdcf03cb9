"""Command-line front end.

Subcommands: generate-narma, experiment, sweep, solve-randnn. Results go
to CSV files in the current directory; stdout carries one machine-
parseable line per result row and diagnostics go to stderr with a
nonzero exit code.
"""

import argparse
import dataclasses
import os
import sys

from .data import generate_narma10, save_series_csv
from .harness import (ExperimentConfig, reservoir_size_sweep, run_experiment,
                      sweep_csv, write_experiment_outputs)
from .numerics import seeded_rng
from .randnn import load_spec, solve_steady_state


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _size_list(text):
    try:
        sizes = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"malformed size list {text!r}") from None
    if not sizes or any(s < 1 for s in sizes):
        raise argparse.ArgumentTypeError(f"malformed size list {text!r}")
    return sizes


def build_parser():
    parser = argparse.ArgumentParser(
        prog="reservoirq",
        description="Reservoir-computing forecasting benchmarks (ESN and ESQN).")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate-narma",
                         help="generate a NARMA-10 input/target series pair")
    gen.add_argument("--n", type=_positive_int, required=True,
                     help="number of (input, target) pairs")
    gen.add_argument("--seed", type=int, default=0, help="generator seed")
    gen.add_argument("--out", required=True,
                     help="output prefix; writes <out>_inputs.csv and <out>_targets.csv")

    exp = sub.add_parser("experiment", help="run a configured experiment")
    exp.add_argument("--config", required=True, help="key=value config file")
    exp.add_argument("--seed", type=int, default=None,
                     help="override the config's master seed")

    swp = sub.add_parser("sweep", help="repeat an experiment over reservoir sizes")
    swp.add_argument("--config", required=True, help="key=value config file")
    swp.add_argument("--sizes", type=_size_list, required=True,
                     help="comma-separated reservoir sizes, e.g. 10,40,80")
    swp.add_argument("--seed", type=int, default=None,
                     help="override the config's master seed")

    slv = sub.add_parser("solve-randnn",
                         help="solve a random-neural-network spec file for its loads")
    slv.add_argument("--spec", required=True, help="plain-text spec file")
    return parser


def _load_config(args):
    config = ExperimentConfig.from_file(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    return config


def _summary_line(summary):
    if summary.ci_halfwidth is None:
        return f"{summary.series} {summary.model} {summary.mean_nmse:.4f}"
    return (f"{summary.series} {summary.model} {summary.mean_nmse:.4f} "
            f"±{summary.ci_halfwidth:.4f}")


def cmd_generate_narma(args):
    inputs, targets = generate_narma10(args.n, seeded_rng(args.seed))
    save_series_csv(f"{args.out}_inputs.csv", inputs)
    save_series_csv(f"{args.out}_targets.csv", targets)
    return 0


def cmd_experiment(args):
    outcome = run_experiment(_load_config(args))
    write_experiment_outputs(outcome, os.getcwd())
    print(_summary_line(outcome.summary))
    return 0


def cmd_sweep(args):
    outcomes = reservoir_size_sweep(_load_config(args), args.sizes)
    with open(os.path.join(os.getcwd(), "sweep.csv"), "w") as fh:
        fh.write(sweep_csv(outcomes))
    for size, outcome in outcomes:
        print(f"{size} {_summary_line(outcome.summary)}")
    return 0


def cmd_solve_randnn(args):
    spec = load_spec(args.spec)
    solution = solve_steady_state(spec)
    for load in solution.rho:
        print(repr(float(load)))
    print("stable", "true" if solution.stable else "false")
    return 0


_COMMANDS = {
    "generate-narma": cmd_generate_narma,
    "experiment": cmd_experiment,
    "sweep": cmd_sweep,
    "solve-randnn": cmd_solve_randnn,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, RuntimeError, OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
