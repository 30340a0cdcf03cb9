"""Command-line front end.

Subcommands: generate-narma, experiment, sweep, solve-randnn. Results go
to CSV files in the current directory; stdout carries one machine-
parseable line per result row. The command line only parses: argparse
exits 2 on text that does not parse, and the library judges every value,
so a failing command, an out-of-range number included, prints one
``error:`` line to stderr and exits 1. solve-randnn also reports its
iteration count and residual on stderr.
"""

import argparse
import dataclasses
import sys
from pathlib import Path

from .data import generate_narma10
from .harness import ExperimentConfig, reservoir_size_sweep, run_experiment
from .metrics import results_csv, series_csv, summary_csv, sweep_csv, trace_csv
from .numerics import seeded_rng
from .randnn import load_spec, residual, solve_steady_state


def _size_list(text):
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"malformed size list {text!r}") from None


def build_parser():
    parser = argparse.ArgumentParser(
        prog="reservoirq",
        description="Reservoir-computing forecasting benchmarks (ESN and ESQN).")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate-narma",
                         help="generate a NARMA-10 input/target series pair")
    gen.add_argument("--n", type=int, required=True, help="number of (input, target) pairs")
    gen.add_argument("--seed", type=int, default=0, help="generator seed")
    gen.add_argument("--out", required=True,
                     help="output prefix; writes <out>_inputs.csv and <out>_targets.csv")
    gen.set_defaults(run=cmd_generate_narma)

    exp = sub.add_parser("experiment", help="run a configured experiment")
    exp.add_argument("--config", required=True, help="key=value config file")
    exp.add_argument("--seed", type=int, default=None,
                     help="override the config's master seed")
    exp.set_defaults(run=cmd_experiment)

    swp = sub.add_parser("sweep", help="repeat an experiment over reservoir sizes")
    swp.add_argument("--config", required=True, help="key=value config file")
    swp.add_argument("--sizes", type=_size_list, required=True,
                     help="comma-separated reservoir sizes, e.g. 10,40,80")
    swp.add_argument("--seed", type=int, default=None,
                     help="override the config's master seed")
    swp.set_defaults(run=cmd_sweep)

    slv = sub.add_parser("solve-randnn",
                         help="solve a random-neural-network spec file for its loads")
    slv.add_argument("--spec", required=True, help="plain-text spec file")
    slv.set_defaults(run=cmd_solve_randnn)
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
    Path(f"{args.out}_inputs.csv").write_text(series_csv(inputs))
    Path(f"{args.out}_targets.csv").write_text(series_csv(targets))
    return 0


def cmd_experiment(args):
    outcome = run_experiment(_load_config(args))
    Path("results.csv").write_text(results_csv(outcome.results))
    Path("summary.csv").write_text(summary_csv([outcome.summary]))
    Path("trace.csv").write_text(trace_csv(outcome.trace))
    print(_summary_line(outcome.summary))
    return 0


def cmd_sweep(args):
    sized = [(size, outcome.summary) for size, outcome in
             reservoir_size_sweep(_load_config(args), args.sizes)]
    Path("sweep.csv").write_text(sweep_csv(sized))
    for size, summary in sized:
        print(f"{size} {_summary_line(summary)}")
    return 0


def cmd_solve_randnn(args):
    spec = load_spec(args.spec)
    solution = solve_steady_state(spec)
    for load in solution.rho:
        print(repr(float(load)))
    print("stable", "true" if solution.stable else "false")
    print(f"iterations {solution.iterations}", file=sys.stderr)
    print(f"residual {residual(spec, solution.rho)!r}", file=sys.stderr)
    return 0


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except (ValueError, RuntimeError, OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
