"""Command-line front end.

Subcommands: experiment and sweep. Each runs one config file, which
alone describes the run (sweep adds only the reservoir sizes). Results
go to CSV files in the current directory; stdout carries one
machine-parseable line per result row. The command line only parses:
argparse exits 2 on text that does not parse, and the library judges
every value, so a failing command, an out-of-range size included, prints
one ``error:`` line to stderr and exits 1.
"""

import argparse
import sys
from pathlib import Path

from .harness import ExperimentConfig, reservoir_size_sweep, run_experiment
from .metrics import results_csv, summary_csv, sweep_csv, trace_csv


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

    exp = sub.add_parser("experiment", help="run a configured experiment")
    exp.add_argument("--config", required=True, help="key=value config file")
    exp.set_defaults(run=cmd_experiment)

    swp = sub.add_parser("sweep", help="repeat an experiment over reservoir sizes")
    swp.add_argument("--config", required=True, help="key=value config file")
    swp.add_argument("--sizes", type=_size_list, required=True,
                     help="comma-separated reservoir sizes, e.g. 10,40,80")
    swp.set_defaults(run=cmd_sweep)
    return parser


def _summary_line(summary):
    if summary.ci_halfwidth is None:
        return f"{summary.series} {summary.model} {summary.mean_nmse:.4f}"
    return (f"{summary.series} {summary.model} {summary.mean_nmse:.4f} "
            f"±{summary.ci_halfwidth:.4f}")


def cmd_experiment(args):
    outcome = run_experiment(ExperimentConfig.from_file(args.config))
    Path("results.csv").write_text(results_csv(outcome.results))
    Path("summary.csv").write_text(summary_csv([outcome.summary]))
    Path("trace.csv").write_text(trace_csv(outcome.trace))
    print(_summary_line(outcome.summary))
    return 0


def cmd_sweep(args):
    config = ExperimentConfig.from_file(args.config)
    sized = [(size, outcome.summary)
             for size, outcome in reservoir_size_sweep(config, args.sizes)]
    Path("sweep.csv").write_text(sweep_csv(sized))
    for size, summary in sized:
        print(f"{size} {_summary_line(summary)}")
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
