"""The golden fixtures: CLI invocations whose outputs are pinned.

A golden fixture's outputs, its saved stdout included, are compared with
the committed copies under fixtures/goldens: equal line counts, equal
token counts per line (commas count as spaces), words equal, and numbers
within the fixture's tolerance, relative above magnitude 1; a missing
golden fails. A rerun fixture runs its command twice in fresh directories
and requires identical bytes, which pins determinism without committing
platform-tied floats. tests/test_fixtures.py checks both kinds, and
scripts/make_fixtures.py rewrites the goldens from the same table (it
reads the configs and never writes them), so this module imports no
pytest. The goldens do not regenerate byte for byte: the sine,esqn NMSE
is ridge rounding on a near-perfect fit.
"""

import contextlib
import io
import os

from reservoirq import cli

FIXTURES = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "fixtures")
GOLDENS = os.path.join(FIXTURES, "goldens")
CONFIGS = os.path.join(FIXTURES, "configs")

# name: (argv, files the command writes, file its stdout is saved to, tolerance)
GOLDEN = {
    "narma-generation": (("generate-narma", "--n", "50", "--seed", "7", "--out", "narma50"),
                         ("narma50_inputs.csv", "narma50_targets.csv"), None, 1e-12),
    "randnn-chain": (("solve-randnn", "--spec", os.path.join(FIXTURES, "randnn_chain.txt")),
                     (), "randnn_chain_loads.txt", 1e-9),
    "randnn-pair": (("solve-randnn", "--spec", os.path.join(FIXTURES, "randnn_pair.txt")),
                    (), "randnn_pair_loads.txt", 1e-9),
    "sine-linear-pipeline": (("experiment", "--config",
                              os.path.join(CONFIGS, "sine_perfect.cfg")),
                             ("summary.csv",), None, 1e-6),
}

# name: (argv, files the command writes)
RERUN = {
    "narma-determinism": (("generate-narma", "--n", "200", "--seed", "123", "--out", "det"),
                          ("det_inputs.csv", "det_targets.csv")),
    "experiment-determinism": (("experiment", "--config",
                                os.path.join(CONFIGS, "narma_tiny.cfg")),
                               ("results.csv", "summary.csv", "trace.csv")),
}


def run_cli(argv, workdir, stdout_name=None):
    """Run the CLI in this process with ``workdir`` as the working
    directory, saving its stdout there as ``stdout_name`` if one is given.
    Raises RuntimeError if the command exits non-zero."""
    old_cwd = os.getcwd()
    buffer = io.StringIO()
    try:
        os.chdir(workdir)
        with contextlib.redirect_stdout(buffer):
            code = cli.main(list(argv))
    finally:
        os.chdir(old_cwd)
    if code != 0:
        raise RuntimeError(f"{' '.join(argv)} exited with code {code}")
    if stdout_name:
        with open(os.path.join(workdir, stdout_name), "w") as fh:
            fh.write(buffer.getvalue())
