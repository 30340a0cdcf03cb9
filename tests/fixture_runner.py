"""The golden fixtures: CLI invocations whose outputs are pinned.

A golden fixture's outputs are compared with the committed copies under
fixtures/goldens: equal line counts, equal token counts per line (commas
count as spaces), words equal, and numbers within the fixture's
tolerance, relative above magnitude 1; a missing golden fails. A rerun
fixture runs its command twice in fresh directories and requires
identical bytes, which pins determinism without committing platform-tied
floats. tests/test_fixtures.py checks both kinds, and
scripts/make_fixtures.py rewrites the goldens from the same table (it
reads the configs and never writes them), so this module imports no
pytest. The sine,esqn NMSE is ridge rounding on a near-perfect fit, so
any reassociation of the float operations moves its last digits.
"""

import os

from reservoirq import cli

FIXTURES = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "fixtures")
GOLDENS = os.path.join(FIXTURES, "goldens")
CONFIGS = os.path.join(FIXTURES, "configs")

# name: (argv, files the command writes, tolerance)
GOLDEN = {
    "sine-linear-pipeline": (("experiment", "--config",
                              os.path.join(CONFIGS, "sine_perfect.cfg")),
                             ("summary.csv",), 1e-6),
}

# name: (argv, files the command writes)
RERUN = {
    "experiment-determinism": (("experiment", "--config",
                                os.path.join(CONFIGS, "narma_tiny.cfg")),
                               ("results.csv", "summary.csv", "trace.csv")),
}


def run_cli(argv, workdir):
    """Run the CLI in this process with ``workdir`` as the working
    directory. Raises RuntimeError if the command exits non-zero."""
    old_cwd = os.getcwd()
    try:
        os.chdir(workdir)
        code = cli.main(list(argv))
    finally:
        os.chdir(old_cwd)
    if code != 0:
        raise RuntimeError(f"{' '.join(argv)} exited with code {code}")
