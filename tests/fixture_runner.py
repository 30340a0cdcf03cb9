"""Golden-file fixtures exercised through the CLI alone.

Each fixture is a CLI invocation plus expected output files. Numeric
outputs are compared token by token within the fixture's tolerance; a
tolerance of zero demands byte equality. Rerun fixtures invoke the same
command twice in separate directories and require identical bytes, which
pins determinism without committing platform-tied floats.
"""

import os
import tempfile
from dataclasses import dataclass, field

from reservoirq import cli


@dataclass(frozen=True)
class Fixture:
    name: str
    argv: tuple
    outputs: tuple            # filenames the command writes (or stdout: see below)
    tolerance: float = 0.0
    rerun: bool = False       # run twice, compare run-to-run instead of to goldens
    golden_dir: str = ""      # directory holding expected copies of ``outputs``
    capture_stdout: str = ""  # if set, stdout is saved under this filename too


@dataclass
class FixtureReport:
    passed: list = field(default_factory=list)
    failed: list = field(default_factory=list)  # (name, message) pairs

    @property
    def ok(self):
        return not self.failed

    def __str__(self):
        lines = [f"PASS {name}" for name in self.passed]
        lines += [f"FAIL {name}: {msg}" for name, msg in self.failed]
        lines.append(f"{len(self.passed)} passed, {len(self.failed)} failed")
        return "\n".join(lines)


def default_fixtures(fixture_root):
    """The shipped fixture set, rooted at the repository fixtures/ directory."""
    root = os.path.abspath(fixture_root)
    goldens = os.path.join(root, "goldens")
    configs = os.path.join(root, "configs")
    return [
        Fixture(name="narma-generation",
                argv=("generate-narma", "--n", "50", "--seed", "7", "--out", "narma50"),
                outputs=("narma50_inputs.csv", "narma50_targets.csv"),
                tolerance=1e-12, golden_dir=goldens),
        Fixture(name="narma-determinism",
                argv=("generate-narma", "--n", "200", "--seed", "123", "--out", "det"),
                outputs=("det_inputs.csv", "det_targets.csv"),
                rerun=True),
        Fixture(name="randnn-chain",
                argv=("solve-randnn", "--spec", os.path.join(root, "randnn_chain.txt")),
                outputs=(), capture_stdout="randnn_chain_loads.txt",
                tolerance=1e-9, golden_dir=goldens),
        Fixture(name="randnn-pair",
                argv=("solve-randnn", "--spec", os.path.join(root, "randnn_pair.txt")),
                outputs=(), capture_stdout="randnn_pair_loads.txt",
                tolerance=1e-9, golden_dir=goldens),
        Fixture(name="sine-linear-pipeline",
                argv=("experiment", "--config", os.path.join(configs, "sine_perfect.cfg")),
                outputs=("summary.csv",),
                tolerance=1e-6, golden_dir=goldens),
        Fixture(name="experiment-determinism",
                argv=("experiment", "--config", os.path.join(configs, "narma_tiny.cfg")),
                outputs=("results.csv", "summary.csv", "trace.csv"),
                rerun=True),
    ]


def _run_cli(argv, workdir, stdout_name=""):
    import contextlib
    import io

    old_cwd = os.getcwd()
    buffer = io.StringIO()
    try:
        os.chdir(workdir)
        with contextlib.redirect_stdout(buffer):
            code = cli.main(list(argv))
    finally:
        os.chdir(old_cwd)
    if code != 0:
        raise RuntimeError(f"CLI exited with code {code}")
    if stdout_name:
        with open(os.path.join(workdir, stdout_name), "w") as fh:
            fh.write(buffer.getvalue())


def _compare_files(produced, expected, tolerance):
    with open(produced) as fh:
        got = fh.read()
    with open(expected) as fh:
        want = fh.read()
    if tolerance == 0.0:
        if got != want:
            return f"{os.path.basename(produced)}: bytes differ"
        return None
    got_lines = got.splitlines()
    want_lines = want.splitlines()
    if len(got_lines) != len(want_lines):
        return (f"{os.path.basename(produced)}: line counts differ "
                f"({len(got_lines)} vs {len(want_lines)})")
    for lineno, (gl, wl) in enumerate(zip(got_lines, want_lines), start=1):
        g_tokens = gl.replace(",", " ").split()
        w_tokens = wl.replace(",", " ").split()
        if len(g_tokens) != len(w_tokens):
            return f"{os.path.basename(produced)}:{lineno}: token counts differ"
        for gt, wt in zip(g_tokens, w_tokens):
            try:
                gv, wv = float(gt), float(wt)
            except ValueError:
                if gt != wt:
                    return f"{os.path.basename(produced)}:{lineno}: {gt!r} != {wt!r}"
                continue
            if abs(gv - wv) > tolerance * max(1.0, abs(wv)):
                return (f"{os.path.basename(produced)}:{lineno}: "
                        f"{gv!r} differs from {wv!r} beyond {tolerance}")
    return None


def _verify_one(fixture, scratch):
    names = list(fixture.outputs)
    if fixture.capture_stdout:
        names.append(fixture.capture_stdout)
    if fixture.rerun:
        dirs = [os.path.join(scratch, "run1"), os.path.join(scratch, "run2")]
        for d in dirs:
            os.makedirs(d)
            _run_cli(fixture.argv, d, fixture.capture_stdout)
        for name in names:
            message = _compare_files(os.path.join(dirs[0], name),
                                     os.path.join(dirs[1], name), 0.0)
            if message:
                return f"rerun mismatch: {message}"
        return None
    workdir = os.path.join(scratch, "run")
    os.makedirs(workdir)
    _run_cli(fixture.argv, workdir, fixture.capture_stdout)
    for name in names:
        golden = os.path.join(fixture.golden_dir, name)
        if not os.path.exists(golden):
            return f"missing golden file {golden}"
        message = _compare_files(os.path.join(workdir, name), golden,
                                 fixture.tolerance)
        if message:
            return message
    return None


def verify_fixtures(fixture_root, fixtures=None):
    """Run every fixture through the CLI and report pass/fail."""
    report = FixtureReport()
    for fixture in fixtures if fixtures is not None else default_fixtures(fixture_root):
        with tempfile.TemporaryDirectory() as scratch:
            try:
                message = _verify_one(fixture, scratch)
            except Exception as exc:  # surface the failure, keep verifying
                message = f"{type(exc).__name__}: {exc}"
        if message:
            report.failed.append((fixture.name, message))
        else:
            report.passed.append(fixture.name)
    return report
