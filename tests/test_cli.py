import dataclasses
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from reservoirq import cli, data, harness
from reservoirq.data import load_csv
from reservoirq.esn import EsnModel
from reservoirq.esqn import EsqnModel

CONFIG_TEXT = """\
train_size = 150
validation_size = 50
model = esqn
reservoir_size = 10
trials = 2
seed = 5
"""


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def write_config(tmp_path, text=CONFIG_TEXT, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def one_error_line(argv, capsys):
    """Run ``argv`` expecting exit 1, one ``error:`` line, no stdout and
    no file written; return the line."""
    before = sorted(os.listdir())
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert sorted(os.listdir()) == before
    return captured.err


class TestExperiment:
    def test_runs_and_prints_summary_row(self, workdir, capsys):
        config = write_config(workdir)
        assert cli.main(["experiment", "--config", config]) == 0
        line = capsys.readouterr().out.strip()
        fields = line.split()
        assert fields[0] == "narma" and fields[1] == "esqn"
        assert 0.0 <= float(fields[2]) < 10.0
        assert fields[3].startswith("±")
        for name in ("results.csv", "summary.csv", "trace.csv"):
            assert os.path.exists(name)
        with open("trace.csv") as fh:
            assert fh.readline().strip() == "t,target,prediction"

    def test_single_trial_omits_interval(self, workdir, capsys):
        config = write_config(workdir, CONFIG_TEXT.replace("trials = 2", "trials = 1"))
        assert cli.main(["experiment", "--config", config]) == 0
        assert len(capsys.readouterr().out.strip().split()) == 3
        with open("summary.csv") as fh:
            assert fh.readlines()[1].split(",")[4] == ""

    def test_missing_config_fails_with_diagnostic(self, workdir, capsys):
        assert cli.main(["experiment", "--config", "nowhere.cfg"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_unparseable_csv_is_one_error_line(self, workdir, capsys):
        # a field over the csv module's limit of 131,072 characters
        (workdir / "huge.csv").write_text("value\n1.0\n" + "9" * 140_000 + "\n")
        config = write_config(workdir, "csv_path = huge.csv\n" + CONFIG_TEXT)
        err = one_error_line(["experiment", "--config", config], capsys)
        assert "huge.csv: line 3: field larger than field limit" in err

    # pytest captures warnings, so stderr alone would not show one that
    # escaped a failing trial; as an error it fails the run instead
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("build, message", [
        # every trial's loads overflow: run_experiment's ArithmeticError,
        # naming the last failed trial and its reason
        pytest.param(lambda n_in, n_res, rng: dataclasses.replace(
                         EsqnModel.random(n_in, n_res, rng),
                         rates_in=np.full(n_in, 1e-320), rates_res=np.full(n_res, 1e-320)),
                     "all 2 trials failed; last, trial 1: non-finite training state",
                     id="firing_rate = 1e-320-all 2 trials failed"),
        # round(0.15 * 1**2) = 0: no recurrent weight at all, so below
        # esn.MIN_SIZE, named before any draw
        pytest.param(lambda n_in, n_res, rng: EsnModel.random(n_in, 1, rng),
                     "n_res must be >= 2, got 1",
                     id="1-unit esn size named"),
    ])
    def test_arithmetic_failure_is_one_error_line(self, workdir, capsys, monkeypatch,
                                                  build, message):
        # the config has no knob for these models, so the builder is swapped;
        # the firing-rate overflow is real and passes through np.errstate
        monkeypatch.setattr(harness, "build_model", lambda config, n_in, rng:
                            build(n_in, config.reservoir_size, rng))
        config = write_config(workdir)
        assert cli.main(["experiment", "--config", config]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert message in captured.err
        assert not os.path.exists("results.csv")

    def test_divergence_is_one_error_line(self, workdir, capsys, monkeypatch):
        # cli.main's RuntimeError branch: no draw stays within a limit of -1
        monkeypatch.setattr(data, "NARMA_DIVERGENCE_LIMIT", -1)
        err = one_error_line(["experiment", "--config", write_config(workdir)], capsys)
        assert err == "error: NARMA-10 diverged on 10 consecutive attempts\n"

    def test_unwritable_output_is_one_error_line(self, workdir, capsys):
        # a write that fails is the one failure after which a file stays:
        # results.csv was written before summary.csv could not be
        (workdir / "summary.csv").mkdir()
        assert cli.main(["experiment", "--config", write_config(workdir)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "summary.csv" in captured.err
        assert sorted(os.listdir()) == ["exp.cfg", "results.csv", "summary.csv"]

    def test_outputs_reingestible(self, workdir):
        # every numeric column of every file the commands write loads back by
        # its header name (two trials, so no ci_halfwidth is blank)
        config = write_config(workdir)
        assert cli.main(["experiment", "--config", config]) == 0
        assert cli.main(["sweep", "--config", config, "--sizes", "5,10"]) == 0
        rows = {"results.csv": 2, "summary.csv": 1, "trace.csv": 50, "sweep.csv": 2}
        for name, count in rows.items():
            with open(name) as fh:
                header = fh.readline().rstrip("\n").split(",")
            for column in header:
                if column not in ("series", "model"):
                    assert len(load_csv(name, column)) == count, (name, column)


class TestSweep:
    def test_writes_sweep_csv(self, workdir, capsys):
        config = write_config(workdir)
        assert cli.main(["sweep", "--config", config, "--sizes", "5,10"]) == 0
        out_lines = capsys.readouterr().out.strip().splitlines()
        assert len(out_lines) == 2
        assert out_lines[0].split()[0] == "5"
        with open("sweep.csv") as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "reservoir_size,mean_nmse,ci_halfwidth"
        assert len(lines) == 3

    def test_malformed_sizes_is_usage_error(self, workdir, capsys):
        config = write_config(workdir)
        # an empty entry is malformed, not skipped
        for sizes in ["5,banana", "5,10,,", ",5"]:
            with pytest.raises(SystemExit) as info:
                cli.main(["sweep", "--config", config, "--sizes", sizes])
            assert info.value.code == 2
            assert "malformed" in capsys.readouterr().err

    @pytest.mark.parametrize("sizes", ["0", "1"])
    def test_out_of_range_size_is_the_configs_error(self, workdir, capsys, sizes):
        config = write_config(workdir, CONFIG_TEXT.replace("model = esqn", "model = esn"))
        err = one_error_line(["sweep", "--config", config, "--sizes", sizes], capsys)
        assert f"reservoir_size must be >= 2, got {sizes}" in err

    def test_single_size_matches_experiment(self, workdir, capsys):
        config = write_config(workdir)
        cli.main(["experiment", "--config", config])
        experiment_line = capsys.readouterr().out.strip()
        cli.main(["sweep", "--config", config, "--sizes", "10"])
        sweep_line = capsys.readouterr().out.strip()
        assert sweep_line == f"10 {experiment_line}"


class TestUsage:
    def test_unknown_flag_rejected(self, workdir, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["experiment", "--config", "x", "--frobnicate"])
        assert info.value.code == 2

    @pytest.mark.parametrize("argv", [["experiment", "--config", "bad.txt"]],
                             ids=["config"])
    def test_undecodable_file_is_one_error_line(self, workdir, capsys, argv):
        (workdir / "bad.txt").write_bytes(b"trials = 2\n\xff\n")
        err = one_error_line(argv, capsys)
        assert err.startswith("error: cannot read bad.txt: ")

    def test_unknown_subcommand_rejected(self, workdir):
        with pytest.raises(SystemExit) as info:
            cli.main(["dance"])
        assert info.value.code == 2

    def test_console_entry_point(self, tmp_path, subprocess_env, fixture_root):
        # --help and the README's command-line block name exactly the
        # parser's subcommands, and every flag the section names is an
        # option of one of them
        (commands,) = [action.choices for action in cli.build_parser()._actions
                       if action.dest == "command"]
        flags = {flag for parser in commands.values() for action in parser._actions
                 for flag in action.option_strings}
        proc = subprocess.run([sys.executable, "-m", "reservoirq.cli", "--help"],
                              capture_output=True, text=True, cwd=tmp_path,
                              env=subprocess_env)
        assert proc.returncode == 0
        assert re.search(r"\{([^}]*)\}", proc.stdout).group(1).split(",") == list(commands)
        with open(os.path.join(os.path.dirname(fixture_root), "README.md")) as fh:
            section = fh.read().split("## Command line", 1)[1].split("\n## ", 1)[0]
        block = section.split("```sh\n", 1)[1].split("```", 1)[0]
        assert set(re.findall(r"^reservoirq (\S+)", block, re.M)) == set(commands)
        assert set(re.findall(r"--[a-z][\w-]*", section)) <= flags
