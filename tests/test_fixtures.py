import importlib.util
import os
import sys

import pytest

from fixture_runner import FIXTURES, GOLDEN, GOLDENS, RERUN, run_cli


@pytest.mark.parametrize("name", GOLDEN)
def test_golden(name, tmp_path):
    # line and token counts must agree, words exactly, and numbers within
    # the fixture's tolerance, relative above magnitude 1
    argv, outputs, tol = GOLDEN[name]
    run_cli(argv, tmp_path)
    for output in outputs:
        with open(os.path.join(GOLDENS, output)) as fh:  # a missing golden fails here
            want = fh.read().splitlines()
        got = (tmp_path / output).read_text().splitlines()
        assert len(got) == len(want), f"{output}: line counts differ"
        for lineno, (got_line, want_line) in enumerate(zip(got, want), start=1):
            where = f"{output}:{lineno}"
            got_tokens = got_line.replace(",", " ").split()
            want_tokens = want_line.replace(",", " ").split()
            assert len(got_tokens) == len(want_tokens), f"{where}: token counts differ"
            for g, w in zip(got_tokens, want_tokens):
                try:
                    gv, wv = float(g), float(w)
                except ValueError:
                    assert g == w, where
                    continue
                assert abs(gv - wv) <= tol * max(1.0, abs(wv)), f"{where}: beyond {tol}"


def test_every_golden_is_named_by_a_fixture():
    # a golden whose command went would otherwise stay behind unchecked
    named = {output for _, outputs, _ in GOLDEN.values() for output in outputs}
    assert sorted(os.listdir(GOLDENS)) == sorted(named)


@pytest.mark.parametrize("name", RERUN)
def test_rerun_is_byte_identical(name, tmp_path):
    argv, outputs = RERUN[name]
    runs = [tmp_path / "one", tmp_path / "two"]
    for workdir in runs:
        workdir.mkdir()
        run_cli(argv, workdir)
    for output in outputs:
        assert (runs[0] / output).read_bytes() == (runs[1] / output).read_bytes(), output


def test_fixture_script_rewrites_the_committed_assets(tmp_path, monkeypatch):
    # the goldens are left out: the sine,esqn NMSE is ridge rounding on a
    # near-perfect fit, which any reassociation moves
    spec = importlib.util.spec_from_file_location(
        "make_fixtures", os.path.join(os.path.dirname(FIXTURES), "scripts", "make_fixtures.py"))
    script = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends to it
    spec.loader.exec_module(script)
    monkeypatch.setattr(script, "FIXTURES", str(tmp_path))
    script.make_series()
    for name in ("isp_like.csv", "ukerna_like.csv", "sine.csv",
                 "narma50_inputs.csv", "narma50_targets.csv"):
        with open(os.path.join(FIXTURES, name), "rb") as fh:
            assert (tmp_path / name).read_bytes() == fh.read(), name
