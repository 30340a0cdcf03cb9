import os

import pytest

from fixture_runner import GOLDEN, GOLDENS, RERUN, run_cli


@pytest.mark.parametrize("name", GOLDEN)
def test_golden(name, tmp_path):
    # line and token counts must agree, words exactly, and numbers within
    # the fixture's tolerance, relative above magnitude 1
    argv, outputs, stdout_name, tol = GOLDEN[name]
    run_cli(argv, tmp_path, stdout_name)
    for output in outputs + ((stdout_name,) if stdout_name else ()):
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


@pytest.mark.parametrize("name", RERUN)
def test_rerun_is_byte_identical(name, tmp_path):
    argv, outputs = RERUN[name]
    runs = [tmp_path / "one", tmp_path / "two"]
    for workdir in runs:
        workdir.mkdir()
        run_cli(argv, workdir)
    for output in outputs:
        assert (runs[0] / output).read_bytes() == (runs[1] / output).read_bytes(), output
