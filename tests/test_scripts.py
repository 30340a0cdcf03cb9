import importlib.util
import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_series_spread_prints_seed_rows_and_the_paired_interval(monkeypatch, capsys):
    # the README quotes this script's output; two seeds keep it to four
    # 20-trial experiments
    spec = importlib.util.spec_from_file_location(
        "series_spread", os.path.join(ROOT, "scripts", "series_spread.py"))
    script = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends to it
    spec.loader.exec_module(script)
    monkeypatch.setattr(script, "SEEDS", range(1, 3))
    script.main()
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 6
    assert lines[0] == "seed,esqn_mean_nmse,esn_mean_nmse"
    # seed 1 is the README table's NARMA-10 rows
    assert lines[1] == "1,0.0924,0.1326"
    assert re.fullmatch(r"2,0\.\d{4},0\.\d{4}", lines[2]), lines[2]
    means = {"esqn": sorted(line.split(",")[1] for line in lines[1:3]),
             "esn": sorted(line.split(",")[2] for line in lines[1:3])}
    for model, line in zip(means, lines[3:5]):
        low, high = means[model]
        assert line == f"{model}: per-series means {low} to {high}"
    below = sum(float(line.split(",")[1]) < float(line.split(",")[2]) for line in lines[1:3])
    assert re.fullmatch(r"esqn - esn: -?0\.\d{4} ±\d+\.\d{4} \(95% t, 1 dof\), "
                        rf"esqn below esn on {below} of 2 series", lines[5]), lines[5]
