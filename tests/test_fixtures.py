from fixture_runner import default_fixtures, verify_fixtures


def test_fixture_suite_is_green(fixture_root):
    report = verify_fixtures(fixture_root)
    print()
    print(report)
    assert report.ok, str(report)
    assert len(report.passed) == len(default_fixtures(fixture_root))


def test_missing_golden_is_reported(fixture_root, tmp_path):
    from fixture_runner import Fixture

    broken = Fixture(name="broken", argv=("generate-narma", "--n", "5",
                                          "--seed", "1", "--out", "x"),
                     outputs=("x_inputs.csv",), tolerance=1e-9,
                     golden_dir=str(tmp_path))
    report = verify_fixtures(fixture_root, fixtures=[broken])
    assert not report.ok
    assert "missing golden" in report.failed[0][1]
