import json

import pytest

from toeplitz_lab.cli import main, to_jsonable


def run(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, out


def test_eval_example(capsys):
    rc, out = run(capsys, ["eval", "ex5.7", "10", "--depth", "3", "--format", "json"])
    assert rc == 0
    rep = json.loads(out)
    assert rep["results"]["letter"] == "b"


def test_build_reproduces_composition(capsys):
    rc, out = run(capsys, ["build", "ex4.3", "--level", "2", "--window", "0:16", "--format", "json"])
    rep = json.loads(out)
    assert rep["results"]["window"] == "aaaba?aba?bbabbb"


def test_json_reports_roundtrip(capsys):
    for argv in (
        ["analyze", "ex4.4-mini", "--depth", "3", "--format", "json"],
        ["boundary", "ex4.3", "--depth", "3", "--format", "json"],
        ["factor", "ex5.7", "--code", "ex5.7", "--depth", "2", "--format", "json"],
        ["pair", "ex5.7", "--shifts", "38", "230", "--depth", "3", "--format", "json"],
        ["gallery", "ex3.5", "--levels", "2", "--format", "json"],
    ):
        rc, out = run(capsys, argv)
        assert rc == 0, argv
        rep = json.loads(out)
        assert rep["schema"] == "toeplitz-lab/1"
        assert json.loads(json.dumps(rep)) == rep


def test_analyze_verdicts(capsys):
    rc, out = run(capsys, ["analyze", "ex4.4", "--depth", "3", "--format", "json"])
    rep = json.loads(out)
    assert rep["results"]["block_filling"]["kind"] == "refuted"
    rc, out = run(capsys, ["analyze", "ex3.5", "--depth", "3", "--format", "json"])
    rep = json.loads(out)
    assert rep["results"]["block_filling"]["kind"] == "certified-to-depth"


def test_verify_subset_passes(capsys):
    rc, out = run(capsys, ["verify", "sec2.2-compose", "ex4.3-level2-pattern", "--format", "json"])
    assert rc == 0
    assert "PASS" in out


def test_verify_unknown_check_fails(capsys):
    rc = main(["verify", "not-a-check"])
    assert rc == 1


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_level_zero_is_an_error(capsys):
    rc = main(["build", "ex4.3", "--level", "0"])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_bad_gallery_param_is_an_error(capsys):
    rc = main(["gallery", "williams", "--param", "ratios=x"])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_missing_schedule_is_an_error(capsys):
    rc = main(["eval", "ex9.9", "4"])
    assert rc == 1


def test_schedule_file_input(tmp_path, capsys):
    path = tmp_path / "sched.txt"
    path.write_text("ab\na??b\naa?a?bbb\n")
    rc, out = run(capsys, ["build", str(path), "--level", "2", "--window", "0:16", "--format", "json"])
    rep = json.loads(out)
    assert rep["results"]["window"] == "aaaba?aba?bbabbb"


def test_complexity_csv(capsys):
    rc, out = run(capsys, ["complexity", "ex4.4-mini", "--lengths", "8", "--mode", "decomposition", "--format", "csv"])
    assert rc == 0
    assert "8,16,exact" in out


def test_to_jsonable_fractions_and_enums():
    from fractions import Fraction

    from toeplitz_lab import Status

    assert to_jsonable(Fraction(7, 8)) == {"numerator": 7, "denominator": 8}
    assert to_jsonable(Status.PERIODIC) == "periodic"
    assert to_jsonable(float("inf")) == "inf"
    assert to_jsonable({1: (2, 3)}) == {"1": [2, 3]}


def test_code_file_input(tmp_path, capsys):
    from toeplitz_lab import code_to_text, gallery_code

    path = tmp_path / "code.txt"
    path.write_text(code_to_text(gallery_code("ex5.7")))
    rc, out = run(capsys, ["factor", "ex5.7", "--code", str(path), "--depth", "2", "--format", "json"])
    assert rc == 0
    rep = json.loads(out)
    assert rep["results"]["residues"]["2"]["nonperiodic"] == [5]


def test_gallery_params(capsys):
    rc, out = run(capsys, ["gallery", "williams", "--param", "ratio=5", "--levels", "2", "--format", "json"])
    assert rc == 0
    rep = json.loads(out)
    assert rep["results"]["scale"] == [5, 25]


def test_pair_report_carries_positions(capsys):
    rc, out = run(capsys, ["pair", "ex5.7", "--shifts", "38", "230", "--depth", "3", "--format", "json"])
    rep = json.loads(out)
    pos = rep["results"]["positions"]
    assert pos["first"] == [38 % 4, 38 % 16, 38 % 64]
    assert pos["scale"] == [4, 16, 64]
