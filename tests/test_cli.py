import argparse
import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import toeplitz_lab
from toeplitz_lab import BINARY, checks, code_from_text, schedule_from_text
from toeplitz_lab.cli import main, to_jsonable
from toeplitz_lab.errors import ToeplitzError
from toeplitz_lab.gallery import GALLERY_NAMES


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


def test_window_with_a_negative_start_takes_either_spelling(capsys):
    rc, glued = run(capsys, ["build", "ex5.7", "--level", "2", "--window=-3:6"])
    assert rc == 0
    assert run(capsys, ["build", "ex5.7", "--level", "2", "--window", "-3:6"]) == (0, glued)
    assert run(capsys, ["build", "ex5.7", "--level", "2", "--win", "-3:6"]) == (0, glued)
    assert "bbbaaaba?" in glued


def test_json_reports_roundtrip(capsys):
    for argv in (
        ["analyze", "ex4.4-mini", "--depth", "3", "--format", "json"],
        ["boundary", "ex4.3", "--depth", "3", "--format", "json"],
        # value sets at the default resolution depth + 2, whose period is far past PATTERN_CAP
        ["boundary", "ex4.4", "--depth", "5", "--format", "json"],
        ["boundary", "ex3.5", "--depth", "8", "--format", "json"],
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
    rc = main(["verify", "not-a-check", "sec2.2-compose", "zz"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: unknown checks: not-a-check, zz\n"
    # the registry refuses them itself, with a typed error, before running any check
    with pytest.raises(ToeplitzError, match="^unknown checks: not-a-check$"):
        checks.run_check("not-a-check")
    with pytest.raises(ToeplitzError, match="^unknown checks: zz$"):
        checks.run_all(["sec2.2-compose", "zz"])


@pytest.mark.parametrize("argv", [
    ["verify", "--format", "json"],
    ["gallery", "ex4.3", "--levels", "3"],
])
def test_closed_stdout_is_a_quiet_exit(argv):
    # the read end is closed before the child starts, so its first write to stdout fails
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=str(Path(toeplitz_lab.__file__).parents[1]))
    try:
        done = subprocess.run([sys.executable, "-m", "toeplitz_lab.cli", *argv],
                              stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert done.returncode == 1
    assert done.stderr == b""


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_level_zero_is_an_error(capsys):
    rc = main(["build", "ex4.3", "--level", "0"])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["build", "ex4.3", "--window=abc"],
    ["build", "ex4.3", "--window=10:5"],
    ["complexity", "ex5.7", "--lengths", "x"],
    ["analyze", "ex4.3", "--depth", "0"],
    ["boundary", "ex4.3", "--depth", "0"],
    ["boundary", "ex4.3", "--depth", "3", "--resolution", "-1"],
    ["analyze", "ex4.3", "--depth", "x"],
    ["eval", "ex5.7", "10", "--depth", "0"],
    ["factor", "ex5.7", "--code", "ex5.7", "--depth", "0"],
    ["pair", "ex5.7", "--shifts", "1", "2", "--depth", "-1"],
    ["pair", "ex5.7", "--shifts", "1", "2", "--window-half", "-3"],
    ["complexity", "ex5.7", "--depth", "0"],
    ["gallery", "ex3.5", "--levels", "-1"],
])
def test_bad_flag_value_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "error: argument" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    # the hole tree needs value sets from at least its own depth
    ["boundary", "ex4.3", "--depth", "3", "--resolution", "1"],
    # a period of 2^18 times this length exceeds the word-assembly bound
    ["complexity", "ex4.4-mini", "--mode", "decomposition", "--lengths", "100000"],
    # windows, shifted windows and the L-word set of a window scan, all past the cap
    ["build", "ex4.3", "--level", "2", "--window", "0:1000000000"],
    ["pair", "ex5.7", "--shifts", "38", "230", "--depth", "3", "--window-half", "100000000"],
    ["complexity", "ex4.4-mini", "--lengths", "100000000"],
    ["complexity", "ex4.4-mini", "--lengths", "100000"],
    # levels and depths whose seeds or hole lists pass the cap long before the level is reached
    ["build", "ex4.3", "--level", "1000000000"],
    ["boundary", "ex3.5", "--depth", "1000000000"],
    ["gallery", "ex4.3", "--levels", "1000000000"],
    ["factor", "ex5.7", "--code", "ex5.7", "--depth", "1000000000"],
    # the run words at depth 11 need the 4,198,400 hole slots of seed 11
    ["factor", "ex3.5", "--code", "ex5.7", "--depth", "9"],
])
def test_unservable_request_is_an_error(argv, capsys):
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_over_cap_factor_request_lists_no_hole(monkeypatch, capsys):
    # the run words at depth 22 need 2^23 hole slots of seed 22, known from seed lengths and hole counts
    from toeplitz_lab import FillingSchedule

    listed, level_info = [], FillingSchedule.level_info
    monkeypatch.setattr(FillingSchedule, "level_info", lambda self, l: listed.append(l) or level_info(self, l))
    assert main(["factor", "ex5.7", "--code", "ex5.7", "--depth", "20"]) == 1
    assert capsys.readouterr().err == "error: level 21 has 8388608 hole slots, beyond the cap\n"
    assert listed == []


@pytest.mark.parametrize("text, argv", [
    ("radius x\n", ["factor", "ex5.7", "--code", "{path}"]),
    ("@\nab\n", ["build", "{path}"]),
    # one period of 4 cannot be cut into a length-100 word
    ("ab\naa?b\n", ["complexity", "{path}", "--mode", "decomposition", "--lengths", "100"]),
    # a window given twice, and seeds after a gallery reference
    ("radius 0\na a\na b\nb a\n", ["factor", "ex5.7", "--code", "{path}"]),
    ("@ex4.3\nab\naa?b\n", ["build", "{path}"]),
    # a code radius below 0, or whose window is wider than the pattern cap
    ("radius -1\n* a\n", ["factor", "ex5.7", "--code", "{path}", "--depth", "2"]),
    ("radius 1000000000\n* a\n", ["factor", "ex5.7", "--code", "{path}", "--depth", "2"]),
    # a tree depth past the last seed while holes stay open
    ("ab\na?b\na?b\n", ["boundary", "{path}", "--depth", "1000000000"]),
    # a tree depth past the last seed after the holes have died out
    ("ab\nab\na?b\nab\n", ["boundary", "{path}", "--depth", "1000000000"]),
    # factor levels past the last seed, with holes open and after they have died out
    ("ab\na?b\na?b\n", ["factor", "{path}", "--code", "ex5.7", "--depth", "1000000000"]),
    ("ab\nab\na?b\nab\n", ["factor", "{path}", "--code", "ex5.7", "--depth", "1000000000"]),
    ("ab\na?b\nab\n", ["boundary", "{path}", "--depth", "3"]),
])
def test_bad_input_file_is_an_error(text, argv, tmp_path, capsys):
    path = tmp_path / "input.txt"
    path.write_text(text)
    assert main([a.replace("{path}", str(path)) for a in argv]) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["build", "{dir}"],
    ["factor", "ex5.7", "--code", "{dir}"],
    ["build", "{dir}/latin1.txt"],
    ["factor", "ex5.7", "--code", "{dir}/latin1.txt"],
])
def test_unreadable_input_file_is_an_error(argv, tmp_path, capsys):
    (tmp_path / "latin1.txt").write_bytes("ab\na?\xe9b\n".encode("latin-1"))
    assert main([a.replace("{dir}", str(tmp_path)) for a in argv]) == 1
    assert capsys.readouterr().err.startswith("error: cannot read ")


_TOKENS = ("radius", "*", "#", "@", "=", " ", " ", "a", "b", "?", "x", "-", "0", "1", "3", "ab", "a?b", "aa?b",
           "ex4.3", "williams", "ratios=", "letters=", "alphabet=", ",")


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(st.one_of(
    st.text(max_size=40),
    st.lists(st.lists(st.sampled_from(_TOKENS), max_size=6).map("".join), max_size=6).map("\n".join),
    st.tuples(st.integers(-5, 10 ** 6), st.sampled_from(("", "* a\n", "aaa a\n"))).map("radius %d\n%s".__mod__),
))
def test_file_parsers_raise_only_typed_errors(text):
    for parse in (schedule_from_text, lambda t: code_from_text(t, BINARY)):
        try:
            parse(text)
        except ToeplitzError:
            pass


@pytest.mark.parametrize("name", ["ex4.3", "ex3.5"])
def test_runaway_level_is_an_error(name, capsys):
    # both double their holes at least every two levels and grow their seeds
    rc = main(["build", name, "--level", "99"])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_bad_gallery_param_is_an_error(capsys):
    rc = main(["gallery", "williams", "--param", "ratios=x"])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("argv, text", [
    (["gallery", "ex4.3", "--param", "ratio=5"], None),  # ex4.3 takes no parameters
    (["gallery", "williams", "--param", "="], None),  # the empty key
    (["gallery", "williams", "--param", "ratio=4", "--param", "ratios=6"], None),
    (["build", "{path}"], "@ex4.3 foo=1\n"),
    (["build", "{path}"], "@williams ratio=4 colour=red\n"),
])
def test_gallery_entry_refuses_keys_it_does_not_read(argv, text, tmp_path, capsys):
    path = tmp_path / "sched.txt"
    if text is not None:
        path.write_text(text)
    assert main([a.replace("{path}", str(path)) for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and ("parameter" in err or "ratio" in err), err


@pytest.mark.parametrize("argv, text", [
    (["gallery", "williams", "--param", "ratio=4", "--param", "ratio=5", "--levels", "2"], None),
    (["build", "{path}", "--level", "1"], "@williams ratio=4 ratio=5\n"),
    (["gallery", "--param", "foo=1"], None),  # no entry to take the parameter
])
def test_repeated_or_unattached_gallery_params_are_errors(argv, text, tmp_path, capsys):
    path = tmp_path / "sched.txt"
    if text is not None:
        path.write_text(text)
    assert main([a.replace("{path}", str(path)) for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "parameter" in captured.err, captured.err
    assert captured.out == ""


def test_bad_alphabet_is_an_error(tmp_path, capsys):
    rc = main(["gallery", "williams", "--param", "alphabet=aa"])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: ")
    for alphabet in ("aa", "a?"):
        path = tmp_path / "sched.txt"
        path.write_text("%s\nab\n" % alphabet)
        rc = main(["build", str(path), "--level", "1"])
        assert rc == 1, alphabet
        assert capsys.readouterr().err.startswith("error: ")


def test_verify_results_match_pinned_digest(capsys):
    # a speedup must leave the verify results byte-identical; the digest is
    # the one the benchmark pins, over canonical JSON of the results object
    refs = json.loads((Path(__file__).parents[1] / "perfbench" / "references.json").read_text())
    rc, out = run(capsys, ["verify", "--format", "json"])
    assert rc == 0
    results = json.loads(out[out.index("{"):])["results"]  # after the PASS lines
    canonical = json.dumps(results, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(canonical.encode()).hexdigest() == refs["verify_results_sha256"]


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

    from toeplitz_lab.boundary import IsolationKind
    from toeplitz_lab.periodicity import VerdictKind

    assert to_jsonable(Fraction(7, 8)) == {"numerator": 7, "denominator": 8}
    assert to_jsonable(VerdictKind.CERTIFIED_TO_DEPTH) == "certified-to-depth"
    assert to_jsonable(IsolationKind.CERTIFIED) == "certified-at-level"
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


def test_code_file_with_a_default_maps_windows_to_either_letter(tmp_path, capsys):
    path = tmp_path / "code.txt"
    path.write_text("radius 1\naaa a\nbab b\nabb b\n* a\n")
    rc, out = run(capsys, ["factor", "ex5.7", "--code", str(path), "--depth", "2", "--format", "json"])
    assert rc == 0
    # the residues a brute-force completion of every window of the depth-4 pattern gives
    assert json.loads(out)["results"]["residues"] == {
        "1": {"nonperiodic": [0, 1, 2], "undetermined": []},
        "2": {"nonperiodic": [4, 5, 6, 8], "undetermined": [9, 10]},
    }


def test_gallery_params(capsys):
    rc, out = run(capsys, ["gallery", "williams", "--param", "ratio=5", "--levels", "2", "--format", "json"])
    assert rc == 0
    rep = json.loads(out)
    assert rep["results"]["scale"] == [5, 25]


def test_window_half_zero_is_one_position(capsys):
    rc, out = run(capsys, ["pair", "ex5.7", "--shifts", "38", "230", "--window-half", "0", "--format", "json"])
    assert rc == 0
    (census,) = json.loads(out)["results"]["report"]["censuses"]
    assert census["window"] == [0, 0]
    assert census["resolved_differences"] + census["unresolved"] <= 1


def test_pair_report_carries_positions(capsys):
    rc, out = run(capsys, ["pair", "ex5.7", "--shifts", "38", "230", "--depth", "3", "--format", "json"])
    rep = json.loads(out)
    pos = rep["results"]["positions"]
    assert pos["first"] == [38 % 4, 38 % 16, 38 % 64]
    assert pos["scale"] == [4, 16, 64]


def test_factor_builds_no_pattern_or_image(monkeypatch, capsys):
    from toeplitz_lab import FillingSchedule, factors, gallery, gallery_code

    calls = []
    apply_code, pattern = factors.apply_code, FillingSchedule.pattern
    monkeypatch.setattr(factors, "apply_code", lambda *a: calls.append(a) or apply_code(*a))
    monkeypatch.setattr(FillingSchedule, "pattern", lambda *a: calls.append(a) or pattern(*a))
    rc, out = run(capsys, ["factor", "ex5.7", "--code", "ex5.7", "--depth", "4", "--format", "json"])
    assert rc == 0 and calls == []
    s, code = gallery("ex5.7"), gallery_code("ex5.7")
    residues = factors.factor_residues(code, s, range(1, 5), 6)
    assert json.loads(out)["results"] == {
        "radius": 1,
        "residues": {str(l): {"nonperiodic": list(fr.nonperiodic), "undetermined": list(fr.undetermined)}
                     for l, fr in enumerate(residues, 1)},
        "pullback_holds": all(r.holds for r in factors.pullback_reports(code, s, residues)),
    }
    assert json.loads(out)["results"]["pullback_holds"] is True


def count_classifications(monkeypatch):
    """The moduli a pattern's columns are read for, on either class route, collected from now on."""
    from toeplitz_lab import periodicity

    calls, original = [], periodicity._pattern_columns

    def counted(pat, p):
        calls.append(p)
        return original(pat, p)
    monkeypatch.setattr(periodicity, "_pattern_columns", counted)
    return calls


@pytest.mark.parametrize("name", ["ex4.3", "ex3.5"])
def test_depth_one_analyze_certifies_no_block_filling(capsys, name):
    # depth 1 compares no pair of levels: ex4.3 (refuted at depth 2) and ex3.5 (certified there) both read unknown
    rc, out = run(capsys, ["analyze", name, "--depth", "1", "--format", "json"])
    assert rc == 0
    results = json.loads(out)["results"]
    assert results["block_filling"] == {
        "kind": "unknown", "level": None, "reason": "no pair of levels compared below depth 2"}
    assert results["finiteness"]["hs"]["kind"] == results["finiteness"]["fb"]["kind"] == "unknown"
    rc, out = run(capsys, ["analyze", name, "--depth", "2", "--format", "json"])
    expected = "refuted" if name == "ex4.3" else "certified-to-depth"
    assert rc == 0 and json.loads(out)["results"]["block_filling"]["kind"] == expected


def test_prime_power_analyze_reads_essentiality_off_class_letters(monkeypatch, capsys):
    # every candidate of a prime-power scale divides its scale entry, so the
    # letters of the entry's own classes decide it: no further classification
    calls = count_classifications(monkeypatch)
    rc, out = run(capsys, ["analyze", "ex4.3", "--depth", "8", "--format", "json"])
    assert rc == 0 and len(calls) == 8
    results = json.loads(out)["results"]
    scale = [4 ** l for l in range(1, 9)]
    assert results["period_structure"] == {
        "scale": scale, "depth": 9, "divisible": True, "nonempty": [True] * 8,
        "essentiality": [{"scale_entry": p, "certified": True, "unresolved_periods": []} for p in scale],
        "coverage_window": [-16384, 16384], "covered": True,
    }
    canonical = json.dumps(results, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(canonical.encode()).hexdigest() == (
        "8a72b61b71fb6120d22d030be13f1ade7b4e56923aa3f14ac9d788559fd43b90")


def test_mixed_scale_analyze_classifies_only_the_scale_entries(monkeypatch, capsys):
    # the ex3.5 scale mixes the primes 2, 3 and 5, so most candidates do not
    # divide their entry; the classes mod p_l settle every one of them here
    calls = count_classifications(monkeypatch)
    rc, out = run(capsys, ["analyze", "ex3.5", "--depth", "4", "--format", "json"])
    scale = [8, 48, 480, 8640]
    assert rc == 0 and calls == scale
    results = json.loads(out)["results"]
    assert results["period_structure"] == {
        "scale": scale, "depth": 5, "divisible": True, "nonempty": [True] * 4,
        "essentiality": [{"scale_entry": p, "certified": True, "unresolved_periods": []} for p in scale],
        "coverage_window": [-480, 480], "covered": True,
    }
    canonical = json.dumps(results, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(canonical.encode()).hexdigest() == (
        "a2d7fa24e2681ef6eb5e6ec01b2352d6e099f30885c48043d6b6641ee7e7b5d2")


def test_analyze_reads_ex4_4_classes_off_levels_one_to_three(capsys):
    # the classes mod each scale entry p_l are read off level l's pattern (period at most 32768)
    # and the hole-class letters at depth 4, whose pattern of period 2^21 is never composed
    rc, out = run(capsys, ["analyze", "ex4.4", "--depth", "3", "--format", "json"])
    assert rc == 0
    results = json.loads(out)["results"]
    scale = [64, 1024, 32768]
    assert results["period_structure"] == {
        "scale": scale, "depth": 4, "divisible": True, "nonempty": [True] * 3,
        "essentiality": [{"scale_entry": p, "certified": True, "unresolved_periods": []} for p in scale],
        "coverage_window": [-1024, 1024], "covered": True,
    }
    canonical = json.dumps(results, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(canonical.encode()).hexdigest() == (
        "7faeefdee184d1bb8432235a3968daa9c393b9e57685b3496d9eee62b68cc12b")


@pytest.mark.parametrize("name, depth", [("ex4.3", 8), ("ex4.4", 3)])
def test_analyze_composes_no_pattern_past_its_depth(monkeypatch, capsys, name, depth):
    # the classes mod each scale entry p_l are read off level l's pattern and hole-class letters
    from toeplitz_lab import FillingSchedule

    levels, pattern = [], FillingSchedule.pattern
    monkeypatch.setattr(FillingSchedule, "pattern", lambda s, l: levels.append(l) or pattern(s, l))
    rc, _ = run(capsys, ["analyze", name, "--depth", str(depth), "--format", "json"])
    assert rc == 0 and levels and max(levels) <= depth


def test_analyze_answers_past_the_depth_pattern_cap(capsys):
    # the depth-12 pattern has period 2^24, past PATTERN_CAP; the digest is the one the
    # explicit depth-12 pattern gives with the cap raised to 2^25
    rc, out = run(capsys, ["analyze", "ex4.3", "--depth", "11", "--format", "json"])
    assert rc == 0
    results = json.loads(out)["results"]
    assert results["period_structure"]["depth"] == 12 and results["period_structure"]["covered"] is True
    canonical = json.dumps(results, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(canonical.encode()).hexdigest() == (
        "ce307db116c8c742ffaf628d9a97fc6fc8e4729c1889407ccfba26e286d058c4")


def test_analyze_past_the_cap_is_refused_before_any_classification(monkeypatch, capsys):
    # the last scale entry's classes would be read off level 12, of period 2^24
    calls = count_classifications(monkeypatch)
    rc = main(["analyze", "ex4.3", "--depth", "12"])
    out, err = capsys.readouterr()
    assert rc == 1 and calls == [] and out == ""
    assert "level 12 has period 16777216, beyond the explicit-pattern cap" in err
    assert "Traceback" not in err


def test_analyze_names_the_depth_it_read(tmp_path, capsys):
    path = tmp_path / "two-seeds.txt"
    path.write_text("ab\na?b\na?b\n")
    rc, out = run(capsys, ["analyze", str(path), "--depth", "2", "--format", "json"])
    assert rc == 0 and json.loads(out)["results"]["period_structure"]["depth"] == 2


_SMALL = st.integers(-3, 6).map(str)
# window and length flags may also ask for more than any pattern holds
_SIZE = _SMALL | st.sampled_from(("1000000000", "1000000000000000000"))
# every flag of each subcommand, with values of the kind it takes
_FLAG_VALUES = {
    "--level": _SMALL, "--depth": _SMALL, "--resolution": _SMALL, "--window-half": _SIZE, "--levels": _SMALL,
    "--window": st.tuples(_SIZE, _SIZE).map(":".join),
    "--lengths": st.lists(_SIZE, min_size=1, max_size=3).map(",".join),
    "--shifts": st.tuples(_SMALL, _SMALL).map(" ".join),
    "--mode": st.sampled_from(("window", "decomposition")),
    "--format": st.sampled_from(("json", "text", "csv")),
    "--code": st.sampled_from(GALLERY_NAMES),
    "--param": st.sampled_from(("ratio=5", "ratios=4,6", "letters=ba", "alphabet=abc", "ratio=x", "=")),
}
_FLAGS = {
    "build": ("--level", "--window", "--format"),
    "eval": ("--depth", "--format"),
    "analyze": ("--depth", "--format"),
    "boundary": ("--depth", "--resolution", "--format"),
    "factor": ("--code", "--depth", "--format"),
    "pair": ("--shifts", "--depth", "--window-half", "--format"),
    "complexity": ("--lengths", "--mode", "--depth", "--format"),
    "gallery": ("--levels", "--param", "--format"),
    "verify": ("--format",),
}
# anything else: gallery names, short junk (a lone "." names a directory), and help
_JUNK = st.sampled_from(GALLERY_NAMES + ("-h",)) | st.text(alphabet="ab?:,=.-@x", max_size=5)


@st.composite
def cli_argv(draw, command):
    """The positionals, then flags mostly with a value of their kind, sometimes with junk, and stray tokens."""
    argv = [command]
    if command == "verify":  # always name a check: all 25 take half a second
        argv.append(draw(st.sampled_from(("sec2.2-compose", "ex4.3-level2-pattern")) | _JUNK))
    elif command != "gallery":
        argv.append(draw(st.sampled_from(GALLERY_NAMES) | _JUNK))
    if command == "eval":
        argv.append(draw(_SMALL | _JUNK))
    flag = st.sampled_from(_FLAGS[command])
    fitting = flag.flatmap(lambda f: _FLAG_VALUES[f].map(lambda v: [f] + v.split(" ")))
    # twice, so that half the flags get a value of their kind
    chunk = st.one_of(fitting, fitting, st.tuples(flag, _JUNK).map(list), _JUNK.map(lambda v: [v]))
    for tokens in draw(st.lists(chunk, max_size=4)):
        argv += tokens
    return argv


@pytest.mark.parametrize("command", sorted(_FLAGS))
@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_cli_arguments_end_in_an_exit_code(command, data):
    argv = data.draw(cli_argv(command))
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = main(argv)
    except SystemExit as exc:
        rc = exc.code
    assert rc in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue()


def test_parser_is_built_once(monkeypatch, capsys):
    from toeplitz_lab import cli

    added = []
    add_argument = argparse.ArgumentParser.add_argument
    monkeypatch.setattr(argparse.ArgumentParser, "add_argument",
                        lambda self, *a, **kw: added.append(a) or add_argument(self, *a, **kw))
    cli.parser.cache_clear()
    assert main(["gallery"]) == 0
    assert added
    added.clear()
    assert main(["gallery"]) == 0
    assert added == []


def test_no_parser_state_leaks_between_calls(capsys):
    fresh = subprocess.run([sys.executable, "-m", "toeplitz_lab.cli", "gallery", "williams"],
                           capture_output=True, text=True, timeout=120,
                           env=dict(os.environ, PYTHONPATH=str(Path(toeplitz_lab.__file__).parents[1])))
    main(["gallery", "williams", "--param", "ratios=5"])
    capsys.readouterr()
    assert main(["gallery", "williams"]) == fresh.returncode
    assert capsys.readouterr().out == fresh.stdout


@pytest.mark.parametrize("argv", [
    ["build", "ex4.3"], ["eval", "ex4.3", "3"], ["analyze", "ex4.3"], ["boundary", "ex4.3"],
    ["factor", "ex5.7", "--code", "ex5.7"], ["pair", "ex5.7", "--shifts", "1", "2"],
    ["complexity", "ex4.3"], ["gallery"], ["verify"],
])
def test_defaults_parse_alike_on_every_call(argv):
    from toeplitz_lab.cli import parser

    first, second = vars(parser().parse_args(argv)), vars(parser().parse_args(argv))
    assert first == second and first["format"] == "text"
    for key in ("lengths", "checks", "param"):
        if first.get(key) is not None:
            assert first[key] is not second[key], key
    if argv[0] == "complexity":
        assert first["lengths"] == [4, 8]
