import random

import pytest

from toeplitz_lab import (
    Alphabet,
    BINARY,
    FillingSchedule,
    HOLE,
    IsolationKind,
    PeriodicPattern,
    SlidingBlockCode,
    apply_code,
    build_isolating_code,
    classify_residues,
    code_from_text,
    code_to_text,
    factor_aperiodic_residues,
    factor_obstruction_check,
    factor_residues,
    gallery,
    gallery_code,
    hole_tree,
    isolated_value_pair,
    parse_seed,
    unique_residue_search,
)
from toeplitz_lab import factors
from toeplitz_lab.errors import NotIsolated, ToeplitzError, UnknownLetters
from toeplitz_lab.factors import code_output, hole_reach

EX43_BRANCH = tuple((4 ** l - 1) // 3 for l in range(1, 9))
IDENTITY = SlidingBlockCode.from_fn(BINARY, 0, lambda w: w)


def test_apply_identity_and_constant():
    s = gallery("ex5.7")
    pat = s.pattern(3)
    assert apply_code(IDENTITY, pat).symbols == pat.symbols
    out = apply_code(SlidingBlockCode.from_fn(BINARY, 0, lambda w: "a"), pat)
    assert set(out.symbols) == {"a"}
    # all 2^17 completions of the window give "a"
    const = SlidingBlockCode.from_fn(BINARY, 8, lambda w: "a")
    assert code_output(const, HOLE * 17) == "a"
    assert apply_code(const, PeriodicPattern(HOLE)).symbols == "a"


def test_apply_gallery_code_positions():
    s = gallery("ex5.7")
    out = apply_code(gallery_code("ex5.7"), s.pattern(4))
    a_positions = [j for j in range(16) if out.at(j) == "a"]
    assert a_positions == [1, 5]


def test_hole_output_soundness():
    # once a letter is emitted, deeper resolutions emit the same letter
    s = gallery("ex5.7")
    code = gallery_code("ex5.7")
    lo = apply_code(code, s.pattern(3))
    hi = apply_code(code, s.pattern(5))
    for j in range(lo.period):
        if lo.at(j) != HOLE:
            assert hi.at(j) == lo.at(j)


def test_factor_residues_gallery_code():
    s = gallery("ex5.7")
    code = gallery_code("ex5.7")
    assert factor_aperiodic_residues(code, s, 1, 6).nonperiodic == (1,)
    fr = factor_aperiodic_residues(code, s, 2, 6)
    assert fr.nonperiodic == (5,) and fr.undetermined == (9,)
    assert factor_aperiodic_residues(IDENTITY, gallery("ex4.3"), 2, 5).nonperiodic == (5, 9)


def test_sparse_route_matches_pattern_route():
    # factor_residues reads only the windows near the holes; the pattern route codes the whole depth pattern
    s = gallery("ex4.4")
    code = gallery_code("ex5.7")
    image = apply_code(code, s.pattern(3))
    for l in (1, 2):
        fr = factor_aperiodic_residues(code, s, l, 3)
        classes = classify_residues(image, s.period(l))
        assert (fr.modulus, fr.nonperiodic, fr.undetermined) == (
            classes.modulus, classes.nonperiodic, classes.undetermined)


def test_hole_reach_lists_the_residues_near_a_hole():
    from toeplitz_lab.factors import hole_reach

    for name in ("ex5.7", "ex4.4", "ex3.5", "ex4.3"):
        s = gallery(name)
        for l in (1, 2, 3):
            p, holes = s.period(l), s.holes(l)
            # radii past half the period wrap around it
            for radius in (0, 1, 2, 5, 40, p):
                near = sorted({(x + d) % p for x in holes for d in range(-radius, radius + 1)})
                assert hole_reach(s, l, radius) == near, (name, l, radius)
    assert hole_reach(FillingSchedule(BINARY, [parse_seed("ab")]), 1, 3) == []


def test_factor_residues_refuse_a_depth_below_the_level():
    code = gallery_code("ex5.7")
    # ex5.7's depth-2 period is small; ex4.4's depth-5 period 2^28 is past the pattern cap
    for name, l, depth in (("ex5.7", 3, 2), ("ex4.4", 6, 5)):
        with pytest.raises(ToeplitzError, match="below level"):
            factor_aperiodic_residues(code, gallery(name), l, depth)


def test_unique_residue_certificates():
    s43 = gallery("ex4.3")
    cert = unique_residue_search(s43, 5, 5, (0, 2 * s43.period(6)))
    assert cert.holds
    bad = unique_residue_search(gallery("ex5.7"), 2, 1, (0, 128), depth=6)
    assert not bad.holds
    assert bad.counterexample == (0, 4)
    j1, j2 = bad.counterexample
    assert (j1 - j2) % 16 != 0


def test_unique_residue_constant_word():
    s = FillingSchedule(BINARY, [parse_seed("a?a"), parse_seed("a")])
    cert = unique_residue_search(s, 1, 1, (0, 16), depth=2)
    assert not cert.holds


@pytest.mark.parametrize("window", [(10, 10), (5, 2)])
def test_unique_residue_search_refuses_a_window_without_starts(window):
    with pytest.raises(ToeplitzError, match="holds no start"):
        unique_residue_search(gallery("ex4.3"), 2, 2, window)


def test_build_isolating_code_rejects_block_fillers():
    s = gallery("ex3.5")
    tree = hole_tree(s, 4, 5)
    branch = tree.branches(limit=1)[0]
    iso = isolated_value_pair(hole_tree(s, 3), branch[:3], "a", "b")
    with pytest.raises(NotIsolated):
        build_isolating_code(s, branch, "a", l1=2, l2=2, certificate=iso)


def test_build_isolating_code_refuses_a_letter_outside_the_alphabet():
    s = gallery("ex4.3")
    iso = isolated_value_pair(hole_tree(s, 8, 10), EX43_BRANCH, "a", "b")
    with pytest.raises(UnknownLetters, match="'c'"):
        build_isolating_code(s, EX43_BRANCH, "c", l1=5, l2=5, certificate=iso)


def test_isolating_code_ex43_chain():
    s = gallery("ex4.3")
    tree = hole_tree(s, 8, 10)
    iso = isolated_value_pair(tree, EX43_BRANCH, "a", "b")
    assert iso.kind == IsolationKind.CERTIFIED
    code = build_isolating_code(s, EX43_BRANCH, "a", l1=5, l2=5, certificate=iso)
    assert code.radius == s.period(5)
    for l in range(1, 6):
        fr = factor_aperiodic_residues(code, s, l, 7)
        assert fr.nonperiodic == (EX43_BRANCH[l - 1],)
        assert not fr.undetermined


def test_build_isolating_code_refuses_a_branch_the_certificate_did_not_judge():
    s = gallery("ex4.3")
    iso = isolated_value_pair(hole_tree(s, 8, 10), EX43_BRANCH, "a", "b")
    assert iso.kind == IsolationKind.CERTIFIED
    foreign = (1, 5, 21, 85, 597, 1621, 5717, 22101)  # a surviving branch that leaves EX43_BRANCH at level 5
    with pytest.raises(NotIsolated, match="judged the branch"):
        build_isolating_code(s, foreign, "a", l1=5, l2=5, certificate=iso)


def test_isolating_code_ex44_chain_large_scale():
    s = gallery("ex4.4")
    chain = tuple(s.holes(l)[0] for l in range(1, 6))
    tree = hole_tree(s, 2, 3)
    iso = isolated_value_pair(tree, chain[:2], "a", "b")
    code = build_isolating_code(s, chain, "a", l1=1, l2=1, certificate=iso)
    for l in (4, 5):  # far beyond any explicit pattern
        fr = factor_aperiodic_residues(code, s, l, l + 2)
        assert fr.nonperiodic == (chain[l - 1],) and not fr.undetermined


def test_exceptional_factor_residues_lie_near_a_source_hole():
    # read off the code's image of the depth-5 pattern, not off factor_residues, so a residue away
    # from every hole that came out exceptional would show
    s = gallery("ex5.7")
    rng = random.Random(29)
    codes = [gallery_code("ex5.7"), IDENTITY, SlidingBlockCode.from_fn(BINARY, 0, lambda w: "b")]
    codes += [SlidingBlockCode.from_fn(BINARY, rng.choice((1, 2)), lambda w: rng.choice("ab")) for _ in range(8)]
    for code in codes:
        pat = apply_code(code, s.pattern(5))
        for l in (1, 2, 3):
            classes = classify_residues(pat, s.period(l))
            assert set(classes.nonperiodic + classes.undetermined) <= set(hole_reach(s, l, code.radius)), l


def test_obstruction_growth_on_block_filler():
    s = gallery("ex3.5")
    for code in (IDENTITY, gallery_code("ex5.7")):
        growth = factor_obstruction_check(code, s, 3, l0=1)
        for l, count in growth:
            assert count >= 2 ** (l - 1)


def test_factor_hole_bound_under_codes():
    s = gallery("ex5.7")

    rng = random.Random(7)
    for _ in range(5):
        radius = rng.choice((0, 1, 2))
        code = SlidingBlockCode.from_fn(BINARY, radius, lambda w: rng.choice("ab"))
        for l in (1, 2, 3):
            fr = factor_aperiodic_residues(code, s, l, 6)
            assert len(fr.nonperiodic) + len(fr.undetermined) <= (2 * radius + 1) * len(s.holes(l))


def test_code_text_roundtrip():
    full = gallery_code("ex5.7")
    with_default = SlidingBlockCode(BINARY, 1, {"aaa": "a", "aba": "b", "bbb": "b"}, default="a")
    # a full table whose outputs tie takes the first letter as its default
    tied = SlidingBlockCode(BINARY, 0, {"a": "b", "b": "a"})
    assert (tied.table, tied.default) == ({"a": "b"}, "a")
    # a listed window mapped to the default is dropped
    assert with_default.table == {"aba": "b", "bbb": "b"}
    for code in (full, with_default, tied):
        text = code_to_text(code)
        assert text.endswith("* %s\n" % code.default)
        back = code_from_text(text, BINARY)
        assert (back.radius, back.table, back.default) == (code.radius, code.table, code.default)


def test_marker_code_rejects_letters_outside_alphabet():
    with pytest.raises(ToeplitzError):
        SlidingBlockCode(BINARY, 0, {"c": "a", "a": "a"}, default="b")
    with pytest.raises(ToeplitzError):
        SlidingBlockCode(BINARY, 0, {"a": "c"}, default="b")
    with pytest.raises(ToeplitzError):
        SlidingBlockCode(BINARY, 0, {"a": "a"}, default="c")
    with pytest.raises(ToeplitzError):
        code_from_text("radius 0\nc a\na a\n* b\n", BINARY)
    # the window width 2 * radius + 1 lies between 1 and the pattern cap
    for radius in (-1, 1000000000):
        with pytest.raises(ToeplitzError, match="radius"):
            SlidingBlockCode(BINARY, radius, {}, default="a")
    # an output is one letter, neither empty nor two letters
    for text in ("radius 0\na\nb a\n", "radius 0\na ab\nb a\n", "radius 1\naaa\n* b\n"):
        with pytest.raises(ToeplitzError):
            code_from_text(text, BINARY)


@pytest.mark.parametrize("alphabet, radius", [
    (BINARY, 11),  # 2^23 windows, about 8M, past the cap
    (BINARY, 10 ** 9),  # used to build a product pool of about 2 * 10^9 entries
    (BINARY, -1),  # used to raise ValueError from the product
    (Alphabet("abc"), 7),  # 3^15 windows
    (Alphabet("a"), 10 ** 9),  # one window, but past the cap's width
])
def test_from_fn_refuses_a_table_past_the_cap_before_listing_a_window(alphabet, radius):
    def fn(window):
        raise AssertionError("fn was called on a window of width %d" % len(window))

    with pytest.raises(ToeplitzError, match="radius %d" % radius):
        SlidingBlockCode.from_fn(alphabet, radius, fn)


def test_from_fn_keeps_a_one_letter_table_up_to_the_cap_width():
    code = SlidingBlockCode.from_fn(Alphabet("a"), 1000, lambda w: "a")
    assert (code.table, code.default) == ({}, "a")


def count_code_outputs(monkeypatch):
    """The widths of the windows ``factors.code_output`` reads, collected from now on."""
    calls, original = [], factors.code_output

    def counted(code, window):
        calls.append(len(window))
        return original(code, window)
    monkeypatch.setattr(factors, "code_output", counted)
    return calls


def test_a_holed_stretch_is_imaged_through_its_fitting_starts(monkeypatch):
    # 3 table words against 3393 hole windows of width 2049: the stretch's bitsets image them all
    s = gallery("ex4.3")
    iso = isolated_value_pair(hole_tree(s, 8, 10), EX43_BRANCH, "a", "b")
    code = build_isolating_code(s, EX43_BRANCH, "a", l1=5, l2=5, certificate=iso)
    pat = s.pattern(7)
    calls = count_code_outputs(monkeypatch)
    image = apply_code(code, pat)
    assert calls == [] and len(code.table) == 3
    assert classify_residues(image, s.period(5)).nonperiodic == (EX43_BRANCH[4],)
    # the pattern's hole windows lie in two copies of one stretch; reading them one by one took 3393 calls
    assert len(hole_reach(s, 7, code.radius)) == 2 * 3393


def test_a_long_table_keeps_one_code_output_read_per_hole_window(monkeypatch):
    # 65536 listed windows of width 17 against at most 80 hole windows per stretch
    code = SlidingBlockCode.from_fn(BINARY, 8, lambda w: "a" if w[8] == w[7] else "b")
    pat = gallery("ex5.7").pattern(6)
    calls = count_code_outputs(monkeypatch)
    image = apply_code(code, pat)
    assert len(code.table) == 65536 and calls and set(calls) == {17}
    assert image.symbols == "".join(code_output(code, pat.window(j - 8, j + 9)) for j in range(pat.period))


@pytest.mark.parametrize("text", [
    "radius 0\na a\na b\nb a\n",  # used to parse to the table {'a': 'b', 'b': 'a'}
    "radius 0\nradius 1\na a\nb b\n",
    "radius 0\na a\n* b\n* a\n",
])
def test_code_text_rejects_a_repeated_key(text):
    with pytest.raises(ToeplitzError, match="twice"):
        code_from_text(text, BINARY)


def test_factor_isolation_implies_source_isolation_on_separated_holes():
    # with one hole per period the code sees at most one unresolved class,
    # so a single-chain factor can only arise from a source that already
    # carries an isolated pair; exercised as an implication harness
    s = gallery("ex4.4-mini")
    chain = tuple(s.holes(l)[0] for l in range(1, 4))
    tree = hole_tree(s, 3, 4)
    source_iso = isolated_value_pair(tree, chain, "a", "b")
    for code in (IDENTITY, gallery_code("ex5.7")):
        factor_chain = all(
            len(factor_aperiodic_residues(code, s, l, l + 2).nonperiodic) <= 1
            for l in (1, 2, 3)
        )
        if factor_chain:
            assert source_iso.kind == IsolationKind.CERTIFIED


def test_unique_residue_holds_small_pair():
    s = gallery("ex5.7")
    cert = unique_residue_search(s, 1, 3, (0, 2 * 4 ** 4), depth=6)
    assert cert.holds
