import pytest

from toeplitz_lab import (
    BINARY,
    FillingSchedule,
    HOLE,
    IsolationKind,
    MarkerCode,
    SlidingBlockCode,
    apply_code,
    boundary_pullback_check,
    build_isolating_code,
    code_from_text,
    code_to_text,
    factor_aperiodic_residues,
    factor_obstruction_check,
    find_unique_residue_level,
    gallery,
    gallery_code,
    hole_tree,
    isolated_value_pair,
    parse_seed,
    unique_residue_search,
)
from toeplitz_lab.errors import NotIsolated, ToeplitzError

EX43_BRANCH = tuple((4 ** l - 1) // 3 for l in range(1, 9))
IDENTITY = SlidingBlockCode.from_fn(BINARY, 0, lambda w: w)


def test_apply_identity_and_constant():
    s = gallery("ex5.7")
    pat = s.pattern(3)
    assert apply_code(IDENTITY, pat).symbols == pat.symbols
    out = apply_code(SlidingBlockCode.from_fn(BINARY, 0, lambda w: "a"), pat)
    assert set(out.symbols) == {"a"}


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
    s = gallery("ex4.4")
    code = gallery_code("ex5.7")
    from toeplitz_lab.factors import _sparse_factor_residues

    for l in (1, 2):
        full = factor_aperiodic_residues(code, s, l, 3)
        sparse = _sparse_factor_residues(code, s, l, 3)
        assert full.nonperiodic == sparse.nonperiodic
        assert set(sparse.undetermined) <= set(full.undetermined) | set(full.nonperiodic)


def test_unique_residue_certificates():
    s43 = gallery("ex4.3")
    cert = unique_residue_search(s43, 5, 5, (0, 2 * s43.period(6)))
    assert cert.holds
    bad = unique_residue_search(gallery("ex5.7"), 2, 1, (0, 128), depth=6)
    assert not bad.holds
    j1, j2 = bad.counterexample
    assert (j1 - j2) % 16 != 0


def test_unique_residue_constant_word():
    s = FillingSchedule(BINARY, [parse_seed("a?a"), parse_seed("a")])
    cert = unique_residue_search(s, 1, 1, (0, 16), depth=2)
    assert not cert.holds


def test_find_unique_residue_level():
    assert find_unique_residue_level(gallery("ex4.4"), 1, max_l2=3).l2 == 1
    assert find_unique_residue_level(gallery("ex4.3"), 5, max_l2=7).l2 == 5


def test_build_isolating_code_rejects_block_fillers():
    s = gallery("ex3.5")
    tree = hole_tree(s, 4, 5)
    branch = tree.branches(limit=1)[0]
    with pytest.raises(NotIsolated):
        build_isolating_code(s, branch, "a", l1=2, l2=2)


def test_isolating_code_ex43_chain():
    s = gallery("ex4.3")
    tree = hole_tree(s, 8, 10)
    iso = isolated_value_pair(tree, EX43_BRANCH, "a", "b")
    assert iso.kind == IsolationKind.CERTIFIED
    code = build_isolating_code(s, EX43_BRANCH, "a", l1=5, l2=5, certificate=iso)
    assert code.radius == s.period(5)
    assert code.metadata["saturated"]
    for l in range(1, 6):
        fr = factor_aperiodic_residues(code, s, l, 7)
        assert fr.nonperiodic == (EX43_BRANCH[l - 1],)
        assert not fr.undetermined


def test_isolating_code_ex44_chain_large_scale():
    s = gallery("ex4.4")
    chain = tuple(s.holes(l)[0] for l in range(1, 6))
    tree = hole_tree(s, 2, 3)
    iso = isolated_value_pair(tree, chain[:2], "a", "b")
    code = build_isolating_code(s, chain, "a", l1=1, l2=1, certificate=iso)
    for l in (4, 5):  # far beyond any explicit pattern
        fr = factor_aperiodic_residues(code, s, l, l + 2)
        assert fr.nonperiodic == (chain[l - 1],) and not fr.undetermined


def test_pullback_reports():
    s = gallery("ex5.7")
    reports = boundary_pullback_check(gallery_code("ex5.7"), s, 3)
    assert all(r.holds for r in reports)
    assert all(r.holds for r in boundary_pullback_check(IDENTITY, s, 3))
    const = SlidingBlockCode.from_fn(BINARY, 0, lambda w: "b")
    assert all(not r.checked for r in boundary_pullback_check(const, s, 2))


def test_obstruction_growth_on_block_filler():
    s = gallery("ex3.5")
    for code in (IDENTITY, gallery_code("ex5.7")):
        growth = factor_obstruction_check(code, s, 3, l0=1)
        for l, count in growth:
            assert count >= 2 ** (l - 1)


def test_factor_hole_bound_under_codes():
    s = gallery("ex5.7")
    import random

    rng = random.Random(7)
    for _ in range(5):
        radius = rng.choice((0, 1, 2))
        code = SlidingBlockCode.from_fn(BINARY, radius, lambda w: rng.choice("ab"))
        for l in (1, 2, 3):
            fr = factor_aperiodic_residues(code, s, l, 6)
            assert len(fr.nonperiodic) + len(fr.undetermined) <= (2 * radius + 1) * len(s.holes(l))


def test_code_text_roundtrip():
    table_code = gallery_code("ex5.7")
    back = code_from_text(code_to_text(table_code), BINARY)
    assert all(back(w) == table_code(w) for w in table_code.table)
    marker = MarkerCode(BINARY, 1, frozenset(["aaa", "aba"]), "a", "b")
    back2 = code_from_text(code_to_text(marker), BINARY)
    assert isinstance(back2, MarkerCode)
    assert back2.marked == marker.marked and back2.radius == 1


def test_marker_code_rejects_letters_outside_alphabet():
    with pytest.raises(ToeplitzError):
        MarkerCode(BINARY, 0, frozenset(["c", "a"]), "a", "b")
    with pytest.raises(ToeplitzError):
        MarkerCode(BINARY, 0, frozenset(["a"]), "c", "b")
    with pytest.raises(ToeplitzError):
        MarkerCode(BINARY, 0, frozenset(["a"]), "a", "c")
    with pytest.raises(ToeplitzError):
        code_from_text("radius 0\nc a\na a\n* b\n", BINARY)
    # an output is one letter, neither empty nor two letters
    for text in ("radius 0\na\nb a\n", "radius 0\na ab\nb a\n", "radius 1\naaa\n* b\n"):
        with pytest.raises(ToeplitzError):
            code_from_text(text, BINARY)


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
