import pytest

from toeplitz_lab import (
    BINARY,
    FillingSchedule,
    IsolationKind,
    VerdictKind,
    gallery,
    hole_tree,
    isolated_value_pair,
    oxtoby_no_isolation_check,
    parse_seed,
    property_verdicts,
    pruned_branch_census,
    schedule_from_text,
)
from toeplitz_lab.errors import NotOxtoby, ToeplitzError, UnknownLetters

EX43_BRANCH = tuple((4 ** l - 1) // 3 for l in range(1, 9))


def test_tree_node_counts_ex43():
    tree = hole_tree(gallery("ex4.3"), 4, 6)
    assert [len(tree.nodes(l)) for l in range(1, 5)] == [2, 2, 4, 4]
    assert sorted(tree.nodes(4)) == [85, 101, 149, 165]


def test_tree_chain_ex44_mini():
    tree = hole_tree(gallery("ex4.4-mini"), 3, 4)
    assert all(len(tree.nodes(l)) == 1 for l in (1, 2, 3))
    assert pruned_branch_census(tree) == [1, 1, 1]


def test_tree_empty_beyond_periodic_level():
    s = FillingSchedule(BINARY, [parse_seed("a?b"), parse_seed("ab"), parse_seed("ab")])
    tree = hole_tree(s, 3, 3)
    assert len(tree.nodes(1)) == 1 and not tree.nodes(2) and not tree.nodes(3)
    # holes still open after the last seed: a deeper tree is refused before any level is built
    with pytest.raises(ToeplitzError, match="no seed at level 3"):
        hole_tree(schedule_from_text("ab\na?b\na?b\n"), 10 ** 9)


def test_value_sets_shrink_along_branches():
    for name in ("ex4.3", "ex5.7", "ex3.5"):
        tree = hole_tree(gallery(name), 4, 6)
        for l in range(2, 5):
            p = tree.schedule.period(l - 1)
            for r, values in tree.nodes(l).items():
                assert values <= tree.nodes(l - 1)[r % p]


def test_surviving_branches_carry_two_letters():
    tree = hole_tree(gallery("ex4.3"), 6, 8)
    surv = tree.survivors()
    for l in (1, 2, 3):
        for r in surv[l - 1]:
            assert len(tree.nodes(l)[r]) == 2


def test_census_ex43_depth8():
    tree = hole_tree(gallery("ex4.3"), 8, 10)
    census = pruned_branch_census(tree)
    assert census[:4] == [1, 1, 1, 1]
    assert sorted(tree.survivors()[3]) == [85]


def test_branches_limit_skips_dead_partial_chains():
    # the four lowest level-2 chains, (2, 16), (2, 23), (2, 30) and (3, 3), have no level-3 hole below
    s = FillingSchedule(BINARY, [parse_seed("ba????b"), parse_seed("a???a"), parse_seed("bb?a")])
    tree = hole_tree(s, 3)
    assert tree.branches(limit=1) == [(3, 31, 31)]
    assert tree.branches() == [(3, 31, 31), (5, 5, 5), (5, 19, 19)]


def test_census_ex57_no_pruning():
    tree = hole_tree(gallery("ex5.7"), 5, 7)
    assert pruned_branch_census(tree) == [2 ** l for l in range(1, 6)]


def test_property_verdicts_bounded_holes():
    pv = property_verdicts(gallery("ex4.4"), 4, census_depth=2)
    assert pv.fb.kind == VerdictKind.CERTIFIED_STRUCTURALLY
    assert pv.fpc.kind == VerdictKind.CERTIFIED_STRUCTURALLY
    assert pv.hs.kind == VerdictKind.CERTIFIED_STRUCTURALLY
    assert pv.hole_counts == (1, 1, 1, 1)


def test_property_verdicts_oxtoby_refutes():
    for name in ("ex3.5", "ex5.7"):
        pv = property_verdicts(gallery(name), 4, census_depth=3)
        assert pv.hs.kind == VerdictKind.REFUTED
        assert pv.fb.kind == VerdictKind.REFUTED
        assert pv.fpc.kind == VerdictKind.UNKNOWN


def test_property_verdicts_declared_singleton():
    pv = property_verdicts(gallery("ex4.3"), 6, census_depth=6)
    assert pv.fb.kind == VerdictKind.CERTIFIED_STRUCTURALLY
    assert pv.census[:3] == (1, 1, 1)


def test_property_verdicts_census_past_the_pattern_cap():
    # the level-12 period 4^12 is past the pattern cap; the census needs only the hole sets
    pv = property_verdicts(gallery("ex4.3"), 12)
    assert pv.census == (1, 1, 1, 1, 1, 1, 2, 4, 8, 16, 32, 64)
    assert pv.fb.kind == VerdictKind.CERTIFIED_STRUCTURALLY


def test_property_verdicts_plain_schedule_unknown():
    s = FillingSchedule(BINARY, [parse_seed("a??b"), parse_seed("aa?a?bbb"), parse_seed("aa????bb")])
    pv = property_verdicts(s, 2, census_depth=2)
    assert pv.fb.kind == VerdictKind.UNKNOWN


def test_isolated_value_pair_chain():
    s = gallery("ex4.4-mini")
    tree = hole_tree(s, 3, 4)
    chain = [s.holes(l)[0] for l in (1, 2, 3)]
    verdict = isolated_value_pair(tree, chain, "a", "b")
    assert verdict.kind == IsolationKind.CERTIFIED and verdict.level == 1


def test_isolated_value_pair_ex43():
    tree = hole_tree(gallery("ex4.3"), 8, 10)
    verdict = isolated_value_pair(tree, EX43_BRANCH, "a", "b")
    assert verdict.kind == IsolationKind.CERTIFIED and verdict.level == 1


def test_isolated_value_pair_refuted_on_block_fillers():
    for name in ("ex3.5", "ex5.7"):
        tree = hole_tree(gallery(name), 4, 6)
        for branch in tree.branches(limit=4):
            assert isolated_value_pair(tree, branch, "a", "b").kind == IsolationKind.REFUTED


def test_binary_isolation_matches_isolated_node():
    # with two letters, carrying both values is the generic situation, so
    # the verdict coincides with plain isolated-node pruning
    s = gallery("ex4.3")
    tree = hole_tree(s, 8, 10)
    verdict = isolated_value_pair(tree, EX43_BRANCH, "a", "b")
    surv = tree.survivors()
    settled = tree.depth // 2
    node_isolated = all(
        {r for r in surv[d - 1] if r % 4 == 1} == {EX43_BRANCH[d - 1]} for d in range(1, settled + 1)
    )
    assert (verdict.kind == IsolationKind.CERTIFIED) == node_isolated


def test_isolated_value_pair_refuses_an_incoherent_branch():
    # 5 is a level-2 hole and 2 a level-1 hole, but 5 lies below 1, not 2
    tree = hole_tree(gallery("ex4.3"), 2)
    with pytest.raises(ToeplitzError, match="not below"):
        isolated_value_pair(tree, (2, 5), "a", "b")


def test_isolated_value_pair_records_the_judged_branch():
    tree = hole_tree(gallery("ex4.3"), 3, 5)
    assert isolated_value_pair(tree, EX43_BRANCH, "a", "b").branch == EX43_BRANCH[:3]


def test_isolated_value_pair_rejects_bad_letters():
    tree = hole_tree(gallery("ex4.3"), 3, 5)
    with pytest.raises(UnknownLetters):
        isolated_value_pair(tree, EX43_BRANCH[:3], "a", "a")
    with pytest.raises(UnknownLetters):
        isolated_value_pair(tree, EX43_BRANCH[:3], "a", "z")


def test_no_isolation_witnesses():
    for name in ("ex3.5", "ex5.7"):
        s = gallery(name)
        wits = oxtoby_no_isolation_check(s, 3)
        covered = {(w.level, w.residue) for w in wits}
        assert covered == {(l, r) for l in (1, 2, 3) for r in s.holes(l)}
        for w in wits:
            assert w.block_multiple >= 1
            assert w.sibling % s.period(w.level) == w.residue


def test_no_isolation_requires_block_filling():
    with pytest.raises(NotOxtoby):
        oxtoby_no_isolation_check(gallery("ex4.4-mini"), 3)


def test_no_isolation_refuses_depth_zero():
    # depth 0 asks for the depth-1 certificate, which compares no pair of levels
    with pytest.raises(NotOxtoby, match="no pair of levels"):
        oxtoby_no_isolation_check(gallery("ex4.4"), 0)


def test_property_verdicts_refute_nothing_from_a_single_level():
    # ex3.5 declares block filling; depth 1 has no pair of levels to certify it on
    v = property_verdicts(gallery("ex3.5"), 1)
    assert (v.hs.kind, v.fb.kind) == (VerdictKind.UNKNOWN, VerdictKind.UNKNOWN)
    v = property_verdicts(gallery("ex3.5"), 2)
    assert (v.hs.kind, v.fb.kind) == (VerdictKind.REFUTED, VerdictKind.REFUTED)


def test_branches_refuse_a_negative_limit():
    tree = hole_tree(gallery("ex3.5"), 3)
    assert len(tree.branches()) == 16 and tree.branches(limit=0) == []
    with pytest.raises(ToeplitzError, match="branch limit"):
        tree.branches(limit=-1)


def test_hole_tree_refuses_depth_below_one():
    with pytest.raises(ToeplitzError, match="tree depth"):
        hole_tree(gallery("ex4.3"), 0)


def test_depth_one_tree_is_inconclusive():
    tree = hole_tree(gallery("ex4.3"), 1, 3)
    verdict = isolated_value_pair(tree, (1,), "a", "b")
    assert verdict.kind == IsolationKind.UNKNOWN
