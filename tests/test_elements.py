import pytest

from toeplitz_lab import (
    Alphabet,
    FillingSchedule,
    Shift,
    ShiftLimit,
    branch_point,
    branch_rule,
    eval_element,
    evaluate,
    fiber_block_contents,
    fiber_prefix_count,
    finite_fiber_nonasymptotic_witness,
    gallery,
    hole_tree,
    pair_report,
    parse_seed,
    phi_prefix,
    proximal_shift_pair,
)
from toeplitz_lab.errors import ToeplitzError
from toeplitz_lab.odometer import OdometerPoint


def test_shift_matches_plain_evaluation():
    s = gallery("ex5.7")
    for n in (0, 3, -7):
        for j in range(-20, 20):
            assert eval_element(s, Shift(n), j, 4) == evaluate(s, j + n, 4)


def test_shift_limit_stabilization_contract():
    s = gallery("ex5.7")
    stable = ShiftLimit(lambda k: 16, k_stop=8)
    assert eval_element(s, stable, 0, 4) == evaluate(s, 16, 4)
    flip = ShiftLimit(lambda k: 0 if k % 2 else 3, k_stop=12)
    assert eval_element(s, flip, 0, 4) is None


def test_pair_report_symmetry_and_trivial_pair():
    s = gallery("ex5.7")
    rep = pair_report(s, Shift(0), Shift(0), 4, windows=[(-32, 32)])
    assert rep.phi_agreement_depth == 4
    assert rep.censuses[0].resolved_differences == 0
    a = pair_report(s, Shift(6), Shift(198), 3, windows=[(-32, 32)], eval_level=6)
    b = pair_report(s, Shift(198), Shift(6), 3, windows=[(-32, 32)], eval_level=6)
    assert a.censuses[0].resolved_differences == b.censuses[0].resolved_differences
    assert a.phi_agreement_depth == b.phi_agreement_depth


def test_differences_confined_to_hole_classes():
    s = gallery("ex5.7")
    for l in (2, 3):
        n1, n2 = proximal_shift_pair(l)
        rep = pair_report(s, Shift(n1), Shift(n2), l, windows=[(-(4 ** l), 4 ** l)], eval_level=l + 4)
        agree = rep.phi_agreement_depth
        assert agree >= l
        holes = set(s.holes(agree))
        p = s.period(agree)
        for j in rep.censuses[0].difference_positions:
            assert (j + n1) % p in holes


def test_equal_phi_prefix_is_equivalence_on_shifts():
    s = gallery("ex4.3")
    depth = 3
    classes = {}
    for n in range(40):
        key = phi_prefix(s, Shift(n), depth).residues
        classes.setdefault(key, []).append(n)
    for key, members in classes.items():
        assert all((m - members[0]) % s.period(depth) == 0 for m in members)


def test_fiber_count_on_orbit_is_one():
    s = gallery("ex5.7")
    w = branch_point(s, tuple(17 % s.period(l) for l in range(1, 7)))
    assert fiber_prefix_count(s, w, 2, depth=8, block_range=24) == 1


def test_fiber_counts_ex57():
    s = gallery("ex5.7")
    br = branch_point(s, tuple((4 ** l - 1) // 3 for l in range(1, 6)))
    for l in (2, 3, 4):
        assert fiber_prefix_count(s, br.truncate(l), l, depth=l + 3, block_range=40) <= 4


def test_fiber_contents_ex35_enumeration():
    # single-marked fill words: the block contents are the all-a word plus
    # one word per marked slot, 2^{l+1} + 1 in total
    s = gallery("ex3.5")
    tree = hole_tree(s, 4, 5)
    br = branch_point(s, tree.branches(limit=1)[0])
    for l in (1, 2):
        n = fiber_prefix_count(s, br.truncate(l), l, depth=5, block_range=80)
        assert n == 2 ** (l + 1) + 1


def test_fiber_bound_williams():
    s = gallery("williams", ratio=4)
    tree = hole_tree(s, 3, 5)
    br = branch_point(s, tree.branches(limit=1)[0])
    assert fiber_prefix_count(s, br.truncate(2), 2, depth=6, block_range=40) <= len(s.alphabet)


def test_branch_pair_census_ex35():
    s = gallery("ex3.5")
    tree = hole_tree(s, 4, 5)
    seen_nonzero = False
    for br in tree.branches(limit=6):
        rep = pair_report(
            s, branch_rule(s, br), branch_rule(s, br, block_offset=1),
            depth=3, windows=[(-20, 20), (-60, 60)], eval_level=6,
        )
        assert rep.phi_agreement_depth >= 3
        for c in rep.censuses:
            assert c.resolved_differences <= 2
            seen_nonzero = seen_nonzero or c.resolved_differences > 0
    assert seen_nonzero


def test_single_hole_pairs_differ_at_most_once():
    s = gallery("ex4.4-mini")
    chain = tuple(s.holes(l)[0] for l in range(1, 4))
    rep = pair_report(
        s, branch_rule(s, chain), branch_rule(s, chain, block_offset=1),
        depth=3, windows=[(-6, 6)], eval_level=5,
    )
    assert rep.censuses[0].resolved_differences <= 1


def test_nonasymptotic_witnesses():
    s57 = gallery("ex5.7")
    br = branch_point(s57, tuple((4 ** l - 1) // 3 for l in range(1, 5)))
    w = finite_fiber_nonasymptotic_witness(s57, br, depth=8, levels=(2, 3, 4))
    assert w is not None and w.growing
    assert [c for _, c in w.level_censuses] == [4, 8, 16]

    mini = gallery("ex4.4-mini")
    chain = tuple(mini.holes(l)[0] for l in range(1, 4))
    assert finite_fiber_nonasymptotic_witness(mini, branch_point(mini, chain), depth=5, levels=(1, 2)) is None

    wil = gallery("williams", ratio=4)
    tree = hole_tree(wil, 3, 5)
    brw = branch_point(wil, tree.branches(limit=1)[0])
    ww = finite_fiber_nonasymptotic_witness(wil, brw, depth=6, levels=(1, 2, 3))
    assert ww is not None
    # constant-on-hole contents differ everywhere: census equals hole count
    assert [c for _, c in ww.level_censuses] == [len(wil.holes(l)) for l in (1, 2, 3)]


def test_fiber_block_contents_resolved_only():
    s = gallery("ex5.7")
    br = branch_point(s, (1, 5, 21))
    contents = fiber_block_contents(s, br.truncate(2), 2, depth=6, block_range=30)
    assert all("?" not in c and len(c) == 16 for c in contents)
    assert len(contents) <= 4


def test_shift_limit_along_proximal_rule():
    from toeplitz_lab import proximal_shift_pair

    s = gallery("ex5.7")
    rule = ShiftLimit(lambda k: proximal_shift_pair(k)[0], k_stop=8)
    # the rule's positions all resolve to the same letter once deep enough
    assert eval_element(s, rule, 0, 10) == "b"
    for l in range(3, 7):
        assert evaluate(s, proximal_shift_pair(l)[0], 8) == "b"
    assert phi_prefix(s, rule, 4).residues == (2, 6, 38, 102)


def test_shift_limit_letter_is_not_withdrawn_deeper():
    # the last three rule values read b, b, then a hole that level 2 resolves to a
    ab = Alphabet("ab")
    s = FillingSchedule(ab, [parse_seed(w, ab) for w in ("b?ab", "a?ab", "bb?b", "aaa")])
    limit = ShiftLimit(lambda k: (23, 3, 3, 17)[k - 1], k_stop=5)
    assert [evaluate(s, n, 1) for n in (23, 3, 17)] == ["b", "b", None]
    assert evaluate(s, 17, 2) == "a"
    for max_level in range(1, 5):
        assert eval_element(s, limit, 0, max_level) is None
    # the proximal rule's 7th value (shift 26214) is still a hole at depth 8
    s57 = gallery("ex5.7")
    rule = ShiftLimit(lambda k: proximal_shift_pair(k)[0], k_stop=8)
    assert evaluate(s57, 26214, 8) is None
    assert eval_element(s57, rule, 0, 8) is None


def test_pair_report_refuses_a_reversed_window():
    s = gallery("ex5.7")
    with pytest.raises(ToeplitzError, match=r"window \(10, -10\) ends before it starts"):
        pair_report(s, Shift(1), Shift(5), 3, windows=[(-10, 10), (10, -10)])
    # lo == hi is a one-position window
    assert pair_report(s, Shift(1), Shift(5), 3, windows=[(4, 4)]).censuses[0].window == (4, 4)


def test_fibers_refuse_a_point_of_depth_zero():
    s = gallery("ex5.7")
    with pytest.raises(ToeplitzError, match="depth 0"):
        fiber_block_contents(s, OdometerPoint((), ()), 2, 5)
    with pytest.raises(ToeplitzError, match="depth 0"):
        fiber_prefix_count(s, OdometerPoint((), ()), 2, 5)


@pytest.mark.parametrize("block_range", [0, -3])
def test_fibers_refuse_a_block_range_below_one(block_range):
    s = gallery("ex5.7")
    point = branch_point(s, hole_tree(s, 2, 5).branches(limit=1)[0]).truncate(2)
    with pytest.raises(ToeplitzError, match="block_range"):
        fiber_block_contents(s, point, 2, 5, block_range=block_range)
    with pytest.raises(ToeplitzError, match="block_range"):
        fiber_prefix_count(s, point, 2, 5, block_range=block_range)


def test_nonasymptotic_witness_refuses_empty_levels():
    s57 = gallery("ex5.7")
    br = branch_point(s57, tuple((4 ** l - 1) // 3 for l in range(1, 5)))
    with pytest.raises(ToeplitzError, match="no levels"):
        finite_fiber_nonasymptotic_witness(s57, br, depth=8, levels=[])
    # any iterable of levels is read once, as a list
    w = finite_fiber_nonasymptotic_witness(s57, br, depth=8, levels=iter((2, 3, 4)))
    assert [c for _, c in w.level_censuses] == [4, 8, 16]
