from math import inf

import pytest

from toeplitz_lab import (
    Membership,
    OdometerPoint,
    Relation,
    Shift,
    ShiftLimit,
    branch_point,
    cps_window_member,
    embed,
    gallery,
    matching_shift,
    odometer_relation,
    phi_prefix,
    prime_profile,
    rotate,
)
from toeplitz_lab.errors import ToeplitzError, UnresolvedElement


def test_embed_examples():
    s = gallery("ex4.3")
    assert embed(s, 5, 3).residues == (1, 5, 5)
    assert embed(s, 0, 4).residues == (0, 0, 0, 0)
    assert embed(s, 85, 4).residues == (1, 5, 21, 85)


def test_coherence_enforced():
    with pytest.raises(ValueError):
        OdometerPoint((4, 16), (1, 6))
    with pytest.raises(ValueError):
        OdometerPoint((4, 16), (1, 17))


def test_rotate_examples():
    s = gallery("ex4.3")
    assert rotate(embed(s, 1, 3), 3).residues == embed(s, 4, 3).residues
    w = embed(s, 7, 4)
    assert rotate(w, 0) == w
    assert rotate(rotate(w, 5), -9) == rotate(w, -4)


def test_phi_prefix_shift_law():
    s = gallery("ex4.3")
    assert phi_prefix(s, Shift(0), 3).residues == (0, 0, 0)
    assert phi_prefix(s, Shift(7), 2).residues == (3, 7)
    for n in (3, 10, -5):
        for m in (1, 6):
            lhs = phi_prefix(s, Shift(n + m), 3)
            rhs = rotate(phi_prefix(s, Shift(n), 3), m)
            assert lhs == rhs


def test_matching_shift_cross_check():
    for name in ("ex4.3", "ex5.7"):
        s = gallery(name)
        for n in (0, 2, 9, 31):
            for l in (1, 2):
                assert matching_shift(s, l, Shift(n), resolution=5) == n % s.period(l)


def test_phi_prefix_shift_limit():
    s = gallery("ex5.7")
    rule = ShiftLimit(lambda k: 5 if k > 2 else k, k_start=1, k_stop=9)
    assert phi_prefix(s, rule, 2).residues == (1, 5)
    wobble = ShiftLimit(lambda k: k, k_start=1, k_stop=9)
    with pytest.raises(UnresolvedElement):
        phi_prefix(s, wobble, 2)


def test_prime_profile_examples():
    prof = prime_profile([4 ** l for l in range(1, 6)], 10)
    assert prof.record(2).value == 10 and prof.record(2).saturated
    for q in (3, 5, 7):
        assert prof.record(q).value == 0 and not prof.record(q).saturated
    prof6 = prime_profile([6 ** l for l in range(1, 4)], 10)
    assert prof6.record(2).value == 3 and prof6.record(2).saturated
    assert prof6.record(3).value == 3 and prof6.record(3).saturated
    prof23 = prime_profile([2 * 3 ** l for l in range(1, 4)], 10)
    assert prof23.record(2).value == 1 and not prof23.record(2).saturated
    assert prof23.record(3).saturated


def test_odometer_relation_verdicts():
    pa = prime_profile([2 ** m for m in range(1, 6)], 10, declared={2: inf})
    pb = prime_profile([6 ** m for m in range(1, 6)], 10, declared={2: inf, 3: inf})
    assert odometer_relation(pa, pb).kind == Relation.FACTOR_OF_CERTIFIED
    pc = prime_profile([2 * 3 ** l for l in range(1, 6)], 10, declared={2: 1, 3: inf})
    pd = prime_profile([4 ** l for l in range(1, 6)], 10, declared={2: inf})
    r = odometer_relation(pc, pd)
    assert r.kind == Relation.NOT_FACTOR and r.witness_prime == 3
    pe = prime_profile([2 ** l for l in range(1, 6)], 10, declared={2: inf})
    assert odometer_relation(pd, pe).kind == Relation.ISOMORPHIC_CERTIFIED
    # without declarations nothing positive is certified
    assert odometer_relation(
        prime_profile([4 ** l for l in range(1, 6)], 10),
        prime_profile([2 ** l for l in range(1, 6)], 10),
    ).kind == Relation.UNKNOWN
    # saturation still refutes
    assert odometer_relation(
        prime_profile([2 * 3 ** l for l in range(1, 6)], 10),
        prime_profile([4 ** l for l in range(1, 6)], 10),
    ).kind == Relation.NOT_FACTOR


def test_gallery_declared_profiles_compare():
    s43 = gallery("ex4.3")
    s57 = gallery("ex5.7")
    p43 = prime_profile([s43.period(l) for l in range(1, 5)], 10, declared=s43.declarations["prime_profile"])
    p57 = prime_profile([s57.period(l) for l in range(1, 5)], 10, declared=s57.declarations["prime_profile"])
    assert odometer_relation(p43, p57).kind == Relation.ISOMORPHIC_CERTIFIED


def test_large_prime_ratio_is_declared():
    w = gallery("williams", ratios="53")
    assert w.declarations["prime_profile"] == {53: inf}
    s43 = gallery("ex4.3")
    pw = prime_profile([w.period(l) for l in range(1, 4)], 60, declared=w.declarations["prime_profile"])
    p43 = prime_profile([s43.period(l) for l in range(1, 4)], 60, declared=s43.declarations["prime_profile"])
    r = odometer_relation(pw, p43)
    assert r.kind == Relation.NOT_FACTOR and r.witness_prime == 53


def test_cps_window_membership():
    s57 = gallery("ex5.7")
    assert cps_window_member(s57, embed(s57, 0, 3), "a") == Membership.IN_WINDOW
    assert cps_window_member(s57, embed(s57, 3, 3), "a") == Membership.NOT_IN_WINDOW
    s43 = gallery("ex4.3")
    br = branch_point(s43, (1, 5, 21, 85))
    for letter in "ab":
        assert cps_window_member(s43, br, letter) == Membership.UNDETERMINED


def test_cps_window_disjointness():
    # no point sits inside both letters' windows; an embedded integer that
    # resolves at the inspected depth sits inside exactly its own letter's
    from toeplitz_lab import evaluate

    s = gallery("ex5.7")
    for j in range(-30, 30):
        w = embed(s, j, 3)
        inside = [c for c in "ab" if cps_window_member(s, w, c) == Membership.IN_WINDOW]
        assert len(inside) <= 1
        letter = evaluate(s, j, 3)
        if letter is not None:
            assert inside == [letter]


def test_unknown_letter_rejected():
    s = gallery("ex5.7")
    with pytest.raises(ToeplitzError):
        cps_window_member(s, embed(s, 0, 2), "z")
