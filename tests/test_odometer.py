from math import inf

import pytest

from toeplitz_lab import (
    OdometerPoint,
    Shift,
    ShiftLimit,
    embed,
    gallery,
    phi_prefix,
    rotate,
)
from toeplitz_lab.errors import ToeplitzError, UnresolvedElement

from test_oracles import matching_shift


def test_embed_examples():
    s = gallery("ex4.3")
    assert embed(s, 5, 3).residues == (1, 5, 5)
    assert embed(s, 0, 4).residues == (0, 0, 0, 0)
    assert embed(s, 85, 4).residues == (1, 5, 21, 85)


def test_coherence_enforced():
    with pytest.raises(ToeplitzError):
        OdometerPoint((4, 16), (1, 6))
    with pytest.raises(ToeplitzError):
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
    rule = ShiftLimit(lambda k: 5 if k > 2 else k, k_stop=9)
    assert phi_prefix(s, rule, 2).residues == (1, 5)
    wobble = ShiftLimit(lambda k: k, k_stop=9)
    with pytest.raises(UnresolvedElement):
        phi_prefix(s, wobble, 2)


def test_large_prime_ratio_is_declared():
    w = gallery("williams", ratios="53")
    assert w.declarations["prime_profile"] == {53: inf}
