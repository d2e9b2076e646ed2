import pytest

from toeplitz_lab import (
    HOLE,
    check_oxtoby,
    de_bruijn,
    evaluate,
    gallery,
    gallery_code,
    proximal_shift_pair,
)
from toeplitz_lab.errors import BadParams
from toeplitz_lab.gallery import punch_trailing_run


def test_regeneration_is_deterministic():
    for name in ("ex4.3", "ex5.7", "ex3.5", "ex4.4", "ex4.4-mini"):
        a, b = gallery(name), gallery(name)
        assert [a.seed(l).symbols for l in range(1, 5)] == [b.seed(l).symbols for l in range(1, 5)]


def test_de_bruijn_words_are_valid():
    for n in range(1, 8):
        w = de_bruijn(n)
        assert len(w) == 2 ** n
        assert len({(w * 2)[i: i + n] for i in range(len(w))}) == 2 ** n
        assert w.endswith("b" * n)
    assert de_bruijn(3) == "aaababbb"
    assert de_bruijn(1) == "ab"


def test_de_bruijn_literal_variant():
    w = de_bruijn(6, variant="literal")
    assert len(w) == 64
    assert len({(w * 2)[i: i + 6] for i in range(64)}) == 64
    with pytest.raises(BadParams):
        de_bruijn(5, variant="literal")
    with pytest.raises(BadParams):
        de_bruijn(4, variant="nope")


def test_punch_trailing_run():
    w = punch_trailing_run("aaababbb", 3)
    assert w == "aaabab?b"
    with pytest.raises(BadParams):
        punch_trailing_run("aaababba", 3)


def test_ex44_seed_literals():
    s = gallery("ex4.4")
    w3 = s.seed(1).symbols
    assert len(w3) == 64 and w3.endswith("abbabb?bbb")
    assert w3.count(HOLE) == 1
    # generated tails carry exactly one hole each
    for l in (2, 3, 4):
        assert s.seed(l).hole_count == 1


def test_ex35_seed_literals():
    s = gallery("ex3.5")
    assert s.seed(1).symbols == "ba????ab"
    assert s.seed(2).symbols == "baaaabaa????????aabaaaab"


def test_ex57_display_window():
    s = gallery("ex5.7")
    assert s.pattern(4).window(0, 16) == "aaabaaabaabbabbb"


def test_declarations_recheck():
    # a declaration is only leaned on after passing its own check
    assert check_oxtoby(gallery("ex3.5"), 4).certified
    assert check_oxtoby(gallery("ex5.7"), 4).certified
    for l in (1, 2, 3):
        assert len(gallery("ex4.4").holes(l)) <= gallery("ex4.4").declarations["bounded_holes"]


def test_williams_constant_on_holes():
    s = gallery("williams", ratio=4, letters="ab")
    for l in (1, 2, 3):
        # letters filling the level-l holes one level later are all equal
        filled = {
            evaluate(s, r, l + 1)
            for r in s.holes(l)
            if evaluate(s, r, l + 1) is not None
        }
        assert len(filled) == 1


def test_williams_structure():
    s = gallery("williams", ratio=4)
    assert [s.period(l) for l in (1, 2, 3)] == [4, 16, 64]
    assert check_oxtoby(s, 4).certified
    with pytest.raises(BadParams):
        gallery("williams", ratio=3)
    with pytest.raises(BadParams):
        gallery("williams", letters="a")


def test_sec22_alias_matches_ex43():
    a, b = gallery("sec2.2"), gallery("ex4.3")
    assert [a.seed(l).symbols for l in range(1, 4)] == [b.seed(l).symbols for l in range(1, 4)]


def test_unknown_gallery_and_code():
    with pytest.raises(BadParams):
        gallery("ex9.9")
    with pytest.raises(BadParams):
        gallery_code("ex4.3")
    with pytest.raises(BadParams):
        gallery("williams", ratios="x")


def test_proximal_shift_formulas():
    assert proximal_shift_pair(1) == (6, 6 + 3 * 16)
    assert proximal_shift_pair(3)[0] == 102
    for l in (2, 4):
        k = proximal_shift_pair(l)[0]
        assert k == (3 * 4 ** (l + 1) - 2) // 5


def test_gallery_code_table():
    code = gallery_code("ex5.7")
    assert code("aaa") == "a"
    assert all(code(w) == "b" for w in code.table if w != "aaa")


def test_williams_nonuniform_ratios():
    w = gallery("williams", ratios="4,6")
    assert [w.period(l) for l in range(1, 4)] == [4, 24, 96]
    assert check_oxtoby(w, 4).certified
    from toeplitz_lab import verify_period_structure

    assert verify_period_structure(w, [4, 24, 96], 4).all_pass
