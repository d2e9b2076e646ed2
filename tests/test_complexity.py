import tracemalloc

import pytest

from toeplitz_lab import (
    BINARY,
    FillingSchedule,
    complexity_profile,
    factor_set_exact_single_hole,
    factor_set_window,
    gallery,
    parse_seed,
    schedule_from_text,
)
from toeplitz_lab.errors import NotSingleHole, ToeplitzError, UnresolvedWindow


def test_window_scan_examples():
    s = gallery("ex5.7")
    fs = factor_set_window(s, 4, (0, 256), max_level=6)
    assert {"aaab", "aabb", "abbb"} <= fs.words
    assert fs.count >= 7
    letters = factor_set_window(s, 1, (0, 64), max_level=5)
    assert letters.words == frozenset("ab")
    const = FillingSchedule(BINARY, [parse_seed("a?a"), parse_seed("a")])
    assert factor_set_window(const, 5, (0, 40), max_level=2).count == 1


def test_window_scan_requires_resolution():
    with pytest.raises(UnresolvedWindow):
        factor_set_window(gallery("ex5.7"), 4, (0, 64), max_level=1)


def test_exact_requires_single_hole():
    with pytest.raises(NotSingleHole):
        factor_set_exact_single_hole(gallery("ex5.7"), 2, 8)


def test_exact_counts_meet_linear_bound():
    m = gallery("ex4.4-mini")
    for l in (1, 2, 3):
        p = m.period(l)
        fs = factor_set_exact_single_hole(m, l, p)
        assert fs.exact
        assert fs.count <= p * len(m.alphabet)


def test_exact_growth_checkpoints():
    m = gallery("ex4.4-mini")
    for l in (1, 2):
        L = (l + 1) * m.period(l)
        fs = factor_set_exact_single_hole(m, l, L)
        assert fs.count == 2 ** (l + 1) * m.period(l)


def test_window_scan_never_exceeds_exact_and_saturates():
    m = gallery("ex4.4-mini")
    for L in (6, 8, 12, 16):
        exact = factor_set_exact_single_hole(m, 1, L)
        scan = factor_set_window(m, L, (0, 3 * m.period(2)), max_level=5)
        assert scan.words <= exact.words
        assert scan.words == exact.words


def test_count_monotone_in_length():
    m = gallery("ex4.4-mini")
    counts = [factor_set_exact_single_hole(m, 1, L).count for L in range(1, 20)]
    assert all(b >= a for a, b in zip(counts, counts[1:]))


def test_length_one_is_letter_set():
    m = gallery("ex4.4-mini")
    assert factor_set_exact_single_hole(m, 1, 1).words == frozenset("ab")


def test_profile_modes():
    m = gallery("ex4.4-mini")
    prof = [factor_set_exact_single_hole(m, 1, L) for L in (8, 16)]
    assert [(e.length, e.count) for e in prof] == [(8, 16), (16, 32)]
    assert all(e.exact for e in prof)
    scan = factor_set_window(m, 8, (0, 400), 5)
    assert scan.count == 16 and not scan.exact
    assert complexity_profile(m, [], mode="window") == []
    with pytest.raises(TypeError):
        complexity_profile(m, [8], mode="window", max_levle=2)  # a misspelt key used to be ignored


def test_literal_first_seed_variant():
    s = gallery("ex4.4")
    fs = factor_set_exact_single_hole(s, 1, 64)
    assert fs.exact and fs.count <= 128
    scan = factor_set_window(s, 64, (0, 3 * s.period(2)), max_level=4)
    assert scan.words == fs.words


@pytest.mark.parametrize("length", [0, -3])
def test_exact_count_refuses_a_length_below_one(length):
    with pytest.raises(ToeplitzError, match="length must be positive"):
        factor_set_exact_single_hole(gallery("ex4.4-mini"), 1, length)


@pytest.mark.parametrize("length", [0, -1])
def test_window_scan_refuses_a_length_below_one(length):
    with pytest.raises(ToeplitzError, match="length must be positive"):
        factor_set_window(gallery("ex5.7"), length, (0, 10), 4)
    with pytest.raises(ToeplitzError, match="length must be positive"):
        complexity_profile(gallery("ex5.7"), [length], "window")


def test_exact_counts_read_only_letters_the_word_uses():
    # the holes close at level 3: the word has period 12 and shows no "c", which seed 4 holds
    s = schedule_from_text("abc\na?b\na?b\nab\ncc\n")
    prof = complexity_profile(s, [1, 2, 3, 6], "decomposition")
    assert [(e.count, e.exact) for e in prof] == [(2, True), (4, True), (6, True), (12, True)]
    assert factor_set_exact_single_hole(s, 1, 1).words == frozenset("ab")


def test_exact_count_refuses_a_level_at_the_last_seed():
    s = schedule_from_text("abc\na?b\na?b\n")
    with pytest.raises(ToeplitzError, match="no seed at level 3"):
        factor_set_exact_single_hole(s, 2, 4)


def test_decomposition_counts_reach_past_the_last_level_with_holes():
    # the holes close at level 3, so the word has period 18 and every longer length shows 18 words
    s = schedule_from_text("abc\na?b\na?b\nab\ncc\n")
    lengths = [12, 13, 20, 100]
    prof = complexity_profile(s, lengths, "decomposition")
    assert [(e.count, e.exact) for e in prof] == [(18, True)] * 4
    assert [e.count for e in complexity_profile(s, lengths, "window")] == [18] * 4
    assert factor_set_exact_single_hole(s, 3, 20).words == factor_set_window(s, 20, (0, 80), 4).words


def test_largest_decomposition_count_builds_no_word_set():
    # the 8192 words of 4096 letters took 33.5 MB as one set
    s = gallery("ex4.4-mini")
    tracemalloc.start()
    try:
        (e,) = complexity_profile(s, [4096], "decomposition")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (e.count, e.exact) == (8192, True)
    assert peak < 4 * 2 ** 20, peak
