import sys
import threading
import tracemalloc
import weakref

import pytest

from toeplitz_lab import (
    BINARY,
    HOLE,
    FillingSchedule,
    PeriodicPattern,
    SeedWord,
    compose_fill,
    evaluate,
    gallery,
    parse_seed,
    resolve_window,
    schedule_from_text,
    schedule_to_text,
)
from toeplitz_lab import words
from toeplitz_lab.errors import AllHoles, EndsWithHole, NoHoles, PatternTooLarge, ToeplitzError, UnknownCharacter


def test_parse_seed_examples():
    w = parse_seed("a??b")
    assert w.symbols == "a??b" and w.holes == (1, 2)
    assert parse_seed("a").holes == ()
    with pytest.raises(AllHoles):
        parse_seed("??")
    with pytest.raises(UnknownCharacter):
        parse_seed("axb")
    with pytest.raises(EndsWithHole):
        parse_seed("?ab")


def test_compose_fill_displayed_example():
    got = compose_fill(PeriodicPattern("a??b"), parse_seed("aa?a?bbb"))
    assert got.symbols == "aaaba?aba?bbabbb"
    assert got.period == 16 and got.holes == (5, 9)


def test_compose_fill_single_hole():
    got = compose_fill(PeriodicPattern("a?"), parse_seed("b"))
    assert got.symbols == "ab" and got.holes == ()


def test_compose_fill_large_block_structure():
    s35 = gallery("ex3.5")
    got = compose_fill(PeriodicPattern(s35.seed(1).symbols), s35.seed(2))
    assert got.period == 48 and got.hole_count == 8


def test_compose_fill_requires_holes():
    with pytest.raises(NoHoles):
        compose_fill(PeriodicPattern("ab"), parse_seed("a"))


def test_level_pattern_examples():
    assert gallery("ex5.7").pattern(2).window(0, 16) == "aaaba??ba??babbb"
    s43 = gallery("ex4.3")
    pat43, info43 = s43.pattern(2), s43.level_info(2)
    assert pat43.symbols == "aaaba?aba?bbabbb" and pat43.holes == (5, 9)
    assert (pat43.period, pat43.holes) == (info43.period, info43.holes)
    assert s43.pattern(1).symbols == "a??b"
    assert s43.scale(3) == (4, 16, 64)


@pytest.mark.parametrize("l", [0, -1])
@pytest.mark.parametrize("accessor", ["level_info", "period", "holes", "pattern", "scale"])
def test_level_accessors_refuse_levels_below_one(accessor, l):
    s = gallery("ex4.3")
    s.pattern(2)  # level 0, the root of the caches, is never handed out
    with pytest.raises(ToeplitzError, match=">= 1"):
        getattr(s, accessor)(l)


def test_evaluate_examples():
    s57 = gallery("ex5.7")
    assert evaluate(s57, 10, 3) == "b"
    assert evaluate(s57, 5, 1) is None
    assert evaluate(gallery("ex3.5"), 0, 1) == "b"


def test_evaluate_refuses_a_negative_level():
    s = gallery("ex5.7")
    for _ in range(2):
        with pytest.raises(ToeplitzError, match="max_level -3 is below 0"):
            evaluate(s, 5, -3)
    assert evaluate(s, 5, 0) is None  # level 0 is the all-hole root
    assert min(s._tables) == 0  # no walk table is kept for the refused level


def test_resolve_window_refuses_a_negative_level():
    s = gallery("ex5.7")
    for stop in (6, 0):  # an empty window too
        with pytest.raises(ToeplitzError, match="max_level -2 is below 0"):
            resolve_window(s, 0, stop, -2)
    assert resolve_window(s, 0, 6, 0) == "??????"
    assert min(s._tables) == 0


def test_hole_counts_refuses_a_negative_resolution():
    s = gallery("ex5.7")
    for _ in range(2):
        with pytest.raises(ToeplitzError, match="resolution -2 is below 0"):
            words.hole_counts(s, -2)
    assert words.hole_counts(s, 0) == [1]


def test_a_cold_deep_walk_keeps_memory_within_its_seed_letters():
    # (4^18 - 1) / 3 is a level-18 hole of ex5.7, whose seeds 1..19 hold one run of holes each
    j, letters = (4 ** 18 - 1) // 3, sum(2 ** (l + 1) for l in range(1, 20))
    tracemalloc.start()
    try:
        s = gallery("ex5.7")
        letter, window = evaluate(s, j, 19), resolve_window(s, j - 5, j + 6, 19)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (letter, window) == ("a", "aaabaaabaab")
    assert letters == sum(len(s.seed(l)) for l in range(1, 20))
    assert peak <= 4 * letters, (peak, letters)


def test_evaluate_monotone_and_matches_patterns():
    s = gallery("ex5.7")
    for j in range(-40, 90):
        seen = None
        for level in range(1, 7):
            got = evaluate(s, j, level)
            c = s.pattern(level).at(j)
            assert got == (None if c == HOLE else c)
            if seen is not None:
                assert got == seen
            if got is not None:
                seen = got


def test_period_and_hole_law_against_scan():
    from math import gcd

    for name in ("ex4.3", "ex5.7", "ex3.5"):
        s = gallery(name)
        for l in range(2, 5):
            prev, cur = s.level_info(l - 1), s.level_info(l)
            q = len(s.seed(l))
            g = gcd(len(prev.holes), q)
            assert cur.period == prev.period * q // g
            assert len(cur.holes) == len(prev.holes) * s.seed(l).hole_count // g
            pat = s.pattern(l)
            assert pat.holes == cur.holes


def test_hole_nesting():
    for name in ("ex4.3", "ex5.7", "ex3.5", "ex4.4-mini"):
        s = gallery(name)
        for l in range(1, 4):
            p = s.period(l)
            lower = set(s.holes(l))
            for r in s.holes(l + 1):
                assert r % p in lower


def test_hole_free_levels_saturate():
    s = FillingSchedule(BINARY, [parse_seed("a?b"), parse_seed("ab"), parse_seed("ba")])
    assert s.period(2) == 6 and s.holes(2) == ()
    assert s.period(3) == 6 and s.holes(3) == ()
    assert resolve_window(s, 0, 6, 3) == "aab" + "abb"  # fully periodic word
    # a deep level is the first hole-free one, with nothing listed in between
    assert s.level_info(10 ** 9) is s.level_info(2) and s.pattern(10 ** 9) == s.pattern(2)


def test_a_schedule_keeps_no_level_pattern():
    s = gallery("ex4.3")
    assert s.period(7) > words._TABLE_CAP
    dropped = weakref.ref(s.pattern(7))
    assert dropped() is None


def test_an_empty_pattern_is_refused():
    with pytest.raises(ToeplitzError, match="empty"):
        PeriodicPattern("")


def test_literal_schedules_count_their_own_levels():
    s = FillingSchedule(BINARY, [parse_seed("a?b")])
    assert s.max_levels == 1 and s.available_levels(5) == 1
    assert evaluate(s, 1, 3) is None  # reads the one level there is
    with pytest.raises(ToeplitzError, match="no seed at level 2"):
        s.period(2)
    assert FillingSchedule(BINARY, lambda l: parse_seed("a?b")).max_levels is None  # a rule has no last level


def test_a_seed_that_is_no_seed_word_is_refused_with_its_level():
    # a string or None used to leak AttributeError from the alphabet check
    for value in ("a?b", None):
        with pytest.raises(ToeplitzError, match="seed 1 is a %s, not a SeedWord" % type(value).__name__):
            FillingSchedule(BINARY, lambda l: value).period(1)
    s = FillingSchedule(BINARY, lambda l: parse_seed("a?b") if l < 3 else "a?b")
    assert s.period(2) == 9
    with pytest.raises(ToeplitzError, match="seed 3 is a str"):
        s.period(3)


def test_schedule_text_roundtrip(tmp_path):
    s = gallery("ex4.3")
    text = schedule_to_text(s, 4)
    back = schedule_from_text(text)
    assert [back.seed(l).symbols for l in range(1, 5)] == [s.seed(l).symbols for l in range(1, 5)]
    ref = schedule_from_text("# gallery reference\n@ex5.7\n")
    assert ref.name == "ex5.7"


def test_gallery_reference_must_stand_alone():
    # the seeds after the reference used to be dropped without a word
    with pytest.raises(ToeplitzError, match="followed by 2 more lines"):
        schedule_from_text("@ex4.3\nab\naa?b\n")
    with pytest.raises(ToeplitzError):
        schedule_from_text("@ex4.3\n# comment\n@ex5.7\n")
    assert schedule_from_text("@ex4.3\n# trailing comment\n\n").name == "ex4.3"


def test_negative_positions_follow_periodic_extension():
    s = gallery("ex5.7")
    pat = s.pattern(4)
    for j in range(-300, 0):
        c = pat.at(j)
        assert evaluate(s, j, 4) == (None if c == HOLE else c)


def test_unknown_character_names_the_first_one():
    with pytest.raises(UnknownCharacter, match="'x'"):
        parse_seed("a?xzyb")


def test_hole_class_letters_maps_each_level_that_has_holes():
    # level 2 has no holes: every level from it on maps nothing, and no seed is read past it
    s = schedule_from_text("ab\na?b\nab\n")
    assert [words.hole_class_letters(s, l, 9) for l in (1, 2)] == [{1: frozenset("ab")}, {}]
    assert [words.hole_class_letters(s, l, 9) for l in (3, 4, 5)] == [{}, {}, {}]
    s = gallery("ex4.3")
    levels = [words.hole_class_letters(s, l, 2) for l in (1, 2)]
    assert [list(level) for level in levels] == [list(s.holes(1)), list(s.holes(2))]
    assert set(levels[1].values()) == {frozenset("?")}


def test_hole_class_letters_refuses_a_level_outside_the_resolution():
    s = gallery("ex4.3")
    for l in (0, 3):
        with pytest.raises(ToeplitzError, match="not in 1..2"):
            words.hole_class_letters(s, l, 2)


def test_level_info_refuses_more_holes_than_the_cap(monkeypatch):
    monkeypatch.setattr(words, "PATTERN_CAP", 100)
    s = FillingSchedule(BINARY, lambda l: SeedWord("a???b"))  # 3^l holes per period
    with pytest.raises(PatternTooLarge, match="level 5 has 243 holes"):
        s.level_info(9)
    assert len(s.holes(4)) == 81


def test_level_info_refuses_a_seed_longer_than_the_cap(monkeypatch):
    monkeypatch.setattr(words, "PATTERN_CAP", 10)
    s = FillingSchedule(BINARY, lambda l: SeedWord("a" * l + "?b"))  # one hole per period
    with pytest.raises(PatternTooLarge, match="seed 9 has length 11"):
        s.level_info(12)
    assert s.period(8) > 0
    with pytest.raises(PatternTooLarge, match="seed 1 has length 11"):
        FillingSchedule(BINARY, [SeedWord("a" * 9 + "?b")]).level_info(1)


def test_concurrent_reads_of_a_fresh_schedule_match_serial_ones():
    positions = [(-1) ** k * 10 ** 12 + 7919 * k for k in range(300)]

    def reads(s):
        # three depths, so the tables of several depths are built side by side; the hole counts and
        # scales are asked for at interleaved depths, so their caches are extended side by side
        return ([evaluate(s, j, (3, 6, 12)[k % 3]) for k, j in enumerate(positions)],
                [resolve_window(s, j, j + 64, (12, 6, 3)[k % 3]) for k, j in enumerate(positions[:60])],
                [words.hole_counts(s, r) for r in (2, 9, 5, 12, 1)], [s.scale(d) for d in (3, 8, 1, 10)])

    expected = reads(gallery("ex5.7"))
    s = gallery("ex5.7")
    results = [None] * 4
    start = threading.Barrier(4)

    def worker(i):
        start.wait(timeout=30)
        results[i] = reads(s)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [expected] * 4
