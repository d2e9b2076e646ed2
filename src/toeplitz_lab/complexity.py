"""Subword counting: window scans and the exact single-hole decomposition.

A window scan yields a lower bound on the number of length-L subwords.
For words with one hole per period the count is exact: between
consecutive holes the word repeats a fixed block, so every subword is
a slice of m + 1 copies of the block joined by m holes, filled with a
subword of the derived tail; those fill words are enumerated recursively.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import NotSingleHole, PatternTooLarge, ToeplitzError, UnresolvedWindow
from .words import HOLE, PATTERN_CAP, FillingSchedule, derived_tail, fill_holes, resolve_window


@dataclass(frozen=True)
class FactorSet:
    length: int
    words: frozenset[str]
    exact: bool

    @property
    def count(self) -> int:
        return len(self.words)


def factor_set_window(schedule: FillingSchedule, length: int, window: tuple[int, int], max_level: int) -> FactorSet:
    """Distinct length-``length`` subwords of a fully resolved window (lower bound)."""
    if length < 1:
        raise ToeplitzError("length must be positive, got %d" % length)
    lo, hi = window
    if (hi - lo - length + 1) * length > 16 * PATTERN_CAP:
        # every start position may hold a distinct word of this length
        raise PatternTooLarge(
            "window [%d, %d) of length-%d words exceeds the assembly bound %d" % (lo, hi, length, 16 * PATTERN_CAP))
    text = resolve_window(schedule, lo, hi, max_level)
    if HOLE in text:
        raise UnresolvedWindow("window [%d, %d) not fully resolved at level %d" % (lo, hi, max_level))
    words = frozenset(text[i: i + length] for i in range(len(text) - length + 1))
    return FactorSet(length, words, False)


def _letters_of(schedule: FillingSchedule) -> tuple[frozenset[str], bool]:
    """Letters occurring in the word, with an exactness flag.

    Exact when the first eight seeds already show the whole alphabet, or
    when the schedule has no further seeds to look at.
    """
    letters: set[str] = set()
    top = schedule.available_levels(8)
    for l in range(1, top + 1):
        letters.update(c for c in schedule.seed(l).symbols if c != HOLE)
        if len(letters) == len(schedule.alphabet):
            return frozenset(letters), True
    exhausted = schedule.max_levels is not None and top >= schedule.max_levels
    return frozenset(letters), exhausted


def _single_hole_level_for(schedule: FillingSchedule, length: int) -> int:
    for l in range(1, schedule.available_levels(12) + 1):
        if len(schedule.holes(l)) != 1:
            raise NotSingleHole("level %d has %d holes per period" % (l, len(schedule.holes(l))))
        if schedule.period(l) >= length:
            return l
    return schedule.available_levels(12)


def factor_set_exact_single_hole(schedule: FillingSchedule, l: int, length: int) -> FactorSet:
    """Exact subword set via the one-hole-per-period decomposition at level ``l``.

    The between-holes block is resolved at depth l + 3.  The offsets
    spanning m holes form one range; for each m-letter fill word, m + 1
    copies of the block joined by the filled holes are built once, and
    each word of that range is one slice of them.  Fill words are the
    exact subword sets of the derived tail, computed by recursion.
    ``length`` may span at most 8 periods.
    """
    if length < 1:
        raise ToeplitzError("length must be positive, got %d" % length)
    info = schedule.level_info(l)
    if len(info.holes) != 1:
        raise NotSingleHole("level %d has %d holes per period" % (l, len(info.holes)))
    p = info.period
    if length > 8 * p:
        raise ToeplitzError("length %d exceeds 8 periods of level %d" % (length, l))
    if p * length > 16 * PATTERN_CAP:
        # each of the p offsets assembles at least one word of this length
        raise PatternTooLarge(
            "period %d times length %d exceeds the assembly bound %d" % (p, length, 16 * PATTERN_CAP))
    hole = info.holes[0]
    depth = l + 3
    # one period starting right after the hole: the repeating block, hole last
    block = resolve_window(schedule, hole + 1, hole + p, depth)
    if HOLE in block:
        raise UnresolvedWindow("between-holes block not resolved at depth %d" % depth)
    tail = derived_tail(schedule, l)

    def tail_words(m: int) -> tuple[frozenset[str], bool]:
        if m == 0:
            return frozenset([""]), True
        if m == 1:
            return _letters_of(tail)
        tl = _single_hole_level_for(tail, m)
        fs = factor_set_exact_single_hole(tail, tl, m)
        return fs.words, fs.exact

    words: set[str] = set()
    exact = True
    # the word at offset j has its first hole at p - 1 - j, so it spans m holes exactly
    # for j in [m p - length, (m + 1) p - length): m runs from floor to ceil of length / p
    for m in range(length // p, -(-length // p) + 1):
        offsets = range(max(0, m * p - length), min(p, (m + 1) * p - length))
        fills, flag = tail_words(m)
        exact = exact and flag
        holed = (block + HOLE) * m + block
        for u in fills:
            text = fill_holes(holed, u)
            words.update(text[j: j + length] for j in offsets)
    return FactorSet(length, frozenset(words), exact)


@dataclass(frozen=True)
class ProfileEntry:
    length: int
    count: int
    exact: bool
    ratio: Fraction


def complexity_profile(schedule: FillingSchedule, lengths, mode: str, max_level: int = 6) -> list[ProfileEntry]:
    """Per-length subword counts with exactness flags and count/length ratios.

    Window mode scans ``[0, max(4L, 64))`` resolved at ``max_level``;
    decomposition mode uses the first single-hole level whose period
    reaches L.
    """
    if mode not in ("window", "decomposition"):
        raise ToeplitzError("mode must be 'window' or 'decomposition'")
    out = []
    for L in lengths:
        if mode == "window":
            fs = factor_set_window(schedule, L, (0, max(4 * L, 64)), max_level)
        else:
            fs = factor_set_exact_single_hole(schedule, _single_hole_level_for(schedule, L), L)
        out.append(ProfileEntry(L, fs.count, fs.exact, Fraction(fs.count, L)))
    return out
