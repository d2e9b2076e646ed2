"""Subword counting: window scans and the exact single-hole decomposition.

A window scan yields a lower bound on the number of length-L subwords.
For words with one hole per period the count is exact: between
consecutive holes the word repeats a fixed block, so every subword is
the block cut at some offset with the holes filled by a subword of the
derived tail, and those fill words are enumerated recursively.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import NotSingleHole, UnresolvedWindow
from .words import HOLE, FillingSchedule, derived_tail, resolve_window


@dataclass(frozen=True)
class FactorSet:
    length: int
    words: frozenset[str]
    exact: bool
    provenance: str

    @property
    def count(self) -> int:
        return len(self.words)


def factor_set_window(schedule: FillingSchedule, length: int, window: tuple[int, int], max_level: int) -> FactorSet:
    """Distinct length-``length`` subwords of a fully resolved window (lower bound)."""
    lo, hi = window
    text = resolve_window(schedule, lo, hi, max_level)
    if HOLE in text:
        raise UnresolvedWindow("window [%d, %d) not fully resolved at level %d" % (lo, hi, max_level))
    words = frozenset(text[i: i + length] for i in range(len(text) - length + 1))
    return FactorSet(length, words, False, "window[%d,%d)@%d" % (lo, hi, max_level))


def _letters_of(schedule: FillingSchedule, probe_levels: int = 8) -> tuple[frozenset[str], bool]:
    """Letters occurring in the word, with an exactness flag.

    Exact when the probed seeds already show the whole alphabet, or when
    the schedule has no further seeds to look at.
    """
    letters: set[str] = set()
    top = schedule.available_levels(probe_levels)
    for l in range(1, top + 1):
        letters.update(c for c in schedule.seed(l).symbols if c != HOLE)
        if len(letters) == len(schedule.alphabet):
            return frozenset(letters), True
    exhausted = schedule.max_levels is not None and top >= schedule.max_levels
    return frozenset(letters), exhausted


def _single_hole_level_for(schedule: FillingSchedule, length: int, max_probe: int = 12) -> int:
    for l in range(1, schedule.available_levels(max_probe) + 1):
        if len(schedule.holes(l)) != 1:
            raise NotSingleHole("level %d has %d holes per period" % (l, len(schedule.holes(l))))
        if schedule.period(l) >= length:
            return l
    return schedule.available_levels(max_probe)


def factor_set_exact_single_hole(
    schedule: FillingSchedule, l: int, length: int, max_span: int = 8, depth: int | None = None
) -> FactorSet:
    """Exact subword set via the one-hole-per-period decomposition at level ``l``.

    The between-holes block is cut at every offset and the spanned holes
    are filled with every fill word of the right length; fill words are
    the exact subword sets of the derived tail, computed by recursion.
    """
    info = schedule.level_info(l)
    if len(info.holes) != 1:
        raise NotSingleHole("level %d has %d holes per period" % (l, len(info.holes)))
    p = info.period
    if length > max_span * p:
        raise ValueError("length %d exceeds %d periods" % (length, max_span))
    hole = info.holes[0]
    depth = depth if depth is not None else l + 3
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
        fs = factor_set_exact_single_hole(tail, tl, m, max_span)
        return fs.words, fs.exact

    copies = length // p + 2
    carrier = (block + HOLE) * copies  # the repeating block with its hole last
    words = set()
    fill_cache: dict[int, tuple[frozenset[str], bool]] = {}
    for j in range(p):
        piece = carrier[j: j + length]
        first = p - 1 - j  # the carrier's holes sit at p - 1 mod p
        m = len(range(first, length, p))
        if m not in fill_cache:
            fill_cache[m] = tail_words(m)
        for u in fill_cache[m][0]:
            chars = list(piece)
            chars[first::p] = u
            words.add("".join(chars))
    exact = all(flag for _, flag in fill_cache.values())
    return FactorSet(length, frozenset(words), exact, "decomposition@L%d" % l)


@dataclass(frozen=True)
class ProfileEntry:
    length: int
    count: int
    exact: bool
    ratio: Fraction


def complexity_profile(schedule: FillingSchedule, lengths, mode: str, **kwargs) -> list[ProfileEntry]:
    """Per-length subword counts with exactness flags and count/length ratios."""
    if mode not in ("window", "decomposition"):
        raise ValueError("mode must be 'window' or 'decomposition'")
    out = []
    for L in lengths:
        if mode == "window":
            window = kwargs.get("window", (0, max(4 * L, 64)))
            fs = factor_set_window(schedule, L, window, kwargs.get("max_level", 6))
        else:
            level = kwargs.get("level") or _single_hole_level_for(schedule, L)
            fs = factor_set_exact_single_hole(schedule, level, L, kwargs.get("max_span", 8))
        out.append(ProfileEntry(L, fs.count, fs.exact, Fraction(fs.count, L)))
    return out
