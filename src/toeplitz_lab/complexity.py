"""Subword counting: window scans and the exact single-hole decomposition.

A window scan yields a lower bound on the number of length-L subwords.
For words with one hole per period the count is exact: between
consecutive holes the word repeats a fixed block, so every subword is
a slice of m + 1 copies of the block joined by m holes, filled with the
word a run of m consecutive holes shows, read by ``hole_class_letters``.
A level without holes is periodic, so its subwords are the windows of
one period, and the count is exact too.  Both modes read their words as
the windows of a few texts; a count groups the windows by
``window_hashes`` and compares the words only where hashes are shared,
so it builds no set of words.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress, product

from .errors import NotSingleHole, PatternTooLarge, ToeplitzError, UnresolvedWindow
from .words import HOLE, PATTERN_CAP, FillingSchedule, fill_holes, hole_class_letters, resolve_window, window_hashes


@dataclass(frozen=True)
class FactorSet:
    length: int
    words: frozenset[str]
    exact: bool

    @property
    def count(self) -> int:
        return len(self.words)


def _windows(texts: list[str], length: int) -> frozenset[str]:
    """The length-``length`` words of the texts."""
    return frozenset(t[i: i + length] for t in texts for i in range(len(t) - length + 1))


def _count_windows(texts: list[str], length: int) -> int:
    """How many distinct length-``length`` words the texts hold.

    Each distinct ``window_hashes`` value counts once; the windows whose
    hash another window shares are compared as words, and each further
    word behind one hash counts too, so the count is exact whatever the
    hash collisions.
    """
    hashes = [window_hashes(t, length, len(t) - length + 1) for t in texts]
    counts = Counter(chain.from_iterable(hashes))
    shared = {h for h, k in counts.items() if k > 1}
    words: dict[int, set[str]] = {}
    for t, hs in zip(texts, hashes):
        for i, h in compress(enumerate(hs), map(shared.__contains__, hs)):
            words.setdefault(h, set()).add(t[i: i + length])
    return len(counts) + sum(len(w) - 1 for w in words.values())


def _window_text(schedule: FillingSchedule, length: int, window: tuple[int, int], max_level: int) -> str:
    """The fully resolved window a scan reads its length-``length`` words from."""
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
    return text


def factor_set_window(schedule: FillingSchedule, length: int, window: tuple[int, int], max_level: int) -> FactorSet:
    """Distinct length-``length`` subwords of a fully resolved window (lower bound)."""
    return FactorSet(length, _windows([_window_text(schedule, length, window, max_level)], length), False)


def _run_words(schedule: FillingSchedule, l: int, m: int) -> tuple[frozenset[str], bool]:
    """The words runs of ``m`` consecutive level-``l`` holes show, with an exactness flag.

    Read at resolutions l + 1 ... l + 8: the hole-free runs occur in the word, so they are a lower bound,
    and they are exact at the first resolution where every completion of a run still holding holes is
    among them.  Otherwise the last hole-free set is returned as not exact.
    """
    schedule.check_depth(l + 1)
    if m == 0:
        return frozenset([""]), True
    letters = schedule.alphabet.letters
    for r in range(l + 1, schedule.available_levels(l + 8) + 1):
        runs = set().union(*hole_class_letters(schedule, l, r, run=m).values())
        words = frozenset(u for u in runs if HOLE not in u)
        if all(fill_holes(u, x) in words
               for u in runs - words for x in product(letters, repeat=u.count(HOLE))):
            return words, True
    return words, False


def _single_hole_level_for(schedule: FillingSchedule, length: int) -> int:
    for l in range(1, schedule.available_levels(12) + 1):
        holes = len(schedule.holes(l))
        if holes > 1:
            raise NotSingleHole("level %d has %d holes per period" % (l, holes))
        if not holes or schedule.period(l) >= length:
            return l
    return schedule.available_levels(12)


def _single_hole_texts(schedule: FillingSchedule, l: int, length: int) -> tuple[list[str], bool]:
    """The texts whose length-``length`` windows are the words ``factor_set_exact_single_hole`` reads at
    level ``l``, and whether they are exact."""
    if length < 1:
        raise ToeplitzError("length must be positive, got %d" % length)
    info = schedule.level_info(l)
    if len(info.holes) > 1:
        raise NotSingleHole("level %d has %d holes per period" % (l, len(info.holes)))
    p = info.period
    if info.holes and length > 8 * p:
        raise ToeplitzError("length %d exceeds 8 periods of level %d" % (length, l))
    if p * length > 16 * PATTERN_CAP:
        # each of the p offsets assembles at least one word of this length
        raise PatternTooLarge(
            "period %d times length %d exceeds the assembly bound %d" % (p, length, 16 * PATTERN_CAP))
    if not info.holes:
        return [resolve_window(schedule, 0, p + length - 1, l)], True
    hole = info.holes[0]
    # one period starting right after the hole: the repeating block, all letters at level l, hole last
    block = resolve_window(schedule, hole + 1, hole + p, l)
    texts = []
    exact = True
    # the word at offset j has its first hole at p - 1 - j, so it spans m holes exactly
    # for j in [m p - length, (m + 1) p - length): m runs from floor to ceil of length / p
    for m in range(length // p, -(-length // p) + 1):
        start, stop = max(0, m * p - length), min(p, (m + 1) * p - length)
        fills, flag = _run_words(schedule, l, m)
        exact = exact and flag
        holed = (block + HOLE) * m + block
        texts.extend(fill_holes(holed, u)[start: stop + length - 1] for u in fills)
    return texts, exact


def factor_set_exact_single_hole(schedule: FillingSchedule, l: int, length: int) -> FactorSet:
    """Exact subword set via the one-hole-per-period decomposition at level ``l``.

    The between-holes block is read at level l.  The offsets spanning
    m holes form one range; for each m-letter fill word, m + 1 copies of
    the block joined by the filled holes are built once and cut to the
    stretch whose windows start in that range, so each word of the range
    is one window of it.  Fill words are the words runs of m level-l
    holes show (``_run_words``).  A level without holes is the periodic
    word, whose words are the windows of one period plus ``length`` - 1
    letters.  ``length`` may span at most 8 periods of a level with a
    hole; such a level at the schedule's last seed is refused.
    """
    texts, exact = _single_hole_texts(schedule, l, length)
    return FactorSet(length, _windows(texts, length), exact)


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
    reaches L, or the first level without holes.  Both count the words
    of the texts ``factor_set_window`` and ``factor_set_exact_single_hole``
    read, without building their sets.
    """
    if mode not in ("window", "decomposition"):
        raise ToeplitzError("mode must be 'window' or 'decomposition'")
    out = []
    for L in lengths:
        if mode == "window":
            texts, exact = [_window_text(schedule, L, (0, max(4 * L, 64)), max_level)], False
        else:
            texts, exact = _single_hole_texts(schedule, _single_hole_level_for(schedule, L), L)
        count = _count_windows(texts, L)
        out.append(ProfileEntry(L, count, exact, Fraction(count, L)))
    return out
