"""Seed words, periodic patterns and the hole-filling composition.

A bi-infinite word is built in stages: a periodic pattern with holes is
refined by inserting the next seed word, letter by letter, into its hole
positions.  Levels are represented two ways: as explicit character
patterns (one period) when the period is small enough, and as pure
arithmetic (period plus sorted hole positions) which works at any scale.
Positions are ordinary Python integers, so nothing overflows.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from math import gcd
from typing import Callable, Sequence

from .errors import (
    AllHoles,
    BadAlphabet,
    EndsWithHole,
    NoHoles,
    PatternTooLarge,
    ToeplitzError,
    UnknownCharacter,
)

HOLE = "?"

#: Largest period for which an explicit one-period pattern is materialised.
PATTERN_CAP = 1 << 22


@dataclass(frozen=True)
class Alphabet:
    letters: str

    def __post_init__(self):
        if len(set(self.letters)) != len(self.letters):
            raise BadAlphabet("alphabet letters must be distinct: %r" % (self.letters,))
        if HOLE in self.letters:
            raise BadAlphabet("the hole marker cannot be an alphabet letter: %r" % (self.letters,))
        if not self.letters:
            raise BadAlphabet("alphabet must be nonempty")

    def __contains__(self, ch: str) -> bool:
        return ch in self.letters

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)


BINARY = Alphabet("ab")


def hole_positions(symbols: str) -> tuple[int, ...]:
    """Ascending indices of the hole markers in ``symbols``."""
    out = []
    i = symbols.find(HOLE)
    while i >= 0:
        out.append(i)
        i = symbols.find(HOLE, i + 1)
    return tuple(out)


@dataclass(frozen=True)
class SeedWord:
    """A finite word over an alphabet extended by the hole marker."""

    symbols: str
    alphabet: Alphabet = BINARY

    def __post_init__(self):
        if not self.symbols:
            raise AllHoles("seed word is empty")
        if all(c == HOLE for c in self.symbols):
            raise AllHoles("seed word contains no letter: %r" % self.symbols)
        for c in self.symbols:
            if c != HOLE and c not in self.alphabet:
                raise UnknownCharacter("character %r not in alphabet %r" % (c, self.alphabet.letters))

    def __len__(self) -> int:
        return len(self.symbols)

    @property
    def holes(self) -> tuple[int, ...]:
        return hole_positions(self.symbols)

    @property
    def hole_count(self) -> int:
        return self.symbols.count(HOLE)

    @property
    def is_ragged(self) -> bool:
        """True when the word starts or ends with a hole."""
        return self.symbols[0] == HOLE or self.symbols[-1] == HOLE


def parse_seed(text: str, alphabet: Alphabet = BINARY, allow_ragged: bool = False) -> SeedWord:
    """Parse a seed word from text; rejects ragged words unless allowed."""
    word = SeedWord(text, alphabet)
    if word.is_ragged and not allow_ragged:
        raise EndsWithHole("seed word %r starts or ends with a hole" % text)
    return word


@dataclass(frozen=True)
class PeriodicPattern:
    """One period of a periodically extended word with holes."""

    symbols: str
    alphabet: Alphabet = BINARY

    @property
    def period(self) -> int:
        return len(self.symbols)

    @property
    def holes(self) -> tuple[int, ...]:
        return hole_positions(self.symbols)

    @property
    def hole_count(self) -> int:
        return self.symbols.count(HOLE)

    def at(self, j: int) -> str:
        return self.symbols[j % self.period]

    def window(self, start: int, stop: int) -> str:
        if stop <= start:
            return ""
        s, p = self.symbols, self.period
        i = start % p
        head = s[i: i + stop - start]
        full, rest = divmod(stop - start - len(head), p)
        return head + s * full + s[:rest]

    def letter_at(self, j: int) -> str | None:
        c = self.symbols[j % self.period]
        return None if c == HOLE else c


def compose_fill(outer: PeriodicPattern, inner: SeedWord, anchor_offset: int = 0) -> PeriodicPattern:
    """Insert the periodic extension of ``inner`` into the holes of ``outer``.

    Hole number ``i`` (hole 0 being the first non-negative one) receives
    ``inner[(i - anchor_offset) mod len(inner)]``.
    """
    holes = outer.holes
    h = len(holes)
    if h == 0:
        raise NoHoles("outer pattern has no holes to fill")
    p, q = outer.period, len(inner)
    new_period = p * q // gcd(h, q)
    if new_period > PATTERN_CAP:
        raise PatternTooLarge("composed period %d exceeds pattern cap" % new_period)
    copies = new_period // p
    out = list(outer.symbols * copies)
    for i in range(copies * h):
        out[(i // h) * p + holes[i % h]] = inner.symbols[(i - anchor_offset) % q]
    return PeriodicPattern("".join(out), outer.alphabet)


class _LevelInfo:
    """Period and hole positions of a level, without the letter pattern."""

    __slots__ = ("period", "holes", "anchor")

    def __init__(self, period: int, holes: tuple[int, ...], anchor: int):
        self.period = period
        self.holes = holes
        self.anchor = anchor


class FillingSchedule:
    """A reproducible sequence of seed words defining a Toeplitz word.

    Seeds may be given literally or through a rule evaluated per level;
    the rule must be deterministic.  ``declarations`` carries structural
    facts a construction is known to satisfy (e.g. a bound on holes per
    period); they are advisory metadata re-checked by the analysis layer,
    never silently trusted for raw computations.

    Instances are immutable apart from internal caches and are safe for
    concurrent reads.
    """

    def __init__(
        self,
        alphabet: Alphabet,
        seeds: Sequence[SeedWord] | Callable[[int], SeedWord],
        max_levels: int | None = None,
        offsets: Callable[[int], int] | Sequence[int] | None = None,
        declarations: dict | None = None,
        name: str = "",
    ):
        self.alphabet = alphabet
        if callable(seeds):
            self._seed_fn = seeds
            self.max_levels = max_levels
        else:
            literal = tuple(seeds)
            if not literal:
                raise ToeplitzError("schedule needs at least one seed")
            self._seed_fn = lambda l: literal[l - 1]
            self.max_levels = len(literal) if max_levels is None else max_levels
        if offsets is None:
            self._offset_fn = lambda l: 0
        elif callable(offsets):
            self._offset_fn = offsets
        else:
            off = tuple(offsets)
            self._offset_fn = lambda l: off[l - 1] if l <= len(off) else 0
        self.declarations = dict(declarations or {})
        self.name = name
        self._seeds: dict[int, SeedWord] = {}
        self._infos: dict[int, _LevelInfo] = {}
        self._walk: dict[int, tuple[str, int, int, tuple[int, ...]]] = {}
        self._patterns: dict[int, PeriodicPattern] = {}

    # -- seeds -----------------------------------------------------------

    def seed(self, l: int) -> SeedWord:
        if l < 1 or (self.max_levels is not None and l > self.max_levels):
            raise ToeplitzError("schedule has no seed at level %d" % l)
        if l not in self._seeds:
            w = self._seed_fn(l)
            if w.alphabet != self.alphabet:
                w = SeedWord(w.symbols, self.alphabet)
            self._seeds[l] = w
        return self._seeds[l]

    def offset(self, l: int) -> int:
        return self._offset_fn(l)

    def available_levels(self, cap: int = 64) -> int:
        return cap if self.max_levels is None else min(cap, self.max_levels)

    def _walk_step(self, l: int) -> tuple[str, int, int, tuple[int, ...]]:
        """Seed ``l``'s symbols, offset and length, and its holes shifted by the offset, sorted."""
        step = self._walk.get(l)
        if step is None:
            w, off = self.seed(l), self.offset(l)
            q = len(w)
            step = (w.symbols, off, q, tuple(sorted((h + off) % q for h in w.holes)))
            self._walk[l] = step
        return step

    # -- level arithmetic (any scale) -------------------------------------

    def level_info(self, l: int) -> _LevelInfo:
        """Period and sorted hole positions of level ``l``."""
        if l in self._infos:
            return self._infos[l]
        if l < 1:
            raise ToeplitzError("level must be >= 1")
        if l == 1:
            _, _, q, holes = self._walk_step(1)
            info = _LevelInfo(q, holes, 0)
        else:
            prev = self.level_info(l - 1)
            if not prev.holes:
                # fully periodic already; deeper levels change nothing
                info = _LevelInfo(prev.period, (), 0)
                self._infos[l] = info
                return info
            w, off = self.seed(l), self.offset(l)
            q, h = len(w), len(prev.holes)
            period = prev.period * q // gcd(h, q)
            copies = period // prev.period
            hole_marks = frozenset(w.holes)
            holes = []
            for i in range(copies * h):
                if (i - off) % q in hole_marks:
                    holes.append((i // h) * prev.period + prev.holes[i % h])
            anchor = (off // h) * prev.period + prev.holes[off % h]
            info = _LevelInfo(period, tuple(sorted(holes)), anchor)
        self._infos[l] = info
        return info

    def period(self, l: int) -> int:
        return self.level_info(l).period

    def holes(self, l: int) -> tuple[int, ...]:
        return self.level_info(l).holes

    # -- explicit patterns (desk scale) ------------------------------------

    def pattern(self, l: int) -> PeriodicPattern:
        if l in self._patterns:
            return self._patterns[l]
        info = self.level_info(l)
        if info.period > PATTERN_CAP:
            raise PatternTooLarge(
                "level %d has period %d, beyond the explicit-pattern cap" % (l, info.period)
            )
        w = self.seed(1)
        shift = -self.offset(1) % len(w)
        pat = PeriodicPattern(w.symbols[shift:] + w.symbols[:shift], self.alphabet)
        for k in range(2, l + 1):
            if not pat.holes:
                break
            pat = compose_fill(pat, self.seed(k), self.offset(k))
        self._patterns[l] = pat
        return pat

    def __repr__(self):
        return "FillingSchedule(%s)" % (self.name or "anonymous")


def evaluate(schedule: FillingSchedule, j: int, max_level: int) -> str | None:
    """Letter of the limit word at position ``j``, or None if still a hole.

    Walks the seed stack: a hole at one stage is the ``rank``-th hole of
    that stage, and the ranks form the positions of the derived tail word.
    Never materialises a pattern, so it works at any period scale.
    """
    levels = schedule.available_levels(max_level)
    steps = schedule._walk
    pos = j
    for l in range(1, levels + 1):
        symbols, off, q, rot = steps.get(l) or schedule._walk_step(l)
        c = symbols[(pos - off) % q]
        if c != HOLE:
            return c
        pos = (pos // q) * len(rot) + bisect_left(rot, pos % q)
    return None


def resolve_window(schedule: FillingSchedule, start: int, stop: int, max_level: int) -> str:
    """The word on ``[start, stop)`` with unresolved positions shown as holes."""
    top = min(max_level, schedule.available_levels(max_level))
    try:
        return schedule.pattern(top).window(start, stop)
    except PatternTooLarge:
        pass
    out = []
    for j in range(start, stop):
        c = evaluate(schedule, j, max_level)
        out.append(HOLE if c is None else c)
    return "".join(out)


def derived_tail(schedule: FillingSchedule, l: int) -> FillingSchedule:
    """The schedule generating the subsequence of the word along level-``l`` holes."""
    if l == 0:
        return schedule
    if schedule.max_levels is not None and l >= schedule.max_levels:
        raise ToeplitzError("no seeds beyond level %d" % l)
    tail_max = None if schedule.max_levels is None else schedule.max_levels - l
    return FillingSchedule(
        schedule.alphabet,
        lambda k: schedule.seed(k + l),
        max_levels=tail_max,
        offsets=lambda k: schedule.offset(k + l),
        declarations={},
        name="%s[tail %d]" % (schedule.name or "schedule", l),
    )


def schedule_from_text(text: str, name: str = "") -> FillingSchedule:
    """Parse the literal-seed schedule format.

    Line 1 is the alphabet; each further non-comment line is one seed
    word.  ``#`` starts a comment.  Gallery references (lines starting
    with ``@``) are resolved by the gallery module.
    """
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ToeplitzError("empty schedule text")
    if lines[0].startswith("@"):
        from .gallery import gallery as named_gallery  # deferred: gallery imports words

        parts = lines[0][1:].split()
        params = {}
        for p in parts[1:]:
            key, _, value = p.partition("=")
            params[key] = value
        return named_gallery(parts[0], **params)
    alphabet = Alphabet(lines[0])
    seeds = [parse_seed(ln, alphabet) for ln in lines[1:]]
    if not seeds:
        raise ToeplitzError("schedule text has no seed words")
    return FillingSchedule(alphabet, seeds, name=name)


def schedule_to_text(schedule: FillingSchedule, levels: int) -> str:
    lines = [schedule.alphabet.letters]
    for l in range(1, schedule.available_levels(levels) + 1):
        lines.append(schedule.seed(l).symbols)
    return "\n".join(lines) + "\n"
