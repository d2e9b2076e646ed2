"""Seed words, periodic patterns and the hole-filling composition.

A bi-infinite word is built in stages: a periodic pattern with holes is
refined by inserting the next seed word, letter by letter, into its hole
positions.  Levels are represented two ways: as explicit character
patterns (one period) when the period is small enough, and as pure
arithmetic (period plus sorted hole positions) up to ``PATTERN_CAP``
holes per period.  Letters of the limit word are read without either:
``evaluate`` walks the seed stack for one position and
``resolve_window`` walks it for a whole window at once, so both work at
any period scale.  Positions are ordinary Python integers, so nothing
overflows.
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

#: Largest period for which an explicit one-period pattern is materialised,
#: and the most holes per period or seed letters ``level_info`` lists for a level.
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
        return len(ch) == 1 and ch in self.letters

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
        if self.symbols.count(HOLE) == len(self.symbols):
            raise AllHoles("seed word contains no letter: %r" % self.symbols)
        unknown = set(self.symbols).difference(self.alphabet.letters, HOLE)
        if unknown:
            c = min(unknown, key=self.symbols.index)
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


def parse_seed(text: str, alphabet: Alphabet = BINARY) -> SeedWord:
    """Parse a seed word from text; rejects ragged words."""
    word = SeedWord(text, alphabet)
    if word.is_ragged:
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
        return _periodic_slice(self.symbols, start % self.period, stop - start)


def _periodic_slice(symbols: str, i: int, n: int) -> str:
    """The ``n`` characters of the periodic extension of ``symbols`` from index ``i`` (0 <= i < period)."""
    head = symbols[i: i + n]
    full, rest = divmod(n - len(head), len(symbols))
    return head + symbols * full + symbols[:rest]


def fill_holes(text: str, letters: str) -> str:
    """``text`` with its holes replaced, in order, by the characters of ``letters``.

    ``letters`` must have exactly one character per hole; a hole marker
    among them leaves that hole open.
    """
    parts = text.split(HOLE)
    out = [""] * (2 * len(parts) - 1)
    out[0::2] = parts
    out[1::2] = letters
    return "".join(out)


def compose_fill(outer: PeriodicPattern, inner: SeedWord) -> PeriodicPattern:
    """Insert the periodic extension of ``inner`` into the holes of ``outer``.

    Hole number ``i`` (hole 0 being the first non-negative one) receives
    ``inner[i mod len(inner)]``.
    """
    h = outer.hole_count
    if h == 0:
        raise NoHoles("outer pattern has no holes to fill")
    p, q = outer.period, len(inner)
    new_period = p * q // gcd(h, q)
    if new_period > PATTERN_CAP:
        raise PatternTooLarge("composed period %d exceeds pattern cap" % new_period)
    return PeriodicPattern(
        fill_holes(outer.symbols * (new_period // p), inner.symbols * (h // gcd(h, q))), outer.alphabet
    )


class _LevelInfo:
    """Period and hole positions of a level, without the letter pattern."""

    __slots__ = ("period", "holes")

    def __init__(self, period: int, holes: tuple[int, ...]):
        self.period = period
        self.holes = holes


class FillingSchedule:
    """A reproducible sequence of seed words defining a Toeplitz word.

    Seeds may be given literally, one level per seed, or through a rule
    evaluated per level (for at most ``max_levels`` levels); the rule
    must be deterministic.  ``declarations`` carries structural facts a
    construction is known to satisfy (e.g. a bound on holes per period);
    they are advisory metadata re-checked by the analysis layer, never
    silently trusted for raw computations.

    Instances are immutable apart from internal caches and are safe for
    concurrent reads.
    """

    def __init__(
        self,
        alphabet: Alphabet,
        seeds: Sequence[SeedWord] | Callable[[int], SeedWord],
        max_levels: int | None = None,
        declarations: dict | None = None,
        name: str = "",
    ):
        self.alphabet = alphabet
        if callable(seeds):
            self._seed_fn = seeds
            self.max_levels = max_levels
        else:
            if max_levels is not None:
                raise ToeplitzError("literal seeds give one level each; max_levels applies only to a seed rule")
            literal = tuple(seeds)
            if not literal:
                raise ToeplitzError("schedule needs at least one seed")
            self._seed_fn = lambda l: literal[l - 1]
            self.max_levels = len(literal)
        self.declarations = dict(declarations or {})
        self.name = name
        self._seeds: dict[int, SeedWord] = {}
        self._infos: dict[int, _LevelInfo] = {}
        self._walk: dict[int, tuple[str, int, tuple[int, ...]]] = {}
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

    def available_levels(self, cap: int = 64) -> int:
        return cap if self.max_levels is None else min(cap, self.max_levels)

    def _walk_step(self, l: int) -> tuple[str, int, tuple[int, ...]]:
        """Seed ``l``'s text, its length q and its sorted holes: hole i of the level above
        receives letter i mod q."""
        step = self._walk.get(l)
        if step is None:
            w = self.seed(l).symbols
            step = (w, len(w), hole_positions(w))
            self._walk[l] = step
        return step

    # -- level arithmetic (any scale) -------------------------------------

    def level_info(self, l: int) -> _LevelInfo:
        """Period and sorted hole positions of level ``l``.

        The hole count of every level still to be listed, lcm(h, q)/q
        times the seed's hole count, is worked out first; a count or a
        seed length past ``PATTERN_CAP`` raises PatternTooLarge before any
        hole is listed.
        """
        info = self._infos.get(l)
        if info is not None:
            return info
        if l < 1:
            raise ToeplitzError("level must be >= 1")
        first = l
        while first > 1 and first - 1 not in self._infos:
            first -= 1
        h = len(self._infos[first - 1].holes) if first > 1 else self.seed(1).hole_count
        for k in range(max(first, 2), l + 1):
            if not h:
                break
            w = self.seed(k)
            if len(w) > PATTERN_CAP:
                raise PatternTooLarge("seed %d has length %d, beyond the explicit-pattern cap" % (k, len(w)))
            h = h // gcd(h, len(w)) * w.hole_count
            if h > PATTERN_CAP:
                raise PatternTooLarge(
                    "level %d has %d holes per period, beyond the explicit-pattern cap" % (k, h)
                )
        for k in range(first, l + 1):
            if k == 1:
                _, q, holes = self._walk_step(1)
                info = _LevelInfo(q, holes)
            elif not self._infos[k - 1].holes:
                # fully periodic already; deeper levels change nothing
                info = _LevelInfo(self._infos[k - 1].period, ())
            else:
                prev = self._infos[k - 1]
                _, q, seed_holes = self._walk_step(k)
                h, p = len(prev.holes), prev.period
                n = h * q // gcd(h, q)
                # hole i of the previous level (repeated n // h times) stays a
                # hole when seed letter i mod q is one; positions grow with i,
                # so they come out sorted
                holes = tuple([
                    ((b + r) // h) * p + prev.holes[(b + r) % h] for b in range(0, n, q) for r in seed_holes
                ])
                info = _LevelInfo(n // h * p, holes)
            self._infos[k] = info
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
        pat = PeriodicPattern(self.seed(1).symbols, self.alphabet)
        for k in range(2, l + 1):
            if not pat.holes:
                break
            pat = compose_fill(pat, self.seed(k))
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
        seed, q, seed_holes = steps.get(l) or schedule._walk_step(l)
        c = seed[pos % q]
        if c != HOLE:
            return c
        pos = (pos // q) * len(seed_holes) + bisect_left(seed_holes, pos % q)
    return None


def resolve_window(schedule: FillingSchedule, start: int, stop: int, max_level: int) -> str:
    """The word on ``[start, stop)`` with unresolved positions shown as holes.

    Gives ``evaluate`` position by position, in one walk down the seed
    stack: consecutive holes of a level's window are consecutive holes of
    that level, so the next level needs only the window of their ranks.
    The walk stops at the first window without holes or after
    ``max_level`` levels, and each level's holes are then filled from
    the window below.  No pattern is built, so it works at any period
    scale, and its work is the sum of the window lengths it reads.
    """
    if stop <= start:
        return ""
    steps = schedule._walk
    texts = []
    lo, n = start, stop - start
    for l in range(1, schedule.available_levels(max_level) + 1):
        seed, q, seed_holes = steps.get(l) or schedule._walk_step(l)
        text = _periodic_slice(seed, lo % q, n)
        texts.append(text)
        n = text.count(HOLE)
        if not n:
            break
        j = lo + text.index(HOLE)
        lo = (j // q) * len(seed_holes) + bisect_left(seed_holes, j % q)
    word = HOLE * n
    while texts:
        word = fill_holes(texts.pop(), word)
    return word


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
        name="%s[tail %d]" % (schedule.name or "schedule", l),
    )


def schedule_from_text(text: str, name: str = "") -> FillingSchedule:
    """Parse the literal-seed schedule format.

    Line 1 is the alphabet; each further non-comment line is one seed
    word.  ``#`` starts a comment.  A gallery reference (a line starting
    with ``@``) is resolved by the gallery module and must be the only
    non-comment line.
    """
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ToeplitzError("empty schedule text")
    if lines[0].startswith("@"):
        from .gallery import gallery as named_gallery, parse_params  # deferred: gallery imports words

        parts = lines[0][1:].split()
        if not parts:
            raise ToeplitzError("gallery reference %r names no entry" % lines[0])
        if len(lines) > 1:
            raise ToeplitzError("gallery reference %r is followed by %d more lines" % (lines[0], len(lines) - 1))
        return named_gallery(parts[0], **parse_params(parts[1:]))
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
