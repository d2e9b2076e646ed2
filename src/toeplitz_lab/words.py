"""Seed words, periodic patterns and the hole-filling composition.

A bi-infinite word is built in stages: a periodic pattern with holes is
refined by inserting the next seed word, letter by letter, into its hole
positions.  Levels are represented two ways: as explicit character
patterns (one period) when the period is small enough, and as pure
arithmetic (period plus sorted hole positions) up to ``PATTERN_CAP``
holes per period.  Letters of the limit word are read without a pattern
of the level read: ``evaluate`` walks the seed stack for one position
and ``resolve_window`` walks it for a whole window at once, so both work
at any period scale.  Both walks take their first levels in one step, a
table of the deepest level they read whose period is at most
``_TABLE_CAP`` (one period of its letters, cached per schedule), and
then one seed per level below it; ``pattern`` composes onward from the
same table.  Positions are ordinary Python integers, so nothing overflows.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from math import gcd
from typing import Callable, NamedTuple, Sequence

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

#: Largest period for which an explicit one-period pattern is materialised (``analyze`` reads the level
#: patterns up to its deepest scale entry, not the depth pattern), the most holes per
#: period or seed letters ``level_info`` lists for a level, the most hole slots per level
#: ``hole_class_letters`` fills (so also those behind the factor reader, ``factors.factor_residues``),
#: and the longest window ``resolve_window`` reads.
PATTERN_CAP = 1 << 22

#: Largest period of the level table that starts every seed walk.
_TABLE_CAP = 1 << 12


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

    def __post_init__(self):
        if not self.symbols:
            raise ToeplitzError("periodic pattern is empty")

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


_HASH_MODULUS = (1 << 61) - 1
_HASH_BASE = 1_000_003


def window_hashes(text: str, length: int, n: int) -> list[int]:
    """The hashes of ``text[i: i + length]`` for 0 <= i < n, in O(n + length) steps.

    A word's hash is the polynomial sum of ``ord(w[k]) * B ** (length - 1 - k)`` modulo the
    prime 2^61 - 1, with B = ``_HASH_BASE``; each window's hash is rolled from the one before.
    Equal words have equal hashes; words with equal hashes need not be equal, so a caller that
    counts or groups words compares the words behind a shared hash.
    """
    if length < 1 or n < 0 or n + length - 1 > len(text):
        raise ToeplitzError("no %d windows of length %d in a text of %d letters" % (n, length, len(text)))
    if not n:
        return []
    mod, base, shift = _HASH_MODULUS, _HASH_BASE, pow(_HASH_BASE, length, _HASH_MODULUS)
    codes = list(map(ord, text[: n + length - 1]))
    h = 0
    for c in codes[:length]:
        h = (h * base + c) % mod
    out = [h]
    for a, b in zip(codes, codes[length:]):  # drop letter i, take letter i + length
        h = (h * base + b - a * shift) % mod
        out.append(h)
    return out


def compose_fill(outer: PeriodicPattern, inner: SeedWord) -> PeriodicPattern:
    """Insert the periodic extension of ``inner`` into the holes of ``outer``.

    Hole number ``i`` (hole 0 being the first non-negative one) receives
    ``inner[i mod len(inner)]``.  Every level of a schedule, its walk
    table and each ``pattern``, is composed this way from the root ``?``.
    """
    h = outer.hole_count
    if h == 0:
        raise NoHoles("outer pattern has no holes to fill")
    p, q, g = outer.period, len(inner), gcd(h, len(inner))
    if p * q // g > PATTERN_CAP:
        raise PatternTooLarge("composed period %d exceeds pattern cap" % (p * q // g))
    return PeriodicPattern(fill_holes(outer.symbols * (q // g), inner.symbols * (h // g)))


class _LevelInfo(NamedTuple):
    """Period and hole positions of a level, without the letter pattern."""

    period: int
    holes: tuple[int, ...]


class FillingSchedule:
    """A reproducible sequence of seed words defining a Toeplitz word.

    Seeds may be given literally, one level per seed, or through a rule
    evaluated per level, which must be deterministic; every seed must be
    a ``SeedWord``.  ``max_levels`` is the number of literal seeds, or
    None for a rule, which has no last level.  ``declarations`` carries
    structural facts a construction is designed to satisfy;
    ``boundary.property_verdicts`` re-checks ``bounded_holes``,
    ``boundary_singleton`` and ``oxtoby`` at depth, and the rest are
    descriptive.  Level 0, the all-hole word of period 1, roots the
    levels: level l is seed l composed onto level l - 1.  The accessors
    start at level 1.

    Instances are immutable apart from internal caches and are safe for
    concurrent reads.
    """

    def __init__(
        self,
        alphabet: Alphabet,
        seeds: Sequence[SeedWord] | Callable[[int], SeedWord],
        declarations: dict | None = None,
        name: str = "",
    ):
        self.alphabet = alphabet
        if callable(seeds):
            self._seed_fn = seeds
            self.max_levels = None
        else:
            literal = tuple(seeds)
            if not literal:
                raise ToeplitzError("schedule needs at least one seed")
            self._seed_fn = lambda l: literal[l - 1]
            self.max_levels = len(literal)
        self.declarations = dict(declarations or {})
        self.name = name
        self._seeds: dict[int, SeedWord] = {}
        self._infos: dict[int, _LevelInfo] = {0: _LevelInfo(1, (0,))}
        self._walk: dict[int, tuple[str, int, tuple[int, ...]]] = {}
        self._tables: dict[int, tuple[int, str, int, tuple[int, ...]]] = {}
        self._runs: dict[tuple[int, int, int], tuple] = {}

    # -- seeds -----------------------------------------------------------

    def seed(self, l: int) -> SeedWord:
        if l < 1 or (self.max_levels is not None and l > self.max_levels):
            raise ToeplitzError("schedule has no seed at level %d" % l)
        if l not in self._seeds:
            w = self._seed_fn(l)
            if not isinstance(w, SeedWord):
                raise ToeplitzError("seed %d is a %s, not a SeedWord" % (l, type(w).__name__))
            if w.alphabet != self.alphabet:
                w = SeedWord(w.symbols, self.alphabet)
            self._seeds[l] = w
        return self._seeds[l]

    def available_levels(self, cap: int) -> int:
        return cap if self.max_levels is None else min(cap, self.max_levels)

    def check_depth(self, depth: int) -> None:
        """Refuse a depth past the schedule's last seed, also where its holes have died out before it.

        ``level_info`` refuses such a level only while holes remain; a reader that keeps one entry per
        level up to ``depth`` calls this first, so no entry is made for a level the schedule lacks.
        """
        if self.max_levels is not None and depth > self.max_levels:
            raise ToeplitzError("schedule has no seed at level %d" % (self.max_levels + 1))

    def _walk_step(self, l: int) -> tuple[str, int, tuple[int, ...]]:
        """Seed ``l``'s text, its length q and its sorted holes: hole i of the level above
        receives letter i mod q."""
        step = self._walk.get(l)
        if step is None:
            w = self.seed(l).symbols
            step = (w, len(w), hole_positions(w))
            self._walk[l] = step
        return step

    def _table(self, levels: int) -> tuple[int, str, int, tuple[int, ...]]:
        """The first step of a walk of ``levels`` levels: (m, level m's letters over one
        period with holes where it leaves them, p_m, its holes).

        m is the deepest level up to ``levels`` whose period is at most
        ``_TABLE_CAP``, composed with ``compose_fill`` from the level-0 root
        ``?``; it is 0 when seed 1 is longer than the cap.  A level's period
        is worked out from the seed length and hole count before the level
        is composed, so no seed past ``levels`` is read and no level past
        the bound is built.  Tables are cached per call depth, each stored
        whole in one assignment, so a concurrent reader sees a finished
        table or none.
        """
        m, pat = 0, PeriodicPattern(HOLE)
        while m < levels and pat.hole_count:
            w = self.seed(m + 1)
            if pat.period * len(w) // gcd(pat.hole_count, len(w)) > _TABLE_CAP:
                break
            m, pat = m + 1, compose_fill(pat, w)
        table = self._tables.setdefault(m, (m, pat.symbols, pat.period, pat.holes))
        self._tables[levels] = table
        return table

    # -- level arithmetic (any scale) -------------------------------------

    def level_info(self, l: int) -> _LevelInfo:
        """Period and sorted hole positions of level ``l``.

        The hole count of every level still to be listed, lcm(h, q)/q
        times the seed's hole count, is worked out first; a count or a
        seed length past ``PATTERN_CAP`` raises PatternTooLarge before any
        hole is listed.
        """
        if l < 1:
            raise ToeplitzError("level must be >= 1")
        info = self._infos.get(l)
        if info is not None:
            return info
        # levels are cached from the root upward with no gaps, up to the first
        # hole-free one, so the first uncached level follows the cached ones
        first = len(self._infos)
        h = len(self._infos[first - 1].holes)
        for k in range(first, l + 1):
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
            p, prev_holes = self._infos[k - 1]
            if not prev_holes:
                # fully periodic already; deeper levels change nothing, so none is listed
                return self._infos[k - 1]
            _, q, seed_holes = self._walk_step(k)
            h = len(prev_holes)
            n = h * q // gcd(h, q)
            # hole i of the previous level (repeated n // h times) stays a
            # hole when seed letter i mod q is one; positions grow with i,
            # so they come out sorted
            holes = tuple([
                ((b + r) // h) * p + prev_holes[(b + r) % h] for b in range(0, n, q) for r in seed_holes
            ])
            info = self._infos[k] = _LevelInfo(n // h * p, holes)
        return info

    def period(self, l: int) -> int:
        return self.level_info(l).period

    def holes(self, l: int) -> tuple[int, ...]:
        return self.level_info(l).holes

    def scale(self, depth: int) -> tuple[int, ...]:
        """The level periods p_1, ..., p_depth: the odometer's scale to ``depth``."""
        self.level_info(depth)  # refuses depth < 1 and lists every level up to it
        return tuple(self.level_info(l).period for l in range(1, depth + 1))

    # -- explicit patterns (desk scale) ------------------------------------

    def check_pattern(self, l: int) -> None:
        """Refuse level ``l`` if its period is past ``PATTERN_CAP``, before any pattern is composed."""
        info = self.level_info(l)
        if info.period > PATTERN_CAP:
            raise PatternTooLarge(
                "level %d has period %d, beyond the explicit-pattern cap" % (l, info.period)
            )

    def pattern(self, l: int) -> PeriodicPattern:
        """One period of level ``l``: seeds m + 1 ... l composed onto the walk table's level m, none kept."""
        self.check_pattern(l)
        m, text, _, _ = self._tables.get(l) or self._table(l)
        pat = PeriodicPattern(text)
        for k in range(m + 1, l + 1):
            if not self._infos[k - 1].holes:
                break
            pat = compose_fill(pat, self.seed(k))
        return pat

    def __repr__(self):
        return "FillingSchedule(%s)" % (self.name or "anonymous")


def evaluate(schedule: FillingSchedule, j: int, max_level: int) -> str | None:
    """Letter of the limit word at position ``j``, or None if still a hole.

    Walks the seed stack: a hole at one stage is the ``rank``-th hole of
    that stage, and the ranks form the positions of the derived tail word.
    The first stage is the schedule's level table (periods up to
    ``_TABLE_CAP``), then one seed per level, so it works at any period
    scale.
    """
    levels = schedule.available_levels(max_level)
    l, seed, q, seed_holes = schedule._tables.get(levels) or schedule._table(levels)
    steps = schedule._walk
    pos = j
    while True:
        c = seed[pos % q]
        if c != HOLE:
            return c
        if l >= levels:
            return None
        pos = (pos // q) * len(seed_holes) + bisect_left(seed_holes, pos % q)
        l += 1
        seed, q, seed_holes = steps.get(l) or schedule._walk_step(l)


def resolve_window(schedule: FillingSchedule, start: int, stop: int, max_level: int) -> str:
    """The word on ``[start, stop)`` with unresolved positions shown as holes.

    Gives ``evaluate`` position by position, in one walk down the seed
    stack: consecutive holes of a level's window are consecutive holes of
    that level, so the next level needs only the window of their ranks.
    The walk starts from the schedule's level table (periods up to
    ``_TABLE_CAP``), stops at the first window without holes or after
    ``max_level`` levels, and each level's holes are then filled from
    the window below.  No pattern of the level read is built, so it
    works at any period scale, and its work is the sum of the window
    lengths it reads.  A window longer than ``PATTERN_CAP`` raises
    PatternTooLarge.
    """
    if stop <= start:
        return ""
    if stop - start > PATTERN_CAP:
        raise PatternTooLarge("window [%d, %d) is longer than the cap %d" % (start, stop, PATTERN_CAP))
    levels = schedule.available_levels(max_level)
    l, seed, q, seed_holes = schedule._tables.get(levels) or schedule._table(levels)
    steps = schedule._walk
    texts = []
    lo, n = start, stop - start
    while True:
        text = _periodic_slice(seed, lo % q, n)
        texts.append(text)
        n = text.count(HOLE)
        if not n or l >= levels:
            break
        j = lo + text.index(HOLE)
        lo = (j // q) * len(seed_holes) + bisect_left(seed_holes, j % q)
        l += 1
        seed, q, seed_holes = steps.get(l) or schedule._walk_step(l)
    word = HOLE * n
    while texts:
        word = fill_holes(texts.pop(), word)
    return word


def hole_class_letters(schedule: FillingSchedule, l: int, resolution: int, run: int = 1) -> dict[int, frozenset[str]]:
    """Level ``l``'s holes -> the words each one's run of ``run`` holes shows; ``{}`` where level l has none.

    A hole's run is it and the next ``run - 1`` holes of its level, read along the hole's class at level
    ``resolution``, with ``HOLE`` where the class still holds a hole.  No pattern is built: seed m (length q,
    c holes) shows level-(m - 1) hole ranks u .. u + k - 1 its letters (u .. u + k - 1) mod q and leaves its
    holes among them open as the level-m run from rank (u // q) * c + (seed holes below u mod q), so each
    level's words follow from the next, upward from ``resolution`` (at least ``l``).  No seed is read past a
    level without holes; over ``PATTERN_CAP`` slots per level raise PatternTooLarge (``hole_counts``).
    """
    if not 1 <= l <= resolution:
        raise ToeplitzError("level %d is not in 1..%d, the resolution level" % (l, resolution))
    counts = hole_counts(schedule, resolution)
    if l >= len(counts) or not counts[l]:  # the holes have died out by level l
        return {}
    classes = _run_classes(schedule, counts, l, run)
    sets = {v: _symbols(schedule, v) if run == 1 else v for v in set(classes)}  # one object per distinct set
    return dict(zip(schedule.holes(l), map(sets.__getitem__, classes)))


def hole_counts(schedule: FillingSchedule, resolution: int) -> list[int]:
    """Hole counts per period of levels 0, 1, ... up to ``resolution`` or the first level without holes.

    Worked out from seed lengths and hole counts alone, listing no hole: seed m + 1 (length q) meets the
    h holes of level m in lcm(h, q) <= p_(m+1) slots, and over ``PATTERN_CAP`` slots raise PatternTooLarge.
    """
    counts = [1]  # level 0, the all-hole root
    while len(counts) <= resolution and counts[-1]:
        h, w = counts[-1], schedule.seed(len(counts))
        g = gcd(h, len(w))
        if h // g * len(w) > PATTERN_CAP:
            raise PatternTooLarge("level %d has %d hole slots, beyond the cap" % (len(counts) - 1, h // g * len(w)))
        counts.append(h // g * w.hole_count)
    return counts


def _symbols(schedule: FillingSchedule, mask: int) -> frozenset[str]:
    """The symbols of a bit mask over ``HOLE`` and the alphabet, in that order."""
    return frozenset(c for b, c in enumerate(HOLE + schedule.alphabet.letters) if mask >> b & 1)


def _run_classes(schedule: FillingSchedule, counts: list[int], m: int, k: int) -> tuple:
    """Level ``m``'s hole classes in rank order: the words the run of ``k`` holes from each shows at level
    len(counts) - 1, as bit masks of ``_symbols`` when k == 1.  Cached per schedule, each stored whole."""
    key = (len(counts) - 1, m, k)
    if key in schedule._runs:
        return schedule._runs[key]
    h = counts[m]
    if m == len(counts) - 1:
        classes = [1 if k == 1 else frozenset([HOLE * k])] * h
    elif k == 1:
        w, q, seed_holes = schedule._walk_step(m + 1)
        bit, g = {ch: 2 << b for b, ch in enumerate(schedule.alphabet.letters)}, gcd(h, q)
        # class i meets the seed letters at i mod g; the open slots b + s come in level-(m + 1) rank order
        classes = [sum(bit[ch] for ch in set(w[i::g]) - {HOLE}) for i in range(g)] * (h // g)
        slots = (b + s for b in range(0, h // g * q, q) for s in seed_holes)
        for u, v in zip(slots, _run_classes(schedule, counts, m + 1, 1)):
            classes[u % h] |= v
    else:
        w, q, seed_holes = schedule._walk_step(m + 1)
        g, c, text = gcd(h, q), len(seed_holes), _periodic_slice(w, 0, q + k - 1)
        hits = sorted({(s - d) % q for s in seed_holes for d in range(k)})  # the windows that meet a seed hole
        holed = {text[o: o + k] for o in hits}
        classes = [frozenset({text[o: o + k] for o in range(i, q, g)} - holed) for i in range(g)] * (h // g)
        below, filled = {}, {}  # level-(m + 1) classes per run length; (window, words) -> the window filled
        for o in hits:
            window = text[o: o + k]
            n = window.count(HOLE)
            if n not in below:
                below[n] = _run_classes(schedule, counts, m + 1, n)
            j = o + window.index(HOLE)
            r = (j // q) * c + bisect_left(seed_holes, j % q)  # the run's first level-(m + 1) rank at u = o
            for t in range(h // g):  # the ranks u = o + t * q below lcm(h, q)
                v = below[n][(r + t * c) % len(below[n])]
                if n < k:  # a window of holes alone shows the level-(m + 1) run's words as they are
                    if (window, v) not in filled:
                        words = _symbols(schedule, v) if n == 1 else v
                        filled[window, v] = frozenset(fill_holes(window, x) for x in words)
                    v = filled[window, v]
                classes[(o + t * q) % h] |= v
    classes = schedule._runs[key] = tuple(classes)
    return classes


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
