"""Periodic/aperiodic position sets, period structures and block-filling checks.

Everything here is certified-at-depth: a residue class is reported
periodic only when every position of the class inside one full period of
the inspection pattern is resolved and carries the same letter, and
nonperiodic only on an explicit two-letter witness.  Anything else stays
undetermined.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property, partial
from math import gcd

from .errors import DivisibilityViolation, NoHoles, ToeplitzError
from .words import HOLE, FillingSchedule, PeriodicPattern, hole_class_letters, hole_positions, resolve_window


@dataclass(frozen=True)
class ResidueClasses:
    """The residues mod ``modulus`` split into the three certified-at-depth sets.

    ``letters`` gives each residue's letter, or ``HOLE`` where it is
    exceptional: ``nonperiodic`` and ``undetermined`` list those residues,
    ascending.  The classes repeat with ``width`` = gcd(modulus, period),
    and ``columns`` pairs each exceptional residue below ``width``,
    ascending, with the symbols its pattern cells show, ``HOLE``
    included.  ``periodic`` maps each periodic residue to its letter,
    built on first use.
    """

    modulus: int
    letters: str
    nonperiodic: tuple[int, ...]
    undetermined: tuple[int, ...]
    width: int
    columns: tuple[tuple[int, frozenset[str]], ...]

    @cached_property
    def periodic(self) -> dict[int, str]:
        return {r: c for r, c in enumerate(self.letters) if c != HOLE}


def _mismatches(s: str, shift: int):
    """Ascending indices j with s[j] != s[j + shift], found by halving slice
    comparisons, so each run of agreement costs one C-level compare."""
    stack = [(0, len(s) - shift)]
    while stack:
        lo, hi = stack.pop()
        if s[lo:hi] != s[lo + shift:hi + shift]:
            if hi - lo == 1:
                yield lo
            else:
                mid = (lo + hi) // 2
                stack += [(mid, hi), (lo, mid)]


_NONZERO = bytes([0]) + bytes([1]) * 255  # byte translation: 1 for every nonzero byte


def _differing_columns(row0: str, rows) -> list[int]:
    """Ascending indices where some row of ``rows`` differs from ``row0``.

    Each row is read as one big integer over its UTF-32 code units; the
    XORs with ``row0`` are OR-ed and each column's four bytes folded into
    its first, so every cell costs C-level work and only a differing
    column costs a Python step.
    """
    base = int.from_bytes(row0.encode("utf-32-le", "surrogatepass"), "little")
    diff = 0
    for r in rows:
        diff |= base ^ int.from_bytes(r.encode("utf-32-le", "surrogatepass"), "little")
    diff |= diff >> 8
    diff |= diff >> 16
    flags = diff.to_bytes(4 * len(row0), "little")[::4].translate(_NONZERO)
    out, c = [], flags.find(1)
    while c >= 0:
        out.append(c)
        c = flags.find(1, c + 1)
    return out


def classify_residues(pat: PeriodicPattern, p: int) -> ResidueClasses:
    """Three-valued classification of the residues mod ``p`` read off a pattern by ``_pattern_columns``,
    exact relative to the pattern: whatever the pattern leaves unresolved stays undetermined."""
    if not isinstance(pat, PeriodicPattern):
        raise ToeplitzError("expected a pattern, got %r" % (pat,))
    if p < 1:
        raise ToeplitzError("period must be positive")
    return _residue_classes(p, *_pattern_columns(pat, p))


def _pattern_columns(pat: PeriodicPattern, p: int) -> tuple[list[str], list[tuple[int, frozenset[str]]]]:
    """The first g = gcd(p, period) letters of ``pat``, and each column mod g that is not one letter
    throughout, ascending, with its symbols.

    By the Chinese remainder theorem the positions congruent to ``r``
    mod ``p`` meet exactly the pattern cells congruent to ``r`` mod
    g, so each residue is read off the column
    ``symbols[r % g::g]`` of m = period / g cells; no lcm(p, period)
    span is built.  When g exceeds min(m, 127) the pattern is cut into
    its m rows of g letters and only the distinct rows are kept: a
    column can be exceptional only where it holds a hole in row 0 or
    where a distinct row differs from row 0, and only those columns are
    read.  The differences cost C-level work per cell
    (``_differing_columns``), so this never costs more than a few
    strided reads; it saves the column reads when few columns differ,
    since a row slice and its hash cost about as much as reading 100
    cells of a column.  Otherwise every column is read.
    """
    symbols, period = pat.symbols, pat.period
    g = gcd(p, period)
    if g > min(period // g, 127):
        row0 = symbols[:g]
        rows = {symbols[k:k + g] for k in range(g, period, g)} - {row0}
        candidates = sorted(set(hole_positions(row0)).union(_differing_columns(row0, rows)))
    else:
        candidates = range(g)
    columns = []  # (exceptional column, its symbols), ascending
    for c in candidates:
        cells = symbols[c::g]
        if cells[0] == HOLE or cells.count(cells[0]) < len(cells):  # not one letter throughout
            columns.append((c, frozenset(cells)))
    return list(symbols[:g]), columns


def _residue_classes(p: int, row: list[str], columns) -> ResidueClasses:
    """The classes mod ``p`` from ``row``, the letter of each column mod len(row), and the symbols of the
    columns that may be exceptional, ascending; such a column showing one letter and no hole is periodic."""
    g, kept, nonperiodic, undetermined = len(row), [], [], []
    for c, seen in columns:
        if len(seen) == 1 and HOLE not in seen:
            row[c] = next(iter(seen))
            continue
        row[c] = HOLE
        kept.append((c, seen))
        (nonperiodic if len(seen - {HOLE}) > 1 else undetermined).append(c)
    copies = range(0, p, g)
    return ResidueClasses(
        p,
        "".join(row) * len(copies),
        tuple(k + c for k in copies for c in nonperiodic),
        tuple(k + c for k in copies for c in undetermined),
        g,
        tuple(kept),
    )


def _filled_classes(p: int, pat: PeriodicPattern, shown) -> ResidueClasses:
    """The classes mod ``p`` of ``pat`` read by ``_pattern_columns``, where each hole h of ``pat`` stands for
    the symbols of the (h, symbols) pairs ``shown`` gives for it, ``HOLE`` among them where a class stays open."""
    row, columns = _pattern_columns(pat, p)
    sets: dict[int, set[frozenset[str]]] = {}  # column mod len(row) with holes -> the sets its holes stand for
    for h, v in shown:
        sets.setdefault(h % len(row), set()).add(v)
    return _residue_classes(p, row, [(c, seen.difference(HOLE).union(*sets.get(c, ()))) for c, seen in columns])


def _coarser_classes(classes: ResidueClasses, p: int) -> ResidueClasses:
    """The classes mod a divisor ``p`` of ``classes.modulus``, read off ``classes`` alone: by the Chinese
    remainder theorem each class mod p is a union of classes mod the modulus, so its symbols are the letters
    of its periodic lifts and the symbols ``classes.columns`` keeps for its exceptional lifts."""
    return _filled_classes(p, PeriodicPattern(classes.letters[:classes.width]), classes.columns)


def _class_level(schedule: FillingSchedule, p: int, depth: int) -> int:
    """The first level k whose period g = gcd(p, p_depth) divides."""
    g = gcd(p, schedule.period(depth))
    return next(l for l in range(1, depth + 1) if schedule.period(l) % g == 0)


def schedule_classes(schedule: FillingSchedule, p: int, depth: int) -> ResidueClasses:
    """``classify_residues(schedule.pattern(depth), p)``, with no pattern past the first level k whose
    period g = gcd(p, p_depth) divides: as g | p_k | p_depth, each class mod g is a union of level-k
    columns, and a level-k hole class shows at ``depth`` exactly its ``hole_class_letters`` set, so each
    hole of an exceptional level-k column stands for those letters."""
    if p < 1:
        raise ToeplitzError("period must be positive")
    k = _class_level(schedule, p, depth)
    return _filled_classes(p, schedule.pattern(k), hole_class_letters(schedule, k, depth).items())


def aperiodic_residues(schedule: FillingSchedule, l: int, depth: int) -> tuple[int, ...]:
    """Residues in [0, p_l) not certified periodic at resolution ``depth``.

    A hole class is periodic when ``hole_class_letters`` finds one letter and no hole there.
    For a genuine hole-filling schedule this equals the level-``l`` hole set; a mismatch
    raises, since it means a hole class was silently completed with a single letter.
    """
    if depth < l:
        raise ToeplitzError("resolution depth must be >= level")
    holes = schedule.holes(l)
    aper = tuple(r for r, v in hole_class_letters(schedule, l, depth).items() if len(v) > 1 or HOLE in v)
    if aper != holes:
        raise ToeplitzError(
            "level %d: residues %r not certified periodic at depth %d differ from the hole set %r"
            % (l, aper, depth, holes)
        )
    return aper


def periodic_density(schedule: FillingSchedule, l: int) -> Fraction:
    info = schedule.level_info(l)
    return Fraction(info.period - len(info.holes), info.period)


def min_hole_gap(schedule: FillingSchedule, l: int) -> int:
    """Minimal cyclic distance between consecutive level-``l`` holes."""
    info = schedule.level_info(l)
    holes = info.holes
    if not holes:
        raise NoHoles("level %d has no holes" % l)
    if len(holes) == 1:
        return info.period
    gaps = [b - a for a, b in zip(holes, holes[1:])]
    gaps.append(holes[0] + info.period - holes[-1])
    return min(gaps)


# -- period structures --------------------------------------------------


@dataclass
class EssentialityReport:
    scale_entry: int
    certified: bool
    unresolved_periods: tuple[int, ...] = ()


@dataclass
class PeriodStructureCertificate:
    scale: tuple[int, ...]
    depth: int
    divisible: bool
    nonempty: tuple[bool, ...]
    essentiality: tuple[EssentialityReport, ...]
    coverage_window: tuple[int, int]
    covered: bool

    @property
    def all_pass(self) -> bool:
        return (
            self.divisible
            and all(self.nonempty)
            and all(e.certified for e in self.essentiality)
            and self.covered
        )


def _lifts_differ(classes: ResidueClasses, g: int) -> bool:
    """Whether Per(g) provably differs from the Per set of ``classes``,
    whose width is a multiple of g: whether a periodic class of one side
    meets a nonperiodic class of the other.

    A periodic column mod g has only periodic lifts, so this happens
    exactly when some column mod g has a periodic lift mod the width and
    two letters among its lifts' cells: (A) two periodic lifts g apart
    differ, or (B) the symbols ``classes.columns`` keeps for an
    exceptional lift and the periodic lifts of its column show two
    letters.  The pattern itself is not read again.  Moduli that do not
    divide one another reduce to this case by the gcd identity: with
    d = gcd(g, h), Per(g) and Per(h) provably differ exactly when Per(d)
    provably differs from one of them.
    """
    row = classes.letters[:classes.width]
    if any(HOLE not in (row[j], row[j + g]) for j in _mismatches(row, g)):  # (A)
        return True
    cells: dict[int, set[str]] = {}  # column mod g -> the symbols of its exceptional lifts
    for e, seen in classes.columns:
        cells.setdefault(e % g, set()).update(seen)
    # (B): row[c::g] holds HOLE, so a periodic lift shows as a second symbol
    return any(len(set(row[c::g])) > 1 and len(seen.union(row[c::g]) - {HOLE}) > 1 for c, seen in cells.items())


def prime_exponents(n: int) -> dict[int, int]:
    """prime -> exponent in the factorisation of ``n`` >= 1, primes ascending."""
    if n < 1:
        raise ToeplitzError("can only factorise positive integers, got %r" % (n,))
    out: dict[int, int] = {}
    q = 2
    while q * q <= n:
        while n % q == 0:
            out[q] = out.get(q, 0) + 1
            n //= q
        q += 1
    if n > 1:
        out[n] = 1
    return out


def _prime_power_scale(scale) -> int | None:
    """The single prime q when every scale entry is a power of q, else None."""
    primes = {q for s in scale for q in prime_exponents(s)}
    return primes.pop() if len(primes) == 1 else None


def verify_period_structure(
    source,
    scale,
    depth: int,
    coverage_window: tuple[int, int] | None = None,
) -> PeriodStructureCertificate:
    """Check divisibility, essentiality and coverage of a candidate scale.

    ``source`` is a periodic pattern used as-is, or a schedule read at level
    ``depth`` (at most its last seed, the depth recorded) by ``schedule_classes``
    and ``resolve_window``, so no depth pattern is built; when the level the
    last scale entry's classes are read off has a period past ``PATTERN_CAP``,
    the schedule is refused before any class is read.  A coverage window
    with hi < lo is refused.  Only the last entry is classified from the
    source; going down the scale, each smaller entry's classes are read off
    the next larger entry's, since p_l divides p_(l+1) and so each class
    mod p_l is a union of classes mod p_(l+1) (Chinese remainder theorem).
    Essentiality of an entry ``p_l`` scans all
    smaller candidate periods; when every entry of the scale is a power
    of one prime q, only powers of q can yield an equal Per set (every
    resolved position has a q-power minimal period), so the scan is
    reduced accordingly.  The classes mod p are those mod g = gcd(p, period)
    (Chinese remainder theorem), so each g is judged once against
    g_l = gcd(p_l, period), by the gcd identity: with d = gcd(g, g_l),
    Per(g) and Per(g_l) provably differ exactly when Per(d) provably
    differs from one of them.  A class mod g meets every class mod g_l that
    agrees with it mod d, so a class mod d with two letters under a
    periodic class of one side has a nonperiodic lift on the other side.
    ``_lifts_differ`` reads both comparisons off the class letters and the
    exceptional columns' symbols each classification keeps, those mod
    ``p_l`` and, only when d < g, those mod g; on a prime-power scale g
    divides g_l, so d = g and nothing more is classified.
    """
    scale = tuple(scale)
    if not scale or min(scale) < 1:
        raise ToeplitzError("scale must be a nonempty list of periods >= 1: %r" % (scale,))
    if any(b % a for a, b in zip(scale, scale[1:])):
        raise DivisibilityViolation("scale entries must divide their successors: %r" % (scale,))
    if coverage_window is None:
        half = scale[-2] if len(scale) > 1 else scale[-1]
        coverage_window = (-half, half)
    lo, hi = coverage_window
    if hi < lo:
        raise ToeplitzError("coverage window (%d, %d) ends before it starts" % (lo, hi))
    if isinstance(source, PeriodicPattern):
        period, classes, window = source.period, partial(classify_residues, source), source.window
    else:
        depth = source.available_levels(depth)
        # each scale entry's g divides the last one's, so the last entry reads the deepest level
        source.check_pattern(_class_level(source, scale[-1], depth))
        period, classes = source.period(depth), partial(schedule_classes, source, depth=depth)
        window = partial(resolve_window, source, max_level=depth)
    q = _prime_power_scale(scale)
    entries = [classes(scale[-1])]  # the classes mod each scale entry, last entry first
    for p_l in reversed(scale[:-1]):
        entries.append(_coarser_classes(entries[-1], p_l))

    nonempty = []
    reports = []
    for p_l, large in zip(scale, reversed(entries)):
        nonempty.append(len(large.nonperiodic) + len(large.undetermined) < p_l)
        if q is None:
            candidates = range(1, p_l)
        else:  # 1 and the powers of q below p_l
            candidates = [1] + [q ** e for e in range(1, p_l.bit_length()) if q ** e < p_l]
        differs: dict[int, bool] = {}  # gcd(p, period) -> whether Per(p) provably differs from Per(p_l)
        unresolved = []
        for p in candidates:
            g = gcd(p, period)
            if g not in differs:
                d = gcd(g, large.width)
                differs[g] = _lifts_differ(large, d) or (d < g and _lifts_differ(classes(g), d))
            if not differs[g]:
                unresolved.append(p)
        reports.append(EssentialityReport(p_l, certified=not unresolved, unresolved_periods=tuple(unresolved)))

    return PeriodStructureCertificate(
        scale=scale,
        depth=depth,
        divisible=True,
        nonempty=tuple(nonempty),
        essentiality=tuple(reports),
        coverage_window=coverage_window,
        covered=HOLE not in window(lo, min(hi + 1, lo + period)),  # one period shows every hole
    )


# -- generalised block-filling (all-or-nothing) check -------------------


class VerdictKind(Enum):
    CERTIFIED_TO_DEPTH = "certified-to-depth"
    CERTIFIED_STRUCTURALLY = "certified-structurally"
    REFUTED = "refuted"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class OxtobyVerdict:
    kind: VerdictKind
    depth: int
    scale: tuple[int, ...]
    level: int | None = None
    witness_block: int | None = None
    reason: str = ""
    # per checked level l, ascending: the blocks k of the level-(l+1) period
    # whose cells k * p_l + r are holes for every level-l hole r
    unfilled_blocks: tuple[tuple[int, ...], ...] = ()

    @property
    def certified(self) -> bool:
        return self.kind is VerdictKind.CERTIFIED_TO_DEPTH


def check_oxtoby(schedule: FillingSchedule, depth: int) -> OxtobyVerdict:
    """Blockwise all-or-nothing filling with >= 2 unfilled blocks per level.

    The check runs against the schedule's own level scale, which is
    divisible by construction; the verdict records that scale.  Each
    level's deeper holes are grouped once by block, in hole order, so the
    blocks come in ascending order and the first partly filled one is the
    witness.  Below depth 2 no pair of levels is compared, so nothing is certified.
    """
    scale = schedule.scale(depth)
    if depth < 2:
        return OxtobyVerdict(VerdictKind.UNKNOWN, depth, scale, reason="no pair of levels compared below depth 2")
    unfilled: list[tuple[int, ...]] = []
    for l in range(1, depth):
        p = scale[l - 1]
        lo_holes = list(schedule.holes(l))
        blocks: dict[int, list[int]] = {}  # block -> residues mod p of its deeper holes, ascending
        for h in schedule.holes(l + 1):
            blocks.setdefault(h // p, []).append(h % p)
        for k, got in blocks.items():
            if got != lo_holes:
                return OxtobyVerdict(
                    VerdictKind.REFUTED, depth, scale, level=l, witness_block=k,
                    reason="block filled partially", unfilled_blocks=tuple(unfilled),
                )
        if len(blocks) < 2:
            return OxtobyVerdict(
                VerdictKind.REFUTED, depth, scale, level=l,
                reason="fewer than two unfilled blocks", unfilled_blocks=tuple(unfilled),
            )
        unfilled.append(tuple(blocks))
    return OxtobyVerdict(VerdictKind.CERTIFIED_TO_DEPTH, depth, scale, unfilled_blocks=tuple(unfilled))


def hole_block_counts(schedule: FillingSchedule, t: int, l: int) -> list[int]:
    """Counts of level-``l`` holes in the aligned length-p_t blocks that contain any."""
    if t > l:
        raise ToeplitzError("t must be <= l")
    p_t = schedule.period(t)
    counts: dict[int, int] = {}
    for h in schedule.holes(l):
        counts[h // p_t] = counts.get(h // p_t, 0) + 1
    return [counts[k] for k in sorted(counts)]
