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
from functools import cached_property
from math import gcd

from .errors import DivisibilityViolation, NoHoles, ToeplitzError
from .words import HOLE, FillingSchedule, PeriodicPattern, hole_positions


@dataclass(frozen=True)
class ResidueClasses:
    """The residues mod ``modulus`` split into the three certified-at-depth sets.

    ``letters`` gives each residue's letter, or ``HOLE`` where it is
    exceptional: ``nonperiodic`` and ``undetermined`` list those residues,
    ascending.  ``periodic`` maps each periodic residue to its letter,
    built on first use.
    """

    modulus: int
    letters: str
    nonperiodic: tuple[int, ...]
    undetermined: tuple[int, ...]

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


def classify_residues(pat: PeriodicPattern, p: int) -> ResidueClasses:
    """Three-valued classification of the residues mod ``p`` against a pattern.

    By the Chinese remainder theorem the positions congruent to ``r``
    mod ``p`` meet exactly the pattern cells congruent to ``r`` mod
    g = gcd(p, period), so each residue is read off the column
    ``symbols[r % g::g]`` of m = period / g cells; no lcm(p, period)
    span is built.  When g <= m every column is read.  Otherwise, read
    as m rows of length g, a column can be exceptional only where it
    holds a hole in row 0 or changes between rows, which halving compares
    of the pattern with itself shifted by g find; only those are read.
    This is exact relative to the pattern: whatever the pattern leaves
    unresolved stays undetermined.
    """
    if not isinstance(pat, PeriodicPattern):
        raise TypeError("expected a pattern, got %r" % (pat,))
    if p < 1:
        raise ValueError("period must be positive")
    symbols = pat.symbols
    g = gcd(p, pat.period)
    if g <= pat.period // g:
        columns = range(g)
    else:
        columns = sorted({j % g for j in _mismatches(symbols, g)}.union(hole_positions(symbols[:g])))
    row = list(symbols[:g])  # each column's letter, HOLE once it proves exceptional
    nonperiodic, undetermined = [], []
    for c in columns:
        cells = symbols[c::g]
        if cells[0] == HOLE or cells.count(cells[0]) < len(cells):  # not one letter throughout
            row[c] = HOLE
            (nonperiodic if len(set(cells) - {HOLE}) > 1 else undetermined).append(c)
    copies = range(0, p, g)
    return ResidueClasses(
        p,
        "".join(row) * len(copies),
        tuple(k + c for k in copies for c in nonperiodic),
        tuple(k + c for k in copies for c in undetermined),
    )


def aperiodic_residues(schedule: FillingSchedule, l: int, depth: int) -> tuple[int, ...]:
    """Residues in [0, p_l) not certified periodic at resolution ``depth``.

    For a genuine hole-filling schedule this equals the level-``l`` hole
    set; the equality is checked and a mismatch raises, since it means a
    hole class was silently completed with a single letter.
    """
    if depth < l:
        raise ValueError("resolution depth must be >= level")
    p = schedule.period(l)
    classes = classify_residues(schedule.pattern(depth), p)
    aper = tuple(sorted(classes.nonperiodic + classes.undetermined))
    if aper != schedule.holes(l):
        raise ToeplitzError(
            "level %d: residues %r not certified periodic at depth %d differ from the hole set %r"
            % (l, aper, depth, schedule.holes(l))
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


def _lifts_differ(symbols: str, row: str, g: int) -> bool:
    """Whether Per(g) provably differs from the Per set whose classes mod
    len(row), a multiple of g, carry the letters ``row`` (``HOLE`` where
    exceptional): whether a periodic class of one side meets a nonperiodic
    class of the other.

    A periodic column mod g has only periodic lifts, so this happens
    exactly when some column mod g has a periodic lift mod len(row) and two
    letters among its lifts' cells: (A) two periodic lifts g apart differ,
    or (B) an exceptional lift's cells and the periodic lifts of its column
    show two letters.  Moduli that do not divide one another reduce to this
    case by the gcd identity: with d = gcd(g, h), Per(g) and Per(h) provably
    differ exactly when Per(d) provably differs from one of them.
    """
    if any(HOLE not in (row[j], row[j + g]) for j in _mismatches(row, g)):  # (A)
        return True
    cells: dict[int, set[str]] = {}  # column mod g -> the cells of its exceptional lifts
    for e in hole_positions(row):
        cells.setdefault(e % g, set()).update(symbols[e::len(row)])
    # (B): row[c::g] holds HOLE, so a periodic lift shows as a second symbol
    return any(len(set(row[c::g])) > 1 and len(seen.union(row[c::g]) - {HOLE}) > 1 for c, seen in cells.items())


def prime_exponents(n: int) -> dict[int, int]:
    """prime -> exponent in the factorisation of ``n`` >= 1, primes ascending."""
    if n < 1:
        raise ValueError("can only factorise positive integers, got %r" % (n,))
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

    ``source`` is a schedule (inspected at level ``depth``) or a periodic
    pattern used as-is.  Essentiality of an entry ``p_l`` scans all
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
    ``_lifts_differ`` reads both comparisons off class letters, those mod
    ``p_l`` and, only when d < g, those mod g; on a prime-power scale g
    divides g_l, so d = g and nothing more is classified.
    """
    scale = tuple(scale)
    if any(b % a for a, b in zip(scale, scale[1:])):
        raise DivisibilityViolation("scale entries must divide their successors: %r" % (scale,))
    if isinstance(source, PeriodicPattern):
        pat = source
    else:
        pat = source.pattern(source.available_levels(depth))
    q = _prime_power_scale(scale)

    nonempty = []
    reports = []
    for p_l in scale:
        large = classify_residues(pat, p_l)
        nonempty.append(len(large.nonperiodic) + len(large.undetermined) < p_l)
        row = large.letters[:gcd(p_l, pat.period)]
        if q is None:
            candidates = range(1, p_l)
        else:  # 1 and the powers of q below p_l
            candidates = [1] + [q ** e for e in range(1, p_l.bit_length()) if q ** e < p_l]
        differs: dict[int, bool] = {}  # gcd(p, period) -> whether Per(p) provably differs from Per(p_l)
        unresolved = []
        for p in candidates:
            g = gcd(p, pat.period)
            if g not in differs:
                d = gcd(g, len(row))
                differs[g] = _lifts_differ(pat.symbols, row, d) or (
                    d < g and _lifts_differ(pat.symbols, classify_residues(pat, g).letters, d))
            if not differs[g]:
                unresolved.append(p)
        reports.append(EssentialityReport(p_l, certified=not unresolved, unresolved_periods=tuple(unresolved)))

    if coverage_window is None:
        half = scale[-2] if len(scale) > 1 else scale[-1]
        coverage_window = (-half, half)
    lo, hi = coverage_window
    covered = HOLE not in pat.window(lo, hi + 1)
    return PeriodStructureCertificate(
        scale=scale,
        depth=depth,
        divisible=True,
        nonempty=tuple(nonempty),
        essentiality=tuple(reports),
        coverage_window=coverage_window,
        covered=covered,
    )


# -- generalised block-filling (all-or-nothing) check -------------------


class OxtobyKind(Enum):
    CERTIFIED = "certified-to-depth"
    REFUTED = "refuted"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class OxtobyVerdict:
    kind: OxtobyKind
    depth: int
    scale: tuple[int, ...]
    level: int | None = None
    witness_block: int | None = None
    reason: str = ""

    @property
    def certified(self) -> bool:
        return self.kind is OxtobyKind.CERTIFIED


def check_oxtoby(schedule: FillingSchedule, depth: int) -> OxtobyVerdict:
    """Blockwise all-or-nothing filling with >= 2 unfilled blocks per level.

    The check runs against the schedule's own level scale, which is
    divisible by construction; the verdict records that scale.
    """
    scale = tuple(schedule.period(l) for l in range(1, depth + 1))
    for l in range(1, depth):
        lo_info = schedule.level_info(l)
        hi_info = schedule.level_info(l + 1)
        p, P = lo_info.period, hi_info.period
        copies = P // p
        lo_holes = set(lo_info.holes)
        hi_by_block: dict[int, set[int]] = {k: set() for k in range(copies)}
        for h in hi_info.holes:
            hi_by_block[h // p].add(h % p)
        unfilled_blocks = 0
        for k in range(copies):
            got = hi_by_block[k]
            if not got:
                continue
            if got != lo_holes:
                return OxtobyVerdict(
                    OxtobyKind.REFUTED, depth, scale, level=l, witness_block=k,
                    reason="block filled partially",
                )
            unfilled_blocks += 1
        if unfilled_blocks < 2:
            return OxtobyVerdict(
                OxtobyKind.REFUTED, depth, scale, level=l,
                reason="fewer than two unfilled blocks",
            )
    return OxtobyVerdict(OxtobyKind.CERTIFIED, depth, scale)


def hole_block_counts(schedule: FillingSchedule, t: int, l: int) -> list[int]:
    """Counts of level-``l`` holes in the aligned length-p_t blocks that contain any."""
    if t > l:
        raise ValueError("t must be <= l")
    p_t = schedule.period(t)
    counts: dict[int, int] = {}
    for h in schedule.holes(l):
        counts[h // p_t] = counts.get(h // p_t, 0) + 1
    return [counts[k] for k in sorted(counts)]
