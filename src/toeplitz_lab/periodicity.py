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
from math import gcd

from .errors import DivisibilityViolation, NoHoles, ToeplitzError
from .words import HOLE, FillingSchedule, PeriodicPattern


class Status(Enum):
    PERIODIC = "periodic"
    NONPERIODIC = "nonperiodic"
    UNDETERMINED = "undetermined"


@dataclass(frozen=True)
class ResidueClassStatus:
    residue: int
    status: Status
    letter: str | None = None


def classify_residues(pat: PeriodicPattern, p: int) -> list[ResidueClassStatus]:
    """Three-valued classification of the residues mod ``p`` against a pattern.

    By the Chinese remainder theorem the positions congruent to ``r``
    mod ``p`` meet exactly the pattern cells congruent to ``r`` mod
    g = gcd(p, period), so each residue is read off the slice
    ``symbols[r % g::g]``; no lcm(p, period) span is built.  This is
    exact relative to the pattern: whatever the pattern leaves
    unresolved stays undetermined.
    """
    if not isinstance(pat, PeriodicPattern):
        raise TypeError("expected a pattern, got %r" % (pat,))
    if p < 1:
        raise ValueError("period must be positive")
    g = gcd(p, pat.period)
    out = []
    for r in range(g):
        letters = set(pat.symbols[r::g])
        holey = HOLE in letters
        letters.discard(HOLE)
        if len(letters) > 1:
            out.append(ResidueClassStatus(r, Status.NONPERIODIC))
        elif holey:
            out.append(ResidueClassStatus(r, Status.UNDETERMINED))
        else:
            out.append(ResidueClassStatus(r, Status.PERIODIC, letters.pop()))
    out += [ResidueClassStatus(r, out[r % g].status, out[r % g].letter) for r in range(g, p)]
    return out


def periodic_assignment(source, p: int) -> dict[int, str]:
    """residue -> letter for the certified-periodic residues mod ``p``."""
    return {
        s.residue: s.letter
        for s in classify_residues(source, p)
        if s.status is Status.PERIODIC
    }


def aperiodic_residues(schedule: FillingSchedule, l: int, depth: int) -> tuple[int, ...]:
    """Residues in [0, p_l) not certified periodic at resolution ``depth``.

    For a genuine hole-filling schedule this equals the level-``l`` hole
    set; the equality is checked and a mismatch raises, since it means a
    hole class was silently completed with a single letter.
    """
    if depth < l:
        raise ValueError("resolution depth must be >= level")
    p = schedule.period(l)
    statuses = classify_residues(schedule.pattern(depth), p)
    aper = tuple(s.residue for s in statuses if s.status is not Status.PERIODIC)
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


def _per_witness(pat: PeriodicPattern, p_small: int, assignment: dict[int, str], probe_cap: int) -> bool:
    """True when Per(p_small) provably differs from the assignment's Per set.

    Looks for a position certified periodic at the large scale whose
    class mod ``p_small`` carries two distinct resolved letters.
    """
    symbols, period = pat.symbols, pat.period
    steps = min(probe_cap, period // gcd(p_small, period))
    for r, letter in assignment.items():
        # scan r + t * p_small for 0 < t < steps (mod period) for a resolved
        # letter != letter, one slice per pass through the period
        pos, end = r + p_small, r + steps * p_small
        while pos < end:
            base = pos - pos % period
            orbit = symbols[pos - base: min(end, base + period) - base: p_small]
            if set(orbit) - {HOLE, letter}:
                return True
            pos += len(orbit) * p_small
    return False


def _per_sets_differ(pat: PeriodicPattern, p: int, p_l: int) -> bool | None:
    """Exact three-valued comparison of Per(p) and Per(p_l) at this resolution.

    Returns True (differ), False (equal as far as certified), or None
    when undetermined residues block the comparison.
    """
    span = p * p_l // gcd(p, p_l)
    small = classify_residues(pat, p)
    large = classify_residues(pat, p_l)
    undetermined = False
    for j in range(span):
        s, t = small[j % p].status, large[j % p_l].status
        if s is Status.PERIODIC and t is Status.NONPERIODIC:
            return True
        if s is Status.NONPERIODIC and t is Status.PERIODIC:
            return True
        if s is Status.UNDETERMINED or t is Status.UNDETERMINED:
            undetermined = True
    return None if undetermined else False


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
    probe_cap: int = 256,
) -> PeriodStructureCertificate:
    """Check divisibility, essentiality and coverage of a candidate scale.

    ``source`` is a schedule (inspected at level ``depth``) or a periodic
    pattern used as-is.  Essentiality of an entry ``p_l`` scans all
    smaller candidate periods; when every entry of the scale is a power
    of one prime q, only powers of q can yield an equal Per set (every
    resolved position has a q-power minimal period), so the scan is
    reduced accordingly.
    """
    scale = tuple(scale)
    if any(b % a for a, b in zip(scale, scale[1:])):
        raise DivisibilityViolation("scale entries must divide their successors: %r" % (scale,))
    if isinstance(source, PeriodicPattern):
        pat = source
    else:
        pat = source.pattern(min(depth, source.available_levels(depth)))
    q = _prime_power_scale(scale)

    nonempty = []
    reports = []
    for p_l in scale:
        assignment = periodic_assignment(pat, p_l)
        nonempty.append(bool(assignment))
        if q is not None:
            candidates = []
            qq = q
            while qq < p_l:
                candidates.append(qq)
                qq *= q
            candidates.insert(0, 1)
        else:
            candidates = range(1, p_l)
        unresolved = []
        for p in candidates:
            if _per_witness(pat, p, assignment, probe_cap):
                continue
            differ = _per_sets_differ(pat, p, p_l)
            if differ is True:
                continue
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
