"""Sliding block codes and factor-word analysis.

A code maps every window of width 2J+1 to a letter.  Applying it to a
partially resolved pattern outputs a letter only when every completion of
the window agrees; otherwise the output is a hole, so factor analysis
composes with the three-valued periodicity machinery.  Residue
classification of a factor word distinguishes certified-nonperiodic
residues (two differing resolved outputs) from the permanently
undetermined shadows that a code's holes cast.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .errors import (
    NotIsolated,
    NotOxtoby,
    PatternTooLarge,
    RadiusTooLarge,
    ToeplitzError,
    UnresolvedWindow,
)
from .periodicity import Status, check_oxtoby, classify_residues
from .words import HOLE, Alphabet, FillingSchedule, PeriodicPattern, evaluate, hole_positions, resolve_window

MAX_COMPLETION_HOLES = 16


class SlidingBlockCode:
    """A total local rule of radius J given by an explicit table."""

    def __init__(self, alphabet: Alphabet, radius: int, table: dict[str, str]):
        self.alphabet = alphabet
        self.radius = radius
        width = 2 * radius + 1
        expected = len(alphabet) ** width
        if len(table) != expected:
            raise ToeplitzError("table has %d entries, needs %d" % (len(table), expected))
        for k, v in table.items():
            if len(k) != width or any(c not in alphabet for c in k) or v not in alphabet:
                raise ToeplitzError("bad table entry %r -> %r" % (k, v))
        self.table = dict(table)

    def __call__(self, window: str) -> str:
        return self.table[window]

    @classmethod
    def from_fn(cls, alphabet: Alphabet, radius: int, fn) -> "SlidingBlockCode":
        width = 2 * radius + 1
        table = {"".join(w): fn("".join(w)) for w in product(alphabet.letters, repeat=width)}
        return cls(alphabet, radius, table)

    @classmethod
    def identity(cls, alphabet: Alphabet) -> "SlidingBlockCode":
        return cls.from_fn(alphabet, 0, lambda w: w)

    @classmethod
    def constant(cls, alphabet: Alphabet, letter: str) -> "SlidingBlockCode":
        return cls.from_fn(alphabet, 0, lambda w: letter)


class MarkerCode:
    """Radius-J rule sending the members of a finite window set to one letter.

    Used for codes whose radius makes an explicit table impossible; the
    rule is membership in ``marked`` (mapped to ``mark``), everything
    else maps to ``other``.
    """

    def __init__(self, alphabet: Alphabet, radius: int, marked: frozenset[str], mark: str, other: str,
                 metadata: dict | None = None):
        width = 2 * radius + 1
        for u in marked:
            if len(u) != width:
                raise ToeplitzError("marked window of width %d, expected %d" % (len(u), width))
            if not set(u) <= set(alphabet.letters):
                raise ToeplitzError("marked window %r uses letters outside the alphabet" % (u,))
        if mark not in alphabet or other not in alphabet:
            raise ToeplitzError("marker letters %r, %r must be in the alphabet" % (mark, other))
        self.alphabet = alphabet
        self.radius = radius
        self.marked = frozenset(marked)
        self.mark = mark
        self.other = other
        self.metadata = dict(metadata or {})

    def __call__(self, window: str) -> str:
        return self.mark if window in self.marked else self.other


def code_output(code, window: str) -> str:
    """Letter the code outputs on a window with holes, or the hole marker.

    For a table code all completions are enumerated; for a marker code
    the agreeing-completions test reduces to counting the marked windows
    compatible with the resolved part, the runs between the holes.
    """
    if HOLE not in window:
        return code(window)
    if isinstance(code, MarkerCode):
        runs = []
        pos = 0
        for run in window.split(HOLE):
            if run:
                runs.append((run, pos))
            pos += len(run) + 1
        compatible = sum(1 for u in code.marked if all(u.startswith(run, i) for run, i in runs))
        total = len(code.alphabet) ** window.count(HOLE)
        if compatible == total:
            return code.mark
        if compatible == 0:
            return code.other
        return HOLE
    holes = hole_positions(window)
    if len(holes) > MAX_COMPLETION_HOLES:
        return HOLE
    chars = list(window)
    seen = set()
    for fill in product(code.alphabet.letters, repeat=len(holes)):
        for i, c in zip(holes, fill):
            chars[i] = c
        seen.add(code("".join(chars)))
        if len(seen) > 1:
            return HOLE
    return seen.pop()


def apply_code(code, pat: PeriodicPattern) -> PeriodicPattern:
    """Image of a level pattern under the code, holes where completions disagree."""
    J = code.radius
    width = 2 * J + 1
    if pat.period <= width:
        raise RadiusTooLarge("pattern period %d not larger than window width %d" % (pat.period, width))
    doubled = pat.symbols * 2 if J == 0 else (pat.symbols * (2 + (2 * J) // pat.period + 1))
    p = pat.period
    if isinstance(code, MarkerCode):
        image = _marker_image(code, doubled, p)
    else:
        image = "".join([code_output(code, doubled[s: s + width]) for s in range(p)])
    # the window centred on j starts at (j - J) mod p
    k = p - J % p
    return PeriodicPattern(image[k:] + image[:k], pat.alphabet)


def _marker_image(code: MarkerCode, doubled: str, p: int) -> str:
    """Marker-code outputs of the windows of ``doubled`` starting at 0, ..., p - 1.

    A hole-free window maps to ``mark`` exactly where a marked word
    occurs, so those are found with ``str.find``; only windows reaching
    a hole need :func:`code_output`.  Every other window maps to ``other``.
    """
    width = 2 * code.radius + 1
    end = p + width - 1  # the window starting at p - 1 ends here
    special = {}  # window start -> output, where it may differ from ``other``
    for u in code.marked:
        s = doubled.find(u, 0, end)
        while s >= 0:
            special[s] = code.mark
            s = doubled.find(u, s + 1, end)
    done = 0  # windows starting below this are settled
    h = doubled.find(HOLE, 0, end)
    while h >= 0:
        for s in range(max(done, h - width + 1), min(h + 1, p)):
            special[s] = code_output(code, doubled[s: s + width])
        done = max(done, h + 1)
        h = doubled.find(HOLE, h + 1, end)
    pieces, prev = [], 0
    for s in sorted(special):
        pieces += (code.other * (s - prev), special[s])
        prev = s + 1
    pieces.append(code.other * (p - prev))
    return "".join(pieces)


@dataclass(frozen=True)
class FactorResidues:
    """Classification of a factor word's residues modulo one level period."""

    modulus: int
    nonperiodic: tuple[int, ...]
    undetermined: tuple[int, ...]


def factor_aperiodic_residues(code, schedule: FillingSchedule, l: int, depth: int) -> FactorResidues:
    """Classify the factor word modulo the level-``l`` period at a resolution depth.

    Uses the explicit factor pattern when the resolution level fits in
    memory; otherwise falls back to the sparse strategy, which is exact
    for candidates whose code windows meet few unresolved source classes.
    """
    p = schedule.period(l)
    try:
        pat = schedule.pattern(min(depth, schedule.available_levels(depth)))
    except PatternTooLarge:
        return _sparse_factor_residues(code, schedule, l, depth)
    factor_pat = apply_code(code, pat)
    statuses = classify_residues(factor_pat, p)
    return FactorResidues(
        p,
        tuple(s.residue for s in statuses if s.status is Status.NONPERIODIC),
        tuple(s.residue for s in statuses if s.status is Status.UNDETERMINED),
    )


def _sparse_factor_residues(code, schedule: FillingSchedule, l: int, depth: int) -> FactorResidues:
    """Candidate-based classification for periods too large to materialise.

    Only residues within the code radius of a source hole can be
    nonperiodic.  For each such candidate the window's level-``l`` hole
    slots are marked as holes and :func:`code_output` decides whether
    every completion gives one image, which makes the class periodic.
    Otherwise a two-image witness among realised windows, exact always,
    certifies it nonperiodic.  A window with unresolved positions outside
    the slots stays undetermined.
    """
    p = schedule.period(l)
    J = code.radius
    holes = schedule.holes(l)
    candidates = sorted({(h + d) % p for h in holes for d in range(-J, J + 1)})
    hole_set = set(holes)
    nonper, undet = [], []
    for r in candidates:
        slots = [d for d in range(-J, J + 1) if (r + d) % p in hole_set]
        chars = list(resolve_window(schedule, r - J, r + J + 1, depth))
        for d in slots:
            chars[d + J] = HOLE
        window = "".join(chars)
        if window.count(HOLE) > len(slots):
            undet.append(r)
        elif code_output(code, window) != HOLE:
            continue
        elif _realised_two_images(code, schedule, r, J, p, depth):
            nonper.append(r)
        else:
            undet.append(r)
    return FactorResidues(p, tuple(nonper), tuple(undet))


def _realised_two_images(code, schedule, r, J, p, depth, samples: int = 32) -> bool:
    seen = set()
    for k in range(samples):
        window = resolve_window(schedule, r + k * p - J, r + k * p + J + 1, depth)
        if HOLE in window:
            continue
        seen.add(code(window))
        if len(seen) > 1:
            return True
    return False


# -- unique residue of long windows ---------------------------------------


@dataclass(frozen=True)
class ResidueSearchCertificate:
    l1: int
    l2: int
    window: tuple[int, int]
    holds: bool
    counterexample: tuple[int, int] | None = None


def unique_residue_search(
    schedule: FillingSchedule, l1: int, l2: int, window: tuple[int, int], depth: int | None = None
) -> ResidueSearchCertificate:
    """Do equal length-p_l2 subwords in the window force equal residues mod p_l1?

    Exhaustive over all start pairs in the window; the scanned stretch
    must resolve fully at the chosen depth.
    """
    p1, p2 = schedule.period(l1), schedule.period(l2)
    lo, hi = window
    depth = depth if depth is not None else l2 + 3
    text = resolve_window(schedule, lo, hi + p2, depth)
    if HOLE in text:
        raise UnresolvedWindow(
            "window [%d, %d) not fully resolved at depth %d" % (lo, hi + p2, depth)
        )
    groups: dict[int, list[int]] = {}
    base = 1000003
    mod = (1 << 61) - 1
    power = pow(base, p2 - 1, mod)
    h = 0
    for c in text[:p2]:
        h = (h * base + ord(c)) % mod
    groups.setdefault(h, []).append(lo)
    for i in range(1, hi - lo):
        h = ((h - ord(text[i - 1]) * power) * base + ord(text[i + p2 - 1])) % mod
        groups.setdefault(h, []).append(lo + i)
    for starts in groups.values():
        if len(starts) < 2:
            continue
        for i, j1 in enumerate(starts):
            for j2 in starts[i + 1:]:
                if (j1 - j2) % p1 == 0:
                    continue
                if text[j1 - lo: j1 - lo + p2] == text[j2 - lo: j2 - lo + p2]:
                    return ResidueSearchCertificate(l1, l2, window, False, (j1, j2))
    return ResidueSearchCertificate(l1, l2, window, True)


def find_unique_residue_level(
    schedule: FillingSchedule, l1: int, max_l2: int = 8, window_blocks: int = 2
) -> ResidueSearchCertificate:
    """Smallest l2 whose windows pin residues mod p_l1, with its certificate."""
    last = None
    for l2 in range(l1, max_l2 + 1):
        try:
            span = window_blocks * schedule.period(min(l2 + 1, schedule.available_levels(l2 + 1)))
            cert = unique_residue_search(schedule, l1, l2, (0, span))
        except (UnresolvedWindow, PatternTooLarge):
            continue
        last = cert
        if cert.holds:
            return cert
    if last is None:
        raise UnresolvedWindow("no resolvable search window up to level %d" % max_l2)
    return last


# -- the isolating construction -------------------------------------------


def build_isolating_code(
    schedule: FillingSchedule,
    branch,
    letter: str,
    l1: int,
    l2: int | None = None,
    certificate=None,
    collect_blocks: int = 3,
    depth: int | None = None,
) -> MarkerCode:
    """Marker code isolating one boundary cylinder.

    Marks every resolved window of radius p_l2 centred on positions of the
    branch's level-``l1`` class where the word shows ``letter``; other
    letters map to the first alphabet letter different from ``letter``.
    The isolation certificate for the branch must be supplied or
    computable, and ``l1`` must lie in the certified cylinder.
    """
    from .boundary import IsolationKind, hole_tree, isolated_value_pair

    branch = tuple(branch)
    other = next(c for c in schedule.alphabet if c != letter)
    if certificate is None:
        tree = hole_tree(schedule, min(len(branch), l1 + 1))
        certificate = isolated_value_pair(tree, branch[: tree.depth], letter, other)
    if certificate.kind is not IsolationKind.CERTIFIED:
        raise NotIsolated("no isolation certificate for the branch: %r" % (certificate,))
    if certificate.level > l1:
        raise NotIsolated("certificate holds at level %d, cannot build at %d" % (certificate.level, l1))

    if l2 is None:
        cert = find_unique_residue_level(schedule, l1)
        if not cert.holds:
            raise ToeplitzError("no unique-residue level found for l1=%d" % l1)
        l2 = cert.l2
    p1, p2 = schedule.period(l1), schedule.period(l2)
    anchor = branch[l1 - 1]
    depth = depth if depth is not None else l2 + 3

    marked: set[str] = set()
    saturated = False
    span = max(1, (collect_blocks * schedule.period(min(l2 + 1, schedule.available_levels(l2 + 1)))) // p1)
    fresh_at = 0
    for m in range(span):
        j = anchor + m * p1
        if evaluate(schedule, j, depth) != letter:
            continue
        window = resolve_window(schedule, j - p2, j + p2 + 1, depth)
        if HOLE in window:
            continue
        if window not in marked:
            marked.add(window)
            fresh_at = m
    saturated = fresh_at < span // 2
    if not marked:
        raise UnresolvedWindow("no resolvable marked window found")
    return MarkerCode(
        schedule.alphabet,
        p2,
        frozenset(marked),
        letter,
        other,
        metadata={
            "l1": l1,
            "l2": l2,
            "anchor": anchor,
            "collected_span": span,
            "saturated": saturated,
            "window_count": len(marked),
        },
    )


@dataclass(frozen=True)
class PullbackReport:
    level: int
    checked: tuple[int, ...]
    uncovered: tuple[int, ...]

    @property
    def holds(self) -> bool:
        return not self.uncovered


def boundary_pullback_check(code, schedule: FillingSchedule, depth: int) -> list[PullbackReport]:
    """Every factor hole residue must sit within the code radius of a source hole."""
    J = code.radius
    reports = []
    for l in range(1, depth + 1):
        p = schedule.period(l)
        source = set(schedule.holes(l))
        res = factor_aperiodic_residues(code, schedule, l, depth + 2)
        uncovered = tuple(
            r
            for r in res.nonperiodic
            if not any((r + d) % p in source for d in range(-J, J + 1))
        )
        reports.append(PullbackReport(l, res.nonperiodic, uncovered))
    return reports


def factor_obstruction_check(code, schedule: FillingSchedule, depth: int, l0: int) -> list[tuple[int, int]]:
    """Hole growth of a factor of a certified block-filling word.

    Requires the source certificate and a radius resolved at level
    ``l0``; returns (level, factor hole count) pairs, where counts use
    certified-nonperiodic plus undetermined residues, the sound upper
    reading of the factor's hole set.
    """
    if not check_oxtoby(schedule, depth + 1).certified:
        raise NotOxtoby("source word is not block-filling certified")
    J = code.radius
    p0 = schedule.period(l0)
    source_holes = set(schedule.holes(l0))
    for d in range(-J, J + 1):
        if d % p0 in source_holes:
            raise ToeplitzError("code radius not resolved at level %d" % l0)
    out = []
    for l in range(l0, depth + 1):
        res = factor_aperiodic_residues(code, schedule, l, depth + 2)
        out.append((l, len(res.nonperiodic) + len(res.undetermined)))
    return out


# -- code table file format -------------------------------------------------


def code_to_text(code) -> str:
    lines = ["radius %d" % code.radius]
    if isinstance(code, MarkerCode):
        for u in sorted(code.marked):
            lines.append("%s %s" % (u, code.mark))
        lines.append("* %s" % code.other)
    else:
        for k in sorted(code.table):
            lines.append("%s %s" % (k, code.table[k]))
    return "\n".join(lines) + "\n"


def code_from_text(text: str, alphabet: Alphabet):
    entries = {}
    default = None
    radius = None
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        key, _, value = ln.partition(" ")
        value = value.strip()
        if key == "radius":
            radius = int(value)
        elif key == "*":
            default = value
        else:
            entries[key] = value
    if radius is None:
        raise ToeplitzError("code text must declare a radius")
    if default is not None:
        marks = {v for v in entries.values()}
        if len(marks) != 1:
            raise ToeplitzError("marker code must map all listed windows to one letter")
        return MarkerCode(alphabet, radius, frozenset(entries), marks.pop(), default)
    return SlidingBlockCode(alphabet, radius, entries)
