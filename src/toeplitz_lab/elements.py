"""Subshift elements as shifts or shift limits, with pair and fiber analysis.

A shift limit is given by a deterministic rule k -> n_k on the indices
``1 <= k < k_stop``.  Its letter at a position, and its residue
modulo a period, settles only when the values at the last
``STABILIZATION_WINDOW`` indices are one resolved value, so only those
indices are ever read.  Anything else is unresolved, never a wrong
letter, so every census below is certified at its depth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .errors import ToeplitzError, UnresolvedWindow
# evaluate is not read here, but perfbench/selftest.py checks that its tracer rebinds elements.evaluate
from .words import HOLE, FillingSchedule, evaluate, resolve_window  # noqa: F401


@dataclass(frozen=True)
class Shift:
    """The element obtained by shifting the base word by ``n``."""

    n: int


#: Length of the final run of equal rule values a shift limit needs to settle.
STABILIZATION_WINDOW = 3


@dataclass(frozen=True)
class ShiftLimit:
    """A limit of shifts along a deterministic rule k -> n_k."""

    rule: Callable[[int], int]
    k_stop: int

    def shifts(self) -> list[int]:
        """The shifts a reading depends on, in order: n_k at the last
        ``STABILIZATION_WINDOW`` indices below ``k_stop``, or at every index
        from 1 when the range is shorter (then nothing settles)."""
        return [self.rule(k) for k in range(max(1, self.k_stop - STABILIZATION_WINDOW), self.k_stop)]


ElementSpec = Shift | ShiftLimit


def settled_value(values):
    """The value the rule values settle on by the module's rule, or None.

    The final run is long enough exactly when the last
    ``STABILIZATION_WINDOW`` values are one resolved value (not None).
    """
    tail = values[-STABILIZATION_WINDOW:]
    if len(tail) < STABILIZATION_WINDOW or tail[0] is None or tail.count(tail[0]) < len(tail):
        return None
    return tail[0]


def eval_element(schedule: FillingSchedule, element: ElementSpec, j: int, max_level: int) -> str | None:
    """Letter of the element at position ``j``, or None when unresolved: ``pair_report``'s window of one."""
    c = _element_window(schedule, element, j, j + 1, max_level)
    return None if c == HOLE else c


@dataclass(frozen=True)
class WindowCensus:
    window: tuple[int, int]
    resolved_differences: int
    difference_positions: tuple[int, ...]
    unresolved: int


@dataclass(frozen=True)
class PairReport:
    phi_agreement_depth: int
    censuses: tuple[WindowCensus, ...]


def pair_report(
    schedule: FillingSchedule,
    e1: ElementSpec,
    e2: ElementSpec,
    depth: int,
    windows,
    eval_level: int | None = None,
) -> PairReport:
    """Agreement depth on the odometer plus per-window difference censuses; a window (lo, hi) with hi < lo
    is refused."""
    from .odometer import phi_prefix

    windows = list(windows)
    for lo, hi in windows:
        if hi < lo:
            raise ToeplitzError("window (%d, %d) ends before it starts" % (lo, hi))
    eval_level = depth if eval_level is None else eval_level
    w1 = phi_prefix(schedule, e1, depth)
    w2 = phi_prefix(schedule, e2, depth)
    agreement = 0
    for r1, r2 in zip(w1.residues, w2.residues):
        if r1 != r2:
            break
        agreement += 1
    censuses = []
    for lo, hi in windows:
        diffs = []
        unresolved = 0
        t1 = _element_window(schedule, e1, lo, hi + 1, eval_level)
        t2 = _element_window(schedule, e2, lo, hi + 1, eval_level)
        for j, c1, c2 in zip(range(lo, hi + 1), t1, t2):
            if c1 == HOLE or c2 == HOLE:
                unresolved += 1
            elif c1 != c2:
                diffs.append(j)
        censuses.append(WindowCensus((lo, hi), len(diffs), tuple(diffs), unresolved))
    return PairReport(agreement, tuple(censuses))


def _element_window(schedule: FillingSchedule, element: ElementSpec, start: int, stop: int, max_level: int) -> str:
    """The element's letters on ``[start, stop)``, unresolved positions as holes.

    A shift limit is read as one window per shift in
    :meth:`ShiftLimit.shifts` and settled column by column.
    """
    if isinstance(element, Shift):
        return resolve_window(schedule, start + element.n, stop + element.n, max_level)
    rows = [resolve_window(schedule, start + n, stop + n, max_level) for n in element.shifts()]
    if not rows:
        return HOLE * max(0, stop - start)
    # a column of holes settles on the hole itself, which reads as unresolved too
    return "".join([settled_value(column) or HOLE for column in zip(*rows)])


def fiber_block_contents(
    schedule: FillingSchedule,
    omega,
    l: int,
    depth: int,
    block_range: int = 48,
) -> tuple[str, ...]:
    """Distinct resolved length-p_l windows consistent with the point ``omega``.

    Windows start at positions congruent to the point's deepest residue,
    so every word a fiber element can show on [0, p_l) appears among
    them; unresolved windows are skipped.  A deeper point pins more: for
    a point on the integer orbit, carried deep enough, a single content
    remains.  A point of depth 0 pins no residue and is refused, and so
    is a ``block_range`` below 1, which reads no window.
    """
    if omega.depth < 1:
        raise ToeplitzError("the point has depth 0; a fiber needs at least one residue")
    if block_range < 1:
        raise ToeplitzError("block_range must be at least 1, got %d" % block_range)
    p = schedule.period(l)
    base = omega.residues[-1]
    step = schedule.period(omega.depth)
    contents = set()
    for m in range(block_range):
        word = resolve_window(schedule, base + m * step, base + m * step + p, depth)
        if HOLE not in word:
            contents.add(word)
    return tuple(sorted(contents))


def fiber_prefix_count(
    schedule: FillingSchedule,
    omega,
    l: int,
    depth: int,
    block_range: int = 48,
) -> int:
    """Number of distinct resolved fiber-window contents for ``omega``."""
    contents = fiber_block_contents(schedule, omega, l, depth, block_range)
    if not contents:
        raise UnresolvedWindow("no fully resolved fiber window at level %d, depth %d" % (l, depth))
    return len(contents)


@dataclass(frozen=True)
class NonAsymptoticWitness:
    level_censuses: tuple[tuple[int, int], ...]  # (level, max pairwise disagreement)
    growing: bool
    pair: tuple[str, str] | None


def finite_fiber_nonasymptotic_witness(
    schedule: FillingSchedule,
    omega,
    depth: int,
    levels=None,
) -> NonAsymptoticWitness | None:
    """Pairs of fiber-window contents with growing disagreement counts.

    Returns None when the pairwise disagreement stays bounded by one over
    the checked levels (consistent with every proximal pair being
    asymptotic); otherwise reports the per-level maxima and one witness
    pair at the deepest checked level.  An empty ``levels`` is refused.
    """
    levels = range(2, max(3, depth - 1)) if levels is None else list(levels)
    if not levels:
        raise ToeplitzError("no levels to check")
    censuses = []
    witness_pair = None
    for l in levels:
        contents = fiber_block_contents(schedule, omega.truncate(min(l, omega.depth)), l, depth)
        best = 0
        for i, c1 in enumerate(contents):
            for c2 in contents[i + 1:]:
                d = sum(1 for a, b in zip(c1, c2) if a != b)
                if d > best:
                    best = d
                    if l == max(levels):
                        witness_pair = (c1, c2)
        censuses.append((l, best))
    growing = all(b > a for (_, a), (_, b) in zip(censuses, censuses[1:])) and len(censuses) >= 2
    if max((c for _, c in censuses), default=0) <= 1:
        return None
    return NonAsymptoticWitness(tuple(censuses), growing, witness_pair)


def branch_rule(schedule: FillingSchedule, residues, block_offset: int = 0) -> ShiftLimit:
    """Shift rule following a residue chain, optionally displaced whole periods.

    With a nonzero ``block_offset`` s the rule visits ``r_k + s * p_k``,
    which has the same odometer limit as the chain itself but approaches
    it through different blocks.
    """
    residues = tuple(residues)
    periods = schedule.scale(len(residues))

    def rule(k: int) -> int:
        i = min(k, len(residues)) - 1
        return residues[i] + block_offset * periods[i]

    # the rule tail repeats its deepest entry; leave room for the
    # stabilisation window to close over it
    return ShiftLimit(rule, k_stop=len(residues) + 5)
