"""Depth-truncated odometer points, the integer embedding and the position map.

An odometer point is a coherent chain of residues along the level
periods.  The position map sends a subshift element to the chain of
shifts matching its periodic parts level by level; for plain shifts this
is residue arithmetic, and the generic search over all candidate shifts
is kept as a cross-check of uniqueness.
"""

from __future__ import annotations

from dataclasses import dataclass

from .elements import Shift, ShiftLimit, settled_value
from .errors import ToeplitzError, UnresolvedElement
from .periodicity import classify_residues
from .words import FillingSchedule


@dataclass(frozen=True)
class OdometerPoint:
    scale: tuple[int, ...]
    residues: tuple[int, ...]

    def __post_init__(self):
        if len(self.scale) != len(self.residues):
            raise ValueError("scale and residues must have equal length")
        for p, r in zip(self.scale, self.residues):
            if not 0 <= r < p:
                raise ValueError("residue %d out of range for period %d" % (r, p))
        for (p, r), r2 in zip(zip(self.scale, self.residues), self.residues[1:]):
            if r2 % p != r:
                raise ValueError("incoherent residue chain %r for scale %r" % (self.residues, self.scale))

    @property
    def depth(self) -> int:
        return len(self.residues)

    def __call__(self, l: int) -> int:
        return self.residues[l - 1]

    def truncate(self, depth: int) -> "OdometerPoint":
        return OdometerPoint(self.scale[:depth], self.residues[:depth])


def scale_of(schedule: FillingSchedule, depth: int) -> tuple[int, ...]:
    return tuple(schedule.period(l) for l in range(1, depth + 1))


def embed(schedule: FillingSchedule, j: int, depth: int) -> OdometerPoint:
    """The integer ``j`` as an odometer point (residues along the scale)."""
    scale = scale_of(schedule, depth)
    return OdometerPoint(scale, tuple(j % p for p in scale))


def rotate(omega: OdometerPoint, n: int) -> OdometerPoint:
    return OdometerPoint(omega.scale, tuple((r + n) % p for r, p in zip(omega.residues, omega.scale)))


def branch_point(schedule: FillingSchedule, residues, depth: int | None = None) -> OdometerPoint:
    """Wrap a residue chain (e.g. a hole-tree branch) as an odometer point."""
    residues = tuple(residues)
    depth = len(residues) if depth is None else depth
    return OdometerPoint(scale_of(schedule, depth), residues[:depth])


def phi_prefix(schedule: FillingSchedule, element, depth: int) -> OdometerPoint:
    """Position of an element under the factor map, truncated to ``depth``.

    ``element`` is an ElementSpec from the elements module, or a plain
    integer meaning the shift by that amount.  A shift limit's residue
    mod each scale entry is the value its shifts' residues settle on.
    """
    if isinstance(element, int):
        return embed(schedule, element, depth)
    if isinstance(element, Shift):
        return embed(schedule, element.n, depth)
    if isinstance(element, ShiftLimit):
        scale = scale_of(schedule, depth)
        shifts = element.shifts()
        residues = []
        for p in scale:
            r = settled_value([n % p for n in shifts])
            if r is None:
                raise UnresolvedElement("shift rule does not settle mod %d" % p)
            residues.append(r)
        return OdometerPoint(scale, tuple(residues))
    raise TypeError("cannot map %r to the odometer" % (element,))


def matching_shift(schedule: FillingSchedule, l: int, element, resolution: int) -> int:
    """The unique k in [0, p_l) whose shifted periodic parts match the element's.

    Searches all candidates and asserts uniqueness; used as the slow
    cross-check of the residue arithmetic in :func:`phi_prefix`.
    """
    if isinstance(element, int):
        element = Shift(element)
    if not isinstance(element, Shift):
        raise TypeError("matching_shift needs a plain shift element")
    p = schedule.period(l)
    pat = schedule.pattern(schedule.available_levels(resolution))
    source = classify_residues(pat, p).periodic
    target = {(r - element.n) % p: letter for r, letter in source.items()}
    matches = [
        k for k in range(p)
        if {(r - k) % p: letter for r, letter in source.items()} == target
    ]
    if len(matches) != 1:
        raise ToeplitzError("expected a unique matching shift mod %d, found %r" % (p, matches))
    return matches[0]

