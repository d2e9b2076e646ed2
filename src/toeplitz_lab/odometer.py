"""Depth-truncated odometer points, the integer embedding and the position map.

An odometer point is a coherent chain of residues along the level
periods.  The position map sends a subshift element to the chain of
shifts matching its periodic parts level by level; for plain shifts this
is residue arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

from .elements import Shift, ShiftLimit, settled_value
from .errors import ToeplitzError, UnresolvedElement
from .words import FillingSchedule


@dataclass(frozen=True)
class OdometerPoint:
    scale: tuple[int, ...]
    residues: tuple[int, ...]

    def __post_init__(self):
        if len(self.scale) != len(self.residues):
            raise ToeplitzError("scale and residues must have equal length")
        for p, r in zip(self.scale, self.residues):
            if not 0 <= r < p:
                raise ToeplitzError("residue %d out of range for period %d" % (r, p))
        for (p, r), r2 in zip(zip(self.scale, self.residues), self.residues[1:]):
            if r2 % p != r:
                raise ToeplitzError("incoherent residue chain %r for scale %r" % (self.residues, self.scale))

    @property
    def depth(self) -> int:
        return len(self.residues)

    def truncate(self, depth: int) -> "OdometerPoint":
        return OdometerPoint(self.scale[:depth], self.residues[:depth])


def embed(schedule: FillingSchedule, j: int, depth: int) -> OdometerPoint:
    """The integer ``j`` as an odometer point (residues along the scale)."""
    scale = schedule.scale(depth)
    return OdometerPoint(scale, tuple(j % p for p in scale))


def rotate(omega: OdometerPoint, n: int) -> OdometerPoint:
    return OdometerPoint(omega.scale, tuple((r + n) % p for r, p in zip(omega.residues, omega.scale)))


def branch_point(schedule: FillingSchedule, residues) -> OdometerPoint:
    """Wrap a residue chain (e.g. a hole-tree branch) as an odometer point."""
    residues = tuple(residues)
    return OdometerPoint(schedule.scale(len(residues)), residues)


def phi_prefix(schedule: FillingSchedule, element, depth: int) -> OdometerPoint:
    """Position of an element under the factor map, truncated to ``depth``.

    ``element`` is an ElementSpec from the elements module.  A shift
    limit's residue mod each scale entry is the value its shifts'
    residues settle on.
    """
    if isinstance(element, Shift):
        return embed(schedule, element.n, depth)
    if isinstance(element, ShiftLimit):
        scale = schedule.scale(depth)
        shifts = element.shifts()
        residues = []
        for p in scale:
            r = settled_value([n % p for n in shifts])
            if r is None:
                raise UnresolvedElement("shift rule does not settle mod %d" % p)
            residues.append(r)
        return OdometerPoint(scale, tuple(residues))
    raise ToeplitzError("cannot map %r to the odometer" % (element,))

