"""Depth-truncated odometer points, the integer embedding, and scale comparison.

An odometer point is a coherent chain of residues along the level
periods.  The position map sends a subshift element to the chain of
shifts matching its periodic parts level by level; for plain shifts this
is residue arithmetic, and the generic search over all candidate shifts
is kept as a cross-check of uniqueness.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf

from .errors import ToeplitzError, UnresolvedElement
from .periodicity import Status, classify_residues, prime_exponents
from .words import FillingSchedule, HOLE


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
    integer meaning the shift by that amount.
    """
    from .elements import Shift, ShiftLimit  # deferred: elements imports odometer

    if isinstance(element, int):
        return embed(schedule, element, depth)
    if isinstance(element, Shift):
        return embed(schedule, element.n, depth)
    if isinstance(element, ShiftLimit):
        scale = scale_of(schedule, depth)
        residues = []
        for p in scale:
            residues.append(_stabilized_residue(element, p))
        return OdometerPoint(scale, tuple(residues))
    raise TypeError("cannot map %r to the odometer" % (element,))


def _stabilized_residue(element, p: int) -> int:
    run_value, run_len = None, 0
    for k in range(element.k_start, element.k_stop):
        r = element.shift_at(k) % p
        if r == run_value:
            run_len += 1
        else:
            run_value, run_len = r, 1
        if run_len >= element.stabilization_window:
            tail_ok = all(
                element.shift_at(t) % p == run_value for t in range(k, element.k_stop)
            )
            if tail_ok:
                return run_value
    raise UnresolvedElement("shift rule does not stabilise mod %d over its tail" % p)


def matching_shift(schedule: FillingSchedule, l: int, element, resolution: int) -> int:
    """The unique k in [0, p_l) whose shifted periodic parts match the element's.

    Searches all candidates and asserts uniqueness; used as the slow
    cross-check of the residue arithmetic in :func:`phi_prefix`.
    """
    from .elements import Shift

    if isinstance(element, int):
        element = Shift(element)
    if not isinstance(element, Shift):
        raise TypeError("matching_shift needs a plain shift element")
    p = schedule.period(l)
    pat = schedule.pattern(min(resolution, schedule.available_levels(resolution)))
    statuses = classify_residues(pat, p)
    source = {s.residue: s.letter for s in statuses if s.status is Status.PERIODIC}
    target = {(r - element.n) % p: letter for r, letter in source.items()}
    matches = [
        k for k in range(p)
        if {(r - k) % p: letter for r, letter in source.items()} == target
    ]
    if len(matches) != 1:
        raise ToeplitzError("expected a unique matching shift mod %d, found %r" % (p, matches))
    return matches[0]


# -- prime exponent profiles ---------------------------------------------

def _primes_upto(bound: int) -> tuple[int, ...]:
    sieve = [True] * (bound + 1)
    out = []
    for n in range(2, bound + 1):
        if sieve[n]:
            out.append(n)
            for m in range(n * n, bound + 1, n):
                sieve[m] = False
    return tuple(out)


@dataclass(frozen=True)
class ExponentRecord:
    value: int
    saturated: bool


@dataclass(frozen=True)
class PrimeProfile:
    """Prime exponents of the deepest checked scale entry, with growth flags.

    ``declared`` optionally maps primes to their true limiting exponent
    (math.inf for divergent); constructions whose scale follows a known
    rule may declare it, and only declared profiles support certified
    factor/isomorphism verdicts.
    """

    prime_bound: int
    scale_depth: int
    exponents: tuple[tuple[int, ExponentRecord], ...]
    declared: tuple[tuple[int, float], ...] | None = None

    def record(self, q: int) -> ExponentRecord:
        for prime, rec in self.exponents:
            if prime == q:
                return rec
        return ExponentRecord(0, False)

    def effective(self, q: int) -> float:
        if self.declared is not None:
            for prime, e in self.declared:
                if prime == q:
                    return e
            return 0
        rec = self.record(q)
        return inf if rec.saturated else rec.value

    @property
    def is_declared(self) -> bool:
        return self.declared is not None


def prime_profile(scale, prime_bound: int, declared: dict[int, float] | None = None) -> PrimeProfile:
    """Exponent record of the last scale entry for every prime <= bound."""
    scale = tuple(scale)
    if not scale:
        raise ValueError("scale must be nonempty")
    last = scale[-1]
    prev = scale[-2] if len(scale) > 1 else 1
    last_exps, prev_exps = prime_exponents(last), prime_exponents(prev)
    exps = []
    for q in _primes_upto(prime_bound):
        v = last_exps.get(q, 0)
        exps.append((q, ExponentRecord(v, v > prev_exps.get(q, 0))))
    decl = None
    if declared is not None:
        decl = tuple(sorted((int(q), float(e)) for q, e in declared.items()))
    return PrimeProfile(prime_bound, len(scale), tuple(exps), decl)


class Relation:
    FACTOR_OF_CERTIFIED = "factor-of-certified"
    ISOMORPHIC_CERTIFIED = "isomorphic-certified"
    NOT_FACTOR = "not-factor"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class OdometerRelation:
    kind: str
    witness_prime: int | None = None


def odometer_relation(a: PrimeProfile, b: PrimeProfile) -> OdometerRelation:
    """Compare two scales: is the first a factor of (isomorphic to) the second?

    A saturated exponent is treated as still growing; that suffices to
    refute, but certifying a factor or isomorphism additionally requires
    both profiles to carry declared limits.
    """
    if a.prime_bound != b.prime_bound:
        raise ValueError("profiles must share a prime bound")
    for q in _primes_upto(a.prime_bound):
        if a.effective(q) > b.effective(q):
            return OdometerRelation(Relation.NOT_FACTOR, witness_prime=q)
    if not (a.is_declared and b.is_declared):
        return OdometerRelation(Relation.UNKNOWN)
    if all(a.effective(q) == b.effective(q) for q in _primes_upto(a.prime_bound)):
        return OdometerRelation(Relation.ISOMORPHIC_CERTIFIED)
    return OdometerRelation(Relation.FACTOR_OF_CERTIFIED)


# -- membership in the level windows of the internal space ----------------


class Membership:
    IN_WINDOW = "in-window"
    NOT_IN_WINDOW = "not-in-window"
    UNDETERMINED = "undetermined"


def cps_window_member(schedule: FillingSchedule, omega: OdometerPoint, letter: str) -> str:
    """Whether the point lies in the letter's window at some checked level."""
    if letter not in schedule.alphabet:
        raise ToeplitzError("letter %r not in alphabet" % letter)
    resolution = min(omega.depth + 1, schedule.available_levels(omega.depth + 1))
    pat = schedule.pattern(resolution)
    for l in range(1, omega.depth + 1):
        p = schedule.period(l)
        r = omega(l)
        seen = {pat.symbols[(r + t * p) % pat.period] for t in range(pat.period // p)}
        if HOLE in seen:
            continue
        if seen == {letter}:
            return Membership.IN_WINDOW
        if len(seen) == 1:
            return Membership.NOT_IN_WINDOW
    return Membership.UNDETERMINED
