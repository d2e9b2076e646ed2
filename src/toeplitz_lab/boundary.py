"""Finite-depth approximation of the separating-cover boundary.

Each level of the hole tree maps its hole residues to their value sets,
the letters observed in each residue class at the resolution depth,
never below the tree depth; a level-l residue r hangs below
r mod p_(l-1).  A cylinder certifiably contains no boundary point
exactly when its subtree dies out, so pruning against the deepest level
is sound; the survivors are read off the hole sets alone, and full-depth
branches are walked through them.  Certificates distinguish what was
proven at depth from what a construction declares structurally.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import NotOxtoby, ToeplitzError, UnknownLetters
from .periodicity import VerdictKind, check_oxtoby
from .words import HOLE, FillingSchedule, hole_class_letters


@dataclass
class HoleTree:
    schedule: FillingSchedule
    depth: int
    resolution_depth: int
    levels: tuple[dict[int, frozenset[str]], ...]  # levels[l-1]: hole residue -> value set

    def nodes(self, l: int) -> dict[int, frozenset[str]]:
        return self.levels[l - 1]

    def survivors(self) -> tuple[frozenset[int], ...]:
        """Per level, the residues with a descendant at the deepest level."""
        return survivors(self.schedule, self.depth)

    def branches(self, limit: int | None = None) -> list[tuple[int, ...]]:
        """Full-depth residue chains, lexicographically by level residues; the first ``limit`` if given.

        Only survivors are walked, and every surviving partial chain
        reaches the deepest level, so the cut at ``limit`` after each
        level is exact.  A negative ``limit`` is refused.
        """
        if limit is not None and limit < 0:
            raise ToeplitzError("branch limit must be >= 0, got %d" % limit)
        alive = self.survivors()
        chains = [(r,) for r in sorted(alive[0])][:limit]
        for l in range(2, self.depth + 1):
            p = self.schedule.period(l - 1)
            children: dict[int, list[int]] = {}  # parent residue -> its surviving children, ascending
            for r in sorted(alive[l - 1]):
                children.setdefault(r % p, []).append(r)
            chains = [chain + (r,) for chain in chains for r in children[chain[-1]]][:limit]
        return chains


def survivors(schedule: FillingSchedule, depth: int) -> tuple[frozenset[int], ...]:
    """Per level up to ``depth``, the holes with a level-``depth`` hole in their class.

    Every level-(l+1) hole lies in the class of a level-l hole, so the
    level-l survivors are the level-(l+1) survivors mod p_l; no pattern
    is built.  A depth past the schedule's last seed is refused.
    """
    schedule.check_depth(depth)
    alive = frozenset(schedule.holes(depth))
    out = [alive]
    for l in range(depth - 1, 0, -1):
        p = schedule.period(l)
        alive = frozenset(r % p for r in alive)
        out.append(alive)
    return tuple(reversed(out))


def hole_tree(schedule: FillingSchedule, depth: int, resolution_depth: int | None = None) -> HoleTree:
    """Build the hole tree to ``depth`` with the letters each hole class shows at ``resolution_depth``.

    That depth defaults to ``depth + 2``, capped only by the schedule's levels; the sets come from
    seed arithmetic, past ``PATTERN_CAP`` too.  At ``depth`` itself the deepest level's sets are empty.
    A depth past the schedule's last seed is refused, also where its holes have died out before it.
    """
    if depth < 1:
        raise ToeplitzError("tree depth must be >= 1, got %d" % depth)
    if resolution_depth is None:
        resolution_depth = depth + 2
    if resolution_depth < depth:
        raise ToeplitzError("resolution depth %d is below the tree depth %d" % (resolution_depth, depth))
    schedule.check_depth(depth)
    schedule.level_info(depth)  # over-cap levels are refused before any class is read
    resolution_depth = schedule.available_levels(resolution_depth)
    letters = [hole_class_letters(schedule, l, resolution_depth) for l in range(1, depth + 1)]
    strip = {v: v.difference(HOLE) for level in letters for v in set(level.values())}
    levels = [{r: strip[v] for r, v in level.items()} for level in letters]
    return HoleTree(schedule, depth, resolution_depth, tuple(levels))


def pruned_branch_census(tree: HoleTree) -> list[int]:
    """Per level, how many nodes still have a descendant at the deepest level."""
    return [len(s) for s in tree.survivors()]


# -- finiteness verdicts ---------------------------------------------------


@dataclass(frozen=True)
class Verdict:
    kind: VerdictKind
    reason: str = ""
    depth: int | None = None


@dataclass(frozen=True)
class PropertyVerdicts:
    fpc: Verdict
    hs: Verdict
    fb: Verdict
    hole_counts: tuple[int, ...]
    census: tuple[int, ...]


def property_verdicts(schedule: FillingSchedule, depth: int, census_depth: int | None = None) -> PropertyVerdicts:
    """Finiteness verdicts for the boundary, from declarations re-checked at depth.

    Verdicts never promote finite evidence to a limit claim on their own:
    a certification needs a declared structural reason that the check at
    depth is consistent with, and a refutation needs the block-filling
    certificate.  Everything else stays unknown, with evidence attached.
    A depth past the schedule's last seed is refused.
    """
    schedule.check_depth(depth)
    decl = schedule.declarations
    counts = tuple(len(schedule.holes(l)) for l in range(1, depth + 1))
    census_depth = census_depth if census_depth is not None else depth
    census = tuple(len(alive) for alive in survivors(schedule, census_depth))

    unknown = Verdict(VerdictKind.UNKNOWN, "no structural declaration", depth)
    fpc = hs = fb = unknown

    bound = decl.get("bounded_holes")
    if bound is not None:
        if all(c <= bound for c in counts):
            fb = Verdict(
                VerdictKind.CERTIFIED_STRUCTURALLY,
                "holes per period declared bounded by %d; checked to depth" % bound,
                depth,
            )
        else:
            fb = Verdict(VerdictKind.REFUTED, "declared hole bound violated at depth", depth)

    if decl.get("boundary_singleton") and fb.kind is VerdictKind.UNKNOWN:
        half = max(1, census_depth // 2)
        if census[:half] == (1,) * half:
            fb = Verdict(
                VerdictKind.CERTIFIED_STRUCTURALLY,
                "declared singleton boundary; pruned census stabilises at 1",
                depth,
            )

    if decl.get("oxtoby"):
        verdict = check_oxtoby(schedule, depth)
        if verdict.certified:
            hs = Verdict(
                VerdictKind.REFUTED,
                "block-filling structure certified to depth; hole counts per orbit diverge",
                depth,
            )
            fb = Verdict(VerdictKind.REFUTED, "follows from the refuted orbit-intersection property", depth)

    if fb.kind is VerdictKind.CERTIFIED_STRUCTURALLY:
        # a finite boundary forces both weaker properties
        if fpc.kind is VerdictKind.UNKNOWN:
            fpc = Verdict(VerdictKind.CERTIFIED_STRUCTURALLY, "implied by finite boundary", depth)
        if hs.kind is VerdictKind.UNKNOWN:
            hs = Verdict(VerdictKind.CERTIFIED_STRUCTURALLY, "implied by finite boundary", depth)
    return PropertyVerdicts(fpc, hs, fb, counts, census)


# -- isolated value pairs ---------------------------------------------------


class IsolationKind(Enum):
    CERTIFIED = "certified-at-level"
    REFUTED = "refuted-to-depth"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class IsolationVerdict:
    kind: IsolationKind
    branch: tuple[int, ...]  # the judged branch, to the tree depth
    level: int | None = None
    settled_depth: int | None = None
    rival: tuple[int, int] | None = None  # (level, residue)


def isolated_value_pair(
    tree: HoleTree,
    branch,
    a: str,
    b: str,
) -> IsolationVerdict:
    """Is the branch locally the only surviving hole path carrying both letters?

    Rivals are surviving off-branch nodes whose value set contains both
    letters.  The branch must be coherent, each residue below the one
    above it; then a rival sharing its cylinders down to level k lies in
    every cylinder above, and the lowest rival-free cylinder is one past
    the deepest level a rival shares.  Nodes deeper than the settled
    depth (half the tree depth, at least 1) are an unsettled frontier:
    they may refute isolation at this depth but cannot count towards
    certifying it, since their subtrees have not been given room to die out.
    """
    alphabet = tree.schedule.alphabet
    if a == b or a not in alphabet or b not in alphabet:
        raise UnknownLetters("need two distinct alphabet letters, got %r, %r" % (a, b))
    branch = tuple(branch)[: tree.depth]
    if len(branch) < tree.depth:
        raise ToeplitzError("branch must reach tree depth")
    periods = tree.schedule.scale(tree.depth)
    for l in range(1, tree.depth + 1):
        if branch[l - 1] not in tree.nodes(l):
            raise ToeplitzError("branch leaves the tree at level %d" % l)
        if l > 1 and branch[l - 1] % periods[l - 2] != branch[l - 2]:
            raise ToeplitzError("branch residue %d at level %d is not below %d" % (branch[l - 1], l, branch[l - 2]))
    settled_depth = max(1, tree.depth // 2)
    pair = {a, b}

    # (level, residue, deepest shared level) of every rival in the level-1 cylinder
    rivals = []
    for d, alive in enumerate(tree.survivors(), 1):
        for r in sorted(alive):
            if r != branch[d - 1] and pair <= tree.nodes(d)[r]:
                shared = 0  # stops below d, since r is off the branch at level d
                while r % periods[shared] == branch[shared]:
                    shared += 1
                if shared:
                    rivals.append((d, r, shared))

    # strong certification: no surviving rival anywhere, to full depth (the
    # bottom level is excluded since its cylinder has nothing below it);
    # then settled certification: rivals may linger near the frontier, but
    # at the settled levels (which had room to die out) the branch stands
    # alone, with at least one settled level of look-ahead below the cylinder
    for horizon in (tree.depth, settled_depth):
        if all(pair <= tree.nodes(d)[branch[d - 1]] for d in range(1, horizon + 1)):
            level = 1 + max((k for d, _, k in rivals if d <= horizon), default=0)
            if level < horizon:
                return IsolationVerdict(IsolationKind.CERTIFIED, branch, level, horizon)

    # refutation: every cylinder level with room below shows a rival, which
    # is to say some rival shares the last such level
    rival = next(((d, r) for d, r, k in rivals if k == tree.depth - 1), None)
    if rival is None:
        return IsolationVerdict(IsolationKind.UNKNOWN, branch, settled_depth=settled_depth)
    return IsolationVerdict(IsolationKind.REFUTED, branch, settled_depth=settled_depth, rival=rival)


@dataclass(frozen=True)
class SiblingWitness:
    level: int
    residue: int
    sibling: int
    block_multiple: int


def oxtoby_no_isolation_check(schedule: FillingSchedule, depth: int) -> list[SiblingWitness]:
    """For each node, a distinct deeper hole in the same cylinder a block multiple away.

    Requires the block-filling certificate; under it a level-l hole r has
    the child r + k * p_l in each unfilled block k of level l, so its two
    lowest children, in the two lowest unfilled blocks k1 < k2, are the
    wanted witness.
    """
    verdict = check_oxtoby(schedule, depth + 1)
    if not verdict.certified:
        raise NotOxtoby("block-filling check failed: %s" % (verdict.reason or verdict.kind))
    witnesses = []
    for l, (k1, k2, *_) in enumerate(verdict.unfilled_blocks, 1):
        p = schedule.period(l)
        witnesses += [SiblingWitness(l, r, r + k2 * p, k2 - k1) for r in schedule.holes(l)]
    return witnesses
