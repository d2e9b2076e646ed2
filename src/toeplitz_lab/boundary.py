"""Finite-depth approximation of the separating-cover boundary.

The hole tree has one node per aperiodic residue and level; a node's
value set collects the letters actually observed in its residue class up
to a resolution strictly deeper than the tree.  A cylinder certifiably
contains no boundary point exactly when its subtree dies out, so pruning
against the deepest level is sound.  Certificates distinguish what was
proven at depth from what a construction declares structurally.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotOxtoby, PatternTooLarge, ToeplitzError, UnknownLetters
from .periodicity import check_oxtoby, min_hole_gap
from .words import HOLE, FillingSchedule


@dataclass(frozen=True)
class HoleNode:
    level: int
    residue: int
    parent: int | None
    value_set: frozenset[str]


@dataclass
class HoleTree:
    schedule: FillingSchedule
    depth: int
    resolution_depth: int
    levels: tuple[dict[int, HoleNode], ...]  # levels[l-1]: residue -> node

    def nodes(self, l: int) -> dict[int, HoleNode]:
        return self.levels[l - 1]

    def survivors(self) -> tuple[frozenset[int], ...]:
        """Per level, the residues with a descendant at the deepest level."""
        alive = frozenset(self.levels[-1])
        out = [alive]
        for l in range(self.depth - 1, 0, -1):
            p = self.schedule.period(l)
            parents = frozenset(r % p for r in alive)
            alive = frozenset(r for r in self.levels[l - 1] if r in parents)
            out.append(alive)
        return tuple(reversed(out))

    def branches(self, limit: int | None = None) -> list[tuple[int, ...]]:
        """Full-depth residue chains, lexicographically by level residues."""
        chains: list[tuple[int, ...]] = [()]
        for l in range(1, self.depth + 1):
            p_prev = self.schedule.period(l - 1) if l > 1 else None
            nxt = []
            for chain in chains:
                for r in sorted(self.levels[l - 1]):
                    if l == 1 or r % p_prev == chain[-1]:
                        nxt.append(chain + (r,))
            chains = nxt
            if limit is not None and len(chains) > 4 * limit:
                chains = chains[: 4 * limit]
        return chains if limit is None else chains[:limit]


def hole_tree(schedule: FillingSchedule, depth: int, resolution_depth: int | None = None) -> HoleTree:
    """Build the hole tree to ``depth`` with value sets from a deeper pattern."""
    if resolution_depth is None:
        resolution_depth = depth + 2
    if resolution_depth < depth:
        raise ValueError("resolution depth must be >= tree depth")
    resolution_depth = min(resolution_depth, schedule.available_levels(resolution_depth))
    from .words import PATTERN_CAP

    while resolution_depth > depth and schedule.period(resolution_depth) > PATTERN_CAP:
        resolution_depth -= 1
    pat = schedule.pattern(resolution_depth)
    levels = []
    for l in range(1, depth + 1):
        p = schedule.period(l)
        p_prev = schedule.period(l - 1) if l > 1 else None
        nodes = {}
        for r in schedule.holes(l):
            # p divides the pattern period, so the class of r is one slice
            observed = set(pat.symbols[r::p])
            observed.discard(HOLE)
            parent = r % p_prev if l > 1 else None
            if l > 1 and parent not in levels[-1]:
                raise ToeplitzError("hole nesting violated at level %d residue %d" % (l, r))
            nodes[r] = HoleNode(l, r, parent, frozenset(observed))
        levels.append(nodes)
    return HoleTree(schedule, depth, resolution_depth, tuple(levels))


def pruned_branch_census(tree: HoleTree) -> list[int]:
    """Per level, how many nodes still have a descendant at the deepest level."""
    return [len(s) for s in tree.survivors()]


# -- finiteness verdicts ---------------------------------------------------


class VerdictKind:
    CERTIFIED_TO_DEPTH = "certified-to-depth"
    CERTIFIED_STRUCTURALLY = "certified-structurally"
    REFUTED = "refuted"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class Verdict:
    kind: str
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
    """
    decl = schedule.declarations
    counts = tuple(len(schedule.holes(l)) for l in range(1, depth + 1))
    census_depth = census_depth if census_depth is not None else depth
    try:
        tree = hole_tree(schedule, census_depth, census_depth + 2)
        census = tuple(pruned_branch_census(tree))
    except PatternTooLarge:
        census = ()

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
        ok = bool(census) and census[:half] == (1,) * half
        if ok:
            fb = Verdict(
                VerdictKind.CERTIFIED_STRUCTURALLY,
                "declared singleton boundary; pruned census stabilises at 1",
                depth,
            )

    if decl.get("separated_holes"):
        gaps = [min_hole_gap(schedule, l) for l in range(1, depth + 1)]
        if all(b >= a for a, b in zip(gaps, gaps[1:])):
            hs = Verdict(
                VerdictKind.CERTIFIED_STRUCTURALLY,
                "declared separated holes; gaps nondecreasing to depth",
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


class IsolationKind:
    CERTIFIED = "certified-at-level"
    REFUTED = "refuted-to-depth"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class IsolationVerdict:
    kind: str
    level: int | None = None
    settled_depth: int | None = None
    rival: tuple[int, int] | None = None  # (level, residue)


def isolated_value_pair(
    tree: HoleTree,
    branch,
    a: str,
    b: str,
    settled_depth: int | None = None,
) -> IsolationVerdict:
    """Is the branch locally the only surviving hole path carrying both letters?

    Rival candidates are surviving nodes in the branch's cylinder whose
    value set contains both letters.  Nodes deeper than ``settled_depth``
    (default: half the tree depth) are an unsettled frontier: they may
    refute isolation at this depth but cannot count towards certifying
    it, since their subtrees have not been given room to die out.
    """
    alphabet = tree.schedule.alphabet
    if a == b or a not in alphabet or b not in alphabet:
        raise UnknownLetters("need two distinct alphabet letters, got %r, %r" % (a, b))
    branch = tuple(branch)
    if len(branch) < tree.depth:
        raise ToeplitzError("branch must reach tree depth")
    for l in range(1, tree.depth + 1):
        if branch[l - 1] not in tree.nodes(l):
            raise ToeplitzError("branch leaves the tree at level %d" % l)
    if settled_depth is None:
        settled_depth = max(1, tree.depth // 2)
    survivors = tree.survivors()
    pair = {a, b}

    def rivals(l1: int, horizon: int):
        p = tree.schedule.period(l1)
        anchor = branch[l1 - 1]
        for d in range(l1, horizon + 1):
            for r in survivors[d - 1]:
                if r % p == anchor and r != branch[d - 1]:
                    if pair <= tree.nodes(d)[r].value_set:
                        yield (d, r)

    def branch_carries_pair(horizon: int) -> bool:
        return all(pair <= tree.nodes(d)[branch[d - 1]].value_set for d in range(1, horizon + 1))

    # strong certification: no surviving rival anywhere, to full depth;
    # the bottom level is excluded since its cylinder has nothing below it
    if branch_carries_pair(tree.depth):
        for l1 in range(1, tree.depth):
            if next(rivals(l1, tree.depth), None) is None:
                return IsolationVerdict(IsolationKind.CERTIFIED, level=l1, settled_depth=tree.depth)
    # settled certification: rivals may linger near the frontier, but at the
    # settled levels (which had room to die out) the branch stands alone;
    # requires at least one settled level of look-ahead below the cylinder
    if branch_carries_pair(settled_depth):
        for l1 in range(1, settled_depth):
            if next(rivals(l1, settled_depth), None) is None:
                return IsolationVerdict(IsolationKind.CERTIFIED, level=l1, settled_depth=settled_depth)

    # refutation: every cylinder level with room below shows a rival
    refuting = []
    for l1 in range(1, tree.depth):
        rv = next(rivals(l1, tree.depth), None)
        if rv is None:
            return IsolationVerdict(IsolationKind.UNKNOWN, settled_depth=settled_depth)
        refuting.append(rv)
    if not refuting:
        return IsolationVerdict(IsolationKind.UNKNOWN, settled_depth=settled_depth)
    return IsolationVerdict(
        IsolationKind.REFUTED, settled_depth=settled_depth, rival=refuting[-1]
    )


@dataclass(frozen=True)
class SiblingWitness:
    level: int
    residue: int
    sibling: int
    block_multiple: int


def oxtoby_no_isolation_check(schedule: FillingSchedule, depth: int) -> list[SiblingWitness]:
    """For each node, a distinct deeper hole in the same cylinder a block multiple away.

    Requires the block-filling certificate; under it every node keeps at
    least two children, and the pair of children is exactly the wanted
    witness.
    """
    verdict = check_oxtoby(schedule, depth + 1)
    if not verdict.certified:
        raise NotOxtoby("block-filling check failed: %s" % (verdict.reason or verdict.kind))
    witnesses = []
    for l in range(1, depth + 1):
        p = schedule.period(l)
        children: dict[int, list[int]] = {}
        for r in schedule.holes(l + 1):
            children.setdefault(r % p, []).append(r)
        for r in schedule.holes(l):
            kids = sorted(children.get(r, []))
            if len(kids) < 2:
                raise NotOxtoby("node %d at level %d has fewer than two children" % (r, l))
            c1, c2 = kids[0], kids[1]
            witnesses.append(SiblingWitness(l, r, c2, (c2 - c1) // p))
    return witnesses
