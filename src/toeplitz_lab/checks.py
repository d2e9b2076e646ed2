"""Named verification checks replaying the worked examples end to end.

Each check recomputes a documented claim about a gallery construction
and compares against pinned expected values.  The registry backs the
``verify`` CLI subcommand; the test suite runs the same checks and adds
independent oracles of its own.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

from . import boundary, complexity, elements, factors, odometer, periodicity, words
from .gallery import gallery as make_gallery, gallery_code, proximal_shift_pair


@dataclass
class CheckResult:
    check_id: str
    passed: bool
    details: dict = field(default_factory=dict)


_REGISTRY: dict[str, Callable[[], CheckResult]] = {}


def check(check_id: str):
    def wrap(fn):
        _REGISTRY[check_id] = fn
        fn.check_id = check_id
        return fn

    return wrap


def available_checks() -> list[str]:
    return sorted(_REGISTRY)


def run_check(check_id: str) -> CheckResult:
    return _REGISTRY[check_id]()


def run_all(ids=None) -> list[CheckResult]:
    ids = sorted(ids) if ids else available_checks()
    return [run_check(i) for i in ids]


# -- pinned display constants ------------------------------------------------

SEC22_COMPOSITION = "aaaba?aba?bbabbb"
EX57_ROWS = (
    "a??b" * 16,
    "aaaba??ba??babbb" * 4,
    "aaabaaabaabbabbb" + "aaaba??ba??babbb" * 2 + "aaababbbabababbb",
    "aaabaaabaabbabbb" * 2 + "aaabaabbaabbabbb" + "aaababbbabababbb",
)
EX43_BRANCH = tuple((4 ** l - 1) // 3 for l in range(1, 9))
EX57_PAIR_CENSUSES = (7, 14, 27, 54)


@check("sec2.2-compose")
def _sec22_compose() -> CheckResult:
    outer = words.PeriodicPattern("a??b")
    inner = words.parse_seed("aa?a?bbb")
    got = words.compose_fill(outer, inner)
    ok = got.symbols == SEC22_COMPOSITION and got.period == 16 and got.holes == (5, 9)
    return CheckResult("sec2.2-compose", ok, {"pattern": got.symbols, "holes": list(got.holes)})


@check("ex4.3-aper-counts")
def _ex43_aper_counts() -> CheckResult:
    s = make_gallery("ex4.3")
    counts = {}
    ok = True
    for l in range(1, 5):
        res = periodicity.aperiodic_residues(s, 2 * l, 2 * l + 2)
        counts[2 * l] = len(res)
        ok = ok and len(res) == 2 ** l
    return CheckResult("ex4.3-aper-counts", ok, {"counts": counts})


@check("ex4.3-level2-pattern")
def _ex43_level2() -> CheckResult:
    s = make_gallery("ex4.3")
    pat = s.pattern(2)
    ok = pat.symbols == SEC22_COMPOSITION and pat.holes == (5, 9)
    return CheckResult("ex4.3-level2-pattern", ok, {"pattern": pat.symbols})


@check("ex4.3-boundary-singleton")
def _ex43_boundary() -> CheckResult:
    s = make_gallery("ex4.3")
    tree = boundary.hole_tree(s, 8, 10)
    census = boundary.pruned_branch_census(tree)
    survivors_l4 = sorted(tree.survivors()[3])
    ok = census[3] == 1 and survivors_l4 == [85]
    return CheckResult("ex4.3-boundary-singleton", ok, {"census": census, "level4": survivors_l4})


@check("ex4.4-single-hole")
def _ex44_single_hole() -> CheckResult:
    s = make_gallery("ex4.4")
    per_level = {}
    ok = True
    for l in (1, 2, 3):
        res = periodicity.aperiodic_residues(s, l, min(l + 1, 4))
        per_level[l] = list(res)
        ok = ok and len(res) == 1 and res == s.holes(l)
    w3 = s.seed(1).symbols
    ok = ok and len(w3) == 64 and w3.endswith("abbabb?bbb")
    return CheckResult("ex4.4-single-hole", ok, {"holes": per_level})


@check("ex4.4-mini-complexity-bound")
def _ex44_mini_bound() -> CheckResult:
    s = make_gallery("ex4.4-mini")
    rows = []
    ok = True
    for l in (1, 2, 3):
        p = s.period(l)
        fs = complexity.factor_set_exact_single_hole(s, l, p)
        rows.append((p, fs.count, fs.exact))
        ok = ok and fs.exact and fs.count <= p * len(s.alphabet)
    return CheckResult("ex4.4-mini-complexity-bound", ok, {"rows": rows})


@check("ex4.4-mini-oracle-equivalence")
def _ex44_mini_oracle() -> CheckResult:
    s = make_gallery("ex4.4-mini")
    ok = True
    rows = []
    for L in (8, 16):
        exact = complexity.factor_set_exact_single_hole(s, 1, L)
        scan = complexity.factor_set_window(s, L, (0, 3 * s.period(2)), max_level=5)
        rows.append((L, exact.count, scan.count))
        ok = ok and exact.words == scan.words
    # scaled growth checkpoints: all fills of (l+1) holes occur
    for l in (1, 2):
        L = (l + 1) * s.period(l)
        fs = complexity.factor_set_exact_single_hole(s, l, L)
        rows.append((L, fs.count, 2 ** (l + 1) * s.period(l)))
        ok = ok and fs.count == 2 ** (l + 1) * s.period(l)
    return CheckResult("ex4.4-mini-oracle-equivalence", ok, {"rows": rows})


@check("ex5.7-display-lines")
def _ex57_rows() -> CheckResult:
    s = make_gallery("ex5.7")
    got = [words.resolve_window(s, 0, 64, l) for l in range(1, 5)]
    ok = tuple(got) == EX57_ROWS
    return CheckResult("ex5.7-display-lines", ok, {"rows": got})


@check("ex5.7-factor-image")
def _ex57_factor_image() -> CheckResult:
    s = make_gallery("ex5.7")
    code = gallery_code("ex5.7")
    pat = factors.apply_code(code, s.pattern(4))
    a_positions = [j for j in range(1024) if pat.at(j) == "a"]
    expected = sorted(set(range(1, 1024, 16)) | set(range(5, 1024, 64)) | set(range(21, 1024, 256)))
    ok = a_positions == expected
    return CheckResult("ex5.7-factor-image", ok, {"count": len(a_positions)})


@check("ex5.7-factor-aper")
def _ex57_factor_aper() -> CheckResult:
    s = make_gallery("ex5.7")
    code = gallery_code("ex5.7")
    got = {}
    ok = True
    for l in range(1, 5):
        fr = factors.factor_aperiodic_residues(code, s, l, 7)
        got[l] = list(fr.nonperiodic)
        ok = ok and fr.nonperiodic == ((4 ** l - 1) // 3,)
    return CheckResult("ex5.7-factor-aper", ok, {"nonperiodic": got})


@check("ex5.7-factor-fb")
def _ex57_factor_fb() -> CheckResult:
    s = make_gallery("ex5.7")
    code = gallery_code("ex5.7")
    counts = [len(factors.factor_aperiodic_residues(code, s, l, 7).nonperiodic) for l in range(1, 5)]
    ok = all(c <= 1 for c in counts)
    kind = boundary.VerdictKind.CERTIFIED_STRUCTURALLY if ok else boundary.VerdictKind.UNKNOWN
    return CheckResult("ex5.7-factor-fb", ok, {"counts": counts, "verdict": kind, "declared_bound": 1})


@check("ex5.7-fiber-bound")
def _ex57_fiber() -> CheckResult:
    s = make_gallery("ex5.7")
    br = odometer.branch_point(s, tuple((4 ** l - 1) // 3 for l in range(1, 7)))
    counts = {}
    ok = True
    for l in range(2, 7):
        n = elements.fiber_prefix_count(s, br.truncate(l), l, depth=l + 3, block_range=40)
        counts[l] = n
        ok = ok and n <= 4
    return CheckResult("ex5.7-fiber-bound", ok, {"counts": counts})


@check("ex5.7-proximal-shifts")
def _ex57_shifts() -> CheckResult:
    k1 = proximal_shift_pair(1)[0]
    k3 = proximal_shift_pair(3)[0]
    ok = k1 == 6 and k3 == 102
    return CheckResult("ex5.7-proximal-shifts", ok, {"k1": k1, "k3": k3})


@check("ex5.7-pair-censuses")
def _ex57_censuses() -> CheckResult:
    s = make_gallery("ex5.7")
    counts = []
    agree_ok = True
    for l in range(2, 6):
        n1, n2 = proximal_shift_pair(l)
        rep = elements.pair_report(
            s, elements.Shift(n1), elements.Shift(n2), depth=l + 1,
            windows=[(-(4 ** l), 4 ** l)], eval_level=l + 4,
        )
        agree_ok = agree_ok and rep.phi_agreement_depth >= l
        counts.append(rep.censuses[0].resolved_differences)
    increasing = all(b > a for a, b in zip(counts, counts[1:]))
    ok = agree_ok and increasing and tuple(counts) == EX57_PAIR_CENSUSES
    return CheckResult("ex5.7-pair-censuses", ok, {"censuses": counts})


@check("ex3.5-oxtoby-certified")
def _ex35_oxtoby() -> CheckResult:
    v = periodicity.check_oxtoby(make_gallery("ex3.5"), 4)
    return CheckResult("ex3.5-oxtoby-certified", v.certified, {"kind": v.kind.value, "scale": list(v.scale)})


@check("ex3.5-hole-window-counts")
def _ex35_windows() -> CheckResult:
    s = make_gallery("ex3.5")
    ok = True
    mins = {}
    for l in range(1, 5):
        for t in range(1, l + 1):
            counts = periodicity.hole_block_counts(s, t, l)
            mins[(t, l)] = min(counts)
            ok = ok and all(c >= 2 ** (t - 1) for c in counts)
    return CheckResult("ex3.5-hole-window-counts", ok, {"min_per_block": {str(k): v for k, v in mins.items()}})


@check("ex3.5-hs-refuted")
def _ex35_hs() -> CheckResult:
    pv = boundary.property_verdicts(make_gallery("ex3.5"), 4, census_depth=3)
    ok = pv.hs.kind == boundary.VerdictKind.REFUTED
    return CheckResult("ex3.5-hs-refuted", ok, {"hs": pv.hs.kind, "fb": pv.fb.kind})


@check("ex3.5-pair-census")
def _ex35_pairs() -> CheckResult:
    s = make_gallery("ex3.5")
    tree = boundary.hole_tree(s, 4, 5)
    worst = 0
    total = 0
    for br in tree.branches(limit=6):
        e1 = elements.branch_rule(s, br)
        e2 = elements.branch_rule(s, br, block_offset=1)
        rep = elements.pair_report(s, e1, e2, depth=3, windows=[(-20, 20), (-60, 60)], eval_level=6)
        for c in rep.censuses:
            worst = max(worst, c.resolved_differences)
            total += c.resolved_differences
    ok = worst <= 2 and total > 0
    return CheckResult("ex3.5-pair-census", ok, {"max_differences": worst, "total": total})


@check("ex3.5-no-isolation-witnesses")
def _ex35_witnesses() -> CheckResult:
    s = make_gallery("ex3.5")
    wits = boundary.oxtoby_no_isolation_check(s, 3)
    covered = {(w.level, w.residue) for w in wits}
    wanted = {(l, r) for l in (1, 2, 3) for r in s.holes(l)}
    ok = covered == wanted
    return CheckResult("ex3.5-no-isolation-witnesses", ok, {"witnesses": len(wits)})


@check("ex5.7-no-isolation-witnesses")
def _ex57_witnesses() -> CheckResult:
    s = make_gallery("ex5.7")
    wits = boundary.oxtoby_no_isolation_check(s, 3)
    covered = {(w.level, w.residue) for w in wits}
    wanted = {(l, r) for l in (1, 2, 3) for r in s.holes(l)}
    ok = covered == wanted
    return CheckResult("ex5.7-no-isolation-witnesses", ok, {"witnesses": len(wits)})


@check("ex4.3-isolating-factor")
def _ex43_isolating() -> CheckResult:
    s = make_gallery("ex4.3")
    tree = boundary.hole_tree(s, 8, 10)
    iso = boundary.isolated_value_pair(tree, EX43_BRANCH, "a", "b")
    cert = factors.unique_residue_search(s, 5, 5, (0, 2 * s.period(6)))
    if not (iso.kind == boundary.IsolationKind.CERTIFIED and cert.holds):
        return CheckResult("ex4.3-isolating-factor", False, {"iso": iso.kind, "search": cert.holds})
    code = factors.build_isolating_code(s, EX43_BRANCH, "a", l1=5, l2=5, certificate=iso)
    chain_ok = True
    got = {}
    for l in range(1, 6):
        fr = factors.factor_aperiodic_residues(code, s, l, 7)
        got[l] = list(fr.nonperiodic)
        chain_ok = chain_ok and fr.nonperiodic == (EX43_BRANCH[l - 1],) and not fr.undetermined
    fpat = factors.apply_code(code, s.pattern(7))
    struct = periodicity.verify_period_structure(
        fpat, [4 ** l for l in range(1, 6)], 7, coverage_window=(-200, 200)
    )
    ok = chain_ok and struct.all_pass
    return CheckResult(
        "ex4.3-isolating-factor", ok,
        {"chain": got, "period_structure": struct.all_pass, "radius": code.radius},
    )


@check("ex4.4-isolating-factor")
def _ex44_isolating() -> CheckResult:
    s = make_gallery("ex4.4")
    chain = tuple(s.holes(l)[0] for l in range(1, 6))
    cert = factors.find_unique_residue_level(s, 1, max_l2=3)
    tree = boundary.hole_tree(s, 2, 3)
    iso = boundary.isolated_value_pair(tree, chain[:2], "a", "b")
    if not (iso.kind == boundary.IsolationKind.CERTIFIED and cert.holds):
        return CheckResult("ex4.4-isolating-factor", False, {"iso": iso.kind, "search": cert.holds})
    code = factors.build_isolating_code(s, chain, "a", l1=1, l2=cert.l2, certificate=iso)
    chain_ok = True
    got = {}
    residues_by_level = {}
    for l in range(1, 6):
        fr = factors.factor_aperiodic_residues(code, s, l, l + 2)
        got[l] = list(fr.nonperiodic)
        residues_by_level[l] = fr
        chain_ok = chain_ok and fr.nonperiodic == (chain[l - 1],) and not fr.undetermined
    # essential periods reach every checked entry: explicit pattern route for
    # the small levels, the chain argument for the two large ones
    fpat = factors.apply_code(code, s.pattern(4))
    struct = periodicity.verify_period_structure(
        fpat, [s.period(l) for l in (1, 2, 3)], 4, coverage_window=(-64, 64)
    )
    sparse_ok = _chain_scale_essentiality(code, s, chain, (4, 5), residues_by_level)
    ok = chain_ok and struct.all_pass and sparse_ok
    return CheckResult(
        "ex4.4-isolating-factor", ok,
        {"chain": got, "small_scale": struct.all_pass,
         "large_scale": sparse_ok, "l2": cert.l2, "radius": code.radius},
    )


def _chain_scale_essentiality(code, schedule, chain, levels, residues_by_level) -> bool:
    """Essentiality of large scale entries for a certified single-chain factor.

    The witness position sits half a period from the chain residue: it is
    certified periodic (its code window meets no unresolved class) and
    congruent to the chain residue modulo every smaller power of two, so
    its class meets the two-valued chain class at every smaller scale.
    All certified positions resolve on a power-of-two scale, so only
    power-of-two periods can tie.
    """
    J = code.radius
    for l in levels:
        p = schedule.period(l)
        if p & (p - 1):
            return False  # argument needs a power-of-two scale entry
        fr = residues_by_level[l]
        if fr.nonperiodic != (chain[l - 1],) or fr.undetermined:
            return False
        witness = (chain[l - 1] + p // 2) % p
        holes = set(schedule.holes(l))
        if any((witness + d) % p in holes for d in range(-J, J + 1)):
            return False
        if (witness - chain[l - 1]) % (p // 2):
            return False
    return True


@check("ex4.3-unique-residue")
def _ex43_unique() -> CheckResult:
    s = make_gallery("ex4.3")
    cert = factors.unique_residue_search(s, 5, 5, (0, 2 * s.period(6)))
    return CheckResult("ex4.3-unique-residue", cert.holds, {"l2": cert.l2, "window": list(cert.window)})


@check("ex4.4-unique-residue")
def _ex44_unique() -> CheckResult:
    s = make_gallery("ex4.4")
    cert = factors.unique_residue_search(s, 1, 1, (0, 2 * s.period(2)))
    return CheckResult("ex4.4-unique-residue", cert.holds, {"l2": cert.l2, "window": list(cert.window)})


@check("ex5.7-factor-hole-bound")
def _ex57_random_codes() -> CheckResult:
    s = make_gallery("ex5.7")
    rng = random.Random(20250808)
    ok = True
    worst = 0.0
    for _ in range(20):
        radius = rng.choice((0, 1, 2))
        code = factors.SlidingBlockCode.from_fn(
            s.alphabet, radius, lambda w: rng.choice(s.alphabet.letters)
        )
        for l in range(1, 5):
            fr = factors.factor_aperiodic_residues(code, s, l, 6)
            count = len(fr.nonperiodic) + len(fr.undetermined)
            bound = (2 * radius + 1) * len(s.holes(l))
            worst = max(worst, count / bound)
            ok = ok and count <= bound
    return CheckResult("ex5.7-factor-hole-bound", ok, {"codes": 20, "worst_ratio": round(worst, 3)})
