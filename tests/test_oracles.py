"""Independent brute-force oracles for the core operations.

These re-derive expected values by direct simulation, sharing no code
with the implementations they check: the filler below literally walks
positions in order and drops seed letters into holes one by one.
"""

import dataclasses
import random
from itertools import product
from math import gcd

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import toeplitz_lab as tl
from toeplitz_lab.errors import PatternTooLarge


def naive_fill(seeds, lo, hi, margin=None):
    """Simulate hole filling over a large centred window, by definition.

    Seed k+1's letters are dropped one at a time into the holes of the
    current word, the first letter landing in the first hole at a
    non-negative position, extending cyclically both ways.
    """
    if margin is None:
        margin = 8 * max(len(w) for w in seeds) * (hi - lo + 8)
    base = seeds[0]
    q = len(base)
    start = lo - margin
    word = [base[j % q] for j in range(start, hi + margin)]
    for seed in seeds[1:]:
        holes = [i for i, c in enumerate(word) if c == "?"]
        if not holes:
            break
        # rank 0 is the first hole at a non-negative absolute position
        first = next(i for i in holes if i + start >= 0)
        offset = holes.index(first)
        for rank, i in enumerate(holes):
            word[i] = seed[(rank - offset) % len(seed)]
    return "".join(word[lo - start: hi - start])


@st.composite
def seed_lists(draw):
    n = draw(st.integers(2, 3))
    seeds = []
    for _ in range(n):
        length = draw(st.integers(2, 5))
        mid = "".join(draw(st.lists(st.sampled_from("ab?"), min_size=length - 2, max_size=length - 2)))
        seeds.append(draw(st.sampled_from("ab")) + mid + draw(st.sampled_from("ab")))
    return seeds


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed_lists(), st.integers(-30, 30))
def test_naive_filler_matches_evaluate(seeds, lo):
    s = tl.FillingSchedule(tl.BINARY, [tl.parse_seed(w) for w in seeds])
    hi = lo + 40
    expected = naive_fill(seeds, lo, hi)
    got = tl.resolve_window(s, lo, hi, len(seeds))
    assert got == expected


def test_naive_filler_matches_gallery_words():
    for name in ("ex4.3", "ex5.7", "ex3.5"):
        s = tl.gallery(name)
        seeds = [s.seed(l).symbols for l in range(1, 4)]
        assert tl.resolve_window(s, -25, 60, 3) == naive_fill(seeds, -25, 60)


def brute_classify(pattern, p):
    span = p * pattern.period // gcd(p, pattern.period)
    out = {}
    for r in range(p):
        cells = [pattern.symbols[j % pattern.period] for j in range(r, r + span, p)]
        letters = {c for c in cells if c != "?"}
        if len(letters) > 1:
            out[r] = "nonperiodic"
        elif "?" in cells:
            out[r] = "undetermined"
        else:
            out[r] = "periodic:" + cells[0]
    return out


def classes_by_residue(classes):
    """``classify_residues``'s three sets as one residue -> verdict map, in
    ``brute_classify``'s terms, after checking that they partition range(p)."""
    p = classes.modulus
    assert list(classes.nonperiodic) == sorted(classes.nonperiodic)
    assert list(classes.undetermined) == sorted(classes.undetermined)
    assert len(classes.periodic) + len(classes.nonperiodic) + len(classes.undetermined) == p
    assert set(classes.periodic) | set(classes.nonperiodic) | set(classes.undetermined) == set(range(p))
    assert classes.letters == "".join(classes.periodic.get(r, "?") for r in range(p))
    out = {r: "periodic:" + letter for r, letter in classes.periodic.items()}
    out.update((r, "nonperiodic") for r in classes.nonperiodic)
    out.update((r, "undetermined") for r in classes.undetermined)
    return out


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seed_lists(), st.integers(1, 24))
def test_classification_matches_brute_force(seeds, p):
    s = tl.FillingSchedule(tl.BINARY, [tl.parse_seed(w) for w in seeds])
    pat = s.pattern(len(seeds))
    assert classes_by_residue(tl.classify_residues(pat, p)) == brute_classify(pat, p)


def brute_unique_residue(text, lo, length, p1):
    n = len(text) - length
    for j1 in range(n):
        for j2 in range(j1 + 1, n):
            if (j1 - j2) % p1 and text[j1: j1 + length] == text[j2: j2 + length]:
                return (lo + j1, lo + j2)
    return None


def test_unique_residue_search_matches_quadratic_scan():
    s = tl.gallery("ex5.7")
    for l1, l2, hi in ((1, 2, 96), (2, 1, 128), (2, 2, 200)):
        cert = tl.unique_residue_search(s, l1, l2, (0, hi), depth=7)
        text = tl.resolve_window(s, 0, hi + s.period(l2), 7)
        brute = brute_unique_residue(text, 0, s.period(l2), s.period(l1))
        assert cert.holds == (brute is None)
        if not cert.holds:
            j1, j2 = cert.counterexample
            assert text[j1: j1 + s.period(l2)] == text[j2: j2 + s.period(l2)]
            assert (j1 - j2) % s.period(l1)


def brute_apply(code, pattern, j):
    J = code.radius
    window = pattern.window(j - J, j + J + 1)
    holes = [i for i, c in enumerate(window) if c == "?"]
    outs = set()
    for mask in range(2 ** len(holes)):
        chars = list(window)
        for bit, i in enumerate(holes):
            chars[i] = "ab"[(mask >> bit) & 1]
        outs.add(code("".join(chars)))
    return outs.pop() if len(outs) == 1 else "?"


def test_apply_code_matches_brute_completion():
    rng = random.Random(99)
    s = tl.gallery("ex5.7")
    pat = s.pattern(3)
    for _ in range(6):
        radius = rng.choice((0, 1, 2))
        code = tl.SlidingBlockCode.from_fn(tl.BINARY, radius, lambda w: rng.choice("ab"))
        image = tl.apply_code(code, pat)
        for j in range(pat.period):
            assert image.at(j) == brute_apply(code, pat, j)


@st.composite
def short_period_cases(draw):
    """A pattern of period at most 6 with a table code of radius <= 3 or a marker code of radius <= 4."""
    symbols = draw(st.text(alphabet="ab?", min_size=1, max_size=6))
    if draw(st.booleans()):
        width = 2 * draw(st.integers(0, 3)) + 1
        windows = ["".join(w) for w in product("ab", repeat=width)]
        outputs = draw(st.lists(st.sampled_from("ab"), min_size=len(windows), max_size=len(windows)))
        return tl.SlidingBlockCode(tl.BINARY, width // 2, dict(zip(windows, outputs))), tl.PeriodicPattern(symbols)
    width = 2 * draw(st.integers(0, 4)) + 1
    cyclic = symbols * (2 * width)
    marked = set()
    for start in draw(st.lists(st.integers(0, len(symbols) - 1), max_size=4)):
        # mark windows the extension shows, with all or one of their completions
        window = cyclic[start: start + width]
        fills = list(product("ab", repeat=window.count("?")))
        if len(fills) > 8 or draw(st.booleans()):
            fills = fills[:1]
        for fill in fills:
            letters = iter(fill)
            marked.add("".join(next(letters) if c == "?" else c for c in window))
    return tl.MarkerCode(tl.BINARY, width // 2, frozenset(marked), "a", "b"), tl.PeriodicPattern(symbols)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(short_period_cases())
@example((tl.SlidingBlockCode.from_fn(tl.BINARY, 2, lambda w: "a"), tl.PeriodicPattern("a??b")))
def test_apply_code_on_periods_within_the_window_matches_brute_completion(case):
    # a window wider than the period meets copies of the same hole class,
    # which are distinct positions of the word and are completed independently
    code, pat = case
    image = tl.apply_code(code, pat)
    assert image.symbols == "".join(brute_apply(code, pat, j) for j in range(pat.period))


def test_sparse_factor_route_agrees_with_pattern_route():
    from toeplitz_lab.factors import _sparse_factor_residues

    rng = random.Random(5)
    marker = tl.MarkerCode(tl.BINARY, 1, frozenset(["aab", "bab", "abb"]), "a", "b")
    for name in ("ex4.4", "ex4.4-mini", "ex5.7", "ex3.5", "ex4.3"):
        s = tl.gallery(name)
        codes = [tl.SlidingBlockCode.from_fn(tl.BINARY, rng.choice((1, 2)), lambda w: rng.choice("ab"))
                 for _ in range(3)]
        for code in codes + [marker]:
            for l in (1, 2):
                full = tl.factor_aperiodic_residues(code, s, l, 3)
                sparse = _sparse_factor_residues(code, s, l, 3)
                assert full.nonperiodic == sparse.nonperiodic
                undecided = set(sparse.undetermined) | set(sparse.nonperiodic)
                assert set(full.undetermined) <= undecided
    # every radius-8 window of ex5.7 meets 9 level-1 hole slots
    s = tl.gallery("ex5.7")
    code = tl.SlidingBlockCode.from_fn(tl.BINARY, 8, lambda w: "a" if w[8] == w[7] else "b")
    full = tl.factor_aperiodic_residues(code, s, 1, 3)
    assert _sparse_factor_residues(code, s, 1, 3) == full
    assert full.nonperiodic == (1, 2, 3) and full.undetermined == ()


def test_exact_complexity_matches_long_window_scan():
    m = tl.gallery("ex4.4-mini")
    for L in (5, 9, 13):
        exact = tl.factor_set_exact_single_hole(m, 1, L)
        scan = tl.factor_set_window(m, L, (0, 3 * m.period(2)), max_level=5)
        assert scan.words == exact.words


# -- oracles for the slice-based kernels ---------------------------------------


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.text(alphabet="abc?", min_size=1, max_size=24), st.integers(1, 40))
def test_classification_of_any_pattern_matches_lcm_scan(symbols, p):
    # arbitrary patterns, so p need not divide the period
    pat = tl.PeriodicPattern(symbols, tl.Alphabet("abc"))
    assert classes_by_residue(tl.classify_residues(pat, p)) == brute_classify(pat, p)


def lcm_walk_per_sets_differ(pattern, p, p_l):
    """Per(p) against Per(p_l) by walking every position of one lcm(p, p_l) span."""
    small, large = brute_classify(pattern, p), brute_classify(pattern, p_l)
    undetermined = False
    for j in range(p * p_l // gcd(p, p_l)):
        s, t = small[j % p].partition(":")[0], large[j % p_l].partition(":")[0]
        if {s, t} == {"periodic", "nonperiodic"}:
            return True
        if "undetermined" in (s, t):
            undetermined = True
    return None if undetermined else False


def per_sets_differ(small, large):
    """Two classifications' Per sets compared modulo d = gcd of their moduli:
    a mod p and b mod p_l share a position exactly when a = b mod d (Chinese
    remainder theorem).  True (differ), False (equal as far as certified),
    or None when undetermined residues block the comparison."""
    d = gcd(small.modulus, large.modulus)
    for one, other in ((small, large), (large, small)):
        if {a % d for a in one.periodic}.intersection(b % d for b in other.nonperiodic):
            return True
    return None if small.undetermined or large.undetermined else False


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.text(alphabet="abc?", min_size=1, max_size=24), st.integers(1, 20), st.integers(1, 40))
@example("cb", 5, 4)  # differ
@example("a?", 5, 8)  # undetermined
@example("aa", 9, 2)  # equal
def test_per_sets_differ_matches_lcm_walk(symbols, p, p_l):
    # arbitrary patterns and moduli: p need not divide p_l nor the period
    pat = tl.PeriodicPattern(symbols, tl.Alphabet("abc"))
    got = per_sets_differ(tl.classify_residues(pat, p), tl.classify_residues(pat, p_l))
    assert got is lcm_walk_per_sets_differ(pat, p, p_l)


@st.composite
def near_periodic_patterns(draw):
    """A short block over abc? repeated, with a few cells changed, so classes of every kind occur."""
    block = draw(st.text(alphabet="abc?", min_size=1, max_size=6))
    cells = list(block * draw(st.integers(1, 8)))
    for i in draw(st.lists(st.integers(0, len(cells) - 1), max_size=3)):
        cells[i] = draw(st.sampled_from("abc?"))
    return "".join(cells)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(st.text(alphabet="abc?", min_size=1, max_size=36), near_periodic_patterns()))
@example("abab?b")  # Per(2) and Per(3) differ only through Per(1)
@example("a?aa" "abaa")  # only the b of an undetermined class tells Per(2) from Per(4)
@example("aabbab")  # the classes mod 2 and mod 3 are all nonperiodic: equal
def test_gcd_identity_matches_lcm_walk(symbols):
    # for every pair of divisors g, g_l of the period, with d = gcd(g, g_l):
    # Per(g) and Per(g_l) provably differ exactly when Per(d) provably
    # differs from one of them, the rule verify_period_structure applies
    from toeplitz_lab.periodicity import _lifts_differ

    pat = tl.PeriodicPattern(symbols, tl.Alphabet("abc"))
    divisors = [g for g in range(1, pat.period + 1) if pat.period % g == 0]
    letters = {g: tl.classify_residues(pat, g).letters for g in divisors}
    for g in divisors:
        for g_l in divisors:
            d = gcd(g, g_l)
            got = _lifts_differ(symbols, letters[g_l], d) or (d < g and _lifts_differ(symbols, letters[g], d))
            assert got == (lcm_walk_per_sets_differ(pat, g, g_l) is True), (g, g_l)


def per_window_marker_image(code, pattern):
    """A marker code's image, window by window: count the compatible marked words."""
    J, period = code.radius, pattern.period
    out = []
    for j in range(period):
        window = "".join(pattern.symbols[k % period] for k in range(j - J, j + J + 1))
        compatible = sum(1 for u in code.marked if all(b in ("?", a) for a, b in zip(u, window)))
        total = 2 ** window.count("?")
        out.append(code.mark if compatible == total else code.other if compatible == 0 else "?")
    return "".join(out)


@st.composite
def marker_cases(draw):
    radius = draw(st.integers(0, 3))
    width = 2 * radius + 1
    period = draw(st.integers(width + 1, width + 10))
    symbols = draw(st.text(alphabet="ab?", min_size=period, max_size=period))
    cyclic = symbols * 3
    marked = set(draw(st.lists(st.text(alphabet="ab", min_size=width, max_size=width), max_size=3)))
    for s in draw(st.lists(st.integers(0, period - 1), max_size=4)):
        window = cyclic[s: s + width]
        holes = window.count("?")
        if holes <= 3 and draw(st.booleans()):
            # every completion marked: the window maps to the mark
            for fill in product("ab", repeat=holes):
                letters = iter(fill)
                marked.add("".join(next(letters) if c == "?" else c for c in window))
        else:
            marked.add("".join(draw(st.sampled_from("ab")) if c == "?" else c for c in window))
    mark = draw(st.sampled_from("ab"))
    code = tl.MarkerCode(tl.BINARY, radius, frozenset(marked), mark, "b" if mark == "a" else "a")
    return code, tl.PeriodicPattern(symbols)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(marker_cases())
def test_marker_code_image_matches_per_window_count(case):
    code, pat = case
    assert tl.apply_code(code, pat).symbols == per_window_marker_image(code, pat)


def test_marker_code_image_fixed_cases():
    pat = tl.PeriodicPattern("ab?babaa")
    # both completions of the hole window "b?b" are marked; windows at 0 and 7 wrap
    code = tl.MarkerCode(tl.BINARY, 1, frozenset(["bab", "bbb", "aab"]), "a", "b")
    image = tl.apply_code(code, pat)
    assert image.symbols == per_window_marker_image(code, pat)
    assert image.at(2) == "a" and image.at(0) == "a"
    # radius 3 on period 8: the window is almost the whole period
    code = tl.MarkerCode(tl.BINARY, 3, frozenset(["aab?bab".replace("?", c) for c in "ab"]), "a", "b")
    assert tl.apply_code(code, pat).symbols == per_window_marker_image(code, pat)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed_lists())
def test_hole_tree_value_sets_match_naive_orbits(seeds):
    s = tl.FillingSchedule(tl.BINARY, [tl.parse_seed(w) for w in seeds])
    depth = len(seeds) - 1
    tree = tl.hole_tree(s, depth, len(seeds))
    period = s.period(tree.resolution_depth)
    word = naive_fill(seeds[: tree.resolution_depth], 0, period)
    for l in range(1, depth + 1):
        p = s.period(l)
        for r, node in tree.nodes(l).items():
            assert node.value_set == {word[j] for j in range(r, period, p)} - {"?"}


def test_hole_tree_value_sets_match_naive_orbits_on_gallery_words():
    for name, depth in (("ex4.3", 2), ("ex5.7", 2), ("ex3.5", 1)):
        s = tl.gallery(name)
        tree = tl.hole_tree(s, depth)
        seeds = [s.seed(l).symbols for l in range(1, tree.resolution_depth + 1)]
        period = s.period(tree.resolution_depth)
        word = naive_fill(seeds, 0, period)
        for l in range(1, depth + 1):
            for r, node in tree.nodes(l).items():
                assert node.value_set == {word[j] for j in range(r, period, s.period(l))} - {"?"}


@settings(max_examples=100, deadline=None, derandomize=True)
@given(seed_lists(), st.lists(st.integers(-300, 300), min_size=1, max_size=20))
def test_evaluate_with_warm_level_cache_matches_pattern(seeds, warm):
    s = tl.FillingSchedule(tl.BINARY, [tl.parse_seed(w) for w in seeds])
    for j in warm:
        tl.evaluate(s, j, len(seeds))
    for l in range(1, len(seeds) + 1):
        pat = s.pattern(l)
        for j in range(-2 * pat.period, 2 * pat.period):
            assert (tl.evaluate(s, j, l) or "?") == pat.at(j)


@st.composite
def single_hole_cycles(draw):
    seeds = []
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.integers(3, 6))
        letters = draw(st.text(alphabet="ab", min_size=n, max_size=n))
        i = draw(st.integers(1, n - 2))
        seeds.append(letters[:i] + "?" + letters[i + 1:])
    return seeds


@settings(max_examples=40, deadline=None, derandomize=True)
@given(single_hole_cycles(), st.integers(2, 13))
def test_exact_single_hole_set_matches_long_window_scan(seeds, length):
    # an infinite schedule cycling through one-hole seeds
    s = tl.FillingSchedule(tl.BINARY, lambda l: tl.parse_seed(seeds[(l - 1) % len(seeds)]))
    l = 1
    while s.period(l) < length:
        l += 1
    exact = tl.factor_set_exact_single_hole(s, l, length)
    scan = tl.factor_set_window(s, length, (0, s.period(l + 3)), max_level=l + 6)
    assert exact.words == scan.words


# -- window walk: resolve_window, fiber contents, pair censuses, compose_fill --


def per_position_window(schedule, lo, hi, max_level):
    return "".join(tl.evaluate(schedule, j, max_level) or "?" for j in range(lo, hi))


@st.composite
def walk_schedules(draw):
    """Literal seeds, ragged ones included."""
    seeds = []
    for _ in range(draw(st.integers(1, 4))):
        word = draw(st.text(alphabet="ab?", min_size=1, max_size=6).filter(lambda w: w.strip("?")))
        seeds.append(tl.SeedWord(word))
    return tl.FillingSchedule(tl.BINARY, seeds)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(walk_schedules(), st.sampled_from((-10 ** 12, 0, 10 ** 12)), st.integers(-60, 60),
       st.integers(0, 300), st.integers(0, 6))
def test_resolve_window_matches_per_position_evaluate(s, base, shift, width, extra):
    lo = base + shift
    max_level = min(extra, s.max_levels + 2)  # 0 .. n + 2
    assert tl.resolve_window(s, lo, lo + width, max_level) == per_position_window(s, lo, lo + width, max_level)


def test_resolve_window_matches_per_position_evaluate_past_pattern_cap():
    rng = random.Random(7)
    for name, depth in (("ex4.4", 5), ("ex4.3", 30), ("ex5.7", 12), ("ex3.5", 6), ("williams", 12)):
        s = tl.gallery(name)
        assert s.period(depth) > tl.words.PATTERN_CAP
        for _ in range(4):
            lo = rng.randint(-10 ** 12, 10 ** 12)
            width = rng.randint(0, 300)
            assert tl.resolve_window(s, lo, lo + width, depth) == per_position_window(s, lo, lo + width, depth)


def per_position_fiber_contents(schedule, omega, l, depth, block_range):
    p = schedule.period(l)
    base, step = omega.residues[-1], schedule.period(omega.depth)
    contents = set()
    for m in range(block_range):
        word = per_position_window(schedule, base + m * step, base + m * step + p, depth)
        if "?" not in word:
            contents.add(word)
    return tuple(sorted(contents))


def random_branch(schedule, depth, rng):
    # a level-depth hole is a hole at every level above it
    r = rng.choice(schedule.holes(depth))
    return tuple(r % schedule.period(l) for l in range(1, depth + 1))


def test_fiber_block_contents_match_per_position_windows():
    rng = random.Random(11)
    for name, levels in (("ex5.7", (2, 3, 4)), ("ex3.5", (1, 2)), ("ex4.3", (2, 3, 5))):
        s = tl.gallery(name)
        for l in levels:
            for _ in range(3):
                omega = tl.branch_point(s, random_branch(s, l, rng))
                depth = l + rng.randint(0, 3)
                assert tl.fiber_block_contents(s, omega, l, depth, 24) == \
                    per_position_fiber_contents(s, omega, l, depth, 24)


def per_position_census(schedule, n1, n2, lo, hi, level):
    diffs, unresolved = [], 0
    for j in range(lo, hi + 1):
        c1, c2 = tl.evaluate(schedule, j + n1, level), tl.evaluate(schedule, j + n2, level)
        if c1 is None or c2 is None:
            unresolved += 1
        elif c1 != c2:
            diffs.append(j)
    return len(diffs), tuple(diffs), unresolved


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(("ex5.7", "ex4.3", "ex3.5", "ex4.4")), st.integers(-10 ** 9, 10 ** 9),
       st.integers(-10 ** 9, 10 ** 9), st.integers(-500, 500), st.integers(0, 200), st.integers(1, 8))
def test_shift_pair_censuses_match_per_position_loop(name, n1, n2, lo, width, level):
    s = tl.gallery(name)
    rep = tl.pair_report(s, tl.Shift(n1), tl.Shift(n2), 2, windows=[(lo, lo + width)], eval_level=level)
    (census,) = rep.censuses
    assert census.window == (lo, lo + width)
    assert (census.resolved_differences, census.difference_positions, census.unresolved) == \
        per_position_census(s, n1, n2, lo, lo + width, level)


def shift_limit_pairs():
    s57 = tl.gallery("ex5.7")
    yield s57, tl.branch_rule(s57, random_branch(s57, 4, random.Random(3))), tl.Shift(5), 6
    s35 = tl.gallery("ex3.5")
    rng = random.Random(4)
    for _ in range(3):
        branch = random_branch(s35, 3, rng)
        # at level 3 some rule values stay holes, so columns meet unresolved tails
        yield s35, tl.branch_rule(s35, branch), tl.branch_rule(s35, branch, block_offset=1), 3


def test_shift_limit_pair_censuses_match_eval_element():
    unresolved_seen = 0
    for s, e1, e2, level in shift_limit_pairs():
        rep = tl.pair_report(s, e1, e2, 3, windows=[(-40, 40)], eval_level=level)
        diffs, unresolved = [], 0
        for j in range(-40, 41):
            c1, c2 = tl.eval_element(s, e1, j, level), tl.eval_element(s, e2, j, level)
            if c1 is None or c2 is None:
                unresolved += 1
            elif c1 != c2:
                diffs.append(j)
        (census,) = rep.censuses
        assert (census.difference_positions, census.unresolved) == (tuple(diffs), unresolved)
        unresolved_seen += unresolved
    assert unresolved_seen


def brute_settled(values):
    """The settling rule by definition: some suffix of at least three values is one resolved value."""
    for i in range(len(values) - 2):
        suffix = values[i:]
        if suffix[0] is not None and all(v == suffix[0] for v in suffix):
            return suffix[0]
    return None


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.one_of(st.lists(st.sampled_from((None, "a", "b")), max_size=10),
                 st.lists(st.integers(0, 3), max_size=10)))
@example([None, "a", "a", "a"])
@example(["a", "a", "a", None])
@example([0, 0, 0])
def test_settled_value_matches_its_definition(values):
    from toeplitz_lab.elements import settled_value

    assert settled_value(values) == brute_settled(values)
    assert settled_value(tuple(values)) == brute_settled(values)


def per_hole_compose(outer, inner, anchor):
    holes = outer.holes
    h, p, q = len(holes), outer.period, len(inner)
    copies = q // gcd(h, q)
    out = list(outer.symbols * copies)
    for i in range(copies * h):
        out[(i // h) * p + holes[i % h]] = inner.symbols[(i - anchor) % q]
    return "".join(out)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.text(alphabet="ab?", min_size=1, max_size=12).filter(lambda w: "?" in w),
       st.text(alphabet="ab?", min_size=1, max_size=7).filter(lambda w: w.strip("?")))
def test_compose_fill_matches_per_hole_loop(outer, inner):
    got = tl.compose_fill(tl.PeriodicPattern(outer), tl.SeedWord(inner))
    assert got.symbols == per_hole_compose(tl.PeriodicPattern(outer), tl.SeedWord(inner), 0)


def test_window_reads_build_no_pattern(monkeypatch):
    s = tl.gallery("ex5.7")
    omega = tl.branch_point(s, random_branch(s, 3, random.Random(5)))
    expected = (
        tl.resolve_window(s, -70, 300, 4),
        tl.fiber_block_contents(s, omega, 3, 5, 16),
        tl.pair_report(s, tl.Shift(38), tl.Shift(230), 3, windows=[(-64, 64)], eval_level=6),
    )

    def refuse(self, l):
        raise AssertionError("pattern(%d) built for a window" % l)

    monkeypatch.setattr(tl.FillingSchedule, "pattern", refuse)
    s = tl.gallery("ex5.7")
    assert (
        tl.resolve_window(s, -70, 300, 4),
        tl.fiber_block_contents(s, omega, 3, 5, 16),
        tl.pair_report(s, tl.Shift(38), tl.Shift(230), 3, windows=[(-64, 64)], eval_level=6),
    ) == expected


# -- one image per depth, distinct windows once, words from runs -------------


def per_level_image_classes(code, schedule, levels, depth):
    """Each level's residues from its own image of the depth pattern, classified separately."""
    out = []
    for l in levels:
        image = tl.apply_code(code, schedule.pattern(depth))
        classes = tl.classify_residues(image, schedule.period(l))
        out.append((classes.modulus, classes.nonperiodic, classes.undetermined))
    return out


def test_factor_residues_over_levels_match_per_level_images():
    rng = random.Random(17)
    marker = tl.MarkerCode(tl.BINARY, 1, frozenset(["aab", "bab", "abb"]), "a", "b")
    for name, depth in (("ex5.7", 6), ("ex4.3", 5), ("ex3.5", 4), ("ex4.4-mini", 3)):
        s = tl.gallery(name)
        codes = [tl.SlidingBlockCode.from_fn(tl.BINARY, rng.choice((0, 1, 2)), lambda w: rng.choice("ab"))
                 for _ in range(4)]
        for code in codes + [marker]:
            levels = range(1, depth + 1)
            got = [(fr.modulus, fr.nonperiodic, fr.undetermined) for fr in tl.factor_residues(code, s, levels, depth)]
            assert got == per_level_image_classes(code, tl.gallery(name), levels, depth)


def test_factor_residues_past_the_cap_match_per_level_sparse_calls(monkeypatch):
    from toeplitz_lab import words
    from toeplitz_lab.factors import _sparse_factor_residues

    rng = random.Random(23)
    codes = [tl.SlidingBlockCode.from_fn(tl.BINARY, rng.choice((1, 2)), lambda w: rng.choice("ab"))
             for _ in range(3)]
    codes.append(tl.MarkerCode(tl.BINARY, 1, frozenset(["aab", "bab", "abb"]), "a", "b"))
    # period 1024 at depth 5 is past this cap, while every level's hole list is not
    monkeypatch.setattr(words, "PATTERN_CAP", 512)
    for name in ("ex5.7", "ex4.3"):
        with pytest.raises(PatternTooLarge):
            tl.gallery(name).pattern(5)
        for code in codes:
            got = tl.factor_residues(code, tl.gallery(name), range(1, 5), 5)
            assert got == [_sparse_factor_residues(code, tl.gallery(name), l, 5) for l in range(1, 5)]
            assert got[2] == tl.factor_aperiodic_residues(code, tl.gallery(name), 3, 5)


@st.composite
def repetitive_patterns(draw):
    """A table code and a pattern made of one short block repeated, with a few cells changed."""
    radius = draw(st.integers(0, 2))
    width = 2 * radius + 1
    windows = ["".join(w) for w in product("ab", repeat=width)]
    outputs = draw(st.lists(st.sampled_from("ab"), min_size=len(windows), max_size=len(windows)))
    block = draw(st.text(alphabet="ab?", min_size=1, max_size=6))
    cells = list(block * draw(st.integers(2, 12)))
    for i in draw(st.lists(st.integers(0, len(cells) - 1), max_size=3)):
        cells[i] = draw(st.sampled_from("ab?"))
    return tl.SlidingBlockCode(tl.BINARY, radius, dict(zip(windows, outputs))), tl.PeriodicPattern("".join(cells))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(repetitive_patterns())
def test_table_code_image_matches_per_window_code_output(case):
    from toeplitz_lab.factors import code_output

    code, pat = case
    J = code.radius
    expected = "".join(code_output(code, pat.window(j - J, j + J + 1)) for j in range(pat.period))
    assert tl.apply_code(code, pat).symbols == expected


def list_assembly_words(schedule, l, length):
    """The exact single-hole subword set, each word assembled by list assignment.

    The fill words of ``m`` holes come from the derived tail by the same
    recursion: its letters for one hole, its own exact set for more.
    """
    p, (hole,) = schedule.period(l), schedule.holes(l)
    block = tl.resolve_window(schedule, hole + 1, hole + p, l + 3)
    tail = tl.derived_tail(schedule, l)

    def fills(m):
        if m <= 1:
            letters = {c for k in range(1, tail.available_levels(8) + 1) for c in tail.seed(k).symbols}
            return {""} if m == 0 else letters - {"?"}
        k = next(k for k in range(1, 13) if tail.period(k) >= m)
        return list_assembly_words(tail, k, m)

    carrier = (block + "?") * (length // p + 2)
    words = set()
    for j in range(p):
        piece = carrier[j: j + length]
        first = p - 1 - j
        for u in fills(len(range(first, length, p))):
            chars = list(piece)
            chars[first::p] = u
            words.add("".join(chars))
    return words


def test_single_hole_words_match_list_assembly():
    m = tl.gallery("ex4.4-mini")
    p = m.period(1)
    # up to 8 holes per word at level 1, and one or two at level 2
    for length in (1, 3, p - 1, p, p + 1, 2 * p + 3, 5 * p, 8 * p - 1, 8 * p):
        assert tl.factor_set_exact_single_hole(m, 1, length).words == list_assembly_words(m, 1, length)
    for length in (p, m.period(2), m.period(2) + 5):
        assert tl.factor_set_exact_single_hole(m, 2, length).words == list_assembly_words(m, 2, length)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(single_hole_cycles(), st.integers(1, 8), st.integers(0, 5))
def test_single_hole_words_of_cycles_match_list_assembly(seeds, periods, extra):
    s = tl.FillingSchedule(tl.BINARY, lambda l: tl.parse_seed(seeds[(l - 1) % len(seeds)]))
    length = periods * s.period(1) - min(extra, s.period(1) - 1)
    assert tl.factor_set_exact_single_hole(s, 1, length).words == list_assembly_words(s, 1, length)


@st.composite
def classed_patterns(draw):
    """A pattern whose classes mod g are all holes, one letter, or mixed, with a modulus p."""
    g = draw(st.integers(1, 6))
    copies = draw(st.integers(1, 5))
    columns = []
    for _ in range(g):
        kind = draw(st.sampled_from(("holes", "constant", "letter-and-holes", "mixed")))
        letter = draw(st.sampled_from("abc"))
        if kind == "holes":
            column = "?" * copies
        elif kind == "constant":
            column = letter * copies
        else:
            alphabet = "?" + letter if kind == "letter-and-holes" else "abc?"
            column = draw(st.text(alphabet=alphabet, min_size=copies, max_size=copies))
        columns.append(column)
    symbols = "".join(columns[r][k] for k in range(copies) for r in range(g))
    return tl.PeriodicPattern(symbols, tl.Alphabet("abc")), g * draw(st.integers(1, 4))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(classed_patterns())
@example((tl.PeriodicPattern("????"), 2))  # every class all holes
@example((tl.PeriodicPattern("a?a?"), 2))  # a constant and an all-hole class
@example((tl.PeriodicPattern("a??a"), 2))  # letter-and-hole classes
@example((tl.PeriodicPattern("ab"), 3))  # one mixed class
def test_classification_of_hole_and_constant_classes_matches_brute_force(case):
    pat, p = case
    assert classes_by_residue(tl.classify_residues(pat, p)) == brute_classify(pat, p)


@st.composite
def row_route_patterns(draw):
    """m rows of g > m columns, each column all holes, one letter, one letter
    changed in a late row, one letter and holes, or mixed; p = g * k, so
    gcd(p, period) > period / gcd(p, period), and p exceeds the period when k > m."""
    m = draw(st.integers(1, 5))
    g = draw(st.integers(m + 1, 40))
    columns = []
    for _ in range(g):
        kind = draw(st.sampled_from(("holes", "constant", "late", "letter-and-holes", "mixed")))
        letter = draw(st.sampled_from("abc"))
        if kind == "holes":
            column = "?" * m
        elif kind in ("constant", "late"):
            column = letter * m
            if kind == "late" and m > 1:
                row = draw(st.integers(m // 2, m - 1))
                column = column[:row] + draw(st.sampled_from("abc?".replace(letter, ""))) + column[row + 1:]
        else:
            alphabet = "?" + letter if kind == "letter-and-holes" else "abc?"
            column = draw(st.text(alphabet=alphabet, min_size=m, max_size=m))
        columns.append(column)
    symbols = "".join(columns[r][k] for k in range(m) for r in range(g))
    return tl.PeriodicPattern(symbols, tl.Alphabet("abc")), g * draw(st.integers(1, 8))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(row_route_patterns())
@example((tl.PeriodicPattern("ab?c" "ab?a"), 4))  # the last column differs only in the last row
@example((tl.PeriodicPattern("a?bc" "aabc" "aabc"), 4))  # an undetermined column carrying one letter
@example((tl.PeriodicPattern("?bc?" "?bca"), 12))  # an all-hole column, p beyond the period
@example((tl.PeriodicPattern("abc?a"), 10))  # one row, p beyond the period
def test_row_route_classification_matches_brute_force(case):
    pat, p = case
    g = gcd(p, pat.period)
    assert g > pat.period // g
    assert classes_by_residue(tl.classify_residues(pat, p)) == brute_classify(pat, p)


# -- hole-tree censuses and isolation verdicts from the simulated word ----------


def naive_hole_tree(seeds, s, depth, resolution):
    """Per level, the holes of the simulated level word with the letters their classes show deeper."""
    word = naive_fill(seeds[:resolution], 0, s.period(resolution))
    levels = []
    for l in range(1, depth + 1):
        p = s.period(l)
        level_word = naive_fill(seeds[:l], 0, p)
        levels.append({r: {word[j] for j in range(r, len(word), p)} - {"?"}
                       for r in range(p) if level_word[r] == "?"})
    return levels


def naive_survivors(s, levels):
    """Per level, the holes with a hole of the deepest level in their class."""
    deepest = levels[-1]
    return [{r for r in level if any(d % s.period(l) == r for d in deepest)}
            for l, level in enumerate(levels, 1)]


def naive_isolation(s, levels, branch, a, b):
    """``isolated_value_pair`` by its definition, on the simulated hole tree."""
    depth = len(levels)
    settled = max(1, depth // 2)
    survivors = naive_survivors(s, levels)

    def carries(horizon):
        return all({a, b} <= levels[d - 1][branch[d - 1]] for d in range(1, horizon + 1))

    def rival(l1, horizon):
        p = s.period(l1)
        found = [(d, r) for d in range(l1, horizon + 1) for r in sorted(survivors[d - 1])
                 if r % p == branch[l1 - 1] and r != branch[d - 1] and {a, b} <= levels[d - 1][r]]
        return found[0] if found else None

    for horizon in (depth, settled):
        if carries(horizon):
            for l1 in range(1, horizon):
                if rival(l1, horizon) is None:
                    return (tl.IsolationKind.CERTIFIED, l1, horizon)
    if depth == 1 or any(rival(l1, depth) is None for l1 in range(1, depth)):
        return (tl.IsolationKind.UNKNOWN, None, settled)
    return (tl.IsolationKind.REFUTED, None, settled)


@st.composite
def tree_schedules(draw):
    """Binary seeds with many holes, a tree depth below their count, and a random source for the branch."""
    n = draw(st.integers(3, 5))
    seeds = []
    for _ in range(n):
        length = draw(st.integers(3, 5))
        mid = "".join(draw(st.lists(st.sampled_from("ab???"), min_size=length - 2, max_size=length - 2)))
        seeds.append(draw(st.sampled_from("ab")) + mid + draw(st.sampled_from("ab")))
    return seeds, draw(st.integers(2, n - 1)), draw(st.randoms(use_true_random=False))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(tree_schedules())
def test_census_and_isolation_match_naive_fill(case):
    seeds, depth, rng = case
    s = tl.FillingSchedule(tl.BINARY, [tl.parse_seed(w) for w in seeds])
    tree = tl.hole_tree(s, depth)
    levels = naive_hole_tree(seeds, s, depth, tree.resolution_depth)
    assert [set(tree.nodes(l)) for l in range(1, depth + 1)] == [set(level) for level in levels]
    assert tl.pruned_branch_census(tree) == [len(level) for level in naive_survivors(s, levels)]
    # a branch: a chain of holes, each in the class of the one above
    branch = []
    for l, level in enumerate(levels, 1):
        below = sorted(r for r in level if l == 1 or r % s.period(l - 1) == branch[-1])
        if not below:
            return
        branch.append(rng.choice(below))
    got = tl.isolated_value_pair(tree, branch, "a", "b")
    assert (got.kind, got.level, got.settled_depth) == naive_isolation(s, levels, branch, "a", "b")
    if got.kind == tl.IsolationKind.REFUTED:
        # the reported rival is one at the last cylinder level with room below
        d, r = got.rival
        assert r in naive_survivors(s, levels)[d - 1] and r != branch[d - 1]
        assert r % s.period(depth - 1) == branch[depth - 2] and levels[d - 1][r] == {"a", "b"}


def test_census_and_isolation_match_naive_fill_on_gallery_words():
    # ex4.3 isolates its branches at depth 4; ex5.7 refutes isolation at depth 3
    kinds = set()
    for name, depth in (("ex4.3", 4), ("ex5.7", 3)):
        s = tl.gallery(name)
        tree = tl.hole_tree(s, depth)
        seeds = [s.seed(l).symbols for l in range(1, tree.resolution_depth + 1)]
        levels = naive_hole_tree(seeds, s, depth, tree.resolution_depth)
        assert tl.pruned_branch_census(tree) == [len(level) for level in naive_survivors(s, levels)]
        for branch in tree.branches():
            got = tl.isolated_value_pair(tree, branch, "a", "b")
            assert (got.kind, got.level, got.settled_depth) == naive_isolation(s, levels, branch, "a", "b")
            kinds.add(got.kind)
    assert kinds == {tl.IsolationKind.CERTIFIED, tl.IsolationKind.REFUTED}


# -- essentiality once per gcd class, reports without deep copies ------------


def per_candidate_unresolved(pat, scale):
    """Each scale entry's unresolved candidates, every candidate period judged on its own."""
    from toeplitz_lab.periodicity import prime_exponents

    primes = {q for s in scale for q in prime_exponents(s)}
    out = []
    for p_l in scale:
        large = tl.classify_residues(pat, p_l)
        if len(primes) == 1:
            (q,) = primes
            candidates = [1] + [q ** e for e in range(1, p_l.bit_length()) if q ** e < p_l]
        else:
            candidates = range(1, p_l)
        out.append(tuple(p for p in candidates if per_sets_differ(tl.classify_residues(pat, p), large) is not True))
    return out


@st.composite
def period_structure_cases(draw):
    """A pattern over abc? of one short block repeated, a few cells changed, and a divisible scale up to 600."""
    block = draw(st.text(alphabet="abc?", min_size=1, max_size=8))
    cells = list(block * draw(st.integers(1, 90)))
    for i in draw(st.lists(st.integers(0, len(cells) - 1), max_size=3)):
        cells[i] = draw(st.sampled_from("abc?"))
    if draw(st.booleans()):  # powers of one prime
        q = draw(st.sampled_from((2, 3, 5)))
        top = {2: 9, 3: 5, 5: 3}[q]
        scale = [q ** e for e in sorted(draw(st.sets(st.integers(1, top), min_size=1, max_size=4)))]
    else:  # mixed: the first entry often a multiple of the block, so some classes are periodic
        scale = [draw(st.sampled_from((len(block), 2 * len(block))) | st.integers(1, 12))]
        for factor in draw(st.lists(st.integers(2, 6), max_size=3)):
            if scale[-1] * factor > 600:
                break
            scale.append(scale[-1] * factor)
    return "".join(cells), scale


@settings(max_examples=150, deadline=None, derandomize=True)
@given(period_structure_cases())
@example(("a" * 520 + "b", [6, 30, 210]))  # period 521 is prime, so gcd(p, period) = 1 for every candidate p
@example(("ab?" * 100, [4, 12, 36]))  # 4 does not divide the period 300
@example(("abcab?" * 60, [2, 8, 32, 128, 512]))  # prime-power scale, 512 does not divide 360
@example(("abac" * 70 + "c", [5, 20, 100, 300]))  # mixed scale, period 281 is prime
@example(("a?aa" "abaa", [2, 4]))  # Per(2) and Per(4) differ only through the b of the undetermined class 1 mod 4
@example(("abab?b", [2, 4]))  # 4 does not divide the period 6, and gcd(2, 6) = gcd(4, 6)
def test_period_structure_matches_per_candidate_loop(case):
    symbols, scale = case
    pat = tl.PeriodicPattern(symbols, tl.Alphabet("abc"))
    cert = tl.verify_period_structure(pat, scale, 1)
    expected = per_candidate_unresolved(pat, scale)
    assert [e.unresolved_periods for e in cert.essentiality] == expected
    assert [e.certified for e in cert.essentiality] == [not u for u in expected]


def asdict_jsonable(obj):
    """The report conversion through ``dataclasses.asdict``, which copies each dataclass deeply first."""
    from enum import Enum
    from fractions import Fraction

    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {k: asdict_jsonable(v) for k, v in dataclasses.asdict(obj).items()}
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, Fraction):
        return {"numerator": obj.numerator, "denominator": obj.denominator}
    if isinstance(obj, dict):
        return {str(k): asdict_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        return [asdict_jsonable(v) for v in obj]
    if isinstance(obj, float) and obj == float("inf"):
        return "inf"
    return obj


def test_cli_reports_match_asdict_conversion(monkeypatch):
    import io
    from contextlib import redirect_stdout

    from toeplitz_lab import cli

    converted, kinds = [], set()
    original = cli.report

    def recorder(command, params, results):
        dataclass_kinds(results)
        # asdict_jsonable first: if the tested conversion mutated its input, the comparison would see it
        converted.append((asdict_jsonable(params), asdict_jsonable(results), cli.to_jsonable(params),
                          cli.to_jsonable(results)))
        return original(command, params, results)

    def dataclass_kinds(obj):
        if dataclasses.is_dataclass(obj):
            kinds.add(type(obj).__name__)
            for f in dataclasses.fields(obj):
                dataclass_kinds(getattr(obj, f.name))
        elif isinstance(obj, dict):
            for v in obj.values():
                dataclass_kinds(v)
        elif isinstance(obj, (list, tuple)):
            for v in obj:
                dataclass_kinds(v)

    monkeypatch.setattr(cli, "report", recorder)
    for argv in (
        ["analyze", "ex3.5", "--depth", "3"],
        ["analyze", "ex4.3", "--depth", "4"],
        ["boundary", "ex4.3", "--depth", "4", "--resolution", "6"],
        ["factor", "ex5.7", "--code", "ex5.7", "--depth", "3"],
        ["pair", "ex5.7", "--shifts", "38", "230", "--depth", "3"],
        ["complexity", "ex4.4-mini", "--lengths", "4,8", "--mode", "decomposition"],
        ["complexity", "ex5.7", "--lengths", "4,8"],
        ["build", "ex4.3", "--level", "3"],
        ["eval", "ex4.3", "5"],
        ["gallery", "williams", "--param", "ratios=4,6"],
        ["gallery"],
        ["verify", "ex3.5-oxtoby-certified", "ex5.7-factor-aper", "sec2.2-compose"],
    ):
        with redirect_stdout(io.StringIO()):
            assert cli.main(argv + ["--format", "json"]) == 0, argv
    # every result dataclass the commands above emit
    assert kinds == {"PeriodStructureCertificate", "EssentialityReport", "Verdict", "PairReport",
                     "WindowCensus", "ProfileEntry"}
    for old_params, old_results, params, results in converted:
        assert (params, results) == (old_params, old_results)


@dataclasses.dataclass(frozen=True)
class Box:
    value: object
    items: tuple = ()


def jsonable_values():
    from fractions import Fraction

    from toeplitz_lab.periodicity import EssentialityReport, OxtobyKind

    scalars = (st.none() | st.booleans() | st.integers(-10 ** 20, 10 ** 20) | st.text(max_size=4)
               | st.fractions() | st.sampled_from(list(OxtobyKind)) | st.floats(allow_nan=False)
               | st.just(float("inf")) | st.just(Fraction(3, 1)))
    reports = st.builds(EssentialityReport, st.integers(1, 50), st.booleans(),
                        st.lists(st.integers(1, 50)).map(tuple))
    return st.recursive(
        scalars | reports,
        lambda inner: (
            st.lists(inner, max_size=4)
            | st.lists(inner, max_size=4).map(tuple)
            | st.sets(st.integers(-50, 50), max_size=6)
            | st.frozensets(st.text(max_size=3), max_size=4)
            | st.dictionaries(st.integers(-5, 5), inner, max_size=4)
            | st.dictionaries(st.text(max_size=3), inner, max_size=4)
            | st.builds(Box, inner, st.lists(inner, max_size=3).map(tuple))
        ),
        max_leaves=20,
    )


def assert_same_conversion(value, got, want):
    """``got == want`` for the conversions of ``value``, except that a set's elements may come in any order.

    A set iterates in an order that depends on how it was built, and the
    ``asdict`` copy is built anew: ``{37, 5}`` can list as [37, 5] while
    its copy lists as [5, 37].
    """
    if dataclasses.is_dataclass(value):
        assert list(got) == list(want) == [f.name for f in dataclasses.fields(value)]
        for f in dataclasses.fields(value):
            assert_same_conversion(getattr(value, f.name), got[f.name], want[f.name])
    elif isinstance(value, (set, frozenset)):
        assert isinstance(got, list) and sorted(got, key=repr) == sorted(want, key=repr)
    elif isinstance(value, dict):
        assert list(got) == list(want) == [str(k) for k in value]
        for k, v in value.items():
            assert_same_conversion(v, got[str(k)], want[str(k)])
    elif isinstance(value, (list, tuple)):
        assert isinstance(got, list) and len(got) == len(want) == len(value)
        for v, g, w in zip(value, got, want):
            assert_same_conversion(v, g, w)
    else:
        assert got == want


@settings(max_examples=200, deadline=None, derandomize=True)
@given(jsonable_values())
@example(Box({37, 5}))
def test_to_jsonable_matches_asdict_conversion(value):
    from toeplitz_lab.cli import to_jsonable

    assert_same_conversion(value, to_jsonable(value), asdict_jsonable(value))
