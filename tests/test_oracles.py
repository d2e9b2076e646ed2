"""Independent brute-force oracles for the core operations.

These re-derive expected values by direct simulation, sharing no code
with the implementations they check: the filler below literally walks
positions in order and drops seed letters into holes one by one.
"""

import dataclasses
import random
import time
from functools import cache
from itertools import product
from math import gcd, lcm

import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

import toeplitz_lab as tl
from toeplitz_lab import complexity, factors
from toeplitz_lab.errors import NotOxtoby, PatternTooLarge, ToeplitzError
from toeplitz_lab.gallery import GALLERY_NAMES
from toeplitz_lab.periodicity import schedule_classes
from toeplitz_lab.words import _HASH_BASE, window_hashes


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
    return brute_output(code, pattern.window(j - J, j + J + 1))


def brute_output(code, window):
    holes = [i for i, c in enumerate(window) if c == "?"]
    outs = set()
    for fill in product(code.alphabet.letters, repeat=len(holes)):
        chars = list(window)
        for i, c in zip(holes, fill):
            chars[i] = c
        outs.add(code("".join(chars)))
    return outs.pop() if len(outs) == 1 else "?"


def test_apply_code_matches_brute_completion():
    # period 1024 at depth 5 is 16 chunks of the image, most of them repeats
    rng = random.Random(99)
    s = tl.gallery("ex5.7")
    for depth in (3, 5):
        pat = s.pattern(depth)
        for _ in range(6):
            radius = rng.choice((0, 1, 2))
            code = tl.SlidingBlockCode.from_fn(tl.BINARY, radius, lambda w: rng.choice("ab"))
            image = tl.apply_code(code, pat)
            for j in range(pat.period):
                assert image.at(j) == brute_apply(code, pat, j)


ABC = tl.Alphabet("abc")


@pytest.mark.parametrize("alphabet, listed, window, expected", [
    # |A|^holes = 4 completions, as many as the listed windows: all are listed, under "b"
    (tl.BINARY, ["aaa", "aab", "baa", "bab"], "?a?", "b"),
    # one completion fewer listed: the unlisted one gives the default
    (tl.BINARY, ["aaa", "aab", "baa"], "?a?", "?"),
    # 8 completions past 4 listed windows, or no listed window compatible with the runs
    (tl.BINARY, ["aaa", "aab", "baa", "bab"], "???", "?"),
    (tl.BINARY, ["aaa", "aab", "baa", "bab"], "?b?", "a"),
    # 9 completions of two holes over three letters, against 9 and 8 listed windows
    (ABC, ["a" + x + y for x in "abc" for y in "abc"], "a??", "b"),
    (ABC, ["a" + x + y for x in "abc" for y in "abc"][1:], "a??", "?"),
    # a wide window against a table of two: the run filter costs less than the completions
    (tl.BINARY, ["a" * 129, "ab" * 64 + "a"], "a" * 64 + "?" + "a" * 64, "?"),
    (tl.BINARY, ["a" * 129, "ab" * 64 + "a"], "a" * 63 + "??" + "a" * 64, "?"),
    (tl.BINARY, ["a" * 129, "ab" * 64 + "a"], "b" * 64 + "?" + "a" * 64, "a"),
    # the two windows the filter leaves are every completion, both under "b"
    (tl.BINARY, ["a" * 129, "a" * 64 + "b" + "a" * 64], "a" * 64 + "?" + "a" * 64, "b"),
])
def test_code_output_on_each_side_of_the_completion_count(alphabet, listed, window, expected):
    from toeplitz_lab.factors import code_output

    code = tl.SlidingBlockCode(alphabet, len(window) // 2, dict.fromkeys(listed, "b"), default="a")
    assert code_output(code, window) == brute_output(code, window) == expected


@st.composite
def short_period_cases(draw):
    """A pattern of period at most 6 with a full table of radius <= 3 or a table with a default of radius <= 4."""
    symbols = draw(st.text(alphabet="ab?", min_size=1, max_size=6))
    if draw(st.booleans()):
        width = 2 * draw(st.integers(0, 3)) + 1
        windows = ["".join(w) for w in product("ab", repeat=width)]
        outputs = draw(st.lists(st.sampled_from("ab"), min_size=len(windows), max_size=len(windows)))
        return tl.SlidingBlockCode(tl.BINARY, width // 2, dict(zip(windows, outputs))), tl.PeriodicPattern(symbols)
    width = 2 * draw(st.integers(0, 4)) + 1
    cyclic = symbols * (2 * width)
    table = {}
    for start in draw(st.lists(st.integers(0, len(symbols) - 1), max_size=4)):
        # list windows the extension shows, with all or one of their completions, under one letter
        window = cyclic[start: start + width]
        fills = list(product("ab", repeat=window.count("?")))
        if len(fills) > 8 or draw(st.booleans()):
            fills = fills[:1]
        out = draw(st.sampled_from("ab"))
        for fill in fills:
            letters = iter(fill)
            table["".join(next(letters) if c == "?" else c for c in window)] = out
    code = tl.SlidingBlockCode(tl.BINARY, width // 2, table, default=draw(st.sampled_from("ab")))
    return code, tl.PeriodicPattern(symbols)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(short_period_cases())
@example((tl.SlidingBlockCode.from_fn(tl.BINARY, 2, lambda w: "a"), tl.PeriodicPattern("a??b")))
@example((tl.SlidingBlockCode(ABC, 1, {"abc": "c", "aac": "b", "bcc": "c", "cab": "a"}, default="a"),
          tl.PeriodicPattern("ab?c??")))
# a full table whose hole windows at 1 and 4 list every completion, under a letter other than the default
@example((tl.SlidingBlockCode.from_fn(ABC, 1, lambda w: "a" if w[1] == "a" else "b" if w[0] == "b" else "c"),
          tl.PeriodicPattern("?a?bc")))
def test_apply_code_on_periods_within_the_window_matches_brute_completion(case):
    # a window wider than the period meets copies of the same hole class,
    # which are distinct positions of the word and are completed independently
    code, pat = case
    image = tl.apply_code(code, pat)
    assert image.symbols == "".join(brute_apply(code, pat, j) for j in range(pat.period))


def test_sparse_factor_route_agrees_with_pattern_route():
    # factor_residues reads only the windows near the holes; the oracle codes the whole depth pattern
    rng = random.Random(5)
    marker = tl.SlidingBlockCode(tl.BINARY, 1, dict.fromkeys(["aab", "bab", "abb"], "a"), default="b")
    for name in ("ex4.4", "ex4.4-mini", "ex5.7", "ex3.5", "ex4.3"):
        s = tl.gallery(name)
        codes = [tl.SlidingBlockCode.from_fn(tl.BINARY, rng.choice((1, 2)), lambda w: rng.choice("ab"))
                 for _ in range(3)]
        for code in codes + [marker, tl.gallery_code("ex5.7")]:
            for l in (1, 2):
                fr = tl.factor_aperiodic_residues(code, s, l, 3)
                assert [(fr.modulus, fr.nonperiodic, fr.undetermined)] == per_level_image_classes(
                    code, tl.gallery(name), [l], 3)
    # every radius-8 window of ex5.7 meets 9 level-1 hole slots
    s = tl.gallery("ex5.7")
    code = tl.SlidingBlockCode.from_fn(tl.BINARY, 8, lambda w: "a" if w[8] == w[7] else "b")
    full = tl.factor_aperiodic_residues(code, s, 1, 3)
    assert [(full.modulus, full.nonperiodic, full.undetermined)] == per_level_image_classes(code, s, [1], 3)
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
    pat = tl.PeriodicPattern(symbols)
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
    pat = tl.PeriodicPattern(symbols)
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
@example("abac" * 32 + "abacac?c" + "abac" * 30)  # g = 128: a changed letter and a hole in the second row
def test_gcd_identity_matches_lcm_walk(symbols):
    # for every pair of divisors g, g_l of the period, with d = gcd(g, g_l):
    # Per(g) and Per(g_l) provably differ exactly when Per(d) provably
    # differs from one of them, the rule verify_period_structure applies
    from toeplitz_lab.periodicity import _lifts_differ

    pat = tl.PeriodicPattern(symbols)
    divisors = [g for g in range(1, pat.period + 1) if pat.period % g == 0]
    classes = {g: tl.classify_residues(pat, g) for g in divisors}
    for g in divisors:
        for g_l in divisors:
            d = gcd(g, g_l)
            got = _lifts_differ(classes[g_l], d) or (d < g and _lifts_differ(classes[g], d))
            assert got == (lcm_walk_per_sets_differ(pat, g, g_l) is True), (g, g_l)


def per_window_marker_image(code, pattern):
    """The image of a table with a default, window by window: the compatible listed
    words give their letters, and the default joins them unless they count as many
    as the window's completions."""
    J, period = code.radius, pattern.period
    out = []
    for j in range(period):
        window = "".join(pattern.symbols[k % period] for k in range(j - J, j + J + 1))
        compatible = [v for u, v in code.table.items() if all(b in ("?", a) for a, b in zip(u, window))]
        outputs = set(compatible)
        if len(compatible) < len(code.alphabet) ** window.count("?"):
            outputs.add(code.default)
        out.append(outputs.pop() if len(outputs) == 1 else "?")
    return "".join(out)


@st.composite
def marker_cases(draw):
    radius = draw(st.integers(0, 3))
    width = 2 * radius + 1
    period = draw(st.integers(width + 1, width + 10))
    symbols = draw(st.text(alphabet="ab?", min_size=period, max_size=period))
    cyclic = symbols * 3
    words = draw(st.lists(st.text(alphabet="ab", min_size=width, max_size=width), max_size=3))
    table = {u: draw(st.sampled_from("ab")) for u in words}
    for s in draw(st.lists(st.integers(0, period - 1), max_size=4)):
        window = cyclic[s: s + width]
        holes = window.count("?")
        out = draw(st.sampled_from("ab"))
        if holes <= 3 and draw(st.booleans()):
            # every completion listed under one letter: the window maps to it
            for fill in product("ab", repeat=holes):
                letters = iter(fill)
                table["".join(next(letters) if c == "?" else c for c in window)] = out
        else:
            table["".join(draw(st.sampled_from("ab")) if c == "?" else c for c in window)] = out
    code = tl.SlidingBlockCode(tl.BINARY, radius, table, default=draw(st.sampled_from("ab")))
    return code, tl.PeriodicPattern(symbols)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(marker_cases())
def test_marker_code_image_matches_per_window_count(case):
    code, pat = case
    assert tl.apply_code(code, pat).symbols == per_window_marker_image(code, pat)


def test_marker_code_image_fixed_cases():
    pat = tl.PeriodicPattern("ab?babaa")
    # both completions of the hole window "b?b" are listed; windows at 0 and 7 wrap
    code = tl.SlidingBlockCode(tl.BINARY, 1, dict.fromkeys(["bab", "bbb", "aab"], "a"), default="b")
    image = tl.apply_code(code, pat)
    assert image.symbols == per_window_marker_image(code, pat)
    assert image.at(2) == "a" and image.at(0) == "a"
    # radius 3 on period 8: the window is almost the whole period
    code = tl.SlidingBlockCode(tl.BINARY, 3, dict.fromkeys(["aab?bab".replace("?", c) for c in "ab"], "a"), default="b")
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
        for r, values in tree.nodes(l).items():
            assert values == {word[j] for j in range(r, period, p)} - {"?"}


@settings(max_examples=100, deadline=None, derandomize=True)
@given(seed_lists(), st.integers(1, 6))
# the level-1 window of 3 holes that starts at seed 2's last letter meets its first hole in the next copy
# of seed 2, and seed 3 shows the two level-2 classes different letters
@example(["a??b", "a?bab", "ab?b", "ab"], 3)
def test_hole_class_run_words_match_naive_orbits(seeds, run):
    # the run of ``run`` holes from each level-l hole, read along its class in one period of the last level
    s = tl.FillingSchedule(tl.BINARY, [tl.parse_seed(w) for w in seeds])
    period = s.period(len(seeds))
    word = naive_fill(seeds, 0, (run + 2) * period)  # a run spans at most run + 1 level periods
    for l in range(1, len(seeds) + 1):
        got = tl.words.hole_class_letters(s, l, len(seeds), run)
        p = s.period(l)
        level = naive_fill(seeds[:l], 0, p)
        holes = [j for j in range(p) if level[j] == "?"]
        assert list(got) == holes
        for i, x in enumerate(holes):
            at = [holes[(i + d) % len(holes)] + (i + d) // len(holes) * p for d in range(run)]
            assert got[x] == {"".join(word[j + n] for j in at) for n in range(0, period, p)}


def class_symbols(s, l, r, depth):
    """The symbols ``evaluate`` reads over the class r + p_l * Z in one level-``depth`` period."""
    return {tl.evaluate(s, j, depth) or "?" for j in range(r, s.period(depth), s.period(l))}


def test_hole_tree_value_sets_match_naive_orbits_on_gallery_words(monkeypatch):
    for name, depth in (("ex4.3", 2), ("ex5.7", 2), ("ex3.5", 1)):
        s = tl.gallery(name)
        tree = tl.hole_tree(s, depth)
        seeds = [s.seed(l).symbols for l in range(1, tree.resolution_depth + 1)]
        period = s.period(tree.resolution_depth)
        word = naive_fill(seeds, 0, period)
        for l in range(1, depth + 1):
            for r, values in tree.nodes(l).items():
                assert values == {word[j] for j in range(r, period, s.period(l))} - {"?"}
    # past PATTERN_CAP: ex4.4 has period 2^28 at level 5 and 2^45 at level 7
    s = tl.gallery("ex4.4")
    tree = tl.hole_tree(s, 5, 7)
    assert tree.resolution_depth == 7
    for r, values in tree.nodes(5).items():
        assert values == class_symbols(s, 5, r, 7) - {"?"}
    # a hole class is certified periodic when it shows one letter and no hole
    aper = tuple(r for r in s.holes(4) if class_symbols(s, 4, r, 6) not in ({"a"}, {"b"}))
    assert tl.aperiodic_residues(s, 4, 6) == aper == s.holes(4)
    # a cap far below ex4.3's period 2^20 at level 10 changes no answer; seed 10
    # has 128 letters, so a cap below that refuses the read
    tree, aper = tl.hole_tree(tl.gallery("ex4.3"), 8, 10), tl.aperiodic_residues(tl.gallery("ex4.3"), 8, 10)
    monkeypatch.setattr(tl.words, "PATTERN_CAP", 128)
    capped = tl.hole_tree(tl.gallery("ex4.3"), 8, 10)
    assert (capped.resolution_depth, capped.levels) == (10, tree.levels)
    assert tl.aperiodic_residues(tl.gallery("ex4.3"), 8, 10) == aper


@settings(max_examples=100, deadline=None, derandomize=True)
@given(seed_lists(), st.lists(st.integers(-300, 300), min_size=1, max_size=20), st.data())
def test_evaluate_with_warm_level_cache_matches_pattern(seeds, warm, data):
    s = tl.FillingSchedule(tl.BINARY, [tl.parse_seed(w) for w in seeds])
    for j in warm:
        tl.evaluate(s, j, len(seeds))
    # levels are requested in a drawn order, so a pattern is composed onto
    # cached levels below it or cached on the way to a deeper one
    for l in data.draw(st.permutations(range(1, len(seeds) + 1))):
        pat = s.pattern(l)
        assert (pat.period, pat.holes) == (s.period(l), s.holes(l))
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


def seed_walk(schedule, j, max_level):
    """The letter at ``j`` read one seed per level from level 1, or None: a hole's
    rank among its level's holes is its position in the next seed's extension."""
    levels = max_level if schedule.max_levels is None else min(max_level, schedule.max_levels)
    pos = j
    for l in range(1, levels + 1):
        seed = schedule.seed(l).symbols
        block, r = divmod(pos, len(seed))
        if seed[r] != "?":
            return seed[r]
        pos = block * seed.count("?") + seed[:r].count("?")
    return None


def assert_reads_match_seed_walk(s, lo, width, max_level):
    want = "".join(seed_walk(s, j, max_level) or "?" for j in range(lo, lo + width))
    assert tl.resolve_window(s, lo, lo + width, max_level) == want, (lo, max_level)
    assert "".join(tl.evaluate(s, j, max_level) or "?" for j in range(lo, lo + width)) == want, (lo, max_level)


@pytest.mark.parametrize("name", ["ex4.4", "ex3.5", "ex4.3", "ex5.7", "williams"])
def test_walk_reads_match_a_plain_seed_walk_around_the_table_level(name):
    shared = tl.gallery(name)
    m = 1
    while shared.period(m + 1) <= tl.words._TABLE_CAP:
        m += 1
    rng = random.Random(name)
    for max_level in (m - 1, m, m + 1, m + 4):
        # a fresh schedule builds its table at this depth; the shared one has
        # served the shallower depths first
        for s in (tl.gallery(name), shared):
            for sign in (-1, 1):
                assert_reads_match_seed_walk(s, sign * 10 ** 12 + rng.randint(-10 ** 6, 10 ** 6), 120, max_level)


def test_walk_reads_match_a_plain_seed_walk_without_a_table_and_past_a_hole_free_level():
    wide = tl.FillingSchedule(tl.BINARY, [tl.SeedWord("a" + "?" * tl.words._TABLE_CAP + "b"),
                                          tl.parse_seed("a?b"), tl.parse_seed("ab?ba")])
    assert wide.period(1) > tl.words._TABLE_CAP  # the walk starts from seed 1 itself
    closed = tl.FillingSchedule(tl.BINARY, [tl.parse_seed("a??b"), tl.parse_seed("a?b"), tl.parse_seed("ab")])
    assert closed.holes(3) == () and closed.period(3) <= tl.words._TABLE_CAP
    for s in (wide, closed):
        for max_level in (0, 1, 2, 3, 5):
            for lo in (-10 ** 12 - 60, -7, 10 ** 12):
                assert_reads_match_seed_walk(s, lo, 100, max_level)


def test_walk_reads_no_seed_past_the_levels_asked_for():
    read = []
    ex57 = tl.gallery("ex5.7")

    def rule(l):
        read.append(l)
        return ex57.seed(l)

    for max_level in (1, 2, 3):
        s = tl.FillingSchedule(tl.BINARY, rule)
        read.clear()
        tl.evaluate(s, 10 ** 12, max_level)
        tl.resolve_window(s, -50, 50, max_level)
        assert read and max(read) <= max_level


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


def assert_patterns_follow_the_compose_chain(s, top):
    """``s.pattern(l)``, l = 1 .. top, is seed after seed composed from the root ``?``, stopping where the
    holes die out, and reads as the window of one period."""
    chain = tl.PeriodicPattern("?")
    for l in range(1, top + 1):
        if chain.hole_count:
            chain = tl.compose_fill(chain, s.seed(l))
        assert s.pattern(l).symbols == chain.symbols, (s, l)
        assert tl.resolve_window(s, 0, chain.period, l) == chain.symbols, (s, l)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.lists(st.one_of(st.text(alphabet="ab?", min_size=1, max_size=7), st.sampled_from(["ab", "ba", "a"]))
                .filter(lambda w: w.strip("?")), min_size=1, max_size=5))
def test_level_patterns_are_one_compose_chain(seeds):
    s = tl.FillingSchedule(tl.BINARY, [tl.SeedWord(w) for w in seeds])
    # levels past the last seed exist once the holes have died out
    assert_patterns_follow_the_compose_chain(s, len(seeds) + (2 if not s.holes(len(seeds)) else 0))


@pytest.mark.parametrize("name", ["ex4.3", "ex4.4", "ex5.7", "ex3.5", "williams"])
def test_gallery_level_patterns_are_one_compose_chain_up_to_the_cap(name):
    s = tl.gallery(name)
    top = 1
    while s.period(top + 1) <= tl.words.PATTERN_CAP:
        top += 1
    assert s._table(top)[0] < top  # levels past the walk table are composed onward from it
    assert_patterns_follow_the_compose_chain(s, top)


def test_level_patterns_without_a_table_and_past_a_hole_free_level():
    wide = tl.FillingSchedule(tl.BINARY, [tl.SeedWord("a" + "?" * tl.words._TABLE_CAP + "b"),
                                          tl.parse_seed("a?b"), tl.parse_seed("ab"), tl.parse_seed("ba")])
    assert wide._table(4)[0] == 0 and wide.holes(3) == ()  # a level-0 table; holes die out at level 3
    assert_patterns_follow_the_compose_chain(wide, 6)


def test_window_reads_build_no_pattern(monkeypatch):
    s = tl.gallery("ex5.7")
    omega = tl.branch_point(s, random_branch(s, 3, random.Random(5)))
    deep = [(-1) ** k * 10 ** 12 + 7919 * k for k in range(200)]
    expected = (
        tl.resolve_window(s, -70, 300, 4),
        tl.fiber_block_contents(s, omega, 3, 5, 16),
        tl.pair_report(s, tl.Shift(38), tl.Shift(230), 3, windows=[(-64, 64)], eval_level=6),
        [tl.evaluate(s, j, 12) for j in deep],
    )

    def refuse(self, l):
        raise AssertionError("pattern(%d) built for a window" % l)

    monkeypatch.setattr(tl.FillingSchedule, "pattern", refuse)
    s = tl.gallery("ex5.7")
    assert (
        tl.resolve_window(s, -70, 300, 4),
        tl.fiber_block_contents(s, omega, 3, 5, 16),
        tl.pair_report(s, tl.Shift(38), tl.Shift(230), 3, windows=[(-64, 64)], eval_level=6),
        [tl.evaluate(s, j, 12) for j in deep],
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
    marker = tl.SlidingBlockCode(tl.BINARY, 1, dict.fromkeys(["aab", "bab", "abb"], "a"), default="b")
    for name, depth in (("ex5.7", 6), ("ex4.3", 5), ("ex3.5", 4), ("ex4.4-mini", 3)):
        s = tl.gallery(name)
        codes = [tl.SlidingBlockCode.from_fn(tl.BINARY, rng.choice((0, 1, 2)), lambda w: rng.choice("ab"))
                 for _ in range(4)]
        for code in codes + [marker]:
            levels = range(1, depth + 1)
            got = [(fr.modulus, fr.nonperiodic, fr.undetermined) for fr in tl.factor_residues(code, s, levels, depth)]
            assert got == per_level_image_classes(code, tl.gallery(name), levels, depth)


def test_factor_residues_past_the_cap_match_the_depth_image(monkeypatch):
    from toeplitz_lab import words

    rng = random.Random(23)
    codes = [tl.SlidingBlockCode.from_fn(tl.BINARY, rng.choice((1, 2)), lambda w: rng.choice("ab"))
             for _ in range(3)]
    codes.append(tl.SlidingBlockCode(tl.BINARY, 1, dict.fromkeys(["aab", "bab", "abb"], "a"), default="b"))
    # the oracle reads the depth pattern, so it runs before the cap is lowered
    cases = [(name, code, 512, range(1, 5), per_level_image_classes(code, tl.gallery(name), range(1, 5), 5))
             for name in ("ex5.7", "ex4.3") for code in codes]
    # ex3.5 shows p_5 / p_4 = 34 level-4 classes per class of level 4, more than a sample of 32 windows
    code = tl.gallery_code("ex5.7")
    expected = per_level_image_classes(code, tl.gallery("ex3.5"), [4], 5)
    assert len(expected[0][1]) == 32 and expected[0][2] == ()
    cases.append(("ex3.5", code, 1 << 16, [4], expected))
    for name, code, cap, levels, expected in cases:
        # period 1024 (ex5.7, ex4.3) or 293760 (ex3.5) at depth 5 is past the cap, while every level's
        # hole list and hole slots are not
        monkeypatch.setattr(words, "PATTERN_CAP", cap)
        with pytest.raises(PatternTooLarge):
            tl.gallery(name).pattern(5)
        got = tl.factor_residues(code, tl.gallery(name), levels, 5)
        assert [(fr.modulus, fr.nonperiodic, fr.undetermined) for fr in got] == expected
        assert got[-1] == tl.factor_aperiodic_residues(code, tl.gallery(name), levels[-1], 5)


@st.composite
def repetitive_patterns(draw):
    """A code and a pattern made of one short block repeated, with a few cells changed.

    Up to 60 copies of the block span many image chunks, and the period
    need not be a multiple of the chunk length.
    The code is a full table of radius <= 2 or, up to radius 40 (wider
    than many of the periods), a table with a default that lists windows
    the pattern shows, with all or one of their completions.
    """
    size = draw(st.sampled_from((1, 2, 3, 4, 5, 6, 8, 16)))  # chunks repeat where the size divides theirs
    block = draw(st.text(alphabet="ab?", min_size=size, max_size=size))
    cells = list(block * draw(st.integers(1, 60)))
    for i in draw(st.lists(st.integers(0, len(cells) - 1), max_size=3)):
        cells[i] = draw(st.sampled_from("ab?"))
    pat = tl.PeriodicPattern("".join(cells))
    if draw(st.booleans()):
        width = 2 * draw(st.integers(0, 2)) + 1
        windows = ["".join(w) for w in product("ab", repeat=width)]
        outputs = draw(st.lists(st.sampled_from("ab"), min_size=len(windows), max_size=len(windows)))
        return tl.SlidingBlockCode(tl.BINARY, width // 2, dict(zip(windows, outputs))), pat
    radius = draw(st.integers(0, 40))
    table = {}
    for start in draw(st.lists(st.integers(0, pat.period - 1), max_size=4)):
        window = pat.window(start, start + 2 * radius + 1)
        holes = window.count("?")
        fills = product("ab", repeat=holes) if holes <= 3 and draw(st.booleans()) else ["a" * holes]
        out = draw(st.sampled_from("ab"))
        for fill in fills:
            letters = iter(fill)
            table["".join(next(letters) if c == "?" else c for c in window)] = out
    return tl.SlidingBlockCode(tl.BINARY, radius, table, default=draw(st.sampled_from("ab"))), pat


# about half of the examples draw a full table
@settings(max_examples=600, deadline=None, derandomize=True)
@given(repetitive_patterns())
def test_table_code_image_matches_per_window_code_output(case):
    from toeplitz_lab.factors import code_output

    code, pat = case
    J = code.radius
    image = tl.apply_code(code, pat).symbols
    assert image == "".join(code_output(code, pat.window(j - J, j + J + 1)) for j in range(pat.period))
    if J <= 3:
        assert image == "".join(brute_apply(code, pat, j) for j in range(pat.period))


def derived_tail(schedule, l):
    """The schedule of the word read along the level-``l`` holes: seeds l + 1 onward."""
    if l == 0:
        return schedule
    if schedule.max_levels is None:
        return tl.FillingSchedule(schedule.alphabet, lambda k: schedule.seed(k + l))
    return tl.FillingSchedule(schedule.alphabet, [schedule.seed(k) for k in range(l + 1, schedule.max_levels + 1)])


def test_derived_tail_identity_and_coherence():
    s = tl.gallery("ex5.7")
    assert derived_tail(s, 0) is s
    tail = derived_tail(s, 1)
    holes = [j for j in range(0, 400) if s.pattern(1).at(j) == tl.HOLE]
    for k, h in enumerate(holes[:60]):
        assert tl.evaluate(s, h, 6) == tl.evaluate(tail, k, 5)
    tail2 = derived_tail(s, 2)
    holes2 = [j for j in range(0, 400) if s.pattern(2).at(j) == tl.HOLE]
    for k, h in enumerate(holes2[:40]):
        assert tl.evaluate(s, h, 6) == tl.evaluate(tail2, k, 4)


def test_derived_tail_is_seed_shift():
    s = tl.gallery("ex4.4")
    tail = derived_tail(s, 1)
    for k in (1, 2, 3):
        assert tail.seed(k).symbols == s.seed(k + 1).symbols


def list_assembly_words(schedule, l, length):
    """The exact single-hole subword set, each word assembled by list assignment.

    The fill words of ``m`` holes come from the derived tail by the same
    recursion: its letters for one hole, its own exact set for more.
    """
    p, (hole,) = schedule.period(l), schedule.holes(l)
    block = tl.resolve_window(schedule, hole + 1, hole + p, l + 3)
    tail = derived_tail(schedule, l)

    @cache  # one recursion per hole count, not per offset
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


@pytest.mark.parametrize("name, l, ks, shifts", [
    ("ex4.4-mini", 1, range(1, 9), (-1, 0, 1)),
    ("ex4.4", 1, range(1, 9), (-1, 0, 1)),
    ("ex4.4", 2, (1, 2), (-1, 0, 1)),
    ("ex4.4-mini", 3, (1,), (-1, 0)),
])
def test_single_hole_words_match_list_assembly_where_hole_counts_change(name, l, ks, shifts):
    # at length k p every offset spans k holes; one less or one more splits the offsets
    # between k - 1 and k holes, or between k and k + 1
    s = tl.gallery(name)
    p = s.period(l)
    for length in (k * p + d for k in ks for d in shifts if k * p + d <= 8 * p):
        assert tl.factor_set_exact_single_hole(s, l, length).words == list_assembly_words(s, l, length), length


@settings(max_examples=30, deadline=None, derandomize=True)
@given(single_hole_cycles(), st.integers(1, 8), st.integers(-1, 1))
def test_single_hole_words_of_cycles_match_list_assembly_at_level_2(seeds, periods, shift):
    s = tl.FillingSchedule(tl.BINARY, lambda l: tl.parse_seed(seeds[(l - 1) % len(seeds)]))
    length = min(periods * s.period(2) + shift, 8 * s.period(2))
    assert tl.factor_set_exact_single_hole(s, 2, length).words == list_assembly_words(s, 2, length)


@st.composite
def one_hole_literal_cases(draw):
    """A finite literal schedule over ``ab`` or ``abc`` with at most one hole per seed, a level 1-3 with
    one hole and a seed after it, and a length 1-11 within 8 of its periods."""
    letters = draw(st.sampled_from(("ab", "abc")))
    seeds = []
    for _ in range(draw(st.integers(2, 6))):
        w = draw(st.text(alphabet=letters, min_size=1, max_size=5))
        if len(w) >= 3 and draw(st.integers(0, 3)):
            i = draw(st.integers(1, len(w) - 2))
            w = w[:i] + "?" + w[i + 1:]
        seeds.append(w)
    s = tl.FillingSchedule(tl.Alphabet(letters), [tl.parse_seed(w, tl.Alphabet(letters)) for w in seeds])
    levels = [l for l in range(1, min(3, len(seeds) - 1) + 1) if len(s.holes(l)) == 1]
    assume(levels)
    l = draw(st.sampled_from(levels))
    return letters, seeds, l, draw(st.integers(1, min(11, 8 * s.period(l))))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(one_hole_literal_cases())
@example(("abc", ["a?b", "a?b", "ab", "cc"], 1, 3))  # the holes close at level 3; seed 4 is never used
@example(("ab", ["ab?a", "b?b"], 1, 2))  # a hole stays open at the last seed
def test_single_hole_counts_match_full_depth_scans(case):
    # the scan reads the whole word at the last level, with any hole still open there closed by one
    # letter; an exact set holds for every closing, and a lower bound lies within each
    letters, seeds, l, length = case
    alphabet = tl.Alphabet(letters)
    fs = tl.factor_set_exact_single_hole(tl.FillingSchedule(alphabet, [tl.parse_seed(w, alphabet) for w in seeds]),
                                         l, length)
    for x in letters:
        closed = tl.FillingSchedule(alphabet, [tl.parse_seed(w, alphabet) for w in seeds + [x]])
        top = closed.max_levels
        scan = tl.factor_set_window(closed, length, (0, 4 * closed.period(top) + length), top).words
        assert fs.words == scan if fs.exact else fs.words <= scan


# -- window hashes, and the counts and certificates that read them ---------------

# small letters, letters just below, at and above the hash base, and the largest code point
HASH_LETTERS = "ab?" + chr(_HASH_BASE - 1) + chr(_HASH_BASE) + chr(_HASH_BASE + 1) + chr(0x10FFFF)


def direct_window_hash(word):
    """The polynomial of one word by its definition: the sum of ord(w[k]) * B^(len(w) - 1 - k) mod 2^61 - 1."""
    mod = 2 ** 61 - 1
    return sum(ord(c) * pow(_HASH_BASE, len(word) - 1 - k, mod) for k, c in enumerate(word)) % mod


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.text(alphabet=HASH_LETTERS, min_size=1, max_size=40), st.data())
@example("a" + chr(0x10FFFF) * 3 + "b", None)
def test_window_hashes_are_the_polynomial_of_each_window(text, data):
    if data is None:  # the explicit example: every window of length 2
        length, n = 2, len(text) - 1
    else:
        length = data.draw(st.integers(1, len(text)))
        n = data.draw(st.integers(0, len(text) - length + 1))
    assert window_hashes(text, length, n) == [direct_window_hash(text[i: i + length]) for i in range(n)]


@pytest.mark.parametrize("length, n", [(0, 1), (2, 3), (1, -1), (4, 1)])
def test_window_hashes_refuse_windows_the_text_lacks(length, n):
    with pytest.raises(ToeplitzError, match="windows of length"):
        window_hashes("abc", length, n)


def decomposition_level(s, length):
    """The level decomposition mode reads: the first whose period reaches ``length`` or that has no hole,
    stopping at a level with more holes, and at level 12 at most."""
    l = 1
    while len(s.holes(l)) == 1 and s.period(l) < length and l < s.available_levels(12):
        l += 1
    return l


def counted_and_collected(s, length, mode):
    """(count, exact) of ``complexity_profile`` and of the word set it counts, or the error each raised."""
    def outcome(f):
        try:
            return f()
        except ToeplitzError as e:
            return type(e), str(e)

    def collected():
        if mode == "window":
            fs = tl.factor_set_window(s, length, (0, max(4 * length, 64)), 6)
        else:
            fs = tl.factor_set_exact_single_hole(s, decomposition_level(s, length), length)
        return len(fs.words), fs.exact

    def counted():
        (e,) = tl.complexity_profile(s, [length], mode)
        return e.count, e.exact

    return outcome(counted), outcome(collected)


@pytest.mark.parametrize("name, mode", [
    ("ex4.4-mini", "decomposition"), ("ex4.4", "decomposition"),
    ("ex4.4-mini", "window"), ("ex5.7", "window"), ("ex4.3", "window"), ("ex3.5", "window"),
])
def test_counts_equal_the_word_sets_of_gallery_entries(name, mode):
    # short lengths repeat words, so windows share hashes and their words are compared
    s = tl.gallery(name)
    p = s.period(1)
    for length in sorted({*range(1, 20), p - 1, p, p + 1, 2 * p + 3, 64, 128, 129}):
        counted, collected = counted_and_collected(s, length, mode)
        assert counted == collected, length


@settings(max_examples=40, deadline=None, derandomize=True)
@given(single_hole_cycles(), st.integers(1, 40), st.sampled_from(("decomposition", "window")))
def test_counts_equal_the_word_sets_of_one_hole_cycles(seeds, length, mode):
    s = tl.FillingSchedule(tl.BINARY, lambda l: tl.parse_seed(seeds[(l - 1) % len(seeds)]))
    counted, collected = counted_and_collected(s, length, mode)
    assert counted == collected


@settings(max_examples=150, deadline=None, derandomize=True)
@given(one_hole_literal_cases(), st.integers(1, 40), st.sampled_from(("decomposition", "window")))
@example(("abc", ["a?b", "a?b", "ab", "cc"], 1, 1), 20, "decomposition")  # past the level where the holes close
def test_counts_equal_the_word_sets_of_literal_schedules(case, length, mode):
    # these schedules may close their holes, keep one open at the last seed, or have two holes at a level
    letters, seeds, _, _ = case
    s = tl.schedule_from_text(letters + "\n" + "\n".join(seeds) + "\n")
    counted, collected = counted_and_collected(s, length, mode)
    assert counted == collected


@st.composite
def closing_literal_cases(draw):
    """A finite literal schedule over ``ab`` or ``abc`` with at most one hole per seed whose holes close,
    the first level without holes, and a length up to three of its periods."""
    letters = draw(st.sampled_from(("ab", "abc")))
    seeds = []
    for _ in range(draw(st.integers(1, 4))):
        w = draw(st.text(alphabet=letters, min_size=3, max_size=5))
        i = draw(st.integers(1, len(w) - 2))
        seeds.append(w[:i] + "?" + w[i + 1:])
    seeds.append(draw(st.text(alphabet=letters, min_size=1, max_size=4)))
    alphabet = tl.Alphabet(letters)
    s = tl.FillingSchedule(alphabet, [tl.parse_seed(w, alphabet) for w in seeds])
    return s, len(seeds), draw(st.integers(1, 3 * s.period(len(seeds))))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(closing_literal_cases())
def test_level_without_holes_counts_match_full_depth_scans(case):
    s, top, length = case
    fs = tl.factor_set_exact_single_hole(s, top, length)
    scan = tl.factor_set_window(s, length, (0, 4 * s.period(top) + length), top)
    assert fs.exact and fs.words == scan.words
    (e,) = tl.complexity_profile(s, [length], "decomposition")
    assert (e.count, e.exact) == (len(fs.words), True)


# two poor hashes that are still functions of the word: one value for every window, and the parity of the
# window's first letter (a hash of the start's index would give one word two hashes, which no count survives)
@pytest.mark.parametrize("fake", [
    lambda text, length, n: [0] * n,
    lambda text, length, n: [ord(c) % 2 for c in text[:n]],
], ids=["every-window-collides", "first-letter-parity"])
def test_counts_and_residue_certificates_do_not_rest_on_the_hash(monkeypatch, fake):
    m, s = tl.gallery("ex4.4-mini"), tl.gallery("ex5.7")

    def answers():
        return ([(e.count, e.exact) for e in tl.complexity_profile(m, [8, 64, 1024], "decomposition")],
                [(e.count, e.exact) for e in tl.complexity_profile(s, [1, 4, 16, 64, 128], "window")],
                [tl.unique_residue_search(s, l1, l2, (0, hi), depth=7)
                 for l1, l2, hi in ((1, 2, 96), (2, 1, 128), (2, 2, 200))],
                tl.unique_residue_search(s, 2, 1, (0, 128), depth=6))

    expected = answers()
    assert expected[3].counterexample == (0, 4)
    monkeypatch.setattr(complexity, "window_hashes", fake)
    monkeypatch.setattr(factors, "window_hashes", fake)
    assert answers() == expected


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
    return tl.PeriodicPattern(symbols), g * draw(st.integers(1, 4))


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
    return tl.PeriodicPattern(symbols), g * draw(st.integers(1, 8))


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


@st.composite
def repeated_row_patterns(draw):
    """m rows of g >= 128 letters over abc: copies of one base row with a few holes, and a few
    variant rows that change some cells to another letter or a hole, so columns of one letter,
    of a changed letter, of holes alone and of one letter among holes occur; p = g * k."""
    g = draw(st.integers(128, 160))
    m = draw(st.integers(1, 140))
    base = draw(st.lists(st.sampled_from("abc"), min_size=g, max_size=g))
    for i in draw(st.lists(st.integers(0, g - 1), max_size=3)):
        base[i] = "?"
    rows = [base] * m
    for r in draw(st.lists(st.integers(0, m - 1), max_size=4)):
        rows[r] = list(rows[r])
        for i in draw(st.lists(st.integers(0, g - 1), min_size=1, max_size=3)):
            rows[r][i] = draw(st.sampled_from("abc?"))
    symbols = "".join("".join(row) for row in rows)
    return tl.PeriodicPattern(symbols), g * draw(st.integers(1, 3))


_RANDOM_ROWS = "".join(random.Random(7).choices("abc?", k=128 * 150))


def brute_column_symbols(pattern, p, r):
    """The symbols at the positions congruent to ``r`` mod ``p`` over one lcm(p, period) span."""
    span = p * pattern.period // gcd(p, pattern.period)
    return frozenset(pattern.symbols[j % pattern.period] for j in range(r, span, p))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(repeated_row_patterns())
@example((tl.PeriodicPattern("ab" * 64 + "ab" * 63 + "a?"), 128))  # a hole in the last column of row 1
@example((tl.PeriodicPattern(("abc?" * 32 + "ba" * 64) * 3), 256))  # an all-hole column: undetermined
@example((tl.PeriodicPattern("ab" * 64 * 149 + "cb" + "ab" * 63), 128))  # 150 rows, one varied: m > 127
@example((tl.PeriodicPattern("ab?" * 43 + "a?c" * 43), 129 * 3))  # row 0 alone has letters on the holes
@example((tl.PeriodicPattern(_RANDOM_ROWS), 128))  # 150 distinct rows, most columns differ
@example((tl.PeriodicPattern("ab" * 64 + ("abc" * 43)[:128] + "a" * 127 + "b"), 128 * 3))  # m = 3
@example((tl.PeriodicPattern("a" * 133 + "\u0161" + "a" * 131 + "\U00010061" + "a" * 118),
          128))  # letters that differ from a only in their second or third byte
def test_distinct_rows_classification_matches_brute_force(case):
    pat, p = case
    g = gcd(p, pat.period)
    assert g >= 128
    classes = tl.classify_residues(pat, p)
    expected = brute_classify(pat, p)
    assert classes_by_residue(classes) == expected
    assert classes.width == g
    assert hash(classes) == hash(tl.classify_residues(pat, p))  # the kept columns keep the class hashable
    assert dict(classes.columns) == {
        r: brute_column_symbols(pat, p, r) for r in range(g) if not expected[r].startswith("periodic")}


@pytest.mark.parametrize("n, p", [(1 << 18, 128), (1 << 18, 1024), (1 << 18, 1 << 14)])
def test_distinct_rows_read_costs_about_a_strided_read(n, p):
    # every row distinct and differing from row 0 in about half its cells: the worst case for the
    # row read, whose cost per differing cell stays C-level, so within a few strided reads
    symbols = "".join(random.Random(n + p).choices("ab", k=n))
    pat, g = tl.PeriodicPattern(symbols), gcd(p, n)

    def best(read):
        times = []
        for _ in range(5):
            start = time.perf_counter()
            read()
            times.append(time.perf_counter() - start)
        return min(times)

    assert best(lambda: tl.classify_residues(pat, p)) < 8 * best(lambda: [set(symbols[c::g]) for c in range(g)])


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
    # a pattern cap below the period of the resolution depth lowers no depth: the
    # cap need only hold each level's lcm(h_m, q) hole slots, which is at most p_(m+1)
    counts = [1] + [len(s.holes(l)) for l in range(1, len(seeds))]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tl.words, "PATTERN_CAP", max(lcm(h, len(w)) for h, w in zip(counts, seeds) if h))
        capped = tl.hole_tree(s, depth, len(seeds))
    assert capped.resolution_depth == len(seeds)
    assert list(capped.levels) == naive_hole_tree(seeds, s, depth, len(seeds))
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


# -- the hole nesting read by its definition: block filling, branches, census ----


def naive_block_filling(s, depth):
    """``check_oxtoby`` by its definition: each length-p_l block of pattern(l + 1)
    leaves open all of pattern(l)'s holes or none, and at least two leave them open.

    Returns (certified, level, witness block, unfilled blocks of the levels before);
    below depth 2 no pair of levels is compared, so nothing is certified.
    """
    if depth < 2:
        return False, None, None, []
    unfilled = []
    for l in range(1, depth):
        lo, hi = s.pattern(l).symbols, s.pattern(l + 1).symbols
        p = len(lo)
        holes = [j for j in range(p) if lo[j] == "?"]
        open_blocks = []
        for k in range(len(hi) // p):
            opened = [j for j in range(p) if hi[k * p + j] == "?"]
            if opened and opened != holes:
                return False, l, k, unfilled
            if opened:
                open_blocks.append(k)
        if len(open_blocks) < 2:
            return False, l, None, unfilled
        unfilled.append(tuple(open_blocks))
    return True, None, None, unfilled


def naive_sibling_witnesses(s, depth):
    """Per level-l hole r (l <= depth), its two lowest holes of pattern(l + 1) in the class of r."""
    out = []
    for l in range(1, depth + 1):
        p = s.period(l)
        deeper = s.pattern(l + 1).symbols
        for r in range(p):
            if s.pattern(l).symbols[r] == "?":
                c1, c2 = [j for j in range(r, len(deeper), p) if deeper[j] == "?"][:2]
                out.append((l, r, c2, (c2 - c1) // p))
    return out


def assert_block_filling_matches_definition(s, depth):
    v = tl.check_oxtoby(s, depth)
    certified, level, block, unfilled = naive_block_filling(s, depth)
    assert (v.certified, v.level, v.witness_block, list(v.unfilled_blocks)) == (certified, level, block, unfilled)
    if depth < 2:
        return
    if certified:
        wits = tl.oxtoby_no_isolation_check(s, depth - 1)
        assert [dataclasses.astuple(w) for w in wits] == naive_sibling_witnesses(s, depth - 1)
    else:
        with pytest.raises(NotOxtoby):
            tl.oxtoby_no_isolation_check(s, depth - 1)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(seed_lists())
def test_block_filling_matches_its_definition(seeds):
    s = tl.FillingSchedule(tl.BINARY, [tl.parse_seed(w) for w in seeds])
    for depth in range(1, len(seeds) + 1):
        assert_block_filling_matches_definition(s, depth)


def test_block_filling_matches_its_definition_on_gallery_words():
    kinds = set()
    for name, depth in (("ex3.5", 4), ("ex5.7", 4), ("williams", 4), ("ex4.3", 4)):
        s = tl.gallery(name)
        assert_block_filling_matches_definition(s, depth)
        kinds.add(tl.check_oxtoby(s, depth).kind)
    assert kinds == {tl.VerdictKind.CERTIFIED_TO_DEPTH, tl.VerdictKind.REFUTED}


def naive_chains(s, depth):
    """Every chain of holes, one per level, each in the class of the one above, lexicographically."""
    return [c for c in product(*(s.holes(l) for l in range(1, depth + 1)))
            if all(c[l] % s.period(l) == c[l - 1] for l in range(1, depth))]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(tree_schedules(), st.integers(1, 6))
def test_branches_match_filtered_product(case, limit):
    seeds, depth, _ = case
    s = tl.FillingSchedule(tl.BINARY, [tl.parse_seed(w) for w in seeds])
    tree = tl.hole_tree(s, depth)
    every = naive_chains(s, depth)
    assert tree.branches() == every
    assert tree.branches(limit) == every[:limit]


def test_branches_match_filtered_product_on_gallery_words():
    for name, depth in (("ex4.3", 4), ("ex5.7", 3), ("ex3.5", 3)):
        tree = tl.hole_tree(tl.gallery(name), depth)
        every = naive_chains(tree.schedule, depth)
        assert tree.branches() == every
        for limit in (1, 4, 6):
            assert tree.branches(limit) == every[:limit]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(tree_schedules())
def test_property_verdicts_census_matches_naive_survivors(case):
    seeds, depth, _ = case
    s = tl.FillingSchedule(tl.BINARY, [tl.parse_seed(w) for w in seeds])
    levels = naive_hole_tree(seeds, s, depth, depth)
    assert tl.property_verdicts(s, depth).census == tuple(len(level) for level in naive_survivors(s, levels))


def test_property_verdicts_census_matches_naive_survivors_on_gallery_words():
    for name, depth in (("ex4.3", 4), ("ex5.7", 3)):
        s = tl.gallery(name)
        seeds = [s.seed(l).symbols for l in range(1, depth + 1)]
        levels = naive_hole_tree(seeds, s, depth, depth)
        assert tl.property_verdicts(s, depth).census == tuple(len(level) for level in naive_survivors(s, levels))


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
    pat = tl.PeriodicPattern(symbols)
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

    from toeplitz_lab.periodicity import EssentialityReport, VerdictKind

    scalars = (st.none() | st.booleans() | st.integers(-10 ** 20, 10 ** 20) | st.text(max_size=4)
               | st.fractions() | st.sampled_from(list(VerdictKind)) | st.floats(allow_nan=False)
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


# -- the position map's slow cross-check ---------------------------------------


def matching_shift(schedule, l, shift, resolution):
    """The unique k in [0, p_l) whose shifted periodic parts match those of ``shift``, searched over every
    candidate on the explicit pattern at ``resolution``: the slow cross-check of ``phi_prefix``."""
    p = schedule.period(l)
    source = tl.classify_residues(schedule.pattern(schedule.available_levels(resolution)), p).periodic
    target = {(r - shift.n) % p: letter for r, letter in source.items()}
    matches = [k for k in range(p) if {(r - k) % p: letter for r, letter in source.items()} == target]
    assert len(matches) == 1, (p, matches)
    return matches[0]


# -- residue classes off the level rows and the hole-class letters -------------


@st.composite
def class_reader_cases(draw):
    """A literal schedule (hole-free seeds and ragged ones included) or a gallery entry, a depth up to its
    last seed or a period of 2^15, and a modulus that is a level period or, more often, none."""
    if draw(st.booleans()):
        s = draw(walk_schedules())
        depth = draw(st.integers(1, s.max_levels))
    else:
        s = tl.gallery(draw(st.sampled_from(GALLERY_NAMES)))
        depth = draw(st.integers(1, max(l for l in range(1, 8) if s.period(l) <= 1 << 15)))
    p = draw(st.sampled_from(s.scale(depth)) | st.integers(1, 3 * s.period(depth)))
    return s, depth, p


@settings(max_examples=300, deadline=None, derandomize=True)
@given(class_reader_cases())
@example((tl.schedule_from_text("ab\na?b\na"), 2, 3))  # the hole class 1 mod 3 is closed by the one letter a
@example((tl.schedule_from_text("ab\na?b\na?b"), 2, 6))  # g = 3 divides p_1, so level 1 is read at depth 2
@example((tl.schedule_from_text("ab\na?b\nab\na?b"), 3, 9))  # the holes die out at level 2, before depth 3
@example((tl.gallery("ex3.5"), 4, 60))  # g = 60 first divides p_3 = 480
def test_schedule_classes_match_the_depth_pattern(case):
    s, depth, p = case
    assert schedule_classes(s, p, depth) == tl.classify_residues(s.pattern(depth), p)
