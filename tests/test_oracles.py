"""Independent brute-force oracles for the core operations.

These re-derive expected values by direct simulation, sharing no code
with the implementations they check: the filler below literally walks
positions in order and drops seed letters into holes one by one.
"""

import random
from math import gcd

from hypothesis import HealthCheck, given, settings, strategies as st

import toeplitz_lab as tl


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


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seed_lists(), st.integers(1, 24))
def test_classification_matches_brute_force(seeds, p):
    s = tl.FillingSchedule(tl.BINARY, [tl.parse_seed(w) for w in seeds])
    pat = s.pattern(len(seeds))
    want = brute_classify(pat, p)
    for status in tl.classify_residues(pat, p):
        if status.status is tl.Status.PERIODIC:
            assert want[status.residue] == "periodic:" + status.letter
        else:
            assert want[status.residue] == status.status.value


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
