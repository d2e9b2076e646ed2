"""A seeded differential corpus: public calls and the answers they gave when it was written.

``corpus.json`` beside this file lists, per call, a digest of its output or its error type and
message.  The calls are drawn by one ``random.Random(SEED)`` over the gallery entries and over
random literal and seed-rule schedules, and then, by a second ``random.Random(SEED + 1)`` over
the same schedules, the factor calls (wide codes listing windows of the word, ``factor_residues``
and ``hole_tree``), and by a third ``random.Random(SEED + 2)`` cold walks down deep hole chains,
each on a schedule built afresh, with ``hole_counts`` and ``scale`` (refusals past the cap
included), so the earlier draws keep their labels.  The test draws and answers them again
and compares, so a change that moves any answer names the calls that moved.  A change that moves an answer on
purpose rewrites the file with

    PYTHONPATH=src python tests/test_corpus.py

and lists the entries that moved and why.
"""

import hashlib
import json
import random
import sys
from itertools import product
from pathlib import Path

import toeplitz_lab as tl
from toeplitz_lab.errors import ToeplitzError
from toeplitz_lab.gallery import GALLERY_NAMES

SEED = 20241
CORPUS = Path(__file__).with_name("corpus.json")


def random_seed_word(rng, letters):
    """Up to six symbols over ``letters`` and the hole, ragged ones included, with at least one letter."""
    word = "".join(rng.choice(letters + "?") for _ in range(rng.randint(1, 6)))
    return tl.SeedWord(word if word.strip("?") else word + rng.choice(letters), tl.Alphabet(letters))


def random_schedules(rng, n):
    """``n`` schedules over ``ab`` or ``abc``, each as its text and a function that builds it afresh:
    literal seed lists and seed rules cycling over a few seeds."""
    out = {}
    for i in range(n):
        letters = rng.choice(("ab", "abc"))
        seeds = tuple(random_seed_word(rng, letters) for _ in range(rng.randint(1, 4)))
        text, alphabet = " ".join(w.symbols for w in seeds), tl.Alphabet(letters)
        if i % 2:
            rule = lambda l, seeds=seeds: seeds[(l - 1) % len(seeds)]
            out["rule%d" % i] = ("%s, seeds cycling: %s" % (letters, text),
                                 lambda a=alphabet, rule=rule: tl.FillingSchedule(a, rule))
        else:
            out["literal%d" % i] = ("%s, seeds: %s" % (letters, text),
                                    lambda a=alphabet, seeds=seeds: tl.FillingSchedule(a, seeds))
    return out


def random_code(rng, letters, radius):
    """A code of ``radius`` listing a random part of its windows, the rest mapped to a default."""
    windows = ["".join(w) for w in product(letters, repeat=2 * radius + 1)]
    table = {w: rng.choice(letters) for w in windows if rng.random() < 0.5}
    return tl.SlidingBlockCode(tl.Alphabet(letters), radius, table, default=rng.choice(letters))


def chain(s, depth, draws):
    """A coherent residue chain of ``depth`` levels, its k-th residue picked by the draw in [0, 1)."""
    out = []
    for k, u in zip(range(1, depth + 1), draws):
        prev = s.period(k - 1) if k > 1 else 1
        out.append((out[-1] if out else 0) + prev * int(u * (s.period(k) // prev)))
    return tuple(out)


def position(rng):
    return rng.choice((rng.randint(-60, 60), rng.randint(-10 ** 12, 10 ** 12)))


def digest(value):
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()[:16]


def answer(fn):
    """``digest <16 hex digits>`` of the call's output as JSON, or its error type and message."""
    try:
        value = fn()
    except ToeplitzError as e:
        return "%s: %s" % (type(e).__name__, e)
    return "digest " + digest(value)


def code_label(code):
    return "code %s/%s" % (digest(sorted(code.table.items())), code.default)


def schedule_calls(rng, key, s):
    """About twenty calls on the schedule ``s`` (``key`` in the labels), each answered as it is drawn."""
    calls = []

    def add(name, args, fn):
        calls.append(("%s(%s, %s)" % (name, key, args), answer(fn)))

    for l in rng.sample(range(0, 7), 2):
        add("period", l, lambda: s.period(l))
    for l in rng.sample(range(0, 7), 2):
        add("holes", l, lambda: s.holes(l))
    l = rng.randint(0, 5)
    add("pattern", l, lambda: s.pattern(l).symbols)
    for _ in range(4):
        j, m = position(rng), rng.randint(0, 6)
        add("evaluate", "%d, %d" % (j, m), lambda: tl.evaluate(s, j, m))
    for _ in range(3):
        lo, hi, m = position(rng), rng.randint(0, 40), rng.randint(0, 6)
        hi += lo
        add("resolve_window", "%d, %d, %d" % (lo, hi, m), lambda: tl.resolve_window(s, lo, hi, m))
    l, code = rng.randint(1, 2), random_code(rng, s.alphabet.letters, rng.randint(0, 1))
    add("apply_code", "%s, level %d" % (code_label(code), l), lambda: tl.apply_code(code, s.pattern(l)).symbols)
    for _ in range(2):
        depth, draws = rng.randint(1, 4), [rng.random() for _ in range(4)]
        l, resolution, blocks = rng.randint(1, min(depth, 3)), depth + rng.randint(0, 2), rng.randint(1, 12)

        def fiber():
            omega = tl.branch_point(s, chain(s, depth, draws))
            return [omega.scale, omega.residues, tl.fiber_block_contents(s, omega, l, resolution, blocks)]

        add("fiber_block_contents", "%s, %d, %d, %d" % (draws[:depth], l, resolution, blocks), fiber)
    depth, draws, offset = rng.randint(1, 4), [rng.random() for _ in range(4)], rng.randint(-2, 2)
    rule = "rule %s %+d" % (draws[:depth], offset)
    limit = lambda: tl.branch_rule(s, chain(s, depth, draws), block_offset=offset)
    add("phi_prefix", "%s, %d" % (rule, depth), lambda: tl.phi_prefix(s, limit(), depth).residues)
    lo, hi, m, n = position(rng), rng.randint(0, 24), rng.randint(1, 6), rng.randint(-40, 40)
    hi += lo
    add("pair_report", "%s, shift %d, %d, (%d, %d), %d" % (rule, n, depth, lo, hi, m),
        lambda: report(tl.pair_report(s, limit(), tl.Shift(n), depth, [(lo, hi)], m)))
    j, m = position(rng), rng.randint(0, 6)
    add("eval_element", "shift %d, %d, %d" % (n, j, m), lambda: tl.eval_element(s, tl.Shift(n), j, m))
    add("eval_element", "%s, %d, %d" % (rule, j, m), lambda: tl.eval_element(s, limit(), j, m))
    stop, values = rng.randint(1, 6), [rng.choice((3, 4, 19, -5)) for _ in range(6)]
    add("eval_element", "limit %s below %d, %d, %d" % (values, stop, j, m),
        lambda: tl.eval_element(s, tl.ShiftLimit(lambda k: values[k - 1], k_stop=stop), j, m))
    return calls


def report(r):
    return [r.phi_agreement_depth, [[c.window, c.resolved_differences, c.difference_positions, c.unresolved]
                                    for c in r.censuses]]


def pattern_calls(rng, n):
    """``n`` compositions and code images of random patterns, unrelated to any schedule."""
    calls = []
    for _ in range(n):
        letters = rng.choice(("ab", "abc"))
        outer = "".join(rng.choice(letters + "??") for _ in range(rng.randint(1, 8)))
        inner = random_seed_word(rng, letters)
        code = random_code(rng, letters, rng.randint(0, 2))
        calls.append(("compose_fill(%s, %s)" % (outer, inner.symbols),
                      answer(lambda: tl.compose_fill(tl.PeriodicPattern(outer), inner).symbols)))
        calls.append(("apply_code(%s, %s)" % (code_label(code), outer),
                      answer(lambda: tl.apply_code(code, tl.PeriodicPattern(outer)).symbols)))
    return calls


def small_levels(s):
    """The levels from 1 on whose period is at most 4096, up to level 5."""
    out = []
    for l in range(1, 6):
        try:
            if s.period(l) > 4096:
                break
        except ToeplitzError:
            break
        out.append(l)
    return out


def window_code(s, l, r, count, radius):
    """A code of ``radius`` mapping to one letter the windows centred on ``r + m * p_l``, m < ``count``,
    that resolve at depth l + 2, and every other window to another letter, as ``build_isolating_code``
    lists its table: at level l those windows reach holes."""
    letter, *others = s.alphabet.letters
    p, table = s.period(l), {}
    for m in range(count):
        j = r + m * p
        window = tl.resolve_window(s, j - radius, j + radius + 1, l + 2)
        if tl.HOLE not in window:
            table[window] = letter
    return tl.SlidingBlockCode(s.alphabet, radius, table, default=others[0])


def factor_calls(rng, key, s):
    """Factor images of wide window codes, ``factor_residues`` and ``hole_tree`` on the schedule ``s``."""
    calls = []

    def add(name, args, fn):
        calls.append(("%s(%s, %s)" % (name, key, args), answer(fn)))

    levels = small_levels(s)
    for _ in range(2 if levels else 0):
        l, radius, count = rng.choice(levels), rng.randint(16, 64), rng.randint(1, 6)
        r = rng.randrange(s.period(l))
        add("apply_code", "radius %d, %d windows at %d mod p_%d, level %d" % (radius, count, r, l, l),
            lambda: tl.apply_code(window_code(s, l, r, count, radius), s.pattern(l)).symbols)
    for _ in range(2):
        code = random_code(rng, s.alphabet.letters, rng.randint(0, 1))
        levels = sorted(rng.sample(range(1, 5), rng.randint(1, 2)))
        depth = levels[-1] + rng.randint(0, 2)
        add("factor_residues", "%s, %s, %d" % (code_label(code), levels, depth),
            lambda: [[f.modulus, f.nonperiodic, f.undetermined] for f in tl.factor_residues(code, s, levels, depth)])
    depth = rng.randint(1, 5)
    resolution = depth + rng.randint(0, 3)
    add("hole_tree", "%d, %d" % (depth, resolution),
        lambda: [[[r, "".join(sorted(v))] for r, v in sorted(level.items())]
                 for level in tl.hole_tree(s, depth, resolution).levels])
    return calls


def hole_chain(s, levels, x):
    """The position that seeds 1..``levels`` all leave a hole at, with rank ``x`` among the level's holes."""
    for l in range(levels, 0, -1):
        w = s.seed(l)
        block, k = divmod(x, w.hole_count)
        x = block * len(w) + w.holes[k]
    return x


def chain_levels(s, top):
    """How many seeds from seed 1 on, at most ``top``, all hold holes: the depth of the schedule's hole chains."""
    for l in range(1, top + 1):
        try:
            if not s.seed(l).hole_count:
                return l - 1
        except ToeplitzError:
            return l - 1
    return top


#: deepest hole chain walked per schedule: ex3.5's seed l has 4^l + 2^(l + 1) letters
CHAIN_TOP = {"ex3.5": 8, "ex4.4": 12, "ex4.4-mini": 12}


def chain_calls(rng, key, make):
    """Cold ``evaluate`` and ``resolve_window`` calls around hole chains of the schedule ``make()`` builds,
    one schedule per call, and its ``hole_counts`` and ``scale``, refusals past the cap included."""
    calls = []

    def add(name, args, fn):
        calls.append(("%s(%s, %s)" % (name, key, args), answer(lambda: fn(make()))))

    top = chain_levels(make(), CHAIN_TOP.get(key, 15))
    for _ in range(3 if top else 0):
        l = rng.randint(max(1, top - 6), top)
        j = hole_chain(make(), l, rng.randrange(4 ** l)) + rng.randint(-60, 60)
        m = l + rng.randint(-1, 2)
        add("evaluate", "%d, %d" % (j, m), lambda s: tl.evaluate(s, j, m))
        lo, m = j - rng.randint(0, 60), l + rng.randint(-1, 2)
        add("resolve_window", "%d, %d, %d" % (lo, lo + 121, m), lambda s: tl.resolve_window(s, lo, lo + 121, m))
    # past level 20 a gallery entry's seeds run to millions of letters, so only the small seeds of the
    # random schedules are read that far
    far = key not in GALLERY_NAMES
    for r in (rng.randint(0, min(top, 12) + 2),) + ((rng.randint(24, 60),) if far else ()):
        add("hole_counts", r, lambda s: tl.words.hole_counts(s, r))
    for d in (rng.randint(0, min(top, 10) + 2),) + ((rng.randint(24, 60),) if far else ()):
        add("scale", d, lambda s: s.scale(d))
    return calls


def draw_corpus(seed):
    """The schedules' descriptions and the (label, answer) pairs, in drawing order."""
    rng = random.Random(seed)
    makers = {name: (name, lambda name=name: tl.gallery(name)) for name in GALLERY_NAMES}
    makers.update(random_schedules(rng, 6))
    schedules = {key: (text, make()) for key, (text, make) in makers.items()}
    calls = [c for key, (_, s) in schedules.items() for c in schedule_calls(rng, key, s)]
    calls += pattern_calls(rng, 10)
    rng = random.Random(seed + 1)
    calls += [c for key, (_, s) in schedules.items() for c in factor_calls(rng, key, s)]
    rng = random.Random(seed + 2)
    makers["growing"] = ("ab, seed rule: a??b? at every level, 3^l holes per period",
                         lambda: tl.FillingSchedule(tl.BINARY, lambda l: tl.SeedWord("a??b?")))
    calls += [c for key, (_, make) in makers.items() for c in chain_calls(rng, key, make)]
    return {key: text for key, (text, _) in makers.items()}, calls


def corpus_text():
    descriptions, calls = draw_corpus(SEED)
    return '{"seed": %d,\n "schedules": %s,\n "calls": [\n%s\n]}\n' % (
        SEED, json.dumps(descriptions, indent=1), ",\n".join(json.dumps(list(c)) for c in calls))


def test_corpus_answers_match_the_recorded_ones():
    recorded = json.loads(CORPUS.read_text())
    descriptions, calls = draw_corpus(recorded["seed"])
    assert descriptions == recorded["schedules"]
    assert [label for label, _ in calls] == [label for label, _ in recorded["calls"]]
    moved = [(label, want, got) for (label, got), (_, want) in zip(calls, recorded["calls"]) if got != want]
    assert not moved, moved[:10]


if __name__ == "__main__":
    CORPUS.write_text(corpus_text())
    print("wrote %s" % CORPUS, file=sys.stderr)
