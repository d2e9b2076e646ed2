"""Built-in schedule constructions with their structural declarations.

Each entry regenerates deterministically from its parameters.  The
declarations (single hole per period, block-filling structure, separated
holes, a closed-form boundary) are facts the construction is designed to
satisfy; the analysis layer re-checks them at depth before leaning on
them.
"""

from __future__ import annotations

from functools import lru_cache
from math import inf

from .errors import BadParams
from .factors import SlidingBlockCode
from .periodicity import prime_exponents
from .words import Alphabet, BINARY, FillingSchedule, SeedWord

# order-6 binary de Bruijn word with one letter of its trailing run opened up
_W3_LITERAL = "aaaaaabaaaabbaaababaaabbbaabaababbaabbabaabbbbabababbbabbabb?bbb"


@lru_cache(maxsize=None)
def de_bruijn(order: int, variant: str = "canonical") -> str:
    """A binary de Bruijn word of the given order, ending in a run of b's.

    The canonical variant concatenates the lexicographically sorted binary
    necklace representatives, which starts with a^order and ends with
    b^order.  The "literal" variant returns the fixed order-6 word used by
    the ex4.4 construction (de Bruijn words are not unique; this one is
    pinned for reproducibility).
    """
    if order < 1:
        raise BadParams("order must be >= 1")
    if variant == "literal":
        if order != 6:
            raise BadParams("the literal variant is pinned to order 6")
        return _W3_LITERAL.replace("?", "b")
    if variant != "canonical":
        raise BadParams("unknown variant %r" % variant)
    a = [0] * (order + 1)
    seq: list[int] = []

    def gen(t: int, p: int):
        if t > order:
            if order % p == 0:
                seq.extend(a[1: p + 1])
        else:
            a[t] = a[t - p]
            gen(t + 1, p)
            for j in range(a[t - p] + 1, 2):
                a[t] = j
                gen(t + 1, t)

    gen(1, 1)
    return "".join("ab"[c] for c in seq)


def punch_trailing_run(word: str, run: int) -> str:
    """Open one position of the trailing b-run (neither its first nor last)."""
    if not word.endswith("b" * run) or run < 3:
        raise BadParams("word must end with a b-run of length >= 3")
    i = len(word) - 2
    return word[:i] + "?" + word[i + 1:]


def _ex43_seed(l: int) -> SeedWord:
    # odd levels insert paired holes, even levels close every other one
    k = (l + 1) // 2
    if l % 2 == 1:
        return SeedWord("a" * 2 ** (k - 1) + "??" * 2 ** (k - 1) + "b" * 2 ** (k - 1))
    return SeedWord("aa" * 2 ** (k - 1) + "?a" * 2 ** (k - 1) + "?b" * 2 ** (k - 1) + "bb" * 2 ** (k - 1))


def _ex57_seed(l: int) -> SeedWord:
    if l == 1:
        return SeedWord("a??b")
    first = "aa" + "ab" * (2 ** (l - 2) - 1)
    last = "bb" + "ba" * (2 ** (l - 2) - 1)
    return SeedWord(first + "?" * 2 ** l + last)


def _ex35_seed(l: int) -> SeedWord:
    def u(i: int) -> str:
        return "".join("b" if j == i else "a" for j in range(1, 2 ** l + 1))

    first = "".join(u(i) for i in range(1, 2 ** (l - 1) + 1))
    last = "".join(u(i) for i in range(2 ** (l - 1) + 1, 2 ** l + 1))
    return SeedWord(first + "?" * 2 ** (l + 1) + last)


def _ex44_seed(l: int, literal_first: bool) -> SeedWord:
    # orders grow linearly: 3, 4, 5, ... (the literal first seed has order 6)
    if l == 1 and literal_first:
        return SeedWord(_W3_LITERAL)
    order = l + 2
    return SeedWord(punch_trailing_run(de_bruijn(order), order))


def _williams_schedule(letters: str, ratios: tuple[int, ...], alphabet: Alphabet) -> FillingSchedule:
    if any(r < 4 for r in ratios):
        raise BadParams("every period ratio must be >= 4")
    if set(letters) - set(alphabet.letters):
        raise BadParams("letter cycle uses characters outside the alphabet")
    if set(letters) != set(alphabet.letters):
        raise BadParams("letter cycle must visit every letter (it repeats cyclically)")

    def ratio(l: int) -> int:
        return ratios[(l - 1) % len(ratios)]

    def seed(l: int) -> SeedWord:
        a = letters[(l - 1) % len(letters)]
        if l == 1:
            return SeedWord(a + "?" * (ratio(1) - 2) + a, alphabet)
        # two of the ratio(k) blocks get filled at step k, the rest stay open
        h = 1
        for k in range(1, l):
            h *= ratio(k) - 2
        return SeedWord(a * h + "?" * ((ratio(l) - 2) * h) + a * h, alphabet)

    return FillingSchedule(
        alphabet,
        seed,
        max_levels=None,
        declarations={
            "oxtoby": True,
            "constant_on_aper": True,
            "fiber_bound": len(alphabet),
            "prime_profile": {q: inf for r in ratios for q in prime_exponents(r)},
        },
        name="williams(letters=%s, ratios=%s)" % (letters, ",".join(map(str, ratios))),
    )


def gallery(name: str, **params) -> FillingSchedule:
    """A named construction; identical name and params give identical schedules."""
    if name in ("ex4.3", "sec2.2"):
        return FillingSchedule(
            BINARY,
            _ex43_seed,
            max_levels=None,
            declarations={
                "boundary_singleton": True,
                "boundary_branch": "ones",  # residues (4^l - 1) / 3
                "prime_profile": {2: inf},
            },
            name=name,
        )
    if name == "ex5.7":
        return FillingSchedule(
            BINARY,
            _ex57_seed,
            max_levels=None,
            declarations={"oxtoby": True, "prime_profile": {2: inf}},
            name=name,
        )
    if name == "ex3.5":
        return FillingSchedule(
            BINARY,
            _ex35_seed,
            max_levels=None,
            declarations={"oxtoby": True},
            name=name,
        )
    if name == "ex4.4":
        return FillingSchedule(
            BINARY,
            lambda l: _ex44_seed(l, literal_first=True),
            max_levels=None,
            declarations={"single_hole": True, "bounded_holes": 1, "prime_profile": {2: inf}},
            name=name,
        )
    if name == "ex4.4-mini":
        return FillingSchedule(
            BINARY,
            lambda l: _ex44_seed(l, literal_first=False),
            max_levels=None,
            declarations={"single_hole": True, "bounded_holes": 1, "prime_profile": {2: inf}},
            name=name,
        )
    if name == "williams":
        alphabet = Alphabet(str(params.get("alphabet", "ab")))
        letters = str(params.get("letters", alphabet.letters))
        raw = params.get("ratios", params.get("ratio", 4))
        try:
            if isinstance(raw, (int, str)):
                ratios = tuple(int(x) for x in str(raw).split(","))
            else:
                ratios = tuple(int(x) for x in raw)
        except (TypeError, ValueError):
            raise BadParams("ratios must be integers, got %r" % (raw,)) from None
        return _williams_schedule(letters, ratios, alphabet)
    raise BadParams("unknown gallery entry %r" % name)


GALLERY_NAMES = ("sec2.2", "ex3.5", "williams", "ex4.3", "ex4.4", "ex4.4-mini", "ex5.7")


def gallery_code(name: str):
    """The sliding block code attached to a gallery construction."""
    if name == "ex5.7":
        code = SlidingBlockCode.from_fn(BINARY, 1, lambda w: "a" if w == "aaa" else "b")
        return code
    raise BadParams("no code attached to gallery entry %r" % name)


def proximal_shift_pair(l: int) -> tuple[int, int]:
    """Shift amounts of the standard proximal-but-not-asymptotic pair on ex5.7.

    The first shift sums c_i * 4^i with c alternating 2, 1, ...; the second
    displaces it by three level-(l+1) periods.
    """
    k = 0
    for i in range(l + 1):
        k += (2 if i % 2 == 0 else 1) * 4 ** i
    return k, k + 3 * 4 ** (l + 1)
