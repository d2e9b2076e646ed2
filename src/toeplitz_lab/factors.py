"""Sliding block codes and factor-word analysis.

A code maps each window of width 2J+1 to a letter: a default letter,
except for the windows its table lists.  Applying it to a partially
resolved pattern outputs a letter only when every completion of the
window agrees; otherwise the output is a hole, so factor analysis
composes with the three-valued periodicity machinery.  Residue
classification of a factor word distinguishes certified-nonperiodic
residues (two differing resolved outputs) from the undetermined
shadows that a code's holes cast.  It has one route at every depth:
the windows near a level's holes, filled with the words their runs of
holes show at the resolution depth, read by seed arithmetic.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import product

from .boundary import IsolationKind, IsolationVerdict
from .errors import (
    NotIsolated,
    NotOxtoby,
    PatternTooLarge,
    ToeplitzError,
    UnknownLetters,
    UnresolvedWindow,
)
from .periodicity import check_oxtoby
from .words import HOLE, PATTERN_CAP, Alphabet, FillingSchedule, PeriodicPattern, evaluate, fill_holes, resolve_window
from .words import hole_class_letters, hole_counts, hole_positions, window_hashes


class SlidingBlockCode:
    """A local rule of radius J: a ``default`` letter, and a ``table`` of the windows that map elsewhere.

    Without a default the given table must list every window of width
    2J+1; the default then becomes the letter most of them map to, the
    first in alphabet order on a tie.  Either way ``table`` keeps only
    the windows whose letter differs from ``default``.
    """

    def __init__(self, alphabet: Alphabet, radius: int, table: dict[str, str], default: str | None = None):
        width = _window_width(radius)
        letters = set(alphabet.letters)
        for k, v in table.items():
            if len(k) != width or not letters.issuperset(k) or v not in alphabet:
                raise ToeplitzError("bad table entry %r -> %r" % (k, v))
        if default is not None and default not in alphabet:
            raise ToeplitzError("default %r must be a letter of the alphabet" % (default,))
        # a nonempty table's keys now bound the width, so the power below stays small
        if default is None and (not table or len(table) != len(alphabet) ** width):
            raise ToeplitzError("table has %d entries, needs one per window of width %d" % (len(table), width))
        if default is None:
            outputs = list(table.values())
            default = max(alphabet.letters, key=outputs.count)  # max keeps the first on a tie
        self.alphabet = alphabet
        self.radius = radius
        self.table = {k: v for k, v in table.items() if v != default}
        self.default = default

    def __call__(self, window: str) -> str:
        return self.table.get(window, self.default)

    @classmethod
    def from_fn(cls, alphabet: Alphabet, radius: int, fn) -> "SlidingBlockCode":
        """The code mapping each window ``w`` to ``fn(w)``, refused before any window is listed
        when the |A|^(2J+1) windows, or their width, pass ``PATTERN_CAP``."""
        width = _window_width(radius)
        # past the cap's bit length the power passes the cap for two letters or more, so it stays small
        if len(alphabet) ** min(width, PATTERN_CAP.bit_length()) > PATTERN_CAP:
            raise PatternTooLarge("radius %d: a table of every window of width 2 * radius + 1 over %d letters "
                                  "passes %d windows" % (radius, len(alphabet), PATTERN_CAP))
        table = {"".join(w): fn("".join(w)) for w in product(alphabet.letters, repeat=width)}
        return cls(alphabet, radius, table)


def _window_width(radius: int) -> int:
    """The window width 2J+1 of a code of radius J, refused outside 1..``PATTERN_CAP``."""
    width = 2 * radius + 1
    if radius < 0 or width > PATTERN_CAP:
        raise ToeplitzError("radius %d: the window width 2 * radius + 1 must lie in 1..%d" % (radius, PATTERN_CAP))
    return width


def code_output(code: SlidingBlockCode, window: str) -> str:
    """The letter all completions of ``window`` give under the code, or the hole marker.

    Whichever costs less runs: looking up each of the |A|^holes
    completions, at the window's width each, or filtering the listed
    windows by the resolved runs between the holes, one prefix test per
    listed window and run.  The filter keeps the listed completions, and
    :func:`_window_output` reads the window's output from them.
    """
    if HOLE not in window:
        return code(window)
    if not code.table:
        return code.default  # no need to split the window: every completion maps to the default
    letters, holes, n = code.alphabet.letters, window.count(HOLE), len(code.table)
    cost = n * (holes + 1)  # the filter's prefix tests, one per listed window and run
    # |A|^holes > cost once holes passes the bit length of cost, so the power stays small
    if holes <= cost.bit_length() and len(letters) ** holes * len(window) <= cost:
        outputs = {code(fill_holes(window, fill)) for fill in product(letters, repeat=holes)}
        return outputs.pop() if len(outputs) == 1 else HOLE
    listed, pos = list(code.table), 0
    for run in window.split(HOLE):
        if run:
            listed = [u for u in listed if u.startswith(run, pos)]
        pos += len(run) + 1
    return _window_output(code, [code.table[u] for u in listed], holes)


def _window_output(code: SlidingBlockCode, letters: list[str], holes: int) -> str:
    """The output of a window with ``holes`` holes whose compatible table words map to ``letters``.

    The compatible words are distinct completions of the window; when
    they are fewer than all |A|^holes of them, some completion is not
    listed and maps to the default.
    """
    outputs = set(letters)
    # past the table's bit length in holes the words are fewer than the completions, so the power stays small
    if holes > len(code.table).bit_length() or len(letters) < len(code.alphabet) ** holes:
        outputs.add(code.default)
    return outputs.pop() if len(outputs) == 1 else HOLE


def apply_code(code: SlidingBlockCode, pat: PeriodicPattern) -> PeriodicPattern:
    """Image of a level pattern under the code, holes where completions disagree.

    The image is built chunk by chunk.  The windows starting in
    [c, c + n) read only the n + 2J letters from c, the chunk's stretch,
    so each distinct stretch is imaged once and its repeats reuse that
    image.  The chunk length is the least power of two above 2J and at
    least 64 (the whole period if shorter): a Toeplitz pattern repeats
    almost everywhere, and with power-of-two level periods its chunks
    repeat whole.  :func:`_chunk_image` images a stretch, with one
    bit-parallel pass per table word where the table is shorter than the
    stretch's count of windows that reach a hole, and one
    :func:`code_output` call per such window otherwise.  Listed words that
    occur nowhere are not searched for chunk by chunk.
    """
    J, p = code.radius, pat.period
    text = pat.window(-J, p + J)  # the window centred on j starts at j
    L = min(p, 1 << max(6, (2 * J).bit_length()))
    ids: dict[str, int] = {}  # distinct stretch -> its index, for this call only
    order = [ids.setdefault(text[c: c + L + 2 * J], len(ids)) for c in range(0, p, L)]
    # a listed word holds no hole, so one found in either string lies inside a stretch
    seen = min(text, HOLE.join(ids), key=len)
    listed = [(u, v) for u, v in code.table.items() if u in seen]
    images = [_chunk_image(code, listed, s, len(s) - 2 * J) for s in ids]
    return PeriodicPattern("".join([images[i] for i in order]))


def _chunk_image(code: SlidingBlockCode, listed: list[tuple[str, str]], text: str, n: int) -> str:
    """Outputs of the windows starting at 0..n-1 of ``text``, which holds n + 2J letters.

    ``listed`` holds the table entries whose word occurs in the pattern.
    The stretch takes one of two routes, by a fixed rule:

    - when the table is shorter than the stretch's count of windows that
      reach a hole, the bitsets of :func:`_fitting_starts` image every
      window at once, one pass per table word;
    - otherwise a window that reaches no hole maps to ``table[u]`` exactly
      where a listed word ``u`` occurs, found with ``str.find``, and to
      ``default`` elsewhere, and each window that reaches a hole is read
      by :func:`code_output`.  A stretch without holes always takes this
      route.
    """
    width = 2 * code.radius + 1
    holes = hole_positions(text)
    reach, done = [], 0  # the starts whose window reaches a hole, as disjoint ranges
    for h in holes:
        reach.append(range(max(done, h - width + 1), min(h + 1, n)))
        done = h + 1
    if len(code.table) < sum(map(len, reach)):
        special = _fitting_starts(code, text, holes)
    else:
        special = {}  # window start -> output, where it may differ from ``default``
        for u, v in listed:
            s = text.find(u)
            while s >= 0:
                special[s] = v
                s = text.find(u, s + 1)
        for starts in reach:
            for s in starts:
                special[s] = code_output(code, text[s: s + width])
    if not special:
        return code.default * n
    out = [code.default] * n
    for s, v in special.items():
        out[s] = v
    return "".join(out)


def _fitting_starts(code: SlidingBlockCode, text: str, holes: tuple[int, ...]) -> dict[int, str]:
    """The output at every window start of ``text`` where some table word is compatible with the window.

    A word is compatible with a window when each of its letters meets
    that letter or a hole.  Bit j of ``fits[x]`` is set where ``text[j]``
    is x or a hole, so the starts where the word u is compatible are the
    bits of the AND of ``fits[u[i]] >> i`` over its letters, a bit-parallel
    match with wildcards (Baeza-Yates and Gonnet, CACM 1992).  Each start
    then takes :func:`_window_output` of its compatible words, the rule
    :func:`code_output` follows.  Starts not returned map to ``default``.
    """
    width, chars, rev = 2 * code.radius + 1, set(text), text[::-1]
    fits = {x: int(rev.translate({ord(c): "1" if c in (x, HOLE) else "0" for c in chars}), 2)
            for x in code.alphabet.letters}
    found: dict[int, list[str]] = {}  # start -> the letters of the words compatible there
    for u, v in code.table.items():
        d = fits[u[-1]] >> (width - 1)  # its bits lie at the starts with room for u
        for i in range(width - 2, -1, -1):
            if not d:
                break
            d &= fits[u[i]] >> i
        bits = format(d, "b")[::-1]  # bit s at index s
        s = bits.find("1")
        while s >= 0:
            found.setdefault(s, []).append(v)
            s = bits.find("1", s + 1)
    return {s: _window_output(code, letters, bisect_left(holes, s + width) - bisect_left(holes, s))
            for s, letters in found.items()}


@dataclass(frozen=True)
class FactorResidues:
    """Classification of a factor word's residues modulo one level period."""

    modulus: int
    nonperiodic: tuple[int, ...]
    undetermined: tuple[int, ...]


def hole_reach(schedule: FillingSchedule, l: int, radius: int) -> list[int]:
    """The residues modulo p_l within ``radius`` of a level-``l`` hole, ascending: the only ones a code
    of that radius can leave open."""
    p, holes = schedule.level_info(l)
    if 2 * radius + 1 >= p:
        return list(range(p)) if holes else []
    return sorted({(x + d) % p for x in holes for d in range(-radius, radius + 1)})


def factor_residues(code, schedule: FillingSchedule, levels, depth: int) -> list[FactorResidues]:
    """Classify the factor word modulo each level period in ``levels`` at one resolution depth.

    Each :func:`hole_reach` window at level l that :func:`code_output` leaves open is
    filled with every word its run of level-l holes shows at ``depth``
    (``words.hole_class_letters``) and coded: two letters make its class
    nonperiodic, one letter and no hole periodic, anything else undetermined,
    as ``classify_residues`` reads them off the code's image of the depth
    pattern; no pattern or image is built.  Each distinct window, read or
    filled, is coded once per call.  A ``depth`` below a requested
    level is refused; over ``PATTERN_CAP`` hole slots per level up to ``depth`` raise
    PatternTooLarge, worked out before any hole is listed, and a level past the schedule's
    last seed is refused before the next one is listed.
    """
    hole_counts(schedule, schedule.available_levels(depth))  # refuses past the cap before any level is listed
    listed = []
    for l in levels:
        schedule.check_depth(l)
        listed.append(l)
    levels = listed
    if levels and depth < max(levels):
        raise ToeplitzError("resolution depth %d is below level %d" % (depth, max(levels)))
    depth, J = schedule.available_levels(depth), code.radius
    out, coded = [], {}  # (window, its run's words) -> their images; windows repeat along the word
    outputs: dict[str, str] = {}  # window -> its code_output, reach and filled windows alike

    def output(w: str) -> str:
        if w not in outputs:
            outputs[w] = code_output(code, w)
        return outputs[w]

    for l in levels:
        p, reach = schedule.period(l), hole_reach(schedule, l, J)
        # one read of the level's period serves every window when that costs less than a read per
        # window, which costs its width and about 512 letters' worth of setup
        dense = p < min(len(reach) * (2 * J + 513), PATTERN_CAP)
        level = PeriodicPattern(resolve_window(schedule, 0, p, l)) if dense else None
        runs, nonper, undet = {}, [], []  # runs: run length -> level-l hole -> the words that run shows
        for r in reach:
            w = level.window(r - J, r + J + 1) if level else resolve_window(schedule, r - J, r + J + 1, l)
            if output(w) != HOLE:
                continue
            k = w.count(HOLE)
            if k not in runs:
                runs[k] = hole_class_letters(schedule, l, depth, k)
            key = (w, runs[k][(r - J + w.index(HOLE)) % p])
            if key not in coded:
                coded[key] = {output(fill_holes(w, word)) for word in key[1]}
            if len(coded[key] - {HOLE}) > 1:
                nonper.append(r)
            elif HOLE in coded[key]:
                undet.append(r)
        out.append(FactorResidues(p, tuple(nonper), tuple(undet)))
    return out


def factor_aperiodic_residues(code, schedule: FillingSchedule, l: int, depth: int) -> FactorResidues:
    """One level of :func:`factor_residues`: the factor word's residues modulo the level-``l`` period."""
    return factor_residues(code, schedule, [l], depth)[0]


# -- unique residue of long windows ---------------------------------------


@dataclass(frozen=True)
class ResidueSearchCertificate:
    l1: int
    l2: int
    window: tuple[int, int]
    holds: bool
    counterexample: tuple[int, int] | None = None


def unique_residue_search(
    schedule: FillingSchedule, l1: int, l2: int, window: tuple[int, int], depth: int | None = None
) -> ResidueSearchCertificate:
    """Do equal length-p_l2 subwords in the window force equal residues mod p_l1?

    Exhaustive over all start pairs in the window; the scanned stretch
    must resolve fully at the chosen depth.  Equal words have equal
    ``window_hashes``, so the search holds when each hash meets one
    residue mod p_l1.  Otherwise starts are grouped by hash, and each
    pair within a group is confirmed by comparing the words.
    """
    lo, hi = window
    if hi <= lo:
        raise ToeplitzError("window [%d, %d) holds no start" % (lo, hi))
    p1, p2 = schedule.period(l1), schedule.period(l2)
    depth = depth if depth is not None else l2 + 3
    text = resolve_window(schedule, lo, hi + p2, depth)
    if HOLE in text:
        raise UnresolvedWindow(
            "window [%d, %d) not fully resolved at depth %d" % (lo, hi + p2, depth)
        )
    hashes = window_hashes(text, p2, hi - lo)
    if len(set(zip(hashes, (j % p1 for j in range(lo, hi))))) == len(set(hashes)):
        return ResidueSearchCertificate(l1, l2, window, True)
    groups: dict[int, list[int]] = {}
    for j, h in enumerate(hashes, lo):
        groups.setdefault(h, []).append(j)
    for starts in groups.values():
        if len(starts) < 2:
            continue
        for i, j1 in enumerate(starts):
            for j2 in starts[i + 1:]:
                if (j1 - j2) % p1 == 0:
                    continue
                if text[j1 - lo: j1 - lo + p2] == text[j2 - lo: j2 - lo + p2]:
                    return ResidueSearchCertificate(l1, l2, window, False, (j1, j2))
    return ResidueSearchCertificate(l1, l2, window, True)


# -- the isolating construction -------------------------------------------


def build_isolating_code(
    schedule: FillingSchedule,
    branch,
    letter: str,
    l1: int,
    l2: int,
    certificate: IsolationVerdict,
) -> SlidingBlockCode:
    """Code isolating one boundary cylinder.

    Maps to ``letter`` every resolved window of radius p_l2 centred on
    positions of the branch's level-``l1`` class, over three periods of
    level l2 + 1 and resolved at depth l2 + 3, where the word shows
    ``letter``; its default, for every other window, is the first
    alphabet letter different from ``letter``.
    ``certificate``, an ``isolated_value_pair`` verdict, must be
    certified for a branch that ``branch`` extends, and ``l1`` must lie
    in the certified cylinder.
    """
    if letter not in schedule.alphabet:
        raise UnknownLetters("letter %r is not in the alphabet %r" % (letter, schedule.alphabet.letters))
    branch = tuple(branch)
    other = next(c for c in schedule.alphabet if c != letter)
    if certificate.kind is not IsolationKind.CERTIFIED:
        raise NotIsolated("no isolation certificate for the branch: %r" % (certificate,))
    if branch[: len(certificate.branch)] != certificate.branch:
        raise NotIsolated("certificate judged the branch %r, not %r" % (certificate.branch, branch))
    if certificate.level > l1:
        raise NotIsolated("certificate holds at level %d, cannot build at %d" % (certificate.level, l1))

    p1, p2 = schedule.period(l1), schedule.period(l2)
    anchor = branch[l1 - 1]
    depth = l2 + 3

    table: dict[str, str] = {}
    span = max(1, (3 * schedule.period(schedule.available_levels(l2 + 1))) // p1)
    for m in range(span):
        j = anchor + m * p1
        if evaluate(schedule, j, depth) != letter:
            continue
        window = resolve_window(schedule, j - p2, j + p2 + 1, depth)
        if HOLE not in window:
            table[window] = letter
    if not table:
        raise UnresolvedWindow("no resolvable marked window found")
    return SlidingBlockCode(schedule.alphabet, p2, table, default=other)


def factor_obstruction_check(code, schedule: FillingSchedule, depth: int, l0: int) -> list[tuple[int, int]]:
    """Hole growth of a factor of a certified block-filling word.

    Requires the source certificate and a radius resolved at level
    ``l0``; returns (level, factor hole count) pairs, where counts use
    certified-nonperiodic plus undetermined residues at depth + 2: the
    factor's exact hole count wherever nothing is undetermined, and an
    upper bound otherwise.
    """
    if not check_oxtoby(schedule, depth + 1).certified:
        raise NotOxtoby("source word is not block-filling certified")
    if 0 in hole_reach(schedule, l0, code.radius):
        raise ToeplitzError("code radius not resolved at level %d" % l0)
    levels = range(l0, depth + 1)
    residues = factor_residues(code, schedule, levels, depth + 2)
    return [(l, len(res.nonperiodic) + len(res.undetermined)) for l, res in zip(levels, residues)]


# -- code table file format -------------------------------------------------


def code_to_text(code: SlidingBlockCode) -> str:
    lines = ["radius %d" % code.radius]
    lines += ["%s %s" % (k, code.table[k]) for k in sorted(code.table)]
    lines.append("* %s" % code.default)
    return "\n".join(lines) + "\n"


def code_from_text(text: str, alphabet: Alphabet) -> SlidingBlockCode:
    entries = {}
    default = None
    radius = None
    seen = set()  # keys given so far: a repeated one would silently replace the first
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        key, _, value = ln.partition(" ")
        value = value.strip()
        if key in seen:
            raise ToeplitzError("code text gives %r twice" % key)
        seen.add(key)
        if key == "radius":
            try:
                radius = int(value)
            except ValueError:
                raise ToeplitzError("radius must be an integer, got %r" % value) from None
        elif key == "*":
            default = value
        else:
            entries[key] = value
    if radius is None:
        raise ToeplitzError("code text must declare a radius")
    return SlidingBlockCode(alphabet, radius, entries, default)
