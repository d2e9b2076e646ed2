"""Seeded inputs of the three benchmark workloads, and the calls that run them.

Every workload is a list of items.  An item is one closed-loop call into
the public API or the CLI, and its output is a string whose SHA-256 is
compared with the reference stored in ``references.json``.

Inputs come from pools.  A pool entry is named by a key such as
``pointwise/evaluate/ex5.7/3`` and its inputs are generated from
``random.Random(key)``, so the key alone fixes them.  The run seed
chooses which entries of each pool a run draws and the order of all
items, so the same seed gives the same inputs and a different seed
different ones, while references exist for every entry any seed can
draw.  Entries of one pool cost about the same, which keeps the time of
a pass nearly independent of the seed.

Nothing here imports ``toeplitz_lab`` at module level: ``load_library``
does, so that the set-up probe can time the import.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import random
import types
from dataclasses import dataclass
from typing import Callable

WORKLOADS = ("verify", "pointwise", "cli-session")
POOL_FACTOR = 4  # pool entries per entry drawn by one seed, for seeded menu entries


@dataclass(frozen=True)
class Item:
    key: str
    run: Callable[[], str]


def load_library():
    """The toeplitz_lab modules, looked up by attribute at call time.

    The package re-exports the function ``gallery`` under the name of its
    module, so modules are taken from ``importlib`` rather than attributes.
    """
    names = ("words", "periodicity", "odometer", "boundary", "factors", "elements",
             "complexity", "gallery", "checks", "cli", "errors")
    return types.SimpleNamespace(**{n: importlib.import_module("toeplitz_lab." + n) for n in names})


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def build(workload: str, lib, seed: int, full_pool: bool = False) -> list[Item]:
    """The items of one run, or with ``full_pool`` every entry any seed can draw."""
    menu = {"verify": _verify_menu, "pointwise": _pointwise_menu, "cli-session": _cli_menu}[workload](lib)
    rng = random.Random("%s:%d" % (workload, seed))
    items = []
    for name, make, drawn, pool in menu:
        chosen = range(pool) if full_pool else rng.sample(range(pool), drawn)
        for i in chosen:
            key = "%s/%s/%d" % (workload, name, i)
            items.append(Item(key, make(random.Random(key), i)))
    if not full_pool and workload != "verify":
        rng.shuffle(items)
    return items


# -- verify -------------------------------------------------------------------


def cli_call(lib, argv) -> Callable[[], str]:
    """One ``toeplitz-lab`` invocation; its exit code and both streams are the output."""
    def run() -> str:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = lib.cli.main(list(argv))
        return "exit=%d\n%s%s" % (code, out.getvalue(), err.getvalue())
    return run


def _verify_menu(lib):
    # one item per registered check, in the order ``verify`` runs them: the
    # registry fixes this workload's inputs, so the seed changes nothing
    return [(cid, lambda rng, i, cid=cid: cli_call(lib, ["verify", cid, "--format", "json"]), 1, 1)
            for cid in lib.checks.available_checks()]


def check_id(key: str) -> str:
    """The check a ``verify`` item runs."""
    return key.split("/")[1]


def verify_results(outputs: dict[str, str]) -> dict:
    """The ``results`` object one ``verify --format json`` call over all checks prints.

    ``outputs`` maps item keys to the output of ``verify <check> --format
    json``; the per-check results are merged the way ``cmd_verify`` builds
    them, so the digest can be compared with one of the full report.
    """
    passed, failed, details = 0, [], {}
    for text in outputs.values():
        rep = json.loads(text[text.index("{"):])
        passed += rep["results"]["passed"]
        failed += rep["results"]["failed"]
        details.update(rep["results"]["details"])
    return {"passed": passed, "failed": sorted(failed), "details": details}


# -- pointwise ------------------------------------------------------------------

# Depth caps: every level of ex5.7 and williams doubles the seed length and
# holds half holes, so a rare position resolving deep costs as much as
# thousands of shallow ones; a cap at 12 keeps the cost per entry steady.
EVAL_DEPTH = {"ex4.4": 24, "ex3.5": 24, "ex4.3": 24, "ex5.7": 12, "williams": 12}
EVAL_POSITIONS = 4000
WINDOW_WIDTH = 40000
PHI_CALLS = 300
SPARSE_CODES = 8


def _typed(lib, fn, *args, **kwargs) -> str:
    """The call's output as text, or the name of the typed error it raised."""
    try:
        return canonical_json(lib.cli.to_jsonable(fn(*args, **kwargs)))
    except lib.errors.ToeplitzError as exc:
        return "error %s: %s" % (type(exc).__name__, exc)


def _random_branch(schedule, depth: int, rng) -> tuple[int, ...]:
    chain: list[int] = []
    for l in range(1, depth + 1):
        holes = schedule.holes(l)
        if chain:
            p = schedule.period(l - 1)
            holes = [r for r in holes if r % p == chain[-1]]
        chain.append(rng.choice(holes))
    return tuple(chain)


def _pointwise_menu(lib):
    g, w, el, od, fa = lib.gallery, lib.words, lib.elements, lib.odometer, lib.factors

    def evaluate(name):
        def make(rng, i):
            positions = [rng.randint(-10 ** 12, 10 ** 12) for _ in range(EVAL_POSITIONS)]
            depth = EVAL_DEPTH[name]

            def run():
                s = g.gallery(name)
                return "".join(c or "?" for c in (w.evaluate(s, j, depth) for j in positions))
            return run
        return make

    def resolve_window(rng, i):
        lo = rng.randint(-10 ** 12, 10 ** 12)
        # period(5) of ex4.4 is 2^28, past PATTERN_CAP: the window falls back to evaluate
        return lambda: w.resolve_window(g.gallery("ex4.4"), lo, lo + WINDOW_WIDTH, 5)

    def pair_report(l):
        def make(rng, i):
            n1, n2 = g.proximal_shift_pair(l)
            c = rng.randint(-10 ** 6, 10 ** 6)
            return lambda: _typed(lib, el.pair_report, g.gallery("ex5.7"), el.Shift(n1), el.Shift(n2),
                                  depth=l + 1, windows=[(c - 4 ** l, c + 4 ** l)], eval_level=l + 4)
        return make

    def fiber_prefix_count(l):
        def make(rng, i):
            omega = od.branch_point(g.gallery("ex5.7"), _random_branch(g.gallery("ex5.7"), l, rng))
            return lambda: _typed(lib, el.fiber_prefix_count, g.gallery("ex5.7"), omega, l,
                                  depth=l + 3, block_range=40)
        return make

    def phi_prefix(name):
        def make(rng, i):
            setup = g.gallery(name)
            rules = [(_random_branch(setup, 6, rng), rng.randrange(8)) for _ in range(PHI_CALLS)]

            def run():
                s = g.gallery(name)
                return "\n".join(_typed(lib, od.phi_prefix, s, el.branch_rule(s, br, block_offset=off), 6)
                                 for br, off in rules)
            return run
        return make

    def factor_sparse(rng, i):
        codes = []
        for _ in range(SPARSE_CODES):
            radius = rng.choice((0, 1, 2))
            codes.append(fa.SlidingBlockCode.from_fn(w.BINARY, radius, lambda _w: rng.choice("ab")))

        def run():
            # ex4.4 at depth 7 has period 2^45: every call takes the sparse route
            s = g.gallery("ex4.4")
            return "\n".join(_typed(lib, fa.factor_aperiodic_residues, code, s, l, 7)
                             for code in codes for l in range(1, 6))
        return run

    menu = [("evaluate/" + name, evaluate(name), 12) for name in EVAL_DEPTH] + [
        ("resolve_window/ex4.4", resolve_window, 10),
        ("pair_report/l5", pair_report(5), 6),
        ("pair_report/l6", pair_report(6), 2),
        ("fiber_prefix_count/l5", fiber_prefix_count(5), 6),
        ("phi_prefix/ex3.5", phi_prefix("ex3.5"), 3),
        ("phi_prefix/ex5.7", phi_prefix("ex5.7"), 3),
        ("factor_sparse/ex4.4", factor_sparse, 8),
    ]
    return [(name, make, drawn, drawn * POOL_FACTOR) for name, make, drawn in menu]


# -- cli-session ---------------------------------------------------------------

CLI_FIXED = (
    "analyze ex4.4 --depth 3",
    "analyze ex4.3 --depth 8",
    "analyze ex3.5 --depth 4",
    "boundary ex4.3 --depth 8 --resolution 10",
    "boundary ex3.5 --depth 4",
    "factor ex5.7 --code ex5.7 --depth 3",
    "factor ex5.7 --code ex5.7 --depth 4",
    "factor ex5.7 --code ex5.7 --depth 5",
)


def _cli_menu(lib):
    def call(text_of):
        return lambda rng, i: cli_call(lib, text_of(rng, i).split() + ["--format", "json"])

    def lengths(rng, lo, hi, k):
        return ",".join(map(str, sorted(rng.sample(range(lo, hi), k))))

    def build(rng, i):
        name = rng.choice(("ex4.3", "ex5.7", "ex3.5", "ex4.4-mini"))
        lo = rng.randint(-10 ** 6, 10 ** 6)
        return "build %s --level %d --window=%d:%d" % (name, rng.randint(2, 4), lo, lo + 256)

    def eval_(rng, i):
        name = rng.choice(("ex4.3", "ex5.7", "ex3.5", "ex4.4", "ex4.4-mini", "williams"))
        return "eval %s %d --depth %d" % (name, rng.randint(-10 ** 12, 10 ** 12), rng.randint(4, 12))

    def pair(rng, i):
        return "pair ex5.7 --shifts %d %d --depth %d --window-half %d" % (
            rng.randint(-10 ** 6, 10 ** 6), rng.randint(-10 ** 6, 10 ** 6),
            rng.randint(3, 5), rng.choice((64, 128)))

    def williams(rng, i):
        # ratios below 4 are refused with a typed error, which is an expected output
        ratios = ",".join(str(rng.randint(3, 9)) for _ in range(rng.randint(1, 3)))
        return "gallery williams --param ratios=%s --levels 5" % ratios

    fixed = [("fixed-%d" % k, call(lambda rng, i, t=text: t), 1, 1) for k, text in enumerate(CLI_FIXED)]
    seeded = [
        ("complexity-decomposition", call(lambda rng, i: "complexity ex4.4-mini --mode decomposition "
                                          "--lengths %s,1024" % lengths(rng, 8, 64, 2)), 2),
        ("complexity-window", call(lambda rng, i: "complexity ex5.7 --lengths %s --depth 6"
                                   % lengths(rng, 4, 128, 3)), 2),
        ("pair", call(pair), 4),
        ("build", call(build), 4),
        ("eval", call(eval_), 6),
        ("gallery", call(williams), 3),
    ]
    return fixed + [("analyze-ex5.7", call(lambda rng, i: "analyze ex5.7 --depth %d" % (4 + i)), 1, 3)] + [
        (name, make, drawn, drawn * POOL_FACTOR) for name, make, drawn in seeded]
