"""Command-line front end.

Every subcommand emits a report carrying the schema tag, the exact
parameters used (depth, window, resolution) and its results, either as
stable JSON or as readable text.  ``verify`` replays the named checks
and exits nonzero when any of them fails.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from enum import Enum
from fractions import Fraction
from pathlib import Path

from . import boundary, checks, complexity, elements, factors, periodicity, words
from .errors import BadParams, ToeplitzError
from .gallery import GALLERY_NAMES, gallery as named_gallery, gallery_code, parse_params
from .words import HOLE

SCHEMA = "toeplitz-lab/1"


def to_jsonable(obj):
    if obj is None or type(obj) in (int, str, bool):
        return obj
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: to_jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, Fraction):
        return {"numerator": obj.numerator, "denominator": obj.denominator}
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, float) and obj == float("inf"):
        return "inf"
    return obj


def report(command: str, params: dict, results) -> dict:
    return {
        "schema": SCHEMA,
        "command": command,
        "params": to_jsonable(params),
        "results": to_jsonable(results),
    }


def emit(rep: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(rep, indent=2, sort_keys=True))
        return
    print("# %s %s" % (rep["command"], rep["params"]))
    _emit_text(rep["results"], indent="")


def _emit_text(value, indent: str) -> None:
    if isinstance(value, dict):
        for k, v in value.items():
            if isinstance(v, (dict, list)) and v and not _is_flat(v):
                print("%s%s:" % (indent, k))
                _emit_text(v, indent + "  ")
            else:
                print("%s%s: %s" % (indent, k, _flat(v)))
    elif isinstance(value, list):
        for v in value:
            _emit_text(v, indent) if isinstance(v, dict) else print("%s- %s" % (indent, _flat(v)))
    else:
        print("%s%s" % (indent, value))


def _is_flat(v) -> bool:
    if isinstance(v, list):
        return all(not isinstance(x, (dict, list)) for x in v)
    return False


def _flat(v):
    if isinstance(v, list):
        return "[" + ", ".join(str(x) for x in v) + "]"
    return v


def read_input(path: Path) -> str:
    """An input file's text; a directory or an unreadable file is a ToeplitzError."""
    try:
        return path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ToeplitzError("cannot read %s: %s" % (path, exc)) from None


def load_schedule(spec: str) -> words.FillingSchedule:
    path = Path(spec)
    if path.exists():
        return words.schedule_from_text(read_input(path), name=path.name)
    if spec in GALLERY_NAMES:
        return named_gallery(spec)
    raise ToeplitzError("no such schedule file or gallery entry: %r" % spec)


def load_code(spec: str, alphabet):
    path = Path(spec)
    if path.exists():
        return factors.code_from_text(read_input(path), alphabet)
    return gallery_code(spec)


def parse_window(text: str) -> tuple[int, int]:
    """``lo:hi`` as two integers with lo < hi; argparse reports a bad one as a usage error."""
    lo, _, hi = text.partition(":")
    try:
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError("expected lo:hi with integers lo < hi, got %r" % text) from None
    if hi <= lo:
        raise argparse.ArgumentTypeError("empty window %r: need lo < hi" % text)
    return lo, hi


def parse_lengths(text: str) -> list[int]:
    """Comma-separated positive integers; argparse reports a bad list as a usage error."""
    try:
        lengths = [int(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError("expected comma-separated integers, got %r" % text) from None
    if min(lengths) < 1:
        raise argparse.ArgumentTypeError("lengths must be positive, got %r" % text)
    return lengths


def parse_at_least(lower: int):
    """An argparse type for integers >= ``lower``; argparse reports anything else as a usage error."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = lower - 1
        if value < lower:
            raise argparse.ArgumentTypeError("expected an integer >= %d, got %r" % (lower, text))
        return value

    return parse


def cmd_build(args) -> dict:
    s = load_schedule(args.schedule)
    lo, hi = args.window or (0, min(4 * s.period(args.level), 512))
    lvl = s.level_info(args.level)
    results = {
        "period": lvl.period,
        "holes_per_period": len(lvl.holes),
        "window": words.resolve_window(s, lo, hi, args.level),
    }
    return report("build", {"schedule": args.schedule, "level": args.level, "window": [lo, hi]}, results)


def cmd_eval(args) -> dict:
    s = load_schedule(args.schedule)
    letter = words.evaluate(s, args.position, args.depth)
    return report(
        "eval",
        {"schedule": args.schedule, "position": args.position, "depth": args.depth},
        {"letter": letter if letter is not None else HOLE, "resolved": letter is not None},
    )


def cmd_analyze(args) -> dict:
    s = load_schedule(args.schedule)
    depth = args.depth
    densities = {l: periodicity.periodic_density(s, l) for l in range(1, depth + 1)}
    gaps = {}
    for l in range(1, depth + 1):
        try:
            gaps[l] = periodicity.min_hole_gap(s, l)
        except ToeplitzError:
            gaps[l] = None
    oxt = periodicity.check_oxtoby(s, depth)
    scale = [s.period(l) for l in range(1, depth + 1)]
    cert = periodicity.verify_period_structure(s, scale, depth + 1)
    verdicts = boundary.property_verdicts(s, depth, census_depth=min(depth, 3))
    results = {
        "scale": scale,
        "densities": densities,
        "min_hole_gaps": gaps,
        "block_filling": {"kind": oxt.kind, "level": oxt.level, "reason": oxt.reason},
        "period_structure": cert,
        "finiteness": {"fpc": verdicts.fpc, "hs": verdicts.hs, "fb": verdicts.fb},
    }
    return report("analyze", {"schedule": args.schedule, "depth": depth}, results)


def cmd_boundary(args) -> dict:
    s = load_schedule(args.schedule)
    tree = boundary.hole_tree(s, args.depth, args.resolution)
    verdicts = boundary.property_verdicts(s, args.depth)
    nodes = [
        {
            "level": n.level,
            "residue": n.residue,
            "parent": n.parent,
            "values": sorted(n.value_set),
        }
        for l in range(1, tree.depth + 1)
        for n in tree.nodes(l).values()
    ]
    # the per-level cylinder labelling: which cover set each residue class
    # belongs to, holes marking the undetermined cylinders
    cylinders = [
        s.pattern(l).symbols if s.period(l) <= 256 else None
        for l in range(1, tree.depth + 1)
    ]
    results = {
        "census": boundary.pruned_branch_census(tree),
        "verdicts": {"fpc": verdicts.fpc, "hs": verdicts.hs, "fb": verdicts.fb},
        "hole_counts": verdicts.hole_counts,
        "cylinders": cylinders,
        "nodes": nodes,
    }
    return report(
        "boundary",
        {"schedule": args.schedule, "depth": args.depth, "resolution": args.resolution},
        results,
    )


def cmd_factor(args) -> dict:
    s = load_schedule(args.schedule)
    code = load_code(args.code, s.alphabet)
    res = factors.factor_residues(code, s, range(1, args.depth + 1), args.depth + 2)
    results = {
        "radius": code.radius,
        "residues": {l: {"nonperiodic": r.nonperiodic, "undetermined": r.undetermined} for l, r in enumerate(res, 1)},
        "pullback_holds": all(r.holds for r in factors.pullback_reports(code, s, res)),
    }
    return report("factor", {"schedule": args.schedule, "code": args.code, "depth": args.depth}, results)


def cmd_pair(args) -> dict:
    from .odometer import phi_prefix

    s = load_schedule(args.schedule)
    n1, n2 = args.shifts
    half = args.window_half
    rep = elements.pair_report(
        s, elements.Shift(n1), elements.Shift(n2), args.depth,
        windows=[(-half, half)], eval_level=args.depth + 2,
    )
    positions = {
        "scale": [s.period(l) for l in range(1, args.depth + 1)],
        "first": list(phi_prefix(s, elements.Shift(n1), args.depth).residues),
        "second": list(phi_prefix(s, elements.Shift(n2), args.depth).residues),
    }
    return report(
        "pair",
        {"schedule": args.schedule, "shifts": [n1, n2], "depth": args.depth, "window": [-half, half]},
        {"positions": positions, "report": rep},
    )


def cmd_complexity(args) -> dict:
    s = load_schedule(args.schedule)
    lengths = args.lengths
    entries = complexity.complexity_profile(s, lengths, args.mode, max_level=args.depth)
    if args.format == "csv":
        print("length,count,exact")
        for e in entries:
            print("%d,%d,%s" % (e.length, e.count, "exact" if e.exact else "lower-bound"))
        return {}
    return report(
        "complexity",
        {"schedule": args.schedule, "lengths": lengths, "mode": args.mode},
        {"profile": entries},
    )


def cmd_gallery(args) -> dict:
    if not args.name:
        if args.param:
            raise BadParams("gallery parameters need an entry name")
        return report("gallery", {}, {"available": list(GALLERY_NAMES)})
    params = parse_params(args.param or ())
    s = named_gallery(args.name, **params)
    return report(
        "gallery",
        {"name": args.name, "levels": args.levels, "params": params},
        {
            "text": words.schedule_to_text(s, args.levels),
            "declarations": s.declarations,
            "scale": [s.period(l) for l in range(1, args.levels + 1)],
        },
    )


def cmd_verify(args) -> dict:
    ids = args.checks or checks.available_checks()
    unknown = [i for i in ids if i not in checks.available_checks()]
    if unknown:
        raise ToeplitzError("unknown checks: %s" % ", ".join(unknown))
    results = checks.run_all(ids)
    for r in results:
        print("%-34s %s" % (r.check_id, "PASS" if r.passed else "FAIL"))
    failed = [r.check_id for r in results if not r.passed]
    rep = report(
        "verify",
        {"checks": sorted(ids)},
        {"passed": len(results) - len(failed), "failed": failed,
         "details": {r.check_id: r.details for r in results}},
    )
    rep["exit_code"] = 1 if failed else 0
    return rep


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="toeplitz-lab",
        description="Construct and analyse Toeplitz-type words generated by hole filling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--format", choices=("json", "text"), default="text")

    p = sub.add_parser("build", help="compose seeds into a level pattern")
    p.add_argument("schedule")
    p.add_argument("--level", type=int, default=2)
    p.add_argument("--window", type=parse_window,
                   help="lo:hi positions to display; write a negative start as --window=-3:6")
    add_common(p)

    p = sub.add_parser("eval", help="letter at one position")
    p.add_argument("schedule")
    p.add_argument("position", type=int)
    p.add_argument("--depth", type=parse_at_least(1), default=4)
    add_common(p)

    p = sub.add_parser("analyze", help="periodicity verdicts")
    p.add_argument("schedule")
    p.add_argument("--depth", type=parse_at_least(1), default=3)
    add_common(p)

    p = sub.add_parser("boundary", help="hole tree and finiteness verdicts")
    p.add_argument("schedule")
    p.add_argument("--depth", type=parse_at_least(1), default=3)
    p.add_argument("--resolution", type=parse_at_least(1), default=None)
    add_common(p)

    p = sub.add_parser("factor", help="apply a sliding block code and classify the image")
    p.add_argument("schedule")
    p.add_argument("--code", required=True, help="gallery code name or code file")
    p.add_argument("--depth", type=parse_at_least(1), default=3)
    add_common(p)

    p = sub.add_parser("pair", help="difference census of two shifted copies")
    p.add_argument("schedule")
    p.add_argument("--shifts", type=int, nargs=2, required=True)
    p.add_argument("--depth", type=parse_at_least(1), default=4)
    p.add_argument("--window-half", type=parse_at_least(0), default=64)
    add_common(p)

    p = sub.add_parser("complexity", help="subword counts")
    p.add_argument("schedule")
    p.add_argument("--lengths", type=parse_lengths, default="4,8")
    p.add_argument("--mode", choices=("window", "decomposition"), default="window")
    p.add_argument("--depth", type=parse_at_least(1), default=5)
    p.add_argument("--format", choices=("json", "text", "csv"), default="text")

    p = sub.add_parser("gallery", help="list or export built-in schedules")
    p.add_argument("name", nargs="?")
    p.add_argument("--levels", type=parse_at_least(1), default=4)
    p.add_argument("--param", action="append", help="key=value, may repeat")
    add_common(p)

    p = sub.add_parser("verify", help="run named verification checks")
    p.add_argument("checks", nargs="*")
    add_common(p)

    args = parser.parse_args(argv)
    handlers = {
        "build": cmd_build,
        "eval": cmd_eval,
        "analyze": cmd_analyze,
        "boundary": cmd_boundary,
        "factor": cmd_factor,
        "pair": cmd_pair,
        "complexity": cmd_complexity,
        "gallery": cmd_gallery,
        "verify": cmd_verify,
    }
    try:
        rep = handlers[args.command](args)
        exit_code = rep.pop("exit_code", 0) if rep else 0
        if rep:
            emit(rep, getattr(args, "format", "text"))
        sys.stdout.flush()
    except ToeplitzError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader closed stdout; aim it at devnull so the final flush at exit stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
