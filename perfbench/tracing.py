"""Opt-in tracing of toeplitz_lab's public functions, for the per-layer metrics.

The tracer rebinds each traced function at every place the package binds
it (module globals, re-exports in ``toeplitz_lab``, names imported with
``from .words import evaluate`` and the like, and class attributes for
methods) and restores every binding on exit.  Nothing in ``src/`` knows
about it; with the tracer uninstalled the package runs untouched.

Each traced call is counted.  Self time is a call's duration minus the
duration of the traced calls it made.  ``words.evaluate`` and
``factors.code_output`` run millions of times per pass and call nothing
traced, so only a random one in ``SAMPLE_EVERY`` of their calls is
timed, and the sampled time, scaled up, stands for all of them.  The
other functions in ``UNSPANNED`` are timed on every call but leave no
span record; every other call appends a span
``(span_id, name, start, end, parent_id, item)`` to an in-memory list
that the benchmark writes out when the run ends.

The work counts in ``COMPUTED`` are worked out from argument and result
sizes, not measured, so they repeat exactly for a fixed seed.
"""

from __future__ import annotations

import hashlib
import math
import random
import sys
import time
from functools import wraps

# layer -> traced public functions; "Class.method" names a method
TRACED = {
    "words": ("evaluate", "resolve_window", "FillingSchedule.pattern", "compose_fill",
              "FillingSchedule.level_info"),
    "periodicity": ("classify_residues", "verify_period_structure", "aperiodic_residues",
                    "check_oxtoby"),
    "odometer": ("phi_prefix",),
    "boundary": ("hole_tree", "property_verdicts", "isolated_value_pair"),
    "factors": ("apply_code", "code_output", "factor_aperiodic_residues",
                "unique_residue_search", "build_isolating_code"),
    "elements": ("pair_report", "eval_element", "fiber_block_contents"),
    "complexity": ("factor_set_exact_single_hole", "factor_set_window"),
    "gallery": ("gallery",),
    "cli": ("report", "emit"),
}

UNSPANNED = frozenset({"words.evaluate", "words.level_info", "factors.code_output",
                       "elements.eval_element"})
SAMPLED = frozenset({"words.evaluate", "factors.code_output"})  # leaves, so the estimate subtracts cleanly
SAMPLE_EVERY = 16

# computed work counts: metric name -> unit
COMPUTED = {
    "words.pattern.chars": "chars",
    "words.resolve_window.chars": "chars",
    "periodicity.classify_residues.span_chars": "chars",
    "boundary.hole_tree.probes": "count",
    "factors.apply_code.positions": "count",
    "factors.apply_code.distinct_frac": "ratio",
    "factors.code_output.holefree_frac": "ratio",
    "factors.factor_aperiodic_residues.sparse_frac": "ratio",
}


def layer_names() -> list[str]:
    """``<module>.<function>`` for every traced function, in metric order."""
    return ["%s.%s" % (mod, attr.rpartition(".")[2]) for mod, attrs in TRACED.items() for attr in attrs]


def _package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "toeplitz_lab" or name.startswith("toeplitz_lab."))]


def bindings_snapshot() -> dict:
    """Identity of every global of every loaded toeplitz_lab module and class."""
    snap = {}
    for m in _package_modules():
        for name, value in vars(m).items():
            snap[(m.__name__, name)] = id(value)
            if isinstance(value, type) and value.__module__ == m.__name__:
                for attr, member in vars(value).items():
                    snap[(m.__name__, name, attr)] = id(member)
    return snap


def _digest(text: str) -> bytes:
    return hashlib.blake2b(text.encode(), digest_size=16).digest()


def _code_fingerprint(code) -> bytes:
    table = getattr(code, "table", None)
    if table is not None:
        body = repr((code.radius, sorted(table.items())))
    else:
        body = repr((type(code).__name__, code.radius, sorted(getattr(code, "marked", ())),
                     getattr(code, "mark", None), getattr(code, "other", None)))
    return _digest(body)


class Tracer:
    """Spans, self times and work counts of the traced functions."""

    def __init__(self, lib):
        self.lib = lib
        self.item = None
        self.spans: list[tuple] = []
        self._stack: list[list] = []  # per open call: [child seconds, span id]
        self.totals = {name: [0, 0.0] for name in layer_names()}
        self._next_id = 0
        self._suspended = 0
        self._undo: list[tuple] = []
        self.reset()

    # -- per-pass state ----------------------------------------------------

    def reset(self) -> None:
        """Zero the per-pass totals; spans accumulate over the whole run."""
        for total in self.totals.values():
            total[:] = [0, 0.0]
        # sums of the computed counts, and the numerators of the ratios
        self.counts = dict.fromkeys(COMPUTED, 0) | {"holefree": 0, "sparse": 0}
        self.distinct: set = set()  # (code, pattern) inputs of apply_code

    def metrics(self) -> dict[str, float]:
        """Per-layer calls, self seconds and work counts of the current pass."""
        out = {}
        for name, (calls, self_s) in self.totals.items():
            out[name + ".calls"] = calls
            out[name + ".self_s"] = self_s
        for name in COMPUTED:
            out[name] = self.counts[name]

        def frac(part, whole):
            return part / whole if whole else 0.0

        out["factors.apply_code.distinct_frac"] = frac(len(self.distinct), self.totals["factors.apply_code"][0])
        out["factors.code_output.holefree_frac"] = frac(self.counts["holefree"], self.totals["factors.code_output"][0])
        out["factors.factor_aperiodic_residues.sparse_frac"] = frac(
            self.counts["sparse"], self.totals["factors.factor_aperiodic_residues"][0])
        return out

    # -- installation -------------------------------------------------------

    def __enter__(self):
        modules = _package_modules()
        for mod, attrs in TRACED.items():
            module = sys.modules["toeplitz_lab." + mod]
            for attr in attrs:
                cls_name, _, fn_name = attr.rpartition(".")
                name = "%s.%s" % (mod, fn_name)
                if cls_name:
                    cls = getattr(module, cls_name)
                    original = vars(cls)[fn_name]
                    self._rebind(cls, fn_name, self._wrap(name, original))
                    continue
                original = getattr(module, fn_name)
                wrapper = self._wrap(name, original)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            self._rebind(m, key, wrapper)
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)
        return False

    def _rebind(self, owner, key, wrapper) -> None:
        self._undo.append((owner, key, vars(owner)[key]))
        setattr(owner, key, wrapper)

    def _wrap(self, name, fn):
        pre = _PRE.get(name)
        post = _POST.get(name)
        stack = self._stack
        clock = time.perf_counter
        total = self.totals[name]
        tracer = self

        if name in SAMPLED:
            chance = random.Random(name).random  # its own generator: the workloads' stay untouched

            @wraps(fn)
            def sampled(*args, **kwargs):
                if tracer._suspended:
                    return fn(*args, **kwargs)
                if pre is not None:
                    pre(tracer, *args, **kwargs)
                total[0] += 1
                if chance() * SAMPLE_EVERY >= 1:
                    return fn(*args, **kwargs)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    estimate = (clock() - t0) * SAMPLE_EVERY
                    total[1] += estimate
                    if stack:
                        stack[-1][0] += estimate
            return sampled

        if name in UNSPANNED:
            # no span record, and no hooks that could call traced code
            @wraps(fn)
            def counted(*args, **kwargs):
                if tracer._suspended:
                    return fn(*args, **kwargs)
                if pre is not None:
                    pre(tracer, *args, **kwargs)
                frame = [0.0]
                stack.append(frame)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dur = clock() - t0
                    stack.pop()
                    total[0] += 1
                    total[1] += dur - frame[0]
                    if stack:
                        stack[-1][0] += dur
            return counted

        @wraps(fn)
        def traced(*args, **kwargs):
            if tracer._suspended:
                return fn(*args, **kwargs)
            start = clock()
            state = None
            if pre is not None:
                tracer._suspended += 1
                try:
                    state = pre(tracer, *args, **kwargs)
                finally:
                    tracer._suspended -= 1
            tracer._next_id += 1
            frame = [0.0, tracer._next_id]
            parent = stack[-1] if stack else None
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                total[0] += 1
                total[1] += t1 - t0 - frame[0]
                tracer.spans.append((frame[1], name, t0, t1, parent[1] if parent else None, tracer.item))
                if parent is not None:
                    parent[0] += t1 - start
            if post is not None:
                tracer._suspended += 1
                try:
                    post(tracer, state, result, *args, **kwargs)
                finally:
                    tracer._suspended -= 1
                    if parent is not None:
                        # the counting hooks are charged to nobody
                        parent[0] += clock() - t1
            return result

        return traced


# -- computed work counts ----------------------------------------------------
# A pre hook sees the call's arguments and returns a state for the post hook,
# which also sees the result.  Both run with tracing suspended.


def _pattern_pre(tracer, schedule, l):
    return l in getattr(schedule, "_patterns", ())


def _pattern_post(tracer, memoised, result, schedule, l):
    if not memoised:
        tracer.counts["words.pattern.chars"] += result.period


def _resolve_window_post(tracer, state, result, schedule, start, stop, max_level):
    tracer.counts["words.resolve_window.chars"] += max(0, stop - start)


def _classify_post(tracer, state, result, source, p):
    pat = getattr(source, "pattern", source)
    tracer.counts["periodicity.classify_residues.span_chars"] += math.lcm(p, pat.period)


def _hole_tree_post(tracer, state, tree, schedule, depth, resolution_depth=None):
    top = schedule.period(tree.resolution_depth)
    tracer.counts["boundary.hole_tree.probes"] += sum(
        len(tree.nodes(l)) * (top // schedule.period(l)) for l in range(1, tree.depth + 1))


def _apply_code_post(tracer, state, result, code, source):
    pat = getattr(source, "pattern", source)
    tracer.counts["factors.apply_code.positions"] += pat.period
    tracer.distinct.add((_code_fingerprint(code), _digest(pat.symbols)))


def _code_output_pre(tracer, code, window):
    if "?" not in window:  # words.HOLE
        tracer.counts["holefree"] += 1


def _factor_residues_pre(tracer, code, schedule, l, depth):
    top = min(depth, schedule.available_levels(depth))
    if schedule.period(top) > tracer.lib.words.PATTERN_CAP:
        tracer.counts["sparse"] += 1


_PRE = {
    "words.pattern": _pattern_pre,
    "factors.code_output": _code_output_pre,
    "factors.factor_aperiodic_residues": _factor_residues_pre,
}
_POST = {
    "words.pattern": _pattern_post,
    "words.resolve_window": _resolve_window_post,
    "periodicity.classify_residues": _classify_post,
    "boundary.hole_tree": _hole_tree_post,
    "factors.apply_code": _apply_code_post,
}
