"""One run of the toeplitz-lab benchmark on one workload.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 40 --trace 0

Runs whole passes over the workload's items, one call in flight, until
the next pass would end past ``--seconds``, and checks every output
against ``references.json``.  With ``--trace 0`` it reports the
end-to-end metrics; with ``--trace 1`` it runs every item untraced and
then traced, and reports the per-layer metrics and the tracing overhead.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPAN_DIR = ROOT / ".perfbench"
SETUP_PROBES = 9

import tracing  # noqa: E402  (the benchmark's own modules sit beside this file)
import workloads  # noqa: E402

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def per_layer_units(check_ids) -> dict[str, str]:
    units = {}
    for name in tracing.layer_names():
        units[name + ".calls"] = "count"
        units[name + ".self_s"] = "s"
        for metric, unit in tracing.COMPUTED.items():
            if metric.startswith(name + "."):
                units[metric] = unit
    units["trace.overhead_frac"] = "ratio"
    for cid in check_ids:
        units["checks.%s.wall_s" % cid] = "s"
    return units


# -- host speed -------------------------------------------------------------------
# Where cores are shared with other tenants, the same interpreter work runs up
# to 1.6x slower for stretches of seconds to minutes, which moves whole runs
# together.  A fixed pure-Python kernel, timed before every item and after the
# last, samples the host's speed over the run; times are reported multiplied by
# the kernel's reference time over its mean time, that is, as seconds on a host
# where the kernel takes HOST_REFERENCE_S.  On a shared 2-core x86-64 host with
# Python 3.11, 300 s of cli-session passes cut into 7-pass windows varied by
# 9.2 % (coefficient of variation) raw and by 2.8 % scaled.

HOST_REFERENCE_S = 0.005


def host_kernel() -> float:
    """Seconds the fixed reference kernel takes now."""
    t0 = time.perf_counter()
    acc, table = 0, {}
    for i in range(15000):
        acc = (acc * 31 + i) & 0xFFFF
        table[acc & 255] = i
    sorted(i * i % 1000003 for i in range(15000))
    return time.perf_counter() - t0


# -- set-up ------------------------------------------------------------------------


def setup_seconds(workload: str, seed: int) -> float:
    """Import the package and generate the run's inputs, as one fresh process does.

    Scaled to the reference host speed by kernel timings taken in the same
    process just before and after.
    """
    host_kernel()
    before = host_kernel()
    t0 = time.perf_counter()
    lib = workloads.load_library()
    workloads.build(workload, lib, seed)
    seconds = time.perf_counter() - t0
    return seconds * HOST_REFERENCE_S / ((before + host_kernel()) / 2)


def probe_setup(workload: str, seed: int) -> float:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--setup-probe"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


# -- passes ------------------------------------------------------------------------


class PassResult:
    def __init__(self):
        self.times: dict[str, float] = {}
        self.digests: dict[str, str] = {}
        self.outputs: dict[str, str] = {}
        self.failures: list[str] = []
        self.kernel: list[float] = []  # before each item, and once after the last


def _run_item(item, refs: dict, res: PassResult, keep_outputs: bool) -> None:
    # garbage left by earlier items is not this item's cost, and would make
    # the peak memory depend on the order of items
    gc.collect()
    res.kernel.append(host_kernel())
    t0 = time.perf_counter()
    try:
        out = item.run()
    except (Exception, SystemExit) as exc:  # an untyped error is a failed item, not a crash
        out = None
        res.failures.append("%s raised %s: %s" % (item.key, type(exc).__name__, exc))
    res.times[item.key] = time.perf_counter() - t0
    if out is None:
        return
    digest = workloads.sha256(out)
    res.digests[item.key] = digest
    if keep_outputs:
        res.outputs[item.key] = out
    if refs.get(item.key) != digest:
        res.failures.append("%s: output digest %s differs from the reference" % (item.key, digest[:12]))


def run_pass(items, refs: dict, tracer=None, keep_outputs=False) -> tuple[PassResult, PassResult | None]:
    """One pass over the items, untraced; with a tracer, each item runs again traced.

    Running the traced call right after the untraced one puts both at the
    same host speed, which the tracing overhead is measured against.
    """
    plain = PassResult()
    traced = PassResult() if tracer is not None else None
    for item in items:
        _run_item(item, refs, plain, keep_outputs)
        if tracer is not None:
            tracer.item = item.key
            with tracer:
                _run_item(item, refs, traced, keep_outputs)
    for res in (plain, traced):
        if res is not None:
            res.kernel.append(host_kernel())
    return plain, traced


def host_factor(passes: list[PassResult]) -> float:
    """Reference kernel time over the kernel's mean time during the passes."""
    return HOST_REFERENCE_S / statistics.fmean(k for p in passes for k in p.kernel)


def pass_wall(passes: list[PassResult]) -> float:
    """Mean time of one pass over the items, at the reference host speed."""
    total = sum(sum(p.times.values()) for p in passes)
    return total / len(passes) * host_factor(passes)


def verify_pass_ok(res: PassResult, pinned: str) -> list[str]:
    """Problems with the merged ``verify`` results of one pass (none when all is well)."""
    if len(res.outputs) != len(res.digests) or not res.outputs:
        return ["verify: a check produced no output"]
    results = workloads.verify_results(res.outputs)
    problems = []
    if results["failed"]:
        problems.append("verify: checks failed: %s" % ", ".join(results["failed"]))
    digest = workloads.sha256(workloads.canonical_json(results))
    if digest != pinned:
        problems.append("verify: results digest %s differs from the pinned %s" % (digest[:12], pinned[:12]))
    return problems


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def write_spans(tracer, workload: str, seed: int) -> Path:
    SPAN_DIR.mkdir(exist_ok=True)
    path = SPAN_DIR / ("spans-%s-seed%d.jsonl" % (workload, seed))
    with path.open("w") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    return path


def measure(args) -> tuple[dict, dict, list[str]]:
    """Run the passes; returns the result line, the info line and the problems."""
    setups = [] if args.trace else [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    lib = workloads.load_library()
    here = Path(lib.cli.__file__).resolve()
    if SRC not in here.parents:
        raise SystemExit("perfbench: imported toeplitz_lab from %s, not from %s" % (here, SRC))
    items = workloads.build(args.workload, lib, args.seed)
    refs = json.loads((HERE / "references.json").read_text())
    keep = args.workload == "verify"
    check_ids = lib.checks.available_checks()

    untraced: list[PassResult] = []
    traced: list[PassResult] = []
    layer_passes: list[dict] = []
    tracer = tracing.Tracer(lib) if args.trace else None
    began = time.perf_counter()
    while True:
        cycle = time.perf_counter()
        if tracer is not None:
            tracer.reset()
        plain, with_trace = run_pass(items, refs["items"], tracer, keep_outputs=keep)
        untraced.append(plain)
        if tracer is not None:
            traced.append(with_trace)
            layer_passes.append(tracer.metrics())
        now = time.perf_counter()
        if now - began + (now - cycle) > args.seconds:
            break

    problems = [f for p in untraced + traced for f in p.failures]
    failed = sum(len(p.failures) for p in untraced + traced)
    if keep:
        for p in untraced + traced:
            problems += verify_pass_ok(p, refs["verify_results_sha256"])
    for p in traced:
        if p.digests != untraced[0].digests:
            problems.append("a traced pass produced other outputs than the untraced one")

    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "items": len(items), "passes": len(untraced) + len(traced),
        "host_factor": host_factor(untraced),
        "raw_pass_s": [sum(p.times.values()) for p in untraced],
        "src_lines": src_lines(), "python": platform.python_version(), "nproc": os.cpu_count(),
    }
    if tracer is None:
        metrics = {
            "wall_s": pass_wall(untraced),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    else:
        for layers, p in zip(layer_passes, traced):
            for name in layers:
                if name.endswith(".self_s"):
                    layers[name] *= host_factor([p])
        metrics = {name: statistics.median(p[name] for p in layer_passes) for name in layer_passes[0]}
        # each traced call ran right after its untraced twin, so raw times compare
        metrics["trace.overhead_frac"] = (sum(sum(p.times.values()) for p in traced)
                                          / sum(sum(p.times.values()) for p in untraced) - 1)
        for cid in check_ids:
            key = "verify/%s/0" % cid
            metrics["checks.%s.wall_s" % cid] = (
                statistics.median(p.times[key] for p in untraced) * host_factor(untraced) if keep else 0.0)
        info["spans"] = len(tracer.spans)
        info["span_file"] = str(write_spans(tracer, args.workload, args.seed).relative_to(ROOT))
    attempted = sum(len(p.times) for p in untraced + traced)
    info["failed_frac"] = failed / attempted
    units = END_TO_END if tracer is None else per_layer_units(check_ids)
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    return result, info, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "toeplitz_lab" / "__init__.py").is_file():
        print("perfbench: no toeplitz_lab package under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        print(repr(setup_seconds(args.workload, args.seed)))
        return 0

    result, info, problems = measure(args)
    for name, metric in result["metrics"].items():
        label = " (computed)" if name in tracing.COMPUTED else ""
        print("%-58s %14.6g %s%s" % (name, metric["value"], metric["unit"], label))
    for problem in problems:
        print("problem: " + problem, file=sys.stderr)
    print("info " + json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
