"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/collect.py --seeds 1-10 --out bench-results/after.json
    python3 perfbench/collect.py --workloads pointwise --seeds 1-5 --trace 1

Each run is a fresh ``run.py`` process.  For every workload and metric
the summary holds the values, their median and quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
distance between the quartiles as a share of the median.  End-to-end
metrics are checked against their bound in BENCHMARK.json, except the
spread of ``setup_s``, which is not gated.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit("run failed: %s\n%s" % (" ".join(cmd), done.stderr))
    info = next((json.loads(l[5:]) for l in lines if l.startswith("info ")), {})
    return json.loads(lines[-1]), info


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", default="1-10", help="first-last, inclusive")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the summary as JSON to this file")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary, ok = {}, True
    for workload in args.workloads:
        runs = []
        for seed in seed_list(args.seeds):
            result, info = one_run(workload, seed, args.seconds, args.trace)
            runs.append({"seed": seed, "result": result, "info": info})
            print("%s seed %d: correct=%s %s" % (workload, seed, result["correct"], " ".join(
                "%s=%.6g" % (k, v["value"]) for k, v in result["metrics"].items() if k in bounds)),
                flush=True)
        metrics = {name: summarise([r["result"]["metrics"][name]["value"] for r in runs])
                   for name in runs[0]["result"]["metrics"]}
        summary[workload] = {"runs": runs, "metrics": metrics}
        for name, s in metrics.items():
            if name not in bounds:
                continue
            gated = name != "setup_s"
            within = s["spread"] < bounds[name] or not gated
            ok = ok and within and all(r["result"]["correct"] for r in runs)
            print("  %-12s median %-12.6g q1 %-12.6g q3 %-12.6g spread %.4f (bound %.2f%s)%s" % (
                name, s["median"], s["q1"], s["q3"], s["spread"], bounds[name],
                "" if gated else ", not gated", "" if within else "  OVER BOUND"))
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
