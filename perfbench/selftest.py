"""The benchmark's own tests.

    python3 perfbench/selftest.py

The file name keeps pytest's default collection (``test_*.py``) away
from it, so the repository's test suite does not run these smoke passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

LIB = workloads.load_library()
REFS = json.loads((HERE / "references.json").read_text())
# checks that take well under a second, for the verify smoke pass
QUICK_CHECKS = ("ex4.3-boundary-singleton", "ex5.7-factor-aper", "ex5.7-pair-censuses", "sec2.2-compose")


def bench(*args, cwd=ROOT, root=ROOT):
    return subprocess.run([sys.executable, str(root / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


class Inputs(unittest.TestCase):
    def test_same_seed_same_inputs_and_digests(self):
        for workload in ("pointwise", "cli-session"):
            a = workloads.build(workload, LIB, 7)
            b = workloads.build(workload, LIB, 7)
            self.assertEqual([i.key for i in a], [i.key for i in b])
            cheap = [k for k, item in enumerate(a) if "/fixed-" not in item.key][:6]  # skip the heavy fixed calls
            self.assertEqual([workloads.sha256(a[k].run()) for k in cheap],
                             [workloads.sha256(b[k].run()) for k in cheap])

    def test_other_seed_other_inputs(self):
        for workload in ("pointwise", "cli-session"):
            keys = [[i.key for i in workloads.build(workload, LIB, s)] for s in (1, 2)]
            self.assertNotEqual(keys[0], keys[1], workload)
        # the check registry alone fixes the verify workload, in verify's own order
        keys = [[workloads.check_id(i.key) for i in workloads.build("verify", LIB, s)] for s in (1, 2)]
        self.assertEqual(keys[0], keys[1])
        self.assertEqual(keys[0], LIB.checks.available_checks())

    def test_every_drawable_entry_has_a_reference(self):
        for workload in workloads.WORKLOADS:
            for item in workloads.build(workload, LIB, 0, full_pool=True):
                self.assertIn(item.key, REFS["items"])


class Smoke(unittest.TestCase):
    def test_one_pass_of_each_workload_fails_nothing(self):
        for workload in ("pointwise", "cli-session"):
            done = bench("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", "0")
            self.assertEqual(done.returncode, 0, done.stderr)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            self.assertTrue(result["correct"], done.stderr)
            self.assertEqual(result["failed"], 0)
            self.assertEqual(set(result["metrics"]), set(run.END_TO_END))
        items = [i for i in workloads.build("verify", LIB, 3) if workloads.check_id(i.key) in QUICK_CHECKS]
        res, _ = run.run_pass(items, REFS["items"])
        self.assertEqual(res.failures, [])
        self.assertEqual(len(res.digests), len(QUICK_CHECKS))

    def test_bare_directory_fails_without_a_result(self):
        bare = ROOT / ".perfbench" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            done = bench("--workload", "verify", "--seed", "1", "--seconds", "1", "--trace", "0",
                         cwd=bare, root=bare)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)


class Tracing(unittest.TestCase):
    def items(self):
        keep = ("evaluate/ex5.7", "pair_report/l5", "factor_sparse", "phi_prefix/ex3.5")
        pointwise = [i for i in workloads.build("pointwise", LIB, 5) if any(k in i.key for k in keep)]
        cli = [i for i in workloads.build("cli-session", LIB, 5) if "/fixed-5/" in i.key or "/fixed-6/" in i.key]
        return pointwise + cli

    def test_wrappers_rebind_everywhere_and_restore(self):
        before = tracing.bindings_snapshot()
        original = LIB.words.evaluate
        pattern = vars(LIB.words.FillingSchedule)["pattern"]
        with tracing.Tracer(LIB):
            self.assertIsNot(LIB.words.evaluate, original)
            self.assertIs(LIB.factors.evaluate, LIB.words.evaluate)
            self.assertIs(LIB.elements.evaluate, LIB.words.evaluate)
            self.assertIs(LIB.checks.make_gallery, LIB.gallery.gallery)
            self.assertIs(LIB.cli.named_gallery, LIB.gallery.gallery)
            self.assertIsNot(vars(LIB.words.FillingSchedule)["pattern"], pattern)
        self.assertEqual(tracing.bindings_snapshot(), before)
        self.assertIs(LIB.words.evaluate, original)

    def test_traced_outputs_and_counts_repeat(self):
        items = self.items()
        metrics = []
        for _ in range(2):
            tracer = tracing.Tracer(LIB)
            plain, traced = run.run_pass(items, REFS["items"], tracer)
            self.assertEqual(traced.digests, plain.digests)
            self.assertEqual(plain.failures + traced.failures, [])
            metrics.append(tracer.metrics())
            self.assertTrue(tracer.spans)
        for name in list(tracing.COMPUTED) + [n + ".calls" for n in tracing.layer_names()]:
            self.assertEqual(metrics[0][name], metrics[1][name], name)
        self.assertGreater(metrics[0]["words.evaluate.calls"], 0)
        self.assertGreater(metrics[0]["factors.apply_code.calls"], 0)
        self.assertGreater(metrics[0]["factors.factor_aperiodic_residues.sparse_frac"], 0)


if __name__ == "__main__":
    unittest.main()
