"""Write references.json: the output digest of every pool entry of every workload.

    python3 perfbench/make_references.py

Run it only when a workload's definition changes, never to make a change
to ``src/`` pass: the references pin the outputs of the code they were
made from.  It also pins the SHA-256 of the ``results`` object that one
``verify --format json`` call over all checks prints, and checks that the
per-check results the verify workload merges give the same digest.
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def main() -> int:
    lib = workloads.load_library()
    digests, verify_outputs = {}, {}
    for workload in workloads.WORKLOADS:
        for item in workloads.build(workload, lib, 0, full_pool=True):
            out = item.run()
            digests[item.key] = workloads.sha256(out)
            if workload == "verify":
                verify_outputs[item.key] = out
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = lib.cli.main(["verify", "--format", "json"])
    text = buf.getvalue()
    results = json.loads(text[text.index("{"):])["results"]
    pinned = workloads.sha256(workloads.canonical_json(results))
    merged = workloads.sha256(workloads.canonical_json(workloads.verify_results(verify_outputs)))
    if code != 0 or results["failed"] or merged != pinned:
        print("verify does not pass cleanly, or per-check results do not merge to the full report",
              file=sys.stderr)
        return 1
    refs = {"verify_results_sha256": pinned, "items": dict(sorted(digests.items()))}
    (HERE / "references.json").write_text(json.dumps(refs, indent=1) + "\n")
    print("%d item references, verify results %s" % (len(digests), pinned))
    return 0


if __name__ == "__main__":
    sys.exit(main())
