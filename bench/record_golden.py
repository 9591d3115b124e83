"""Record the golden exit code and stdout digest of every benchmark item.

    python3 bench/record_golden.py

Runs every item any workload seed can select, once each, untraced, and
writes `bench/golden.json`.  The CLI's output is a byte-identical contract,
so the goldens are recorded once, at the commit that defined the benchmark,
and re-recorded only by a change that alters CLI output on purpose.
"""

from __future__ import annotations

import hashlib
import json
import platform
import sys
import tempfile
import time

import run


def main() -> int:
    items = {}
    deadline = time.monotonic() + 3600
    run.RESULTS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.RESULTS) as workdir:
        for workload in run.WORKLOADS:
            for argv in run.selectable_items(workload):
                result = run.run_child(argv, False, deadline, workdir)
                if result["timed_out"] or run.TRACEBACK in result["stderr"]:
                    print(f"error: {run.item_key(argv)} did not finish cleanly", file=sys.stderr)
                    return 1
                items[run.item_key(argv)] = {
                    "exit_code": result["exit_code"],
                    "sha256": hashlib.sha256(result["stdout"]).hexdigest(),
                    "bytes": len(result["stdout"]),
                }
                print(f"{result['seconds']:7.2f} s  {run.item_key(argv)}", flush=True)
    golden = {
        "source_sha256": run.source_digest(),
        "git_sha": run.git_sha(),
        "python": platform.python_version(),
        "items": items,
    }
    run.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
