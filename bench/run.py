"""Benchmark of the assoc-hermite CLI and library, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  Each workload item is one CLI
invocation in a fresh interpreter (`bench/child.py`), run one at a time by
this process; nothing is pinned, no caches are dropped.  Every item's exit
code and stdout digest are checked against `bench/golden.json`, recorded at
the commit that defined the benchmark.  The last line of stdout is the
result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (wall_s, cpu_s, setup_s,
peak_rss_mb); the run makes two passes over the item list, then more while
another still fits in S seconds, and times are medians over passes.  With --trace 1 the run
makes one untraced and one traced pass and reports the per-layer metrics of
`bench/layers.py`.  A full record of the run goes to `bench/results/`.
See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import layers

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CLI_SOURCE = SRC / "assoc_hermite" / "cli.py"
CHILD = BENCH / "child.py"
GOLDEN = BENCH / "golden.json"
RESULTS = BENCH / "results"

WORKLOADS = ("verify-desk", "cli-enumerate", "cli-algebra")

# Every arrangement of the multiset {3,3,4,4} enumerates the same number of
# matchings but gives a different polynomial; the seed picks one per gf item.
GF_ARRANGEMENTS = sorted(set(itertools.permutations((3, 3, 4, 4))))

SETUP_PROBES = 5  # import-only children per run, on top of one warm-up
MIN_PASSES = 2  # untraced passes per run, even where two overrun --seconds
ITEM_TIMEOUT_S = 120.0
RUN_DEADLINE_S = 165.0  # no child runs past this, so a run ends within 180 s

LIMITS = (
    "Nothing is pinned to a CPU, no OS caches are dropped, and the host is "
    "shared with other tenants, so timings carry host noise. On the 2-core "
    "x86 VM where the benchmark was defined (Python 3.11), four identical "
    "verify-desk runs took 16.3-19.9 s, and ten runs with different seeds "
    "gave wall_s from 16.7 to 26.1 s, with cpu_s tracking wall_s and the load "
    "average near 0.7 throughout: the noise comes from other tenants, not "
    "from this process."
)

TRACEBACK = b"Traceback (most recent call last)"


def _gf_item(arrangement: tuple[int, ...], *extra: str) -> list[str]:
    return ["gf", ",".join(str(s) for s in arrangement), *extra]


def workload_items(workload: str, seed: int) -> list[list[str]]:
    """The argv lists of one pass, in the order the seed gives."""
    rng = random.Random(seed)
    if workload == "verify-desk":
        items = [["verify-all", "--level", "desk"]]
    elif workload == "cli-enumerate":
        items = [
            ["moments", "--upto", "18"],
            ["orthogonality", "8", "8"],
            _gf_item(rng.choice(GF_ARRANGEMENTS)),
            _gf_item(rng.choice(GF_ARRANGEMENTS), "--scheme", "nonnested"),
            ["conjecture", "--sum-max", "10"],
            ["poly", "marker-edge", "10"],
            ["bijection", "quadruples", "4"],
        ]
    elif workload == "cli-algebra":
        items = [
            ["poly", "recurrence", "150"],
            ["poly", "recurrence", "100", "--shifted"],
            ["linearize", "40", "40"],
            ["mixed", "40", "30"],
            ["poly", "basis", "60"],
            ["poly", "chebyshev-limit", "60"],
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(items)
    return items


def selectable_items(workload: str) -> list[list[str]]:
    """Every item any seed can put in a pass of this workload."""
    items = {tuple(argv) for argv in workload_items(workload, 0)}
    if workload == "cli-enumerate":
        items = {argv for argv in items if argv[0] != "gf"}
        for arrangement in GF_ARRANGEMENTS:
            items.add(tuple(_gf_item(arrangement)))
            items.add(tuple(_gf_item(arrangement, "--scheme", "nonnested")))
    return [list(argv) for argv in sorted(items)]


def item_key(argv: list[str]) -> str:
    return " ".join(argv)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # set-up is timed with bytecode cached
    return env


def run_child(argv: list[str], trace: bool, deadline: float, workdir: str) -> dict:
    """Run one child; the result carries stdout, stderr and the sidecar report."""
    timeout = min(ITEM_TIMEOUT_S, deadline - time.monotonic())
    if timeout <= 0:
        return {"argv": argv, "timed_out": True, "timeout_s": 0.0}
    fd, sidecar = tempfile.mkstemp(dir=workdir, suffix=".json")
    os.close(fd)
    command = [sys.executable, str(CHILD), sidecar, "1" if trace else "0", *argv]
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            command, capture_output=True, env=child_env(), cwd=ROOT, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        return {"argv": argv, "timed_out": True, "timeout_s": timeout}
    finally:
        seconds = time.perf_counter() - start
        with open(sidecar) as fh:
            text = fh.read()
        os.remove(sidecar)
    try:
        report = json.loads(text)
    except json.JSONDecodeError:  # the child died before writing it
        report = {}
    return {
        "argv": argv,
        "timed_out": False,
        "seconds": seconds,
        "exit_code": proc.returncode,
        "stdout": proc.stdout,
        "stderr": proc.stderr,
        "report": report,
    }


def check_item(result: dict, golden: dict) -> str | None:
    """Why the item failed, or None when it matches its golden record."""
    if result["timed_out"]:
        return f"timed out after {result['timeout_s']:.1f} s"
    expected = golden.get(item_key(result["argv"]))
    if expected is None:
        return "no golden record for this item"
    if TRACEBACK in result["stderr"]:
        return "traceback on stderr"
    if not result["report"].get("module", "").startswith(str(SRC)):
        return "assoc_hermite was not imported from this checkout"
    if result["exit_code"] != expected["exit_code"]:
        return f"exit code {result['exit_code']}, golden {expected['exit_code']}"
    if hashlib.sha256(result["stdout"]).hexdigest() != expected["sha256"]:
        return "stdout differs from golden"
    return None


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_pass(items: list[list[str]], trace: bool, deadline: float, workdir: str) -> dict:
    """One pass over the item list, one child at a time."""
    cpu_before = _cpu_seconds()
    start = time.perf_counter()
    results = [run_child(argv, trace, deadline, workdir) for argv in items]
    return {
        "trace": trace,
        "wall_s": time.perf_counter() - start,
        "cpu_s": _cpu_seconds() - cpu_before,
        "results": results,
    }


def error_rate(failures: list[str | None]) -> float:
    """Share of items whose check_item() verdict is a failure."""
    return sum(f is not None for f in failures) / len(failures)


def end_to_end_metrics(untraced: list[dict], setup: list[float], peak_kb: int) -> dict[str, dict]:
    return {
        "wall_s": {"value": statistics.median(p["wall_s"] for p in untraced), "unit": "s"},
        "cpu_s": {"value": statistics.median(p["cpu_s"] for p in untraced), "unit": "s"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mb": {"value": peak_kb / 1024, "unit": "MB"},
    }


def setup_probes(deadline: float, workdir: str) -> list[float]:
    """Import-only children; the first one warms the bytecode cache and is dropped."""
    samples = []
    for i in range(SETUP_PROBES + 1):
        result = run_child([], False, deadline, workdir)
        if result["timed_out"] or result["exit_code"] != 0 or "setup_s" not in result["report"]:
            raise RuntimeError(f"set-up probe failed: {result.get('stderr', b'')!r}")
        if i:
            samples.append(result["report"]["setup_s"])
    return samples


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None  # a plain checkout; source_sha256 identifies the code
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment(args: argparse.Namespace) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "python_implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "loadavg_at_start": list(os.getloadavg()),
        "started_unix": time.time(),
        "limits": LIMITS,
    }


def load_golden() -> dict:
    with open(GOLDEN) as fh:
        return json.load(fh)["items"]


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not CLI_SOURCE.is_file() or not GOLDEN.is_file():
        print(f"error: no program to measure: {CLI_SOURCE} or {GOLDEN} is missing", file=sys.stderr)
        return 2
    golden = load_golden()
    env = environment(args)
    started = time.monotonic()
    deadline = started + RUN_DEADLINE_S
    items = workload_items(args.workload, args.seed)
    RESULTS.mkdir(exist_ok=True)

    with tempfile.TemporaryDirectory(dir=RESULTS) as workdir:
        try:
            setup = setup_probes(deadline, workdir)
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        passes = [run_pass(items, False, deadline, workdir)]
        if args.trace:
            passes.append(run_pass(items, True, deadline, workdir))
        else:
            while True:
                elapsed = time.monotonic() - started
                estimate = statistics.median(p["wall_s"] for p in passes)
                if elapsed + 2 * estimate > RUN_DEADLINE_S:
                    break
                if len(passes) >= MIN_PASSES and elapsed + estimate > args.seconds:
                    break
                passes.append(run_pass(items, False, deadline, workdir))

    untraced = [p for p in passes if not p["trace"]]
    table: dict[tuple[str, str], list] = {}
    if args.trace:
        reports = [r.get("report", {}) for r in passes[-1]["results"]]
        table = layers.merge(report.get("spans", []) for report in reports)
        cache: dict[str, list[int]] = {}
        for report in reports:
            for name, counts in report.get("cache", {}).items():
                cache[name] = [a + b for a, b in zip(cache.get(name, (0, 0)), counts)]
        overhead = passes[-1]["wall_s"] / untraced[0]["wall_s"]
        metrics = layers.layer_metrics(table, cache, overhead)
    else:
        setup += [
            r["report"]["setup_s"]
            for p in passes for r in p["results"] if "setup_s" in r.get("report", {})
        ]
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        metrics = end_to_end_metrics(untraced, setup, peak_kb)

    for p in passes:
        p["items"] = [
            {
                "item": item_key(r["argv"]),
                "seconds": r.get("seconds"),
                "exit_code": r.get("exit_code"),
                "failure": check_item(r, golden),
            }
            for r in p.pop("results")
        ]
    failures = [r["failure"] for p in passes for r in p["items"]]
    result = {
        "correct": all(f is None for f in failures),
        "attempted": len(failures),
        "failed": sum(f is not None for f in failures),
        "metrics": metrics,
    }
    record = {
        "environment": env,
        "error_rate": error_rate(failures),
        "setup_samples_s": setup,
        "passes": passes,
        "spans": [[name, parent, *rec] for (name, parent), rec in sorted(table.items())],
        "result": result,
    }
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")

    for p in passes:
        label = "traced" if p["trace"] else "untraced"
        print(f"pass ({label}): wall {p['wall_s']:.3f} s, cpu {p['cpu_s']:.3f} s")
        for r in p["items"]:
            status = "ok" if r["failure"] is None else f"FAILED: {r['failure']}"
            print(f"  {r['seconds'] or 0:8.3f} s  {r['item']}  {status}")
    print(f"record: {out.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
