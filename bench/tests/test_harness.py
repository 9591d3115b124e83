"""Self-test of the benchmark harness.

    python3 -m pytest bench/tests -q

Shows that the output check counts a corrupted byte, a wrong exit code, a
traceback and a timeout as failed items, that tracing leaves stdout
byte-identical, that the metric names agree with BENCHMARK.json, and that
the benchmark refuses to run where there is no program to measure.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import run  # noqa: E402

CHEAP_ITEMS = [["poly", "basis", "60"], ["poly", "chebyshev-limit", "60"]]


def _run_items(items, trace, workdir):
    deadline = time.monotonic() + 120
    return [run.run_child(argv, trace, deadline, str(workdir)) for argv in items]


def _error_rate(results, golden):
    return run.error_rate([run.check_item(r, golden) for r in results])


def test_corrupted_byte_and_wrong_exit_code_raise_error_rate(tmp_path):
    golden = run.load_golden()
    clean = _run_items(CHEAP_ITEMS, False, tmp_path)
    assert _error_rate(clean, golden) == 0.0

    stdout = bytearray(clean[0]["stdout"])
    stdout[len(stdout) // 2] ^= 0x01
    corrupted = dict(clean[0], stdout=bytes(stdout))
    assert run.check_item(corrupted, golden) == "stdout differs from golden"
    assert _error_rate([corrupted, clean[1]], golden) == 0.5

    wrong_code = dict(clean[1], exit_code=1)
    assert run.check_item(wrong_code, golden).startswith("exit code 1")
    assert _error_rate([corrupted, wrong_code], golden) == 1.0


def test_traceback_and_timeout_count_as_failures(tmp_path):
    golden = run.load_golden()
    (clean,) = _run_items(CHEAP_ITEMS[:1], False, tmp_path)
    crashed = dict(clean, stderr=b"Traceback (most recent call last):\n  ...\n")
    timed_out = {"argv": clean["argv"], "timed_out": True, "timeout_s": 1.0}
    assert run.check_item(crashed, golden) == "traceback on stderr"
    assert run.check_item(timed_out, golden).startswith("timed out")
    assert _error_rate([clean, crashed, timed_out], golden) == 2 / 3


def test_traced_stdout_is_byte_identical(tmp_path):
    items = CHEAP_ITEMS + [["orthogonality", "8", "8"]]
    golden = run.load_golden()
    untraced = _run_items(items, False, tmp_path)
    traced = _run_items(items, True, tmp_path)
    for plain, with_spans in zip(untraced, traced):
        assert with_spans["stdout"] == plain["stdout"]
        assert run.check_item(with_spans, golden) is None
        assert with_spans["report"]["spans"]
    spans = layers.merge(r["report"]["spans"] for r in traced)
    assert ("moments.apply_functional", "moments.inner_product") in spans
    assert ("cli.orthogonality", "root") in spans


def test_metric_names_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    produced = {k: v["unit"] for k, v in layers.layer_metrics({}, {}, 1.0).items()}
    assert produced == declared
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    one_pass = [{"wall_s": 1.0, "cpu_s": 1.0}]
    produced = {k: v["unit"] for k, v in run.end_to_end_metrics(one_pass, [0.1], 1024).items()}
    assert produced == {m["name"]: m["unit"] for m in spec["end_to_end"]}


def test_every_selectable_item_has_a_golden_record():
    golden = run.load_golden()
    for workload in run.WORKLOADS:
        for argv in run.selectable_items(workload):
            assert run.item_key(argv) in golden
        for seed in range(20):
            for argv in run.workload_items(workload, seed):
                assert run.item_key(argv) in golden


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli-algebra",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
