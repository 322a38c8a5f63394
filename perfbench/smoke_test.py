"""Smoke test of the benchmark: every workload at a tiny size.

    python3 perfbench/smoke_test.py        (or: python3 -m pytest perfbench/smoke_test.py)

Runs ``run.py --tiny`` untraced and traced for each workload and checks
that the result line carries exactly the metrics BENCHMARK.json names,
each with its unit, that no operation failed, and that the traced run
matched the untraced one.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_tiny(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_every_workload_reports_every_metric():
    spec = declared()
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = run_tiny(workload, trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0, (workload, result)
            assert result["attempted"] >= 1
            expected = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == expected, (workload, trace)
            if trace:
                assert result["metrics"]["trace.consistent"]["value"] == 1.0, workload
            print("ok %-16s trace %d: %d operations, error_rate 0"
                  % (workload, trace, result["attempted"]))


def test_refuses_a_tree_without_sources():
    """With only BENCHMARK.json and perfbench/, run.py fails and prints nothing."""
    scratch = tempfile.mkdtemp(prefix=".perfbench-smoke-", dir=ROOT)
    try:
        shutil.copytree(HERE, os.path.join(scratch, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), scratch)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "train-short",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=scratch, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(scratch)
    assert proc.returncode != 0 and proc.stdout == "", proc.stdout


if __name__ == "__main__":
    test_every_workload_reports_every_metric()
    test_refuses_a_tree_without_sources()
    print("smoke test passed")
