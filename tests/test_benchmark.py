"""The benchmark's output checks, run at a tiny size among the tests.

``perfbench/run.py`` checks every output it produces (decodes against
the posteriors, losses against ``ctc_loss``, each round or pipeline
against the first, CLI artifacts byte for byte) and counts each failure
against the operations attempted. Running it here makes a change that
breaks one of those checks fail the tests, not only the benchmark.
train-short and train-long-lstm cover ``fit`` on the RNN and the LSTM,
infer-long the facade's inference calls, cli-pipeline the CLI and the
model files; ``--trace 1`` also checks that the traced calls give the
untraced results.
"""

import json
import os
import subprocess
import sys

import pytest

from ctckit import net

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["train-short", "train-long-lstm",
                                      "infer-long", "cli-pipeline"])
def test_tiny_run_passes_every_output_check(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", "5", "--seconds", "0.5",
         "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    *_, detail, result = proc.stdout.strip().splitlines()
    detail, result = json.loads(detail)["detail"], json.loads(result)
    problems = [line for line in proc.stdout.splitlines() if "FAILED" in line]
    assert result["attempted"] >= 1
    assert detail["error_rate"] == 0 and result["correct"], problems
    if trace:
        assert result["metrics"]["trace.consistent"]["value"] == 1.0


def test_the_workloads_keep_their_group_sizes(monkeypatch):
    """The bytes a frame that size the workloads' groups.

    ``net.activation_groups`` fits each group to ACTIVATION_BYTES at
    ``net.stored_bytes_per_frame``, so these counts set how many frames
    a group holds and how many recurrent steps a workload runs: a change
    to them shows here before it shows in the benchmark's timings.
    """
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    import workloads
    counts = {spec: (net.stored_bytes_per_frame(spec, False),
                     net.stored_bytes_per_frame(spec))
              for spec in (workloads.LONG_SPEC, workloads.SHORT_SPEC)}
    assert counts == {workloads.LONG_SPEC: (5472, 12872),
                      workloads.SHORT_SPEC: (832, 616)}


@pytest.mark.parametrize("seed", [1, 7, 13])
def test_train_long_lstm_runs_two_groups_a_batch(monkeypatch, tmp_path, seed):
    """At the default budget, train-long-lstm's one batch of eight
    sequences runs as two groups, two recurrences a layer where a 4 MiB
    budget ran four: a change to the budget shows here before it shows
    in the benchmark's timings."""
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    import workloads
    workload = workloads.make_workload("train-long-lstm", seed, False,
                                       str(tmp_path))
    workload.setup()
    sequences = workload.dataset.sequences
    assert len(sequences) <= workload.batch_size
    groups = net.activation_groups(workload.spec,
                                   [f.shape[0] for f, _ in sequences])
    assert len(groups) == 2
