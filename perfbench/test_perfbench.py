"""Tests of the benchmark itself: self-time arithmetic and repeatable counts.

Run from the root of the checkout: ``python3 -m pytest perfbench -q``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from spans import self_times

ROOT = Path(__file__).resolve().parents[1]


def test_self_times_on_nested_spans():
    spans = [
        ["root", 0.0, 10.0, -1, "a"],
        ["left", 1.0, 4.0, 0, "a"],
        ["right", 3.0, 6.0, 0, "a"],     # overlaps left: covered once
        ["inner", 2.0, 3.0, 1, "a"],     # grandchild: only left loses it
        ["late", 8.0, 12.0, 0, "a"],     # runs past its parent: clipped
        ["empty", 5.0, 5.0, 0, "a"],
        ["other", 20.0, 25.0, -1, "b"],
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 3.0, 1.0, 4.0, 0.0, 5.0])


def test_self_times_sum_to_the_root_duration():
    spans = [["root", 0.0, 8.0, -1, "a"], ["a", 1.0, 3.0, 0, "a"],
             ["b", 4.0, 7.0, 0, "a"], ["c", 4.5, 5.0, 2, "a"]]
    assert sum(self_times(spans)) == pytest.approx(8.0)


COUNT_METRICS = ("tensor.tape_nodes", "losses.pull_to_mean.nodes", "tensor.conv2d.l0.gflop",
                 "tensor.conv2d.l1.gflop", "tensor.conv2d.l2.gflop", "seedcut.seed_hit_ratio",
                 "bench.infer_samples")


def traced_run(workload, seed):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["grid16", "grid64", "seedcut16"])
def test_counts_repeat_across_seeds(workload):
    first, second = traced_run(workload, 1), traced_run(workload, 2)
    assert first["correct"] and second["correct"]
    assert first["attempted"] == second["attempted"]
    for name in COUNT_METRICS:
        assert first["metrics"][name] == second["metrics"][name], name
