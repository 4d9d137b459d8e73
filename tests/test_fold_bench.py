"""scripts/fold_bench.py: pairing, quartiles, wins and operation counts."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = importlib.util.spec_from_file_location("fold_bench", ROOT / "scripts" / "fold_bench.py")
fold_bench = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(fold_bench)

METRICS = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]


def write_results(out_dir, workload, runs):
    """One untraced result file per seed; ``runs`` maps seed -> (metrics, failures)."""
    out_dir.mkdir(exist_ok=True)
    for seed, (values, failures) in runs.items():
        metrics = dict.fromkeys(METRICS, 1.0)
        metrics.update(values)
        doc = {"workload": workload, "seed": seed, "seconds": 10,
               "machine": {"cpus": 2, "side": out_dir.name}, "metrics": metrics,
               "attempted": 10, "failures": [f"check {i}" for i in range(failures)]}
        (out_dir / f"result-{workload}-seed{seed}-trace0.json").write_text(json.dumps(doc))
    # a traced run is not part of the fold
    (out_dir / f"result-{workload}-seed{seed}-trace1.json").write_text("not json")


def fold(tmp_path, parent, change):
    for side, runs in (("parent", parent), ("change", change)):
        write_results(tmp_path / side, "grid16", runs)
    out = tmp_path / "BENCH.json"
    assert fold_bench.main([tmp_path / "parent", tmp_path / "change", out]) == 0
    return json.loads(out.read_text())


def test_fold_pairs_seeds_and_counts_wins(tmp_path):
    p50 = {1: 10.0, 2: 12.0, 3: 14.0, 4: 16.0}
    p90 = {1: 20.0, 2: 21.0, 3: 22.0, 4: 23.0}
    parent = {s: ({"infer_ms_p50": p50[s], "infer_ms_p90": p90[s]}, 0) for s in p50}
    # seed 6 runs on the parent side only
    parent[6] = ({"infer_ms_p50": 1000.0, "infer_ms_p90": 1000.0}, 5)
    new_p50 = {1: 9.0, 2: 12.0, 3: 11.0, 4: 15.0}
    change = {s: ({"infer_ms_p50": new_p50[s], "infer_ms_p90": 10.0}, s % 2) for s in new_p50}
    # seed 5 runs on the change side only
    change[5] = ({"infer_ms_p50": 0.0, "infer_ms_p90": 0.0}, 7)
    record = fold(tmp_path, parent, change)

    assert record["seconds"] == 10
    assert record["machine"] == {"parent": {"cpus": 2, "side": "parent"},
                                 "change": {"cpus": 2, "side": "change"}}
    entry = record["workloads"]["grid16"]
    assert entry["seeds"] == [1, 2, 3, 4] and entry["pairs"] == 4
    assert entry["operations"] == {"parent": {"attempted": 40, "failed": 0},
                                   "change": {"attempted": 40, "failed": 2}}
    assert sorted(entry["metrics"]) == sorted(METRICS)

    # lower is better; seed 2 ties and counts for neither side
    m = entry["metrics"]["infer_ms_p50"]
    assert m["better"] == "lower" and m["unit"] == "ms"
    assert m["parent"] == {"median": 13.0, "q1": 11.5, "q3": 14.5}
    assert m["change"] == {"median": 11.5, "q1": 10.5, "q3": 12.75}
    assert m["wins"] == 3
    # 1.5 ms better, inside the parent's 3 ms interquartile range
    assert m["gain_beyond_parent_iqr"] is False

    m = entry["metrics"]["infer_ms_p90"]
    assert m["wins"] == 4 and m["gain_beyond_parent_iqr"] is True

    # every pair ties on a metric that never moves
    m = entry["metrics"]["train_steps_per_s"]
    assert m["better"] == "higher" and m["wins"] == 0
    assert m["gain_beyond_parent_iqr"] is False


def test_a_loss_in_the_better_direction_is_no_gain(tmp_path):
    parent = {s: ({"train_steps_per_s": 100.0 + s}, 0) for s in range(4)}
    change = {s: ({"train_steps_per_s": 50.0 + s}, 0) for s in range(4)}
    m = fold(tmp_path, parent, change)["workloads"]["grid16"]["metrics"]["train_steps_per_s"]
    assert m["wins"] == 0 and m["gain_beyond_parent_iqr"] is False


def test_no_common_seed_exits(tmp_path):
    write_results(tmp_path / "parent", "grid16", {1: ({}, 0)})
    write_results(tmp_path / "change", "grid16", {2: ({}, 0)})
    with pytest.raises(SystemExit, match="no workload and seed was run on both sides"):
        fold_bench.main([tmp_path / "parent", tmp_path / "change", tmp_path / "B.json"])
    assert not (tmp_path / "B.json").exists()
