"""scripts/rss_phases.py: one benchmark round, its peak resident set after each phase."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def test_rss_phases_reports_each_phase_of_a_short_seedcut_round():
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "rss_phases.py"),
                           "seedcut16", "1", "2"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "rss_phases: workload seedcut16, seed 1, 2 cut operations"
    rows = [line.split() for line in lines[2:8]]
    assert [row[0] for row in rows] == ["imports", "setup-scenes", "setup-train", "setup-op",
                                        "train", "operations"]
    hwm = [float(row[1]) for row in rows]
    assert 0 < hwm[0] and hwm == sorted(hwm)
    assert all(float(row[2]) <= float(row[1]) for row in rows)
    # the training's checks, the save/load round trip and the contrast, then the cuts
    assert lines[8] == "operations: attempted 6, failed 0"


def test_rss_phases_makes_the_scenes_and_seeds_of_the_benchmark_setup():
    spec = importlib.util.spec_from_file_location("rss_phases", ROOT / "scripts" / "rss_phases.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    bench = script.load_bench()
    w = bench.WORKLOADS["seedcut16"]
    scene, variants, op_seeds = script.scenes(bench, w, 7, 3)
    want_scene, want_variants, want_seeds = bench.setup(w, 7, 3)
    assert op_seeds == want_seeds
    for got, want in zip([scene, *variants], [want_scene, *want_variants], strict=True):
        assert np.array_equal(got.image.data, want.image.data)
        assert np.array_equal(got.gt.labels, want.gt.labels)


def test_rss_phases_names_the_workloads_on_a_bad_argument():
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "rss_phases.py"), "grid32", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert proc.stderr.strip() == "usage: rss_phases.py {grid16,grid64,seedcut16} SEED [OPS]"
