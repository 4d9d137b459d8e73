"""Fold a parent/change series of benchmark runs into one BENCH_<n>.json record.

Run ``python3 perfbench/run.py --workload all --seconds S --seed N`` in a
checkout of the parent commit and in one of the change, for the same seeds,
alternating which side runs first. Each run leaves
``.perfbench_out/result-<workload>-seed<N>-trace0.json`` in its checkout.
Then

    python3 scripts/fold_bench.py PARENT_OUT CHANGE_OUT BENCH_<n>.json

pairs the two directories' untraced results by workload and seed and writes,
for every workload and every end-to-end metric of BENCHMARK.json, each
side's median and quartiles, the number of pairs and the number the change
wins (a tie counts for neither side), plus the machine block and the
operation counts. ``gain_beyond_parent_iqr`` is true when the medians differ
in the metric's better direction by more than the parent's interquartile
range; a claim also needs wins in at least nine tenths of the pairs.
"""

import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def load(out_dir):
    """{(workload, seed): result} of the untraced results in a .perfbench_out directory."""
    results = {}
    for path in sorted(Path(out_dir).glob("result-*-trace0.json")):
        doc = json.loads(path.read_text())
        results[doc["workload"], doc["seed"]] = doc
    return results


def summary(values):
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": median, "q1": q1, "q3": q3}


def fold(parent, change, metrics):
    keys = sorted(parent.keys() & change.keys())
    if not keys:
        raise SystemExit("error: no workload and seed was run on both sides")
    record = {"machine": {"parent": parent[keys[0]]["machine"],
                          "change": change[keys[0]]["machine"]},
              "seconds": parent[keys[0]]["seconds"], "workloads": {}}
    for workload in sorted({w for w, _ in keys}):
        seeds = [s for w, s in keys if w == workload]
        sides = {"parent": [parent[workload, s] for s in seeds],
                 "change": [change[workload, s] for s in seeds]}
        entry = {"seeds": seeds, "pairs": len(seeds), "metrics": {},
                 "operations": {side: {"attempted": sum(r["attempted"] for r in runs),
                                       "failed": sum(len(r["failures"]) for r in runs)}
                                for side, runs in sides.items()}}
        for m in metrics:
            old = np.array([r["metrics"][m["name"]] for r in sides["parent"]])
            new = np.array([r["metrics"][m["name"]] for r in sides["change"]])
            sign = 1.0 if m["better"] == "higher" else -1.0
            p, c = summary(old), summary(new)
            entry["metrics"][m["name"]] = {
                "unit": m["unit"], "better": m["better"], "parent": p, "change": c,
                "wins": int(np.sum(sign * (new - old) > 0)),
                "gain_beyond_parent_iqr": bool(sign * (c["median"] - p["median"])
                                               > p["q3"] - p["q1"])}
        record["workloads"][workload] = entry
    return record


def main(argv):
    if len(argv) != 3:
        raise SystemExit("usage: fold_bench.py PARENT_OUT CHANGE_OUT OUT.json")
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    record = fold(load(argv[0]), load(argv[1]), metrics)
    Path(argv[2]).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
