"""Print the resident-set high-water mark of each phase of one benchmark round.

    python3 scripts/rss_phases.py WORKLOAD SEED [OPS]

Runs one round of ``perfbench/run.py``'s WORKLOAD the way the benchmark
does, through its own functions: ``pin_allocator`` and ``cap_blas_threads``
(the same malloc settings and BLAS thread cap), then ``setup``'s three steps
one at a time (the scenes and operation seeds, as ``scenes`` makes them, a
one-epoch warm-up ``train_models`` and one warm-up ``run_op``),
``train_and_check`` (the workload's training, its checks and the save/load
round trip) and OPS calls of ``run_op`` on the variant scenes, by default
one round's share of a 10-second run. After the imports and after each step
it prints the process's VmHWM (its peak resident set, which the benchmark
reports as ``peak_rss_mb``) and VmRSS, in MB, as /proc/self/status gives
them. So the step that sets ``peak_rss_mb`` is the first whose VmHWM
reaches the last line's. It exits 1 when an operation fails its check.
"""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_bench():
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


def memory_mb():
    """(VmHWM, VmRSS) of this process in MB."""
    with open("/proc/self/status") as fh:
        fields = dict(line.split(":", 1) for line in fh if line.startswith(("VmHWM", "VmRSS")))
    return tuple(int(fields[k].split()[0]) / 1024.0 for k in ("VmHWM", "VmRSS"))


def report(phase):
    hwm, rss = memory_mb()
    print(f"{phase:<12} {hwm:10.2f} {rss:10.2f}", flush=True)


def scenes(bench, w, seed, n_ops):
    """(scene, variants, op_seeds): the first step of the benchmark's
    ``setup``, with its draws in its order."""
    import numpy as np
    from semiconv import synth
    scene = synth.generate_scene(w.rows, w.cols, bench.RADIUS, w.spacing)
    rng = np.random.default_rng(seed % 2**32)
    variants = [synth.generate_scene(w.rows, w.cols, bench.RADIUS, w.spacing,
                                     img_noise_std=w.noise, seed=int(s))
                for s in rng.integers(2**31, size=bench.VARIANTS)]
    op_seeds = [int(s) for s in rng.integers(2**31, size=n_ops)]
    return scene, variants, op_seeds


def main(argv):
    bench = load_bench()
    if len(argv) not in (2, 3) or argv[0] not in bench.WORKLOADS:
        raise SystemExit(f"usage: rss_phases.py {{{','.join(bench.WORKLOADS)}}} SEED [OPS]")
    w = bench.WORKLOADS[argv[0]]
    seed = int(argv[1])
    n_ops = int(argv[2]) if len(argv) == 3 else bench.op_count(w, 10.0) // w.rounds
    bench.pin_allocator()  # re-runs this script under the benchmark's malloc settings
    bench.cap_blas_threads()
    bench.import_program()
    import numpy as np
    np.seterr(all="ignore")  # as the benchmark: non-finite values raise from the ops

    print(f"rss_phases: workload {w.name}, seed {seed}, {n_ops} {w.op} operations")
    print(f"{'phase':<12} {'VmHWM MB':>10} {'VmRSS MB':>10}")
    report("imports")
    # setup's steps, in its order
    scene, variants, op_seeds = scenes(bench, w, seed, max(n_ops, 1))
    report("setup-scenes")
    warm, _, params = bench.train_models(w, scene, epochs=1)
    report("setup-train")
    bench.run_op(w, warm["semiconv"], params, variants[0], scene.gt, op_seeds[0])
    report("setup-op")
    del warm, params  # as setup's locals go when it returns
    checks = bench.Checks()
    model, params, _ = bench.train_and_check(w, scene, checks, None)
    report("train")
    for i in range(n_ops):
        result = bench.run_op(w, model, params, variants[i % bench.VARIANTS], scene.gt,
                              op_seeds[i])
        bench.check_op(w, checks, result, f"{w.op} {i}", min_iou=w.min_iou)
    report("operations")
    print(f"operations: attempted {checks.attempted}, failed {len(checks.failures)}")
    for failure in checks.failures:
        print(f"FAILED {failure}")
    return 1 if checks.failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
