"""Benchmark of the semiconv package: train, then decode or cut noisy scenes.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload grid16 --seed 1 --seconds 10 --trace 0

``--workload all`` runs the three workloads one after another, each in its
own process, and ends with one result whose metric names carry the workload.

The program is imported from ``src/`` next to this directory; without it the
benchmark exits with code 1 and prints no result. Load comes from one process
in a closed loop: each operation starts when the previous one returns, since
semiconv is an offline training and decoding tool, not a server. BLAS threads
are capped at the number of cores the process may run on, and glibc malloc
reuses freed memory instead of returning it (see ``pin_allocator``).

Workloads (why each one was chosen is recorded in BENCHMARK.json):

- ``grid16``: 4x4 dot grid, spacing 32, 128x128, K=16. Trains the controlled
  pair (conv and semiconv mode), round-trips both models through save/load,
  then decodes noisy variants of the scene with the semiconv model:
  ``build_field`` -> ``decode_kmeans`` -> ``score`` -> ``render_labels``.
- ``grid64``: 8x8 grid, spacing 10, 80x80, K=64. The same pipeline in
  semiconv mode only.
- ``seedcut16``: the grid16 scene. ``train_seedcut`` with a steered-Laplacian
  kernel, then ``cut_all_boxes`` plus ``rle_encode`` of every mask on noisy
  variants.

The training scene is the noise-free grid for every seed, because the
acceptance thresholds are defined on it, and the model starts from init seed
0. ``--seed`` picks the noise of the variant scenes and the k-means seeds.
``--seconds`` plans the inference phase: it runs ``seconds / nominal cost``
operations, at least 100 a round, so the count depends on the arguments only.

An operation whose output is wrong counts as failed. Every training loss must
be finite and the learned seed-cut sigma finite and positive. The acceptance
contrast decodes the training scene with k-means seed 0, as the acceptance
test does: the semiconv model reaches mean IoU 0.9 (grid16, and the cut on
seedcut16) or 0.85 (grid64), the conv model stays at or below 0.5. A decode of
a variant fails below mean IoU 0.85 on grid16 and 0.8 on grid64. That is
looser than the acceptance gate because k-means++ from a single seed can stop
in a local minimum: on grid16 it merges two of the 16 instances (mean IoU
0.876-0.883) for about 1.5% of seeds, on the noise-free scene too, and on
grid64 about one decode in 2000 ends between 0.83 and 0.85 (median 0.97).
The traced run reports the decode quality as ``bench.infer_mean_iou``. A cut
fails below mean cut IoU 0.9 or when a mask does not survive ``rle_encode``
then ``rle_decode``.

A run is three rounds (``Workload.rounds``); in each, an untraced run sets up
once in a fresh process, then every run trains from scratch, checks and
round-trips the models, and runs its share (at least 100) of the inference
operations.

With ``--trace 0`` the result holds the end-to-end metrics, each timing the
median over the rounds: ``setup_s`` (imports, scene generation, a one-epoch
warm-up training and one warm-up operation), ``train_steps_per_s`` (epochs /
wall time of the training call), ``infer_ms_p50``/``infer_ms_p90`` (one
decode on grid16 and grid64, one cut of every box plus RLE on seedcut16; the
percentiles of each round's operations) and ``peak_rss_mb``. With ``--trace 1`` the same work runs with the package's
public functions wrapped in spans (see ``spans.py``) and the result holds the
per-layer metrics; tracing is on for every other training step and every
other pass over the variant scenes, and the traced minus untraced medians are
reported as the tracing overhead. ``_ms`` metrics are medians per call, except
where ``PER_STEP`` and ``PER_OP`` below sum them over one training step or one
operation; a layer a workload never calls reads 0.

Every run writes its machine block, metrics and failures, and for a traced
run every span, to ``.perfbench_out/`` in the checkout. The last line of
standard output is the result as one JSON object.
"""

import time

_STARTED = time.perf_counter()

import argparse
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
NPROC = len(os.sched_getaffinity(0))

RADIUS = 3
MIN_SAMPLES = 100       # per round: p90 then has at least ten samples beyond it
SAVE_LOAD_REPEATS = 5
VARIANTS = 16           # noisy scenes per run; operations cycle through them
MALLOC_ENV = {"MALLOC_MMAP_MAX_": "0", "MALLOC_TRIM_THRESHOLD_": str(2**40)}
MAX_CONV_IOU = 0.5      # the conv model must not separate the identical dots
ACCEPT_KMEANS_SEED = 0  # the acceptance gate decodes the training scene with seed 0


@dataclass(frozen=True)
class Workload:
    name: str
    rows: int
    cols: int
    spacing: int
    op: str             # "decode" or "cut"
    modes: tuple        # training modes, the semiconv model trained last
    epochs: int
    noise: float        # pixel noise of the variant scenes
    accept_iou: float   # semiconv model on the training scene, as the acceptance gate
    min_iou: float      # per operation on a variant: decode mean_iou or mean cut IoU
    op_s: float         # nominal seconds per operation, plans the op count
    rounds: int         # trainings per run, each followed by a share of the operations


WORKLOADS = {
    w.name: w for w in (
        Workload("grid16", 4, 4, 32, "decode", ("conv", "semiconv"), 50, 0.05, 0.9, 0.85,
                 0.03, 3),
        Workload("grid64", 8, 8, 10, "decode", ("semiconv",), 100, 0.02, 0.85, 0.8, 0.07, 3),
        Workload("seedcut16", 4, 4, 32, "cut", ("semiconv",), 60, 0.05, 0.9, 0.9, 0.035, 3))
}

END_TO_END_UNITS = {"setup_s": "s", "train_steps_per_s": "1/s", "infer_ms_p50": "ms",
                    "infer_ms_p90": "ms", "peak_rss_mb": "MB"}

# per-layer metrics summed over one training step, or one inference operation
PER_STEP = {"kernels.fuse_scores.fwd_ms": "kernels.fuse_scores.fwd",
            "losses.mask_bce.fwd_ms": "losses.mask_bce.fwd",
            "seedcut.box_loss.bwd_ms": "seedcut.box_loss.bwd"}
PER_OP = {"seedcut.rle_encode_ms": "seedcut.rle_encode"}
MEDIAN_PER_CALL = {
    "tensor.backward_ms": "tensor.backward",
    "backbone.forward_ms": "backbone.forward",
    "backbone.save_load_ms": "backbone.save_load",
    "embedding.attach_coords_ms": "embedding.attach_coords",
    "embedding.field_rows_ms": "embedding.field_rows",
    "losses.pull_to_mean.fwd_ms": "losses.pull_to_mean.fwd",
    "losses.segment_set_ms": "losses.segment_set",
    "synth.generate_scene_ms": "synth.generate_scene",
    "seedcut.cut_all_boxes_ms": "seedcut.cut_all_boxes",
    "synth.decode_kmeans_ms": "synth.decode_kmeans",
    "synth.score_ms": "synth.score",
    "synth.sgd_step_ms": "synth.sgd_step",
    "render.render_labels_ms": "render.render_labels",
}
SELF_PER_CALL = {"tensor.backward.self_ms": "tensor.backward",
                 "backbone.forward.self_ms": "backbone.forward",
                 "seedcut.cut_all_boxes.self_ms": "seedcut.cut_all_boxes"}
COUNTS = ("tensor.tape_nodes", "losses.pull_to_mean.nodes")


def pin_allocator():
    """Re-run this script with glibc malloc keeping freed memory, if it does not yet.

    By default glibc serves large arrays from fresh mappings or a trimmed
    heap depending on what was freed before, and on grid16 consecutive
    decodes then alternate between two speeds (forward pass 33 or 43 ms). The
    median of such a mix jumps between the modes from run to run. With mmap
    off and trimming off, freed memory is reused and no call pays for fresh
    pages, so the timings are unimodal and count the program's own work; the
    page faults that the default policy adds are left out. The variables only
    take effect at process start, hence the exec.
    """
    if any(os.environ.get(k) != v for k, v in MALLOC_ENV.items()):
        os.environ.update(MALLOC_ENV)
        os.execv(sys.executable, [sys.executable, *sys.argv])


def cap_blas_threads():
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        cur = os.environ.get(var, "")
        if not cur.isdigit() or not 0 < int(cur) <= NPROC:
            os.environ[var] = str(NPROC)


def import_program():
    """Import semiconv from the checkout's src/, never from anywhere else."""
    if not (SRC / "semiconv" / "__init__.py").is_file():
        sys.exit(f"error: no semiconv package under {SRC}")
    sys.path.insert(0, str(SRC))
    import semiconv
    if Path(semiconv.__file__).resolve().parent != SRC / "semiconv":
        sys.exit(f"error: imported semiconv from {semiconv.__file__}, not {SRC}")


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def machine_info():
    import numpy as np
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {"nproc": NPROC, "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": blas_threads(),
            "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
            "malloc": {k: os.environ.get(k) for k in MALLOC_ENV}}


class Checks:
    """Operations attempted, and a line for each one whose output was wrong."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)


# -- the workload ---------------------------------------------------------------

def op_count(w, seconds):
    return max(MIN_SAMPLES * w.rounds, round(seconds / w.op_s))


def setup(w, seed, n_ops):
    """Scenes and seeds of one run, plus a one-epoch warm-up and one operation."""
    import numpy as np
    from semiconv import synth
    scene = synth.generate_scene(w.rows, w.cols, RADIUS, w.spacing)
    rng = np.random.default_rng(seed % 2**32)
    variants = [synth.generate_scene(w.rows, w.cols, RADIUS, w.spacing,
                                     img_noise_std=w.noise, seed=int(s))
                for s in rng.integers(2**31, size=VARIANTS)]
    op_seeds = [int(s) for s in rng.integers(2**31, size=n_ops)]
    warm, _, params = train_models(w, scene, epochs=1)
    run_op(w, warm["semiconv"], params, variants[0], scene.gt, op_seeds[0])
    return scene, variants, op_seeds


def train_models(w, scene, epochs):
    """Train the workload's models.

    Returns ({mode: model}, {mode: losses}, kernel params or None).
    """
    from semiconv import seedcut, synth
    from semiconv.kernels import KernelParams
    cfg = synth.TrainConfig(epochs=epochs, seed=0)
    if w.op == "cut":
        boxes = seedcut.gt_boxes_from_labels(scene.gt)
        model, params, losses = seedcut.train_seedcut(
            scene, boxes, cfg, params=KernelParams("steered_laplacian", sigma=1.0))
        return {"semiconv": model}, {"semiconv": losses}, params
    if w.modes == ("conv", "semiconv"):
        (conv, conv_losses), (semi, semi_losses) = synth.controlled_pair(scene, cfg)
        return ({"conv": conv, "semiconv": semi},
                {"conv": conv_losses, "semiconv": semi_losses}, None)
    model, losses = synth.train(scene, replace(cfg, mode="semiconv"))
    return {"semiconv": model}, {"semiconv": losses}, None


def run_op(w, model, params, scene, gt, op_seed, mode="semiconv"):
    """One inference; returns what the checks need."""
    from semiconv import render, seedcut, synth
    if w.op == "decode":
        field = synth.build_field(model, scene.image, mode)
        pred = synth.decode_kmeans(field, gt.foreground_mask(), gt.K, op_seed)
        metrics = synth.score(pred, gt)
        render.render_labels(pred)
        return metrics["mean_iou"]
    masks, _, ious = seedcut.cut_all_boxes(scene, model, params)
    return masks, [seedcut.rle_encode(m) for m in masks], ious


def check_op(w, checks, result, what, min_iou=None, max_iou=None):
    """Check one inference's output; returns its mean IoU."""
    import numpy as np
    from semiconv import seedcut
    if w.op == "decode":
        iou, round_trip = result, True
    else:
        masks, rles, ious = result
        iou = float(np.mean(ious))
        round_trip = all(np.array_equal(seedcut.rle_decode(r), m) for r, m in zip(rles, masks))
    ok = round_trip and (min_iou is None or iou >= min_iou) and (max_iou is None or iou <= max_iou)
    checks.check(ok, f"{what}: mean IoU {iou:.4f}, RLE round trip {round_trip}")
    return iou


def save_load(model, path, checks, tracer):
    import numpy as np
    from semiconv.backbone import Backbone
    loaded = None
    for _ in range(SAVE_LOAD_REPEATS):
        idx = tracer.begin("backbone.save_load") if tracer else None
        model.save(path)
        loaded = Backbone.load(path)
        if tracer:
            tracer.end(idx)
    path.unlink()
    same = all(np.array_equal(a.data, b.data.astype(np.float32).astype(np.float64))
               for a, b in zip(loaded.params(), model.params()))
    checks.check(same, "save/load: loaded weights differ from the saved float32 values")
    return loaded


def setup_in_child(w, seed, seconds, checks):
    """Set up in a fresh process; returns its set-up seconds, or None."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-child",
         "--workload", w.name, "--seed", str(seed), "--seconds", str(seconds)],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    ok = proc.returncode == 0
    checks.check(ok, f"setup process exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
    return float(proc.stdout.split()[-1]) if ok else None


def train_and_check(w, scene, checks, tracer):
    """Train, check the losses and the acceptance contrast, round-trip the models.

    Returns (models for inference, kernel params or None, training seconds).
    """
    import numpy as np
    started = time.perf_counter()
    models, losses, params = train_models(w, scene, w.epochs)
    train_s = time.perf_counter() - started
    for mode, curve in losses.items():
        checks.check(len(curve) == w.epochs and bool(np.all(np.isfinite(curve))),
                     f"train {mode}: non-finite or missing losses")
    if params is not None:
        checks.check(np.isfinite(params.sigma) and params.sigma > 0,
                     f"seedcut: sigma {params.sigma}")
    OUT.mkdir(exist_ok=True)
    for mode in list(models):
        loaded = save_load(models[mode], OUT / f"model-{w.name}-{mode}-{os.getpid()}.bin",
                           checks, tracer)
        if w.op == "decode":  # decoding reads the saved model, as the CLI does
            models[mode] = loaded
    for mode, model in models.items():
        result = run_op(w, model, params, scene, scene.gt, ACCEPT_KMEANS_SEED, mode)
        bounds = {"max_iou": MAX_CONV_IOU} if mode == "conv" else {"min_iou": w.accept_iou}
        check_op(w, checks, result, f"{mode} model on the training scene", **bounds)
    return models["semiconv"], params, train_s


def run_workload(name, seed, seconds, tracer=None):
    """Run one workload; returns (metrics, checks, step shares or None).

    With a tracer the metrics are the per-layer ones, else the end-to-end ones.
    The run is ``w.rounds`` rounds of a set-up, one training and a share of
    the inference operations, and the timings are medians over the rounds, so
    a stretch of the run in which the machine is slow (on a shared 2-core box
    its speed drifts by 10-20% within seconds) moves them less.
    """
    import numpy as np
    w = WORKLOADS[name]
    n_ops = op_count(w, seconds)
    checks = Checks()

    if tracer:
        tracer.enabled = True
    scene, variants, op_seeds = setup(w, seed, n_ops)
    if tracer:
        tracer.enabled = False
        tracer.gt_labels = scene.gt.labels

    setup_times, train_rates, times, traced_flags, ious = [], [], [], [], []
    round_ms = []  # (p50, p90) of each round's operations
    for r in range(w.rounds):
        if not tracer:
            setup_times.append(setup_in_child(w, seed, seconds, checks))
        model, params, train_s = train_and_check(w, scene, checks, tracer)
        train_rates.append(w.epochs * len(w.modes) / train_s)
        first = len(times)
        for i in range(r * n_ops // w.rounds, (r + 1) * n_ops // w.rounds):
            variant = variants[i % VARIANTS]
            traced = tracer is not None and (i // VARIANTS) % 2 == 0
            if tracer:
                tracer.enabled = traced
                tracer.run_id = f"{w.op}#{i}"
                idx = tracer.begin(f"bench.{w.op}") if traced else None
            t0 = time.perf_counter()
            result = run_op(w, model, params, variant, scene.gt, op_seeds[i])
            times.append(time.perf_counter() - t0)
            if tracer:
                if traced:
                    tracer.end(idx)
                tracer.enabled = False
            traced_flags.append(traced)
            ious.append(check_op(w, checks, result, f"{w.op} {i} (variant {i % VARIANTS})",
                                 min_iou=w.min_iou))
        round_ms.append(np.percentile(times[first:], [50, 90]) * 1e3)

    if tracer:
        metrics, shares = per_layer_metrics(tracer, times, traced_flags)
        metrics["bench.infer_samples"] = n_ops
        metrics["bench.infer_mean_iou"] = statistics.fmean(ious)
        return metrics, checks, shares
    p50, p90 = np.median(round_ms, axis=0)
    setup_times = [t for t in setup_times if t is not None]
    if not setup_times:
        sys.exit("error: every set-up process failed")
    return {"setup_s": statistics.median(setup_times),
            "train_steps_per_s": statistics.median(train_rates),
            "infer_ms_p50": float(p50),
            "infer_ms_p90": float(p90),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}, checks, None


# -- per-layer metrics from the spans ----------------------------------------------

def per_layer_metrics(tracer, op_times, traced_flags):
    from spans import END, NAME, PARENT, START, self_times
    spans = tracer.spans
    selfs = self_times(spans)
    by_name = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[NAME], []).append(i)

    def dur(i):
        return spans[i][END] - spans[i][START]

    def median_ms(name, values):
        idx = by_name.get(name, [])
        return statistics.median(values(i) for i in idx) * 1e3 if idx else 0.0

    def summed_per(name, group):
        sums = dict.fromkeys(by_name.get(group, []), 0.0)
        for i in by_name.get(name, []):
            a = spans[i][PARENT]
            while a >= 0 and spans[a][NAME] != group:
                a = spans[a][PARENT]
            if a >= 0:
                sums[a] += dur(i)
        return statistics.median(sums.values()) * 1e3 if sums else 0.0

    m = {}
    for layer in range(3):
        base = f"tensor.conv2d.l{layer}"
        m[f"{base}.fwd_ms"] = median_ms(f"{base}.fwd", dur)
        m[f"{base}.bwd_ms"] = median_ms(f"{base}.bwd", dur)
        m[f"{base}.gflop"] = tracer.counts.get(f"{base}.gflop", 0.0)
    m.update({k: median_ms(v, dur) for k, v in MEDIAN_PER_CALL.items()})
    m.update({k: median_ms(v, selfs.__getitem__) for k, v in SELF_PER_CALL.items()})
    m["losses.pull_to_mean.bwd_ms"] = summed_per("losses.pull_to_mean.bwd", "tensor.backward")
    m.update({k: summed_per(v, "synth.train.step") for k, v in PER_STEP.items()})
    m.update({k: summed_per(v, "bench.cut") for k, v in PER_OP.items()})
    m.update({k: tracer.counts.get(k, 0) for k in COUNTS})
    hits, boxes = tracer.seed_hits
    m["seedcut.seed_hit_ratio"] = hits / boxes if boxes else 0.0

    def overhead(pairs):
        on = [t for traced, t in pairs if traced]
        off = [t for traced, t in pairs if not traced]
        return (statistics.median(on) - statistics.median(off)) * 1e3 if on and off else 0.0

    m["trace.step_overhead_ms"] = overhead(tracer.step_times)
    m["trace.op_overhead_ms"] = overhead(list(zip(traced_flags, op_times)))
    return m, step_shares(spans, selfs)


def step_shares(spans, selfs):
    """Share of traced training-step time spent in each layer's own code."""
    from spans import END, NAME, PARENT, START
    steps = {i for i, s in enumerate(spans) if s[NAME] == "synth.train.step"}
    total = sum(spans[i][END] - spans[i][START] for i in steps)
    shares = {}
    for i, s in enumerate(spans):
        a = i
        while a >= 0 and a not in steps:
            a = spans[a][PARENT]
        if a < 0:
            continue
        # one entry per layer: conv layers and forward/backward halves together
        name = re.sub(r"(\.l\d)?\.(fwd|bwd)$", "", s[NAME])
        if name == "synth.train.step":
            name = "synth.train.step (outside any span)"
        shares[name] = shares.get(name, 0.0) + selfs[i]
    if not total:
        return {}
    return dict(sorted(((k, v / total) for k, v in shares.items()), key=lambda kv: -kv[1]))


# -- entry point ---------------------------------------------------------------------

def parse_args(argv):
    p = argparse.ArgumentParser(description="semiconv benchmark")
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    pin_allocator()
    cap_blas_threads()
    import_program()
    import numpy as np
    np.seterr(all="ignore")  # non-finite values raise from the ops themselves

    if args.workload == "all":
        return run_all(args)
    w = WORKLOADS[args.workload]
    if args.setup_child:
        setup(w, args.seed, op_count(w, args.seconds))
        print(time.perf_counter() - _STARTED)
        return 0

    machine = machine_info()
    tracer = undo = None
    if args.trace:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        import spans
        tracer = spans.Tracer()
        undo = spans.install(tracer)
    try:
        metrics, checks, shares = run_workload(args.workload, args.seed, args.seconds, tracer)
    finally:
        if undo:
            undo()
    units = {k: per_layer_unit(k) for k in metrics} if tracer else END_TO_END_UNITS

    print(f"semiconv benchmark: workload {args.workload}, seed {args.seed}, "
          f"{op_count(w, args.seconds)} {w.op} operations, trace {args.trace}")
    print("machine " + json.dumps(machine, sort_keys=True))
    for k, v in metrics.items():
        print(f"  {k:<34} {v:>14.6g} {units[k]}")
    if shares:
        print("share of traced training-step time, by self time:")
        for k, v in shares.items():
            print(f"  {k:<44} {100 * v:6.2f}%")
    print(f"operations: attempted {checks.attempted}, failed {len(checks.failures)}")
    for f in checks.failures:
        print(f"FAILED {f}")

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine, "metrics": metrics,
              "attempted": checks.attempted, "failures": checks.failures}
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer:
        record["step_shares"] = shares
        record["spans"] = tracer.spans
        record["self_s"] = spans.self_times(tracer.spans)
    with open(OUT / f"result-{stem}.json", "w") as fh:
        json.dump(record, fh)

    print(json.dumps({
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def run_all(args):
    """Run every workload in its own process; print their reports and one result."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            sys.exit(f"error: workload {name} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
        *report, last = proc.stdout.strip().splitlines()
        print("\n".join(report))
        results[name] = json.loads(last)
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{k}": v for name, r in results.items()
                    for k, v in r["metrics"].items()},
    }))
    return 0


def per_layer_unit(name):
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(".gflop"):
        return "GFLOP"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_iou"):
        return "IoU"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
