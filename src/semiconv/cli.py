"""Command-line surface: reproducible experiment runs with stable outputs.

Every subcommand writes JSON (sorted keys, shortest round-trip floats) and
binary PPM renders, and drops a run manifest next to its main output. Two
invocations with the same flags produce byte-identical artifacts except for
the manifest's wall-clock duration.

Exit codes: 0 success, 1 usage or input problem, 2 numeric failure.
"""

import argparse
import json
import os
import sys
import time

import numpy as np

from . import __version__
from . import tensor as T
from .tensor import Tensor, NumericError
from .backbone import Backbone
from .embedding import displacement_field
from .kernels import KernelParams, fuse_scores, steered_laplacian
from .losses import SegmentSet, mask_bce, pull_to_mean_loss
from . import dilemma as dilemma_mod
from . import seedcut as seedcut_mod
from . import synth
from . import render


class UsageError(Exception):
    pass


class CliParser(argparse.ArgumentParser):
    # no abbreviated flags: a removed flag must not turn into the flag it prefixes
    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    # argparse exits 2 on bad usage; this surface reserves 2 for numeric failure
    def error(self, message):
        raise UsageError(message)


# -- JSON output --------------------------------------------------------------

def write_json(path, obj):
    """Sorted keys, two-space indent, floats in their shortest round-trip form."""
    # serialize first, so a non-finite value leaves no partial file behind
    try:
        text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:
        raise NumericError("non-finite value in JSON output") from None
    with open(path, "w") as fh:
        fh.write(text + "\n")


def write_manifest(subcommand, args, outputs, started):
    cfg = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    doc = {
        "subcommand": subcommand,
        "config": cfg,
        "seeds": [args.seed],
        "version": f"semiconv-{__version__}",
        "duration_s": time.perf_counter() - started,
        "outputs": [str(p) for p in outputs],
    }
    path = str(args.out) + ".manifest.json"
    write_json(path, doc)
    return path


# -- gradient check suite --------------------------------------------------------

def gradcheck_report(instances=20, seed=0):
    """Finite-difference checks over every differentiable op in the package.

    conv2d is checked over the table of every pixel of a 5x5 image, and
    over a neighbour table as training runs it: the corners and the centre
    of the image, whose taps wrap around its edges, in the weights and in
    the listed input, so the input gradient scatters back through the
    table into a list that is not the output list.
    """
    worst = {}

    def record(name, err):
        worst[name] = max(worst.get(name, 0.0), err)

    every = np.arange(25)
    whole = T.neighbour_table(T.tap_pixels((5, 5), every, 3, 3), every, 25)
    taps = T.tap_pixels((5, 5), [0, 4, 12, 20, 24], 3, 3)
    src = np.unique(taps)
    table = T.neighbour_table(taps, src, 25)

    def squared_listed(x, w):
        y = T.conv2d(x, w, table=table)
        return T.tsum(T.mul(y, y))

    for i in range(instances):
        rng = np.random.default_rng(seed + i)

        x = rng.standard_normal((2, 5, 5))
        w0 = rng.standard_normal((3, 2, 3, 3)) * 0.5
        record("conv2d", T.grad_check(
            lambda w: T.tsum(T.conv2d(Tensor(x.reshape(2, -1)), w, table=whole)),
            Tensor(w0)))
        listed = Tensor(x.reshape(2, -1)[:, src])
        record("conv2d", T.grad_check(lambda w: squared_listed(listed, w), Tensor(w0)))
        record("conv2d", T.grad_check(lambda xs: squared_listed(xs, Tensor(w0)), listed))

        rows = rng.standard_normal((6, 3))
        segs = SegmentSet([[0, 1, 2], [3, 4, 5]], [], 6)
        record("pull_to_mean_loss", T.grad_check(
            lambda r: pull_to_mean_loss(r, segs), Tensor(rows)))

        a, b = rng.standard_normal(4), rng.standard_normal(4)
        record("steered_laplacian", T.grad_check(
            lambda ls: steered_laplacian(a, b, T.exp(ls)),
            Tensor(rng.uniform(-0.5, 0.5, size=1))))

        s0 = rng.standard_normal(5)
        frows = rng.standard_normal((5, 3))
        record("fuse_scores_soft", T.grad_check(
            lambda s: T.tsum(fuse_scores(s, Tensor(frows),
                                         KernelParams("gaussian"), "soft").fused_scores),
            Tensor(s0)))

        gt = (rng.random(6) > 0.5).astype(float)
        record("mask_bce", T.grad_check(
            lambda logits: mask_bce(T.sigmoid(logits), gt),
            Tensor(rng.uniform(-2.0, 2.0, size=6))))

    threshold = 1e-4
    return {"ops": worst, "threshold": threshold,
            "instances_per_op": instances,
            "ok": all(v < threshold for v in worst.values())}


# -- subcommands -------------------------------------------------------------------

def cmd_dilemma(args):
    report = dilemma_mod.report(half_extent=args.half_extent, step=args.step,
                                n_stacks=args.stacks, seed=args.seed)
    write_json(args.out, report)
    return [args.out]


def cmd_synth_gen(args):
    scene = synth.generate_scene(args.rows, args.cols, args.radius,
                                 args.spacing, args.noise, args.seed)
    write_json(args.out, synth.scene_to_json(scene))
    return [args.out]


def _train_config(args):
    return synth.TrainConfig(mode=args.mode, dims=args.dims, epochs=args.epochs,
                             lr=args.lr, lr_decay=args.lr_decay, seed=args.seed)


def cmd_train(args):
    scene = synth.load_scene(args.scene)
    cfg = _train_config(args)
    model, losses = synth.train(scene, cfg)
    model.save(args.out)
    outputs = [args.out]
    if args.losses:
        write_json(args.losses, {"losses": losses, "mode": args.mode})
        outputs.append(args.losses)
    return outputs


def cmd_cluster(args):
    scene = synth.load_scene(args.scene)
    model = Backbone.load(args.model)
    # both readers look at the foreground only
    field = synth.cone_field(model, scene.image, np.flatnonzero(scene.gt.foreground_mask()),
                             args.mode)
    k = args.k if args.k > 0 else scene.gt.K
    pred = synth.decode_kmeans(field, scene.gt.foreground_mask(), k, args.seed)
    metrics = synth.score(pred, scene.gt)
    segs = SegmentSet.from_labels(scene.gt)
    metrics.update(mode=args.mode, final_loss=pull_to_mean_loss(field, segs).item())
    write_json(args.out, metrics)
    outputs = [args.out]
    if args.render:
        render.write_ppm(args.render, render.render_labels(pred))
        outputs.append(args.render)
    return outputs


def cmd_seedcut(args):
    scene = synth.load_scene(args.scene)
    cfg = _train_config(args)
    params = KernelParams("steered_laplacian", sigma=args.sigma_init)
    boxes = seedcut_mod.gt_boxes_from_labels(scene.gt)
    model, params, losses = seedcut_mod.train_seedcut(scene, boxes, cfg,
                                                      params=params)
    masks, boxes, ious = seedcut_mod.cut_all_boxes(
        scene, model, params, cfg_mode=args.mode, threshold=args.threshold)
    doc = {
        "boxes": [list(b) for b in boxes],
        "masks": [seedcut_mod.rle_encode(m) for m in masks],
        "ious": ious,
        "mean_iou": float(np.mean(ious)),
        "sigma": params.sigma,
        "final_loss": losses[-1] if losses else None,
    }
    write_json(args.out, doc)
    outputs = [args.out]
    if args.render:
        combined = np.zeros(scene.shape, dtype=np.int32)
        for i, ((x0, y0, x1, y1), m) in enumerate(zip(boxes, masks), start=1):
            patch = combined[y0:y1, x0:x1]
            patch[m] = i
        render.write_ppm(args.render, render.render_labels(combined))
        outputs.append(args.render)
    return outputs


def cmd_gradcheck(args):
    report = gradcheck_report(instances=args.instances, seed=args.seed)
    write_json(args.out, report)
    if not report["ok"]:
        raise NumericError("gradient check exceeded threshold")
    return [args.out]


def cmd_render_arrows(args):
    scene = synth.load_scene(args.scene)
    model = Backbone.load(args.model)
    synth._keep_freed_memory()  # the decode allocates as training does
    # one arrow from every stride-th pixel of every stride-th row, read on their cone
    grid = np.arange(scene.image.data[0].size).reshape(scene.shape)
    pixels = grid[::args.stride, ::args.stride].ravel()
    field = synth.cone_field(model, scene.image, pixels, "semiconv")
    rgb = render.render_arrows(scene.image, pixels, displacement_field(field, pixels))
    render.write_ppm(args.out, rgb)
    return [args.out]


# -- wiring -------------------------------------------------------------------------

def output_path(text):
    # checked when the flags are parsed, so a bad path fails before any work
    if os.path.isdir(text):
        raise argparse.ArgumentTypeError(f"{text} is a directory, not a file")
    parent = os.path.dirname(text) or "."
    if not os.path.isdir(parent):
        raise argparse.ArgumentTypeError(f"directory {parent} does not exist")
    return text


def _checked(name, parse, ok, rule):
    """A flag type that parses its text, then holds the value to ``ok``.

    argparse reports a ValueError from ``parse`` as "invalid <name> value";
    a parsed value that fails ``ok`` as "must <rule>, got <text>".
    """
    def check(text):
        x = parse(text)
        if not ok(x):
            raise argparse.ArgumentTypeError(f"must {rule}, got {text}")
        return x
    check.__name__ = name
    return check


positive_int = _checked("positive_int", int, lambda n: n >= 1, "be a positive integer")
non_negative_int = _checked("non_negative_int", int, lambda n: n >= 0,
                            "be a non-negative integer")
finite_float = _checked("finite_float", float, np.isfinite, "be a finite number")
non_negative_float = _checked("non_negative_float", finite_float, lambda x: x >= 0,
                              "be a non-negative number")
open_unit_float = _checked("open_unit_float", finite_float, lambda x: 0.0 < x < 1.0,
                           "lie strictly between 0 and 1")


def _add_common(p):
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=output_path, required=True)
    p.add_argument("--config", default=None,
                   help="JSON file whose entries override flags")


def _add_train_flags(p):
    d = synth.TrainConfig()
    p.add_argument("--mode", choices=synth.MODES, default=d.mode)
    p.add_argument("--epochs", type=non_negative_int, default=d.epochs)
    p.add_argument("--lr", type=finite_float, default=d.lr)
    p.add_argument("--lr-decay", type=finite_float, default=d.lr_decay)
    p.add_argument("--dims", type=positive_int, default=d.dims)


def build_parser():
    parser = CliParser(prog="semiconv",
                       description="semi-convolutional instance embeddings")
    sub = parser.add_subparsers(dest="subcommand", parser_class=CliParser)

    p = sub.add_parser("dilemma", help="1-d coloring contrast report")
    _add_common(p)
    p.add_argument("--half-extent", type=finite_float, default=4.0)
    p.add_argument("--step", type=finite_float, default=0.25)
    p.add_argument("--stacks", type=positive_int, default=5)
    p.set_defaults(func=cmd_dilemma)

    p = sub.add_parser("synth-gen", help="generate a dot-grid scene")
    _add_common(p)
    p.add_argument("--rows", type=positive_int, default=4)
    p.add_argument("--cols", type=positive_int, default=4)
    p.add_argument("--radius", type=positive_int, default=3)
    p.add_argument("--spacing", type=positive_int, default=32)
    p.add_argument("--noise", type=non_negative_float, default=0.0)
    p.set_defaults(func=cmd_synth_gen)

    p = sub.add_parser("train", help="fit embeddings to a scene")
    _add_common(p)
    _add_train_flags(p)
    p.add_argument("--scene", required=True)
    p.add_argument("--losses", type=output_path, default=None,
                   help="also write the loss curve")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("cluster", help="k-means decode and score")
    _add_common(p)
    p.add_argument("--scene", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--mode", choices=synth.MODES, default="semiconv")
    p.add_argument("--k", type=non_negative_int, default=0, help="0 uses the true count")
    p.add_argument("--render", type=output_path, default=None,
                   help="also write a cluster PPM")
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("seedcut", help="train and cut instance masks")
    _add_common(p)
    _add_train_flags(p)
    p.add_argument("--scene", required=True)
    p.add_argument("--threshold", type=open_unit_float, default=0.5)
    p.add_argument("--sigma-init", type=finite_float, default=1.0)
    p.add_argument("--render", type=output_path, default=None)
    p.set_defaults(func=cmd_seedcut)

    p = sub.add_parser("gradcheck", help="finite-difference gradient audit")
    _add_common(p)
    p.add_argument("--instances", type=positive_int, default=20)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("render-arrows", help="displacement arrow overlay")
    _add_common(p)
    p.add_argument("--scene", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--stride", type=positive_int, default=4)
    p.set_defaults(func=cmd_render_arrows)

    return parser


def _config_tokens(args):
    """Entries of the --config JSON object as ``--flag=value`` argv tokens."""
    if not args.config:
        return []
    try:
        with open(args.config) as fh:
            overrides = json.load(fh)
    except RecursionError:
        raise ValueError(f"config file {args.config} nests too deeply") from None
    if not isinstance(overrides, dict):
        raise UsageError("config file must hold a JSON object")
    tokens = []
    for key, val in overrides.items():
        attr = key.replace("-", "_")
        if not hasattr(args, attr) or attr in ("func", "config", "subcommand"):
            raise UsageError(f"config key '{key}' is not a flag of this subcommand")
        if isinstance(val, bool) or not isinstance(val, (str, int, float)):
            raise UsageError(f"config key '{key}' must be a string or a number")
        tokens.append(f"--{attr.replace('_', '-')}={val}")
    return tokens


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    started = time.perf_counter()
    try:
        args = parser.parse_args(argv)
        if not hasattr(args, "func"):
            parser.print_usage(sys.stderr)
            return 1
        # config entries go after the command line, so they override its flags
        # and pass the same type checks
        tokens = _config_tokens(args)
        if tokens:
            args = parser.parse_args(argv + tokens)
        # non-finite intermediates raise NumericError from the op itself;
        # numpy's warnings on the same event are just noise on stderr
        with np.errstate(all="ignore"):
            outputs = args.func(args)
        write_manifest(args.subcommand, args, outputs, started)
    # a MemoryError comes from a flag that asks for more than the host can
    # allocate; numpy's message names the size
    except (UsageError, OSError, KeyError, ValueError, MemoryError) as err:
        print(f"error: {str(err) or 'out of memory'}", file=sys.stderr)
        return 1
    except NumericError as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
