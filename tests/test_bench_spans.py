"""The benchmark's traced mode still fits the package.

``perfbench/spans.py`` wraps package functions and methods by name from the
outside and calls some of them positionally, so a deletion or a signature
change in the package can break the traced benchmark without failing any
other test. This runs a short traced seed-cut training, a cut and a k-means
decode through those wrappers, then checks that undoing the install puts
every attribute back.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np

from semiconv import render, seedcut, synth
from semiconv.kernels import KernelParams
from semiconv.seedcut import RegionProposal
from semiconv.tensor import Tensor

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def attributes():
    """Every attribute of the loaded semiconv modules and of their classes."""
    out = {}
    for name, module in list(sys.modules.items()):
        if not name.startswith("semiconv"):
            continue
        for attr, value in vars(module).items():
            out[name, attr] = value
            if inspect.isclass(value) and value.__module__ == name:
                out.update(((name, attr, k), v) for k, v in vars(value).items())
    return out


def test_traced_run_goes_through_every_wrapper_and_undo_restores():
    spans = load_spans()
    before = attributes()
    tracer = spans.Tracer()
    undo = spans.install(tracer)
    try:
        patched = {k for k, v in attributes().items() if before.get(k) is not v}
        assert {("semiconv.synth", "train"), ("semiconv.seedcut", "cut_region"),
                ("semiconv.tensor", "Tensor", "backward")} <= patched

        scene = synth.generate_scene(2, 2, dot_radius=3, spacing=12)
        boxes = seedcut.gt_boxes_from_labels(scene.gt)
        cfg = synth.TrainConfig(epochs=3, seed=0)
        model, params, losses = seedcut.train_seedcut(
            scene, boxes, cfg, params=KernelParams("steered_laplacian", sigma=1.0))
        assert len(losses) == 3 and np.all(np.isfinite(losses))

        tracer.enabled = True
        tracer.gt_labels = scene.gt.labels
        masks, _, ious = seedcut.cut_all_boxes(scene, model, params)
        field = synth.build_field(model, scene.image, "semiconv")
        pred = synth.decode_kmeans(field, scene.gt.foreground_mask(), scene.gt.K, 0)
        render.render_labels(pred)
        region = RegionProposal((0, 0, 2, 1), Tensor([1.0, 0.0]), Tensor(np.zeros((2, 2))))
        assert seedcut.cut_region(region, KernelParams("gaussian")).all()
        tracer.enabled = False
        assert len(masks) == len(ious) == pred.K == 4
    finally:
        undo()

    names = {span[spans.NAME] for span in tracer.spans}
    assert {"synth.train.step", "backbone.forward", "tensor.backward",
            "losses.pull_to_mean.fwd", "seedcut.box_loss.fwd", "synth.sgd_step",
            "seedcut.cut_all_boxes", "synth.decode_kmeans", "render.render_labels",
            "kernels.fuse_scores.fwd"} <= names
    assert tracer.seed_hits[1] == 1  # the cut_region wrapper saw the fused seed
    after = attributes()
    assert [k for k, v in before.items() if after.get(k) is not v] == []
