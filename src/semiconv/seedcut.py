"""Mask decoding by seed selection and kernel cut, plus its trainer.

Given a rectangular region with a per-pixel score map, the decoder picks the
highest-scoring pixel as the seed, evaluates the kernel between the seed's
embedding and every pixel in the region, and fuses the log-kernel into the
scores. Thresholding the per-pixel probabilities yields the instance mask of
whatever the seed belongs to. Training adds a cross-entropy term that pushes
the kernel row toward the true mask, so the embedding geometry and the
kernel scale co-adapt. Both the trainer and the cutter describe all boxes of
a scene as one concatenated pixel list and fuse them in one pass.
"""

import copy
import functools
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import Tensor
from .kernels import fuse_boxes, fuse_scores
from .embedding import rows_at
from .losses import _bce_terms
from . import synth
from .synth import InstanceLabeling, gt_boxes_from_labels, region_pixel_indices


@dataclass
class RegionProposal:
    """Axis-aligned rect [x0, x1) x [y0, y1) with a score per pixel inside."""

    rect: tuple                 # (x0, y0, x1, y1)
    scores: object              # Tensor, rect height * width entries
    rows: object                # Tensor [N, D], embeddings of the rect's pixels

    def __post_init__(self):
        x0, y0, x1, y1 = self.rect
        if not (x0 < x1 and y0 < y1):
            raise ValueError("degenerate rectangle")
        n = (x1 - x0) * (y1 - y0)
        if self.scores.data.size != n:
            raise ValueError(f"score map has {self.scores.data.size} entries for a {n}-pixel rect")
        if self.rows.data.shape[0] != n:
            raise ValueError("embedding rows do not match the rect extent")

    @property
    def shape(self):
        x0, y0, x1, y1 = self.rect
        return (y1 - y0, x1 - x0)


def _cut(fused, threshold):
    if not (0.0 < threshold < 1.0):
        raise ValueError("threshold must lie in (0, 1)")
    return fused.probabilities.data >= threshold


def cut_region(region, params):
    """Binary mask over the region: probability(seed affinity) >= 0.5.

    The seed is the region's highest-scoring pixel (hard fusion).
    """
    fused = fuse_scores(region.scores, region.rows, params, "hard")
    return _cut(fused, 0.5).reshape(region.shape)


def _box_list(gt, boxes):
    """Every box's pixels as one list, marked where they hold the box's instance.

    Box k encloses instance k + 1, the order gt_boxes_from_labels gives.
    Returns region_pixel_indices' (pixels, ids, counts) plus ``truth``, True
    at each listed pixel of its box's instance, and the box's stand-in
    detector ``scores``: +1 on its instance, -1 elsewhere, so the seed lands
    on the instance. A box that holds no pixel of its instance raises
    ValueError.
    """
    pixels, ids, counts = region_pixel_indices(boxes, gt.labels.shape)
    truth = gt.labels.reshape(-1)[pixels] == ids + 1
    hits = np.bincount(ids, truth, counts.size)
    if not hits.all():
        k = int(np.argmin(hits))
        raise ValueError(f"box {tuple(int(v) for v in boxes[k])} holds no pixel "
                         f"of its instance {k + 1}")
    return pixels, ids, counts, truth, np.where(truth, 1.0, -1.0)


def box_loss(gt, boxes, params):
    """The seed-cut box loss, as a function of the embedding field.

    The mean over boxes of the cross entropy between the box's fused
    probabilities and the mask of its instance (box k holds instance k + 1,
    as in cut_all_boxes), with _box_list's stand-in scores. They never
    change, so the pixel list, the scores and the targets are built once
    here; each evaluation is one fuse_boxes call and one cross-entropy sum
    weighted 1/(B * box size). synth.train embeds only the pixels its
    read_pixels lists, so a box with a pixel outside every ground-truth box
    raises ValueError here, before any step.
    """
    pixels, ids, counts, truth, scores = _box_list(gt, boxes)
    outside = ~np.isin(pixels, synth.read_pixels(gt, boxes=True))
    if outside.any():
        k = ids[np.argmax(outside)]
        raise ValueError(f"box {tuple(int(v) for v in boxes[k])} reaches outside the "
                         "ground-truth boxes the training cone covers")
    weights = Tensor(1.0 / (counts.size * counts[ids]))

    def loss(field):
        rows = rows_at(field, pixels)
        fused = fuse_boxes(scores, rows, counts, params)
        return T.mul(T.tsum(T.mul(_bce_terms(fused.probabilities, truth), weights)), -1.0)

    return loss


def train_seedcut(scene, gt_boxes, cfg, params):
    """Joint training of the embedding backbone and the kernel scale of
    ``params`` (KernelParams), whose log-sigma is trained in place.

    Every step evaluates the pull-to-mean loss over the instance pixels plus
    the box_loss over ``gt_boxes`` (box k holds instance k + 1). The box loss
    reads the same embedding rows as cut_all_boxes, so training and cutting
    see one kernel.

    Returns (model, params, losses).
    """
    model, losses = synth.train(scene, cfg, extra_loss=box_loss(scene.gt, gt_boxes, params),
                                extra_params=[("log_sigma", t) for t in params.learnables()])
    return model, params, losses


@functools.lru_cache(maxsize=1)
def _box_layout(shape, dtype, labels):
    """The ground-truth boxes of a label map given as its shape, dtype and
    bytes, as a tuple, and their _box_list, every array read-only. A pure
    function of its arguments, so the last layout built is kept: a cut of
    another image with the same labels reuses it."""
    gt = InstanceLabeling(np.frombuffer(labels, dtype).reshape(shape))
    boxes = tuple(gt_boxes_from_labels(gt))
    listed = _box_list(gt, boxes)
    for arr in listed:
        arr.flags.writeable = False
    return boxes, listed


def cut_all_boxes(scene, model, params, cfg_mode="semiconv", threshold=0.5):
    """Cut every ground-truth box; returns (masks, boxes, per-box IoU).

    Box k encloses instance k + 1 and scores +1 on it, as in box_loss; all
    boxes go through one fuse_boxes call, and the thresholded list splits
    into the box masks. The boxes and their pixel list are built once per
    label map (_box_layout); ``boxes`` is the caller's own list. The backbone
    runs only over the box pixels' receptive cone (synth.cone_field), whose
    geometry the next cut with the same boxes reuses. The cut never
    backpropagates, so it records no tape: the field is built without one,
    and the kernel scale is read as a constant.
    """
    labels = scene.gt.labels
    boxes, (pixels, ids, counts, truth, scores) = _box_layout(
        labels.shape, labels.dtype, labels.tobytes())
    rows = rows_at(synth.cone_field(model, scene.image, pixels, cfg_mode), pixels)
    constant = copy.copy(params)
    constant.log_sigma = Tensor(params.log_sigma.data)
    fused = fuse_boxes(scores, rows, counts, constant)
    mask = _cut(fused, threshold)
    ious = np.bincount(ids, mask & truth, counts.size) / np.bincount(ids, mask | truth, counts.size)
    masks = [m.reshape(y1 - y0, x1 - x0)
             for m, (x0, y0, x1, y1) in zip(np.split(mask, np.cumsum(counts)[:-1]), boxes)]
    return masks, list(boxes), ious.tolist()


# -- run-length encoding -------------------------------------------------------

def rle_encode(mask):
    """Row-major run lengths, starting with the count of leading zeros."""
    flat = np.asarray(mask, dtype=bool).reshape(-1)
    edges = np.flatnonzero(np.diff(flat)) + 1
    counts = np.diff(np.concatenate(([0], edges, [flat.size]))).tolist()
    if flat.size and flat[0]:
        counts.insert(0, 0)
    return {"size": list(mask.shape), "counts": counts}


def _is_int(v):
    """True for an int or numpy integer; a bool (JSON true/false) is not one."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def rle_decode(doc):
    """Inverse of rle_encode; any malformed document raises ValueError.

    ``doc`` must be a dict whose "size" is a list of two and whose "counts" a
    list of non-negative, non-bool integers that add up to the pixel count.
    """
    if not isinstance(doc, dict):
        raise ValueError("a run-length document must be an object")
    size, counts = doc.get("size"), doc.get("counts")
    if (not isinstance(size, (list, tuple)) or len(size) != 2
            or not all(_is_int(v) and v >= 0 for v in size)):
        raise ValueError("size must be two non-negative integers")
    if not isinstance(counts, (list, tuple)) or not all(_is_int(r) and r >= 0 for r in counts):
        raise ValueError("run lengths must be a list of non-negative integers")
    h, w = size
    total = sum(int(r) for r in counts)  # Python ints: no run overflows before this check
    if total != int(h) * int(w):
        raise ValueError("run lengths do not cover the mask")
    if total > np.iinfo(np.intp).max:
        raise ValueError("mask too large")
    runs = np.asarray(counts, dtype=np.intp)
    # runs alternate between False and True, starting with False
    return np.repeat(np.arange(runs.size) % 2 == 1, runs).reshape(h, w)
