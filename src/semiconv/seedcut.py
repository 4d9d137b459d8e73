"""Mask decoding by seed selection and kernel cut, plus its trainer.

Given a rectangular region with a per-pixel score map, the decoder picks the
highest-scoring pixel as the seed, evaluates the kernel between the seed's
embedding and every pixel in the region, and fuses the log-kernel into the
scores. Thresholding the per-pixel probabilities yields the instance mask of
whatever the seed belongs to. Training adds a cross-entropy term that pushes
the kernel row toward the true mask, so the embedding geometry and the
kernel scale co-adapt.
"""

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import Tensor
from .kernels import KernelParams, fuse_scores, kernel_rows
from .losses import mask_bce
from . import synth


@dataclass
class RegionProposal:
    """Axis-aligned rect [x0, x1) x [y0, y1) with a score per pixel inside."""

    rect: tuple                 # (x0, y0, x1, y1)
    scores: object              # Tensor or array, rect height * width entries
    rows: object                # Tensor [N, D], embeddings of the rect's pixels

    def __post_init__(self):
        x0, y0, x1, y1 = self.rect
        if not (x0 < x1 and y0 < y1):
            raise ValueError("degenerate rectangle")
        n = (x1 - x0) * (y1 - y0)
        s = self.scores.data if isinstance(self.scores, Tensor) else np.asarray(self.scores)
        if s.size != n:
            raise ValueError(f"score map has {s.size} entries for a {n}-pixel rect")
        if self.rows.data.shape[0] != n:
            raise ValueError("embedding rows do not match the rect extent")

    @property
    def shape(self):
        x0, y0, x1, y1 = self.rect
        return (y1 - y0, x1 - x0)


def region_pixel_indices(rect, width):
    """Linear pixel indices covered by the rect, row-major within the rect."""
    x0, y0, x1, y1 = rect
    ys = np.arange(y0, y1)
    xs = np.arange(x0, x1)
    return (ys[:, None] * width + xs[None, :]).reshape(-1)


def crop_region(field, rect, scores, params=None):
    """Build a RegionProposal from a full-image field and a score map."""
    h, w = field.spatial_shape
    x0, y0, x1, y1 = rect
    if not (0 <= x0 < x1 <= w and 0 <= y0 < y1 <= h):
        raise ValueError(f"rect {rect} falls outside the {h}x{w} image")
    family = params.family if params is not None else "gaussian"
    all_rows = kernel_rows(field, family)
    idx = region_pixel_indices(rect, w)
    rows = T.index_select(all_rows, 0, idx)
    s = scores if isinstance(scores, Tensor) else Tensor(np.asarray(scores, dtype=float))
    return RegionProposal(rect, T.reshape(s, (idx.size,)), rows)


def cut_region(region, params, threshold=0.5):
    """Binary mask over the region: probability(seed affinity) >= threshold.

    The seed is the region's highest-scoring pixel (hard fusion).
    """
    if not (0.0 < threshold < 1.0):
        raise ValueError("threshold must lie in (0, 1)")
    fused = fuse_scores(region.scores, region.rows, params, "hard")
    mask = fused.probabilities.data >= threshold
    return mask.reshape(region.shape)


def gt_boxes_from_labels(gt, pad=1):
    """Tight axis-aligned boxes (x0, y0, x1, y1) around each instance id."""
    labels = gt.labels
    h, w = labels.shape
    boxes = []
    for k in range(1, gt.K + 1):
        ys, xs = np.nonzero(labels == k)
        boxes.append((max(int(xs.min()) - pad, 0), max(int(ys.min()) - pad, 0),
                      min(int(xs.max()) + 1 + pad, w), min(int(ys.max()) + 1 + pad, h)))
    return boxes


def synthetic_scores(gt, rect, instance_id):
    """Score map over the rect: +1 on the instance's pixels, -1 elsewhere."""
    x0, y0, x1, y1 = rect
    inside = gt.labels[y0:y1, x0:x1] == instance_id
    return np.where(inside, 1.0, -1.0).reshape(-1)


def _box_instance(gt, rect):
    # the instance a ground-truth box encloses: majority foreground id inside
    x0, y0, x1, y1 = rect
    patch = gt.labels[y0:y1, x0:x1]
    ids, counts = np.unique(patch[patch > 0], return_counts=True)
    if ids.size == 0:
        raise ValueError(f"box {rect} contains no foreground")
    return int(ids[np.argmax(counts)])


def train_seedcut(scene, gt_boxes, cfg, params=None):
    """Joint training of the embedding backbone and the kernel scale.

    Every step evaluates the pull-to-mean loss on the whole image plus the
    mean over boxes of the cross entropy between the seed's fused
    probabilities and the mask of the instance the (hard) seed lands in. The
    box loss reads the same kernel rows as crop_region, so training and
    cutting see one kernel. The per-box scores are synthetic: +1 on the box's
    instance, -1 elsewhere, standing in for an upstream detector's confidence.

    Returns (model, params, losses).
    """
    if params is None:
        params = KernelParams("steered_laplacian", sigma=1.0)
    boxes = [tuple(int(v) for v in b) for b in gt_boxes]
    gt = scene.gt
    width = scene.shape[1]
    box_instances = [_box_instance(gt, b) for b in boxes]
    box_scores = [synthetic_scores(gt, b, k) for b, k in zip(boxes, box_instances)]
    box_indices = [region_pixel_indices(b, width) for b in boxes]
    flat_labels = gt.labels.reshape(-1)

    def kernel_cut_loss(field):
        rows_all = kernel_rows(field, params.family)
        total = None
        for rect, idx, s in zip(boxes, box_indices, box_scores):
            rows = T.index_select(rows_all, 0, idx)
            fused = fuse_scores(Tensor(s), rows, params, "hard")
            seed_pixel = idx[fused.seed_index]
            seed_instance = int(flat_labels[seed_pixel])
            target = (flat_labels[idx] == seed_instance).astype(float) \
                if seed_instance > 0 else np.zeros(idx.size)
            term = mask_bce(fused.probabilities, target)
            total = term if total is None else T.add(total, term)
        return T.mul(total, 1.0 / len(boxes))

    model, losses = synth.train(scene, cfg, extra_loss=kernel_cut_loss,
                                extra_params=params.learnables())
    return model, params, losses


def cut_all_boxes(scene, model, params, cfg_mode="semiconv", threshold=0.5):
    """Cut every ground-truth box; returns (masks, boxes, per-box IoU)."""
    field = synth.build_field(model, scene.image, cfg_mode)
    gt = scene.gt
    boxes = gt_boxes_from_labels(gt)
    masks, ious = [], []
    for rect, k in zip(boxes, range(1, gt.K + 1)):
        region = crop_region(field, rect, synthetic_scores(gt, rect, k), params)
        mask = cut_region(region, params, threshold)
        x0, y0, x1, y1 = rect
        truth = gt.labels[y0:y1, x0:x1] == k
        inter = np.count_nonzero(mask & truth)
        union = np.count_nonzero(mask | truth)
        ious.append(inter / union if union else 1.0)
        masks.append(mask)
    return masks, boxes, ious


# -- run-length encoding -------------------------------------------------------

def rle_encode(mask):
    """Row-major run lengths, starting with the count of leading zeros."""
    flat = np.asarray(mask, dtype=bool).reshape(-1)
    edges = np.flatnonzero(np.diff(flat)) + 1
    counts = np.diff(np.concatenate(([0], edges, [flat.size]))).tolist()
    if flat.size and flat[0]:
        counts.insert(0, 0)
    return {"size": list(mask.shape), "counts": counts}


def rle_decode(doc):
    h, w = doc["size"]
    flat = np.zeros(h * w, dtype=bool)
    pos = 0
    value = False
    for run in doc["counts"]:
        if value:
            flat[pos:pos + run] = True
        pos += run
        value = not value
    if pos != h * w:
        raise ValueError("run lengths do not cover the mask")
    return flat.reshape(h, w)
