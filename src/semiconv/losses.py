"""Training objectives: pull-to-mean over instance segments, and mask BCE."""

import numpy as np

from . import tensor as T
from .embedding import rows_at
from .tensor import Tensor

BCE_CLAMP = 1e-7


class SegmentSet:
    """Foreground instance sets S_1..S_K over the pixels of an image,
    background held separately.

    ``segments`` lists 1-d arrays of pixel indices and ``background`` the
    complementary indices; segments must be non-empty and, with the
    background, partition the ``total_pixels`` pixels. from_labels builds
    them from an image's labels, over its linear row-major pixels. The loss
    reads the foreground as one concatenated pixel order: ``pixels`` lists
    S_1..S_K, ``ids`` gives each of those pixels its segment number 0..K-1,
    and ``counts`` the K segment sizes.
    """

    def __init__(self, segments, background, total_pixels):
        segs = [np.asarray(s, dtype=np.intp).ravel() for s in segments]
        bg = np.asarray(background, dtype=np.intp).ravel()
        sizes = np.array([s.size for s in segs], dtype=np.intp)
        if np.any(sizes == 0):
            raise ValueError("empty segment")
        pixels = np.concatenate(segs + [bg])
        # as many indices as pixels, none negative, none repeated: a partition
        if (pixels.size != total_pixels or np.any(pixels < 0)
                or np.any(np.bincount(pixels, minlength=total_pixels) != 1)):
            raise ValueError("segments plus background must partition the pixels")
        self.pixels = pixels[:pixels.size - bg.size]
        self.ids = np.repeat(np.arange(sizes.size), sizes)
        self.counts = sizes

    @classmethod
    def from_labels(cls, labels):
        """Build from an InstanceLabeling; 0 is background, 1..K instances."""
        flat = labels.labels.reshape(-1)
        order = np.argsort(flat, kind="stable")
        runs = np.split(order, np.cumsum(np.bincount(flat, minlength=labels.K + 1))[:-1])
        return cls(runs[1:], runs[0], flat.size)

    def __len__(self):
        return self.counts.size


def pull_to_mean_loss(field, segs):
    """Sum over segments of the mean unsquared distance to the segment mean.

    For each segment S the term is (1/|S|) * sum_u sqrt(||psi_u - m_S||^2 + eps)
    with m_S the segment's mean embedding. Distances are not squared, so one
    far-off pixel cannot dominate training. There is no explicit push term
    between segments; with position mixed into the embeddings, pulling each
    segment to its own mean is enough to separate them. eps (NORM_EPS) keeps
    the square root differentiable when a segment is already perfectly tight.
    Background pixels are ignored.

    ``field`` is an EmbeddingField and ``segs`` its image's segments
    (SegmentSet.from_labels): the segment pixels' rows are read through the
    field's map (embedding.rows_at), one gather, and a segment pixel off a
    cone field's list raises ValueError. A Tensor of [N, D] rows is read at
    segs.pixels as its row indices instead.

    All segments go through one gather and two segment sums, so the tape has
    the same dozen nodes whatever the number of segments.
    """
    is_rows = isinstance(field, Tensor)
    if is_rows and field.data.ndim != 2:
        raise ValueError("expected an EmbeddingField or [N,D] rows")

    k = len(segs)
    if k == 0:
        raise ValueError("no segments to evaluate")
    inv_counts = 1.0 / segs.counts

    sel = T.index_select(field, segs.pixels) if is_rows else rows_at(field, segs.pixels)
    sums = T.segment_sum(sel, segs.ids, k)
    centers = T.mul(sums, inv_counts[:, None])
    dev = T.sub(sel, T.index_select(centers, segs.ids))
    dists = T.segment_sum(T.l2norm_rows(dev), segs.ids, k)
    return T.tsum(T.mul(dists, inv_counts))


def _bce_terms(probs, mask):
    """Per-pixel m log p + (1 - m) log(1 - p), the negated binary cross entropy.

    Probabilities are clamped 1e-7 away from {0, 1} so a saturated kernel
    cannot produce an infinite term. ``mask`` is a 0/1 or boolean array shaped
    like probs.
    """
    kc = T.clamp(probs, BCE_CLAMP, 1.0 - BCE_CLAMP)
    pos = T.mul(Tensor(mask), T.log(kc))
    neg = T.mul(Tensor(1.0 - mask), T.log(T.sub(1.0, kc)))
    return T.add(pos, neg)


def mask_bce(probs, gt_mask):
    """Mean binary cross entropy between a probability tensor and a 0/1 mask array."""
    m = np.asarray(gt_mask, dtype=np.float64).ravel()
    if probs.data.size != m.size:
        raise ValueError(f"probability row has {probs.data.size} entries, mask {m.size}")
    if not np.all((m == 0.0) | (m == 1.0)):
        raise ValueError("mask must be binary")
    return T.mul(T.tsum(_bce_terms(T.reshape(probs, (m.size,)), m)), -1.0 / m.size)
