"""Affinity kernels over pixel embeddings and seed-based score fusion.

A kernel turns embedding distance into a similarity in (0, 1]. Two families
exist, the Gaussian and the steered Laplacian, and log_kernel is the one place
that knows their formulas: the pairwise kernels exponentiate it, and the
fusion step adds it to the scores. Given a score map over a region, fusion
picks a seed pixel, evaluates the log-kernel between the seed's embedding and
every other pixel, and adds it to the scores. Pixels that embed far from the
seed get pushed down; the seed itself is untouched. Thresholding the
resulting per-pixel probabilities cuts out the seed's instance. fuse_boxes
fuses many regions at once over one concatenated pixel list; fuse_scores is
its one-region case, plus a soft variant.
"""

import numpy as np

from . import tensor as T
from .tensor import Tensor, NORM_EPS

FAMILIES = ("gaussian", "steered_laplacian")


class KernelParams:
    """Kernel family plus its scale, inference-only like backbone.Backbone.

    sigma is stored as log(sigma) so gradient steps can never push it out of
    the positive range; only the steered Laplacian family's kernel reads it.
    The log-sigma takes no gradient. seedcut.train_seedcut, the function
    that learns the scale, steps a learnable twin over its array instead.
    """

    def __init__(self, family="gaussian", sigma=1.0):
        if family not in FAMILIES:
            raise ValueError(f"unknown kernel family '{family}'")
        if not sigma > 0:
            raise ValueError("sigma must be positive")
        self.family = family
        self.log_sigma = Tensor(np.log(sigma))

    @property
    def sigma(self):
        return float(np.exp(self.log_sigma.data))

    def __repr__(self):
        return f"KernelParams(family={self.family}, sigma={self.sigma:.6g})"


class SeedFusionResult:
    """Output bundle of fuse_scores and fuse_boxes.

    fused_scores never exceed the input scores (the log-kernel is <= 0), and
    in hard mode a seed's own score passes through unchanged.
    """

    def __init__(self, seed_index, fused_scores, probabilities):
        self.seed_index = seed_index
        self.fused_scores = fused_scores
        self.probabilities = probabilities

    def __repr__(self):
        return f"SeedFusionResult(seed={self.seed_index}, n={self.fused_scores.data.size})"


def _as_vector(v, name):
    t = v if isinstance(v, Tensor) else Tensor(v)
    if t.data.ndim != 1:
        t = T.reshape(t, (t.data.size,))
    if name and t.data.size == 0:
        raise ValueError(f"{name} is empty")
    return t


def _sumsq(a, b):
    a, b = _as_vector(a, "a"), _as_vector(b, "b")
    if a.data.size != b.data.size:
        raise ValueError("embedding dimensions differ")
    d = T.sub(a, b)
    return T.tsum(T.mul(d, d))


def shifted_norm(sumsq):
    """sqrt(sumsq + NORM_EPS) - sqrt(NORM_EPS): zero at zero, differentiable there.

    A plain eps inside the root would leave a sqrt(eps) residue at zero
    distance and the kernel value would fall short of 1; shifting the curve
    down restores K = 1 at zero while keeping the gradient finite.
    """
    return T.sub(T.sqrt(T.add(sumsq, NORM_EPS)), float(np.sqrt(NORM_EPS)))


def log_kernel(sumsq, family, sigma=None):
    """log K of a family from squared embedding distances; <= 0, 0 at distance 0.

    -sumsq / 2 for the Gaussian, -shifted_norm(sumsq) / sigma for the
    steered Laplacian (sigma a positive tensor). The one place that knows a
    family's formula: the pairwise kernels and the fusion both read it.
    """
    if family == "gaussian":
        return T.mul(sumsq, -0.5)
    if family == "steered_laplacian":
        return T.mul(T.div(shifted_norm(sumsq), sigma), -1.0)
    raise ValueError(f"unknown kernel family '{family}'")


def gaussian_kernel(a, b):
    """exp(-||a-b||^2 / 2) as a scalar tensor; 1 exactly at zero distance."""
    return T.exp(log_kernel(_sumsq(a, b), "gaussian"))


def factorized_kernel(u, v, phi_g_u, phi_g_v, phi_a_u, phi_a_v):
    """The steered bilateral kernel: a geometric times an appearance Gaussian.

    The geometric factor compares steered positions u + phi_g; the appearance
    factor compares the remaining channels. Multiplying the two equals the
    plain Gaussian kernel on the stacked embedding vectors.
    """
    u, v = _as_vector(u, "u"), _as_vector(v, "v")
    gu, gv = _as_vector(phi_g_u, "phi_g_u"), _as_vector(phi_g_v, "phi_g_v")
    au, av = _as_vector(phi_a_u, None), _as_vector(phi_a_v, None)
    if not (u.data.size == v.data.size == gu.data.size == gv.data.size == 2):
        raise ValueError("geometric parts must be 2-d")
    if au.data.size != av.data.size:
        raise ValueError("appearance dimensions differ")
    geo = gaussian_kernel(T.add(u, gu), T.add(v, gv))
    if au.data.size == 0:
        return geo
    return T.mul(geo, gaussian_kernel(au, av))


def steered_laplacian(a, b, sigma):
    """exp(-||a-b|| / sigma): heavier tails than the Gaussian, learnable scale."""
    sumsq = _sumsq(a, b)
    st = sigma if isinstance(sigma, Tensor) else Tensor(float(sigma))
    if not np.all(st.data > 0):
        raise ValueError("sigma must be positive")
    return T.exp(log_kernel(sumsq, "steered_laplacian", st))


def _region_scores(scores, rows):
    s = _as_vector(scores, None)
    if rows.data.ndim != 2:
        raise ValueError("embedding rows must be [N, D]")
    n = rows.data.shape[0]
    if n == 0 or s.data.size == 0:
        raise ValueError("empty region")
    if s.data.size != n:
        raise ValueError(f"{s.data.size} scores for {n} pixels")
    return s


def box_seeds(scores, counts):
    """List position of each box's seed: its first top-scoring pixel.

    ``scores`` lists box 0's pixels, then box 1's, and so on; ``counts`` holds
    the box sizes. Within a box ties go to the lowest position, the pixel
    np.argmax picks. A NaN score sorts last, so every box still gets a seed
    and the NaN surfaces in the fusion as a NumericError.
    """
    counts = np.asarray(counts, dtype=np.intp)
    ids = np.repeat(np.arange(counts.size), counts)
    order = np.lexsort((-np.asarray(scores, dtype=np.float64), ids))
    return order[np.cumsum(counts) - counts]


def fuse_boxes(scores, rows, counts, params):
    """Hard fusion of every box at once, over one concatenated pixel list.

    ``scores`` [P] and ``rows`` [P, D] list box 0's pixels, then box 1's, and
    so on; ``counts`` holds the B box sizes. Boxes may overlap, so a pixel can
    sit in several boxes. Each box seeds at box_seeds, each pixel is compared
    with its own box's seed row, and the list goes through one chain of tape
    nodes whatever B is. ``seed_index`` holds the B seed positions in the list.
    """
    s = _region_scores(scores, rows)
    counts = np.asarray(counts, dtype=np.intp)
    if np.any(counts <= 0) or counts.sum() != s.data.size:
        raise ValueError(f"box sizes {counts.tolist()} do not split {s.data.size} pixels")
    seeds = box_seeds(s.data, counts)
    return _fuse(s, rows, T.index_select(rows, np.repeat(seeds, counts)), seeds, params)


def fuse_scores(scores, rows, params, mode="hard"):
    """Combine one region's per-pixel scores with kernel affinity to a seed pixel.

    ``rows`` is the [N, D] tensor of embedding rows aligned with the scores
    (see embedding.rows_at). Hard mode is fuse_boxes with a single box: it
    seeds at the argmax score, ties toward the lowest index. Soft mode
    replaces the seed row with a softmax-weighted expectation of the rows,
    which keeps the whole fusion differentiable in the scores. Both modes add
    log K(seed, i) to score i and squash through a logistic to get per-pixel
    probabilities.
    """
    if mode not in ("hard", "soft"):
        raise ValueError(f"unknown fusion mode '{mode}'")
    if mode == "hard":
        out = fuse_boxes(scores, rows, [rows.data.shape[0]], params)
        out.seed_index = int(out.seed_index[0])
        return out
    s = _region_scores(scores, rows)
    weights = T.reshape(T.softmax(s), (s.data.size, 1))
    seed = T.tsum(T.mul(weights, rows), axes=0)
    return _fuse(s, rows, seed, int(np.argmax(s.data)), params)


def _fuse(s, rows, seed_rows, seed_index, params):
    # s + log K(seed row, row) for every pixel, then the logistic; seed_rows
    # holds one row per pixel, or one [D] row that broadcasts against all
    diff = T.sub(rows, seed_rows)
    sumsq = T.tsum(T.mul(diff, diff), axes=1)
    fused = T.add(s, log_kernel(sumsq, params.family, T.exp(params.log_sigma)))
    return SeedFusionResult(seed_index, fused, T.sigmoid(fused))
