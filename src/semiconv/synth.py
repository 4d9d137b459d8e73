"""Synthetic dot-grid benchmark: generate, train, decode, score.

The scene is a grid of identical discs, which is the worst case for
translation-equivariant features: every dot looks exactly the same, so a
purely convolutional embedding cannot tell them apart and k-means produces
near-random instance assignments. Mixing pixel coordinates into the
embeddings resolves the ambiguity and the same pipeline separates the dots
almost perfectly. Both runs share seeds, initial weights, and every config
knob except the coordinate mixing, so the contrast isolates that one change.
"""

import base64
import ctypes
import json
import os
import pickle
import signal
import sys
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from . import tensor as T
from .tensor import Tensor, NumericError
from .backbone import Backbone, Cone
from .embedding import EmbeddingField, attach_coords, coord_grid, rows_at
from .losses import SegmentSet, pull_to_mean_loss

KMEANS_MAX_ITER = 300
KMEANS_TOL = 1e-6  # stop once no centroid moves farther than this


class InstanceLabeling:
    """Integer instance id per pixel: 0 is background, 1..K are instances."""

    def __init__(self, labels):
        arr = np.asarray(labels)
        if not np.issubdtype(arr.dtype, np.integer):
            raise ValueError("labels must be integers")
        k = int(arr.max())
        if arr.min() < 0:
            raise ValueError(f"label values must lie in [0, {k}]")
        missing = np.flatnonzero(np.bincount(arr.reshape(-1))[1:] == 0) + 1
        if missing.size:
            raise ValueError(f"instance ids {missing.tolist()} have no pixels")
        self.labels = arr
        self.K = k

    def foreground_mask(self):
        return self.labels > 0


class Scene:
    """Grayscale image plus its ground-truth instance labeling."""

    def __init__(self, image, gt, meta):
        self.image = image        # Tensor [1,H,W]
        self.gt = gt              # InstanceLabeling
        self.meta = dict(meta)

    @property
    def shape(self):
        return self.image.data.shape[1:]


@dataclass
class TrainConfig:
    mode: str = "semiconv"         # "semiconv" or "conv"
    dims: int = 8
    epochs: int = 400
    lr: float = 0.03
    lr_decay: float = 0.02         # lr_t = lr / (1 + lr_decay * t)
    seed: int = 0

    def validate(self):
        if self.mode not in ("semiconv", "conv"):
            raise ValueError(f"unknown mode '{self.mode}'")
        if self.dims < 1:
            raise ValueError("dims must be positive")
        # attach_coords adds x and y to the first two channels
        if self.mode == "semiconv" and self.dims < 2:
            raise ValueError("semiconv mode needs dims >= 2")
        # written so that NaN fails every comparison and is rejected
        if self.epochs < 0 or not 0 < self.lr < np.inf:
            raise ValueError("epochs must be >= 0 and lr positive and finite")
        if not 0 <= self.lr_decay < np.inf:
            raise ValueError("lr_decay must be finite and >= 0")


def generate_scene(rows, cols, dot_radius=3, spacing=32, img_noise_std=0.0, seed=0):
    """Regular grid of identical filled discs on a black background.

    The image extent is rows*spacing by cols*spacing, so under the
    backbone's wrap-around convolutions the scene is exactly periodic: every
    dot is a bit-identical translate of every other. Requires spacing >
    2*dot_radius so dots stay disjoint, and a non-negative noise std.
    """
    if rows < 1 or cols < 1 or dot_radius < 1:
        raise ValueError("rows, cols, dot_radius must be positive")
    if spacing <= 2 * dot_radius:
        raise ValueError("dots overlap: need spacing > 2*dot_radius")
    if not img_noise_std >= 0:
        raise ValueError(f"noise std must be non-negative, got {img_noise_std}")
    yy, xx = np.mgrid[0:rows * spacing, 0:cols * spacing]
    # each dot sits at its cell's center, and spacing > 2r keeps it inside the cell
    c = spacing // 2
    disc = (yy % spacing - c) ** 2 + (xx % spacing - c) ** 2 <= dot_radius ** 2
    image = disc.astype(np.float64)
    labels = np.where(disc, (yy // spacing) * cols + xx // spacing + 1, 0).astype(np.int32)
    if img_noise_std > 0:
        rng = np.random.default_rng(seed)
        image = image + rng.normal(0.0, img_noise_std, size=image.shape)
    meta = {"rows": rows, "cols": cols, "dot_radius": dot_radius,
            "spacing": spacing, "img_noise_std": img_noise_std, "seed": seed}
    return Scene(Tensor(image[None]), InstanceLabeling(labels), meta)


def gt_boxes_from_labels(gt):
    """Tight axis-aligned boxes (x0, y0, x1, y1) around each instance id.

    Each box grows by one pixel on every side, clipped to the image. One
    pass over the foreground pixels finds every instance's extent.
    """
    h, w = gt.labels.shape
    ys, xs = np.nonzero(gt.labels)
    cols = (slice(None), gt.labels[ys, xs] - 1)
    pts = np.stack([xs, ys])
    lo = np.full((2, gt.K), max(h, w), dtype=np.intp)
    hi = np.zeros((2, gt.K), dtype=np.intp)
    np.minimum.at(lo, cols, pts)
    np.maximum.at(hi, cols, pts)
    lo = np.maximum(lo - 1, 0)
    hi = np.minimum(hi + 2, [[w], [h]])  # one past the last pixel, plus the pad
    return [tuple(box) for box in np.concatenate([lo, hi]).T.tolist()]


def region_pixel_indices(rects, shape):
    """All rects of an image as one pixel list: (pixels, ids, counts).

    ``pixels`` holds the linear indices of rect 0's pixels, row-major within
    the rect, then rect 1's, and so on; ``ids`` gives each entry its rect
    number and ``counts`` the rect sizes. Rects may overlap, so a pixel can
    be listed more than once.
    """
    rects = np.asarray(rects, dtype=np.intp).reshape(-1, 4)
    x0, y0, x1, y1 = rects.T
    h, w = shape
    bad = (x0 < 0) | (y0 < 0) | (x1 > w) | (y1 > h) | (x0 >= x1) | (y0 >= y1)
    if bad.any():
        raise ValueError(f"rect {tuple(rects[bad][0].tolist())} falls outside "
                         f"the {h}x{w} image or is empty")
    counts = (x1 - x0) * (y1 - y0)
    ids = np.repeat(np.arange(counts.size), counts)
    local = np.arange(ids.size) - np.repeat(np.cumsum(counts) - counts, counts)
    width = (x1 - x0)[ids]
    pixels = (y0[ids] + local // width) * w + x0[ids] + local % width
    return pixels, ids, counts


def read_pixels(gt, boxes=False):
    """The pixels, as linear indices, whose embeddings a training step reads:
    the instances' pixels, and with ``boxes`` also every pixel of their boxes
    (gt_boxes_from_labels), as an extra loss over the boxes does."""
    read = np.flatnonzero(gt.labels)
    if boxes:
        read = np.concatenate([read, region_pixel_indices(gt_boxes_from_labels(gt),
                                                          gt.labels.shape)[0]])
    return read


def _embed(phi, mode, grid, at=None):
    """The field of a backbone output phi[D, ...] whose pixels sit at the
    (x, y) ``grid`` [2, ...]: its map is ``at`` (EmbeddingField), and in
    semiconv mode the grid is mixed in (attach_coords)."""
    return EmbeddingField(attach_coords(phi, grid) if mode == "semiconv" else phi, at)


def cone_field(model, image, pixels, mode):
    """The field of ``model`` at the image pixels ``pixels`` (linear,
    row-major indices) and nowhere else: one forward pass over their
    receptive cone (backbone.Cone), read with rows_at. Their rows are
    bit-identical to build_field's while each layer's product sums at most
    384 terms (C_in * kh * kw), as in every model train makes. Over every
    model the package makes the field records no tape.
    """
    cone = Cone(model, image, pixels)
    return _embed(model.forward(cone), mode, cone.grid, cone.at)


def build_field(model, image, mode):
    """The field over the whole image, [D, H, W] values whose map is the
    identity, built in bands of R rows, one receptive cone (backbone.Cone)
    for every band.

    R is the most rows whose widest layer output, max C_out * R * W floats,
    fits in tensor.TAP_BAND. Each band is rolled to the image's first R
    rows, so every band is the same cone, whose geometry is built once; the
    last band ends at row H and overlaps the one before it, and when R >= H
    the one band is the cone over every pixel. A circular conv is exactly
    equivariant to rolls, and a cone's features are those of any other cone
    over its pixels, bit for bit while each layer's product sums at most
    384 terms (C_in * kh * kw), as in every model train makes; so the bands
    give the whole image's bits (README). In semiconv mode the coordinates
    are mixed in once over the whole image (coord_grid).

    Over every model the package makes the field records no tape, and each
    layer gathers the taps of one band of output pixels at a time
    (tensor._correlate), so the pass keeps no whole-image tap buffer. The
    acceptance gate and the bench decode this field; the CLI's commands read
    the cones of their pixels (cone_field).
    """
    h, w = image.data.shape[1:]
    shapes = [wt.data.shape for wt in model.weights]
    rows = min(h, max(1, T.TAP_BAND // (max(s[0] for s in shapes) * w)))
    band = np.arange(rows * w)
    phi = np.empty((shapes[-1][0], h, w))
    for top in sorted({*range(0, h - rows, rows), h - rows}):
        cone = Cone(model, Tensor(np.roll(image.data, -top, axis=1)), band)
        phi[:, top:top + rows] = model.forward(cone).data.reshape(-1, rows, w)
    return _embed(Tensor(phi), mode, coord_grid(h, w))


def sgd_step(params, lr):
    """In-place plain SGD update of every parameter that received a gradient."""
    for p in params:
        if p.grad is not None:
            p.data -= lr * p.grad


def _keep_freed_memory():
    """Have glibc malloc keep freed memory for reuse: no heap trimming, no mmap.

    A training step frees its whole graph during backward, so under the
    default policy glibc hands the heap back at the end of every step and the
    next step faults each page in again (a 4x4 grid at 128x128, 1 BLAS
    thread on 2 cores: about 510 minor faults and 0.7 ms of system time a
    step, which takes 3.7-3.9 ms against 2.7-3.0 ms with the settings
    below, and faults none). These are the settings the
    benchmark runs under; they hold for the rest of the process. A C library
    without mallopt is left as it is.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    m_trim_threshold, m_mmap_max = -1, -4  # glibc's parameter numbers
    mallopt(m_mmap_max, 0)
    mallopt(m_trim_threshold, 2**30)


def _openblas(**signatures):
    """The functions of the OpenBLAS this process has loaded, found through
    /proc/self/maps: (get_num_threads, set_num_threads) by default, else
    those named by the keys of ``signatures`` and typed by their (argtypes,
    restype) values, in their order. Each is looked up as
    prefix_name_suffix, under the first of the builds' prefixes and suffixes
    that has them all. None when there is none to ask (another BLAS, or a
    platform without /proc)."""
    signatures = signatures or {"get_num_threads": ((), ctypes.c_int),
                                "set_num_threads": ((ctypes.c_int,), None)}
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                fns = [getattr(lib, f"{prefix}_{name}{suffix}", None) for name in signatures]
                if None not in fns:
                    for fn, types in zip(fns, signatures.values()):
                        fn.argtypes, fn.restype = types
                    return tuple(fns)
    return None


@contextmanager
def _one_blas_thread():
    """Pin the loaded OpenBLAS to one thread inside the block, and put its
    thread count back after it. Yields whether there was an OpenBLAS to pin."""
    blas = _openblas()
    if blas is None:
        yield False
        return
    get, put = blas
    threads = get()
    put(1)
    try:
        yield True
    finally:
        put(threads)


@contextmanager
def _forked(fn, *args):
    """fn(*args) running in a forked child, which pipes back its value or its
    exception, pickled, and ends with os._exit, so it never runs the exit
    handlers of the process it was forked from.

    Yields the function that waits for the child and returns fn's value or
    raises its exception. Leaving the block SIGKILLs and reaps the child,
    unless that function has reaped it.
    """
    read, write = os.pipe()
    sys.stdout.flush()  # else the child's copy of a buffer is written twice
    sys.stderr.flush()
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(read)
            try:
                sent = (True, fn(*args))
            except Exception as err:
                sent = (False, err)
            with open(write, "wb") as fh:
                pickle.dump(sent, fh)
            status = 0
        finally:
            os._exit(status)
    os.close(write)
    reaped = False

    def result():
        nonlocal reaped
        blob = pipe.read()  # before waitpid: a result can outgrow the pipe
        _, status = os.waitpid(pid, 0)
        reaped = True
        if not blob:
            raise ChildProcessError(f"forked child exited with status "
                                    f"{os.waitstatus_to_exitcode(status)} before "
                                    "sending a result")
        ok, value = pickle.loads(blob)  # bytes this program's own child wrote
        if not ok:
            raise value
        return value

    with open(read, "rb") as pipe:
        try:
            yield result
        finally:
            if not reaped:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def train(scene, cfg, extra_loss=None, extra_params=()):
    """Fit the backbone to the scene by pulling each instance to one embedding.

    Returns (model, losses), the model inference-only like every other
    (Backbone). The steps run on its learnable twin, Tensors that require
    gradients over the model's own arrays, and sgd_step updates those arrays
    in place: the model holds what the twin learnt, and no gradient.

    The pull-to-mean loss reads only the instances' pixels, and
    ``extra_loss(field) -> Tensor``, a term callers add to the objective
    without changing anything else about the loop, reads only pixels inside
    the instances' boxes (gt_boxes_from_labels). So the receptive cone of
    those pixels (backbone.Cone) is built once, and every step runs the twin
    over it. ``extra_params`` lists the Tensors the extra term learns, as
    (name, tensor) pairs, and sgd_step updates their arrays in place too.
    The caller makes them learnable, as seedcut.train_seedcut makes the
    twin of its kernel scale, since no parameter the package makes takes a
    gradient. The loss's segments are the labels' instances over the
    image's pixels (SegmentSet.from_labels), made once, and each step reads
    their rows through the field's map. With no extra term the trajectory
    depends only on cfg. A scene without instances raises ValueError before
    any step.

    Divergence (NaN/Inf anywhere in a step) raises NumericError with the
    offending step number; a non-finite gradient also names its parameter
    (l0.w, l1.b, ..., or an extra one's name).
    """
    cfg.validate()
    if not scene.gt.K:
        raise ValueError("no segments to evaluate")
    _keep_freed_memory()
    model = Backbone.glorot(scene.image.data.shape[0], cfg.dims, cfg.seed)
    twin = Backbone(*[[Tensor(t.data, requires_grad=True) for t in ts]
                      for ts in (model.weights, model.biases)])
    named = twin.named_params() + list(extra_params)
    params = [p for _, p in named]
    cone = Cone(twin, scene.image, read_pixels(scene.gt, boxes=extra_loss is not None))
    segs = SegmentSet.from_labels(scene.gt)
    losses = []
    for step in range(cfg.epochs):
        try:
            field = _embed(twin.forward(cone), cfg.mode, cone.grid, cone.at)
            loss = pull_to_mean_loss(field, segs)
            if extra_loss is not None:
                loss = T.add(loss, extra_loss(field))
            del field  # the graph holds it now, and backward frees the graph as it goes
            for p in params:
                p.grad = None
            loss.backward()
            for name, p in named:
                if p.grad is not None and not np.all(np.isfinite(p.grad)):
                    raise NumericError(f"non-finite gradient of parameter '{name}'")
            step_lr = cfg.lr / (1.0 + cfg.lr_decay * step)
            sgd_step(params, step_lr)
        except NumericError as err:
            raise NumericError(f"training diverged at step {step}: {err}") from err
        losses.append(loss.item())
        del loss  # nothing of this step stays alive during the next one
    return model, losses


def decode_kmeans(field, fg_mask, K, seed=0):
    """Cluster foreground embeddings into K instances.

    Deterministic k-means. Greedy k-means++ seeding from the given rng: a
    uniform first center, then at each step 2 + int(ln K) candidates drawn
    with probability proportional to their squared distance to the nearest
    center, of which the one that leaves the least total is kept, ties to
    the first drawn. Those distances are expanded-form products measured
    from the first center and clamped at 0; a squared-distance total that
    overflows raises NumericError. Then standard mean/assign iterations
    until centroids move less than KMEANS_TOL, at most KMEANS_MAX_ITER
    times. An emptied cluster is reseeded on the point farthest from its
    centroid; when every point already sits on its centroid, within the
    rounding bound of the distances, the decode stops there instead.
    Background pixels keep label 0; clusters get ids 1..K, in cluster order.
    When coinciding points leave clusters empty at the end, the K' filled
    ones get ids 1..K'.
    """
    mask = np.asarray(fg_mask, dtype=bool)
    if mask.shape != field.at.shape:
        raise ValueError(f"a foreground mask of shape {mask.shape} does not match the "
                         f"field's image of shape {field.at.shape}")
    idx = np.flatnonzero(mask.reshape(-1))
    if K < 1:
        raise ValueError("K must be >= 1")
    if idx.size == 0:
        raise ValueError("empty foreground")
    if K > idx.size:
        raise ValueError(f"K={K} exceeds {idx.size} foreground pixels")
    pts = rows_at(field, idx).data
    P = np.ascontiguousarray(pts.T)  # channel-major [D, N]

    rng = np.random.default_rng(seed)
    centers = np.empty((K, pts.shape[1]))
    first = rng.integers(idx.size)
    centers[0] = pts[first]
    # points relative to the first center: their squared norms are its
    # squared distances, and the expanded form below stays accurate under
    # a large common offset
    Q = P - P[:, first, None]
    sq = (Q ** 2).sum(axis=0)
    closest = sq
    # [-2c; 1; |c|²] · [q; |q|²; 1] = |q|² - 2·q·c + |c|²: one product gives
    # every candidate's squared distances in expanded form
    ones = np.ones_like(sq)
    Q_lift = np.vstack([Q, sq, ones])
    C_lift = np.vstack([-2.0 * Q, ones, sq])
    trials = 2 + int(np.log(K))
    for k in range(1, K):
        cdf = np.cumsum(closest)
        total = cdf[-1]
        if total <= 0:  # all remaining points coincide with a center
            centers[k:] = pts[rng.integers(idx.size, size=K - k)]
            break
        if not np.isfinite(total):
            raise NumericError("k-means seeding: squared embedding distances overflow")
        cand = np.minimum(cdf.searchsorted(rng.random(trials) * total, side="right"),
                          idx.size - 1)
        # keep the candidate that leaves the least potential, ties to the first
        d = C_lift[:, cand].T @ Q_lift
        np.maximum(d, 0.0, out=d)
        np.minimum(d, closest, out=d)
        best = np.argmin(d.sum(axis=1))
        centers[k] = pts[cand[best]]
        closest = d[best]

    sq_p = np.sum(pts ** 2, axis=1)
    P_lift = np.vstack([P, sq_p, np.ones_like(sq_p)])
    slack = 16 * pts.shape[1] * np.finfo(float).eps
    cols = np.arange(idx.size)
    for _ in range(KMEANS_MAX_ITER):
        sq_c = np.sum(centers ** 2, axis=1)
        # |p|² - 2·c·p + |c|², K-major: [-2c, 1, |c|²] · [p; |p|²; 1]
        dists = np.hstack([-2.0 * centers, np.ones((K, 1)), sq_c[:, None]]) @ P_lift
        assign = np.argmin(dists, axis=0)
        # Both this expanded form (in any summation order) and the exact form
        # np.sum((p - c) ** 2) lie within (2D + 4)·u·(|p|² + |c|²) of the true
        # distance (u = eps / 2), so `bound` covers each; `tiny` covers what
        # underflow can add. A point whose runner-up is more than 2·bound above
        # its best has that argmin in exact form too. Every other point (one
        # with a NaN distance too) is recomputed in exact form, where ties go
        # to the lowest index. The runner-up is the least distance once the
        # best is set to inf.
        bound = slack * (sq_p + sq_c.max()) + np.finfo(float).tiny
        best = dists[assign, cols]
        dists[assign, cols] = np.inf
        near = ~(dists.min(axis=0) > best + 2.0 * bound)
        if np.any(near):
            sel = np.flatnonzero(near)
            assign[sel] = np.argmin(
                np.sum((pts[sel][:, None, :] - centers[None]) ** 2, axis=2), axis=1)
        counts = np.bincount(assign, minlength=K)
        # rows in index order from 0.0, as pts[sel].sum(axis=0)
        new = T.segment_sum(Tensor(pts), assign, K).data
        filled = counts > 0
        new[filled] /= counts[filled, None]
        if not np.all(filled):
            own = np.sum((pts - centers[assign]) ** 2, axis=1)
            if not np.any(own > bound):
                break  # every point sits on its center: no point to reseed on
            new[~filled] = pts[np.argmax(own)]
        moved = float(np.sqrt(np.max(np.sum((new - centers) ** 2, axis=1))))
        centers = new
        if moved < KMEANS_TOL:
            break

    # coinciding points can leave a reseeded cluster empty: number the
    # filled clusters 1..K' in cluster order
    ids = np.cumsum(filled, dtype=np.int32)
    labels = np.zeros(mask.size, dtype=np.int32)
    labels[idx] = ids[assign]
    return InstanceLabeling(labels.reshape(mask.shape))


def score(pred, gt):
    """Overlap metrics between a predicted and true labeling.

    mean_iou: greedily match predicted to true instances in descending IoU
    order, one-to-one, then average the matched IoU over true instances
    (unmatched ones count 0). Greedy matching can only understate the optimal
    assignment, so thresholds remain honest. purity: the fraction of true
    foreground pixels whose predicted cluster has that pixel's instance as
    its majority.
    """
    p = pred.labels.reshape(-1)
    g = gt.labels.reshape(-1)
    if p.size != g.size:
        raise ValueError("labelings cover different grids")

    # table[gk, pk]: pixels labelled gk in the truth and pk in the prediction
    n_cols = pred.K + 1
    table = np.bincount(g.astype(np.int64) * n_cols + p,
                        minlength=(gt.K + 1) * n_cols).reshape(gt.K + 1, n_cols)
    inter = table[1:, 1:]
    union = table[1:].sum(axis=1)[:, None] + table[:, 1:].sum(axis=0)[None, :] - inter
    gks, pks = np.nonzero(inter)
    ious = inter[gks, pks] / union[gks, pks]
    used_g, used_p = set(), set()
    iou_sum = 0.0
    for i in np.lexsort((pks, gks, -ious)):
        gk, pk = gks[i], pks[i]
        if gk in used_g or pk in used_p:
            continue
        used_g.add(gk)
        used_p.add(pk)
        iou_sum += float(ious[i])
    mean_iou = iou_sum / gt.K

    # a column's first maximum is its majority instance, ties to the lowest id
    correct = int(inter.max(axis=0, initial=0).sum())
    purity = correct / int(table[1:].sum())
    return {"mean_iou": mean_iou, "purity": purity}


def controlled_pair(scene, cfg):
    """Train conv and semiconv runs that differ only in coordinate mixing.

    Returns ((conv model, losses), (semiconv model, losses)). The two runs
    share nothing once initialised, so they train at the same time: with the
    loaded OpenBLAS pinned to one thread, a forked child trains the conv run
    while this process trains the semiconv run. Each run then takes the bits
    train gives it under one BLAS thread, on any number of cores. A run's
    error is raised as train raised it, the conv run's when both fail, and
    the child is reaped on every path. Without an OpenBLAS to pin, the runs
    train one after the other: two processes that each keep a pool of BLAS
    threads spinning slow each other down.
    """
    conv_cfg = replace(cfg, mode="conv")
    semi_cfg = replace(cfg, mode="semiconv")
    with _one_blas_thread() as pinned:
        if not pinned:
            return train(scene, conv_cfg), train(scene, semi_cfg)
        with _forked(train, scene, conv_cfg) as conv:
            try:
                semi = train(scene, semi_cfg)
            except Exception:
                conv()  # the conv run fails first, as when run in turn
                raise
            return conv(), semi


# -- scene serialization ------------------------------------------------------

def scene_to_json(scene):
    h, w = scene.shape
    img32 = np.ascontiguousarray(scene.image.data[0], dtype="<f4")
    if scene.gt.labels.max() > 65535:
        raise ValueError(f"scene has {scene.gt.K} instances; "
                         "scene JSON stores at most 65535")
    lab16 = np.ascontiguousarray(scene.gt.labels, dtype="<u2")
    doc = {"h": h, "w": w,
           "image": base64.b64encode(img32.tobytes()).decode("ascii"),
           "labels": base64.b64encode(lab16.tobytes()).decode("ascii")}
    doc.update(scene.meta)
    return doc


def scene_from_json(doc):
    if not isinstance(doc, dict):
        raise ValueError("scene file must hold a JSON object")
    for key in ("h", "w"):
        if not isinstance(doc.get(key), int) or isinstance(doc[key], bool) or doc[key] < 1:
            raise ValueError(f"scene field '{key}' must be a positive integer")
    for key in ("image", "labels"):
        if not isinstance(doc.get(key), str):
            raise ValueError(f"scene field '{key}' must be a base64 string")
    h, w = doc["h"], doc["w"]
    img = np.frombuffer(base64.b64decode(doc["image"]), dtype="<f4")
    lab = np.frombuffer(base64.b64decode(doc["labels"]), dtype="<u2")
    if img.size != h * w or lab.size != h * w:
        raise ValueError("scene payload does not match its declared extent")
    if not np.all(np.isfinite(img)):
        raise ValueError("scene image holds a non-finite pixel")
    meta = {k: doc[k] for k in ("rows", "cols", "dot_radius", "spacing",
                                "img_noise_std", "seed") if k in doc}
    return Scene(Tensor(img.astype(np.float64).reshape(1, h, w)),
                 InstanceLabeling(lab.astype(np.int32).reshape(h, w)), meta)


def load_scene(path):
    try:
        with open(path) as fh:
            return scene_from_json(json.load(fh))
    except RecursionError:
        raise ValueError(f"scene file {path} nests too deeply") from None
