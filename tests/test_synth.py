import json
import os
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from semiconv import synth
from semiconv import tensor as T
from semiconv.backbone import Backbone
from semiconv.tensor import Tensor, NumericError
from semiconv.embedding import EmbeddingField, attach_coords, coord_grid, field_rows, rows_at
from semiconv.losses import SegmentSet, pull_to_mean_loss
from semiconv.synth import (InstanceLabeling, Scene, TrainConfig, build_field,
                            controlled_pair, decode_kmeans, generate_scene,
                            cone_field, gt_boxes_from_labels, load_scene, region_pixel_indices,
                            scene_from_json, scene_to_json, score, train)

DISC3_PIXELS = 29  # lattice points with dx^2 + dy^2 <= 9, counted by hand


def rows_field(rows):
    arr = np.asarray(rows, dtype=float)
    return EmbeddingField(Tensor(arr.T.reshape(arr.shape[1], 1, arr.shape[0])))


def small_scene(rows=2, cols=2, spacing=12, seed=0):
    return generate_scene(rows, cols, dot_radius=3, spacing=spacing, seed=seed)


def quick_cfg(**kw):
    base = dict(dims=4, epochs=60, seed=0)
    base.update(kw)
    return TrainConfig(**base)


# -- scene generation ---------------------------------------------------------

def test_single_dot():
    scene = generate_scene(1, 1, dot_radius=3, spacing=16)
    assert scene.gt.K == 1
    assert np.count_nonzero(scene.gt.labels) == DISC3_PIXELS
    assert scene.shape == (16, 16)


def test_grid_scene_counts():
    scene = generate_scene(4, 4, dot_radius=3, spacing=16)
    assert scene.gt.K == 16
    assert scene.shape == (64, 64)
    assert np.count_nonzero(scene.gt.labels) == 16 * DISC3_PIXELS
    for k in range(1, 17):
        assert np.count_nonzero(scene.gt.labels == k) == DISC3_PIXELS
    # image is the indicator of the foreground
    assert np.array_equal(scene.image.data[0] > 0, scene.gt.labels > 0)


def loop_scene(rows, cols, dot_radius, spacing):
    """Reference: one full-image disc mask per dot, painted in turn."""
    yy, xx = np.mgrid[0:rows * spacing, 0:cols * spacing]
    image = np.zeros(yy.shape)
    labels = np.zeros(yy.shape, dtype=np.int32)
    for i in range(rows):
        for j in range(cols):
            cy, cx = spacing // 2 + i * spacing, spacing // 2 + j * spacing
            disc = (xx - cx) ** 2 + (yy - cy) ** 2 <= dot_radius ** 2
            image[disc] = 1.0
            labels[disc] = i * cols + j + 1
    return image, labels


@pytest.mark.parametrize("rows,cols", [(1, 1), (1, 4), (2, 3), (3, 2), (5, 2)])
def test_scene_matches_per_dot_loop(rows, cols):
    for radius in (1, 2, 3, 5):
        for spacing in (2 * radius + 1, 2 * radius + 2, 2 * radius + 5, 32):
            scene = generate_scene(rows, cols, radius, spacing)
            image, labels = loop_scene(rows, cols, radius, spacing)
            assert np.array_equal(scene.image.data[0], image)
            assert np.array_equal(scene.gt.labels, labels)
            assert scene.gt.labels.dtype == labels.dtype


def test_scene_is_exactly_periodic():
    scene = generate_scene(3, 2, dot_radius=2, spacing=10)
    img = scene.image.data[0]
    assert np.array_equal(img, np.roll(img, (10, 0), axis=(0, 1)))
    assert np.array_equal(img, np.roll(img, (0, 10), axis=(0, 1)))


def test_scene_determinism_and_noise():
    a = generate_scene(2, 2, 3, 16, img_noise_std=0.1, seed=5)
    b = generate_scene(2, 2, 3, 16, img_noise_std=0.1, seed=5)
    assert np.array_equal(a.image.data, b.image.data)
    c = generate_scene(2, 2, 3, 16, img_noise_std=0.1, seed=6)
    assert not np.array_equal(a.image.data, c.image.data)


def test_scene_rejects_overlap():
    with pytest.raises(ValueError):
        generate_scene(2, 2, dot_radius=8, spacing=16)
    with pytest.raises(ValueError):
        generate_scene(0, 2, dot_radius=3, spacing=16)


def test_scene_rejects_negative_noise():
    # a negative std used to pass and give the noise-free image
    with pytest.raises(ValueError, match="non-negative"):
        generate_scene(2, 2, 3, 16, img_noise_std=-0.5)


def test_instance_labeling_validation():
    with pytest.raises(ValueError):
        InstanceLabeling(np.array([[0, 2], [2, 0]]))   # id 1 missing
    with pytest.raises(ValueError):
        InstanceLabeling(np.array([[0.5, 1.0]]))       # non-integer
    with pytest.raises(ValueError):
        InstanceLabeling(np.array([[-1, 1]]))


# -- training -----------------------------------------------------------------

def test_zero_epochs_keeps_init():
    scene = small_scene()
    cfg = quick_cfg(epochs=0)
    model, losses = train(scene, cfg)
    fresh = Backbone.glorot(1, cfg.dims, cfg.seed)
    assert losses == []
    for a, b in zip(model.params(), fresh.params()):
        assert np.array_equal(a.data, b.data)


def test_semiconv_training_reduces_loss():
    scene = small_scene()
    model, losses = train(scene, quick_cfg(mode="semiconv", epochs=150))
    assert losses[-1] < 0.1 * losses[0]


def test_conv_embeddings_collide_after_training():
    scene = small_scene()
    cfg = quick_cfg(mode="conv", epochs=30)
    model, _ = train(scene, cfg)
    phi = model.forward(scene.image).data
    sp = scene.meta["spacing"]
    # dots are periodic translates: features at corresponding pixels match
    ref = phi[:, 0:sp, 0:sp]
    for i in range(scene.meta["rows"]):
        for j in range(scene.meta["cols"]):
            block = phi[:, i * sp:(i + 1) * sp, j * sp:(j + 1) * sp]
            assert np.max(np.abs(block - ref)) < 1e-6


def test_controlled_pair_shares_init():
    scene = small_scene()
    (conv_model, _), (semi_model, _) = controlled_pair(scene, quick_cfg(epochs=0))
    for a, b in zip(conv_model.params(), semi_model.params()):
        assert np.array_equal(a.data, b.data)


# -- the controlled pair: two processes, one BLAS thread each ---------------------

needs_openblas = pytest.mark.skipif(synth._openblas() is None,
                                    reason="no loaded OpenBLAS to pin")


def run_bytes(run):
    model, losses = run
    return [p.data.tobytes() for p in model.params()], losses


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@needs_openblas
def test_controlled_pair_is_each_mode_trained_on_one_blas_thread():
    # at 64x64 a GEMM splits across BLAS threads, so its bits depend on their count
    scene = generate_scene(4, 4, dot_radius=3, spacing=16)
    cfg = quick_cfg(epochs=3)
    pair = controlled_pair(scene, cfg)
    assert_no_child_left()
    with synth._one_blas_thread():
        for run, mode in zip(pair, ("conv", "semiconv")):
            assert run_bytes(run) == run_bytes(train(scene, replace(cfg, mode=mode)))
    assert [run_bytes(run) for run in controlled_pair(scene, cfg)] == \
        [run_bytes(run) for run in pair]


@needs_openblas
def test_controlled_pair_puts_the_blas_thread_count_back():
    get, put = synth._openblas()
    before = get()
    try:
        put(3)
        controlled_pair(small_scene(), quick_cfg(epochs=2))
        assert get() == 3
    finally:
        put(before)


def test_controlled_pair_raises_what_train_raises():
    scene = small_scene()
    bad = Scene(Tensor(np.full_like(scene.image.data, np.inf)), scene.gt, scene.meta)
    cfg = quick_cfg(epochs=3)
    with np.errstate(invalid="ignore"):
        with synth._one_blas_thread(), pytest.raises(NumericError) as want:
            train(bad, replace(cfg, mode="conv"))
        with pytest.raises(NumericError) as got:
            controlled_pair(bad, cfg)
    assert str(got.value) == str(want.value)
    assert_no_child_left()


@pytest.mark.parametrize("failing", [("conv",), ("semiconv",), ("conv", "semiconv")])
def test_controlled_pair_raises_the_conv_error_first(monkeypatch, failing):
    def fake_train(scene, cfg):
        if cfg.mode in failing:
            raise ValueError(f"{cfg.mode} run failed")
        return Backbone.glorot(1, 2, 0), [1.0]

    monkeypatch.setattr(synth, "train", fake_train)
    with pytest.raises(ValueError, match=f"^{failing[0]} run failed$"):
        controlled_pair(small_scene(), quick_cfg())
    assert_no_child_left()


@needs_openblas
def test_an_interrupted_pair_kills_and_reaps_its_child(monkeypatch):
    def fake_train(scene, cfg):
        if cfg.mode == "conv":
            time.sleep(60)
        raise KeyboardInterrupt

    monkeypatch.setattr(synth, "train", fake_train)
    started = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        controlled_pair(small_scene(), quick_cfg())
    assert time.perf_counter() - started < 30
    assert_no_child_left()


@needs_openblas
def test_a_child_that_dies_without_a_result_is_an_error(monkeypatch):
    def fake_train(scene, cfg):
        if cfg.mode == "conv":
            os._exit(3)
        return Backbone.glorot(1, 2, 0), [1.0]

    monkeypatch.setattr(synth, "train", fake_train)
    with pytest.raises(ChildProcessError, match="status 3 before sending a result"):
        controlled_pair(small_scene(), quick_cfg())
    assert_no_child_left()


@needs_openblas
def test_a_failed_fork_closes_its_pipe_and_restores_the_threads(monkeypatch):
    def no_fork():
        raise BlockingIOError(11, "fork: resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_fork)
    get, _ = synth._openblas()
    threads, fds = get(), len(os.listdir("/proc/self/fd"))  # found through /proc
    with pytest.raises(BlockingIOError):
        controlled_pair(small_scene(), quick_cfg())
    assert (get(), len(os.listdir("/proc/self/fd"))) == (threads, fds)


def test_controlled_pair_without_openblas_trains_in_turn(monkeypatch):
    scene, cfg = small_scene(), quick_cfg(epochs=5)
    want = [run_bytes(train(scene, replace(cfg, mode=mode))) for mode in ("conv", "semiconv")]

    def no_fork():
        raise AssertionError("forked without an OpenBLAS to pin")

    monkeypatch.setattr(synth, "_openblas", lambda: None)
    monkeypatch.setattr(os, "fork", no_fork)
    assert [run_bytes(run) for run in controlled_pair(scene, cfg)] == want


def test_divergence_reports_step():
    scene = small_scene()
    bad = Scene(Tensor(np.full_like(scene.image.data, np.inf)), scene.gt, scene.meta)
    with np.errstate(invalid="ignore"):
        with pytest.raises(NumericError, match="step 0"):
            train(bad, quick_cfg(epochs=3))


def test_non_finite_gradient_names_step_and_parameter():
    # sqrt at 0 has a finite value and an infinite slope: the forward passes,
    # every gradient is NaN, and the step that made them is the one named
    scene = small_scene()

    def nan_grad(field):
        return T.sqrt(T.mul(T.tsum(field.values), 0.0))

    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(NumericError, match=r"step 0: non-finite gradient of parameter 'l0\.w'"):
            train(scene, quick_cfg(epochs=3), extra_loss=nan_grad)


def test_training_memory_does_not_grow_with_epochs():
    # each step's graph is spent by its backward and unbound before the next
    # step, so four epochs peak where one does
    scene = generate_scene(2, 2, spacing=32)

    def peak(epochs):
        tracemalloc.start()
        try:
            train(scene, TrainConfig(epochs=epochs))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1)  # warm-up: first-call allocations of numpy and BLAS
    assert peak(4) <= 1.05 * peak(1)


# -- the receptive cone ------------------------------------------------------------

# "mosaic", a 4x4 grid at spacing 32: the cone is a fraction of the image;
# "image", an 8x8 grid at spacing 10: layer 0 runs on the whole image;
# "edge", a 2x2 grid at spacing 12: the cones reach around the image edges
CONE_SCENES = {"mosaic": (4, 32), "image": (8, 10), "edge": (2, 12)}


def cone_scene(name):
    n, spacing = CONE_SCENES[name]
    return generate_scene(n, n, dot_radius=3, spacing=spacing, img_noise_std=0.05, seed=3)


def dense_field(model, image, mode):
    """Reference: the backbone over the whole image, coordinates added by hand."""
    phi = model.forward(image)
    if mode == "semiconv":
        return attach_coords(phi, coord_grid(*image.data.shape[1:]))
    return EmbeddingField(phi)


def reader_pixels(scene):
    """The pixels the readers of a field read: the segments (the loss), the
    boxes (the seed-cut) and the foreground (k-means)."""
    return {"segments": SegmentSet.from_labels(scene.gt).pixels,
            "boxes": region_pixel_indices(gt_boxes_from_labels(scene.gt), scene.shape)[0],
            "foreground": np.flatnonzero(scene.gt.foreground_mask())}


@pytest.mark.parametrize("mode", ["conv", "semiconv"])
@pytest.mark.parametrize("name", sorted(CONE_SCENES))
def test_window_rows_are_the_whole_field_rows(mode, name):
    scene = cone_scene(name)
    model = Backbone.glorot(1, 8, 4)
    for p in model.biases:
        p.data += np.random.default_rng(1).standard_normal(p.data.shape)
    h, w = scene.shape
    dense = field_rows(dense_field(model, scene.image, mode)).data
    whole = rows_at(build_field(model, scene.image, mode), np.arange(h * w)).data
    for pixels in reader_pixels(scene).values():
        field = cone_field(model, scene.image, pixels, mode)
        assert np.array_equal(np.flatnonzero(field.at.reshape(-1) >= 0), np.unique(pixels))
        if name == "mosaic":
            assert field.values.data[0].size <= 0.25 * h * w
        for got, want in ((rows_at(field, pixels).data, dense[pixels]), (whole, dense)):
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))


def test_rows_at_outside_every_window_is_an_error():
    for name in ("mosaic", "edge"):
        scene = cone_scene(name)
        pixels = reader_pixels(scene)["boxes"]
        field = cone_field(Backbone.glorot(1, 4, 0), scene.image, pixels, "semiconv")
        box = gt_boxes_from_labels(scene.gt)[0]
        inside = box[1] * scene.shape[1] + box[0]  # the box's top-left pixel
        assert rows_at(field, [inside]).data.shape == (1, 4)
        with pytest.raises(ValueError,
                           match=r"image pixel \(0, 0\) lies outside the field's cone") as err:
            rows_at(field, [inside, 0])
        assert "\n" not in str(err.value)


def first_step(monkeypatch, run):
    """The losses and the parameter gradients of one training step."""
    grads = []
    monkeypatch.setattr(synth, "sgd_step",
                        lambda params, lr: grads.append([p.grad.copy() for p in params]))
    losses = run()
    return losses, grads[0]


def assert_same_step(got_loss, got_grads, want_loss, want_grads):
    assert got_loss == want_loss
    scale = max(np.max(np.abs(g)) for g in want_grads)
    for got, want in zip(got_grads, want_grads, strict=True):
        assert np.max(np.abs(got - want)) <= 1e-12 * scale


@pytest.mark.parametrize("mode", ["conv", "semiconv"])
@pytest.mark.parametrize("name", sorted(CONE_SCENES))
def test_a_window_training_step_is_the_whole_image_step(monkeypatch, mode, name):
    scene = cone_scene(name)
    cfg = TrainConfig(mode=mode, dims=8, epochs=1, seed=2)
    losses, grads = first_step(monkeypatch, lambda: train(scene, cfg)[1])
    model = Backbone.glorot(1, cfg.dims, cfg.seed)
    loss = pull_to_mean_loss(field_rows(dense_field(model, scene.image, mode)),
                             SegmentSet.from_labels(scene.gt))
    loss.backward()
    assert_same_step(losses[0], grads, loss.item(), [p.grad for p in model.params()])


def test_train_config_validation():
    for bad in (dict(mode="hybrid"), dict(lr=0.0), dict(epochs=-1),
                dict(lr_decay=-0.1), dict(dims=0),
                dict(lr=np.nan), dict(lr=np.inf), dict(lr_decay=np.nan)):
        with pytest.raises(ValueError):
            cfg = quick_cfg()
            for k, v in bad.items():
                setattr(cfg, k, v)
            cfg.validate()


# -- k-means decoding ----------------------------------------------------------

def test_kmeans_two_blobs_exact():
    rng = np.random.default_rng(0)
    a = rng.normal(0.0, 0.05, size=(40, 2))
    b = rng.normal(10.0, 0.05, size=(60, 2)) + np.array([0.0, 5.0])
    rows = np.vstack([a, b])
    fg = np.ones(100, dtype=bool)
    out = decode_kmeans(rows_field(rows), fg.reshape(1, 100), K=2, seed=0)
    lab = out.labels.reshape(-1)
    assert len(set(lab[:40])) == 1
    assert len(set(lab[40:])) == 1
    assert lab[0] != lab[99]


def test_kmeans_k1():
    rows = np.random.default_rng(1).standard_normal((20, 3))
    fg = np.ones(20, dtype=bool).reshape(4, 5)
    out = decode_kmeans(rows_field(rows), fg, K=1, seed=0)
    assert np.all(out.labels == 1)


def test_kmeans_respects_background():
    rows = np.random.default_rng(2).standard_normal((12, 2))
    fg = np.zeros(12, dtype=bool)
    fg[3:9] = True
    out = decode_kmeans(rows_field(rows), fg.reshape(3, 4), K=2, seed=0)
    assert np.all(out.labels.reshape(-1)[~fg] == 0)
    assert np.all(out.labels.reshape(-1)[fg] > 0)


def test_kmeans_deterministic():
    rows = np.random.default_rng(3).standard_normal((50, 4))
    fg = np.ones(50, dtype=bool).reshape(5, 10)
    a = decode_kmeans(rows_field(rows), fg, K=5, seed=9)
    b = decode_kmeans(rows_field(rows), fg, K=5, seed=9)
    assert np.array_equal(a.labels, b.labels)


def test_kmeans_validation():
    rows = np.zeros((4, 2))
    fg = np.ones(4, dtype=bool).reshape(2, 2)
    with pytest.raises(ValueError):
        decode_kmeans(rows_field(rows), fg, K=0)
    with pytest.raises(ValueError):
        decode_kmeans(rows_field(rows), fg, K=5)
    with pytest.raises(ValueError):
        decode_kmeans(rows_field(rows), np.zeros((2, 2), dtype=bool), K=1)


def test_kmeans_identical_points():
    # degenerate: every point equal; seeding must not divide by zero
    rows = np.ones((10, 2))
    fg = np.ones(10, dtype=bool).reshape(2, 5)
    out = decode_kmeans(rows_field(rows), fg, K=3, seed=0)
    assert out.labels.shape == (2, 5)


def loop_decode_kmeans(field, fg_mask, K, seed=0, max_iter=300, tol=1e-6):
    """Reference: the k-means update as one loop over clusters."""
    mask = np.asarray(fg_mask, dtype=bool)
    idx = np.flatnonzero(mask.reshape(-1))
    pts = field_rows(field).data[idx]
    rng = np.random.default_rng(seed)
    centers = np.empty((K, pts.shape[1]))
    centers[0] = pts[rng.integers(idx.size)]
    d2 = np.sum((pts - centers[0]) ** 2, axis=1)
    for k in range(1, K):
        total = d2.sum()
        if total <= 0:
            centers[k:] = pts[rng.integers(idx.size, size=K - k)]
            break
        centers[k] = pts[rng.choice(idx.size, p=d2 / total)]
        d2 = np.minimum(d2, np.sum((pts - centers[k]) ** 2, axis=1))
    for _ in range(max_iter):
        dists = np.sum((pts[:, None, :] - centers[None, :, :]) ** 2, axis=2)
        assign = np.argmin(dists, axis=1)
        moved = 0.0
        for k in range(K):
            sel = assign == k
            if not np.any(sel):
                new = pts[int(np.argmax(dists[np.arange(idx.size), assign]))]
            else:
                new = pts[sel].mean(axis=0)
            moved = max(moved, float(np.linalg.norm(new - centers[k])))
            centers[k] = new
        if moved < tol:
            break
    labels = np.zeros(mask.size, dtype=np.int32)
    labels[idx] = assign + 1
    return labels.reshape(mask.shape)


def loop_score(pred, gt):
    """Reference: IoU for every pair of instances, purity one cluster at a time."""
    p, g = pred.labels.reshape(-1), gt.labels.reshape(-1)
    pairs = []
    for gk in range(1, gt.K + 1):
        for pk in range(1, pred.K + 1):
            inter = np.count_nonzero((g == gk) & (p == pk))
            if inter:
                pairs.append((inter / np.count_nonzero((g == gk) | (p == pk)), gk, pk))
    pairs.sort(key=lambda t: (-t[0], t[1], t[2]))
    used_g, used_p, iou_sum = set(), set(), 0.0
    for iou, gk, pk in pairs:
        if gk not in used_g and pk not in used_p:
            used_g.add(gk)
            used_p.add(pk)
            iou_sum += iou
    fg = g > 0
    correct = 0
    for pk in range(1, pred.K + 1):
        sel = (p == pk) & fg
        if np.any(sel):
            ids, counts = np.unique(g[sel], return_counts=True)
            correct += int(np.count_nonzero(g[sel] == ids[np.argmax(counts)]))
    return {"mean_iou": iou_sum / gt.K, "purity": correct / np.count_nonzero(fg)}


@pytest.mark.parametrize("n,spacing", [(4, 12), (8, 10)])
def test_kmeans_and_score_match_loops(n, spacing):
    scene = generate_scene(n, n, dot_radius=3, spacing=spacing)
    fg = scene.gt.foreground_mask()
    for seed in range(20):
        # an untrained semiconv field: coordinates plus random features
        field = build_field(Backbone.glorot(1, 4, seed), scene.image, "semiconv")
        k = scene.gt.K if seed % 2 == 0 else scene.gt.K // 2 + seed
        pred = decode_kmeans(field, fg, k, seed=seed)
        assert np.array_equal(pred.labels, loop_decode_kmeans(field, fg, k, seed=seed))
        assert score(pred, scene.gt) == loop_score(pred, scene.gt)
        assert score(scene.gt, pred) == loop_score(scene.gt, pred)


def test_kmeans_empty_cluster_matches_loop():
    rows = np.ones((10, 2))
    rows[7] = [1.0, 1.0 + 1e-9]
    field = rows_field(rows)
    fg = np.ones(10, dtype=bool).reshape(2, 5)
    for seed in range(5):
        out = decode_kmeans(field, fg, K=4, seed=seed)
        assert np.array_equal(out.labels, loop_decode_kmeans(field, fg, 4, seed=seed))


def renumbered(labels):
    """Instance ids ranked 1..K' in id order, as decode_kmeans numbers them."""
    ids = np.unique(labels[labels > 0])
    out = np.zeros_like(labels)
    out[labels > 0] = np.searchsorted(ids, labels[labels > 0]) + 1
    return out


def test_kmeans_gemm_matches_exact_on_trained_field():
    scene = generate_scene(8, 8, dot_radius=3, spacing=10)
    model, _ = train(scene, quick_cfg(dims=8, epochs=20))
    field = build_field(model, scene.image, "semiconv")
    fg = scene.gt.foreground_mask()
    for seed in range(20):
        pred = decode_kmeans(field, fg, scene.gt.K, seed=seed)
        assert np.array_equal(pred.labels, loop_decode_kmeans(field, fg, scene.gt.K, seed=seed))


def test_kmeans_conv_field_all_near_ties_renumbers_empty_clusters():
    # ten conv epochs collapse every pixel onto one embedding: every row ties
    # with every center, the reseeded clusters stay empty, and the decode used
    # to raise "instance ids [...] have no pixels"
    scene = generate_scene(4, 4, dot_radius=3, spacing=12)
    model, _ = train(scene, quick_cfg(mode="conv", dims=8, epochs=10))
    field = build_field(model, scene.image, "conv")
    fg = scene.gt.foreground_mask()
    for seed in range(5):
        ref = loop_decode_kmeans(field, fg, scene.gt.K, seed=seed)
        assert len(np.unique(ref[ref > 0])) < scene.gt.K
        pred = decode_kmeans(field, fg, scene.gt.K, seed=seed)
        assert np.array_equal(np.unique(pred.labels), np.arange(pred.K + 1))
        assert np.array_equal(pred.labels, renumbered(ref))


def test_kmeans_stops_when_every_point_sits_on_its_center(monkeypatch):
    # the untrained conv field of the periodic 8x8 grid has 29 distinct
    # embeddings for K=64, so 35 clusters stay empty. Every point sits on its
    # center within rounding, so the decode stops instead of reseeding an
    # empty cluster on a "farthest" point for KMEANS_MAX_ITER rounds
    scene = generate_scene(8, 8, dot_radius=3, spacing=10)
    field = build_field(Backbone.glorot(1, 8, 0), scene.image, "conv")
    fg = scene.gt.foreground_mask()
    labels = []
    for max_iter in (5, 300):
        monkeypatch.setattr(synth, "KMEANS_MAX_ITER", max_iter)
        labels.append(decode_kmeans(field, fg, scene.gt.K, seed=0).labels)
    assert np.array_equal(labels[0], labels[1])
    assert labels[0].max() == 29


def test_kmeans_exact_tie_goes_to_lower_index():
    # p is 50 from both c1 and c2 exactly; the expanded |p|² - 2p·c + |c|²
    # misses the tie at this magnitude, so only the exact recheck settles it
    p = np.array([115420894.81660748, 125435416.85115814])
    c1, c2 = p + [30.0, 40.0], p + [50.0, 0.0]
    assert np.sum((p - c1) ** 2) == np.sum((p - c2) ** 2) == 2500.0
    assert p @ p - 2 * (p @ c1) + c1 @ c1 != p @ p - 2 * (p @ c2) + c2 @ c2
    field = rows_field(np.vstack([np.tile(c1, (4, 1)), np.tile(c2, (4, 1)), p]))
    fg = np.ones((1, 9), dtype=bool)
    for seed in range(10):
        out = decode_kmeans(field, fg, K=2, seed=seed)
        assert np.array_equal(out.labels, loop_decode_kmeans(field, fg, 2, seed=seed))
    # seeded with c2 as center 0, then with c1 as center 0: p joins center 0
    assert decode_kmeans(field, fg, K=2, seed=0).labels.tolist() == [[2] * 4 + [1] * 5]
    assert decode_kmeans(field, fg, K=2, seed=9).labels.tolist() == [[1] * 4 + [2] * 4 + [1]]


def test_seeding_draw_matches_generator_choice():
    # the cumsum draw in decode_kmeans is the arithmetic of
    # Generator.choice(n, p=...): same index, same generator state after it
    for seed in range(200):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 2000))
        d2 = rng.random(n) ** 3 * 10.0 ** rng.uniform(-5, 5)
        d2[rng.random(n) < rng.random()] = 0.0
        d2[rng.integers(n)] = 1.0
        total = d2.sum()
        a, b = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
        for _ in range(3):
            want = a.choice(n, p=d2 / total)
            cdf = np.cumsum(d2 / total)
            cdf /= cdf[-1]
            got = cdf.searchsorted(b.random(), side="right")
            assert got == want and d2[got] > 0
            assert a.bit_generator.state == b.bit_generator.state


def first_seen(labels):
    """Ids renumbered in order of first appearance: the partition, not its numbering."""
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    return np.argsort(np.argsort(first))[inverse]


@pytest.mark.parametrize("d", [1, 2, 3, 7, 8, 9, 16, 17])
def test_kmeans_matches_loop_across_dims(d):
    rng = np.random.default_rng(d)
    fg = np.ones((9, 10), dtype=bool)
    spread = rows_field(rng.standard_normal((90, d)) * 10.0 ** rng.uniform(-1, 1, size=d))
    for k in (1, 4, 9):
        for seed in range(4):
            ref = loop_decode_kmeans(spread, fg, k, seed=seed)
            assert np.array_equal(decode_kmeans(spread, fg, k, seed=seed).labels, ref)
    # five embeddings repeated 18 times: K=8 leaves three clusters empty. The
    # reference reseeds them round after round and so numbers the five groups
    # differently; the groups themselves must agree
    repeated = rows_field(np.repeat(rng.standard_normal((5, d)), 18, axis=0))
    for k in (3, 8):
        for seed in range(4):
            ref = loop_decode_kmeans(repeated, fg, k, seed=seed)
            pred = decode_kmeans(repeated, fg, k, seed=seed)
            assert pred.K == min(k, 5)
            assert np.array_equal(first_seen(pred.labels), first_seen(ref))


def test_kmeans_seeding_overflow_raises_numeric_error():
    # squared distances of embeddings near 1e160 overflow; the seeding draw
    # then has no distribution to draw from
    rows = np.random.default_rng(0).standard_normal((40, 8)) * 1e160
    field = rows_field(rows)
    fg = np.ones((4, 10), dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericError, match="k-means seeding"):
            decode_kmeans(field, fg, K=4, seed=0)
        assert np.array_equal(decode_kmeans(field, fg, K=1, seed=0).labels, fg.astype(int))


# -- scoring --------------------------------------------------------------------

def test_score_perfect():
    scene = small_scene()
    out = score(scene.gt, scene.gt)
    assert out == {"mean_iou": 1.0, "purity": 1.0}


def test_score_single_cluster_purity():
    scene = generate_scene(4, 4, dot_radius=3, spacing=16)
    merged = np.where(scene.gt.labels > 0, 1, 0).astype(np.int32)
    out = score(InstanceLabeling(merged), scene.gt)
    assert out["purity"] == 1.0 / 16.0
    assert out["mean_iou"] < 0.1


def test_score_label_permutation_invariant():
    scene = small_scene()
    perm = np.array([0, 3, 1, 4, 2])  # relabel 1..4
    out = score(InstanceLabeling(perm[scene.gt.labels]), scene.gt)
    assert out == {"mean_iou": 1.0, "purity": 1.0}


def test_score_shape_mismatch():
    a = InstanceLabeling(np.ones((2, 2), dtype=int))
    b = InstanceLabeling(np.ones((2, 3), dtype=int))
    with pytest.raises(ValueError):
        score(a, b)


def test_score_greedy_matching_one_to_one():
    gt = InstanceLabeling(np.array([[1, 1, 2, 2]]))
    pred = InstanceLabeling(np.array([[1, 1, 1, 2]]))
    out = score(pred, gt)
    # pred 1 matches gt 1 (iou 2/3), pred 2 matches gt 2 (iou 1/2)
    assert abs(out["mean_iou"] - (2.0 / 3.0 + 0.5) / 2.0) < 1e-12


# -- serialization ----------------------------------------------------------------

def test_scene_json_round_trip(tmp_path):
    scene = generate_scene(2, 3, dot_radius=2, spacing=9, seed=4)
    doc = scene_to_json(scene)
    back = scene_from_json(doc)
    assert np.array_equal(back.image.data, scene.image.data)
    assert np.array_equal(back.gt.labels, scene.gt.labels)
    assert back.meta["spacing"] == 9

    path = tmp_path / "scene.json"
    path.write_text(json.dumps(doc))
    again = load_scene(path)
    assert np.array_equal(again.gt.labels, scene.gt.labels)


def test_scene_json_rejects_ids_beyond_u16():
    def scene_of(labels):
        return Scene(Tensor(np.zeros((1, 256, 256))), InstanceLabeling(labels), {})

    with pytest.raises(ValueError, match="65535"):
        scene_to_json(scene_of(np.arange(1, 65537).reshape(256, 256)))
    fits = np.arange(65536).reshape(256, 256)  # ids up to 65535 still round-trip
    assert np.array_equal(scene_from_json(scene_to_json(scene_of(fits))).gt.labels, fits)


def test_scene_json_rejects_truncated():
    doc = scene_to_json(small_scene())
    doc["h"] = doc["h"] + 1
    with pytest.raises(ValueError):
        scene_from_json(doc)


# -- end to end on a small grid ---------------------------------------------------

def test_small_end_to_end_contrast():
    scene = generate_scene(2, 2, dot_radius=3, spacing=14, seed=0)
    cfg = quick_cfg(epochs=150, dims=6)
    (conv_model, _), (semi_model, _) = controlled_pair(scene, cfg)
    fg = scene.gt.foreground_mask()

    semi_field = build_field(semi_model, scene.image, "semiconv")
    semi = score(decode_kmeans(semi_field, fg, scene.gt.K, seed=0), scene.gt)
    conv_field_ = build_field(conv_model, scene.image, "conv")
    conv = score(decode_kmeans(conv_field_, fg, scene.gt.K, seed=0), scene.gt)

    assert semi["mean_iou"] > conv["mean_iou"]
    assert semi["mean_iou"] > 0.8
