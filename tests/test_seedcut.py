import json
from collections import Counter

import numpy as np
import pytest

from semiconv import synth, tensor as T
from semiconv.backbone import Backbone, Cone, _geometry
from semiconv.tensor import NumericError, Tensor
from semiconv.embedding import EmbeddingField, attach_coords, coord_grid, field_rows, rows_at
from semiconv.kernels import FAMILIES, KernelParams, fuse_boxes, fuse_scores
from semiconv.losses import SegmentSet, mask_bce, pull_to_mean_loss
from semiconv.synth import (InstanceLabeling, Scene, TrainConfig, build_field, cone_field,
                            generate_scene, train)
from semiconv.seedcut import (RegionProposal, box_loss, cut_all_boxes, cut_region,
                              gt_boxes_from_labels, region_pixel_indices, rle_decode,
                              rle_encode, train_seedcut, _box_layout, _box_list)
from whole_image import assert_close, image_forward, learnable, roll_rows, whole_field


def make_region(rows, scores, shape):
    h, w = shape
    return RegionProposal((0, 0, w, h), Tensor(np.asarray(scores, dtype=float)),
                          Tensor(np.asarray(rows, dtype=float)))


def two_cluster_region():
    # 2x4 region: left half instance A at the origin, right half far away
    rows = np.array([[0.0, 0.0], [0.0, 0.0], [50.0, 50.0], [50.0, 50.0],
                     [0.0, 0.0], [0.0, 0.0], [50.0, 50.0], [50.0, 50.0]])
    a_mask = np.array([[True, True, False, False],
                       [True, True, False, False]])
    return rows, a_mask


def test_cut_perfect_separation():
    rows, a_mask = two_cluster_region()
    scores = np.where(a_mask.reshape(-1), 0.0, 0.0)
    scores[0] = 1.0  # positive score on one instance pixel
    region = make_region(rows, scores, (2, 4))
    mask = cut_region(region, KernelParams("gaussian"))
    assert np.array_equal(mask, a_mask)


def test_cut_all_negative_scores():
    rows, _ = two_cluster_region()
    region = make_region(rows, np.full(8, -1.0), (2, 4))
    mask = cut_region(region, KernelParams("gaussian"))
    assert not mask.any()


def test_cut_two_instances_seed_selects_one():
    rows, a_mask = two_cluster_region()
    scores = np.zeros(8)
    scores[0] = 2.0   # seed in A
    region = make_region(rows, scores, (2, 4))
    assert np.array_equal(cut_region(region, KernelParams("gaussian")), a_mask)
    scores2 = np.zeros(8)
    scores2[2] = 2.0  # seed in B instead
    region2 = make_region(rows, scores2, (2, 4))
    assert np.array_equal(cut_region(region2, KernelParams("gaussian")), ~a_mask)


def test_cut_threshold_validation():
    scene = generate_scene(2, 2, dot_radius=3, spacing=12, seed=0)
    model = Backbone.glorot(1, 4, 0)
    for bad in (0.0, 1.0, -0.1):
        with pytest.raises(ValueError, match="threshold"):
            cut_all_boxes(scene, model, KernelParams("gaussian"), threshold=bad)


def test_semiconv_cut_needs_two_channels():
    scene = generate_scene(2, 2, dot_radius=3, spacing=12, seed=0)
    with pytest.raises(ValueError, match="2 channels"):
        cut_all_boxes(scene, Backbone.glorot(1, 1, 0), KernelParams("gaussian"))


def test_region_validation():
    with pytest.raises(ValueError):
        RegionProposal((3, 0, 3, 2), Tensor(np.zeros(0)), Tensor(np.zeros((0, 2))))
    with pytest.raises(ValueError):
        RegionProposal((0, 0, 2, 2), Tensor(np.zeros(3)), Tensor(np.zeros((4, 2))))
    with pytest.raises(ValueError):
        RegionProposal((0, 0, 2, 2), Tensor(np.zeros(4)), Tensor(np.zeros((5, 2))))


def test_hard_seed_invariant_to_monotone_rescale():
    rows, _ = two_cluster_region()
    s = np.array([0.1, 0.9, 0.3, 0.2, 0.0, 0.5, 0.4, 0.6])
    p = KernelParams("gaussian")
    a = fuse_scores(Tensor(s), Tensor(rows), p, "hard")
    b = fuse_scores(Tensor(3.0 * s + 7.0), Tensor(rows), p, "hard")
    assert a.seed_index == b.seed_index == 1


def test_soft_matches_hard_with_dominant_score():
    rng = np.random.default_rng(0)
    rows = rng.uniform(-5.0, 5.0, size=(12, 4))
    s = rng.standard_normal(12)
    s[4] = s.max() + 25.0  # dominates by well over 20
    p = KernelParams("gaussian")
    hard = fuse_scores(Tensor(s), Tensor(rows), p, "hard")
    soft = fuse_scores(Tensor(s), Tensor(rows), p, "soft")
    assert hard.seed_index == 4
    # the softmax-weighted seed row sits on pixel 4's row, so the fusions agree
    gap = np.max(np.abs(soft.fused_scores.data - hard.fused_scores.data))
    assert gap < 1e-6


def test_region_pixel_indices():
    pixels, ids, counts = region_pixel_indices([(1, 2, 3, 4)], (5, 5))
    # rows y=2,3 and columns x=1,2 of a width-5 image
    assert np.array_equal(pixels, [11, 12, 16, 17])
    # two overlapping rects: the shared pixels are listed once per rect
    pixels, ids, counts = region_pixel_indices([(0, 0, 2, 2), (1, 1, 4, 2)], (3, 5))
    assert pixels.tolist() == [0, 1, 5, 6, 6, 7, 8]
    assert ids.tolist() == [0, 0, 0, 0, 1, 1, 1]
    assert counts.tolist() == [4, 3]
    for bad in ((4, 4, 20, 6), (-1, 0, 2, 2), (2, 0, 2, 3), (0, 0, 5, 6)):
        with pytest.raises(ValueError):
            region_pixel_indices([(0, 0, 1, 1), bad], (5, 5))


def test_region_rows_match_the_field_crop():
    scene = generate_scene(1, 2, dot_radius=2, spacing=8, seed=0)
    cfg = TrainConfig(dims=4, epochs=0, seed=0)
    model, _ = train(scene, cfg)
    field = build_field(model, scene.image, "semiconv")
    pixels, _, _ = region_pixel_indices([(2, 1, 6, 5)], scene.shape)
    rows = T.index_select(field_rows(field), pixels)
    manual = field.values.data[:, 1:5, 2:6].reshape(4, -1).T
    assert np.array_equal(rows.data, manual)


def dense_field(model, image, pixels, mode):
    """The whole image's field, in cone_field's place."""
    return whole_field(model, image, mode)


def dense_box_rows(model, image, mode, boxes):
    """The whole field, indexed at the box pixels, after checking it against
    the np.roll reference."""
    pixels, _, _ = region_pixel_indices(boxes, image.data.shape[1:])
    rows = field_rows(dense_field(model, image, boxes, mode))
    assert_close(rows.data, roll_rows(model, image, mode))
    return T.index_select(rows, pixels)


def forward_inputs(monkeypatch):
    """Record the shape of every input Backbone.forward receives: [C,H,W] for
    an image, [C,1,P] for the pixels of a cone's layer 0."""
    shapes = []
    forward = Backbone.forward

    def recording(model, x):
        shapes.append(getattr(x, "input", x).data.shape)
        return forward(model, x)

    monkeypatch.setattr(Backbone, "forward", recording)
    return shapes


def random_backbone(rng, kernels, dims):
    """A backbone with random weights and biases, inference-only as every
    model the package makes."""
    chans = (1, 6, 7, dims)
    return Backbone(
        [Tensor(0.4 * rng.standard_normal((c_out, c_in, k, k)))
         for c_in, c_out, k in zip(chans[:-1], chans[1:], kernels)],
        [Tensor(0.1 * rng.standard_normal(c_out)) for c_out in chans[1:]])


# a 45x61 image (H*W = 2745, not a multiple of 8); boxes as (x0, y0, x1, y1)
BOX_SETS = {
    # one at each corner, so the cone wraps at every edge, two overlapping
    # boxes and a tall thin one
    "mosaic": [(0, 0, 5, 4), (56, 41, 61, 45), (0, 38, 3, 45), (57, 0, 61, 6),
               (3, 2, 9, 8), (6, 5, 12, 10), (30, 10, 32, 22)],
    # a box over the whole image: so is every layer's list
    "full": [(0, 0, 61, 45), (10, 10, 14, 12)],
}


def grown(pixels, shape, r):
    """Reference: the image pixels within r rows and r columns of a listed
    one, wrapping around the edges."""
    mask = np.zeros(shape, dtype=bool)
    mask.reshape(-1)[pixels] = True
    return np.logical_or.reduce([np.roll(mask, (dy, dx), axis=(0, 1))
                                 for dy in range(-r, r + 1) for dx in range(-r, r + 1)])


@pytest.mark.parametrize("mode", ["conv", "semiconv"])
@pytest.mark.parametrize("boxes", sorted(BOX_SETS))
@pytest.mark.parametrize("kernels", [(3, 3, 3), (5, 1, 5)])
@pytest.mark.parametrize("loaded", [False, True], ids=["in-memory", "loaded"])
def test_box_rows_equal_the_dense_rows(monkeypatch, tmp_path, mode, boxes, kernels, loaded):
    rng = np.random.default_rng(len(boxes) + sum(kernels))
    model = random_backbone(rng, kernels, dims=5)
    if loaded:
        model.save(tmp_path / "m.bin")
        model = Backbone.load(tmp_path / "m.bin")
    image = Tensor(rng.standard_normal((1, 45, 61)))
    want = dense_box_rows(model, image, mode, BOX_SETS[boxes]).data
    shapes = forward_inputs(monkeypatch)
    pixels, _, _ = region_pixel_indices(BOX_SETS[boxes], (45, 61))
    got = rows_at(cone_field(model, image, pixels, mode), pixels).data
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))
    r = sum(k // 2 for k in kernels)
    n = np.count_nonzero(grown(pixels, (45, 61), r))
    assert shapes == [(1, n)]
    assert (n == 45 * 61) == (boxes == "full")


def test_cut_all_boxes_runs_the_backbone_on_the_cone_only(monkeypatch):
    model = Backbone.glorot(1, 8, 0)
    params = KernelParams("steered_laplacian", sigma=1.0)
    scenes = [generate_scene(4, 4, dot_radius=3, spacing=32, img_noise_std=0.05, seed=s)
              for s in range(8)]
    monkeypatch.setattr("semiconv.synth.cone_field", dense_field)
    want = [cut_all_boxes(scene, model, params) for scene in scenes]
    monkeypatch.undo()
    shapes = forward_inputs(monkeypatch)
    for scene, (masks, boxes, ious) in zip(scenes, want):
        got_masks, got_boxes, got_ious = cut_all_boxes(scene, model, params)
        assert got_boxes == boxes and got_ious == ious
        assert all(np.array_equal(a, b) for a, b in zip(got_masks, masks))
    h, w = scenes[0].shape
    assert len(shapes) == len(scenes)
    assert all(np.prod(s[1:]) <= 0.25 * h * w for s in shapes)
    # the comparison is not between empty or full masks
    assert 0 < np.mean([m.mean() for m in want[0][0]]) < 1


def test_gt_boxes_cover_instances():
    scene = generate_scene(2, 2, dot_radius=3, spacing=12, seed=0)
    boxes = gt_boxes_from_labels(scene.gt)
    assert len(boxes) == 4
    for k, (x0, y0, x1, y1) in enumerate(boxes, start=1):
        inside = scene.gt.labels[y0:y1, x0:x1]
        assert np.count_nonzero(inside == k) == np.count_nonzero(scene.gt.labels == k)


def per_instance_boxes(labels, pad):
    """Reference: one scan of the label map per instance."""
    h, w = labels.shape
    boxes = []
    for k in range(1, int(labels.max()) + 1):
        ys, xs = np.nonzero(labels == k)
        boxes.append((max(int(xs.min()) - pad, 0), max(int(ys.min()) - pad, 0),
                      min(int(xs.max()) + 1 + pad, w), min(int(ys.max()) + 1 + pad, h)))
    return boxes


def test_gt_boxes_match_per_instance_scan():
    rng = np.random.default_rng(3)
    for _ in range(30):
        h, w = (int(n) for n in rng.integers(1, 12, size=2))
        # scattered ids reach the image edges; renumber the ones present to 0..K
        raw = rng.integers(0, rng.integers(2, 7), size=(h, w))
        labels = np.unique(raw, return_inverse=True)[1].reshape(h, w)
        if labels.max() == 0:
            continue
        gt = InstanceLabeling(labels)
        got = gt_boxes_from_labels(gt)
        assert got == per_instance_boxes(gt.labels, 1)
        assert all(type(v) is int for box in got for v in box)
    # an instance on the image corners: the one-pixel pad is clipped to the image
    labels = np.zeros((4, 5), dtype=int)
    labels[0, 0] = labels[3, 4] = 1
    labels[1:3, 2] = 2
    assert gt_boxes_from_labels(InstanceLabeling(labels)) == [(0, 0, 5, 4), (1, 0, 4, 4)]


def test_rle_round_trip():
    rng = np.random.default_rng(1)
    for _ in range(10):
        mask = rng.random((6, 9)) > 0.6
        doc = rle_encode(mask)
        assert doc["counts"][0] == 0 or not mask.reshape(-1)[0]
        assert np.array_equal(rle_decode(doc), mask)
    empty = np.zeros((3, 3), dtype=bool)
    assert rle_encode(empty)["counts"] == [9]
    with pytest.raises(ValueError):
        rle_decode({"size": [2, 2], "counts": [3]})


def loop_rle_encode(mask):
    """Reference: run lengths counted one pixel at a time."""
    counts, value, run = [], False, 0
    for v in np.asarray(mask, dtype=bool).reshape(-1):
        if v == value:
            run += 1
        else:
            counts.append(run)
            value, run = v, 1
    counts.append(run)
    return {"size": list(mask.shape), "counts": counts}


def test_rle_encode_matches_loop():
    rng = np.random.default_rng(2)
    masks = [rng.random((rng.integers(1, 12), rng.integers(1, 12))) > rng.random()
             for _ in range(50)]
    masks += [np.zeros((4, 5), dtype=bool), np.ones((4, 5), dtype=bool),
              np.zeros((1, 1), dtype=bool), np.ones((1, 1), dtype=bool),
              np.eye(3, dtype=bool)]
    for mask in masks:
        doc = rle_encode(mask)
        assert json.dumps(doc) == json.dumps(loop_rle_encode(mask))
        assert all(type(c) is int for c in doc["counts"])
    assert rle_encode(np.ones((4, 5), dtype=bool))["counts"] == [0, 20]
    assert rle_encode(np.eye(3, dtype=bool))["counts"] == [0, 1, 3, 1, 3, 1]


def loop_rle_decode(doc):
    """Reference: each run painted in turn, values alternating from False."""
    h, w = doc["size"]
    flat = np.zeros(h * w, dtype=bool)
    pos, value = 0, False
    for run in doc["counts"]:
        flat[pos:pos + run] = value
        pos, value = pos + run, not value
    return flat.reshape(h, w)


def test_rle_decode_matches_loop_and_rejects_bad_runs():
    rng = np.random.default_rng(5)
    for _ in range(50):
        counts = rng.integers(0, 4, size=rng.integers(1, 9)).tolist()
        doc = {"size": [1, sum(counts)], "counts": counts}
        assert np.array_equal(rle_decode(doc), loop_rle_decode(doc))
    # empty runs keep the alternation: False 0, True 0, False 1, True 3
    assert rle_decode({"size": [2, 2], "counts": [0, 0, 1, 3]}).tolist() == [
        [False, True], [True, True]]
    for counts in ([1, -1, 4], [1.5, 2.5], [[1, 3]], ["4"]):
        with pytest.raises(ValueError, match="non-negative integers"):
            rle_decode({"size": [2, 2], "counts": counts})


def test_rle_decode_rejects_bool_runs():
    # numpy would read [true, 3] as the int runs [1, 3]
    for counts in ([True, 3], [0, False, 4]):
        with pytest.raises(ValueError, match="non-negative integers"):
            rle_decode({"size": [2, 2], "counts": counts})


def test_rle_decode_rejects_bad_size():
    for size in ([True, 4], [2.0, 2], [2, -2], [4]):
        with pytest.raises(ValueError, match="size must be two non-negative integers"):
            rle_decode({"size": size, "counts": [4]})


@pytest.mark.parametrize("doc", [
    [2, 2], "4", None,                                   # not an object
    {"counts": [4]}, {"size": [2, 2]}, {},              # a key missing
    {"size": 5, "counts": []}, {"size": [2, 2], "counts": 4},
    {"size": [2, 2], "counts": [2**70]},                 # a run past any intp
    {"size": [2**35, 2**35], "counts": [2**70]},         # a mask past any intp
], ids=["list", "str", "null", "no-size", "no-counts", "empty", "int-size", "int-counts",
        "huge-run", "huge-mask"])
def test_rle_decode_rejects_every_malformed_document(doc):
    with pytest.raises(ValueError):
        rle_decode(doc)


def per_box_loss(field, gt, boxes, instances, params):
    """Reference box loss: one fuse_scores and one mask_bce per box, as cut_region cuts."""
    rows_all = field_rows(field)
    flat = gt.labels.reshape(-1)
    bce = 0.0
    for rect, k in zip(boxes, instances):
        x0, y0, x1, y1 = rect
        idx = (np.arange(y0, y1)[:, None] * gt.labels.shape[1] + np.arange(x0, x1)).ravel()
        scores = np.where(flat[idx] == k, 1.0, -1.0)
        fused = fuse_scores(scores, T.index_select(rows_all, idx), params, "hard")
        seed_id = flat[idx[fused.seed_index]]
        bce += mask_bce(fused.probabilities, (flat[idx] == seed_id) & (seed_id > 0)).item()
    return bce / len(boxes)


@pytest.mark.parametrize("family", FAMILIES)
def test_box_loss_reads_the_rows_the_cut_reads(family):
    scene = generate_scene(2, 2, dot_radius=3, spacing=12, seed=0)
    cfg = TrainConfig(dims=4, epochs=1, seed=0)
    boxes = gt_boxes_from_labels(scene.gt)
    _, _, losses = train_seedcut(scene, boxes, cfg, params=KernelParams(family))
    # the same first-step loss, with every box fused and scored on its own
    params = KernelParams(family)
    field = build_field(Backbone.glorot(1, cfg.dims, cfg.seed), scene.image, cfg.mode)
    want = (pull_to_mean_loss(field_rows(field), SegmentSet.from_labels(scene.gt)).item()
            + per_box_loss(field, scene.gt, boxes, range(1, 5), params))
    assert abs(losses[0] - want) <= 1e-12 * abs(want)


def l_around_a_square():
    """12x12 labels: instance 1 an L, instance 2 a larger square inside its box."""
    labels = np.zeros((12, 12), dtype=int)
    labels[1:11, 1] = labels[10, 1:11] = 1   # 19 pixels
    labels[3:8, 4:9] = 2                     # 25 pixels
    return InstanceLabeling(labels)


@pytest.mark.parametrize("family", FAMILIES)
def test_box_k_is_instance_k_plus_1_in_the_loss_and_the_cut(family):
    gt = l_around_a_square()
    boxes = gt_boxes_from_labels(gt)
    # box 0 encloses box 1, so the square outnumbers the L in it
    assert boxes == [(0, 0, 12, 12), (3, 2, 10, 9)]
    rng = np.random.default_rng(0)
    field = EmbeddingField(attach_coords(Tensor(rng.standard_normal((4, 12, 12))),
                                         coord_grid(12, 12)))
    params = KernelParams(family, sigma=1.7)
    got = box_loss(gt, boxes, params)(field).item()
    want = per_box_loss(field, gt, boxes, [1, 2], params)
    assert abs(got - want) <= 1e-12 * abs(want)
    assert abs(per_box_loss(field, gt, boxes, [2, 2], params) - want) > 1e-6
    # the cut scores the same instances, box for box
    image = Tensor((gt.labels > 0)[None] + 0.1 * rng.standard_normal((1, 12, 12)))
    model = Backbone.glorot(1, 4, 0)
    masks, _, ious = cut_all_boxes(Scene(image, gt, {}), model, params)
    rows_all = field_rows(build_field(model, image, "semiconv"))
    for k, rect in enumerate(boxes):
        pixels, _, _ = region_pixel_indices([rect], (12, 12))
        truth = gt.labels.reshape(-1)[pixels] == k + 1
        region = RegionProposal(rect, Tensor(np.where(truth, 1.0, -1.0)),
                                T.index_select(rows_all, pixels))
        mask = cut_region(region, params)
        assert np.array_equal(masks[k], mask)
        assert ious[k] == np.sum(mask.ravel() & truth) / np.sum(mask.ravel() | truth)
    # the boxes in the other order: box 0 holds no pixel of instance 1
    with pytest.raises(ValueError, match="no pixel of its instance 1"):
        box_loss(gt, boxes[::-1], params)


def per_box_cuts(scene, model, params):
    """Reference for cut_all_boxes: each ground-truth box cut on its own,
    from the whole image's field; (masks, IoUs)."""
    rows_all = field_rows(build_field(model, scene.image, "semiconv"))
    masks, ious = [], []
    for k, rect in enumerate(gt_boxes_from_labels(scene.gt), start=1):
        pixels, _, _ = region_pixel_indices([rect], scene.shape)
        truth = scene.gt.labels.reshape(-1)[pixels] == k
        region = RegionProposal(rect, Tensor(np.where(truth, 1.0, -1.0)),
                                T.index_select(rows_all, pixels))
        masks.append(cut_region(region, params))
        ious.append(np.sum(masks[-1].ravel() & truth) / np.sum(masks[-1].ravel() | truth))
    return masks, ious


def test_cut_all_boxes_builds_each_label_maps_boxes_once():
    # label maps A (int32), B (int64), A, then A's labels under another image
    a = generate_scene(2, 2, dot_radius=3, spacing=12, img_noise_std=0.05, seed=0)
    gt = l_around_a_square()
    rng = np.random.default_rng(0)
    b = Scene(Tensor((gt.labels > 0)[None] + 0.1 * rng.standard_normal((1, 12, 12))), gt, {})
    a_again = generate_scene(2, 2, dot_radius=3, spacing=12, img_noise_std=0.05, seed=1)
    model = Backbone.glorot(1, 4, 0)
    params = KernelParams("steered_laplacian", sigma=1.0)
    _box_layout.cache_clear()
    results = []
    for scene in (a, b, a, a_again):
        masks, boxes, ious = cut_all_boxes(scene, model, params)
        want_masks, want_ious = per_box_cuts(scene, model, params)
        assert boxes == gt_boxes_from_labels(scene.gt)
        assert ious == want_ious
        assert all(np.array_equal(m, w) for m, w in zip(masks, want_masks, strict=True))
        results.append((masks, list(boxes), ious))
        boxes[:] = [(0, 0, 1, 1)]  # the caller's own list: no later cut sees this
    assert results[2][1:] == results[0][1:]
    assert all(np.array_equal(m, w) for m, w in zip(results[2][0], results[0][0]))
    info = _box_layout.cache_info()
    assert (info.misses, info.hits) == (3, 1)
    labels = a.gt.labels
    for arr in _box_layout(labels.shape, labels.dtype, labels.tobytes())[1]:
        with pytest.raises(ValueError, match="read-only"):
            arr[...] = 0


@pytest.mark.parametrize("spacing", [32, 12])
def test_a_cut_builds_an_inference_geometry_the_next_cut_reuses(monkeypatch, spacing):
    # training's cone reads the instances and their boxes, the set the cut's
    # boxes cover, since every instance lies inside its box. The cut's cone
    # carries no adjoint, so the first cut builds a geometry of its own and
    # the next cut reuses it
    scene = generate_scene(4, 4, dot_radius=3, spacing=spacing, img_noise_std=0.05, seed=3)
    cfg = TrainConfig(dims=4, epochs=1, seed=0)
    _geometry.cache_clear()
    model, params, _ = train_seedcut(scene, gt_boxes_from_labels(scene.gt), cfg,
                                     KernelParams("steered_laplacian", sigma=1.0))
    cones = []
    monkeypatch.setattr(synth, "Cone", lambda *args: cones.append(Cone(*args)) or cones[-1])
    for _ in range(2):
        cut_all_boxes(scene, model, params)
    info = _geometry.cache_info()
    assert (info.misses, info.hits) == (2, 1)
    assert len(cones) == 2 and cones[0].tables is cones[1].tables
    assert all(t.adjoint is None for t in cones[0].tables)


def test_the_field_builders_and_the_cut_record_no_tape(monkeypatch):
    # a freshly trained model and kernel scale, whose log-sigma requires a
    # gradient: decoding with them records no tape and leaves the scale as it
    # is. The reference forwards the model's learnable twin, taped
    scene = generate_scene(2, 2, dot_radius=3, spacing=12, img_noise_std=0.05, seed=0)
    model, params, _ = train_seedcut(scene, gt_boxes_from_labels(scene.gt),
                                     TrainConfig(dims=4, epochs=2, seed=0),
                                     KernelParams("steered_laplacian", sigma=1.0))
    learnables = params.learnables()
    for p in learnables:
        p.grad = None
    pixels, ids, counts, truth, scores = _box_list(scene.gt, gt_boxes_from_labels(scene.gt))
    twin = learnable(model)
    cone = Cone(twin, scene.image, pixels)
    taped = {"image": image_forward(twin, scene.image), "cone": twin.forward(cone)}
    assert all(phi.requires_grad for phi in taped.values())
    fused, fuse = [], fuse_boxes
    monkeypatch.setattr("semiconv.seedcut.fuse_boxes",
                        lambda *args: fused.append(fuse(*args)) or fused[-1])
    for mode in ("conv", "semiconv"):
        whole = build_field(model, scene.image, mode)
        listed = cone_field(model, scene.image, pixels, mode)
        masks, _, ious = cut_all_boxes(scene, model, params, cfg_mode=mode)
        for t in (whole.values, listed.values, fused[-1].probabilities):
            assert not t.requires_grad and t._parents == () and t._backward is None
        want = taped
        if mode == "semiconv":
            want = {"image": attach_coords(taped["image"], coord_grid(*scene.shape)),
                    "cone": attach_coords(taped["cone"], cone.grid)}
        assert np.array_equal(whole.values.data, want["image"].data)
        assert np.array_equal(listed.values.data, want["cone"].data)
        # the cut from the taped rows and the trainable kernel scale
        rows = rows_at(EmbeddingField(want["cone"], cone.at), pixels)
        mask = fuse(scores, rows, counts, params).probabilities.data >= 0.5
        assert np.array_equal(np.concatenate([m.reshape(-1) for m in masks]), mask)
        assert ious == (np.bincount(ids, mask & truth) / np.bincount(ids, mask | truth)).tolist()
    assert all(p.requires_grad and p.grad is None for p in learnables)


def test_box_loss_tape_does_not_grow_with_boxes():
    cfg = TrainConfig(dims=4, epochs=0, seed=0)
    params = KernelParams("steered_laplacian")
    nodes = []
    for rows in (2, 4):
        scene = generate_scene(rows, rows, dot_radius=3, spacing=12, seed=0)
        field = build_field(Backbone.glorot(1, cfg.dims, cfg.seed), scene.image, cfg.mode)
        loss = box_loss(scene.gt, gt_boxes_from_labels(scene.gt), params)(field)
        nodes.append(len(T._topo_order(loss)))
    assert nodes[0] == nodes[1]


def test_nan_score_is_numeric_error():
    rows, _ = two_cluster_region()
    for where in (0, 3):
        scores = np.zeros(8)
        scores[where] = np.nan
        with pytest.raises(NumericError):
            cut_region(make_region(rows, scores, (2, 4)), KernelParams("gaussian"))


def test_seedcut_training_keeps_sigma_positive():
    scene = generate_scene(2, 2, dot_radius=3, spacing=12, seed=0)
    cfg = TrainConfig(dims=4, epochs=40, seed=0)
    boxes = gt_boxes_from_labels(scene.gt)
    params = KernelParams("steered_laplacian", sigma=1.0)
    model, params, losses = train_seedcut(scene, boxes, cfg, params=params)
    assert np.isfinite(params.log_sigma.data)
    assert params.sigma > 0
    assert losses[-1] < losses[0]


def test_seedcut_cuts_match_instances_after_training():
    scene = generate_scene(2, 2, dot_radius=3, spacing=14, seed=0)
    cfg = TrainConfig(dims=6, epochs=150, seed=0)
    boxes = gt_boxes_from_labels(scene.gt)
    model, params, _ = train_seedcut(scene, boxes, cfg,
                                     KernelParams("steered_laplacian", sigma=1.0))
    masks, boxes, ious = cut_all_boxes(scene, model, params)
    assert len(masks) == 4
    assert float(np.mean(ious)) > 0.7
    # the batched cut is the per-box cut_region, box for box
    field = build_field(model, scene.image, "semiconv")
    rows_all = field_rows(field)
    for k, rect in enumerate(boxes, start=1):
        pixels, _, _ = region_pixel_indices([rect], scene.shape)
        scores = np.where(scene.gt.labels.reshape(-1)[pixels] == k, 1.0, -1.0)
        region = RegionProposal(rect, Tensor(scores),
                                T.index_select(rows_all, pixels))
        assert np.array_equal(masks[k - 1], cut_region(region, params))


def test_a_cut_lies_inside_its_instance_so_its_iou_is_the_recall():
    # off its instance a box scores -1, where a pixel's probability is at most
    # sigmoid(-1) ~ 0.269: at 0.5 no cut spills over, and the IoU reads the
    # share of the instance the cut recovers
    scene = generate_scene(2, 2, dot_radius=3, spacing=14, img_noise_std=0.05, seed=0)
    cfg = TrainConfig(dims=4, epochs=40, seed=0)
    model, params, _ = train_seedcut(scene, gt_boxes_from_labels(scene.gt), cfg,
                                     KernelParams("steered_laplacian", sigma=1.0))
    masks, boxes, ious = cut_all_boxes(scene, model, params, threshold=0.5)
    for k, ((x0, y0, x1, y1), mask, iou) in enumerate(zip(boxes, masks, ious), start=1):
        inside = scene.gt.labels[y0:y1, x0:x1] == k
        assert mask.any() and not (mask & ~inside).any()
        assert iou == mask.sum() / inside.sum()


def test_train_seedcut_validation():
    scene = generate_scene(1, 1, dot_radius=2, spacing=8, seed=0)
    cfg = TrainConfig(dims=4, epochs=1, seed=0)
    with pytest.raises(ValueError, match="no pixel of its instance 1"):
        # a box without foreground
        train_seedcut(scene, [(0, 0, 2, 2)], cfg, KernelParams("steered_laplacian", sigma=1.0))


# "tight", a 2x2 grid of radius-2 dots at spacing 8: layers 0 and 1 output
# the whole image and share its table, and layer 2 outputs part of it
@pytest.mark.parametrize("n, spacing, radius", [(4, 32, 3), (8, 10, 3), (2, 12, 3), (2, 8, 2)],
                         ids=["sparse", "image", "edge", "tight"])
def test_a_cone_seedcut_step_is_the_whole_image_step(monkeypatch, n, spacing, radius):
    scene = generate_scene(n, n, dot_radius=radius, spacing=spacing, img_noise_std=0.05, seed=3)
    boxes = gt_boxes_from_labels(scene.gt)
    cfg = TrainConfig(dims=8, epochs=1, seed=2)
    grads, nodes, backward = [], [], Tensor.backward
    monkeypatch.setattr("semiconv.synth.sgd_step",
                        lambda params, lr: grads.append([p.grad.copy() for p in params]))
    monkeypatch.setattr(Tensor, "backward",
                        lambda loss: nodes.append(Counter(n._op for n in T._topo_order(loss)))
                        or backward(loss))
    _, _, losses = train_seedcut(scene, boxes, cfg,
                                 params=KernelParams("steered_laplacian", sigma=1.0))
    # the same step over the whole image
    model = learnable(Backbone.glorot(1, cfg.dims, cfg.seed))
    params = KernelParams("steered_laplacian", sigma=1.0)
    field = dense_field(model, scene.image, boxes, "semiconv")
    loss = T.add(pull_to_mean_loss(field, SegmentSet.from_labels(scene.gt)),
                 box_loss(scene.gt, boxes, params)(field))
    loss.backward()
    want = [p.grad for p in model.params() + params.learnables()]
    assert losses[0] == loss.item()
    assert nodes[0] == nodes[1]  # the cone step's tape, then the whole image's
    # a column gather each for the pull-to-mean loss and the box loss; the row
    # gathers are the loss's segment means and fuse_boxes' seed rows
    assert (nodes[0]["take_columns"], nodes[0]["index_select"]) == (2, 2)
    scale = max(np.max(np.abs(g)) for g in want)
    for got, ref in zip(grads[0], want, strict=True):
        assert np.max(np.abs(got - ref)) <= 1e-12 * scale


def test_train_seedcut_box_outside_its_cone_is_one_line_error(monkeypatch):
    # box 0 reaches past the instances' boxes, which the cone is built for:
    # 2 px to the right, or 3 px on every side
    scene = generate_scene(2, 2, dot_radius=3, spacing=16, seed=0)
    boxes = gt_boxes_from_labels(scene.gt)
    x0, y0, x1, y1 = boxes[0]
    steps = []
    monkeypatch.setattr("semiconv.synth.sgd_step", lambda params, lr: steps.append(lr))
    cfg = TrainConfig(dims=4, epochs=2, seed=0)
    for bad in [(x0, y0, x1 + 2, y1), (x0 - 3, y0 - 3, x1 + 3, y1 + 3)]:
        with pytest.raises(ValueError) as err:
            train_seedcut(scene, [bad] + boxes[1:], cfg,
                          KernelParams("steered_laplacian", sigma=1.0))
        assert str(err.value) == (f"box {bad} reaches outside the ground-truth boxes "
                                  "the training cone covers")
    assert steps == []
    # the ground-truth boxes themselves train
    _, _, losses = train_seedcut(scene, boxes, cfg, KernelParams("steered_laplacian", sigma=1.0))
    assert len(losses) == 2 and len(steps) == 2
