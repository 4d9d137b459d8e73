import ctypes
import io
import json
import os
import time
import tracemalloc
from collections import Counter
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from semiconv import backbone, synth
from semiconv import tensor as T
from semiconv.backbone import Backbone, Cone, _geometry
from semiconv.tensor import Tensor, NumericError
from semiconv.embedding import EmbeddingField, field_rows, rows_at
from semiconv.kernels import FAMILIES, KernelParams
from semiconv.losses import SegmentSet, pull_to_mean_loss
from semiconv.seedcut import cut_all_boxes, train_seedcut
from semiconv.synth import (InstanceLabeling, Scene, TrainConfig, build_field,
                            controlled_pair, decode_kmeans, generate_scene,
                            cone_field, gt_boxes_from_labels, load_scene, region_pixel_indices,
                            scene_from_json, scene_to_json, score, train)
from whole_image import assert_close, image_forward, learnable, roll_rows, whole_field

DISC3_PIXELS = 29  # lattice points with dx^2 + dy^2 <= 9, counted by hand


def rows_field(rows, shape=None):
    """The whole-image field whose row-major rows are ``rows``, over an image
    of [H, W] ``shape``, by default one row of pixels."""
    arr = np.asarray(rows, dtype=float)
    return EmbeddingField(Tensor(arr.T.reshape(arr.shape[1], *(shape or (1, arr.shape[0])))))


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


def test_every_model_the_package_makes_is_inference_only(tmp_path):
    # glorot, load, train and train_seedcut: no tensor requires a gradient
    # or holds one, so a forward over any of them records no tape. train
    # steps a learnable twin whose in-place updates land in the model's own
    # arrays
    scene = small_scene()
    cfg = quick_cfg(epochs=2)
    fresh = Backbone.glorot(1, cfg.dims, cfg.seed)
    fresh.save(tmp_path / "m.bin")
    trained, _ = train(scene, cfg)
    cut, _, _ = train_seedcut(scene, gt_boxes_from_labels(scene.gt), cfg,
                              KernelParams("steered_laplacian", sigma=1.0))
    for model in (fresh, Backbone.load(tmp_path / "m.bin"), trained, cut):
        assert len(model.params()) == 6
        assert not any(p.requires_grad or p.grad is not None for p in model.params())
        assert not image_forward(model, scene.image).requires_grad
    for model in (trained, cut):
        assert not any(np.array_equal(a.data, b.data) for a, b in zip(model.weights, fresh.weights))


@pytest.mark.parametrize("family", FAMILIES)
def test_every_kernel_scale_the_package_makes_is_inference_only(family):
    # fresh and trained, the log-sigma neither requires nor holds a gradient.
    # train_seedcut steps a learnable twin over the caller's own array: the
    # steered Laplacian's scale moves in place, and the Gaussian kernel never
    # reads sigma, so its twin gets no gradient and its scale keeps its bits
    scene = small_scene()
    params = KernelParams(family, sigma=1.0)
    start = params.log_sigma.data
    before = start.copy()
    assert not params.log_sigma.requires_grad and params.log_sigma.grad is None
    _, trained, _ = train_seedcut(scene, gt_boxes_from_labels(scene.gt), quick_cfg(epochs=2),
                                  params)
    assert trained is params and trained.log_sigma.data is start
    assert not trained.log_sigma.requires_grad and trained.log_sigma.grad is None
    assert (start.tobytes() == before.tobytes()) == (family == "gaussian")


def test_semiconv_training_reduces_loss():
    scene = small_scene()
    model, losses = train(scene, quick_cfg(mode="semiconv", epochs=150))
    assert losses[-1] < 0.1 * losses[0]


def test_conv_embeddings_collide_after_training():
    scene = small_scene()
    cfg = quick_cfg(mode="conv", epochs=30)
    model, _ = train(scene, cfg)
    phi = image_forward(model, scene.image).data
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


def test_keep_freed_memory_turns_off_heap_trimming_and_mmap(fake_mallopt):
    synth._keep_freed_memory()
    # glibc's M_MMAP_MAX (-4) to 0, then M_TRIM_THRESHOLD (-1) to 1 GB
    assert fake_mallopt == [(-4, 0), (-1, 2**30)]
    mallopt = ctypes.CDLL(None).mallopt
    assert mallopt.argtypes == (ctypes.c_int, ctypes.c_int) and mallopt.restype is ctypes.c_int


def test_keep_freed_memory_leaves_a_libc_without_mallopt_alone(monkeypatch):
    libc = SimpleNamespace()
    monkeypatch.setattr(ctypes, "CDLL", lambda name: libc)
    synth._keep_freed_memory()
    assert vars(libc) == {}

    def no_libc(name):
        raise OSError("no C library to load")

    monkeypatch.setattr(ctypes, "CDLL", no_libc)
    synth._keep_freed_memory()


def fake_maps(monkeypatch, *paths):
    """Have synth's open read a /proc/self/maps that maps ``paths``, and a C
    library besides."""
    maps = "".join(f"7f0000000000-7f0000001000 r-xp 00000000 00:00 0 {path}\n"
                   for path in ("/lib/libc.so.6",) + paths)
    monkeypatch.setattr(synth, "open", lambda name: io.StringIO(maps), raising=False)


def test_openblas_without_a_readable_maps_file_is_none(monkeypatch):
    def no_maps(name):
        raise FileNotFoundError(name)

    monkeypatch.setattr(synth, "open", no_maps, raising=False)
    assert synth._openblas() is None


def test_openblas_skips_a_library_that_fails_to_load(monkeypatch):
    fake_maps(monkeypatch, "/lib/b/libscipy_openblas64_.so", "/lib/a/libopenblas.so")
    lib = SimpleNamespace(scipy_openblas_get_num_threads64_=SimpleNamespace(),
                          scipy_openblas_set_num_threads64_=SimpleNamespace())
    loaded = []

    def cdll(path):
        loaded.append(path)
        if path == "/lib/a/libopenblas.so":
            raise OSError("cannot load")
        return lib

    monkeypatch.setattr(ctypes, "CDLL", cdll)
    get, put = synth._openblas()
    assert loaded == ["/lib/a/libopenblas.so", "/lib/b/libscipy_openblas64_.so"]
    assert get is lib.scipy_openblas_get_num_threads64_
    assert put is lib.scipy_openblas_set_num_threads64_
    assert (get.argtypes, get.restype) == ((), ctypes.c_int)
    assert (put.argtypes, put.restype) == ((ctypes.c_int,), None)


def test_openblas_without_a_get_and_set_pair_is_none(monkeypatch):
    # a getter with no setter, and a setter of another name
    fake_maps(monkeypatch, "/lib/libopenblas.so")
    lib = SimpleNamespace(openblas_get_num_threads=SimpleNamespace(),
                          scipy_openblas_set_num_threads=SimpleNamespace())
    monkeypatch.setattr(ctypes, "CDLL", lambda path: lib)
    assert synth._openblas() is None


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

    # only an extra parameter's gradient is non-finite: it is named too
    p = Tensor(1.0, requires_grad=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(NumericError) as err:
            train(scene, quick_cfg(epochs=3), extra_loss=lambda field: T.sqrt(T.sub(p, 1.0)),
                  extra_params=[("log_sigma", p)])
    assert str(err.value) == ("training diverged at step 0: "
                              "non-finite gradient of parameter 'log_sigma'")


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

# "sparse", a 4x4 grid at spacing 32: the cone is a fraction of the image;
# "image", an 8x8 grid at spacing 10: layer 0 runs on the whole image;
# "edge", a 2x2 grid at spacing 12: the cones reach around the image edges
CONE_SCENES = {"sparse": (4, 32), "image": (8, 10), "edge": (2, 12)}


def cone_scene(name):
    n, spacing = CONE_SCENES[name]
    return generate_scene(n, n, dot_radius=3, spacing=spacing, img_noise_std=0.05, seed=3)


def reader_pixels(scene):
    """The pixels the readers of a field read: the segments (the loss), the
    boxes (the seed-cut) and the foreground (k-means)."""
    return {"segments": SegmentSet.from_labels(scene.gt).pixels,
            "boxes": region_pixel_indices(gt_boxes_from_labels(scene.gt), scene.shape)[0],
            "foreground": np.flatnonzero(scene.gt.foreground_mask())}


@pytest.mark.parametrize("mode", ["conv", "semiconv"])
@pytest.mark.parametrize("name", sorted(CONE_SCENES))
def test_cone_rows_are_the_whole_field_rows(mode, name):
    scene = cone_scene(name)
    model = Backbone.glorot(1, 8, 4)
    for p in model.biases:
        p.data += np.random.default_rng(1).standard_normal(p.data.shape)
    h, w = scene.shape
    whole = rows_at(build_field(model, scene.image, mode), np.arange(h * w)).data
    assert_close(whole, roll_rows(model, scene.image, mode))
    for pixels in reader_pixels(scene).values():
        field = cone_field(model, scene.image, pixels, mode)
        assert np.array_equal(np.flatnonzero(field.at.reshape(-1) >= 0), np.unique(pixels))
        if name == "sparse":
            assert field.values.data[0].size <= 0.25 * h * w
        got, want = rows_at(field, pixels).data, whole[pixels]
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


MIXED = [(8, 1, 1, 1), (16, 8, 5, 5), (8, 16, 3, 3)]  # the weight shapes of mixed kernels

BAND_CASES = [  # (image shape, TAP_BAND, widths of the tap bands of layers 0 and 1,
    #              weight shapes, or None for Backbone.glorot's 3x3 stack)
    # a 2**11-float tap buffer: 32 channels of 29 pixels fill it twice, so
    # build_field runs bands of 2 rows, 19 of them (the last overlaps the
    # one before). Layer 0 gathers each band's 6 rows, 174 pixels padded to
    # 176, at once, and layer 1 its 4 rows in bands of 8 pixels, the fewest
    ((37, 29), 2**11, ([176] + [8] * 15) * 19, None),
    # one and two rows, where the taps of a pixel repeat pixels, as on the
    # dilemma's [1, 1, N] input: one band, the cone over every pixel
    ((1, 16), 2**11, [16, 8, 8], None),
    ((2, 16), 2**11, [32] + [8] * 4, None),
    # the default buffer: one band, the cone over every pixel. Layer 0 takes
    # one tap band, and layer 1 bands of 1816 of its 3744 columns, the 3737
    # pixels padded
    ((37, 101), T.TAP_BAND, [3744, 1816, 1816, 112], None),
    # bands of 35 rows, two of them, whose cones wrap round both edges:
    # layers 0 and 1 output the whole image and share its table, and
    # layer 2 the band
    ((37, 29), 2**15, ([1080] + [224] * 4 + [184]) * 2, None),
    # bands of 18 rows, 8 of them: layer 0 takes 22 rows in one tap band of
    # 160 columns, and layer 1 20 rows in bands of 24
    ((130, 7), 2**12, ([160] + [24] * 6) * 8, None),
    # 1x1, 5x5 and 3x3 kernels: 16 channels of 12 pixels make bands of 5
    # rows, 8 of them. Layer 0 takes the 5 + 2 * (2 + 1) = 11 rows of a
    # band's cone, 132 pixels padded to 136, and layer 1 its 7 rows in
    # bands of 8. Layer 1's product sums 8*5*5 = 200 terms, within the 384
    # that keep a cone's bits (README)
    ((40, 12), 2**10, ([136] + [8] * 11) * 8, MIXED),
]


def band_case_id(mode, shape, tap_band, kernels):
    h, w = shape
    if kernels is MIXED:
        return f"mixed-kernels-{mode}"
    if (h, w) == (37, 29):
        return mode if tap_band == 2**11 else f"37x29-rows35-{mode}"
    return f"{h}x{w}-{mode}"


@pytest.mark.parametrize("mode,shape,tap_band,bands,kernels", [
    pytest.param(mode, *case, id=band_case_id(mode, case[0], case[1], case[3]))
    for case in BAND_CASES for mode in ("conv", "semiconv")])
def test_a_whole_image_forward_in_bands_is_the_cone_over_every_pixel(monkeypatch, mode, shape,
                                                                     tap_band, bands, kernels):
    # build_field runs bands of rows, each layer gathering its taps in bands
    # of output pixels (its weights take no gradient); a forward over the
    # cone of every pixel whose weights do, the model's learnable twin,
    # keeps each layer's taps, gathered at once for the backward. Both give
    # the same bits, and the np.roll reference's to rounding
    rng = np.random.default_rng(6)
    image = Tensor(rng.standard_normal((1, *shape)))
    if kernels is None:
        model = Backbone.glorot(1, 8, 2)
    else:
        model = Backbone([Tensor(rng.uniform(-0.3, 0.3, s)) for s in kernels],
                         [Tensor(np.zeros(s[0])) for s in kernels])
    for p in model.biases:
        p.data += rng.standard_normal(p.data.shape)
    everywhere = np.arange(image.data.size)
    want = field_rows(whole_field(learnable(model), image, mode)).data
    got_bands, taps = [], T._taps
    monkeypatch.setattr(T, "TAP_BAND", tap_band)
    monkeypatch.setattr(T, "_taps", lambda src, index, out: got_bands.append(index.shape[1])
                        or taps(src, index, out))
    got = rows_at(build_field(model, image, mode), everywhere).data
    assert got_bands == bands
    assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))
    assert_close(got, roll_rows(model, image, mode))


def test_build_field_holds_one_band_of_taps_and_no_tape():
    # 128x128 on a model whose weights require gradients: layer 1's
    # whole-image taps alone would take 18.9 MB, and a tape would hold every
    # layer's taps and activations until the field is dropped. build_field
    # runs two bands of 64 rows, the most whose 32-channel layer output fits
    # in TAP_BAND's 2 MB, and layer 1 gathers its taps a band of output
    # pixels at a time into a 2 MB buffer. So the peak, about 6.4 MB, is
    # layer 1 of a band: its 1.1 MB input (68 rows of 16 channels), the
    # buffer, its 2.2 MB output (66 rows of 32 channels) and the 1 MB field
    # the bands fill. Over the cone of every pixel it was 9.4 MB, in layer
    # 2's fold. The warm-up builds the bands' geometry
    scene = generate_scene(4, 4, dot_radius=3, spacing=32)
    model = Backbone.glorot(1, 8, 0)
    build_field(model, scene.image, "semiconv")  # warm-up: first-call allocations
    tracemalloc.start()
    try:
        field = build_field(model, scene.image, "semiconv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert field.values.data.shape == (8, 128, 128)
    assert peak < 6.75 * 2**20


def test_a_training_step_keeps_no_pre_relu_copy_and_folds_a_kernel_row_at_a_time():
    # the 8x8 grid at spacing 10, once the cone's geometry is built: each
    # hidden layer keeps one activation, ReLU applied, and layer 2's forward
    # fold and layer 1's input-gradient scatter one kernel row's product. A
    # separate ReLU and the whole kernel's products put the peak at 11.8 MB
    scene = generate_scene(8, 8, spacing=10)
    train(scene, TrainConfig(epochs=1))  # warm-up: builds and keeps the geometry
    tracemalloc.start()
    try:
        train(scene, TrainConfig(epochs=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 11 * 2**20


def test_rows_at_outside_the_cone_is_an_error():
    for name in ("sparse", "edge"):
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
        # a cone that misses one instance pixel: the loss names it, where
        # segments over the cone's own list would drop it from its instance
        fg = reader_pixels(scene)["foreground"]
        y, x = divmod(int(fg[0]), scene.shape[1])
        short = cone_field(Backbone.glorot(1, 4, 0), scene.image, fg[1:], "semiconv")
        with pytest.raises(ValueError,
                           match=rf"^image pixel \({x}, {y}\) lies outside the field's cone$"):
            pull_to_mean_loss(short, SegmentSet.from_labels(scene.gt))


@pytest.mark.parametrize("pixel", [-1, 16 * 16], ids=["minus-one", "h-times-w"])
def test_a_pixel_outside_the_image_is_an_error(pixel):
    # numpy indexing would wrap -1 round to the last pixel, making its cone
    # and reading its row of a cone's field, and fail on 256 with an IndexError
    image = Tensor(np.random.default_rng(7).standard_normal((1, 16, 16)))
    model = Backbone.glorot(1, 4, 0)
    outside = rf"^pixel index {pixel} lies outside the 16x16 image$"
    with pytest.raises(ValueError, match=outside):
        cone_field(model, image, [0, pixel], "semiconv")
    for field in (build_field(model, image, "semiconv"),
                  cone_field(model, image, [0, 255], "semiconv")):
        with pytest.raises(ValueError, match=outside):
            rows_at(field, [0, pixel])


def geometry_arrays(cone):
    """Every array of a cone's geometry: each layer's neighbour table, with
    the padded index it is a view of, the grid and the map to the rows."""
    return [a for table in cone.tables for a in (table.table, table.gather)] + [cone.grid, cone.at]


def test_cones_over_one_pixel_set_share_one_geometry():
    # the box pixels, then the same set reversed with every pixel twice, on
    # two images of one shape
    scenes = [cone_scene("sparse"), generate_scene(4, 4, dot_radius=3, spacing=32,
                                                   img_noise_std=0.05, seed=4)]
    pixels = reader_pixels(scenes[0])["boxes"]
    model = Backbone.glorot(1, 8, 4)
    cones = [Cone(model, scenes[0].image, pixels),
             Cone(model, scenes[1].image, np.concatenate([pixels[::-1], pixels]))]
    for a, b in zip(geometry_arrays(cones[0]), geometry_arrays(cones[1]), strict=True):
        assert a is b
    assert not np.array_equal(cones[0].input.data, cones[1].input.data)
    for scene, cone in zip(scenes, cones):
        want = rows_at(build_field(model, scene.image, "conv"), np.unique(pixels)).data
        assert np.array_equal(field_rows(EmbeddingField(model.forward(cone), cone.at)).data,
                              want)


def test_the_whole_image_cone_holds_one_table():
    # training's cone over every pixel: every layer gathers and scatters
    # through the one table
    scene = cone_scene("edge")
    h, w = scene.shape
    cone = Cone(learnable(Backbone.glorot(1, 8, 0)), scene.image, np.arange(h * w))
    table = cone.tables[0]
    assert all(t is table for t in cone.tables)
    assert table.table.shape == (9, h * w) and cone.input.data.shape == (1, h * w)


@pytest.mark.parametrize("spacing,radius", [(8, 2), (12, 3)], ids=["8", "12"])
def test_a_cone_that_fills_the_image_part_way_is_the_roll_conv(spacing, radius):
    # the cone of a 2x2 grid's instances and boxes, as a seed-cut trains it.
    # At spacing 8 layers 0 and 1 output the whole image and share its
    # table; at 12 layer 0 does and layer 1 reads the whole image. The last
    # layer outputs part of it either way
    scene = generate_scene(2, 2, dot_radius=radius, spacing=spacing, img_noise_std=0.05, seed=3)
    h, w = scene.shape
    model = Backbone.glorot(1, 8, 4)
    for p in model.biases:
        p.data += np.random.default_rng(1).standard_normal(p.data.shape)
    pixels = region_pixel_indices(gt_boxes_from_labels(scene.gt), scene.shape)[0]
    cone = Cone(model, scene.image, pixels)
    outputs = [t.table.shape[1] for t in cone.tables]
    assert outputs[0] == cone.tables[1].n_src == h * w > outputs[2]
    assert (cone.tables[0] is cone.tables[1]) == (outputs[1] == h * w) == (spacing == 8)
    for mode in ("conv", "semiconv"):
        got = rows_at(cone_field(model, scene.image, pixels, mode), pixels).data
        assert_close(got, roll_rows(model, scene.image, mode)[pixels])
        assert np.array_equal(got, rows_at(build_field(model, scene.image, mode), pixels).data)


def test_training_and_whole_image_fields_keep_both_geometries(monkeypatch):
    # the cache keeps two geometries, so a training cone and build_field's
    # band cone, used by turns on one scene, are each built once. On the
    # 24x24 scene the one band is the whole image; the 128x128 one runs two
    # bands of 64 rows over one cone, and no cone over every pixel is built
    built = []

    def recorded(shape, weights, pixels):
        built.append(len(pixels) // np.dtype(np.intp).itemsize)
        return _geometry(shape, weights, pixels)

    monkeypatch.setattr(backbone, "_geometry", recorded)
    for scene, band in ((cone_scene("edge"), 24 * 24),
                        (generate_scene(4, 4, spacing=32), 64 * 128)):
        _geometry.cache_clear()
        built.clear()
        for _ in range(3):
            model, _ = train(scene, TrainConfig(dims=4, epochs=1, seed=0))
            build_field(model, scene.image, "semiconv")
        assert _geometry.cache_info().misses == 2
        h, w = scene.shape
        # each round: the training cone, then one cone per band
        assert built == ([built[0]] + [band] * (h * w // band)) * 3
        assert (h * w in built) == (band == h * w)


def test_a_new_shape_kernel_or_pixel_set_builds_a_new_geometry():
    scene = cone_scene("edge")
    pixels = reader_pixels(scene)["segments"]
    model = Backbone.glorot(1, 4, 0)
    rng = np.random.default_rng(5)
    wide = Backbone([Tensor(rng.standard_normal((16, 1, 5, 5)))] + model.weights[1:],
                    model.biases)
    taller = Tensor(rng.standard_normal((1, scene.shape[0] + 1, scene.shape[1])))
    base = Cone(model, scene.image, pixels)
    for m, image, listed in ((model, taller, pixels), (wide, scene.image, pixels),
                             (model, scene.image, pixels[1:])):
        misses = _geometry.cache_info().misses
        cone = Cone(m, image, listed)
        assert _geometry.cache_info().misses == misses + 1
        assert not any(a is b for a, b in zip(geometry_arrays(base), geometry_arrays(cone)))
        assert np.array_equal(np.flatnonzero(cone.at.reshape(-1) >= 0), np.unique(listed))
        want = rows_at(build_field(m, image, "conv"), np.unique(listed)).data
        assert np.array_equal(field_rows(EmbeddingField(m.forward(cone), cone.at)).data, want)


def test_a_cached_geometry_is_read_only():
    scene = cone_scene("edge")
    cone = Cone(Backbone.glorot(1, 4, 0), scene.image, reader_pixels(scene)["boxes"])
    for arr in geometry_arrays(cone):
        with pytest.raises(ValueError, match="read-only"):
            arr[...] = 0


def test_a_cone_keeps_an_int32_geometry(monkeypatch):
    # the cone train reads on the 8x8 grid at spacing 10 holds 0.47 MB, and
    # the cone of build_field's 128x128 band 1.06 MB
    scene = generate_scene(8, 8, dot_radius=3, spacing=10)
    model = learnable(Backbone.glorot(1, TrainConfig().dims, 0))
    pixels = np.flatnonzero(scene.gt.labels)
    cone = Cone(model, scene.image, pixels)
    source, tables, grid, at = _geometry(
        scene.shape, tuple(w.data.shape for w in model.weights), pixels.tobytes())
    assert tables is cone.tables
    for arr in [source, at] + [a for t in tables for a in (t.table, t.gather)]:
        assert arr.dtype == np.int32
    held = sum(t.gather.nbytes for t in tables) + source.nbytes + grid.nbytes + at.nbytes
    assert held <= 0.5 * 2**20

    scene = generate_scene(4, 4, dot_radius=3, spacing=32)
    cones = []
    monkeypatch.setattr(synth, "Cone", lambda *args: cones.append(Cone(*args)) or cones[-1])
    build_field(Backbone.glorot(1, TrainConfig().dims, 0), scene.image, "semiconv")
    band = cones[0]
    made = {id(t): t for t in band.tables}
    held = sum(t.gather.nbytes for t in made.values()) + band.grid.nbytes + band.at.nbytes
    assert held <= 1.1 * 2**20


def test_a_training_forward_runs_on_an_inference_models_cone():
    # one geometry per pixel set, whether its model trains or not: the
    # learnable twin backpropagates over the cone its inference model built,
    # with the whole image's gradients at the cone's pixels
    scene = cone_scene("edge")
    model = Backbone.glorot(1, 4, 0)
    pixels = np.unique(reader_pixels(scene)["segments"])
    cone = Cone(model, scene.image, pixels)
    over_cone, over_image = learnable(model), learnable(model)
    assert Cone(over_cone, scene.image, pixels).tables is cone.tables
    r = np.random.default_rng(8).standard_normal((4, pixels.size))
    T.tsum(T.mul(over_cone.forward(cone), r)).backward()
    phi = T.reshape(image_forward(over_image, scene.image), (4, -1))
    T.tsum(T.mul(T.take_columns(phi, pixels), r.T)).backward()
    for got, want in zip(over_cone.params(), over_image.params(), strict=True):
        assert_close(got.grad, want.grad)


def first_step(monkeypatch, run):
    """The losses and the parameter gradients of one training step, and the
    count of each op on the tape of every backward() from then on, that
    step's first."""
    grads, nodes, backward = [], [], Tensor.backward
    monkeypatch.setattr(synth, "sgd_step",
                        lambda params, lr: grads.append([p.grad.copy() for p in params]))
    monkeypatch.setattr(Tensor, "backward",
                        lambda loss: nodes.append(Counter(n._op for n in T._topo_order(loss)))
                        or backward(loss))
    losses = run()
    return losses, grads[0], nodes


def assert_same_step(got_loss, got_grads, want_loss, want_grads):
    assert got_loss == want_loss
    scale = max(np.max(np.abs(g)) for g in want_grads)
    for got, want in zip(got_grads, want_grads, strict=True):
        assert np.max(np.abs(got - want)) <= 1e-12 * scale


@pytest.mark.parametrize("mode", ["conv", "semiconv"])
@pytest.mark.parametrize("name", sorted(CONE_SCENES))
def test_a_cone_training_step_is_the_whole_image_step(monkeypatch, mode, name):
    scene = cone_scene(name)
    cfg = TrainConfig(mode=mode, dims=8, epochs=1, seed=2)
    losses, grads, nodes = first_step(monkeypatch, lambda: train(scene, cfg)[1])
    model = learnable(Backbone.glorot(1, cfg.dims, cfg.seed))
    field = whole_field(model, scene.image, mode)
    loss = pull_to_mean_loss(field, SegmentSet.from_labels(scene.gt))
    # the loss reads its rows from the field's columns in one gather, and
    # reads that gather's rows as they are
    tape = T._topo_order(loss)
    gathers = [n for n in tape if n._op == "take_columns"]
    assert [g._parents for g in gathers] == [(field.values,)]
    assert not any(n._op == "index_select" and n._parents[0] is gathers[0] for n in tape)
    loss.backward()
    assert_same_step(losses[0], grads, loss.item(), [p.grad for p in model.params()])
    # the cone changes which pixels each layer computes, not the graph of a step
    assert nodes[0] == nodes[1]
    assert (nodes[0]["take_columns"], nodes[0]["index_select"]) == (1, 1)


def test_train_config_validation():
    for bad in (dict(mode="hybrid"), dict(lr=0.0), dict(epochs=-1),
                dict(lr_decay=-0.1), dict(dims=0),
                dict(lr=np.nan), dict(lr=np.inf), dict(lr_decay=np.nan)):
        with pytest.raises(ValueError):
            cfg = quick_cfg()
            for k, v in bad.items():
                setattr(cfg, k, v)
            cfg.validate()


def test_a_mode_outside_modes_is_one_line_error():
    # every reader of a mode knows the same two, and reads no other as conv
    scene = generate_scene(2, 2, dot_radius=2, spacing=8, seed=0)
    model = Backbone.glorot(1, 4, 0)
    pixels = np.flatnonzero(scene.gt.labels)
    params = KernelParams("steered_laplacian", sigma=1.0)
    for mode in ("semi", "Conv", ""):
        for read in (lambda: build_field(model, scene.image, mode),
                     lambda: cone_field(model, scene.image, pixels, mode),
                     lambda: cut_all_boxes(scene, model, params, cfg_mode=mode)):
            with pytest.raises(ValueError) as err:
                read()
            assert str(err.value) == f"unknown mode '{mode}'"
    assert synth.MODES == ("semiconv", "conv")


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
    out = decode_kmeans(rows_field(rows, fg.shape), fg, K=1, seed=0)
    assert np.all(out.labels == 1)


def test_kmeans_respects_background():
    rows = np.random.default_rng(2).standard_normal((12, 2))
    fg = np.zeros(12, dtype=bool)
    fg[3:9] = True
    out = decode_kmeans(rows_field(rows, (3, 4)), fg.reshape(3, 4), K=2, seed=0)
    assert np.all(out.labels.reshape(-1)[~fg] == 0)
    assert np.all(out.labels.reshape(-1)[fg] > 0)


def test_kmeans_deterministic():
    rows = np.random.default_rng(3).standard_normal((50, 4))
    fg = np.ones(50, dtype=bool).reshape(5, 10)
    a = decode_kmeans(rows_field(rows, fg.shape), fg, K=5, seed=9)
    b = decode_kmeans(rows_field(rows, fg.shape), fg, K=5, seed=9)
    assert np.array_equal(a.labels, b.labels)


def test_kmeans_validation():
    rows = np.zeros((4, 2))
    fg = np.ones(4, dtype=bool).reshape(2, 2)
    with pytest.raises(ValueError):
        decode_kmeans(rows_field(rows, fg.shape), fg, K=0)
    with pytest.raises(ValueError):
        decode_kmeans(rows_field(rows, fg.shape), fg, K=5)
    with pytest.raises(ValueError):
        decode_kmeans(rows_field(rows, fg.shape), np.zeros((2, 2), dtype=bool), K=1)


def test_kmeans_refuses_a_mask_of_another_shape():
    # unchecked, a 64x64 mask on a 128x128 image decodes the wrong pixels of
    # the whole-image field into 64x64 labels, and fails on a pixel off the
    # cone of the image's foreground
    scene = generate_scene(4, 4, dot_radius=3, spacing=32)
    small = generate_scene(4, 4, dot_radius=3, spacing=16).gt.foreground_mask()
    model = Backbone.glorot(1, 4, 0)
    foreground = np.flatnonzero(scene.gt.foreground_mask())
    for field in (build_field(model, scene.image, "semiconv"),
                  cone_field(model, scene.image, foreground, "semiconv")):
        with pytest.raises(ValueError, match=r"^a foreground mask of shape \(64, 64\) does not "
                                             r"match the field's image of shape \(128, 128\)$"):
            decode_kmeans(field, small, K=16)


def test_kmeans_identical_points():
    # degenerate: every point equal; seeding must not divide by zero
    rows = np.ones((10, 2))
    fg = np.ones(10, dtype=bool).reshape(2, 5)
    out = decode_kmeans(rows_field(rows, fg.shape), fg, K=3, seed=0)
    assert out.labels.shape == (2, 5)


def loop_decode_kmeans(field, fg_mask, K, seed=0, max_iter=300, tol=1e-6, trials=None):
    """Reference: greedy k-means++ one trial at a time, then the k-means
    update as one loop over clusters. trials=1 is plain k-means++."""
    mask = np.asarray(fg_mask, dtype=bool)
    idx = np.flatnonzero(mask.reshape(-1))
    pts = field_rows(field).data[idx]
    n = idx.size
    if trials is None:
        trials = 2 + int(np.log(K))
    rng = np.random.default_rng(seed)
    centers = np.empty((K, pts.shape[1]))
    first = rng.integers(n)
    centers[0] = pts[first]
    q = np.ascontiguousarray((pts - pts[first]).T)  # channel-major, as the decode sums
    sq = np.sum(q ** 2, axis=0)
    closest = sq
    for k in range(1, K):
        cdf = np.cumsum(closest)
        if cdf[-1] <= 0:
            centers[k:] = pts[rng.integers(n, size=K - k)]
            break
        best_pot = np.inf
        for u in rng.random(trials):
            c = min(int(np.searchsorted(cdf, u * cdf[-1], side="right")), n - 1)
            d = np.minimum(np.maximum((-2.0 * q[:, c]) @ q + sq + sq[c], 0.0), closest)
            if d.sum() < best_pot:
                best_pot, best_c, best_d = d.sum(), c, d
        centers[k] = pts[best_c]
        closest = best_d
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
    fg = np.ones(10, dtype=bool).reshape(2, 5)
    field = rows_field(rows, fg.shape)
    for seed in range(5):
        out = decode_kmeans(field, fg, K=4, seed=seed)
        assert np.array_equal(out.labels, loop_decode_kmeans(field, fg, 4, seed=seed))


def test_kmeans_reseeds_an_emptied_cluster_on_the_farthest_point():
    # seed 734's greedy seeding picks -0.9, 2.8 and -2.0. The first
    # assignment, {-0.9, 0.9}, {1.0, 1.0, 2.8} and {-2.0, -1.5}, has means 0,
    # 1.6 and -1.75; then -0.9 lies nearer -1.75 and 0.9 nearer 1.6 than
    # either lies to 0, so the first cluster empties. It is reseeded on 2.8,
    # the point farthest from its centroid, and the decode ends with three
    # clusters; without the reseed its center would sit at 0 with no point,
    # and 2.8 would stay with 0.9 and 1.0
    xs = np.array([[-2.0], [-1.5], [-0.9], [0.9], [1.0], [1.0], [2.8]])
    fg = np.ones((1, 7), dtype=bool)
    out = decode_kmeans(rows_field(xs), fg, K=3, seed=734)
    assert out.labels.tolist() == [[3, 3, 3, 2, 2, 2, 1]]
    assert np.array_equal(out.labels, loop_decode_kmeans(rows_field(xs), fg, 3, seed=734))


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


def test_seeding_draw_is_one_random_call_per_step():
    # decode_kmeans draws a step's trials with one rng.random(trials) scaled by
    # the cumulative sum of the distances: each candidate is the first index
    # whose cumulative sum exceeds its draw, clipped to n - 1, and the generator
    # advances as Generator.choice(n, size=trials, p=...) advances it
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 300))
        trials = int(rng.integers(1, 8))
        d2 = rng.random(n) ** 3 * 10.0 ** rng.uniform(-5, 5)
        d2[rng.random(n) < rng.random()] = 0.0
        d2[rng.integers(n)] = 1.0
        a, b = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
        c = np.random.default_rng(seed + 1)
        for _ in range(3):
            cdf = np.cumsum(d2)
            got = np.minimum(cdf.searchsorted(a.random(trials) * cdf[-1], side="right"), n - 1)
            want = []
            for u in b.random(trials):
                i = 0
                while i < n - 1 and cdf[i] <= u * cdf[-1]:
                    i += 1
                want.append(i)
            assert got.tolist() == want
            assert all(d2[i] > 0 or i == n - 1 for i in want)
            c.choice(n, size=trials, p=d2 / d2.sum())
            assert a.bit_generator.state == b.bit_generator.state == c.bit_generator.state


def test_kmeans_seeding_tie_goes_to_the_first_candidate():
    # -1, 0 and 1, with the first center on 0 at both seeds: the candidates
    # -1 and 1 leave the same potential, so the second center is the one
    # drawn first
    field = rows_field([[-1.0], [0.0], [1.0]])
    fg = np.ones((1, 3), dtype=bool)
    assert decode_kmeans(field, fg, K=2, seed=1).labels.tolist() == [[1, 1, 2]]  # 1, then -1
    assert decode_kmeans(field, fg, K=2, seed=9).labels.tolist() == [[2, 1, 1]]  # -1, then 1


@pytest.fixture(scope="module")
def grid16_small_field():
    """A 4x4 grid at spacing 12, trained 60 epochs, and its semiconv field."""
    scene = generate_scene(4, 4, dot_radius=3, spacing=12)
    model, _ = train(scene, quick_cfg())
    return scene, build_field(model, scene.image, "semiconv")


def test_greedy_seeding_separates_what_one_start_merges(grid16_small_field):
    # from one k-means++ start, Lloyd stops in a local minimum that merges an
    # instance into another at seed 1, and two instances at seed 34. Greedy
    # seeding keeps, at each step, the best of 2 + int(ln K) draws and
    # separates every instance
    scene, field = grid16_small_field
    fg = scene.gt.foreground_mask()
    for seed, merged in ((1, 1), (34, 2)):
        one = InstanceLabeling(loop_decode_kmeans(field, fg, scene.gt.K, seed=seed, trials=1))
        assert score(one, scene.gt)["purity"] == 1.0 - merged / scene.gt.K
    for seed in range(40):
        pred = decode_kmeans(field, fg, scene.gt.K, seed=seed)
        assert score(pred, scene.gt) == {"mean_iou": 1.0, "purity": 1.0}


def test_kmeans_assignment_from_the_seeded_centers_is_the_exact_argmin(
        grid16_small_field, monkeypatch):
    # one round, so both assign from the centers the seeding picked: the
    # decode's one-product distances, after their near-tie recheck, give the
    # labels of the exact (p - c)² argmin, also under a 1e8 offset, whose
    # squared norms dwarf the distances between embeddings
    monkeypatch.setattr(synth, "KMEANS_MAX_ITER", 1)
    scene, field = grid16_small_field
    fg = scene.gt.foreground_mask().reshape(1, -1)
    for rows in (field_rows(field).data, field_rows(field).data + 1e8):
        for k in (4, 16, 40):
            for seed in range(5):
                ref = loop_decode_kmeans(rows_field(rows), fg, k, seed=seed, max_iter=1)
                pred = decode_kmeans(rows_field(rows), fg, k, seed=seed)
                assert np.array_equal(pred.labels, renumbered(ref))


def test_kmeans_under_a_large_common_offset(grid16_small_field):
    # 1e8 added to every embedding: the seeding measures its expanded-form
    # distances from the first center, so the offset cancels, and the Lloyd
    # loop settles near ties in exact form; the decode stays deterministic,
    # raises nothing and gives the labels of the field without the offset
    scene, field = grid16_small_field
    fg = scene.gt.foreground_mask()
    shifted = rows_field(field_rows(field).data + 1e8, fg.shape)
    for seed in range(10):
        pred = decode_kmeans(shifted, fg, scene.gt.K, seed=seed)
        assert np.array_equal(pred.labels, decode_kmeans(shifted, fg, scene.gt.K, seed=seed).labels)
        assert np.array_equal(np.unique(pred.labels), np.arange(pred.K + 1))
        assert np.array_equal(pred.labels.reshape(-1),
                              decode_kmeans(field, fg, scene.gt.K, seed=seed).labels.reshape(-1))


def first_seen(labels):
    """Ids renumbered in order of first appearance: the partition, not its numbering."""
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    return np.argsort(np.argsort(first))[inverse]


@pytest.mark.parametrize("d", [1, 2, 3, 7, 8, 9, 16, 17])
def test_kmeans_matches_loop_across_dims(d):
    rng = np.random.default_rng(d)
    fg = np.ones((9, 10), dtype=bool)
    spread = rows_field(rng.standard_normal((90, d)) * 10.0 ** rng.uniform(-1, 1, size=d), fg.shape)
    for k in (1, 4, 9):
        for seed in range(4):
            ref = loop_decode_kmeans(spread, fg, k, seed=seed)
            assert np.array_equal(decode_kmeans(spread, fg, k, seed=seed).labels, ref)
    # five embeddings repeated 18 times: K=8 leaves three clusters empty. The
    # reference reseeds them round after round and so numbers the five groups
    # differently; the groups themselves must agree
    repeated = rows_field(np.repeat(rng.standard_normal((5, d)), 18, axis=0), fg.shape)
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
    fg = np.ones((4, 10), dtype=bool)
    field = rows_field(rows, fg.shape)
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



@pytest.mark.parametrize("rows, spacing, iou, loss",
                         [(4, 32, 1.0, 32.47), (8, 10, 0.966, 129.90)],
                         ids=["grid16", "grid64"])
def test_a_zero_weight_semiconv_model_clusters_the_grid_by_position_alone(rows, spacing,
                                                                          iou, loss):
    # a model that learnt nothing embeds each pixel at its own (x, y); on the
    # dot grids k-means of those points alone finds (nearly) every dot, so the
    # semiconv IoU shows no learning. The untrained pull-to-mean loss does: a
    # trained model's on the 4x4 grid is about 0.6
    scene = generate_scene(rows, rows, dot_radius=3, spacing=spacing)
    shaped = Backbone.glorot(1, 8, 0)
    zero = Backbone([Tensor(np.zeros_like(w.data)) for w in shaped.weights],
                    [Tensor(np.zeros_like(b.data)) for b in shaped.biases])
    fg = scene.gt.foreground_mask()
    field = cone_field(zero, scene.image, np.flatnonzero(fg), "semiconv")
    assert round(score(decode_kmeans(field, fg, scene.gt.K, seed=0), scene.gt)["mean_iou"],
                 3) == iou
    assert round(pull_to_mean_loss(field, SegmentSet.from_labels(scene.gt)).item(), 2) == loss


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
