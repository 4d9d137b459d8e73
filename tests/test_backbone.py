import struct

import numpy as np
import pytest

from semiconv import tensor as T
from semiconv.tensor import Tensor
from semiconv.backbone import HIDDEN, KERNEL, Backbone
from whole_image import image_forward


def small_model(chans=(1, 4, 6, 3), seed=0):
    """A narrow stack of 3x3 layers with random weights and biases."""
    rng = np.random.default_rng(seed)
    pairs = list(zip(chans[:-1], chans[1:]))
    return Backbone([Tensor(rng.uniform(-0.5, 0.5, (o, i, 3, 3)), requires_grad=True)
                     for i, o in pairs],
                    [Tensor(rng.uniform(-0.1, 0.1, o), requires_grad=True) for _, o in pairs])


def test_output_shape_and_dims():
    model = Backbone.glorot(1, 3, 0)
    out = image_forward(model, Tensor(np.zeros((1, 10, 12))))
    assert out.data.shape == (3, 10, 12)


def test_field_on_tiled_image_is_exactly_tiled():
    # identical translated content gets identical embeddings, bit for bit:
    # the convolutional half of the paper's dilemma
    tile = np.random.default_rng(2).random((1, 8, 8))
    out = image_forward(Backbone.glorot(1, 8, 0), Tensor(np.tile(tile, (1, 4, 4)))).data
    assert np.array_equal(out, np.tile(out[:, :8, :8], (1, 4, 4)))


def test_constant_input_constant_output():
    model = small_model()
    out = image_forward(model, Tensor(np.full((1, 8, 8), 0.37))).data
    for c in range(out.shape[0]):
        assert np.max(np.abs(out[c] - out[c, 0, 0])) < 1e-12


def test_circular_shift_equivariance():
    model = Backbone.glorot(1, 3, 3)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((1, 9, 11))
    base = image_forward(model, Tensor(x)).data
    for dy, dx in [(2, 0), (0, 4), (3, 7)]:
        shifted = image_forward(model, Tensor(np.roll(x, (dy, dx), axis=(1, 2)))).data
        assert np.max(np.abs(shifted - np.roll(base, (dy, dx), axis=(1, 2)))) < 1e-9


def test_seeded_init_is_reproducible():
    x = np.random.default_rng(1).standard_normal((1, 6, 6))
    a = image_forward(Backbone.glorot(1, 3, 7), Tensor(x)).data
    b = image_forward(Backbone.glorot(1, 3, 7), Tensor(x)).data
    assert np.array_equal(a, b)
    c = image_forward(Backbone.glorot(1, 3, 8), Tensor(x)).data
    assert not np.array_equal(a, c)


def test_biases_start_at_zero():
    model = Backbone.glorot(1, 3, 0)
    for b in model.biases:
        assert np.all(b.data == 0.0)


def test_init_scale():
    model = Backbone.glorot(2, 3, 11)
    chans = (2, *HIDDEN, 3)
    k = KERNEL
    assert [w.data.shape for w in model.weights] == [
        (c_out, c_in, k, k) for c_in, c_out in zip(chans[:-1], chans[1:])]
    for w, c_in, c_out in zip(model.weights, chans[:-1], chans[1:]):
        a = np.sqrt(6.0 / (c_in * k * k + c_out * k * k))
        assert np.max(np.abs(w.data)) <= a
        assert np.max(np.abs(w.data)) > 0.5 * a  # actually fills the range


def test_channel_mismatch_rejected():
    model = small_model()
    with pytest.raises(ValueError):
        image_forward(model, Tensor(np.zeros((3, 8, 8))))


def test_weight_gradients_pass_grad_check():
    model = small_model(chans=(1, 3, 2), seed=5)
    x = np.random.default_rng(2).standard_normal((1, 5, 5))

    for layer in range(len(model.weights)):
        def f(w):
            saved = model.weights[layer]
            model.weights[layer] = w
            out = T.tsum(T.mul(image_forward(model, Tensor(x)), image_forward(model, Tensor(x))))
            model.weights[layer] = saved
            return out

        assert T.grad_check(f, Tensor(model.weights[layer].data.copy())) < 1e-4


def test_serialization_round_trip(tmp_path):
    model = Backbone.glorot(1, 3, 4)
    p1 = tmp_path / "m.bin"
    p2 = tmp_path / "m2.bin"
    model.save(p1)
    loaded = Backbone.load(p1)
    assert len(loaded.weights) == len(model.weights)
    for a, b in zip(model.weights, loaded.weights):
        assert a.data.shape == b.data.shape
        assert np.max(np.abs(a.data - b.data)) < 1e-6  # f32 payload
    loaded.save(p2)
    assert p1.read_bytes() == p2.read_bytes()  # quantization is idempotent


def test_loaded_model_is_inference_only(tmp_path):
    model = Backbone.glorot(1, 4, 5)
    path = tmp_path / "m.bin"
    model.save(path)
    loaded = Backbone.load(path)
    x = Tensor(np.random.default_rng(6).random((1, 12, 10)))
    out = image_forward(loaded, x)
    assert out._backward is None and out._parents == ()
    assert not any(p.requires_grad for p in loaded.params())
    rounded = Backbone(*[[Tensor(t.data.astype(np.float32).astype(np.float64), requires_grad=True)
                          for t in ts] for ts in (model.weights, model.biases)])
    assert np.array_equal(out.data, image_forward(rounded, x).data)


def test_load_rejects_every_truncation(tmp_path):
    good = tmp_path / "good.bin"
    small_model().save(good)
    blob = good.read_bytes()
    cut = tmp_path / "cut.bin"
    for n in range(len(blob)):
        cut.write_bytes(blob[:n])
        with pytest.raises(ValueError):
            Backbone.load(cut)
    # a header claiming 2^31 layers, and one claiming none
    for n_layers in (2 ** 31, 0):
        cut.write_bytes(blob[:8] + struct.pack("<I", n_layers) + blob[12:])
        with pytest.raises(ValueError):
            Backbone.load(cut)


def save_unchecked(path, shapes):
    """Save zero weights of the given (c_out, c_in, kh, kw) shapes, unchecked."""
    weights = [Tensor(np.zeros(s)) for s in shapes]
    biases = [Tensor(np.zeros(s[0])) for s in shapes]
    Backbone(weights, biases).save(path)


def test_load_rejects_layers_that_do_not_chain(tmp_path):
    p = tmp_path / "m.bin"
    save_unchecked(p, [(5, 1, 3, 3), (4, 5, 3, 3)])
    assert [w.data.shape for w in Backbone.load(p).weights] == [(5, 1, 3, 3), (4, 5, 3, 3)]
    save_unchecked(p, [(5, 1, 3, 3), (4, 6, 3, 3)])
    with pytest.raises(ValueError, match="layer 1 expects 6 input channels"):
        Backbone.load(p)
    save_unchecked(p, [(5, 1, 3, 5), (4, 5, 3, 3)])
    with pytest.raises(ValueError, match="layer 0 has a 3x5 kernel, not an odd square"):
        Backbone.load(p)


@pytest.mark.parametrize("shapes,match", [
    ([(5, 1, 3, 3), (4, 5, 4, 4)], "layer 1 has a 4x4 kernel"),
    ([(5, 1, 3, 3), (0, 5, 3, 3)], "layer 1 has 5 input and 0 output channels"),
    ([(5, 0, 3, 3)], "layer 0 has 0 input and 5 output channels"),
], ids=["even-kernel", "no-outputs", "no-inputs"])
def test_load_rejects_even_kernels_and_empty_layers(tmp_path, shapes, match):
    # the file is the only other source of a model, so it gets the checks
    # that Backbone.glorot's constants make unnecessary
    p = tmp_path / "m.bin"
    save_unchecked(p, shapes)
    with pytest.raises(ValueError, match=match):
        Backbone.load(p)


def test_load_rejects_garbage(tmp_path):
    p = tmp_path / "bad.bin"
    p.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ValueError):
        Backbone.load(p)
    model = small_model()
    good = tmp_path / "good.bin"
    model.save(good)
    p.write_bytes(good.read_bytes() + b"\x00")
    with pytest.raises(ValueError):
        Backbone.load(p)
