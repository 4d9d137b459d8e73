import time

import numpy as np
import pytest

from semiconv.embedding import EmbeddingField, attach_coords, coord_grid, displacement_field
from semiconv.tensor import Tensor
from semiconv import render
from semiconv.synth import InstanceLabeling


def read_ppm(path):
    """Binary PPM reader: the oracle write_ppm is checked against."""
    blob = path.read_bytes()
    parts = blob.split(b"\n", 3)
    assert parts[0] == b"P6" and len(parts) == 4 and parts[2] == b"255"
    w, h = (int(v) for v in parts[1].split())
    assert len(parts[3]) == h * w * 3
    return np.frombuffer(parts[3], dtype=np.uint8).reshape(h, w, 3)


def test_ppm_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    img = rng.integers(0, 256, size=(7, 9, 3), dtype=np.uint8)
    path = tmp_path / "x.ppm"
    render.write_ppm(path, img)
    back = read_ppm(path)
    assert np.array_equal(back, img)


def test_ppm_rejects_wrong_shape(tmp_path):
    with pytest.raises(ValueError):
        render.write_ppm(tmp_path / "bad.ppm", np.zeros((4, 4), dtype=np.uint8))


def stride_grid(h, w, stride):
    """The linear indices of every stride-th pixel of every stride-th row."""
    return np.arange(h * w).reshape(h, w)[::stride, ::stride].ravel()


@pytest.mark.parametrize("shape", [(3, 4), (2,), (2, 4, 4), (2, 5)],
                         ids=["three-channels", "one-d", "an-image", "wrong-count"])
def test_arrows_reject_a_displacement_that_is_not_two_by_n(shape):
    with pytest.raises(ValueError) as err:
        render.render_arrows(Tensor(np.zeros((1, 4, 4))), [0, 2, 8, 10], Tensor(np.zeros(shape)))
    assert str(err.value) == "expected a [2,4] displacement, one column per pixel"


def test_arrows_refuse_a_pixel_outside_the_image():
    with pytest.raises(ValueError, match=r"^pixel index 16 lies outside the 4x4 image$"):
        render.render_arrows(Tensor(np.zeros((1, 4, 4))), [0, 16], Tensor(np.zeros((2, 2))))


def test_labels_background_black_and_palette_fixed():
    labels = np.array([[0, 1], [2, 33]])
    rgb = render.render_labels(labels)
    assert np.array_equal(rgb[0, 0], [0, 0, 0])
    assert np.array_equal(rgb[0, 1], render.PALETTE[0])
    assert np.array_equal(rgb[1, 0], render.PALETTE[1])
    # ids wrap around the palette rather than clipping
    assert np.array_equal(rgb[1, 1], render.PALETTE[0])


def test_labels_accepts_labeling_object():
    gt = InstanceLabeling(np.array([[0, 1], [1, 2]]))
    assert render.render_labels(gt).shape == (2, 2, 3)


def test_arrows_render_shape_and_determinism():
    rng = np.random.default_rng(0)
    img = Tensor(rng.random((1, 12, 12)))
    field = EmbeddingField(attach_coords(Tensor(rng.standard_normal((4, 12, 12))),
                                         coord_grid(12, 12)))
    pixels = stride_grid(12, 12, 3)
    disp = displacement_field(field, pixels)
    a = render.render_arrows(img, pixels, disp)
    b = render.render_arrows(img, pixels, disp)
    assert a.shape == (12, 12, 3) and a.dtype == np.uint8
    assert np.array_equal(a, b)


def test_arrow_endpoint_marked():
    disp = np.zeros((2, 1))
    disp[0, 0] = 4.0  # dx only; arrow should reach (0, 4)
    rgb = render.render_arrows(Tensor(np.zeros((1, 9, 9))), [0], Tensor(disp))
    assert np.array_equal(rgb[0, 4], render.ARROW_COLOR)
    assert np.array_equal(rgb[0, 0], render.ARROW_COLOR)
    assert not rgb[1:].any() and not rgb[0, 5:].any()  # a black image stays black



def draw_line_unbounded(rgb, y0, x0, y1, x1, color):
    """Reference: walk every step of the line, inside the image or not."""
    h, w = rgb.shape[:2]
    y0, x0, y1, x1 = int(round(y0)), int(round(x0)), int(round(y1)), int(round(x1))
    steps = max(abs(y1 - y0), abs(x1 - x0), 1)
    for t in range(steps + 1):
        y = y0 + (y1 - y0) * t // steps
        x = x0 + (x1 - x0) * t // steps
        if 0 <= y < h and 0 <= x < w:
            rgb[y, x] = color
    return rgb


def draw_line_bounded(rgb, y0, x0, y1, x1, color):
    """Reference: the walk stopped after max(H, W) steps, in Python integers."""
    h, w = rgb.shape[:2]
    y0, x0, y1, x1 = int(round(y0)), int(round(x0)), int(round(y1)), int(round(x1))
    steps = max(abs(y1 - y0), abs(x1 - x0), 1)
    for t in range(min(steps, max(h, w)) + 1):
        y = y0 + (y1 - y0) * t // steps
        x = x0 + (x1 - x0) * t // steps
        if 0 <= y < h and 0 <= x < w:
            rgb[y, x] = color
    return rgb


def loop_render_arrows(image, disp, stride, draw):
    """Reference: one line walk per sampled pixel of a [2,H,W] displacement
    image, in scan order."""
    rgb = render.grayscale_base(image)
    h, w = disp.shape[1:]
    col = np.array(render.ARROW_COLOR, dtype=np.uint8)
    for y in range(0, h, stride):
        for x in range(0, w, stride):
            draw(rgb, y, x, y + disp[1, y, x], x + disp[0, y, x], col)
    return rgb


def grid_arrows(image, disp, stride):
    """render_arrows from the stride grid of a [2,H,W] displacement image."""
    h, w = disp.shape[1:]
    pixels = stride_grid(h, w, stride)
    return render.render_arrows(image, pixels, Tensor(disp.reshape(2, -1)[:, pixels]))


@pytest.mark.parametrize("sigma", [2.0, 10.0, 40.0, 300.0])
def test_draw_line_matches_unbounded_walk(sigma):
    rng = np.random.default_rng(int(sigma))
    h, w = 13, 21
    image = Tensor(rng.random((1, h, w)))
    for stride in (1, 2, 5):
        disp = rng.normal(0.0, sigma, (2, h, w))
        got = grid_arrows(image, disp, stride)
        assert np.array_equal(got, loop_render_arrows(image, disp, stride, draw_line_unbounded))
        assert np.array_equal(got, loop_render_arrows(image, disp, stride, draw_line_bounded))


@pytest.mark.parametrize("scale", [0.5, 1e6, 1.3e17, 1e300])
def test_arrows_match_the_per_arrow_loop(scale):
    # beyond about 3e16 at this size, (end - start) * t leaves int64
    rng = np.random.default_rng(5)
    image = Tensor(rng.random((1, 40, 56)))
    for stride in (1, 4):
        disp = rng.standard_normal((2, 40, 56)) * scale
        got = grid_arrows(image, disp, stride)
        assert np.array_equal(got, loop_render_arrows(image, disp, stride, draw_line_bounded))


def test_arrows_of_a_diverged_field_render_quickly():
    # embeddings of 1.3e17 come out of a diverged run; the walk stops at the border
    disp = np.full((2, 128, 128), 1.3e17)
    started = time.perf_counter()
    rgb = grid_arrows(Tensor(np.zeros((1, 128, 128))), disp, 4)
    assert time.perf_counter() - started < 1.0
    assert np.array_equal(rgb[0, 0], render.ARROW_COLOR)
    want = loop_render_arrows(Tensor(np.zeros((1, 128, 128))), disp, 4, draw_line_bounded)
    assert np.array_equal(rgb, want)
