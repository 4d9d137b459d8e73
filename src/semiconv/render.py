"""PPM rendering: cluster maps and displacement arrows.

Binary PPM (P6) keeps outputs dependency-free and byte-stable, so runs can
be diffed directly.
"""

import numpy as np

from .embedding import image_pixels

# 32 visually distinct colors; instance id k > 0 uses entry (k-1) mod 32
PALETTE = np.array([
    (230, 25, 75), (60, 180, 75), (255, 225, 25), (0, 130, 200),
    (245, 130, 48), (145, 30, 180), (70, 240, 240), (240, 50, 230),
    (210, 245, 60), (250, 190, 212), (0, 128, 128), (220, 190, 255),
    (170, 110, 40), (255, 250, 200), (128, 0, 0), (170, 255, 195),
    (128, 128, 0), (255, 215, 180), (0, 0, 128), (128, 128, 128),
    (255, 255, 255), (255, 105, 97), (119, 221, 119), (174, 198, 207),
    (255, 179, 71), (203, 153, 201), (100, 149, 237), (189, 183, 107),
    (143, 188, 143), (216, 191, 216), (188, 143, 143), (46, 139, 87),
], dtype=np.uint8)
ARROW_COLOR = (255, 60, 60)


def write_ppm(path, rgb):
    """Write an [H,W,3] uint8 array as binary PPM."""
    arr = np.asarray(rgb)
    if arr.ndim != 3 or arr.shape[2] != 3 or arr.dtype != np.uint8:
        raise ValueError("expected an [H,W,3] uint8 array")
    h, w = arr.shape[:2]
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(arr.tobytes())


def render_labels(labels):
    """Instance labeling to a color image: background black, fixed palette."""
    arr = np.asarray(getattr(labels, "labels", labels))
    rgb = np.zeros((*arr.shape, 3), dtype=np.uint8)
    fg = arr > 0
    rgb[fg] = PALETTE[(arr[fg] - 1) % len(PALETTE)]
    return rgb


def grayscale_base(image):
    """A [1,H,W] image tensor as a dim gray arrow backdrop: [0, 1] maps to 0..139."""
    # 1 + 1e-12 puts 1.0 just below the top step, so a dot pixel maps to 139
    scaled = np.clip(image.data[0] / (1.0 + 1e-12), 0.0, 1.0)
    gray = (scaled * 140).astype(np.uint8)
    return np.repeat(gray[:, :, None], 3, axis=2)


def render_arrows(image, pixels, displacement):
    """Overlay arrows on a [1,H,W] image tensor: one from each of the image
    pixels ``pixels`` (linear, row-major indices) along its column of the
    [2,N] displacement tensor (embedding.displacement_field).

    Each arrow runs from pixel u to u + d(u), its end rounded half to even;
    pixels where the displacement ends mark the location the embedding voted
    for. Arrows are rasterised together: step t of an arrow whose longer
    side spans n pixels lands on u + (end - u) * t // n, for t = 0..n, and
    the steps inside the image are painted. The longer side moves one pixel
    a step, so no step past max(H, W) lands inside. The step arithmetic is
    exact: int64 while it cannot overflow, Python integers for arrows that
    reach further (a diverged field).
    """
    h, w = image.data.shape[1:]
    start = np.stack(np.divmod(image_pixels(pixels, (h, w)), w))  # (y, x) of each arrow
    if displacement.data.shape != start.shape:
        raise ValueError(f"expected a [2,{start.shape[1]}] displacement, one column per pixel")
    rgb = grayscale_base(image)
    span = max(h, w)
    end = np.rint(start + displacement.data[::-1])
    end = (end.astype(np.int64) if (np.abs(end).max() + span) * span < 2**62
           else np.frompyfunc(int, 1, 1)(end))
    delta = end - start
    steps = np.maximum(np.abs(delta).max(axis=0), 1)
    per = max(1, 2**20 // (span + 1))  # arrows per batch: about a million steps at most
    for i in range(0, steps.size, per):
        n = steps[i:i + per]
        t = np.arange(min(n.max(), span) + 1)[:, None]
        y, x = start[:, None, i:i + per] + delta[:, None, i:i + per] * t // n
        inside = (t <= n) & (0 <= y) & (y < h) & (0 <= x) & (x < w)
        rgb[y[inside].astype(np.intp), x[inside].astype(np.intp)] = ARROW_COLOR
    return rgb
