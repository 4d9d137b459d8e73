"""Embedding fields over a pixel grid, and the coordinate-mixing step.

A convolutional feature map knows nothing about where a pixel sits, so two
identical image patches produce identical features. Adding each pixel's own
(x, y) to the first two feature channels breaks that tie: the result is a
"semi-convolutional" field whose values can differ across repeated structures
while staying cheap to compute. Everything downstream (the pull-to-mean loss,
the affinity kernels, the decoders) consumes these fields.
"""

import numpy as np

from . import tensor as T
from .tensor import Tensor


def coord_grid(h, w):
    """Pixel coordinates as a [2,H,W] array: channel 0 is x, channel 1 is y.

    Units are raw pixels with the origin at the top-left pixel center, so
    grid[0, y, x] == x and grid[1, y, x] == y exactly.
    """
    if h < 1 or w < 1:
        raise ValueError("grid extents must be positive")
    return np.indices((h, w), dtype=np.float64)[::-1]


class EmbeddingField:
    """Per-pixel D-dimensional embeddings, a [D,H,W] tensor.

    A semiconvolutional field (attach_coords) carries pixel position in its
    first two channels; a convolutional one is the feature map as it is.
    ``at`` is None when the field covers the image itself. A field over a
    mosaic of the image's windows (window_mosaic) holds the image's [H, W]
    map to its rows instead: row at[y, x] of field_rows(field) is pixel
    (x, y)'s embedding, and at is -1 where no window's interior holds the
    pixel. rows_at reads a field either way.
    """

    def __init__(self, values, at=None):
        if values.data.ndim != 3:
            raise ValueError("field values must be [D,H,W]")
        self.values = values
        self.at = at

    def __repr__(self):
        return f"EmbeddingField(shape={self.values.data.shape})"


def attach_coords(phi, grid):
    """Mix pixel location into a feature map: out[c] = phi[c] + (x, y, 0, ...).

    ``grid`` holds the [2,H,W] (x, y) of the map's pixels: coord_grid(H, W)
    for a whole image, or that grid gathered at the same positions as the
    pixels that produced ``phi``. Channel 0 gains the pixel's x, channel 1
    its y, all others pass through. Differentiable with an identity
    Jacobian, so gradients reach phi unchanged.
    """
    if phi.data.ndim != 3:
        raise ValueError("expected a [D,H,W] feature map")
    d, h, w = phi.data.shape
    if d < 2:
        raise ValueError("need at least 2 channels to carry coordinates")
    mix = np.zeros((d, h, w))
    mix[:2] = grid
    return EmbeddingField(T.add(phi, Tensor(mix)))


def displacement_field(field):
    """Per-pixel offset vectors: geometric embedding minus the pixel's own position.

    When training succeeds, all pixels of one instance share an embedding
    value, so these vectors point from each pixel toward a common
    instance-specific location. Only a semiconvolutional field has a
    geometric embedding; the arrow renderer is its one reader.
    """
    h, w = field.values.data.shape[1:]
    geo = T.index_select(field.values, [0, 1])
    return T.sub(geo, Tensor(coord_grid(h, w)))


def field_rows(field):
    """The field as [H*W, D] rows, row-major pixel order: what the loss, the
    kernels and k-means compare."""
    d = field.values.data.shape[0]
    return T.transpose2d(T.reshape(field.values, (d, -1)))


def rows_at(field, pixels):
    """The [N, D] field rows of the image pixels ``pixels`` (linear, row-major
    indices), in their order: field_rows(field) indexed at the pixels, or at
    their mosaic rows (field.at). A pixel outside every window's interior
    raises ValueError.
    """
    pixels = np.asarray(pixels, dtype=np.intp)
    rows = pixels
    if field.at is not None:
        rows = field.at.reshape(-1)[pixels]
        if rows.size and rows.min() < 0:
            y, x = divmod(int(pixels[np.argmin(rows)]), field.at.shape[1])
            raise ValueError(f"image pixel ({x}, {y}) lies outside every window's interior")
    return T.index_select(field_rows(field), rows)


def window_mosaic(image, boxes, r):
    """The boxes' receptive windows of a [C,H,W] image laid side by side:
    (mosaic image, its coordinate grid, at).

    Window k is box k, (x0, y0, x1, y1), grown by the receptive radius r,
    wrapping around the image edges as the circular convolutions do; the
    windows sit side by side (below a window shorter than the tallest, its
    columns run on down the image). The image and coord_grid(H, W) are
    gathered at the same mosaic positions, so a mosaic pixel carries its
    image pixel's (x, y). A box pixel's receptive field lies inside its
    window, so a backbone of receptive radius r gives it the same value there
    as over the whole image, bit for bit; only the r-pixel margins differ.
    ``at`` is the image's [H, W] map to the mosaic pixels that hold box
    interiors (an EmbeddingField's ``at``), -1 elsewhere; a pixel of two
    boxes maps to its first place in the mosaic. When the mosaic would be no
    smaller than the image, or there is no box, the image itself is the one
    window, with no margin: (image, coord_grid(H, W), None).
    """
    _, h, w = image.shape
    boxes = np.asarray(boxes, dtype=np.intp).reshape(-1, 4)
    x0, y0, x1, y1 = (boxes + [-r, -r, r, r]).T  # window k holds box k
    if not 0 < (y1 - y0).max(initial=0) * (x1 - x0).sum() < h * w:
        return image, coord_grid(h, w), None
    widths = x1 - x0
    starts = np.cumsum(widths) - widths
    height, width = int((y1 - y0).max()), int(widths.sum())
    win = np.repeat(np.arange(widths.size), widths)  # each mosaic column's window
    ys, xs = np.arange(height)[:, None], np.arange(width) - starts[win]  # within the window
    source = ((y0[win] + ys) % h) * w + (x0[win] + xs) % w  # each mosaic pixel's image pixel
    inner = (ys >= r) & (ys < (y1 - y0)[win] - r) & (xs >= r) & (xs < widths[win] - r)
    held, first = np.unique(source[inner], return_index=True)
    at = np.full(h * w, -1, dtype=np.intp)
    at[held] = np.flatnonzero(inner)[first]

    def gather(a):
        return np.take(a.reshape(a.shape[0], -1), source, axis=1)

    return gather(image), gather(coord_grid(h, w)), at.reshape(h, w)
