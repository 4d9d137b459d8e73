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


def image_pixels(pixels, shape):
    """``pixels``, linear row-major indices into an image of [H, W] ``shape``,
    as an intp array. An index outside the image raises ValueError, where
    numpy would wrap a negative one round to the image's end."""
    pixels = np.asarray(pixels, dtype=np.intp)
    outside = (pixels < 0) | (pixels >= shape[0] * shape[1])
    if outside.any():
        raise ValueError(f"pixel index {pixels[outside][0]} lies outside the "
                         f"{shape[0]}x{shape[1]} image")
    return pixels


class EmbeddingField:
    """Per-pixel D-dimensional embeddings, a [D,H,W] tensor.

    A semiconvolutional field (attach_coords) carries pixel position in its
    first two channels; a convolutional one is the feature map as it is.
    ``at`` maps the image's [H, W] pixels to the field's rows: row at[y, x]
    of field_rows(field) is pixel (x, y)'s embedding. A field given no map
    covers the image itself, and its map is the identity of its values'
    [H, W]. A field over a pixel list of the image, computed on its
    receptive cone (backbone.Cone), has [D, 1, P] values, and its map is -1
    off the list. rows_at reads every field through its map.
    """

    def __init__(self, values, at=None):
        if values.data.ndim != 3:
            raise ValueError("field values must be [D,H,W]")
        h, w = values.data.shape[1:]
        self.values = values
        self.at = np.arange(h * w, dtype=np.int32).reshape(h, w) if at is None else at

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
    geometric embedding; the arrow renderer is its one reader. A field whose
    values do not cover its map, a cone's, raises ValueError.
    """
    h, w = field.at.shape
    if field.values.data.shape[1:] != (h, w):
        raise ValueError(f"a displacement field needs the whole {h}x{w} image, but the "
                         f"field covers {field.values.data[0].size} of its pixels")
    geo = T.index_select(field.values, [0, 1])
    return T.sub(geo, Tensor(coord_grid(h, w)))


def field_rows(field):
    """The field as [H*W, D] rows, row-major pixel order: what the loss, the
    kernels and k-means compare."""
    d = field.values.data.shape[0]
    return T.transpose2d(T.reshape(field.values, (d, -1)))


def rows_at(field, pixels):
    """The [N, D] field rows of the image pixels ``pixels`` (linear, row-major
    indices), in their order: field_rows(field) indexed at the pixels' rows
    under the field's map (field.at). A pixel outside the image
    (image_pixels) or off a cone's list raises ValueError.
    """
    pixels = image_pixels(pixels, field.at.shape)
    rows = field.at.reshape(-1)[pixels]
    if rows.size and rows.min() < 0:
        y, x = divmod(int(pixels[np.argmin(rows)]), field.at.shape[1])
        raise ValueError(f"image pixel ({x}, {y}) lies outside the field's cone")
    return T.index_select(field_rows(field), rows)
