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
    pixel list of the image, computed on its receptive cone (backbone.Cone),
    has [D, 1, P] values and holds the image's [H, W] map to its rows
    instead: row at[y, x] of field_rows(field) is pixel (x, y)'s embedding,
    and at is -1 off the list. rows_at reads a field either way.
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
    their rows of a cone's list (field.at). A pixel off that list raises
    ValueError.
    """
    pixels = np.asarray(pixels, dtype=np.intp)
    rows = pixels
    if field.at is not None:
        rows = field.at.reshape(-1)[pixels]
        if rows.size and rows.min() < 0:
            y, x = divmod(int(pixels[np.argmin(rows)]), field.at.shape[1])
            raise ValueError(f"image pixel ({x}, {y}) lies outside the field's cone")
    return T.index_select(field_rows(field), rows)
