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
    """Per-pixel D-dimensional embeddings over a pixel list of an image.

    ``values`` is a [D, ...] tensor whose flattened columns are the listed
    pixels, in list order, and ``at`` maps the image's [H, W] pixels to
    those columns, -1 off the list: column at[y, x] is pixel (x, y)'s
    embedding. A field over a pixel list, computed on its receptive cone
    (backbone.Cone), has [D, P] values. A field given no map covers the
    image: its values are a [D, H, W] image, and its map the identity.
    Values whose column count is not the map's count of listed pixels are
    a one-line error. rows_at reads every field through its map. A
    semiconvolutional field (attach_coords) carries pixel position in its
    first two channels; a convolutional one is the feature map as it is.
    """

    def __init__(self, values, at=None):
        if at is None and values.data.ndim == 3:  # an image: its map is the identity
            at = np.arange(values.data[0].size, dtype=np.int32).reshape(values.data.shape[1:])
        if at is None or values.data.ndim < 2 or values.data[0].size != np.count_nonzero(at >= 0):
            raise ValueError(f"field values of shape {values.data.shape} do not hold one "
                             "column per pixel of an image map")
        self.values = values
        self.at = at

    def __repr__(self):
        return f"EmbeddingField(shape={self.values.data.shape})"


def attach_coords(phi, grid):
    """Mix pixel location into features: out[c] = phi[c] + (x, y, 0, ...).

    ``phi`` holds [D, ...] features and ``grid`` the [2, ...] (x, y) of
    their pixels: coord_grid(H, W) for a [D, H, W] image, or a cone's grid
    (backbone.Cone) for its [D, P] features. Channel 0 gains the pixel's x,
    channel 1 its y, all others pass through. Returns the mixed Tensor,
    differentiable with an identity Jacobian, so gradients reach phi
    unchanged.
    """
    if phi.data.ndim < 2 or phi.data.shape[0] < 2:
        raise ValueError("need at least 2 channels to carry coordinates")
    mix = np.zeros(phi.data.shape)
    mix[:2] = grid
    return T.add(phi, Tensor(mix))


def displacement_field(field, pixels):
    """The offset vectors of the image pixels ``pixels`` (linear, row-major
    indices): each pixel's geometric embedding minus its own (x, y), as a
    [2, N] Tensor in the pixels' order.

    When training succeeds, all pixels of one instance share an embedding
    value, so these vectors point from each pixel toward a common
    instance-specific location. Only a semiconvolutional field has a
    geometric embedding; the arrow renderer is its one reader. The rows are
    read through the field's map (rows_at), so a cone's field and a
    whole-image field give the same vectors at the pixels both hold, and a
    pixel off a cone's list is rows_at's one-line error.
    """
    rows = rows_at(field, pixels)
    y, x = np.divmod(np.asarray(pixels, dtype=np.intp), field.at.shape[1])
    # take_columns of the [N, D] rows picks their x and y columns as [2, N]
    return T.sub(T.take_columns(rows, [0, 1]), Tensor(np.stack([x, y]).astype(np.float64)))


def field_rows(field):
    """The field as [P, D] rows, one per listed pixel in list order (over a
    whole image, row-major pixel order), in one tape node. The package reads
    fields through rows_at; tests compare fields by these rows, and
    perfbench's span table times this function by name."""
    return T.take_columns(field.values, np.arange(field.values.data[0].size))


def rows_at(field, pixels):
    """The [N, D] field rows of the image pixels ``pixels`` (linear, row-major
    indices), in their order: the field's columns at the pixels' positions
    under its map (field.at), gathered in one tape node. A pixel outside the
    image (image_pixels) or off a cone's list raises ValueError.
    """
    pixels = image_pixels(pixels, field.at.shape)
    rows = field.at.reshape(-1)[pixels]
    if rows.size and rows.min() < 0:
        y, x = divmod(int(pixels[np.argmin(rows)]), field.at.shape[1])
        raise ValueError(f"image pixel ({x}, {y}) lies outside the field's cone")
    return T.take_columns(field.values, rows)
