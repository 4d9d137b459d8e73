"""Embedding fields over a pixel grid, and the coordinate-mixing step.

A convolutional feature map knows nothing about where a pixel sits, so two
identical image patches produce identical features. Adding each pixel's own
(x, y) to the first two feature channels breaks that tie: the result is a
"semi-convolutional" field whose values can differ across repeated structures
while staying cheap to compute. Everything downstream (the pull-to-mean loss,
the affinity kernels, the decoders) consumes these fields.
"""

from functools import lru_cache

import numpy as np

from . import tensor as T
from .tensor import Tensor


@lru_cache(maxsize=16)
def _grid(h, w):
    g = np.zeros((2, h, w))
    g[0] = np.arange(w)[None, :]
    g[1] = np.arange(h)[:, None]
    g.setflags(write=False)
    return g


def coord_grid(h, w):
    """Pixel coordinates as a [2,H,W] array: channel 0 is x, channel 1 is y.

    Units are raw pixels with the origin at the top-left pixel center, so
    grid[0, y, x] == x and grid[1, y, x] == y exactly.
    """
    if h < 1 or w < 1:
        raise ValueError("grid extents must be positive")
    return _grid(int(h), int(w))


class EmbeddingField:
    """Per-pixel D-dimensional embeddings and how they were made.

    ``kind`` records whether pixel coordinates were mixed in. A
    semiconvolutional field carries position in its first two (geometric)
    channels; a convolutional field carries none.
    """

    def __init__(self, values, kind):
        if kind not in ("convolutional", "semiconvolutional"):
            raise ValueError(f"unknown field kind '{kind}'")
        if values.data.ndim != 3:
            raise ValueError("field values must be [D,H,W]")
        if kind == "semiconvolutional" and values.data.shape[0] < 2:
            raise ValueError("semiconvolutional fields need D >= 2")
        self.values = values
        self.kind = kind

    def __repr__(self):
        return f"EmbeddingField(kind={self.kind}, shape={self.values.data.shape})"


def conv_field(phi):
    """Wrap a feature map as a purely convolutional field (no coordinates)."""
    return EmbeddingField(phi, "convolutional")


def attach_coords(phi):
    """Mix pixel location into a feature map: out[c] = phi[c] + (x, y, 0, ...).

    Channel 0 gains the pixel's x, channel 1 its y, all others pass through.
    Differentiable with an identity Jacobian, so gradients reach phi unchanged.
    """
    if phi.data.ndim != 3:
        raise ValueError("expected a [D,H,W] feature map")
    d, h, w = phi.data.shape
    if d < 2:
        raise ValueError("need at least 2 channels to carry coordinates")
    mix = np.zeros((d, h, w))
    mix[:2] = coord_grid(h, w)
    return EmbeddingField(T.add(phi, Tensor(mix)), "semiconvolutional")


def displacement_field(field):
    """Per-pixel offset vectors: geometric embedding minus the pixel's own position.

    When training succeeds, all pixels of one instance share an embedding
    value, so these vectors point from each pixel toward a common
    instance-specific location. Used for arrow rendering and diagnostics.
    """
    if field.kind != "semiconvolutional":
        raise ValueError("displacement is only defined for semiconvolutional fields")
    h, w = field.values.data.shape[1:]
    geo = T.index_select(field.values, 0, [0, 1])
    return T.sub(geo, Tensor(coord_grid(h, w)))


def flatten_rows(values):
    """Reshape a [D,H,W] map to [H*W, D] rows, row-major pixel order."""
    d = values.data.shape[0]
    return T.transpose2d(T.reshape(values, (d, -1)))


def field_rows(field):
    """The field as [H*W, D] rows: what the loss, the kernels and k-means compare."""
    return flatten_rows(field.values)

