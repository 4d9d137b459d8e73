"""Whole-image convolution for the tests.

``roll_conv``, ``roll_forward`` and ``roll_rows`` are the reference: a
plain circular correlation by np.roll, which shares no code with the
package. It sums in another order than the package's products, so it agrees
with them to rounding (``assert_close``), not bit for bit. ``image_conv``,
``image_forward`` and ``whole_field`` run the package's own conv2d,
Backbone.forward and training field over the table, or the cone, of every
pixel of an image; over ``learnable(model)``, as synth.train steps, they
record a tape. ``learnable_scale(params)`` is the kernel scale's twin, as
seedcut.train_seedcut steps it.
"""

import numpy as np

from semiconv import synth, tensor as T
from semiconv.backbone import Backbone, Cone
from semiconv.embedding import coord_grid
from semiconv.kernels import KernelParams


def roll_conv(x, w, b=None):
    """Circular correlation of x[C_in, H, W] with w[C_out, C_in, kh, kw],
    plus b[C_out] when given: out[o, y, x] is the sum of w[o, c, i, j] *
    x[c, y + i - kh//2, x + j - kw//2], the indices wrapping around."""
    c_out, _, kh, kw = w.shape
    out = np.zeros((c_out, *x.shape[1:]))
    for i in range(kh):
        for j in range(kw):
            out += np.tensordot(w[:, :, i, j], np.roll(x, (kh // 2 - i, kw // 2 - j), axis=(1, 2)),
                                axes=1)
    return out if b is None else out + b[:, None, None]


def roll_forward(model, image):
    """The Backbone ``model`` over image[C, H, W] by roll_conv, ReLU between
    layers, as a [D, H, W] array."""
    x, last = image.data, len(model.weights) - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        x = roll_conv(x, w.data, b.data)
        if i < last:
            x = np.maximum(x, 0.0)
    return x


def roll_rows(model, image, mode):
    """The [H*W, D] field rows of roll_forward, with each pixel's (x, y)
    added to the first two channels in semiconv mode."""
    phi = roll_forward(model, image)
    if mode == "semiconv":
        phi[:2] += coord_grid(*phi.shape[1:])
    return phi.reshape(phi.shape[0], -1).T


def assert_close(got, want):
    """Equal up to the rounding of another summation order."""
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def every_pixel_table(shape, kh, kw):
    """The neighbour table of a kh x kw kernel over every pixel of an [H, W]
    image."""
    every = np.arange(shape[0] * shape[1])
    return T.neighbour_table(T.tap_pixels(shape, every, kh, kw), every, every.size)


def image_conv(x, w, b=None, relu=False):
    """conv2d of the Tensor x[C, H, W] with the Tensor w over the table of
    every pixel, as a [C_out, H, W] Tensor that gradients flow through."""
    c, h, wd = x.data.shape
    table = every_pixel_table((h, wd), *w.data.shape[2:])
    return T.reshape(T.conv2d(T.reshape(x, (c, h * wd)), w, b, table=table, relu=relu),
                     (-1, h, wd))


def image_forward(model, image):
    """model.forward over the cone of every pixel of the Tensor image[C, H, W],
    as a [D, H, W] Tensor that gradients flow through."""
    h, w = image.data.shape[1:]
    return T.reshape(model.forward(Cone(model, image, np.arange(h * w))), (-1, h, w))


def learnable(model):
    """The learnable twin synth.train steps: Tensors that require gradients
    over the Backbone ``model``'s own arrays."""
    return Backbone(*[[T.Tensor(t.data, requires_grad=True) for t in ts]
                      for ts in (model.weights, model.biases)])


def learnable_scale(params):
    """The learnable twin seedcut.train_seedcut steps: a KernelParams of
    ``params``' family whose log-sigma requires a gradient over the
    KernelParams ``params``' own array."""
    twin = KernelParams(params.family)
    twin.log_sigma = T.Tensor(params.log_sigma.data, requires_grad=True)
    return twin


def whole_field(model, image, mode):
    """The field of a training step over the cone of every pixel, tape and
    all when the weights require gradients: the whole image's."""
    cone = Cone(model, image, np.arange(image.data[0].size))
    return synth._embed(model.forward(cone), mode, cone.grid, cone.at)
