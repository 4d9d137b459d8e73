"""Small stride-1 convolutional feature extractor.

Three conv layers with ReLU in between produce a D-channel map aligned 1:1
with the input pixels. The network is deliberately tiny; what matters for
this package is that it is translation-equivariant (exactly so for circular
shifts, since every conv wraps around the image edges) and contains no
coordinate information of its own.
"""

import functools
import struct

import numpy as np

from . import tensor as T
from .tensor import Tensor, NumericError
from .embedding import image_pixels

MAGIC = b"SCNV"
FORMAT_VERSION = 1
HIDDEN = (16, 32)   # widths of the two hidden layers
KERNEL = 3          # every layer's kernel is KERNEL x KERNEL


class Backbone:
    """Stack of stride-1 convolutions; owns its weight and bias tensors.

    Every model the package makes is inference-only: its tensors take no
    gradient, so a forward pass records no tape. synth.train, the one
    function that learns, steps a learnable twin over the model's own arrays.
    """

    def __init__(self, weights, biases):
        self.weights = weights
        self.biases = biases

    @classmethod
    def glorot(cls, in_channels, dims, seed):
        """Seeded Glorot-uniform weights and zero biases, in_channels -> HIDDEN -> dims,
        inference-only (Backbone)."""
        chans = (in_channels, *HIDDEN, dims)
        fan = KERNEL * KERNEL
        rng = np.random.default_rng(seed)
        weights, biases = [], []
        for c_in, c_out in zip(chans[:-1], chans[1:]):
            a = np.sqrt(6.0 / (c_in * fan + c_out * fan))
            w = rng.uniform(-a, a, size=(c_out, c_in, KERNEL, KERNEL))
            weights.append(Tensor(w))
            biases.append(Tensor(np.zeros(c_out)))
        return cls(weights, biases)

    def forward(self, cone):
        """Map a Cone of this model to the [D, P] features of its output
        pixels; the Cone over every pixel gives the whole image's columns, in
        row-major order.

        ReLU between layers, none after the last so embeddings can go
        negative. A NumericError names the layer it came from.
        """
        x, last = cone.input, len(self.weights) - 1
        for i, (w, b, table) in enumerate(zip(self.weights, self.biases, cone.tables)):
            try:
                x = T.conv2d(x, w, b, table=table, relu=i < last)
            except NumericError as err:
                raise NumericError(f"layer {i}: {err}") from err
        return x

    def named_params(self):
        """(name, tensor) pairs in layer order: l0.w, l0.b, l1.w, ..."""
        return [(f"l{i}.{kind}", t) for i, pair in enumerate(zip(self.weights, self.biases))
                for kind, t in zip("wb", pair)]

    def params(self):
        return [t for _, t in self.named_params()]

    def save(self, path):
        """Write weights to a little-endian binary file (f32 payload)."""
        with open(path, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<II", FORMAT_VERSION, len(self.weights)))
            for w, b in zip(self.weights, self.biases):
                c_out, c_in, kh, kw = w.data.shape
                fh.write(struct.pack("<IIII", c_in, c_out, kh, kw))
                fh.write(np.ascontiguousarray(w.data, dtype="<f4").tobytes())
                fh.write(np.ascontiguousarray(b.data, dtype="<f4").tobytes())

    @classmethod
    def load(cls, path):
        """Read a file written by save() into an inference-only model
        (Backbone). A short or malformed file, or a NaN or Inf weight, raises
        ValueError.
        """
        with open(path, "rb") as fh:
            blob = fh.read()
        if blob[:4] != MAGIC:
            raise ValueError("not a model file (bad magic)")
        if len(blob) < 12:
            raise ValueError("model file truncated inside its header")
        version, n_layers = struct.unpack_from("<II", blob, 4)
        if version != FORMAT_VERSION:
            raise ValueError(f"unsupported model format version {version}")
        # every layer needs at least its 16-byte header
        if not 1 <= n_layers <= (len(blob) - 12) // 16:
            raise ValueError(f"model file claims {n_layers} layers, which its "
                             f"{len(blob)} bytes cannot hold")
        off = 12
        weights, biases = [], []
        for layer in range(n_layers):
            if off + 16 > len(blob):
                raise ValueError("model file truncated inside a layer header")
            c_in, c_out, kh, kw = struct.unpack_from("<IIII", blob, off)
            off += 16
            if c_in < 1 or c_out < 1:
                raise ValueError(f"model layer {layer} has {c_in} input and "
                                 f"{c_out} output channels")
            if weights and c_in != weights[-1].data.shape[0]:
                raise ValueError(f"model layer {layer} expects {c_in} input channels, "
                                 f"but layer {layer - 1} outputs "
                                 f"{weights[-1].data.shape[0]}")
            if kh != kw or kh % 2 == 0:
                raise ValueError(f"model layer {layer} has a {kh}x{kw} kernel, "
                                 "not an odd square")
            nw = c_out * c_in * kh * kw
            if off + 4 * (nw + c_out) > len(blob):
                raise ValueError("model file truncated inside a layer payload")
            w = np.frombuffer(blob, dtype="<f4", count=nw, offset=off)
            off += 4 * nw
            b = np.frombuffer(blob, dtype="<f4", count=c_out, offset=off)
            off += 4 * c_out
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise ValueError(f"model layer {layer} holds a non-finite weight or bias")
            weights.append(Tensor(w.astype(np.float64).reshape(c_out, c_in, kh, kw)))
            biases.append(Tensor(b.astype(np.float64)))
        if off != len(blob):
            raise ValueError("trailing bytes in model file")
        return cls(weights, biases)


class Cone:
    """The receptive cone of pixels of a [C,H,W] image Tensor under a
    Backbone: the pixels each layer computes for them, and where its inputs
    sit.

    ``pixels`` are linear, row-major indices, at least one, each inside the
    image: an empty list, or an index outside the image
    (embedding.image_pixels), raises a one-line ValueError. A pixel's output
    reads the last layer's input on its kh x kw taps, those read the layer
    before on theirs, and so on, wrapping around the image edges as the
    convolutions do. So layer l runs only on the pixels the layers after it
    read: the list, dilated by each later layer's kernel. A cone holds:

    - ``input``: the image at layer 0's pixels, a [C, P_0] Tensor;
    - ``tables``: per layer, the tensor.Neighbours that tensor.conv2d takes
      from the layer's input list to its output list
      (tensor.neighbour_table), carrying its adjoint exactly when the
      layer's backward reads it. That is when the model trains, some weight
      of it requiring a gradient (only synth.train's learnable twin has
      one), and the layer's input takes a gradient or its weight gradient
      reads the taps of the output gradient (C_in > C_out). Layer 0's input
      is the image, which takes none. So a cone of a model that takes no
      gradient carries no adjoint at all. Layers whose outputs are the whole
      image share one table;
    - ``grid``: the (x, y) of the output list, the given pixels sorted and
      each once, as [2, P] (embedding.attach_coords);
    - ``at``: the image's [H, W] map to the output rows, -1 off the list (an
      EmbeddingField's ``at``).

    Only ``input`` depends on the image's values. The rest, the geometry,
    depends only on the image's height and width, the layers' weight shapes,
    the set of pixels and whether the model trains, so it is built once
    (_geometry) and shared, read-only, with the next cone over the same set,
    in whatever order and with whatever repeats its pixels come: a cut of
    the next image with the same boxes reuses that of the cut before. Its
    index arrays, ``at`` and every table, are int32.

    Backbone.forward(cone) gives the model's [D, P] features at the
    output list, bit for bit those of any other cone that holds its pixels.
    The cone over every pixel is the whole image: its output list is the
    image in row-major order, so its features reshape to [D, H, W].
    synth.build_field runs the cone over a band of rows of a rolled image
    once per band, which is the cone over every pixel when one band holds
    the image.
    """

    def __init__(self, model, image, pixels):
        if np.size(pixels) == 0:
            raise ValueError("a receptive cone needs pixels, but the pixel list is empty")
        c, h, w = image.data.shape
        listed = np.zeros(h * w, dtype=bool)
        listed[image_pixels(pixels, (h, w))] = True
        shapes = tuple(wt.data.shape for wt in model.weights)
        trains = any(p.requires_grad for p in model.params())
        source, self.tables, self.grid, self.at = _geometry(
            (h, w), shapes, np.flatnonzero(listed).tobytes(), trains)
        self.input = Tensor(image.data.reshape(c, -1)[:, source])


@functools.lru_cache(maxsize=2)
def _geometry(shape, weights, pixels, trains):
    """A cone's geometry over an [H, W] image: (layer 0's input list, tables,
    grid, at), as Cone holds them, every array read-only and every index
    array int32.

    ``weights`` are the layers' weight shapes (C_out, C_in, kh, kw),
    ``pixels`` the bytes of the sorted output list and ``trains`` whether
    the model's weights take gradients, as only synth.train's learnable twin
    does. A pure function of its arguments, so the last two geometries built
    are kept: a cone over the same pixel set reuses one, and a training cone
    and the band cone every band of a whole-image field runs on
    (synth.build_field) do not evict each other.
    A table carries its adjoint exactly where conv2d's backward reads it:
    when the model trains, on every layer but the first, whose input never
    requires a gradient, and on the first too when its weight gradient
    comes from the taps of the output gradient (C_in > C_out). A layer
    whose outputs are the whole image reads it all, and so does the layer
    before it, which takes the same table object when its kernel is the
    same.
    """
    h, w = shape
    grown = np.zeros(h * w, dtype=bool)
    lists, tables = [np.frombuffer(pixels, dtype=np.intp)], []
    grown[lists[0]] = True
    for i in reversed(range(len(weights))):
        c_out, c_in, kh, kw = weights[i]
        if tables and tables[0].table.shape[1] == h * w and weights[i + 1][2:] == (kh, kw):
            tables.insert(0, tables[0])
            continue
        # an odd kernel's centre tap keeps every pixel of the list above
        taps = T.tap_pixels(shape, lists[0], kh, kw)
        grown[taps] = True
        lists.insert(0, np.flatnonzero(grown))
        tables.insert(0, T.neighbour_table(taps, lists[0], h * w,
                                           adjoint=trains and (i > 0 or c_in > c_out)))
    grid = np.stack(np.divmod(lists[-1], w)[::-1]).astype(np.float64)
    at = np.full(h * w, -1, dtype=np.int32)
    at[lists[-1]] = np.arange(lists[-1].size)
    at = at.reshape(h, w)
    source = lists[0].astype(np.int32)
    for arr in (source, grid, at):  # the tables are read-only as made
        arr.flags.writeable = False
    return source, tuple(tables), grid, at
