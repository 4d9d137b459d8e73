"""Small stride-1 convolutional feature extractor.

Three conv layers with ReLU in between produce a D-channel map aligned 1:1
with the input pixels. The network is deliberately tiny; what matters for
this package is that it is translation-equivariant (exactly so for circular
shifts, since every conv wraps around the image edges) and contains no
coordinate information of its own.
"""

import struct
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import Tensor

MAGIC = b"SCNV"
FORMAT_VERSION = 1


@dataclass
class BackboneConfig:
    in_channels: int = 1
    hidden: tuple = (16, 32)
    dims: int = 8                  # final layer width = embedding dimension
    kernels: tuple = (3, 3, 3)
    seed: int = 0

    def layer_channels(self):
        return (self.in_channels, *self.hidden, self.dims)

    def validate(self):
        if self.dims < 1:
            raise ValueError("dims must be positive")
        if len(self.kernels) != len(self.hidden) + 1:
            raise ValueError("need one kernel size per layer")
        if any(k % 2 == 0 or k < 1 for k in self.kernels):
            raise ValueError("kernel extents must be odd and positive")


class Backbone:
    """Stack of stride-1 convolutions; owns its weight and bias tensors."""

    def __init__(self, cfg=None, weights=None, biases=None):
        self.cfg = cfg or BackboneConfig()
        self.cfg.validate()
        if weights is not None:
            self.weights = weights
            self.biases = biases
            return
        chans = self.cfg.layer_channels()
        rng = np.random.default_rng(self.cfg.seed)
        self.weights, self.biases = [], []
        for c_in, c_out, k in zip(chans[:-1], chans[1:], self.cfg.kernels):
            fan_in = c_in * k * k
            fan_out = c_out * k * k
            a = np.sqrt(6.0 / (fan_in + fan_out))
            w = rng.uniform(-a, a, size=(c_out, c_in, k, k))
            self.weights.append(Tensor(w, requires_grad=True))
            self.biases.append(Tensor(np.zeros(c_out), requires_grad=True))

    def forward(self, x):
        """Map [C,H,W] input to a [D,H,W] feature map.

        ReLU between layers, none after the last so embeddings can go
        negative.
        """
        h = x if isinstance(x, Tensor) else Tensor(x)
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = T.conv2d(h, w, b)
            if i < last:
                h = T.relu(h)
        return h

    def params(self):
        return list(self.weights) + list(self.biases)

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
        """Read a file written by save(); a short or malformed file raises ValueError."""
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
            if weights and c_in != weights[-1].data.shape[0]:
                raise ValueError(f"model layer {layer} expects {c_in} input channels, "
                                 f"but layer {layer - 1} outputs "
                                 f"{weights[-1].data.shape[0]}")
            if kh != kw:
                raise ValueError(f"model layer {layer} has a non-square "
                                 f"{kh}x{kw} kernel")
            nw = c_out * c_in * kh * kw
            if off + 4 * (nw + c_out) > len(blob):
                raise ValueError("model file truncated inside a layer payload")
            w = np.frombuffer(blob, dtype="<f4", count=nw, offset=off)
            off += 4 * nw
            b = np.frombuffer(blob, dtype="<f4", count=c_out, offset=off)
            off += 4 * c_out
            weights.append(Tensor(w.astype(np.float64).reshape(c_out, c_in, kh, kw),
                                  requires_grad=True))
            biases.append(Tensor(b.astype(np.float64), requires_grad=True))
        if off != len(blob):
            raise ValueError("trailing bytes in model file")
        chans = [weights[0].data.shape[1]] + [w.data.shape[0] for w in weights]
        cfg = BackboneConfig(in_channels=chans[0], hidden=tuple(chans[1:-1]),
                             dims=chans[-1],
                             kernels=tuple(w.data.shape[2] for w in weights))
        return cls(cfg, weights=weights, biases=biases)
