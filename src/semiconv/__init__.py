"""Instance embeddings from pixel coordinates mixed into convolutional features.

The package trains a small convolutional backbone whose output, once each
pixel's own (x, y) position is added to the first two channels, can assign
every instance of a repeating pattern a distinct embedding value. Plain
translation-equivariant features cannot do that, and the 1-d construction in
``dilemma`` makes the gap exact rather than empirical. ``kernels`` and
``seedcut`` turn the trained embeddings into instance masks around seed
pixels.
"""

__version__ = "0.1.0"
