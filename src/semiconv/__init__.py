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

from .tensor import Tensor, NumericError, grad_check
from .embedding import (
    EmbeddingField,
    attach_coords,
    coord_grid,
    displacement_field,
    field_rows,
    flatten_rows,
)
from .losses import SegmentSet, mask_bce, pull_to_mean_loss
from .kernels import (
    KernelParams,
    SeedFusionResult,
    factorized_kernel,
    fuse_scores,
    gaussian_kernel,
    steered_laplacian,
)
from .backbone import Backbone
from .synth import (
    InstanceLabeling,
    Scene,
    TrainConfig,
    controlled_pair,
    decode_kmeans,
    generate_scene,
    load_scene,
    score,
    train,
)
from .seedcut import (
    RegionProposal,
    cut_all_boxes,
    cut_region,
    gt_boxes_from_labels,
    rle_decode,
    rle_encode,
    train_seedcut,
)
from .dilemma import conv_collision_witness, make_signal, semiconv_color

__all__ = [
    "Tensor", "NumericError", "grad_check",
    "EmbeddingField", "attach_coords",
    "coord_grid", "displacement_field",
    "field_rows", "flatten_rows",
    "SegmentSet", "mask_bce", "pull_to_mean_loss",
    "KernelParams", "SeedFusionResult", "factorized_kernel", "fuse_scores",
    "gaussian_kernel", "steered_laplacian",
    "Backbone",
    "InstanceLabeling", "Scene", "TrainConfig", "controlled_pair",
    "decode_kmeans", "generate_scene", "load_scene", "score",
    "train",
    "RegionProposal", "cut_all_boxes", "cut_region",
    "gt_boxes_from_labels", "rle_decode", "rle_encode", "train_seedcut",
    "conv_collision_witness", "make_signal", "semiconv_color",
    "__version__",
]
