"""Minimal dense neural-network kernel: tensors with reverse-mode
gradients, dense layers with inverted dropout, loss primitives, Adam
over flat parameter stores."""

from .autodiff import (
    GradientTape,
    Tensor,
    add,
    concat,
    dense,
    exp,
    grad,
    logsumexp,
    mul,
    neg,
    reparameterize,
    reshape,
    square,
    sub,
    take_rows,
    tmean,
    tsum,
    weighted_sum,
    wrap,
)
from .layers import (
    LayerSpec,
    as_matrix,
    glorot_uniform,
    init_layer_params,
    mlp_forward,
)
from .losses import mse
from .optim import AdamState, adam_step
from .store import FlatStore

__all__ = [
    "AdamState",
    "FlatStore",
    "GradientTape",
    "LayerSpec",
    "Tensor",
    "adam_step",
    "add",
    "as_matrix",
    "concat",
    "dense",
    "exp",
    "glorot_uniform",
    "grad",
    "init_layer_params",
    "logsumexp",
    "mse",
    "mul",
    "neg",
    "reparameterize",
    "reshape",
    "square",
    "sub",
    "take_rows",
    "tmean",
    "tsum",
    "weighted_sum",
    "wrap",
]
