"""Minimal dense neural-network kernel: tensors with reverse-mode
gradients, dense layers with inverted dropout, Adam over flat parameter
stores, and row parts run on two threads."""

from .autodiff import (
    GradientTape,
    Tensor,
    concat,
    dense,
    reparameterize,
    reshape,
    take_rows,
    tmean,
    weighted_sum,
    wrap,
)
from .layers import LayerSpec, init_layer_params, mlp_forward
from .optim import AdamState, adam_step
from .parts import in_row_parts
from .store import FlatStore

__all__ = [
    "AdamState",
    "FlatStore",
    "GradientTape",
    "LayerSpec",
    "Tensor",
    "adam_step",
    "concat",
    "dense",
    "in_row_parts",
    "init_layer_params",
    "mlp_forward",
    "reparameterize",
    "reshape",
    "take_rows",
    "tmean",
    "weighted_sum",
    "wrap",
]
