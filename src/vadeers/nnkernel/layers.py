"""Dense layers: affine maps, relu/identity activations, inverted dropout,
each layer one :func:`~vadeers.nnkernel.autodiff.dense` graph node.

Matrices are plain 2-D float64 numpy arrays (rows = samples); vectors are
1-D arrays.  Anything fancier (convolutions, other activations) is out of
scope for this kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import ContractViolation, NumericError
from .autodiff import ACTIVATIONS, Tensor, dense, wrap


def as_matrix(x, name: str = "matrix") -> np.ndarray:
    """Validate and return a finite 2-D float64 array."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2:
        raise ContractViolation(f"{name} must be 2-D, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ContractViolation(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True)
class LayerSpec:
    """One dense layer: affine -> activation -> dropout."""

    in_dim: int
    out_dim: int
    activation: str = "relu"
    dropout_rate: float = 0.0

    def __post_init__(self):
        if self.in_dim < 1 or self.out_dim < 1:
            raise ContractViolation(
                f"layer dims must be >= 1, got {self.in_dim}x{self.out_dim}"
            )
        if self.activation not in ACTIVATIONS:
            raise ContractViolation(f"unknown activation {self.activation!r}")
        if not (0.0 <= self.dropout_rate < 1.0):
            raise ContractViolation(
                f"dropout_rate must be in [0, 1), got {self.dropout_rate}"
            )


def glorot_uniform(rng: np.random.Generator, in_dim: int, out_dim: int) -> np.ndarray:
    bound = np.sqrt(6.0 / (in_dim + out_dim))
    return rng.uniform(-bound, bound, size=(in_dim, out_dim))


def init_layer_params(rng: np.random.Generator, spec: LayerSpec):
    """Weights uniform in +-sqrt(6/(fan_in+fan_out)), biases zero."""
    return glorot_uniform(rng, spec.in_dim, spec.out_dim), np.zeros(spec.out_dim)


def dropout_mask(rng: np.random.Generator, shape: tuple[int, int],
                 rate: float) -> np.ndarray:
    """Inverted-dropout mask: each unit is kept with probability
    1 - rate and scaled by 1/(1 - rate), so eval mode is the identity.
    The mask is built in the array of its uniform draws."""
    mask = rng.random(shape)
    np.greater_equal(mask, rate, out=mask)
    mask /= 1.0 - rate
    return mask


def mlp_forward(
    x,
    layers: list[LayerSpec],
    params,
    mode: str = "eval",
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Apply a chain of dense layers.

    ``params`` is a sequence of (weights, bias) pairs aligned with
    ``layers``.  Layer dims must chain; train mode with any nonzero
    dropout requires an rng.  Raises :class:`NumericError` naming the
    layer index if an activation goes non-finite.
    """
    if mode not in ("train", "eval"):
        raise ContractViolation(f"mode must be 'train' or 'eval', got {mode!r}")
    if len(params) != len(layers):
        raise ContractViolation(
            f"{len(layers)} layers but {len(params)} parameter pairs"
        )
    for i in range(len(layers) - 1):
        if layers[i].out_dim != layers[i + 1].in_dim:
            raise ContractViolation(
                f"layer chain broken at {i}: out_dim {layers[i].out_dim} "
                f"!= next in_dim {layers[i + 1].in_dim}"
            )
    h = wrap(x)
    if layers and h.shape[1] != layers[0].in_dim:
        raise ContractViolation(
            f"input width {h.shape[1]} does not match first layer in_dim "
            f"{layers[0].in_dim}"
        )
    if mode == "train" and rng is None and any(l.dropout_rate > 0 for l in layers):
        raise ContractViolation("train mode with dropout requires an rng")

    for i, (spec, (w, b)) in enumerate(zip(layers, params)):
        mask = None
        if mode == "train" and spec.dropout_rate > 0.0:
            mask = dropout_mask(rng, (h.shape[0], spec.out_dim),
                                spec.dropout_rate)
        h = dense(h, w, b, spec.activation, mask)
        if not np.all(np.isfinite(h.data)):
            raise NumericError(f"non-finite activations after layer {i}")
    return h
