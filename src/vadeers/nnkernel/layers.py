"""Dense layers: affine maps, relu/identity activations, inverted dropout,
each layer one :func:`~vadeers.nnkernel.autodiff.dense` graph node.

Matrices are plain 2-D float32 or float64 numpy arrays (rows = samples);
vectors are 1-D arrays.  A layer computes in the dtype of its input and
parameters, which the caller keeps equal.  Anything fancier
(convolutions, other activations) is out of scope for this kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import NumericError
from .autodiff import Tensor, dense, wrap


@dataclass(frozen=True)
class LayerSpec:
    """One dense layer: affine -> activation -> dropout."""

    in_dim: int
    out_dim: int
    activation: str = "relu"
    dropout_rate: float = 0.0


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
    ``layers``, whose dims chain from the width of ``x``; train mode with
    any nonzero dropout needs an rng.  None of this is checked here: the
    model's chains come from a checked config.  Raises
    :class:`NumericError` if an activation goes non-finite, naming the
    layer by its weight's name less the last part (``dspn.out.W`` names
    ``dspn.out``), or by its index when the weight has no name.  That is
    the report of an overflow, so numpy warns of none.
    """
    h = wrap(x)
    with np.errstate(over="ignore", invalid="ignore"):
        for i, (spec, (w, b)) in enumerate(zip(layers, params)):
            mask = None
            if mode == "train" and spec.dropout_rate > 0.0:
                mask = dropout_mask(rng, (h.shape[0], spec.out_dim),
                                    spec.dropout_rate)
            h = dense(h, w, b, spec.activation, mask)
            if not np.all(np.isfinite(h.data)):
                name = getattr(w, "name", None)
                raise NumericError(f"non-finite activations after layer "
                                   f"{name.rsplit('.', 1)[0] if name else i}")
    return h
