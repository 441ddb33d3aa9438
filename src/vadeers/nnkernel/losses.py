"""Scalar loss primitives."""

from __future__ import annotations

import numpy as np

from ..exceptions import ContractViolation
from .autodiff import Tensor, square, sub, tmean, wrap


def mse(a, b) -> Tensor:
    """Mean over all entries of (a - b)^2; shapes must match exactly."""
    a, b = wrap(a), wrap(b)
    if a.shape != b.shape:
        raise ContractViolation(f"mse shape mismatch: {a.shape} vs {b.shape}")
    return tmean(square(sub(a, b)))


def row_mse(pred, target, row_weights=None) -> Tensor:
    """Mean over the rows of each row's weight times its mean squared
    error, as one node.

    ``pred`` is a 1-D or 2-D tensor (a 1-D entry is a row of width one);
    ``target`` is a constant of the same shape and ``row_weights`` an
    optional constant vector with one weight per row."""
    pred = wrap(pred)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape or pred.ndim not in (1, 2):
        raise ContractViolation(
            f"row_mse expects matching 1-D or 2-D shapes, got {pred.shape} "
            f"vs {target.shape}"
        )
    n = pred.shape[0]
    if row_weights is not None:
        row_weights = np.asarray(row_weights, dtype=np.float64)
        if row_weights.shape != (n,):
            raise ContractViolation(
                f"row_mse needs {n} row weights, got shape {row_weights.shape}"
            )
    diff = pred.data - target
    rows = diff * diff
    width = 1
    if diff.ndim == 2:
        width = diff.shape[1]
        rows = rows.mean(axis=1)
    if row_weights is not None:
        rows *= row_weights

    def backward(g, needs, outs):
        coef = g / n
        if row_weights is not None:
            coef = coef * row_weights
            if diff.ndim == 2:
                coef = coef[:, None]
        return (2.0 * diff * (coef / width),)

    return Tensor(rows.mean(), (pred,), backward)
