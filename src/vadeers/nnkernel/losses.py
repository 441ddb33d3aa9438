"""Loss terms as single graph nodes."""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor, wrap


def row_mse(pred, target, row_weights=None) -> Tensor:
    """Mean over the rows of each row's weight times its mean squared
    error, as one node, accumulated in float64.

    ``pred`` is a 1-D or 2-D tensor (a 1-D entry is a row of width one);
    ``target`` is a constant of the same shape, cast to ``pred``'s dtype,
    and ``row_weights`` an optional constant vector with one weight per
    row."""
    pred = wrap(pred)
    target = np.asarray(target, dtype=pred.data.dtype)
    n = pred.shape[0]
    if row_weights is not None:
        row_weights = np.asarray(row_weights, dtype=np.float64)
    diff = pred.data - target
    rows = diff * diff
    width = 1
    if diff.ndim == 2:
        width = diff.shape[1]
        rows = rows.mean(axis=1, dtype=np.float64)
    else:
        rows = rows.astype(np.float64, copy=False)
    if row_weights is not None:
        rows *= row_weights

    def backward(g, needs, outs):
        coef = g / n
        if row_weights is not None:
            coef = coef * row_weights
            if diff.ndim == 2:
                coef = coef[:, None]
        return (2.0 * diff * (coef / width).astype(diff.dtype),)

    return Tensor(rows.mean(), (pred,), backward)
