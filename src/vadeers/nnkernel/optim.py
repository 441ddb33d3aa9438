"""Adam optimizer acting on flat name -> array parameter stores."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..exceptions import ContractViolation

Params = dict[str, np.ndarray]


@dataclass
class AdamState:
    """First/second moment estimates plus the completed step count, and
    the work buffers :func:`adam_step` reuses from call to call."""

    m: Params = field(default_factory=dict)
    v: Params = field(default_factory=dict)
    step_index: int = 0
    _scratch: list[np.ndarray] = field(default_factory=list, init=False,
                                       repr=False, compare=False)

    def _buffers(self, shape: tuple[int, ...]):
        """Two float64 buffers and one bool buffer of ``shape``, as views
        of flat arrays grown to the largest size asked for so far."""
        size = int(np.prod(shape))
        if not self._scratch or self._scratch[0].size < size:
            self._scratch = [np.empty(size), np.empty(size),
                             np.empty(size, dtype=bool)]
        return tuple(buf[:size].reshape(shape) for buf in self._scratch)


def adam_step(
    params: Params,
    grads: Params,
    state: AdamState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
    step_index: int | None = None,
) -> tuple[Params, AdamState]:
    """One Adam update with bias correction.

    Only parameters present in ``grads`` are touched; where a present
    gradient is zero the moments still decay but the value is unchanged.
    The parameter arrays of ``params`` and the moments and step count of
    ``state`` are updated in place, between graphs, and the same two
    objects are returned: a graph whose tensors share those parameter
    arrays must not be used after the step.  Each operation of the
    out-of-place form ``p - lr * m_hat / (sqrt(v_hat) + eps)`` runs in
    its order on reused buffers, so the results are bit-identical to it.
    """
    t = state.step_index + 1 if step_index is None else step_index
    if t < 1:
        raise ContractViolation(f"step_index must be >= 1, got {t}")

    for name, g in grads.items():
        if name not in params:
            raise ContractViolation(f"gradient for unknown parameter {name!r}")
        p = params[name]
        if g.shape != p.shape:
            raise ContractViolation(
                f"gradient shape {g.shape} does not match parameter "
                f"{name!r} shape {p.shape}"
            )

    for name, g in grads.items():
        p = params[name]
        m = state.m.get(name)
        v = state.v.get(name)
        if m is None:
            m = state.m[name] = np.zeros_like(p)
            v = state.v[name] = np.zeros_like(p)
        step, root, moved = state._buffers(p.shape)
        m *= beta1
        np.multiply(g, 1.0 - beta1, out=step)
        m += step
        v *= beta2
        np.multiply(g, g, out=step)
        step *= 1.0 - beta2
        v += step
        np.divide(m, 1.0 - beta1**t, out=step)
        np.divide(v, 1.0 - beta2**t, out=root)
        np.sqrt(root, out=root)
        root += eps
        step *= lr
        step /= root
        # a zero gradient decays the moments but leaves the value alone
        np.not_equal(g, 0.0, out=moved)
        np.subtract(p, step, out=p, where=moved)

    state.step_index = t
    return params, state
