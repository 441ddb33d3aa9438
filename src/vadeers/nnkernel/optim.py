"""Adam optimizer acting on flat parameter stores."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..exceptions import ContractViolation
from .store import FlatStore

# Elements per pass of the update sequence, so that a block's parameter,
# gradient, moment and work slices stay in cache between its 15 ufuncs.
# A joint-step update at desk dims (a run of 237,355 elements, 2-core
# Xeon VM) took 1.26 ms in blocks of 32,768, 1.37 ms in blocks of 8,192,
# 1.54 ms in blocks of 131,072 and 1.64 ms in one pass.
ADAM_BLOCK = 32_768

# moment decay rates and the denominator's stabilizer
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass
class AdamState:
    """First/second moment estimates plus the completed step count.

    The moments of each run of names that :func:`adam_step` updates
    together live in one vector per moment; ``m`` and ``v`` map every
    name updated so far to its view of those vectors, and hold no entry
    for a name never updated."""

    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    step_index: int = 0
    _runs: dict[tuple[str, ...], tuple[np.ndarray, np.ndarray]] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def _moments(self, names: tuple[str, ...], params: FlatStore):
        """The (m, v) vectors of the run ``names``.  A run seen for the
        first time gets new vectors, zero but for the names updated
        before, whose moments are moved in; a run that shared a name
        with it is forgotten, so its vectors get rebuilt the same way."""
        got = self._runs.get(names)
        if got is None:
            for key in [k for k in self._runs if not set(k).isdisjoint(names)]:
                del self._runs[key]
            got = self._runs[names] = (_gather(self.m, names, params),
                                       _gather(self.v, names, params))
        return got


def _gather(moments: dict[str, np.ndarray], names: tuple[str, ...],
            params: FlatStore) -> np.ndarray:
    buf = np.zeros(sum(params[n].size for n in names))
    start = 0
    for name in names:
        shape = params[name].shape
        view = buf[start: start + params[name].size].reshape(shape)
        old = moments.get(name)
        if old is not None:
            if old.shape != shape:
                raise ContractViolation(
                    f"moment shape {old.shape} does not match parameter "
                    f"{name!r} shape {shape}"
                )
            view[...] = old
        moments[name] = view
        start += view.size
    return buf


def adam_step(params: FlatStore, grads: FlatStore, state: AdamState,
              lr: float) -> tuple[FlatStore, AdamState]:
    """One Adam update with bias correction.

    ``grads`` is a :meth:`~FlatStore.gradient_store` of ``params``, and
    only the parameters it shows are touched; where a present
    gradient is zero the moments still decay but the value is unchanged.
    The parameter arrays of ``params`` and the moments and step count of
    ``state`` are updated in place, between graphs, and the same two
    objects are returned: a graph whose tensors share those parameter
    arrays must not be used after the step.  Each operation of the
    out-of-place form ``p - lr * m_hat / (sqrt(v_hat) + eps)`` runs in
    its order on work buffers, once per run of adjacent names and block
    of ``ADAM_BLOCK`` elements; every operation is elementwise, so the
    results are bit-identical to the out-of-place form.
    """
    if not (isinstance(params, FlatStore) and isinstance(grads, FlatStore)
            and grads.layout is params.layout):
        raise ContractViolation(
            "adam_step needs a FlatStore and a gradient store of its layout"
        )
    t = state.step_index + 1
    runs = grads.runs()
    size = min(ADAM_BLOCK, max((stop - start for start, stop, _ in runs),
                               default=0))
    work = np.empty(size), np.empty(size), np.empty(size, dtype=bool)
    for lo, hi, names in runs:
        p_run, g_run = params.flat[lo:hi], grads.flat[lo:hi]
        m_run, v_run = state._moments(tuple(names), params)
        for start in range(0, p_run.size, ADAM_BLOCK):
            block = slice(start, start + ADAM_BLOCK)
            p, g, m, v = p_run[block], g_run[block], m_run[block], v_run[block]
            step, root, moved = (buf[:p.size] for buf in work)
            m *= BETA1
            np.multiply(g, 1.0 - BETA1, out=step)
            m += step
            v *= BETA2
            np.multiply(g, g, out=step)
            step *= 1.0 - BETA2
            v += step
            np.divide(m, 1.0 - BETA1**t, out=step)
            np.divide(v, 1.0 - BETA2**t, out=root)
            np.sqrt(root, out=root)
            root += EPS
            step *= lr
            step /= root
            # a zero gradient decays the moments but leaves the value alone
            np.not_equal(g, 0.0, out=moved)
            np.subtract(p, step, out=p, where=moved)

    state.step_index = t
    return params, state
