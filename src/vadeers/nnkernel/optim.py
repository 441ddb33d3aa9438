"""Adam optimizer acting on flat parameter stores."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import ContractViolation
from .store import FlatStore, Layout

# Elements per pass of the update sequence, so that a block's parameter,
# gradient, moment and work slices stay in cache between its ufuncs.  A
# joint-step update at desk dims (a run of 237,355 elements, 2-core Xeon
# VM, one thread) took 1.26 ms in blocks of 32,768, 1.37 ms in blocks of
# 8,192, 1.54 ms in blocks of 131,072 and 1.64 ms in one pass, with the
# masked store of the zero-gradient rule that has since gone.
ADAM_BLOCK = 32_768

# moment decay rates and the denominator's stabilizer
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass
class AdamState:
    """First/second moment estimates plus the completed step count.

    The first :func:`adam_step` binds the state to the layout of its
    parameters and to one stretch of their flat vector: from where the
    gradients' first run starts to where their last run stops.  The
    stretch begins at ``start``, and ``m`` and ``v`` hold its moments in
    layout order, so the run ``[a, b)`` has the moments
    ``m[a - start:b - start]``.  A name inside the stretch that no step
    updates keeps zero moments."""

    layout: Layout | None = None
    start: int = 0
    m: np.ndarray | None = None
    v: np.ndarray | None = None
    step_index: int = 0


def adam_step(params: FlatStore, grads: FlatStore, state: AdamState,
              lr: float, copy: FlatStore | None = None) -> None:
    """One Adam update with bias correction.

    ``grads`` is a :meth:`~FlatStore.gradient_store` of ``params`` or of
    ``copy``, a working copy of ``params`` in another dtype over the same
    layout, and only the parameters it shows are touched; where a present
    gradient is zero the moments still decay but the value is unchanged.
    The parameter arrays of ``params`` and the moments and step count of
    ``state`` are updated in place, between graphs: a graph whose tensors
    share those parameter arrays must not be used after the step.  Every
    run of ``grads`` must lie in the stretch ``state`` is bound to.

    Each operation of the out-of-place form
    ``where(g == 0, p, p - lr * m_hat / (sqrt(v_hat) + eps))`` runs in its
    order on work buffers, once per block of at most ``ADAM_BLOCK``
    elements of a run of adjacent names.  The zero-gradient rule has no
    masked store: every bit of the step is cleared where the gradient is
    zero, leaving ``+0.0``, and ``p - (+0.0)`` is ``p`` for every ``p``,
    ``-0.0`` included.  Every operation is elementwise, so the results
    are bit-identical to the out-of-place form.  The moments are those of
    the parameters' dtype, and the gradient is read into it: float32
    gradients, being below 3.5e38, square to below 1.2e77, so a finite
    float32 gradient never overflows float64 moments.  Each block of
    ``copy`` is refreshed from its updated parameters while they are in
    cache.
    """
    if not (isinstance(params, FlatStore) and isinstance(grads, FlatStore)
            and grads.layout is params.layout
            and (copy is None or copy.layout is params.layout)):
        raise ContractViolation(
            "adam_step needs a FlatStore and a gradient store of its layout"
        )
    runs = grads.runs()
    if state.layout is None:
        lo, hi = (runs[0][0], runs[-1][1]) if runs else (0, 0)
        state.layout, state.start = params.layout, lo
        state.m, state.v = np.zeros(hi - lo), np.zeros(hi - lo)
    stop = state.start + state.m.size
    if state.layout is not params.layout or any(
            a < state.start or b > stop for a, b, _ in runs):
        raise ContractViolation(
            f"adam_step: the gradients leave the stretch [{state.start}, "
            f"{stop}) of the layout the state is bound to"
        )
    t = state.step_index + 1
    size = min(ADAM_BLOCK, max((b - a for a, b, _ in runs), default=0))
    work = np.empty(size), np.empty(size)
    # a gradient of another dtype is read into one in the moments' dtype
    read = None if grads.flat.dtype == params.flat.dtype else np.empty(size)
    for lo, hi, _ in runs:
        p_run, g_run = params.flat[lo:hi], grads.flat[lo:hi]
        c_run = None if copy is None else copy.flat[lo:hi]
        m_run = state.m[lo - state.start: hi - state.start]
        v_run = state.v[lo - state.start: hi - state.start]
        for start in range(0, p_run.size, ADAM_BLOCK):
            block = slice(start, start + ADAM_BLOCK)
            p, g, m, v = p_run[block], g_run[block], m_run[block], v_run[block]
            step, root = (buf[:p.size] for buf in work)
            if read is not None:
                read[:p.size] = g
                g = read[:p.size]
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
            # a zero gradient decays the moments but leaves the value
            # alone: all bits of ``keep`` are set where the gradient is
            # not zero, and the step's other bits are cleared to +0.0
            keep = root.view(np.uint64)
            np.not_equal(g, 0.0, out=keep)
            np.negative(keep, out=keep)
            bits = step.view(np.uint64)
            np.bitwise_and(bits, keep, out=bits)
            p -= step
            if c_run is not None:
                c_run[block] = p

    state.step_index = t
