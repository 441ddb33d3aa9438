"""Adam optimizer acting on flat parameter stores."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..exceptions import ContractViolation
from .store import FlatStore, Layout

# Elements per pass of the update sequence, so that a block's parameter,
# gradient, moment and work slices stay in cache between its ufuncs.
# Re-measured for float32 moments (2-core Xeon VM, one thread, medians of
# 300 calls with the real zero shares): blocks of 32,768 and 65,536 were
# within noise of each other at every call size, from the 39,085-element
# desk break to the 397,921-element paper joint step, and 16,384 was
# slower.
ADAM_BLOCK = 32_768

# Steps between flushes of small moments.  A moment that decays under a
# zero gradient sinks into subnormals, where ``x * beta`` rounds back to
# ``x``, so it stays there; a multiply over subnormals took 124 µs against
# 5 µs per 16,384 float32 elements.
FLUSH_EVERY = 16

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
    layout order, in the gradients' dtype, so the run ``[a, b)`` has the
    moments ``m[a - start:b - start]``.  A name inside the stretch that
    no step updates keeps zero moments."""

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
    run of ``grads`` must lie in the stretch ``state`` is bound to, and
    its dtype must be the moments'.

    The arithmetic runs in the gradients' dtype, in the efficient form of
    Kingma & Ba (2015, arXiv:1412.6980, §2): with
    ``alpha_t = lr * sqrt(1 - BETA2**t) / (1 - BETA1**t)`` and
    ``eps_t = EPS * sqrt(1 - BETA2**t)``, both cast to that dtype, the
    step is ``alpha_t * m / (sqrt(v) + eps_t)``.  Every ``FLUSH_EVERY``-th
    step, before the step is formed, zeroes each first moment below
    ``tiny / BETA1**FLUSH_EVERY`` in magnitude and each second moment
    below ``tiny / BETA2**FLUSH_EVERY``, ``tiny`` being the dtype's
    smallest normal number: no moment then decays into subnormals before
    the next flush, and a zeroed one moves no parameter while its
    gradient stays zero.  The operations of the
    out-of-place form ``where(g == 0, p, p - step)`` run in their order on
    work buffers, once per block of at most ``ADAM_BLOCK`` elements of a
    run of adjacent names, so the results are bit-identical to it.  The
    zero-gradient rule has no masked store: every bit of the step is
    cleared where the gradient is zero, leaving ``+0.0``, and the step,
    widened exactly, is subtracted from the parameters; ``p - (+0.0)`` is
    ``p`` for every ``p``, ``-0.0`` included.  A gradient beyond the
    square root of its dtype's largest value overflows ``v`` to inf, which
    stops its parameter for good; the caller checks the range.  Each
    block of ``copy`` is refreshed from its updated parameters while they
    are in cache.
    """
    if not (isinstance(params, FlatStore) and isinstance(grads, FlatStore)
            and grads.layout is params.layout
            and (copy is None or copy.layout is params.layout)):
        raise ContractViolation(
            "adam_step needs a FlatStore and a gradient store of its layout"
        )
    runs = grads.runs()
    dtype = grads.flat.dtype
    if state.layout is None:
        lo, hi = (runs[0][0], runs[-1][1]) if runs else (0, 0)
        state.layout, state.start = params.layout, lo
        state.m, state.v = np.zeros(hi - lo, dtype), np.zeros(hi - lo, dtype)
    stop = state.start + state.m.size
    if state.layout is not params.layout or any(
            a < state.start or b > stop for a, b, _ in runs):
        raise ContractViolation(
            f"adam_step: the gradients leave the stretch [{state.start}, "
            f"{stop}) of the layout the state is bound to"
        )
    if state.m.dtype != dtype:
        raise ContractViolation(
            f"adam_step: {dtype} gradients for {state.m.dtype} moments")
    t = state.step_index + 1
    # the scalars take the moments' dtype, so that no operation promotes
    # under either numpy's value-based or its NEP 50 rules
    scalar = dtype.type
    alpha = scalar(lr * math.sqrt(1.0 - BETA2**t) / (1.0 - BETA1**t))
    eps = scalar(EPS * math.sqrt(1.0 - BETA2**t))
    beta1, beta2 = scalar(BETA1), scalar(BETA2)
    rest1, rest2 = scalar(1.0 - BETA1), scalar(1.0 - BETA2)
    floors = None
    if t % FLUSH_EVERY == 0:
        tiny = float(np.finfo(dtype).tiny)
        floors = (scalar(tiny / BETA1**FLUSH_EVERY),
                  scalar(tiny / BETA2**FLUSH_EVERY))
    bits_of = np.dtype(f"u{dtype.itemsize}")
    size = min(ADAM_BLOCK, max((b - a for a, b, _ in runs), default=0))
    work = np.empty(size, dtype), np.empty(size, dtype)
    for lo, hi, _ in runs:
        p_run, g_run = params.flat[lo:hi], grads.flat[lo:hi]
        c_run = None if copy is None else copy.flat[lo:hi]
        m_run = state.m[lo - state.start: hi - state.start]
        v_run = state.v[lo - state.start: hi - state.start]
        for start in range(0, p_run.size, ADAM_BLOCK):
            block = slice(start, start + ADAM_BLOCK)
            p, g, m, v = p_run[block], g_run[block], m_run[block], v_run[block]
            step, root = (buf[:p.size] for buf in work)
            keep = root.view(bits_of)
            m *= beta1
            np.multiply(g, rest1, out=step)
            m += step
            v *= beta2
            np.multiply(g, g, out=step)
            step *= rest2
            v += step
            if floors is not None:
                for moment, floor in zip((m, v), floors):
                    np.absolute(moment, out=step)
                    np.greater_equal(step, floor, out=keep)
                    _clear_unkept(moment, keep)
            np.sqrt(v, out=root)
            root += eps
            np.multiply(m, alpha, out=step)
            step /= root
            # a zero gradient decays the moments but leaves the value alone
            np.not_equal(g, 0.0, out=keep)
            _clear_unkept(step, keep)
            p -= step
            if c_run is not None:
                c_run[block] = p

    state.step_index = t


def _clear_unkept(x: np.ndarray, keep: np.ndarray) -> None:
    """Clear every bit of ``x`` where ``keep``, an unsigned view of ``x``'s
    width holding 1 or 0, is 0, leaving ``+0.0`` there without a masked
    store; ``keep`` is overwritten."""
    np.negative(keep, out=keep)  # 1 becomes all bits set
    bits = x.view(keep.dtype)
    np.bitwise_and(bits, keep, out=bits)
