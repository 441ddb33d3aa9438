"""Reverse-mode automatic differentiation over float64 numpy arrays.

The graph is built dynamically: every operation computes its value
eagerly and returns a new immutable :class:`Tensor` that remembers its
parents and a backward closure propagating an upstream gradient to the
parents.  Gradients of a scalar loss are obtained by walking the graph
once in reverse topological order; parents that lead to no registered
parameter get no gradient, and an op computes none for them.  A dense
layer (affine map, activation and dropout mask) is one node,
:func:`dense`; so are the Gaussian reparameterization,
:func:`reparameterize`, and a weighted sum of scalar loss terms,
:func:`weighted_sum`.

Everything is 64-bit; the gradient-check tolerances used by the test
suite are not attainable in single precision.
"""

from __future__ import annotations

import ctypes
import functools
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from ..exceptions import ContractViolation
from .store import FlatStore

Array = np.ndarray

ACTIVATIONS = ("relu", "identity")

# A dense forward runs as two row parts, the first on a worker thread,
# when the process may use two CPUs and BLAS runs each product on one
# thread.  (With more BLAS threads a product already uses the second
# core: at two, splitting made the benchmark's rank queries 6% and its
# evaluate 12% slower.)  The first part is the largest multiple of
# SPLIT_ALIGN rows not above half the rows; each part must hold at least
# SPLIT_ROWS rows (so 128-row training batches never split) and
# SPLIT_MACS multiply-adds.  Then every row's bits equal the one-call
# product's.  OpenBLAS 0.3.31 on a Sapphire Rapids Xeon gave other bits in
# rows near a part boundary that is not a multiple of 24, where the
# output width is not a multiple of 8, and in parts under 10**6
# multiply-adds, which take its small-matrix kernel where the whole
# product did not; 48 also covers kernels that tile 16 rows.  At one
# BLAS thread on that 2-core VM, 500 rows of 512 -> 256 took 2.6 ms split
# against 4.3 ms whole (median), 3.4 against 4.7 ms in the mean.  Parts
# of 2 to 8 million multiply-adds gained at the median but mostly lost
# in the mean: the worker's CPU, idle between calls, sometimes took
# milliseconds to start or finish its part.  There, single-thread work
# also ran about 10% slower for a while after a run of splits, so
# SPLIT_MACS leaves out the 256 -> 128 layer of a 512-row scoring block
# (parts of 2**23).
SPLIT_ROWS = 144
SPLIT_ALIGN = 48
SPLIT_MACS = 2 ** 24
# On a host whose other tenants share the second core, split products
# can take longer than one-call ones for minutes at a time: there a
# split over 500 rows of 512 -> 256 took 5.7 ms in the mean against
# 4.6 ms whole.  So each split is timed against the one-call time its
# caller's part implies, and when a moving average of those ratios (over
# about 16 splits) rises above 1, the next SPLIT_BACKOFF forwards that
# would split run both parts on the caller.  The average starts, and
# starts again after a back-off, at 0.5, an even split.  Started at 1,
# a single slow split backed off: the benchmark's serve workload ran 20%
# of its splittable forwards on the caller in a run whose median ratio
# was 0.58.
SPLIT_BACKOFF = 32


class _Splitter:
    """The worker thread, made on first use, and how well splits paid."""

    def __init__(self):
        self.lock = threading.Lock()
        self.worker: ThreadPoolExecutor | None = None
        self.ratio = 0.5  # moving average of split time / one-call time
        self.skip = 0     # forwards left to run both parts on the caller

    def take_turn(self) -> ThreadPoolExecutor | None:
        """The worker for this forward's first part, or None to run both
        parts on the caller."""
        with self.lock:
            if self.skip:
                self.skip -= 1
                return None
            if self.worker is None:
                self.worker = ThreadPoolExecutor(max_workers=1)
            return self.worker

    def record(self, ratio: float) -> None:
        with self.lock:
            self.ratio += (ratio - self.ratio) / 16
            if self.ratio > 1.0:
                self.ratio, self.skip = 0.5, SPLIT_BACKOFF


_splitter = _Splitter()


def _new_splitter() -> None:
    global _splitter
    _splitter = _Splitter()


if hasattr(os, "register_at_fork"):
    # a forked child has no worker thread, and the lock may have been held
    # by another thread; the child starts afresh
    os.register_at_fork(after_in_child=_new_splitter)


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


@functools.cache
def _blas_threads() -> int | None:
    """Threads the OpenBLAS of a numpy wheel runs a product on, read once;
    None for a BLAS that cannot be asked, where forwards never split."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


class Tensor:
    """A node in the computation graph.

    ``data`` is a float64 ndarray and must not be mutated while a graph
    that holds it is in use; forward evaluation is therefore safe from
    multiple threads, while a graph/backward pass is single-threaded.
    A large :func:`dense` forward hands part of its rows to one worker
    thread that all callers share; its result does not depend on that.
    A parameter leaf shares its array with the parameter store, and
    :func:`~vadeers.nnkernel.optim.adam_step` updates those arrays in
    place, between graphs: build a new graph after each step.

    ``backward(g, needs, outs)`` gets the upstream gradient, one flag per
    parent, true where that parent leads to a registered parameter, and
    one array or None per parent, and returns one gradient per parent;
    it may return None where the flag is false.  An array in ``outs`` is
    the parent's own gradient slot, which the op may fill and return in
    place of a new array.  It must not write to ``g``.

    Tensors compare and hash by identity: the gradient engine keys its
    sets and dicts on them.
    """

    __slots__ = ("data", "parents", "name", "_backward")

    def __init__(
        self,
        data,
        parents: tuple["Tensor", ...] = (),
        backward: Callable[[Array, tuple[bool, ...]],
                           tuple[Array | None, ...]] | None = None,
        name: str | None = None,
    ):
        self.data = np.asarray(data, dtype=np.float64)
        self.parents = parents
        self.name = name
        self._backward = backward

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}{tag})"


def wrap(x) -> Tensor:
    """Return ``x`` itself if it is a Tensor, else a constant leaf."""
    return x if isinstance(x, Tensor) else Tensor(x)


# ---------------------------------------------------------------------------
# primitive operations
# ---------------------------------------------------------------------------

def tmean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = wrap(a)
    shape = a.shape
    count = a.data.size if axis is None else shape[axis]

    def backward(g, needs, outs):
        gg = g if axis is None or keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg / count, shape).copy(),)

    return Tensor(a.data.mean(axis=axis, keepdims=keepdims), (a,), backward)


def reshape(a, shape: tuple[int, ...]) -> Tensor:
    a = wrap(a)
    orig = a.shape
    return Tensor(a.data.reshape(shape), (a,),
                  lambda g, needs, outs: (g.reshape(orig),))


def concat(tensors: Sequence, axis: int = 1) -> Tensor:
    ts = tuple(wrap(t) for t in tensors)
    splits = np.cumsum([t.shape[axis] for t in ts])[:-1]
    return Tensor(np.concatenate([t.data for t in ts], axis=axis), ts,
                  lambda g, needs, outs: tuple(np.split(g, splits, axis=axis)))


def take_rows(a, indices) -> Tensor:
    """Row gather with scatter-add backward; indices are constants."""
    a = wrap(a)
    idx = np.asarray(indices, dtype=np.intp)
    if a.ndim != 2:
        raise ContractViolation(f"take_rows expects a 2-D tensor, got {a.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[0]):
        raise ContractViolation(
            f"take_rows index out of range for {a.shape[0]} rows"
        )

    def backward(g, needs, outs):
        out = np.zeros_like(a.data)
        np.add.at(out, idx, g)
        return (out,)

    return Tensor(a.data[idx], (a,), backward)


def dense(x, weights, bias, activation: str = "identity",
          mask: Array | None = None) -> Tensor:
    """One dense layer as one node: ``act(x @ W + b) * mask``.

    ``activation`` is "relu" or "identity"; ``mask`` is an optional
    constant (n, out) array multiplied in after the activation (inverted
    dropout).  The bias, activation and mask are applied in place on the
    node's own output, so the layer keeps a single activation array.  The
    backward pass recovers the relu gate (subgradient 0 at 0) from that
    output: where the mask is nonzero the output is positive exactly
    where the pre-activation is, and where it is zero the gradient is
    zero either way.

    The forward product may run in two row parts, by the rule of
    ``SPLIT_ROWS``, ``SPLIT_ALIGN`` and ``SPLIT_MACS``, when BLAS runs on
    one thread; every row's bits equal the one-call product's.  The
    first part runs on a worker thread, under the caller's
    ``np.errstate``, unless recent splits did not pay (``SPLIT_BACKOFF``);
    then it runs on the caller.
    ``dense`` returns or raises only once both parts are done.  The
    backward pass always runs on the calling thread."""
    x, weights, bias = wrap(x), wrap(weights), wrap(bias)
    if x.ndim != 2 or weights.ndim != 2:
        raise ContractViolation(
            f"affine expects 2-D input and weights, got {x.shape} and {weights.shape}"
        )
    if x.shape[1] != weights.shape[0]:
        raise ContractViolation(
            f"affine shape mismatch: input {x.shape} vs weights {weights.shape}"
        )
    if bias.data.shape != (weights.shape[1],):
        raise ContractViolation(
            f"affine bias shape {bias.shape} does not match weights {weights.shape}"
        )
    if activation not in ACTIVATIONS:
        raise ContractViolation(f"unknown activation {activation!r}")
    if mask is not None and mask.shape != (x.shape[0], weights.shape[1]):
        raise ContractViolation(
            f"dense mask shape {mask.shape} does not match output "
            f"{(x.shape[0], weights.shape[1])}"
        )
    relu = activation == "relu"
    out = _dense_forward(x.data, weights.data, bias.data, relu, mask)

    # the closure holds the output array, not the node: a node reachable
    # from its own backward would be a reference cycle, and the whole
    # graph below it would wait for the cycle collector
    def backward(g, needs, outs):
        if mask is not None:
            g = g * mask
            if relu:
                g *= out > 0.0
        elif relu:
            g = g * (out > 0.0)
        return (g @ weights.data.T if needs[0] else None,
                np.matmul(x.data.T, g, out=outs[1]) if needs[1] else None,
                g.sum(axis=0, out=outs[2]) if needs[2] else None)

    return Tensor(out, (x, weights, bias), backward)


def _dense_rows(x, weights, bias, relu, mask, out, rows) -> None:
    """``act(x @ W + b) * mask`` of the rows ``rows``, into ``out``."""
    o = out[rows]
    np.matmul(x[rows], weights, out=o)
    o += bias
    if relu:
        np.maximum(o, 0.0, out=o)
    if mask is not None:
        o *= mask[rows]


def _dense_rows_in(err: dict, *args) -> None:
    """:func:`_dense_rows` under the caller's floating-point error
    settings, which a worker thread does not inherit."""
    with np.errstate(**err):
        _dense_rows(*args)


def _dense_forward(x, weights, bias, relu, mask) -> Array:
    n = x.shape[0]
    out = np.empty((n, weights.shape[1]))
    args = (x, weights, bias, relu, mask, out)
    cut = n // 2 // SPLIT_ALIGN * SPLIT_ALIGN
    if cut < SPLIT_ROWS or cut * weights.size < SPLIT_MACS or _cpus() < 2 \
            or _blas_threads() != 1:
        _dense_rows(*args, slice(None))
        return out
    splitter = _splitter
    worker = splitter.take_turn()
    if worker is None:
        # backing off: the same two products, so the same bits at any
        # BLAS thread count
        _dense_rows(*args, slice(cut, n))
        _dense_rows(*args, slice(cut))
        return out
    start = time.perf_counter()
    future = worker.submit(_dense_rows_in, np.geterr(), *args, slice(cut))
    try:
        _dense_rows(*args, slice(cut, n))
        own = time.perf_counter() - start
    finally:
        future.result()
    splitter.record((time.perf_counter() - start) * (n - cut) / (own * n))
    return out


def reparameterize(mu, log_sigma, eps: Array) -> Tensor:
    """``mu + exp(log_sigma) * eps`` as one node; ``eps`` is constant
    noise of the same shape."""
    mu, log_sigma = wrap(mu), wrap(log_sigma)
    sigma = np.exp(log_sigma.data)
    out = mu.data + sigma * eps

    def backward(g, needs, outs):
        d_log_sigma = None
        if needs[1]:
            d_log_sigma = g * eps
            d_log_sigma *= sigma
        return (g, d_log_sigma)

    return Tensor(out, (mu, log_sigma), backward)


def weighted_sum(terms: Sequence, weights: Sequence[float]) -> Tensor:
    """``sum_i weights[i] * terms[i]`` of scalar tensors as one node; the
    weights are constants."""
    ts = tuple(wrap(t) for t in terms)
    ws = tuple(float(w) for w in weights)
    if len(ts) != len(ws) or any(t.shape != () for t in ts):
        raise ContractViolation(
            f"weighted_sum needs one weight per scalar term, got "
            f"{[t.shape for t in ts]} and {len(ws)} weights"
        )
    return Tensor(
        sum(w * t.data for w, t in zip(ws, ts)), ts,
        lambda g, needs, outs: tuple(g * w if need else None
                                     for w, need in zip(ws, needs)),
    )


# ---------------------------------------------------------------------------
# gradient engine
# ---------------------------------------------------------------------------

def _topo_order(root: Tensor) -> list[Tensor]:
    """Iterative post-order DFS; parents before children in the result.
    Tensors hash by identity, so they key the visited set directly."""
    order: list[Tensor] = []
    seen: set[Tensor] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if node in seen:
            continue
        seen.add(node)
        stack.append((node, True))
        for p in node.parents:
            if p not in seen:
                stack.append((p, False))
    return order


class GradientTape:
    """Registry of trainable parameters for one differentiable computation.

    Operations need no explicit recording: the op graph lives in the
    tensors themselves, and the tape contributes the set of parameters to
    differentiate with respect to.  Not thread-safe; use one tape per
    thread.

    A tape is bound to a :class:`FlatStore`: it registers only that
    store's own arrays, and :meth:`gradient` lays the gradients out in
    its layout.
    """

    def __init__(self, store: FlatStore):
        self._store = store
        self._params: dict[str, Tensor] = {}

    def parameter(self, name: str, value) -> Tensor:
        """Create and register a trainable leaf tensor."""
        if name in self._params:
            raise ContractViolation(f"parameter {name!r} registered twice")
        if self._store.get(name) is not value:
            raise ContractViolation(
                f"parameter {name!r} is not an array of the tape's store"
            )
        t = Tensor(value, name=name)
        self._params[name] = t
        return t

    def gradient(self, loss: Tensor) -> FlatStore:
        """Gradient of the scalar ``loss`` w.r.t. every registered parameter.

        Returns the bound store's :meth:`~FlatStore.gradient_store`
        showing each registered name, valid until the next gradient taken
        against the same store.  A parameter's first gradient is written
        into its slice, later ones are added to it in place, and a
        parameter not reachable from ``loss`` gets zeros.  If none is
        reachable the loss is not connected to this tape and a
        :class:`ContractViolation` is raised.
        """
        if loss.data.shape != ():
            raise ContractViolation(
                f"gradient target must be a scalar, got shape {loss.shape}"
            )
        if not np.isfinite(loss.data):
            raise ContractViolation("loss is not finite")
        order = _topo_order(loss)
        # nodes on a path to a registered parameter; no other node gets a
        # gradient, and ops skip the work for parents outside this set
        needed = set(self._params.values())
        for node in order:
            if not needed.isdisjoint(node.parents):
                needed.add(node)
        if self._params and loss not in needed:
            raise ContractViolation(
                "loss is not connected to any parameter registered on this tape"
            )

        out = self._store.gradient_store(self._params)
        slots = {p: out[name] for name, p in self._params.items()}
        fresh = dict(slots)  # slots no gradient has reached yet
        if loss in fresh:
            fresh.pop(loss)[...] = 1.0
        # other gradients are never written in place: a node's first
        # gradient is stored as it came, which may be another node's
        # array or a view.  A node's gradient is complete once every node
        # after it in ``order`` has run, and is dropped when it has been
        # propagated.
        grads: dict[Tensor, Array] = {loss: np.ones((), dtype=np.float64)}
        for node in reversed(order):
            g = grads.pop(node, None)
            if g is None or node._backward is None or node not in needed:
                continue
            parents = node.parents
            needs = tuple(map(needed.__contains__, parents))
            outs = tuple([fresh.pop(p, None) for p in parents])
            for parent, need, slot, pg in zip(parents, needs, outs,
                                              node._backward(g, needs, outs)):
                if not need:
                    continue
                dest = slots.get(parent)
                if dest is None:
                    acc = grads.get(parent)
                    grads[parent] = pg if acc is None else acc + pg
                elif slot is None:
                    dest += pg.reshape(dest.shape)
                elif pg is not slot:
                    dest[...] = pg.reshape(dest.shape)
        for dest in fresh.values():
            dest.fill(0.0)
        return out

