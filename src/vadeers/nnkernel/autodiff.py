"""Reverse-mode automatic differentiation over float32 or float64 numpy
arrays.

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

An op computes in its operands' dtype, and returns each parent's
gradient in that parent's dtype.  The reductions to a scalar loss,
:func:`tmean` and :func:`weighted_sum` here (and the loss nodes of
:mod:`~vadeers.nnkernel.losses`, the mixture prior and the entropy term),
accumulate in float64 whatever their input, so a float32 graph has a
float64 loss while its layers run in float32.  A graph of float64 leaves
computes in float64 throughout: the gradient-check tolerances of the test
suite are not attainable in single precision.

Ops do not check their operands: shapes must match and gather indices
must be in range, or numpy raises its own ``ValueError`` or
``IndexError``.  The package checks its inputs where they enter (CSV
files, configs, checkpoints, the model's encoders).
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ..exceptions import ContractViolation
from .store import FlatStore

Array = np.ndarray


class Tensor:
    """A node in the computation graph.

    ``data`` is a float32 or float64 ndarray (anything else is cast to
    float64) and must not be mutated while a graph that holds it is in
    use; forward evaluation is therefore safe from multiple threads,
    while a graph/backward pass is single-threaded.
    :func:`~vadeers.nnkernel.parts.in_row_parts` uses this to run eval
    forwards of row parts on the caller and on one worker thread that all
    callers share.
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
        data = np.asarray(data)
        self.data = (data if data.dtype == np.float32
                     else data.astype(np.float64, copy=False))
        self.parents = parents
        self.name = name
        self._backward = backward

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

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
    """Mean over ``axis`` (all of ``a`` when None), accumulated in
    float64."""
    a = wrap(a)
    shape = a.shape
    count = a.data.size if axis is None else shape[axis]

    def backward(g, needs, outs):
        gg = g if axis is None or keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg / count, shape).astype(a.data.dtype),)

    return Tensor(a.data.mean(axis=axis, keepdims=keepdims, dtype=np.float64),
                  (a,), backward)


def reshape(a, shape: tuple[int, ...]) -> Tensor:
    a = wrap(a)
    orig = a.shape
    return Tensor(a.data.reshape(shape), (a,),
                  lambda g, needs, outs: (g.reshape(orig),))


def concat(tensors: Sequence) -> Tensor:
    """Column-wise concatenation of 2-D tensors."""
    ts = tuple(wrap(t) for t in tensors)
    splits = np.cumsum([t.shape[1] for t in ts])[:-1]
    return Tensor(np.concatenate([t.data for t in ts], axis=1), ts,
                  lambda g, needs, outs: tuple(np.split(g, splits, axis=1)))


def take_rows(a, indices) -> Tensor:
    """Row gather with scatter-add backward; indices are constants."""
    a = wrap(a)
    idx = np.asarray(indices, dtype=np.intp)

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
    zero either way.  The mask and the incoming gradient are cast to the
    output's dtype, so a float32 layer runs its backward in float32."""
    x, weights, bias = wrap(x), wrap(weights), wrap(bias)
    relu = activation == "relu"
    out = x.data @ weights.data
    out += bias.data
    if relu:
        np.maximum(out, 0.0, out=out)
    if mask is not None:
        mask = mask.astype(out.dtype, copy=False)
        out *= mask

    # the closure holds the output array, not the node: a node reachable
    # from its own backward would be a reference cycle, and the whole
    # graph below it would wait for the cycle collector
    def backward(g, needs, outs):
        g = g.astype(out.dtype, copy=False)
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


def reparameterize(mu, log_sigma, eps: Array) -> Tensor:
    """``mu + exp(log_sigma) * eps`` as one node; ``eps`` is constant
    noise of the same shape, cast to ``mu``'s dtype."""
    mu, log_sigma = wrap(mu), wrap(log_sigma)
    eps = eps.astype(mu.data.dtype, copy=False)
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
    """``sum_i weights[i] * terms[i]`` of scalar tensors as one node,
    accumulated in float64; the weights are constants."""
    ts = tuple(wrap(t) for t in terms)
    ws = tuple(float(w) for w in weights)
    return Tensor(
        sum(w * t.data.astype(np.float64) for w, t in zip(ws, ts)), ts,
        lambda g, needs, outs: tuple(
            (g * w).astype(t.data.dtype) if need else None
            for w, t, need in zip(ws, ts, needs)),
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
    """The parameter leaves of one differentiable computation.

    Operations need no explicit recording: the op graph lives in the
    tensors themselves, and the tape contributes the set of parameters to
    differentiate with respect to.  Not thread-safe; use one tape per
    thread.

    A tape is bound to a :class:`FlatStore`: it hands out leaves of that
    store's arrays only, and :meth:`gradient` lays the gradients out in
    its layout.
    """

    def __init__(self, store: FlatStore, frozen: frozenset[str] = frozenset()):
        self._store = store
        self._frozen = frozen
        self._leaves: dict[str, Tensor] = {}
        self._params: dict[str, Tensor] = {}

    def __call__(self, name: str) -> Tensor:
        """The leaf of the store's array ``name``, made on the first call;
        registered for differentiation unless ``name`` is frozen."""
        t = self._leaves.get(name)
        if t is None:
            t = self._leaves[name] = Tensor(self._store[name], name=name)
            if name not in self._frozen:
                self._params[name] = t
        return t

    def gradient(self, loss: Tensor) -> FlatStore:
        """Gradient of the finite scalar ``loss`` w.r.t. every registered
        parameter.

        Returns the bound store's :meth:`~FlatStore.gradient_store`
        showing each registered name, valid until the next gradient taken
        against the same store.  A parameter's first gradient is written
        into its slice, later ones are added to it in place, and a
        parameter not reachable from ``loss`` gets zeros.  If none is
        reachable the loss is not connected to this tape and a
        :class:`ContractViolation` is raised.
        """
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

