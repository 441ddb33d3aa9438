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

from typing import Callable, Sequence

import numpy as np

from ..exceptions import ContractViolation
from .store import FlatStore, pack

Array = np.ndarray

ACTIVATIONS = ("relu", "identity")


class Tensor:
    """A node in the computation graph.

    ``data`` is a float64 ndarray and must not be mutated while a graph
    that holds it is in use; forward evaluation is therefore safe from
    multiple threads, while a graph/backward pass is single-threaded.
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

    # operator sugar
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __neg__(self):
        return neg(self)


def wrap(x) -> Tensor:
    """Return ``x`` itself if it is a Tensor, else a constant leaf."""
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(grad: Array, shape: tuple[int, ...]) -> Array:
    """Sum ``grad`` down to ``shape`` undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# ---------------------------------------------------------------------------
# primitive operations
# ---------------------------------------------------------------------------

def add(a, b) -> Tensor:
    a, b = wrap(a), wrap(b)
    sa, sb = a.shape, b.shape
    return Tensor(
        a.data + b.data, (a, b),
        lambda g, needs, outs: (_unbroadcast(g, sa) if needs[0] else None,
                                _unbroadcast(g, sb) if needs[1] else None),
    )


def sub(a, b) -> Tensor:
    a, b = wrap(a), wrap(b)
    sa, sb = a.shape, b.shape
    return Tensor(
        a.data - b.data, (a, b),
        lambda g, needs, outs: (_unbroadcast(g, sa) if needs[0] else None,
                                _unbroadcast(-g, sb) if needs[1] else None),
    )


def mul(a, b) -> Tensor:
    a, b = wrap(a), wrap(b)
    sa, sb = a.shape, b.shape
    return Tensor(
        a.data * b.data, (a, b),
        lambda g, needs, outs: (
            _unbroadcast(g * b.data, sa) if needs[0] else None,
            _unbroadcast(g * a.data, sb) if needs[1] else None,
        ),
    )


def neg(a) -> Tensor:
    a = wrap(a)
    return Tensor(-a.data, (a,), lambda g, needs, outs: (-g,))


def exp(a) -> Tensor:
    a = wrap(a)
    out = np.exp(a.data)
    return Tensor(out, (a,), lambda g, needs, outs: (g * out,))


def square(a) -> Tensor:
    a = wrap(a)
    return Tensor(a.data * a.data, (a,),
                  lambda g, needs, outs: (2.0 * a.data * g,))


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = wrap(a)
    shape = a.shape

    def backward(g, needs, outs):
        gg = g if axis is None or keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, shape).copy(),)

    return Tensor(a.data.sum(axis=axis, keepdims=keepdims), (a,), backward)


def tmean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = wrap(a)
    shape = a.shape
    count = a.data.size if axis is None else shape[axis]

    def backward(g, needs, outs):
        gg = g if axis is None or keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg / count, shape).copy(),)

    return Tensor(a.data.mean(axis=axis, keepdims=keepdims), (a,), backward)


def logsumexp(a, axis: int, keepdims: bool = False) -> Tensor:
    """Stable log-sum-exp along ``axis`` (max-subtraction)."""
    a = wrap(a)
    m = np.max(a.data, axis=axis, keepdims=True)
    out = m + np.log(np.sum(np.exp(a.data - m), axis=axis, keepdims=True))

    def backward(g, needs, outs):
        e = np.exp(a.data - m)
        soft = e / e.sum(axis=axis, keepdims=True)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (soft * gg,)

    return Tensor(out if keepdims else np.squeeze(out, axis=axis), (a,),
                  backward)


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
    zero either way."""
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
    out = x.data @ weights.data
    out += bias.data
    if relu:
        np.maximum(out, 0.0, out=out)
    if mask is not None:
        out *= mask

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

    A tape bound to a :class:`FlatStore` registers only that store's own
    arrays, and :meth:`gradient` lays the gradients out in its layout.
    """

    def __init__(self, store: FlatStore | None = None):
        self._store = store
        self._params: dict[str, Tensor] = {}

    def parameter(self, name: str, value) -> Tensor:
        """Create and register a trainable leaf tensor."""
        if name in self._params:
            raise ContractViolation(f"parameter {name!r} registered twice")
        if self._store is not None and self._store.get(name) is not value:
            raise ContractViolation(
                f"parameter {name!r} is not an array of the tape's store"
            )
        t = Tensor(value, name=name)
        self._params[name] = t
        return t

    def gradient(self, loss: Tensor) -> FlatStore:
        """Gradient of the scalar ``loss`` w.r.t. every registered parameter.

        Returns a store showing each registered name.  With a bound store
        it is that store's :meth:`~FlatStore.gradient_store`, valid until
        the next gradient taken against the same store; without one, the
        names are packed in registration order into a new vector.  A
        parameter's first gradient is written into its slice, later ones
        are added to it in place, and a parameter not reachable from
        ``loss`` gets zeros.  If none is reachable the loss is not
        connected to this tape and a :class:`ContractViolation` is
        raised.
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

        if self._store is not None:
            out = self._store.gradient_store(self._params)
        else:
            out = FlatStore(pack((n, p.shape) for n, p in self._params.items()))
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


def grad(loss: Tensor, tape: GradientTape) -> FlatStore:
    """Module-level alias for :meth:`GradientTape.gradient`."""
    return tape.gradient(loss)
