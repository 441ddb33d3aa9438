"""Named arrays kept as views of one contiguous vector.

A :class:`FlatStore` lays its arrays end to end in ``flat``; every name
owns one slice, reshaped to its shape.  The model's parameters and the
gradients of a tape bound to them share one layout, and the Adam moments
of an optimizer state cover one stretch of it, so a run of adjacent names
is one slice of each vector and a whole-model copy, checkpoint or update
pass is one array operation.  A float32 working copy of a float64 store
is a store of the same layout over a float32 vector.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

import numpy as np

from ..exceptions import ContractViolation

# name -> (start, stop, shape) of its slice of the flat vector
Layout = dict[str, tuple[int, int, tuple[int, ...]]]


def pack(shapes: Iterable[tuple[str, tuple[int, ...]]]) -> Layout:
    """The layout placing the named shapes end to end, in the given order."""
    layout: Layout = {}
    start = 0
    for name, shape in shapes:
        shape = tuple(int(s) for s in shape)
        stop = start + int(np.prod(shape, dtype=np.int64))
        layout[name] = (start, stop, shape)
        start = stop
    return layout


class FlatStore(Mapping):
    """Name -> array mapping whose values are views of ``flat``, a
    vector as long as the layout, float64 unless given.

    Assigning to a name copies the value into its view, so every holder
    of a view, and of ``flat``, sees the change; an unknown name, a value
    of another shape, or a store over a read-only ``flat`` raises
    :class:`ContractViolation`.  Stores made by :meth:`gradient_store`
    share their layout object with the store they came from, which is how
    :func:`~vadeers.nnkernel.optim.adam_step` knows two stores line up.  A store may show only some of its
    layout's names: the rest of ``flat`` is then unused.
    """

    __slots__ = ("layout", "flat", "_views", "_grad")

    def __init__(self, layout: Layout, flat: np.ndarray | None = None,
                 names: Iterable[str] | None = None):
        if flat is None:
            flat = np.zeros(max((stop for _, stop, _ in layout.values()),
                                default=0))
        self.layout = layout
        self.flat = flat
        self._grad: np.ndarray | None = None
        self._views = {}
        for name in layout if names is None else names:
            start, stop, shape = layout[name]
            self._views[name] = flat[start:stop].reshape(shape)

    @classmethod
    def from_arrays(cls, arrays: Mapping[str, np.ndarray]) -> "FlatStore":
        """A new store holding copies of ``arrays``, in sorted-name order."""
        store = cls(pack((n, np.shape(arrays[n])) for n in sorted(arrays)))
        for name, value in arrays.items():
            store[name] = value
        return store

    def gradient_store(self, names: Iterable[str]) -> "FlatStore":
        """A store of this layout showing ``names``, over the one work
        vector, of this store's dtype, that it lends to each call in
        turn: what an earlier result holds is overwritten.  A vector
        allocated anew at every optimizer step cost page faults that
        reuse avoids."""
        if self._grad is None:
            self._grad = np.empty(self.flat.size, dtype=self.flat.dtype)
        return FlatStore(self.layout, self._grad, names)

    def copy(self) -> "FlatStore":
        return FlatStore(self.layout, self.flat.copy(), self._views)

    def runs(self) -> list[tuple[int, int, list[str]]]:
        """(start, stop, names) of each maximal stretch of ``flat``
        covered by adjacent shown names, in vector order."""
        out: list[tuple[int, int, list[str]]] = []
        for start, stop, name in sorted((self.layout[n][0], self.layout[n][1], n)
                                        for n in self._views):
            if out and out[-1][1] == start:
                out[-1] = (out[-1][0], stop, [*out[-1][2], name])
            else:
                out.append((start, stop, [name]))
        return out

    def __getitem__(self, name: str) -> np.ndarray:
        return self._views[name]

    def __setitem__(self, name: str, value) -> None:
        view = self._views.get(name)
        if view is None:
            raise ContractViolation(f"unknown parameter {name!r}")
        if not view.flags.writeable:
            raise ContractViolation(f"parameter {name!r} is read-only")
        value = np.asarray(value, dtype=self.flat.dtype)
        if value.shape != view.shape:
            raise ContractViolation(
                f"parameter {name!r} has shape {view.shape}, got {value.shape}"
            )
        view[...] = value

    def __iter__(self):
        return iter(self._views)

    def __len__(self) -> int:
        return len(self._views)

    def __contains__(self, name) -> bool:
        return name in self._views
