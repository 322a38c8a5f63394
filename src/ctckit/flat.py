"""Named tensors stored back to back in one contiguous float64 array.

A model's parameters, their gradients and Adam's moments each live in
one such buffer, laid out in ``net.param_shapes`` order, with a view per
tensor. Code that works by name (the network, serialization)
indexes the views; the optimizer step, the gradient norm and the
clip act on the whole buffer with one array operation each, and
gradients of several groups add up with one ``+=``.
"""

import math
from collections.abc import Mapping

import numpy as np


class FlatTensors(Mapping):
    """A name -> array mapping whose arrays are views of ``flat``.

    ``flat`` holds the tensors in the order of ``shapes`` (name ->
    shape), so writing into a tensor writes into ``flat`` and one
    operation on ``flat`` acts on every tensor. The names are fixed: the
    mapping takes no new or replaced tensors. ``flat`` defaults to zeros.
    A tensor's view is made the first time it is looked up.
    """

    def __init__(self, shapes, flat=None):
        self.shapes = shapes
        self._views, self._bounds = {}, {}
        offset = 0
        for name, shape in shapes.items():
            end = offset + math.prod(shape)
            self._bounds[name] = offset, end
            offset = end
        self.flat = np.zeros(offset) if flat is None else flat

    def __getitem__(self, name):
        view = self._views.get(name)
        if view is None:
            start, end = self._bounds[name]
            view = self._views[name] = self.flat[start:end].reshape(self.shapes[name])
        return view

    def __iter__(self):
        return iter(self.shapes)

    def __len__(self):
        return len(self.shapes)

    def span(self, first, last):
        """The part of ``flat`` from tensor ``first`` through tensor ``last``."""
        return self.flat[self._bounds[first][0]:self._bounds[last][1]]

    def __reduce__(self):
        # pickle and deepcopy rebuild the views over the copied buffer;
        # a read-only ``shapes`` (see net.param_shapes) does not pickle
        return FlatTensors, (dict(self.shapes), self.flat)


def same_layout(a, b):
    """Whether two ``shapes`` mappings list the same names and shapes in one order."""
    return a is b or list(a.items()) == list(b.items())


def as_flat(tensors, shapes=None):
    """``tensors`` as a FlatTensors laid out as ``shapes``.

    ``shapes`` defaults to the tensors' own names and shapes, in their
    order. A FlatTensors already in that layout is returned as it is;
    anything else must have the names and shapes of ``shapes``, or a
    ValueError names what differs, and is copied into a new buffer.
    """
    if isinstance(tensors, FlatTensors) and (
            shapes is None or same_layout(tensors.shapes, shapes)):
        return tensors
    if shapes is None:
        shapes = {name: np.shape(t) for name, t in tensors.items()}
    if set(tensors) != set(shapes):
        missing = sorted(set(shapes) - set(tensors))
        extra = sorted(set(tensors) - set(shapes))
        raise ValueError(
            "tensor set mismatch: missing %r, unexpected %r" % (missing, extra)
        )
    for name, shape in shapes.items():
        if np.shape(tensors[name]) != shape:
            raise ValueError(
                "tensor %s has shape %r, expected %r"
                % (name, np.shape(tensors[name]), shape)
            )
    out = FlatTensors(shapes)
    for name, view in out.items():
        view[...] = tensors[name]
    return out
