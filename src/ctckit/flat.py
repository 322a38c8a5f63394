"""Named tensors stored back to back in one contiguous float64 array.

A model's parameters, their gradients and Adam's moments each live in
one such buffer, laid out in ``net.param_shapes`` order, with a view per
tensor. Code that works by name (the network, serialization, the
audit) indexes the views; the optimizer step, the gradient norm and the
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
    """

    def __init__(self, shapes, flat=None):
        self.shapes = shapes
        self.flat = np.zeros(sum(map(math.prod, shapes.values()))) \
            if flat is None else flat
        self._views, self._bounds = {}, {}
        offset = 0
        for name, shape in shapes.items():
            end = offset + math.prod(shape)
            self._views[name] = self.flat[offset:end].reshape(shape)
            self._bounds[name] = offset, end
            offset = end

    def __getitem__(self, name):
        return self._views[name]

    def __iter__(self):
        return iter(self._views)

    def __len__(self):
        return len(self._views)

    def span(self, first, last):
        """The part of ``flat`` from tensor ``first`` through tensor ``last``."""
        return self.flat[self._bounds[first][0]:self._bounds[last][1]]

    def __reduce__(self):
        # pickle and deepcopy rebuild the views over the copied buffer;
        # a read-only ``shapes`` (see net.param_shapes) does not pickle
        return FlatTensors, (dict(self.shapes), self.flat)


def check_tensors(shapes, tensors):
    """Raise ValueError unless ``tensors`` has the names and shapes of ``shapes``."""
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


def same_layout(a, b):
    """Whether two ``shapes`` mappings list the same names and shapes in one order."""
    return a is b or list(a.items()) == list(b.items())


def as_flat(tensors, shapes=None):
    """``tensors`` as a FlatTensors laid out as ``shapes``.

    ``shapes`` defaults to the tensors' own names and shapes, in their
    order. A FlatTensors already in that layout is returned as it is;
    anything else is checked against ``shapes`` (``check_tensors``) and
    copied into a new buffer.
    """
    if isinstance(tensors, FlatTensors) and (
            shapes is None or same_layout(tensors.shapes, shapes)):
        return tensors
    if shapes is None:
        shapes = {name: np.shape(t) for name, t in tensors.items()}
    check_tensors(shapes, tensors)
    out = FlatTensors(shapes)
    for name, view in out.items():
        view[...] = tensors[name]
    return out
