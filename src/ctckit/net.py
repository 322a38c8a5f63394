"""A small recurrent network with exact backpropagation through time.

Stacked tanh-RNN or LSTM layers (optionally bidirectional, outputs of
the two directions concatenated), followed by a per-frame affine map
and softmax over ``num_labels + 1`` classes with the blank last. The
parameters, their gradients and Adam's moments are each one buffer
with a named view per tensor, in ``param_shapes`` order (see
``ctckit.flat``). Each recurrent direction is three tensors, ``Wx``,
``Wh`` and ``b``; an LSTM keeps its four gates side by side in their
columns, in LSTM_GATES order, so one product serves all four.

One batched engine does all the work (``forward_packed`` and
``backward_packed``). It runs a length-sorted batch in the packed
layout of ``ctckit.packing``: at step t only the n_t sequences still
running are updated (``h[:n_t] @ Wh``), and the input projections, the
output layer and every weight gradient are single products over all
valid frames. A layer runs as one recurrence over its D directions
(D = 2 when bidirectional). Their gate pre-activations are one
(N, D, G·U) array, in which a step's rows are one block; each step
multiplies the previous step's outputs of every direction by that
direction's ``Wh`` in one stacked product, (D, n_t, U) @ (D, U, G·U),
and runs each elementwise operation once for all directions. The
backward direction walks the same steps through ``packing.reverse``:
its rows stay in that recurrence order, and its outputs are put back
in time order once the layer is done. Backpropagation through time
runs the same way. Training and inference run a sorted batch in groups
that each fit ``ACTIVATION_BYTES`` (``activation_groups``).
``forward`` and ``backward`` handle one sequence as a batch of one.

Every product in ``forward_packed`` runs through ``_product`` with a
W ``_padded`` to a multiple of COLUMN_MULTIPLE columns, in blocks of at
most PRODUCT_INPUTS inputs, so each row of ``A @ W`` has the same bits
whatever rows share it (README, The batched engine). So a sequence's
posteriors do not depend on its group, and ``forward`` on it alone
gives those bits.

Only frames ``[0, input_len)`` enter the recurrences in either
direction; padding frames are never gathered into the packed rows,
rows of ``forward``'s output past input_len carry softmax(output bias),
and nothing past input_len influences gradients. Forward and backward
use fixed summation orders, so results are bit-reproducible.

The engine and the gradient norm run on one BLAS thread
(``_one_blas_thread``): on more, OpenBLAS splits the packed products,
and its workers spin between the small products of a step for no more
speed (README, The batched engine). Their first call in a process pins
glibc's heap thresholds, so that a batch's temporaries reuse the pages
of the last (``_pin_heap_thresholds``).
"""

import ctypes
import math
import numbers
from dataclasses import dataclass, field
from functools import lru_cache, wraps
from types import MappingProxyType

import numpy as np

from .flat import FlatTensors, as_flat, same_layout
from .packing import STEP_BYTES, Packing

# column blocks of an LSTM direction's Wx, Wh and b: the three sigmoid
# gates, then the tanh candidate, so each nonlinearity acts on one slice
LSTM_GATES = ("i", "f", "o", "g")

# What a group's forward may keep (``stored_bytes_per_frame``), for
# training and inference. Each group runs a recurrence of its own, paid
# by the step. Training two bi-LSTM layers of 64 units on batches of
# eight sequences of 60-280 frames, this budget makes two groups a batch
# at most seeds and three at some, where 4 MiB made four to six. On a
# contended 2-CPU machine (seeds 1 and 7) that ran 11.4-13.1k frames a
# second in one process against 7.0-10.0k at 4 MiB, at a peak PSS of
# 53-54 MB either way, and 11.8-14.0k against 9.0-10.5k with ``fit``'s
# worker, which holds groups of this budget too, at 74.5-76.9 MB against
# 73.4-74.7 MB summed over both processes (README, The batched engine).
# A forward-only pass keeps one layer alive: for that net 5472
# bytes a frame at its peak, against the 12872 that training keeps.
# The peaks of a training step lie above it: traced full groups of that
# net reach 1.02x it in forward, 1.17x in the lattice (20 labels) and
# 1.44x in backward, and of a bi-RNN of 32 units 1.33x, 3.6x and 3.4x.
ACTIVATION_BYTES = 8 * 2 ** 20

COLUMN_MULTIPLE = 8  # see ``_padded``

# The inputs ``_product`` takes in one BLAS call. Past 384, OpenBLAS
# 0.3.31's SkylakeX kernel (one thread) splits the inner dimension by
# the row count, so a row's bits follow the rows beside it at every
# width; blocks of at most 384 inputs, added in a fixed order, do not
# (README, The batched engine). The 384 is a fact of that BLAS build.
PRODUCT_INPUTS = 384

# glibc's mallopt parameters (malloc.h) and the values the engine pins
# them at (``_pin_heap_thresholds``). glibc starts by mmapping every
# block of 128 KiB or more and trimming its heap's top past 128 KiB
# free; each freed mmapped block raises the mmap threshold to its size
# and the trim threshold to twice that, up to these 64-bit ceilings.
# The engine's temporaries, once under the mmap threshold, are heap
# blocks that raise neither, so each batch's growth of the heap was
# trimmed and faulted in again by the next: 6,300-8,400 minor faults
# a train-short fit, 6,900-8,400 a train-long-lstm one. Setting either
# ends the adaptive rule for good, and the trim threshold alone fixes
# the mmap threshold at 128 KiB, so both are set.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_TRIM_THRESHOLD_BYTES = 64 * 2 ** 20
_MMAP_THRESHOLD_BYTES = 32 * 2 ** 20


@lru_cache(maxsize=None)
def _openblas_thread_calls():
    """(get, set) thread-count functions of the loaded OpenBLAS, or None."""
    try:
        with open("/proc/self/maps") as maps:
            # address perms offset dev inode path; the path may hold spaces
            paths = sorted({fields[5].rstrip("\n") for fields in
                            (line.split(None, 5) for line in maps)
                            if len(fields) == 6
                            and "openblas" in fields[5].rsplit("/", 1)[-1]})
    except OSError:  # no procfs: the BLAS keeps its own thread count
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", "64_"),
                               ("openblas_", "")):
            get = getattr(lib, prefix + "get_num_threads" + suffix, None)
            set_ = getattr(lib, prefix + "set_num_threads" + suffix, None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


@lru_cache(maxsize=None)
def _pin_heap_thresholds():
    """Pin glibc's mmap and trim thresholds, once a process; whether it did.

    The setting is process-wide and permanent: glibc cannot return to
    its adaptive rule (``_MMAP_THRESHOLD_BYTES``). Without glibc's
    ``mallopt`` it does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # not glibc, or no dlopen
        return False
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    # the trim threshold only once the mmap threshold holds its value
    return bool(mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
                and mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES))


def _one_blas_thread(fn):
    """Run ``fn`` with OpenBLAS on one thread, then restore its count.

    The count is process-wide: calls from several Python threads at once
    may leave it at one. The first call in a process also pins the heap
    (``_pin_heap_thresholds``).
    """
    @wraps(fn)
    def on_one_thread(*args, **kwargs):
        _pin_heap_thresholds()
        calls = _openblas_thread_calls()
        threads = calls[0]() if calls else 1
        if threads == 1:
            return fn(*args, **kwargs)
        calls[1](1)
        try:
            return fn(*args, **kwargs)
        finally:
            calls[1](threads)
    return on_one_thread


class NonFiniteGradient(Exception):
    """A gradient tensor contains NaN or infinity; the step was aborted."""


@dataclass(frozen=True)
class LayerSpec:
    """One recurrent layer: ``kind`` "rnn" or "lstm", ``units`` per
    direction an integer >= 1 (``checked_int``, stored as an int) and
    ``bidirectional`` True or False. Anything else raises ValueError."""

    kind: str
    units: int
    bidirectional: bool = True

    def __post_init__(self):
        if self.kind not in ("rnn", "lstm"):
            raise ValueError("unknown layer kind %r" % (self.kind,))
        object.__setattr__(self, "units", checked_int("units", self.units))
        if type(self.bidirectional) is not bool:
            raise ValueError("bidirectional must be true or false, got %r"
                             % (self.bidirectional,))

    @property
    def width(self):
        return self.units * (2 if self.bidirectional else 1)


@dataclass(frozen=True)
class NetworkSpec:
    """``feature_dim`` and ``num_labels`` integers >= 1 (``checked_int``,
    stored as ints) and one LayerSpec or more, stored as a tuple.
    Anything else raises ValueError."""

    feature_dim: int
    num_labels: int
    layers: tuple

    def __post_init__(self):
        for name in ("feature_dim", "num_labels"):
            object.__setattr__(self, name, checked_int(name, getattr(self, name)))
        object.__setattr__(self, "layers", tuple(self.layers))
        if not self.layers:
            raise ValueError("at least one recurrent layer is required")
        if not all(isinstance(layer, LayerSpec) for layer in self.layers):
            raise ValueError("layers must be LayerSpecs")

    @property
    def num_classes(self):
        return self.num_labels + 1


def spec_from_dict(d):
    """The NetworkSpec of its ``dataclasses.asdict`` form (architecture.json),
    whose every layer names its kind, units and bidirectional. The types
    check the values; a missing key or a misshapen value raises
    ValueError ("malformed network description")."""
    try:
        return NetworkSpec(d["feature_dim"], d["num_labels"], tuple(
            LayerSpec(ld["kind"], ld["units"], ld["bidirectional"])
            for ld in d["layers"]))
    except (KeyError, TypeError) as err:
        raise ValueError("malformed network description: %s" % err) from err


def _directions(layer):
    return ("fwd", "bwd") if layer.bidirectional else ("fwd",)


@lru_cache(maxsize=64)
def param_shapes(spec):
    """Expected tensor names and shapes, in construction order.

    Each direction of layer l stores ``layer{l}.{dir}.Wx`` (in, G·U),
    ``Wh`` (U, G·U) and ``b`` (G·U), with G = 1 for a tanh-RNN and
    G = 4 for an LSTM, whose column blocks follow LSTM_GATES. The
    read-only mapping is made once per spec, so a model's tensors share
    it as their layout and ``as_flat`` can compare by identity.
    """
    shapes = {}
    in_dim = spec.feature_dim
    for li, layer in enumerate(spec.layers):
        cols = (len(LSTM_GATES) if layer.kind == "lstm" else 1) * layer.units
        for d in _directions(layer):
            prefix = "layer%d.%s." % (li, d)
            shapes[prefix + "Wx"] = (in_dim, cols)
            shapes[prefix + "Wh"] = (layer.units, cols)
            shapes[prefix + "b"] = (cols,)
        in_dim = layer.width
    shapes["output.W"] = (in_dim, spec.num_classes)
    shapes["output.b"] = (spec.num_classes,)
    return MappingProxyType(shapes)


def init_params(spec, seed):
    """``_init_flat_params`` as a plain dict, whose tensors may be replaced."""
    return dict(_init_flat_params(spec, seed))


def _init_flat_params(spec, seed):
    """Glorot-uniform weights, zero biases, LSTM forget bias 1.0.

    Recurrent weights take the bound of one gate block, sqrt(6 / (fan_in + U)).
    Returns a FlatTensors laid out by ``param_shapes(spec)``.
    """
    rng = np.random.default_rng(seed)
    shapes = param_shapes(spec)
    params = FlatTensors(shapes)
    for name, shape in shapes.items():
        if len(shape) == 2:
            fan_in, fan_out = shape
            if name != "output.W":  # U, the row count of the direction's Wh
                fan_out = shapes[name.rsplit(".", 1)[0] + ".Wh"][0]
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            params[name][...] = rng.uniform(-bound, bound, size=shape)
    for li, layer in enumerate(spec.layers):
        if layer.kind == "lstm":  # the forget gate, second in LSTM_GATES
            for d in _directions(layer):
                params["layer%d.%s.b" % (li, d)][layer.units:2 * layer.units] = 1.0
    return params


def log_softmax_rows(z):
    """Log-softmax of each row of a (N, K) array of logits, in one new array.

    The package's one softmax: every posterior is its ``np.exp``.
    """
    shifted = z - z.max(axis=1, keepdims=True)
    shifted -= np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return shifted


def stored_bytes_per_frame(spec, for_backward=True):
    """Bytes per packed frame that ``forward_packed(..., for_backward)`` holds.

    Both hold the input frame and the packing's four row maps
    (``Packing``, whose per-step bookkeeping ``activation_groups``
    charges per step). Before a backward, forward also keeps each
    layer's output, each LSTM direction's gates and cell state, and the
    logits. A forward-only pass keeps one layer alive, and this is its
    peak, the largest of
    - a layer's pre-activations, G·U columns for each of its
      directions, beside its input (unless it is the input frame)
      while it is projected; an LSTM's gates then sit beside its
      output, which a tanh-RNN writes over its pre-activations;
    - a bidirectional layer's output beside the backward half that is
      put back into time order;
    - the last layer's output and the logits, beside the ``_padded``
      product they are copied out of unless K is a multiple of
      COLUMN_MULTIPLE;
    - the logits, their log-softmax and the ``exp`` its row sums are
      taken of (``log_softmax_rows``).
    Left out: two steps of cell states, each step's products, and a
    layer's input rows and padded products made a chunk at a time
    (``_project``), and the lattice of a loss pass, whose width follows
    the labels.
    """
    K = spec.num_classes
    if for_backward:
        floats = spec.feature_dim + 4 + K
        for layer in spec.layers:
            floats += (6 if layer.kind == "lstm" else 1) * layer.width
        return 8 * floats
    held, peak = 0, 3 * K
    for layer in spec.layers:
        cols = (len(LSTM_GATES) if layer.kind == "lstm" else 1) * layer.units
        # an LSTM's outputs take its input's place beside the gates; a
        # tanh-RNN's outputs are its pre-activations
        outputs = layer.width if layer.kind == "lstm" else 0
        z = cols * (layer.width // layer.units)
        peak = max(peak, max(held, outputs) + z,
                   layer.width + (layer.units if layer.bidirectional else 0))
        held = layer.width
    padded = K + -K % COLUMN_MULTIPLE if K % COLUMN_MULTIPLE else 0
    peak = max(peak, held + padded + K)
    return 8 * (spec.feature_dim + 4 + peak)


def activation_groups(spec, lengths, for_backward=True):
    """Group ``lengths``, in any order, first-fit-decreasing.

    Each sequence, longest first (a stable sort), joins the first group
    with room for its frames at ``stored_bytes_per_frame(spec,
    for_backward)``, or opens one with ACTIVATION_BYTES less the
    bookkeeping (``packing.STEP_BYTES``) of a step per frame of that,
    its longest sequence; one over the budget is a group of its own.
    Returns index arrays into ``lengths``, each in the sorted order, so
    each group's lengths are non-increasing.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    order = np.argsort(-lengths, kind="stable")
    per_frame = stored_bytes_per_frame(spec, for_backward)
    groups, free = [], []  # free: the bytes each group still has room for
    for i, length in zip(order.tolist(), lengths[order].tolist()):
        need = length * per_frame
        g = next((g for g, room in enumerate(free) if room >= need), len(free))
        if g == len(free):
            groups.append([])
            free.append(ACTIVATION_BYTES - length * STEP_BYTES)
        groups[g].append(i)
        free[g] -= need
    return [np.array(group, dtype=np.int64) for group in groups]


def _padded(W):
    """W, with zero columns up to the next multiple of COLUMN_MULTIPLE.

    At other widths a row of ``a @ W`` may have bits that follow the
    rows beside it, as the BLAS picks its kernel by the column count.
    """
    cols = W.shape[-1]
    if cols % COLUMN_MULTIPLE == 0:
        return W
    padded = np.zeros(W.shape[:-1] + (cols + -cols % COLUMN_MULTIPLE,))
    padded[..., :cols] = W
    return padded


def _product(a, W, cols, out=None):
    """``(a @ W)[..., :cols]``, each row with the bits of any larger product.

    ``a`` is (n, K), or a stack (D, n, K) with W (D, K, M), run through
    the kernel of its 2-D product; W comes ``_padded``. A lone row takes
    another BLAS kernel, so it is multiplied twice and the copy dropped.
    Past PRODUCT_INPUTS inputs the product is the sum of the products
    of blocks of that many, added first to last. Written into ``out`` if
    given.
    """
    rows, inputs = a.shape[-2:]
    whole = rows > 1 and cols == W.shape[-1]
    if whole and inputs <= PRODUCT_INPUTS:
        return np.matmul(a, W, out=out)
    if rows == 1:
        a = np.repeat(a, 2, axis=-2)
    product = np.matmul(a[..., :PRODUCT_INPUTS], W[..., :PRODUCT_INPUTS, :],
                        out=out if whole else None)
    for start in range(PRODUCT_INPUTS, inputs, PRODUCT_INPUTS):
        block = slice(start, start + PRODUCT_INPUTS)
        product += a[..., block] @ W[..., block, :]
    if whole:
        return product
    if out is None:
        return product[..., :rows, :cols]
    out[...] = product[..., :rows, :cols]
    return out


def _layer_weights(params, li, layer):
    """Layer ``li``'s Wx (D, in, G·U), Wh (D, U, G·U) and b (D, G·U).

    ``params`` is a FlatTensors laid out by ``param_shapes``: a layer's
    directions are blocks of one size back to back, each its Wx, Wh and
    b, so the three stacks are views of the buffer.
    """
    dirs = _directions(layer)
    first, last = "layer%d.%s." % (li, dirs[0]), "layer%d.%s." % (li, dirs[-1])
    block = params.span(first + "Wx", last + "b").reshape(len(dirs), -1)
    in_dim, cols = params[first + "Wx"].shape
    wx, wh = in_dim * cols, layer.units * cols
    return (block[:, :wx].reshape(-1, in_dim, cols),
            block[:, wx:wx + wh].reshape(-1, layer.units, cols),
            block[:, wx + wh:])


def _project(packing, x, Wx, b):
    """A layer's input projections plus bias, (N, D, G·U) in recurrence order.

    ``Wx`` comes ``_padded``. Both directions are projected in chunks of
    rows of about 1/sqrt(N) of the size of z, so neither the backward
    direction's input ``x[packing.reverse]`` nor a padded product is
    made whole. Every product is written into z.
    """
    N = packing.num_frames
    D, cols = b.shape
    z = np.empty((N, D, cols))
    chunk = max(1, D * cols * math.isqrt(N) // Wx.shape[1])
    for start in range(0, N, chunk):
        rows = slice(start, start + chunk)
        _product(x[rows], Wx[0], cols, out=z[rows, 0])
        if D == 2:
            _product(x[packing.reverse[rows]], Wx[1], cols, out=z[rows, 1])
    z += b
    return z


def _rnn_steps(packing, z, Wh):
    """h_t = tanh(z_t + h_{t-1} Wh) for every direction, over z in place."""
    units, prev = z.shape[-1], None
    for start, n in packing.steps:
        zt = z[start:start + n]
        if prev is not None:
            zt += _product(z[prev:prev + n].transpose(1, 0, 2), Wh,
                           units).transpose(1, 0, 2)
        np.tanh(zt, out=zt)
        prev = start
    return z


def _lstm_steps(packing, z, Wh, keep):
    """LSTM recurrence of every direction; z turns into the gate activations.

    ``z`` (N, D, 4U) holds the input projections plus bias in
    LSTM_GATES column order. Each step works on a copy of its rows with
    the gates outermost, (4, n, D, U), so that each elementwise
    operation runs once, on contiguous memory. Returns the outputs h
    (N, D, U) and, with ``keep``, the cell states c (N, D, U), with the
    activations copied back into z for backward. Without it only two
    steps of c are held, and c is None.
    """
    units = Wh.shape[1]
    N, D = z.shape[:2]
    first = packing.steps[0][1]
    h = np.empty((N, D, units))
    c = np.empty((N if keep else 2 * first, D, units))
    acts = np.empty(4 * first * D * units)
    h_prev = c_prev = None
    # exp(-x) overflows to inf for very negative x; 1 / (1 + inf) = 0 is
    # the correct sigmoid limit
    with np.errstate(over="ignore"):
        for k, (start, n) in enumerate(packing.steps):
            rows = slice(start, start + n)
            at = start if keep else k % 2 * first
            zt = z[rows].reshape(n, D, 4, units).transpose(2, 0, 1, 3)
            a = acts[:4 * n * D * units].reshape(4, n, D, units)
            if h_prev is None:
                np.copyto(a, zt)
            else:
                product = _product(h_prev[:n].transpose(1, 0, 2), Wh, 4 * units)
                np.add(zt, product.reshape(D, n, 4, units).transpose(2, 1, 0, 3),
                       out=a)
            s = a[:3]
            np.negative(s, out=s)
            np.exp(s, out=s)
            s += 1.0
            np.reciprocal(s, out=s)
            np.tanh(a[3], out=a[3])
            ct = c[at:at + n]
            np.multiply(a[0], a[3], out=ct)
            if c_prev is not None:
                ct += a[1] * c_prev[:n]
            ht = h[rows]
            np.tanh(ct, out=ht)
            ht *= a[2]
            if keep:
                np.copyto(zt, a)
            h_prev, c_prev = ht, ct
    return h, (c if keep else None)


def _rnn_grad_steps(packing, h, dh, Wh):
    """Gradient w.r.t. the pre-activations, given dL/dh from above.

    ``h`` and ``dh`` are (N, D, U) in recurrence order; returns dz in it.
    Each step's rows of dz start as 1 - h², turned into the gradient in
    place.
    """
    dz = 1.0 - h * h
    dh_next = np.zeros((packing.steps[0][1],) + h.shape[1:])
    WhT = Wh.transpose(0, 2, 1)
    for start, n in reversed(packing.steps):
        dzt = dz[start:start + n]
        np.multiply(dh[start:start + n] + dh_next[:n], dzt, out=dzt)
        np.matmul(dzt.transpose(1, 0, 2), WhT, out=dh_next[:n].transpose(1, 0, 2))
    return dz


def _lstm_grad_steps(packing, gates, c, dh, Wh):
    """Gradient w.r.t. the fused gate pre-activations, given dL/dh from above.

    ``gates`` (N, D, 4U), ``c`` and ``dh`` (N, D, U) are in recurrence
    order, and so is the returned dz. Backward consumes the cache: dz is
    written over ``gates`` block by block, and ``c`` turns into dc/dh.
    Walking backward in time, a sequence's rows of dh_next and dc_next
    stay zero until the walk reaches its last frame.
    """
    D, units = c.shape[1:]
    first = packing.steps[0][1]
    i, f, o, g = (gates[..., k * units:(k + 1) * units] for k in range(4))
    # the i and g blocks turn into dz/dc, g i (1 - i) and i (1 - g²)
    g_i = g * i
    np.multiply(g, g, out=g)
    np.subtract(1.0, g, out=g)
    g *= i
    np.subtract(1.0, i, out=i)
    i *= g_i
    del g_i
    # the f block into dz/dc, c_prev f (1 - f), with c_prev zero on the
    # first step; the loop's dc_next takes f from a copy
    f_kept = f.copy()
    c_prev_f = c[packing.prev_rows]
    c_prev_f *= f_kept[first:]
    np.subtract(1.0, f, out=f)
    f[:first] = 0.0
    f[first:] *= c_prev_f
    del c_prev_f
    # dc/dh, o (1 - tanh²(c)), over c, and dz/dh for the o block,
    # tanh(c) o (1 - o); the loop writes the o block's gradient
    tc = np.tanh(c, out=c)
    do_dh = tc * o
    np.multiply(tc, tc, out=tc)
    np.subtract(1.0, tc, out=tc)
    dc_dh = np.multiply(tc, o, out=tc)
    np.subtract(1.0, o, out=o)
    do_dh *= o
    dh_next = np.zeros((first, D, units))
    dc_next = np.zeros_like(dh_next)
    WhT = Wh.transpose(0, 2, 1)
    for start, n in reversed(packing.steps):
        rows = slice(start, start + n)
        dht = dh[rows] + dh_next[:n]
        dct = dht * dc_dh[rows]
        dct += dc_next[:n]
        dzt = gates[rows].reshape(n, D, 4, units)
        np.multiply(dzt, dct[:, :, None, :], out=dzt)
        np.multiply(do_dh[rows], dht, out=dzt[:, :, 2])
        np.matmul(gates[rows].transpose(1, 0, 2), WhT,
                  out=dh_next[:n].transpose(1, 0, 2))
        np.multiply(dct, f_kept[rows], out=dc_next[:n])
    return gates


def _recurrence_order(packing, a, directions):
    """(N, D·U) layer columns as (N, D, U), the backward half put in
    recurrence order in place."""
    a = a.reshape(len(a), directions, -1)
    if directions == 2:
        a[:, 1] = a[packing.reverse, 1]
    return a


@dataclass
class BatchCache:
    """Activations of a packed batch, recorded by forward for backward.

    ``layers`` holds, per layer, its packed input, its packed output
    (N, D·U) and an LSTM's (gates (N, D, 4U), cell states (N, D, U)) in
    recurrence order, or None for a tanh-RNN, whose output is all
    backward needs. Backward consumes them (``backward_packed``) and
    leaves ``layers`` None.
    """

    packing: Packing
    layers: list = field(repr=False)
    logits: np.ndarray = field(repr=False)


@dataclass
class NetCache:
    """Activations of one sequence, recorded by forward for backward."""

    input_len: int
    num_frames: int
    batch: BatchCache = field(repr=False)

    @property
    def logits(self):
        return self.batch.logits


@_one_blas_thread
def forward_packed(spec, params, packing, frames, for_backward=True):
    """Run the network over the packed frames of a length-sorted batch.

    ``frames`` is (N, feature_dim) in ``packing``'s row order. Each
    layer projects its input for all its directions (``_project``);
    step t then multiplies only the n_t rows still running by the
    recurrent matrices, every direction in one stacked product. The
    backward direction runs every sequence from its own last frame, and
    its outputs are put back in time order once the layer is done.
    Returns (logits (N, num_classes), BatchCache).

    Without ``for_backward`` the cache is None and one layer is alive
    at a time: a layer's input is freed once projected, an LSTM keeps
    the cell states of two steps, and the gates are freed once the
    recurrence is done (``stored_bytes_per_frame``). The logits are the
    same bits either way.
    """
    params = as_flat(params, param_shapes(spec))
    x = frames
    layers = []
    for li, layer in enumerate(spec.layers):
        Wx, Wh, b = _layer_weights(params, li, layer)
        z = _project(packing, x, _padded(Wx), b)
        if not for_backward:
            x = None  # frees the layer's input, unless it is the frames
        if layer.kind == "rnn":
            h, c = _rnn_steps(packing, z, _padded(Wh)), None
        else:
            h, c = _lstm_steps(packing, z, _padded(Wh), for_backward)
        y = h.reshape(packing.num_frames, layer.width)
        if for_backward:
            layers.append((x, y, None if c is None else (z, c)))
        # only x may hold the output into the next layer, which frees it
        x = y
        del y, z, h, c
        if layer.bidirectional:  # the backward outputs into time order
            x[:, layer.units:] = x[packing.reverse, layer.units:]
    logits = _product(x, _padded(params["output.W"]), spec.num_classes,
                      out=np.empty((packing.num_frames, spec.num_classes)))
    logits += params["output.b"]
    if not for_backward:
        return logits, None
    return logits, BatchCache(packing=packing, layers=layers, logits=logits)


def _layer_backward(params, li, layer, packing, layers, dy, grads):
    """Backpropagation through time for layer ``li``, all directions in one loop.

    Pops the layer's (input, output, state) off ``layers``, the
    BatchCache's, and consumes them: the output and ``dy``, dL/d(output),
    are put in recurrence order in place, and an LSTM's gates turn into
    dz. Writes the layer's weight gradients into ``grads`` and returns
    dL/d(input), or None for the first layer.
    """
    x, h, state = layers.pop()
    Wx, Wh, _ = _layer_weights(params, li, layer)
    D = len(Wx)
    dh = _recurrence_order(packing, dy, D)
    h = _recurrence_order(packing, h, D)
    if layer.kind == "rnn":
        dz = _rnn_grad_steps(packing, h, dh, Wh)
    else:
        dz = _lstm_grad_steps(packing, *state, dh, Wh)
    del state  # frees an LSTM's cell states, by now dc/dh
    first = packing.steps[0][1]
    dx = None
    for d, name in enumerate(_directions(layer)):
        prefix = "layer%d.%s." % (li, name)
        # each direction's dz contiguous, as its own products had it: a
        # product with one column runs a dot product, whose bits follow
        # the stride of its operands
        dz_d = np.ascontiguousarray(dz[:, d])
        np.matmul(h[packing.prev_rows, d].T, dz_d[first:], out=grads[prefix + "Wh"])
        if d:  # into time order, straight from dz
            del dz_d
            dz_d = dz[packing.reverse, d]
        if d == D - 1:
            del dz, h
        np.matmul(x.T, dz_d, out=grads[prefix + "Wx"])
        dz_d.sum(axis=0, out=grads[prefix + "b"])
        if li:  # the input frames need no gradient
            dx_d = dz_d @ Wx[d].T
            if dx is None:
                dx = dx_d
            else:
                dx += dx_d
        del dz_d
    return dx


@_one_blas_thread
def backward_packed(spec, params, cache, grad_logits):
    """Exact parameter gradients, summed over the batch of ``cache``.

    ``grad_logits`` is (N, num_classes) in the packed row order. Each
    layer runs backpropagation through time for all its directions in
    one loop (``_layer_backward``); every weight gradient is one product
    over all N rows, written into a new FlatTensors laid out by
    ``param_shapes(spec)``. Backward consumes the cache: it takes
    ``cache.layers``, writes over them and frees each layer's once its
    gradients are written. A second backward on the cache raises
    ValueError.
    """
    params = as_flat(params, param_shapes(spec))
    layers = cache.layers
    if layers is None:
        raise ValueError("the cache was consumed by an earlier backward")
    if len(layers) != len(spec.layers) or any(
        y.shape[1] != layer.width or (state is None) != (layer.kind == "rnn")
        for (_, y, state), layer in zip(layers, spec.layers)
    ):
        raise ValueError("cache does not match the network spec")
    cache.layers = None
    grads = FlatTensors(param_shapes(spec))
    np.matmul(layers[-1][1].T, grad_logits, out=grads["output.W"])
    grad_logits.sum(axis=0, out=grads["output.b"])
    dy = grad_logits @ params["output.W"].T
    for li in range(len(spec.layers) - 1, -1, -1):
        dy = _layer_backward(params, li, spec.layers[li], cache.packing,
                             layers, dy, grads)
    return grads


def sequence_frames(spec, features, input_len=None):
    """One sequence's features as a float64 (T, feature_dim) array, and its input_len.

    ``input_len`` defaults to T and must be an integer (``checked_int``)
    in [1, T].
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != spec.feature_dim:
        raise ValueError(
            "features must be (T, %d), got %r" % (spec.feature_dim, features.shape)
        )
    T = features.shape[0]
    input_len = checked_int("input_len", T if input_len is None else input_len,
                            -2 ** 63)
    if not 1 <= input_len <= T:
        raise ValueError("input_len %d outside [1, %d]" % (input_len, T))
    return features, input_len


def forward(spec, params, features, input_len=None):
    """Run the network over one sequence, as a batch of one.

    Returns (probs, cache): probs has one row per input frame, each row
    a distribution over the num_labels + 1 classes; rows at
    t >= input_len are masked padding (they carry softmax(output bias))
    and must not be consumed downstream.
    """
    features, input_len = sequence_frames(spec, features, input_len)
    T = features.shape[0]
    logits, batch = forward_packed(
        spec, params, Packing([input_len]), features[:input_len]
    )
    probs = np.empty((T, spec.num_classes))
    probs[:input_len] = np.exp(log_softmax_rows(logits))
    probs[input_len:] = np.exp(log_softmax_rows(params["output.b"][None, :]))
    return probs, NetCache(input_len=input_len, num_frames=T, batch=batch)


def backward(spec, params, cache, grad_logits):
    """Exact parameter gradients for the loss behind ``grad_logits``.

    ``grad_logits`` is (T, num_classes) with rows at t >= input_len
    exactly zero (they are padding and carry no loss). Backward consumes
    the cache (``backward_packed``): a second call on it raises
    ValueError.
    """
    grad_logits = np.asarray(grad_logits, dtype=np.float64)
    if grad_logits.shape != (cache.num_frames, spec.num_classes):
        raise ValueError(
            "grad_logits must be (%d, %d), got %r"
            % (cache.num_frames, spec.num_classes, grad_logits.shape)
        )
    if np.any(grad_logits[cache.input_len:]):
        raise ValueError("grad_logits rows beyond input_len must be zero")
    return backward_packed(spec, params, cache.batch,
                           grad_logits[:cache.input_len])


# Adam's moment decays and the epsilon beside its root (Kingma & Ba 2015)
ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON = 0.9, 0.999, 1e-8


@dataclass
class OptimizerState:
    kind: str
    learning_rate: float
    step: int = 0
    m: FlatTensors | None = None
    v: FlatTensors | None = None


def checked_int(name, value, minimum=1):
    """``value`` as an int if an integer in [minimum, 2**63), a numpy
    integer among them; anything else, a bool, a float or a string
    among them, raises a ValueError that names the argument. numpy
    sizes arrays with int64, so no larger count can size one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError("%s must be an integer, got %r" % (name, value))
    number = int(value)
    if not minimum <= number < 2 ** 63:
        raise ValueError("%s must be an integer in [%d, 2**63), got %d"
                         % (name, minimum, number))
    return number


def checked_real(name, value, positive=True):
    """``value`` as a float if a finite real number > 0 (or 0, unless
    ``positive``); anything else, a bool or a string among them, raises
    a ValueError that names the argument."""
    number = math.nan
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an int past the float range
            number = math.inf
    if not math.isfinite(number) or number < 0.0 or positive and number == 0.0:
        raise ValueError("%s must be a finite number %s 0, got %r"
                         % (name, ">" if positive else ">=", value))
    return number


def init_optimizer(kind, learning_rate, params):
    """Optimizer state for ``params``; Adam's moments take their layout.

    ``learning_rate`` must be a finite number >= 0 (``checked_real``),
    so no step turns the parameters to NaN; a rate of 0 leaves them be.
    """
    if kind not in ("sgd", "adam"):
        raise ValueError("unknown optimizer %r (expected 'sgd' or 'adam')" % (kind,))
    rate = checked_real("learning_rate", learning_rate, positive=False)
    state = OptimizerState(kind=kind, learning_rate=rate)
    if kind == "adam":
        shapes = as_flat(params).shapes
        state.m, state.v = FlatTensors(shapes), FlatTensors(shapes)
    return state


@_one_blas_thread
def global_grad_norm(grads):
    """The 2-norm of all gradients, one dot product on one BLAS thread.

    With more threads OpenBLAS splits a long dot product, and its bits
    then depend on the thread count.
    """
    flat = as_flat(grads).flat
    return float(np.sqrt(np.dot(flat, flat)))


def clip_by_global_norm(grads, max_norm):
    """Scale all gradients down when their joint norm exceeds max_norm.

    ``max_norm`` must be a finite number > 0 (``checked_real``).
    Returns ``grads`` itself when it does not clip. When it clips, it
    scales ``as_flat(grads)`` in place and returns a new FlatTensors
    over that buffer: a FlatTensors ``grads`` is itself scaled, a plain
    dict is left as it was.
    """
    max_norm = checked_real("max_norm", max_norm)
    flat = as_flat(grads)
    norm = global_grad_norm(flat)
    if norm <= max_norm or norm == 0.0:
        return grads
    flat.flat *= max_norm / norm
    return FlatTensors(flat.shapes, flat.flat)


def optimizer_step(state, params, grads):
    """Apply one update in place; no tensor is touched on error.

    ``params`` and Adam's moments are FlatTensors of one layout (see
    ``as_flat``), updated whole; ``grads`` may be any mapping with the
    same names and shapes.

    SGD: p <- p - lr * g. Adam: bias-corrected first/second moments with
    epsilon added outside the square root, so the first step moves each
    parameter by about lr regardless of gradient scale.
    """
    if not isinstance(params, FlatTensors):
        raise TypeError("params must be a FlatTensors (see as_flat)")
    if state.kind == "adam" and not all(
            same_layout(t.shapes, params.shapes) for t in (state.m, state.v)):
        raise ValueError("optimizer moments are not laid out as the parameters")
    grads = as_flat(grads, params.shapes)
    g = grads.flat
    if not np.isfinite(g).all():
        name = next(n for n in sorted(grads) if not np.isfinite(grads[n]).all())
        raise NonFiniteGradient("non-finite gradient in tensor %s" % name)
    lr = state.learning_rate
    if state.kind == "sgd":
        params.flat -= lr * g
        return params, state
    state.step += 1
    c1 = 1.0 - ADAM_BETA1 ** state.step
    c2 = 1.0 - ADAM_BETA2 ** state.step
    m, v = state.m.flat, state.v.flat
    scratch = np.empty_like(g)
    m *= ADAM_BETA1
    m += np.multiply(g, 1.0 - ADAM_BETA1, out=scratch)
    v *= ADAM_BETA2
    v += np.multiply(np.square(g, out=scratch), 1.0 - ADAM_BETA2, out=scratch)
    # lr * (m / c1) / (sqrt(v / c2) + eps) in that order, so each
    # element gets the bits of the per-tensor expression
    np.sqrt(np.divide(v, c2, out=scratch), out=scratch)
    scratch += ADAM_EPSILON
    update = m / c1
    update *= lr
    update /= scratch
    params.flat -= update
    return params, state
