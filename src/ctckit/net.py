"""A small recurrent network with exact backpropagation through time.

Stacked tanh-RNN or LSTM layers (optionally bidirectional, outputs of
the two directions concatenated), followed by a per-frame affine map
and softmax over ``num_labels + 1`` classes with the blank last. The
parameters, their gradients and Adam's moments are each one buffer
with a named view per tensor, in ``param_shapes`` order (see
``ctckit.flat``). Each recurrent direction is three tensors, ``Wx``,
``Wh`` and ``b``; an LSTM keeps its four gates side by side in their
columns, in LSTM_GATES order, so one product serves all four.
``fuse_gate_tensors`` reads the older twelve-tensor LSTM layout into
this one.

One batched engine does all the work (``forward_packed`` and
``backward_packed``). It runs a length-sorted batch in the packed
layout of ``ctckit.packing``: at step t only the n_t sequences still
running are updated (``h[:n_t] @ Wh``), and the input projections, the
output layer and every weight gradient are single products over all
valid frames. Training and inference run a sorted batch in groups
(``activation_groups``) so that what a forward pass holds stays under
``ACTIVATION_BYTES``: before a backward, the activations it keeps for
backward; in a forward-only pass, which keeps one layer alive, its
peak. ``forward`` and ``backward`` handle one sequence as a batch of
one.

Every product in ``forward_packed`` has at least two rows
(``_product``): a one-row product runs another BLAS kernel, whose
bits differ, while with two rows or more a row of ``A @ W`` is the
same whatever rows share it. So the posteriors of a sequence do not
depend on the other sequences of its group, and ``forward`` on the
sequence alone gives the same bits.

Only frames ``[0, input_len)`` enter the recurrences in either
direction; padding frames are never gathered into the packed rows,
rows of ``forward``'s output past input_len carry softmax(output bias),
and nothing past input_len influences gradients. Forward and backward
use fixed summation orders, so results are bit-reproducible.

The engine and the gradient norm run on one BLAS thread
(``_one_blas_thread``), which restores the thread count on return. The
engine's packed products are large enough for OpenBLAS to split them
across threads, whose workers then spin between the many small
products of a step. Training two bi-LSTM layers of 64 units on a
2-CPU machine, two threads used 1.9 CPUs for no more speed than one,
and ran at 2100-2700 frames/s instead of 5000-6200 while another
process kept one core busy.
"""

import ctypes
from dataclasses import dataclass, field
from functools import lru_cache, wraps
from types import MappingProxyType

import numpy as np

from .flat import FlatTensors, as_flat, check_tensors, same_layout
from .packing import Packing

# column blocks of an LSTM direction's Wx, Wh and b: the three sigmoid
# gates, then the tanh candidate, so each nonlinearity acts on one slice
LSTM_GATES = ("i", "f", "o", "g")

# Activations one group may keep alive (``stored_bytes_per_frame``). A
# whole training batch at once would hold the gates, cell states and
# outputs of all its frames until backward: training two bi-LSTM layers
# of 64 units on batches of eight sequences of 60-280 frames, that took
# peak RSS from 58 to 85 MB for 8 % more speed, against 62 MB with this
# budget. CtcModel therefore runs a length-sorted batch in groups that
# each fit it, for training and inference. A forward-only pass keeps one
# layer alive: for that net it holds 5472 bytes a frame at its peak,
# against the 12840 that training keeps, so its groups hold more frames.
ACTIVATION_BYTES = 4 * 2 ** 20


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


def _one_blas_thread(fn):
    """Run ``fn`` with OpenBLAS on one thread, then restore its count.

    The count is process-wide: calls from several Python threads at once
    may leave it at one.
    """
    @wraps(fn)
    def on_one_thread(*args, **kwargs):
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
    kind: str                  # "rnn" | "lstm"
    units: int                 # per direction
    bidirectional: bool = True

    @property
    def width(self):
        return self.units * (2 if self.bidirectional else 1)


@dataclass(frozen=True)
class NetworkSpec:
    feature_dim: int
    num_labels: int
    layers: tuple

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))

    @property
    def num_classes(self):
        return self.num_labels + 1


def validate_spec(spec):
    if spec.feature_dim < 1:
        raise ValueError("feature_dim must be >= 1")
    if spec.num_labels < 1:
        raise ValueError("num_labels must be >= 1")
    if not spec.layers:
        raise ValueError("at least one recurrent layer is required")
    for layer in spec.layers:
        if layer.kind not in ("rnn", "lstm"):
            raise ValueError("unknown layer kind %r" % (layer.kind,))
        if layer.units < 1:
            raise ValueError("layer units must be >= 1")


def spec_to_dict(spec):
    return {
        "feature_dim": spec.feature_dim,
        "num_labels": spec.num_labels,
        "layers": [
            {
                "kind": layer.kind,
                "units": layer.units,
                "bidirectional": layer.bidirectional,
            }
            for layer in spec.layers
        ],
    }


def spec_from_dict(d):
    try:
        spec = NetworkSpec(
            feature_dim=int(d["feature_dim"]),
            num_labels=int(d["num_labels"]),
            layers=tuple(
                LayerSpec(
                    kind=str(ld["kind"]),
                    units=int(ld["units"]),
                    bidirectional=bool(ld["bidirectional"]),
                )
                for ld in d["layers"]
            ),
        )
    except (KeyError, TypeError) as err:
        raise ValueError("malformed network description: %s" % err) from err
    validate_spec(spec)
    return spec


def _directions(layer):
    return ("fwd", "bwd") if layer.bidirectional else ("fwd",)


@lru_cache(maxsize=64)
def param_shapes(spec):
    """Expected tensor names and shapes, in construction order.

    Each direction of layer l stores ``layer{l}.{dir}.Wx`` (in, G·U),
    ``Wh`` (U, G·U) and ``b`` (G·U), with G = 1 for a tanh-RNN and
    G = 4 for an LSTM, whose column blocks follow LSTM_GATES. The
    read-only mapping is made once per spec, so a model's tensors share
    it as their layout and ``audit_params`` can compare by identity.
    """
    validate_spec(spec)
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


def fuse_gate_tensors(params):
    """Concatenate per-gate LSTM tensors into the (Wx, Wh, b) layout.

    Weight files written before the fused layout hold twelve tensors per
    LSTM direction (``Wx_i``, ``Wh_i``, ``b_i``, ..., ``b_o``). Each
    complete set of four is concatenated in LSTM_GATES order; every other
    tensor keeps its name, so ``audit_params`` reports what is left over.
    """
    fused = dict(params)
    for name in params:
        if name.rpartition(".")[2] in ("Wx_i", "Wh_i", "b_i") \
                and name[:-2] not in params:
            parts = [name[:-1] + gate for gate in LSTM_GATES]
            if all(part in params for part in parts):
                fused[name[:-2]] = np.concatenate(
                    [fused.pop(part) for part in parts], axis=-1
                )
    return fused


def audit_params(spec, params):
    """Check that ``params`` carries exactly the tensors the spec implies.

    Tensors laid out by ``param_shapes(spec)`` itself pass at once: a
    FlatTensors cannot lose, gain or reshape a tensor.
    """
    expected = param_shapes(spec)
    if not (isinstance(params, FlatTensors) and params.shapes is expected):
        check_tensors(expected, params)


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


def softmax_rows(z):
    """Softmax of each row of a (N, K) array of logits, in one new array."""
    e = z - z.max(axis=1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=1, keepdims=True)
    return e


def stored_bytes_per_frame(spec, for_backward=True):
    """Bytes per packed frame that ``forward_packed(..., for_backward)`` holds.

    Before a backward, that is what forward keeps until backward runs:
    the input frame, each layer's output, each LSTM direction's gates
    and cell state, and the logits. A tanh-RNN direction keeps nothing
    beyond its output.

    A forward-only pass keeps one layer alive, and this is its peak: the
    input frame and the packing's four row maps (``Packing``), held
    throughout, and the largest of
    - a layer's input (unless it is the input frame) and output, with
      one direction's projection (G·U columns), alongside either the
      input rows gathered for the backward direction or an LSTM's
      outputs and cell states;
    - the last layer's output and the logits;
    - the logits and their softmax.
    The lattice a loss pass adds is not counted: its width follows the
    labels, not the network.
    """
    if for_backward:
        floats = spec.feature_dim + spec.num_classes
        for layer in spec.layers:
            floats += (6 if layer.kind == "lstm" else 1) * layer.width
        return 8 * floats
    held, in_dim, peak = 0, spec.feature_dim, 2 * spec.num_classes
    for layer in spec.layers:
        lstm = layer.kind == "lstm"
        gates = (len(LSTM_GATES) if lstm else 1) * layer.units
        beside = max(in_dim if layer.bidirectional else 0,
                     2 * layer.units if lstm else 0)
        peak = max(peak, held + layer.width + gates + beside)
        held = in_dim = layer.width
    peak = max(peak, held + spec.num_classes)
    return 8 * (spec.feature_dim + 4 + peak)


def activation_groups(spec, lengths, for_backward=True):
    """Group non-increasing ``lengths`` first-fit-decreasing.

    Each sequence, longest first, joins the first group whose frames
    stay within ACTIVATION_BYTES at ``stored_bytes_per_frame(spec,
    for_backward)``, or opens a new one; a sequence longer than that
    budget is a group of its own. Returns increasing index arrays into
    ``lengths``, so each group's lengths are non-increasing. This never
    makes more groups than splitting ``lengths`` into consecutive runs,
    and fewer groups mean fewer recurrent steps.
    """
    lengths = np.asarray(lengths).tolist()
    budget = ACTIVATION_BYTES // stored_bytes_per_frame(spec, for_backward)
    if lengths and sum(lengths) <= budget:
        return [np.arange(len(lengths))]
    groups, free = [], []  # free: the frames each group still has room for
    for i, length in enumerate(lengths):
        g = next((g for g, room in enumerate(free) if room >= length), len(free))
        if g == len(free):
            groups.append([])
            free.append(budget)
        groups[g].append(i)
        free[g] -= length
    return [np.array(group, dtype=np.int64) for group in groups]


def _product(a, W):
    """``a @ W`` as a product of at least two rows.

    With one row the BLAS takes another kernel and row 0 comes out with
    other bits than in any larger product, so a lone row is multiplied
    twice over and the copy dropped.
    """
    if a.shape[0] > 1:
        return a @ W
    return (np.repeat(a, 2, axis=0) @ W)[:1]


def _rnn_steps(packing, z, Wh):
    """h_t = tanh(z_t + h_{t-1} Wh), written over z in place; returns z."""
    prev = None
    for start, n in packing.steps:
        zt = z[start:start + n]
        if prev is not None:
            zt += _product(z[prev:prev + n], Wh)
        np.tanh(zt, out=zt)
        prev = start
    return z


def _lstm_steps(packing, z, Wh):
    """LSTM recurrence; z turns into the gate activations in place.

    ``z`` holds the input projections plus bias of every packed frame in
    LSTM_GATES column order. Returns the outputs h and cell states c.
    """
    units = Wh.shape[0]
    h = np.empty((packing.num_frames, units))
    c = np.empty((packing.num_frames, units))
    prev = None
    # exp(-x) overflows to inf for very negative x; 1 / (1 + inf) = 0 is
    # the correct sigmoid limit
    with np.errstate(over="ignore"):
        for start, n in packing.steps:
            rows = slice(start, start + n)
            zt = z[rows]
            if prev is not None:
                zt += _product(h[prev:prev + n], Wh)
            s = zt[:, :3 * units]
            np.negative(s, out=s)
            np.exp(s, out=s)
            s += 1.0
            np.reciprocal(s, out=s)
            g = zt[:, 3 * units:]
            np.tanh(g, out=g)
            ct = c[rows]
            np.multiply(zt[:, :units], g, out=ct)
            if prev is not None:
                ct += zt[:, units:2 * units] * c[prev:prev + n]
            ht = h[rows]
            np.tanh(ct, out=ht)
            ht *= zt[:, 2 * units:3 * units]
            prev = start
    return h, c


def _rnn_grad_steps(packing, h, dh, Wh):
    """Gradient w.r.t. the pre-activations, given dL/dh from above."""
    dtanh = 1.0 - h * h
    dz = np.empty_like(dtanh)
    dh_next = np.zeros((packing.steps[0][1], h.shape[1]))
    WhT = Wh.T
    for start, n in reversed(packing.steps):
        rows = slice(start, start + n)
        np.multiply(dh[rows] + dh_next[:n], dtanh[rows], out=dz[rows])
        np.matmul(dz[rows], WhT, out=dh_next[:n])
    return dz


def _lstm_grad_steps(packing, gates, c, dh, Wh):
    """Gradient w.r.t. the fused gate pre-activations, given dL/dh from above.

    Walking backward in time, a sequence's rows of dh_next and dc_next
    stay zero until the walk reaches its last frame.
    """
    units = c.shape[1]
    i, f, o, g = (gates[:, k * units:(k + 1) * units] for k in range(4))
    tc = np.tanh(c)
    c_prev = np.zeros_like(c)
    c_prev[packing.steps[0][1]:] = c[packing.prev_rows]
    # dz/dc for the i, f and g blocks and dz/dh for the o block
    factor = np.concatenate(
        [g * i * (1.0 - i), c_prev * f * (1.0 - f), tc * o * (1.0 - o),
         i * (1.0 - g * g)], axis=1
    )
    dc_dh = o * (1.0 - tc * tc)
    dz = np.empty_like(gates)
    dh_next = np.zeros((packing.steps[0][1], units))
    dc_next = np.zeros_like(dh_next)
    WhT = Wh.T
    o_cols = slice(2 * units, 3 * units)
    for start, n in reversed(packing.steps):
        rows = slice(start, start + n)
        dht = dh[rows] + dh_next[:n]
        dct = dht * dc_dh[rows]
        dct += dc_next[:n]
        dzt = dz[rows]
        np.multiply(factor[rows].reshape(n, 4, units), dct[:, None, :],
                    out=dzt.reshape(n, 4, units))
        np.multiply(factor[rows, o_cols], dht, out=dzt[:, o_cols])
        np.matmul(dzt, WhT, out=dh_next[:n])
        np.multiply(dct, f[rows], out=dc_next[:n])
    return dz


@dataclass
class BatchCache:
    """Activations of a packed batch, recorded by forward for backward.

    ``layers`` holds, per layer, its packed input, its packed output and
    per direction the LSTM (gates, cell states) in recurrence order, or
    None for a tanh-RNN, whose output is all backward needs.
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


def _direction_forward(layer, packing, params, li, di, x, y):
    """Run direction ``di`` of layer ``li`` on ``x`` into its ``y`` columns.

    The backward direction gathers its input rows in recurrence order
    before the projection, which is wider than they are, and scatters
    its outputs back through the same map (``packing.reverse`` is its
    own inverse). Returns what backward needs of it: an LSTM's (gates,
    cell states) in recurrence order, or None for a tanh-RNN.
    """
    d = _directions(layer)[di]
    prefix = "layer%d.%s." % (li, d)
    rows = packing.reverse if d == "bwd" else slice(None)
    z = _product(x[rows], params[prefix + "Wx"])
    z += params[prefix + "b"]
    if layer.kind == "rnn":
        h, state = _rnn_steps(packing, z, params[prefix + "Wh"]), None
    else:
        h, c = _lstm_steps(packing, z, params[prefix + "Wh"])
        state = (z, c)
    y[rows, di * layer.units:(di + 1) * layer.units] = h
    return state


@_one_blas_thread
def forward_packed(spec, params, packing, frames, for_backward=True):
    """Run the network over the packed frames of a length-sorted batch.

    ``frames`` is (N, feature_dim) in ``packing``'s row order. Each
    direction of each layer makes one input projection over all N rows;
    step t then multiplies only the n_t rows still running by the
    recurrent matrix. The backward direction runs every sequence from
    its own last frame. Returns (logits (N, num_classes), BatchCache).

    Without ``for_backward`` the cache is None and one layer is alive
    at a time: a direction's gates and cell states are freed once its
    outputs are in the layer output, and a layer's input once the next
    layer's output is complete (``stored_bytes_per_frame``). The logits
    are the same bits either way.
    """
    audit_params(spec, params)
    x = frames
    layers = []
    for li, layer in enumerate(spec.layers):
        y = np.empty((packing.num_frames, layer.width))
        states = []
        for di in range(len(_directions(layer))):
            state = _direction_forward(layer, packing, params, li, di, x, y)
            if for_backward:
                states.append(state)
            del state  # else this frees the direction's gates and cell states
        if for_backward:
            layers.append((x, y, states))
        x = y
    logits = _product(x, params["output.W"])
    logits += params["output.b"]
    if not for_backward:
        return logits, None
    return logits, BatchCache(packing=packing, layers=layers, logits=logits)


@_one_blas_thread
def backward_packed(spec, params, cache, grad_logits):
    """Exact parameter gradients, summed over the batch of ``cache``.

    ``grad_logits`` is (N, num_classes) in the packed row order. Every
    weight gradient is one product over all N rows, written into a new
    FlatTensors laid out by ``param_shapes(spec)``.
    """
    audit_params(spec, params)
    if len(cache.layers) != len(spec.layers) or any(
        len(states) != len(_directions(layer))
        for (_, _, states), layer in zip(cache.layers, spec.layers)
    ):
        raise ValueError("cache does not match the network spec")
    packing = cache.packing
    first = packing.steps[0][1]
    hidden = cache.layers[-1][1]
    grads = FlatTensors(param_shapes(spec))
    np.matmul(hidden.T, grad_logits, out=grads["output.W"])
    grad_logits.sum(axis=0, out=grads["output.b"])
    dy = grad_logits @ params["output.W"].T
    for li in range(len(spec.layers) - 1, -1, -1):
        layer = spec.layers[li]
        x, y, states = cache.layers[li]
        dx = None
        for di, d in enumerate(_directions(layer)):
            prefix = "layer%d.%s." % (li, d)
            cols = slice(di * layer.units, (di + 1) * layer.units)
            h, dh = y[:, cols], dy[:, cols]
            if d == "bwd":
                h, dh = h[packing.reverse], dh[packing.reverse]
            if layer.kind == "rnn":
                dz = _rnn_grad_steps(packing, h, dh, params[prefix + "Wh"])
            else:
                dz = _lstm_grad_steps(packing, *states[di], dh, params[prefix + "Wh"])
            np.matmul(h[packing.prev_rows].T, dz[first:], out=grads[prefix + "Wh"])
            if d == "bwd":
                dz = dz[packing.reverse]
            np.matmul(x.T, dz, out=grads[prefix + "Wx"])
            dz.sum(axis=0, out=grads[prefix + "b"])
            if li:  # the input frames need no gradient
                dx_dir = dz @ params[prefix + "Wx"].T
                dx = dx_dir if dx is None else dx + dx_dir
        dy = dx
    return grads


def sequence_frames(spec, features, input_len=None):
    """One sequence's features as a float64 (T, feature_dim) array, and its input_len.

    ``input_len`` defaults to T and must lie in [1, T].
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != spec.feature_dim:
        raise ValueError(
            "features must be (T, %d), got %r" % (spec.feature_dim, features.shape)
        )
    T = features.shape[0]
    input_len = T if input_len is None else int(input_len)
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
    probs[:input_len] = softmax_rows(logits)
    if input_len < T:
        probs[input_len:] = softmax_rows(params["output.b"][None, :])
    return probs, NetCache(input_len=input_len, num_frames=T, batch=batch)


def backward(spec, params, cache, grad_logits):
    """Exact parameter gradients for the loss behind ``grad_logits``.

    ``grad_logits`` is (T, num_classes) with rows at t >= input_len
    exactly zero (they are padding and carry no loss).
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


@dataclass
class OptimizerState:
    kind: str
    learning_rate: float
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    step: int = 0
    m: FlatTensors | None = None
    v: FlatTensors | None = None


def init_optimizer(kind, learning_rate, params):
    """Optimizer state for ``params``; Adam's moments take their layout."""
    if kind not in ("sgd", "adam"):
        raise ValueError("unknown optimizer %r (expected 'sgd' or 'adam')" % (kind,))
    state = OptimizerState(kind=kind, learning_rate=float(learning_rate))
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

    Returns ``grads`` itself when it does not clip. When it clips, it
    scales ``as_flat(grads)`` in place and returns a new FlatTensors
    over that buffer: a FlatTensors ``grads`` is itself scaled, a plain
    dict is left as it was.
    """
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
    c1 = 1.0 - state.beta1 ** state.step
    c2 = 1.0 - state.beta2 ** state.step
    m, v = state.m.flat, state.v.flat
    scratch = np.empty_like(g)
    m *= state.beta1
    m += np.multiply(g, 1.0 - state.beta1, out=scratch)
    v *= state.beta2
    v += np.multiply(np.square(g, out=scratch), 1.0 - state.beta2, out=scratch)
    # lr * (m / c1) / (sqrt(v / c2) + eps) in that order, so each
    # element gets the bits of the per-tensor expression
    np.sqrt(np.divide(v, c2, out=scratch), out=scratch)
    scratch += state.epsilon
    update = m / c1
    update *= lr
    update /= scratch
    params.flat -= update
    return params, state
