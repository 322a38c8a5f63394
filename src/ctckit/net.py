"""A small recurrent network with exact backpropagation through time.

Stacked tanh-RNN or LSTM layers (optionally bidirectional, outputs of
the two directions concatenated), followed by a per-frame affine map
and softmax over ``num_labels + 1`` classes with the blank last. All
parameters live in a flat dict of named float64 tensors so they can be
serialized, audited against the architecture, and updated uniformly by
the optimizers. Each recurrent direction is three tensors, ``Wx``,
``Wh`` and ``b`` (see ``param_shapes``); an LSTM keeps its four gates
side by side in their columns, in LSTM_GATES order, so one product
serves all four. ``fuse_gate_tensors`` reads the older twelve-tensor
LSTM layout into this one.

One batched engine does all the work (``forward_packed`` and
``backward_packed``). It runs a length-sorted batch in the packed
layout of ``ctckit.packing``: at step t only the n_t sequences still
running are updated (``h[:n_t] @ Wh``), and the input projections, the
output layer and every weight gradient are single products over all
valid frames. Training runs a sorted batch in consecutive
groups (``activation_groups``) so that the activations kept for
backward stay under ``ACTIVATION_BYTES``. ``forward`` and ``backward``
handle one sequence as a batch of one, which is how prediction, the
getters and evaluation use the network: one sequence per call.

Only frames ``[0, input_len)`` enter the recurrences in either
direction; padding frames are never gathered into the packed rows,
rows of ``forward``'s output past input_len carry softmax(output bias),
and nothing past input_len influences gradients. Forward and backward
use fixed summation orders, so results are bit-reproducible.

The engine runs its products on one BLAS thread (``_one_blas_thread``)
and restores the thread count on return. Its packed products are large
enough for OpenBLAS to split them across threads, whose workers then
spin between the many small products of a step. Training two bi-LSTM
layers of 64 units on a 2-CPU machine, two threads used 1.9 CPUs for
no more speed than one, and ran at 2100-2700 frames/s instead of
5000-6200 while another process kept one core busy.
"""

import ctypes
from dataclasses import dataclass, field
from functools import lru_cache, wraps

import numpy as np

from .packing import Packing

# column blocks of an LSTM direction's Wx, Wh and b: the three sigmoid
# gates, then the tanh candidate, so each nonlinearity acts on one slice
LSTM_GATES = ("i", "f", "o", "g")

# Activations one training group may keep alive for backpropagation
# through time. A whole batch at once would hold the gates, cell states
# and outputs of all its frames until backward: training two bi-LSTM
# layers of 64 units on batches of eight sequences of 60-280 frames,
# that took peak RSS from 58 to 85 MB for 8 % more speed, against
# 62 MB with this budget. CtcModel.train_on_batch therefore runs the
# length-sorted batch in consecutive groups that each fit it.
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


def param_shapes(spec):
    """Expected tensor names and shapes, in construction order.

    Each direction of layer l stores ``layer{l}.{dir}.Wx`` (in, G·U),
    ``Wh`` (U, G·U) and ``b`` (G·U), with G = 1 for a tanh-RNN and
    G = 4 for an LSTM, whose column blocks follow LSTM_GATES.
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
    return shapes


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
    """Check that ``params`` carries exactly the tensors the spec implies."""
    expected = param_shapes(spec)
    if set(params) != set(expected):
        missing = sorted(set(expected) - set(params))
        extra = sorted(set(params) - set(expected))
        raise ValueError(
            "parameter set mismatch: missing %r, unexpected %r" % (missing, extra)
        )
    for name, shape in expected.items():
        if params[name].shape != shape:
            raise ValueError(
                "tensor %s has shape %r, expected %r"
                % (name, params[name].shape, shape)
            )


def init_params(spec, seed):
    """Glorot-uniform weights, zero biases, LSTM forget bias 1.0.

    Recurrent weights take the bound of one gate block, sqrt(6 / (fan_in + U)).
    """
    rng = np.random.default_rng(seed)
    shapes = param_shapes(spec)
    params = {}
    for name, shape in shapes.items():
        if len(shape) == 1:
            params[name] = np.zeros(shape)
        else:
            fan_in, fan_out = shape
            if name != "output.W":  # U, the row count of the direction's Wh
                fan_out = shapes[name.rsplit(".", 1)[0] + ".Wh"][0]
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            params[name] = rng.uniform(-bound, bound, size=shape)
    for li, layer in enumerate(spec.layers):
        if layer.kind == "lstm":  # the forget gate, second in LSTM_GATES
            for d in _directions(layer):
                params["layer%d.%s.b" % (li, d)][layer.units:2 * layer.units] = 1.0
    return params


def _softmax_rows(z):
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def stored_bytes_per_frame(spec):
    """Bytes that forward keeps per packed frame until backward runs.

    That is the input frame, each layer's output, each LSTM direction's
    gates and cell state, and the logits. A tanh-RNN direction keeps
    nothing beyond its output.
    """
    floats = spec.feature_dim + spec.num_classes
    for layer in spec.layers:
        floats += (6 if layer.kind == "lstm" else 1) * layer.width
    return 8 * floats


def activation_groups(spec, lengths):
    """Split non-increasing ``lengths`` into consecutive training groups.

    Returns slices into ``lengths``. The frames of each group keep at
    most ACTIVATION_BYTES of activations alive (see
    ``stored_bytes_per_frame``); a sequence longer than that budget is a
    group of its own.
    """
    budget = ACTIVATION_BYTES // stored_bytes_per_frame(spec)
    groups = []
    start = frames = 0
    for i, length in enumerate(np.asarray(lengths).tolist()):
        if i > start and frames + length > budget:
            groups.append(slice(start, i))
            start, frames = i, 0
        frames += length
    groups.append(slice(start, len(lengths)))
    return groups


def _rnn_steps(packing, z, Wh):
    """h_t = tanh(z_t + h_{t-1} Wh), written over z in place; returns z."""
    prev = None
    for start, n in packing.steps:
        zt = z[start:start + n]
        if prev is not None:
            zt += z[prev:prev + n] @ Wh
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
                zt += h[prev:prev + n] @ Wh
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


@_one_blas_thread
def forward_packed(spec, params, packing, frames):
    """Run the network over the packed frames of a length-sorted batch.

    ``frames`` is (N, feature_dim) in ``packing``'s row order. Each
    direction of each layer makes one input projection over all N rows;
    step t then multiplies only the n_t rows still running by the
    recurrent matrix. The backward direction runs every sequence from
    its own last frame. Returns (logits (N, num_classes), BatchCache).
    """
    audit_params(spec, params)
    x = frames
    layers = []
    for li, layer in enumerate(spec.layers):
        y = np.empty((packing.num_frames, layer.width))
        states = []
        for di, d in enumerate(_directions(layer)):
            prefix = "layer%d.%s." % (li, d)
            z = x @ params[prefix + "Wx"]
            z += params[prefix + "b"]
            if d == "bwd":
                z = z[packing.reverse]
            if layer.kind == "rnn":
                h = _rnn_steps(packing, z, params[prefix + "Wh"])
                states.append(None)
            else:
                h, c = _lstm_steps(packing, z, params[prefix + "Wh"])
                states.append((z, c))
            cols = slice(di * layer.units, (di + 1) * layer.units)
            y[:, cols] = h[packing.reverse] if d == "bwd" else h
        layers.append((x, y, states))
        x = y
    logits = x @ params["output.W"]
    logits += params["output.b"]
    return logits, BatchCache(packing=packing, layers=layers, logits=logits)


@_one_blas_thread
def backward_packed(spec, params, cache, grad_logits):
    """Exact parameter gradients, summed over the batch of ``cache``.

    ``grad_logits`` is (N, num_classes) in the packed row order. Every
    weight gradient is one product over all N rows.
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
    grads = {
        "output.W": hidden.T @ grad_logits,
        "output.b": grad_logits.sum(axis=0),
    }
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
            grads[prefix + "Wh"] = h[packing.prev_rows].T @ dz[first:]
            if d == "bwd":
                dz = dz[packing.reverse]
            grads[prefix + "Wx"] = x.T @ dz
            grads[prefix + "b"] = dz.sum(axis=0)
            if li:  # the input frames need no gradient
                dx_dir = dz @ params[prefix + "Wx"].T
                dx = dx_dir if dx is None else dx + dx_dir
        dy = dx
    return grads


def forward(spec, params, features, input_len=None):
    """Run the network over one sequence, as a batch of one.

    Returns (probs, cache): probs has one row per input frame, each row
    a distribution over the num_labels + 1 classes; rows at
    t >= input_len are masked padding (they carry softmax(output bias))
    and must not be consumed downstream.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != spec.feature_dim:
        raise ValueError(
            "features must be (T, %d), got %r" % (spec.feature_dim, features.shape)
        )
    T = features.shape[0]
    if input_len is None:
        input_len = T
    if not 1 <= input_len <= T:
        raise ValueError("input_len %d outside [1, %d]" % (input_len, T))

    logits, batch = forward_packed(
        spec, params, Packing([input_len]), features[:input_len]
    )
    probs = np.empty((T, spec.num_classes))
    probs[:input_len] = _softmax_rows(logits)
    if input_len < T:
        probs[input_len:] = _softmax_rows(params["output.b"][None, :])
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
    m: dict | None = None
    v: dict | None = None


def init_optimizer(kind, learning_rate, params):
    if kind not in ("sgd", "adam"):
        raise ValueError("unknown optimizer %r (expected 'sgd' or 'adam')" % (kind,))
    state = OptimizerState(kind=kind, learning_rate=float(learning_rate))
    if kind == "adam":
        state.m = {name: np.zeros_like(p) for name, p in params.items()}
        state.v = {name: np.zeros_like(p) for name, p in params.items()}
    return state


def global_grad_norm(grads):
    return float(np.sqrt(sum(float(np.sum(g * g)) for _, g in sorted(grads.items()))))


def clip_by_global_norm(grads, max_norm):
    """Scale all gradients down when their joint norm exceeds max_norm."""
    norm = global_grad_norm(grads)
    if norm <= max_norm or norm == 0.0:
        return grads
    scale = max_norm / norm
    return {name: g * scale for name, g in grads.items()}


def optimizer_step(state, params, grads):
    """Apply one update in place; no tensor is touched on error.

    SGD: p <- p - lr * g. Adam: bias-corrected first/second moments with
    epsilon added outside the square root, so the first step moves each
    parameter by about lr regardless of gradient scale.
    """
    if set(grads) != set(params):
        raise ValueError("gradient names do not match parameter names")
    for name in params:
        if grads[name].shape != params[name].shape:
            raise ValueError(
                "gradient %s has shape %r, expected %r"
                % (name, grads[name].shape, params[name].shape)
            )
    for name in sorted(grads):
        if not np.all(np.isfinite(grads[name])):
            raise NonFiniteGradient("non-finite gradient in tensor %s" % name)

    lr = state.learning_rate
    if state.kind == "sgd":
        for name in params:
            params[name] -= lr * grads[name]
    else:
        state.step += 1
        c1 = 1.0 - state.beta1 ** state.step
        c2 = 1.0 - state.beta2 ** state.step
        for name in params:
            g = grads[name]
            m = state.m[name]
            v = state.v[name]
            m *= state.beta1
            m += (1.0 - state.beta1) * g
            v *= state.beta2
            v += (1.0 - state.beta2) * (g * g)
            params[name] -= lr * (m / c1) / (np.sqrt(v / c2) + state.epsilon)
    return params, state
