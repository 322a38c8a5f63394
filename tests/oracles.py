"""Independent reference implementations used to check the package.

Everything here is written directly from definitions (exhaustive
enumeration, recursion, finite differences) and deliberately shares no
code with ctckit, so agreement between the two is meaningful.
"""

import itertools
from functools import lru_cache

import numpy as np


def collapse_path(path, blank):
    """Merge adjacent repeats, then drop blanks."""
    out, prev = [], None
    for sym in path:
        if sym != prev and sym != blank:
            out.append(sym)
        prev = sym
    return tuple(out)


def enumerate_sequence_probability(probs, labels):
    """Total probability of the label sequence by summing every path.

    Walks all K^T frame-level paths, keeps those collapsing to
    ``labels``, and adds up their per-frame probability products.
    """
    probs = np.asarray(probs, dtype=np.float64)
    T, K = probs.shape
    blank = K - 1
    target = tuple(int(l) for l in labels)
    rows = [probs[t] for t in range(T)]
    total = 0.0
    for path in itertools.product(range(K), repeat=T):
        if collapse_path(path, blank) == target:
            p = 1.0
            for t, sym in enumerate(path):
                p *= rows[t][sym]
            total += p
    return total


def enumerate_all_sequences(probs):
    """Aggregated probability of every collapsed sequence."""
    probs = np.asarray(probs, dtype=np.float64)
    T, K = probs.shape
    blank = K - 1
    rows = [probs[t] for t in range(T)]
    agg = {}
    for path in itertools.product(range(K), repeat=T):
        p = 1.0
        for t, sym in enumerate(path):
            p *= rows[t][sym]
        seq = collapse_path(path, blank)
        agg[seq] = agg.get(seq, 0.0) + p
    return agg


def ranked_sequences(probs):
    """Sequences by descending aggregated probability, ties lexicographic."""
    agg = enumerate_all_sequences(probs)
    return sorted(agg.items(), key=lambda kv: (-kv[1], kv[0]))


def levenshtein_recursive(a, b):
    """Levenshtein distance straight from the recursive definition."""
    a = tuple(a)
    b = tuple(b)

    @lru_cache(maxsize=None)
    def d(i, j):
        if i == 0:
            return j
        if j == 0:
            return i
        return min(
            d(i - 1, j) + 1,
            d(i, j - 1) + 1,
            d(i - 1, j - 1) + (a[i - 1] != b[j - 1]),
        )

    return d(len(a), len(b))


def central_difference(f, x, step=1e-5):
    """Central finite-difference gradient of scalar f, perturbing x in place."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.ravel()
    out = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        fp = f()
        flat[i] = orig - step
        fm = f()
        flat[i] = orig
        out[i] = (fp - fm) / (2.0 * step)
    return grad


def norm_rel_err(a, b):
    """max|a-b| scaled by the larger magnitude (floored at 1)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = max(np.max(np.abs(a)), np.max(np.abs(b)), 1.0)
    return float(np.max(np.abs(a - b)) / denom)


def random_posterior(rng, num_frames, num_classes):
    """Strictly positive row-stochastic matrix."""
    u = rng.random((num_frames, num_classes)) + 1e-3
    return u / u.sum(axis=1, keepdims=True)


def random_feasible_labels(rng, num_frames, num_classes, max_len):
    """Label sequence alignable within num_frames (repeats need a blank)."""
    while True:
        length = int(rng.integers(0, max_len + 1))
        labels = rng.integers(0, num_classes - 1, size=length)
        repeats = int(np.sum(labels[1:] == labels[:-1])) if length > 1 else 0
        if length + repeats <= num_frames:
            return labels.tolist()


def scalar_beam_search(probs, input_len=None, beam_width=100, top_paths=1):
    """The per-prefix dict beam that ``beam_search_decode`` replaced.

    Kept as the reference the vectorized beam must match bit for bit:
    same label sequences, same float scores, same order. Returns the
    ranked ``(labels, log-probability)`` list.
    """
    probs = np.asarray(probs, dtype=np.float64)
    active = probs[: probs.shape[0] if input_len is None else input_len]
    T, K = active.shape
    blank = K - 1
    neg_inf = -np.inf
    with np.errstate(divide="ignore"):
        logp = np.log(active)

    # prefix -> [log mass ending in blank, log mass ending in its last label]
    beam = {(): [0.0, neg_inf]}
    for t in range(T):
        row = logp[t]
        nxt = {}

        def entry(prefix):
            e = nxt.get(prefix)
            if e is None:
                e = [neg_inf, neg_inf]
                nxt[prefix] = e
            return e

        for prefix, (pb, pnb) in beam.items():
            total = np.logaddexp(pb, pnb)
            # emit blank: prefix unchanged, mass moves to the blank bucket
            e = entry(prefix)
            e[0] = np.logaddexp(e[0], total + row[blank])
            last = prefix[-1] if prefix else None
            for c in range(K - 1):
                pc = row[c]
                if c == last:
                    # repeat without a blank collapses into the same prefix
                    e = entry(prefix)
                    e[1] = np.logaddexp(e[1], pnb + pc)
                    # a blank in between starts a genuinely new label
                    e2 = entry(prefix + (c,))
                    e2[1] = np.logaddexp(e2[1], pb + pc)
                else:
                    e2 = entry(prefix + (c,))
                    e2[1] = np.logaddexp(e2[1], total + pc)

        pruned = sorted(
            nxt.items(),
            key=lambda kv: (-np.logaddexp(kv[1][0], kv[1][1]), kv[0]),
        )[:beam_width]
        beam = dict(pruned)

    finals = sorted(
        beam.items(),
        key=lambda kv: (-np.logaddexp(kv[1][0], kv[1][1]), kv[0]),
    )[:top_paths]
    return [
        (list(prefix), float(np.logaddexp(pb, pnb)))
        for prefix, (pb, pnb) in finals
    ]


def per_tensor_grad_norm(grads):
    """The joint 2-norm of named gradients, summed tensor by tensor in name order."""
    return float(np.sqrt(sum(float(np.sum(g * g)) for _, g in sorted(grads.items()))))


def per_tensor_clip(grads, max_norm):
    """Named gradients scaled down, tensor by tensor, to a joint norm of max_norm."""
    norm = per_tensor_grad_norm(grads)
    if norm <= max_norm or norm == 0.0:
        return grads
    scale = max_norm / norm
    return {name: g * scale for name, g in grads.items()}


def per_tensor_step(kind, learning_rate, params, grads, m=None, v=None, step=0,
                    beta1=0.9, beta2=0.999, epsilon=1e-8):
    """One SGD or Adam update of named tensors, one tensor at a time.

    ``params`` (and Adam's ``m`` and ``v``) are dicts updated in place;
    returns the new step count. This is the update ``optimizer_step``
    made before it acted on one flat buffer, and that buffer must give
    the same bits.
    """
    if kind == "sgd":
        for name in params:
            params[name] -= learning_rate * grads[name]
        return step
    step += 1
    c1 = 1.0 - beta1 ** step
    c2 = 1.0 - beta2 ** step
    for name in params:
        g = grads[name]
        m[name] *= beta1
        m[name] += (1.0 - beta1) * g
        v[name] *= beta2
        v[name] += (1.0 - beta2) * (g * g)
        params[name] -= (learning_rate * (m[name] / c1)
                         / (np.sqrt(v[name] / c2) + epsilon))
    return step


def consecutive_groups(lengths, frame_bytes, step_bytes, budget):
    """Split non-increasing lengths into consecutive runs within budget bytes.

    A run costs ``frame_bytes`` a frame and ``step_bytes`` a step of its
    first, longest sequence. A length over the budget is a run of its
    own. Returns lists of indices.
    """
    groups, used = [], 0
    for i, length in enumerate(lengths):
        if not groups or used + length * frame_bytes > budget:
            groups.append([])
            used = length * step_bytes
        groups[-1].append(i)
        used += length * frame_bytes
    return groups


def _two_row_product(a, W):
    """``a @ W`` with at least two rows and a multiple of eight columns.

    A lone row is multiplied twice; a W of another width gets zero
    columns up to the next multiple of eight, and both copies are
    dropped.
    """
    rows, cols = a.shape[0], W.shape[1]
    if cols % 8:
        W = np.hstack((W, np.zeros((W.shape[0], -cols % 8))))
    if rows == 1:
        a = np.repeat(a, 2, axis=0)
    return (a @ W)[:rows, :cols]


def _direction_rnn_steps(packing, z, Wh):
    prev = None
    for start, n in packing.steps:
        zt = z[start:start + n]
        if prev is not None:
            zt += _two_row_product(z[prev:prev + n], Wh)
        np.tanh(zt, out=zt)
        prev = start
    return z


def _direction_lstm_steps(packing, z, Wh):
    units = Wh.shape[0]
    h = np.empty((packing.num_frames, units))
    c = np.empty((packing.num_frames, units))
    prev = None
    with np.errstate(over="ignore"):
        for start, n in packing.steps:
            rows = slice(start, start + n)
            zt = z[rows]
            if prev is not None:
                zt += _two_row_product(h[prev:prev + n], Wh)
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


def _direction_rnn_grad_steps(packing, h, dh, Wh):
    dtanh = 1.0 - h * h
    dz = np.empty_like(dtanh)
    dh_next = np.zeros((packing.steps[0][1], h.shape[1]))
    WhT = Wh.T
    for start, n in reversed(packing.steps):
        rows = slice(start, start + n)
        np.multiply(dh[rows] + dh_next[:n], dtanh[rows], out=dz[rows])
        np.matmul(dz[rows], WhT, out=dh_next[:n])
    return dz


def _direction_lstm_grad_steps(packing, gates, c, dh, Wh):
    units = c.shape[1]
    i, f, o, g = (gates[:, k * units:(k + 1) * units] for k in range(4))
    tc = np.tanh(c)
    c_prev = np.zeros_like(c)
    c_prev[packing.steps[0][1]:] = c[packing.prev_rows]
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


def _layer_directions(layer):
    return ("fwd", "bwd") if layer.bidirectional else ("fwd",)


def per_direction_forward(spec, params, packing, frames):
    """The packed forward pass with one recurrence loop per direction.

    The engine as it was before both directions of a layer shared one
    loop, kept as the bitwise reference: each direction projects its
    input rows (gathered in recurrence order for the backward one), runs
    its own loop and scatters its outputs into its columns of the layer
    output. ``packing`` is a ``ctckit.packing.Packing``. Returns the
    logits and per layer (input, output, per direction the LSTM (gates,
    cell states) or None).
    """
    x = frames
    layers = []
    for li, layer in enumerate(spec.layers):
        y = np.empty((packing.num_frames, layer.width))
        states = []
        for di, d in enumerate(_layer_directions(layer)):
            prefix = "layer%d.%s." % (li, d)
            rows = packing.reverse if d == "bwd" else slice(None)
            z = _two_row_product(x[rows], params[prefix + "Wx"])
            z += params[prefix + "b"]
            if layer.kind == "rnn":
                h, state = _direction_rnn_steps(packing, z, params[prefix + "Wh"]), None
            else:
                h, c = _direction_lstm_steps(packing, z, params[prefix + "Wh"])
                state = (z, c)
            y[rows, di * layer.units:(di + 1) * layer.units] = h
            states.append(state)
        layers.append((x, y, states))
        x = y
    logits = _two_row_product(x, params["output.W"])
    logits += params["output.b"]
    return logits, layers


def per_direction_backward(spec, params, packing, layers, grad_logits):
    """Gradients of ``per_direction_forward``, one BPTT loop per direction.

    ``layers`` is what ``per_direction_forward`` returned with the
    logits; returns a dict of gradients by tensor name.
    """
    first = packing.steps[0][1]
    grads = {"output.W": layers[-1][1].T @ grad_logits,
             "output.b": grad_logits.sum(axis=0)}
    dy = grad_logits @ params["output.W"].T
    for li in range(len(spec.layers) - 1, -1, -1):
        layer = spec.layers[li]
        x, y, states = layers[li]
        dx = None
        for di, d in enumerate(_layer_directions(layer)):
            prefix = "layer%d.%s." % (li, d)
            cols = slice(di * layer.units, (di + 1) * layer.units)
            h, dh = y[:, cols], dy[:, cols]
            if d == "bwd":
                h, dh = h[packing.reverse], dh[packing.reverse]
            if layer.kind == "rnn":
                dz = _direction_rnn_grad_steps(packing, h, dh, params[prefix + "Wh"])
            else:
                dz = _direction_lstm_grad_steps(packing, *states[di], dh,
                                                params[prefix + "Wh"])
            grads[prefix + "Wh"] = h[packing.prev_rows].T @ dz[first:]
            if d == "bwd":
                dz = dz[packing.reverse]
            grads[prefix + "Wx"] = x.T @ dz
            grads[prefix + "b"] = dz.sum(axis=0)
            if li:
                dx_dir = dz @ params[prefix + "Wx"].T
                dx = dx_dir if dx is None else dx + dx_dir
        dy = dx
    return grads


def two_loop_lattice(packing, log_probs, labels, label_lengths):
    """Alpha and beta of a packed batch, each in its own loop.

    The lattice before alpha and beta shared one recurrence: alpha runs
    forward over (N, S + 2) with two leading -inf columns, beta backward
    with two trailing ones and its own shifted skip table. Returns the
    extended labels (B, S), alpha and beta (N, S) in the packed row
    order, and the per-sequence log-likelihoods.
    """
    label_lengths = np.asarray(label_lengths, dtype=np.int64)
    B, blank = len(label_lengths), log_probs.shape[1] - 1
    max_len = int(label_lengths.max())
    S = 2 * max_len + 1
    live = np.arange(max_len) < label_lengths[:, None]
    ext = np.full((B, S), blank, dtype=np.int64)
    ext[:, 1::2] = np.where(live, labels[:, :max_len], blank)
    seq = packing.seq_of_row
    emit = np.take_along_axis(log_probs, ext[seq], axis=1)
    emit[(np.arange(S) > 2 * label_lengths[:, None])[seq]] = -np.inf
    skip = np.full((B, S), -np.inf)
    skip[:, 2:][(ext[:, 2:] != blank) & (ext[:, 2:] != ext[:, :-2])] = 0.0

    alpha = np.full((packing.num_frames, S + 2), -np.inf)
    first = packing.steps[0][1]
    alpha[:first, 2:4] = emit[:first, :2]
    prev = 0
    for start, n in packing.steps[1:]:
        p = alpha[prev:prev + n]
        acc = np.logaddexp(p[:, 2:], p[:, 1:-1])
        np.logaddexp(acc, p[:, :-2] + skip[:n], out=acc)
        np.add(acc, emit[start:start + n], out=alpha[start:start + n, 2:])
        prev = start
    last = alpha[packing.last_rows]
    cols = 2 * label_lengths + 1
    ll = np.logaddexp(last[np.arange(B), cols], last[np.arange(B), cols + 1])

    beta = np.full((packing.num_frames, S + 2), -np.inf)
    states = np.arange(S) - 2 * label_lengths[:, None]
    beta[packing.last_rows, :S] = np.where((states == 0) | (states == -1), 0.0, -np.inf)
    back_skip = np.full((B, S), -np.inf)
    back_skip[:, :-2] = skip[:, 2:]
    nxt = np.full((B, S + 2), -np.inf)
    for t in range(len(packing.steps) - 2, -1, -1):
        start = packing.steps[t][0]
        nstart, n = packing.steps[t + 1]
        q = nxt[:n]
        np.add(beta[nstart:nstart + n, :S], emit[nstart:nstart + n], out=q[:, :S])
        acc = np.logaddexp(q[:, :S], q[:, 1:-1])
        np.logaddexp(acc, q[:, 2:] + back_skip[:n], out=acc)
        beta[start:start + n, :S] = acc
    return ext, alpha[:, 2:], beta[:, :S], ll


def two_loop_gradient(packing, logits, labels, label_lengths):
    """Losses and logit gradients from ``two_loop_lattice``.

    grad = softmax(logits) - lattice posterior, with log_softmax, the
    occupancies and their per-class sums formed as the lattice forms them.
    """
    log_probs = logits - logits.max(axis=1, keepdims=True)
    log_probs -= np.log(np.exp(log_probs).sum(axis=1, keepdims=True))
    ext, alpha, beta, ll = two_loop_lattice(packing, log_probs, labels, label_lengths)
    seq = packing.seq_of_row
    N, K = log_probs.shape
    occupancy = np.exp(alpha + beta - ll[seq][:, None])
    cells = np.arange(N)[:, None] * K + ext[seq]
    posterior = np.bincount(cells.ravel(), weights=occupancy.ravel(),
                            minlength=N * K).reshape(N, K)
    return -ll, np.exp(log_probs) - posterior
