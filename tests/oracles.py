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


def consecutive_groups(lengths, budget):
    """Split non-increasing lengths into consecutive runs of at most budget frames.

    A length over the budget is a run of its own. Returns lists of indices.
    """
    groups, frames = [], 0
    for i, length in enumerate(lengths):
        if not groups or frames + length > budget:
            groups.append([])
            frames = 0
        groups[-1].append(i)
        frames += length
    return groups


def _two_row_product(a, W):
    """``a @ W`` with at least two rows: a lone row is multiplied twice."""
    if a.shape[0] > 1:
        return a @ W
    return (np.repeat(a, 2, axis=0) @ W)[:1]


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
