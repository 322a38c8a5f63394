"""Log-space forward-backward machinery for the CTC objective.

Conventions used throughout this module (and the rest of the package):

- A posterior matrix is a (T, K) float array of per-frame class
  probabilities; the blank class is always the last column, index K-1.
- Label sequences hold indices in [0, K-1) and never contain the blank.
- All lattice arithmetic happens in natural-log space with float64.
  log(0) is -inf, which ``log_sum_exp`` and ``np.logaddexp`` propagate
  without producing NaNs.
- The lattice state axis is the blank-extended label sequence
  [blank, y_1, blank, ..., y_L, blank] of length 2L+1. ``alpha[t][s]``
  includes the emission at frame t; ``beta[t][s]`` covers frames t+1
  onward, so for every t, logsumexp_s(alpha[t][s] + beta[t][s]) equals
  the full-sequence log-likelihood.

One lattice implementation serves every entry point. It runs alpha and
beta for a whole length-sorted batch at once over (B, 2 * L_max + 1)
states in the packed layout of ``ctckit.packing``, a step at a time for
the sequences still running (the batched lattice of warp-ctc). It is
fed log-probabilities computed once: ``log_softmax`` of the logits in
``ctc_gradient_packed``, ``log`` of the posteriors in ``ctc_loss``, so
logits far apart cannot underflow a probability to 0 and make a
feasible alignment look impossible (Graves et al. 2006, section 4.1).
``ctc_loss_batch`` runs a padded batch of posteriors through it; the
single-sequence functions (``ctc_forward``, ``ctc_backward``,
``make_lattice``, ``ctc_loss``, ``ctc_gradient``) run a batch of one.
"""

from dataclasses import dataclass

import numpy as np

from .packing import Packing

NEG_INF = -np.inf


class InfeasibleAlignment(Exception):
    """The label sequence cannot be aligned to the available frames.

    A sequence of length L with R adjacent repeated labels needs at
    least L + R frames (repeats require an intervening blank). Raised
    instead of returning an infinite loss so callers can tell data
    errors apart from numeric underflow.
    """

    def __init__(self, message, sequence_index=None):
        if sequence_index is not None:
            message = "sequence %d: %s" % (sequence_index, message)
        super().__init__(message)
        self.sequence_index = sequence_index


@dataclass
class Lattice:
    """Forward/backward tables plus the sequence log-likelihood."""

    alpha: np.ndarray  # (input_len, 2L+1) log-probabilities
    beta: np.ndarray   # (input_len, 2L+1) log-probabilities
    log_likelihood: float


def log_sum_exp(values):
    """log(sum_i exp(values[i])), computed with a max shift.

    An empty input and an all-(-inf) input both return -inf. NaN
    entries raise ValueError.
    """
    v = np.asarray(values, dtype=np.float64)
    if v.size == 0:
        return NEG_INF
    if np.isnan(v).any():
        raise ValueError("log_sum_exp: NaN in input")
    m = v.max()
    if m == NEG_INF:
        return NEG_INF
    return float(m + np.log(np.exp(v - m).sum()))


def collapse(path, blank_index):
    """Map a frame-level path to a label sequence.

    Merges adjacent equal symbols first, then deletes blanks.
    """
    out = []
    prev = None
    for sym in path:
        sym = int(sym)
        if sym < 0 or sym > blank_index:
            raise ValueError("path symbol %d outside [0, %d]" % (sym, blank_index))
        if sym != prev and sym != blank_index:
            out.append(sym)
        prev = sym
    return out


def extend_with_blanks(labels, blank_index):
    """Interleave blanks around ``labels``: [b, y_1, b, ..., y_L, b]."""
    labels = np.asarray(labels, dtype=np.int64)
    ext = np.full(2 * labels.size + 1, blank_index, dtype=np.int64)
    ext[1::2] = labels
    return ext


def _check_input_len(input_len, num_frames):
    if not 1 <= input_len <= num_frames:
        raise ValueError("input_len %d outside [1, %d]" % (input_len, num_frames))


def _check_alignment(labels, input_len, num_classes):
    """Validated label array of one sequence.

    Raises ValueError for a label outside [0, num_classes - 1) and
    InfeasibleAlignment when input_len frames cannot hold the labels.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1:
        raise ValueError("labels must be one-dimensional")
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes - 1):
        raise ValueError(
            "label indices must lie in [0, %d); got %r"
            % (num_classes - 1, labels.tolist())
        )
    repeats = int(np.sum(labels[1:] == labels[:-1])) if labels.size > 1 else 0
    required = labels.size + repeats
    if input_len < required:
        raise InfeasibleAlignment(
            "need at least %d frames for %d labels with %d adjacent repeats, "
            "got input_len=%d" % (required, labels.size, repeats, input_len)
        )
    return labels


def _check_posteriors(probs):
    """Reject a posterior matrix with a non-finite, negative or unnormalized row."""
    finite = np.isfinite(probs).all(axis=1)
    if not finite.all():
        raise ValueError(
            "posterior row %d holds a non-finite entry" % int(np.argmin(finite))
        )
    if probs.min() < 0.0:
        raise ValueError("posterior entries must be non-negative")
    row_sums = probs.sum(axis=1)
    if np.abs(row_sums - 1.0).max() > 1e-6:
        bad = int(np.abs(row_sums - 1.0).argmax())
        raise ValueError(
            "posterior row %d sums to %.9f, not 1 within 1e-6" % (bad, row_sums[bad])
        )


def check_batch(batch, num_classes):
    """Validate every sequence of a padded batch before any work is done.

    ``batch`` carries ``features`` (B, T_max, ...), ``labels`` (B, L_max)
    and the two length arrays. Errors name the first offending sequence
    by its index in the batch; InfeasibleAlignment also records it as
    ``sequence_index``.
    """
    num_frames = batch.features.shape[1]
    labels = np.asarray(batch.labels, dtype=np.int64)
    input_lengths = np.asarray(batch.input_lengths, dtype=np.int64)
    label_lengths = np.asarray(batch.label_lengths, dtype=np.int64)
    # screen the whole batch at once; the per-sequence checks below then
    # word the error of the first sequence that fails
    live = np.arange(labels.shape[1]) < label_lengths[:, None]
    repeats = (live[:, 1:] & (labels[:, 1:] == labels[:, :-1])).sum(axis=1)
    bad = (
        (input_lengths < 1) | (input_lengths > num_frames)
        | (label_lengths < 0) | (label_lengths > labels.shape[1])
        | (live & ((labels < 0) | (labels >= num_classes - 1))).any(axis=1)
        | (input_lengths < label_lengths + repeats)
    )
    if not bad.any():
        return
    i = int(np.argmax(bad))
    input_len, label_len = int(input_lengths[i]), int(label_lengths[i])
    try:
        _check_input_len(input_len, num_frames)
        if not 0 <= label_len <= labels.shape[1]:
            raise ValueError("label_len %d outside [0, %d]"
                             % (label_len, labels.shape[1]))
        _check_alignment(labels[i, :label_len], input_len, num_classes)
    except InfeasibleAlignment as err:
        raise InfeasibleAlignment(str(err), sequence_index=i) from err
    except ValueError as err:
        raise ValueError("sequence %d: %s" % (i, err)) from err


def _log_softmax(logits):
    shifted = logits - logits.max(axis=1, keepdims=True)
    shifted -= np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return shifted


class _Trellis:
    """The blank-extended lattice of a packed batch.

    States run over the (B, S) extended label rows, S = 2 * L_max + 1,
    padded with blanks; states past a sequence's own 2L + 1 emit -inf,
    so they never carry mass. Alpha and beta are (N, S + 2) tables in
    the packed row order: alpha's two extra columns lead and beta's
    trail, both -inf, so the s-1 / s-2 (and s+1 / s+2) transitions of
    every state are plain column shifts.
    """

    def __init__(self, packing, log_probs, labels, label_lengths):
        self.packing = packing
        label_lengths = np.asarray(label_lengths, dtype=np.int64)
        self.label_lengths = label_lengths
        blank = log_probs.shape[1] - 1
        max_len = int(label_lengths.max())
        S = 2 * max_len + 1
        live = np.arange(max_len) < label_lengths[:, None]
        ext = np.full((len(label_lengths), S), blank, dtype=np.int64)
        ext[:, 1::2] = np.where(live, labels[:, :max_len], blank)
        self.ext = ext
        seq = packing.seq_of_row
        self.emit = np.take_along_axis(log_probs, ext[seq], axis=1)
        self.emit[(np.arange(S) > 2 * label_lengths[:, None])[seq]] = NEG_INF
        # transition s-2 -> s is allowed iff ext[s] is a label differing
        # from ext[s-2]; 0 where allowed, -inf where not
        skip = np.full((len(label_lengths), S), NEG_INF)
        skip[:, 2:][(ext[:, 2:] != blank) & (ext[:, 2:] != ext[:, :-2])] = 0.0
        self.skip = skip

    def alpha(self):
        """Forward table and per-sequence log-likelihoods."""
        packing, emit = self.packing, self.emit
        S = emit.shape[1]
        alpha = np.full((packing.num_frames, S + 2), NEG_INF)
        first = packing.steps[0][1]
        alpha[:first, 2:4] = emit[:first, :2]
        prev = 0
        for start, n in packing.steps[1:]:
            p = alpha[prev:prev + n]
            acc = np.logaddexp(p[:, 2:], p[:, 1:-1])
            np.logaddexp(acc, p[:, :-2] + self.skip[:n], out=acc)
            np.add(acc, emit[start:start + n], out=alpha[start:start + n, 2:])
            prev = start
        # final states 2L - 1 and 2L sit at columns 2L + 1 and 2L + 2;
        # with no labels column 1 is the -inf padding
        last = alpha[packing.last_rows]
        cols = 2 * self.label_lengths + 1
        b = np.arange(len(cols))
        return alpha, np.logaddexp(last[b, cols], last[b, cols + 1])

    def beta(self):
        """Backward table: beta[t][s] covers emissions at frames t+1 onward."""
        packing, emit = self.packing, self.emit
        N, S = emit.shape
        beta = np.full((N, S + 2), NEG_INF)
        states = np.arange(S) - 2 * self.label_lengths[:, None]
        final = (states == 0) | (states == -1)  # states 2L and 2L - 1
        beta[packing.last_rows, :S] = np.where(final, 0.0, NEG_INF)
        skip = np.full((len(self.label_lengths), S), NEG_INF)
        skip[:, :-2] = self.skip[:, 2:]
        nxt = np.full((len(self.label_lengths), S + 2), NEG_INF)
        for t in range(len(packing.steps) - 2, -1, -1):
            start = packing.steps[t][0]
            nstart, n = packing.steps[t + 1]
            q = nxt[:n]
            np.add(beta[nstart:nstart + n, :S], emit[nstart:nstart + n],
                   out=q[:, :S])
            acc = np.logaddexp(q[:, :S], q[:, 1:-1])
            np.logaddexp(acc, q[:, 2:] + skip[:n], out=acc)
            beta[start:start + n, :S] = acc
        return beta


def ctc_gradient_packed(packing, logits, labels, label_lengths):
    """Losses and logit gradients of a packed, length-sorted batch.

    ``logits`` is (N, K) in ``packing``'s row order and ``labels``
    (B, >= L_max) holds each sequence's labels in its first
    ``label_lengths[b]`` entries, already validated (``check_batch``).
    log_softmax is taken once; alpha and beta advance all sequences a
    step at a time. Returns (losses (B,), grad (N, K)) with
    grad = softmax(logits) - lattice posterior.
    """
    log_probs = _log_softmax(logits)
    trellis = _Trellis(packing, log_probs, labels, label_lengths)
    alpha, ll = trellis.alpha()
    beta = trellis.beta()
    seq = packing.seq_of_row
    N, K = log_probs.shape
    S = trellis.ext.shape[1]
    occupancy = np.exp(alpha[:, 2:] + beta[:, :S] - ll[seq][:, None])
    cells = np.arange(N)[:, None] * K + trellis.ext[seq]
    posterior = np.bincount(cells.ravel(), weights=occupancy.ravel(),
                            minlength=N * K).reshape(N, K)
    return -ll, np.exp(log_probs) - posterior


def _log_posteriors(probs):
    with np.errstate(divide="ignore"):
        return np.log(probs)


def _one_sequence(log_probs, labels):
    """Trellis of a single sequence: the batch of one over its frames."""
    return _Trellis(Packing([log_probs.shape[0]]), log_probs, labels[None, :],
                    [labels.size])


def _as_matrix(matrix):
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[1] < 2:
        raise ValueError("expected a (T, K) matrix with K >= 2")
    return matrix


def _sequence_args(matrix, labels, input_len, label_len):
    """Shared argument handling of the single-sequence entry points."""
    matrix = _as_matrix(matrix)
    if input_len is None:
        input_len = matrix.shape[0]
    _check_input_len(input_len, matrix.shape[0])
    labels = np.asarray(labels, dtype=np.int64)
    if label_len is None:
        label_len = labels.size
    labels = _check_alignment(labels[:label_len], input_len, matrix.shape[1])
    return matrix[:input_len], labels


def _extended_args(probs, ext, input_len):
    """``_sequence_args`` for a blank-extended label sequence ``ext``."""
    probs = _as_matrix(probs)
    blank = probs.shape[1] - 1
    ext = np.asarray(ext, dtype=np.int64)
    if ext.ndim != 1 or ext.size % 2 == 0 or (ext[::2] != blank).any():
        raise ValueError(
            "ext must be [blank, y_1, blank, ..., y_L, blank] with blank %d, "
            "got %r" % (blank, ext.tolist())
        )
    return _sequence_args(probs, ext[1::2], input_len, None)


def ctc_forward(probs, ext, input_len):
    """Forward pass over the blank-extended lattice.

    Returns (alpha, log_likelihood) where alpha has shape
    (input_len, len(ext)). Raises ValueError unless ``ext`` has odd
    length with the blank at every even position, and
    InfeasibleAlignment when input_len is too short for its labels.
    """
    active, labels = _extended_args(probs, ext, input_len)
    alpha, ll = _one_sequence(_log_posteriors(active), labels).alpha()
    return alpha[:, 2:], float(ll[0])


def ctc_backward(probs, ext, input_len):
    """Backward pass; beta[t][s] covers emissions at frames t+1..input_len-1."""
    active, labels = _extended_args(probs, ext, input_len)
    return _one_sequence(_log_posteriors(active), labels).beta()[:, :-2]


def make_lattice(probs, labels, input_len=None, label_len=None):
    """Run both passes and return the filled :class:`Lattice`."""
    active, labels = _sequence_args(probs, labels, input_len, label_len)
    trellis = _one_sequence(_log_posteriors(active), labels)
    alpha, ll = trellis.alpha()
    return Lattice(alpha=alpha[:, 2:], beta=trellis.beta()[:, :-2],
                   log_likelihood=float(ll[0]))


def ctc_loss(probs, labels, input_len=None, label_len=None):
    """Negative log-likelihood -ln p(labels | probs).

    Only the first ``input_len`` frames and first ``label_len`` labels
    participate; anything beyond is padding and is ignored entirely.
    """
    active, labels = _sequence_args(probs, labels, input_len, label_len)
    _check_posteriors(active)
    _, ll = _one_sequence(_log_posteriors(active), labels).alpha()
    return -float(ll[0])


def ctc_gradient(logits, labels, input_len=None, label_len=None):
    """Loss and its exact gradient w.r.t. pre-softmax activations.

    Runs ``ctc_gradient_packed`` on the batch of one formed by
    ``logits[:input_len]`` and returns (loss, grad) where
    grad[t][k] = softmax(logits)[t][k] - q[t][k], with q the lattice
    posterior of class k at frame t. Rows at t >= input_len are exactly
    zero.
    """
    logits = np.asarray(logits, dtype=np.float64)
    active, labels = _sequence_args(logits, labels, input_len, label_len)
    losses, grad_active = ctc_gradient_packed(
        Packing([active.shape[0]]), active, labels[None, :], [labels.size]
    )
    grad = np.zeros(logits.shape)
    grad[:active.shape[0]] = grad_active
    return float(losses[0]), grad


def ctc_loss_batch(batch):
    """Per-sequence losses for a padded batch of posterior matrices.

    ``batch`` is any object with ``features`` (B, T_max, K),
    ``labels`` (B, L_max, padded with -1), ``input_lengths`` and
    ``label_lengths`` attributes. The batch runs through the lattice at
    once, sorted by length; element i is independent of the other batch
    members and of the padding width. Per-sequence errors are raised
    with the offending index attached.
    """
    features = np.asarray(batch.features, dtype=np.float64)
    if features.ndim != 3 or features.shape[2] < 2:
        raise ValueError("posterior batch must be (B, T_max, K) with K >= 2")
    check_batch(batch, features.shape[2])
    lengths = np.asarray(batch.input_lengths, dtype=np.int64)
    for i, input_len in enumerate(lengths.tolist()):
        try:
            _check_posteriors(features[i, :input_len])
        except ValueError as err:
            raise ValueError("sequence %d: %s" % (i, err)) from err
    order = np.argsort(-lengths, kind="stable")
    packing = Packing(lengths[order])
    label_lengths = np.asarray(batch.label_lengths, dtype=np.int64)[order]
    trellis = _Trellis(packing, _log_posteriors(packing.pack(features, order)),
                       np.asarray(batch.labels)[order], label_lengths)
    _, ll = trellis.alpha()
    losses = np.empty(len(order))
    losses[order] = -ll
    return losses.tolist()
