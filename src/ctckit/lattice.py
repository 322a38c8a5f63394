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

One lattice implementation serves every entry point (``_trellis``). It
runs a whole length-sorted batch at once in the packed layout of
``ctckit.packing``, a step at a time for the sequences still running
(the batched lattice of warp-ctc). Beta is the alpha recursion run over
the reversed sequence (Graves et al. 2006), so alpha and beta advance
in one loop. It is fed log-probabilities computed once:
``net.log_softmax_rows`` of logits, ``log_posteriors`` of posteriors,
so logits far apart cannot underflow a probability to 0 and make a
feasible alignment look impossible (Graves et al. 2006, section 4.1).
``packed_losses`` scores a packed batch of them: ``ctc_loss_batch``
runs a padded batch through it, and the model facade the log-softmax
of its packed groups, the input training gives ``ctc_gradient_packed``.
The single-sequence functions (``ctc_forward``, ``ctc_backward``,
``make_lattice``, ``ctc_loss``, ``ctc_gradient``) run a batch of one.

Each input rule is written once: ``_screen`` (integer lengths and
labels, lengths, label range, feasibility) screens the batches of
``check_sequences`` and the batch of one of every single-sequence call;
``check_posteriors`` (finite entries >= 0, rows summing to 1) screens
every posterior matrix a caller gives, one sequence's or a packed
group's: those of the single-sequence functions, of a decoder called
on one sequence (``posterior_frames``), of ``ctc_loss_batch`` and of
the model facade's groups. The packed engine functions take input
already screened.
"""

import numbers
from contextlib import contextmanager, nullcontext, suppress
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .net import checked_int, log_softmax_rows
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


def _integers(values):
    return isinstance(values, np.ndarray) and values.dtype.kind in "iu"


def _non_integer(name, rows):
    """None, or (index, error) of the first of ``rows`` holding a value
    that is not an integer (``checked_int``: a bool, a float or a
    string is none)."""
    for i, row in enumerate(rows):
        for value in row:
            try:
                checked_int(name, value, -2 ** 63)
            except ValueError as err:
                return i, err
    return None


def _screen(labels, input_lengths, label_lengths, num_frames, num_classes):
    """(failure, labels): failure is None, or (index, error) of the first
    sequence breaking a rule; labels is the (B, L_max) int64 matrix once
    every rule holds, else None.

    ``labels`` is (B, L_max). The int64 matrix holds the first label_len
    labels of each row; the entries past them are those of an integer
    ``labels``, and 0 otherwise. A value that is not an integer
    (``checked_int``; an integer array passes unlooped) comes first:
    an input length, then a label length, then one of the first
    label_len labels, so that no value is cast to an integer before it
    is known to be one; labels past label_len are never cast. Then all
    sequences are checked at once, and the error is worded by the first
    rule broken, in this order: 1 <= input_len <= num_frames;
    0 <= label_len <= L_max; the first label_len labels lie in
    [0, num_classes - 1), so neither the blank nor the padding leaks in;
    L labels with R adjacent repeats get at least L + R frames, since a
    repeat needs a blank between (InfeasibleAlignment).
    """
    for name, lengths in (("input_len", input_lengths),
                          ("label_len", label_lengths)):
        failure = None if _integers(lengths) else _non_integer(name, zip(lengths))
        if failure is not None:
            return failure, None
    input_lengths = np.asarray(input_lengths, dtype=np.int64)
    label_lengths = np.asarray(label_lengths, dtype=np.int64)
    max_len = np.shape(labels)[1]
    live = np.arange(max_len) < label_lengths[:, None]
    if not _integers(labels):
        failure = _non_integer("label", (
            row[:max(int(n), 0)] for row, n in zip(labels, label_lengths)))
        if failure is not None:
            return failure, None
        labels = np.where(live, np.array(labels, dtype=object), 0)
    labels = labels.astype(np.int64, copy=False)
    repeats = (live[:, 1:] & (labels[:, 1:] == labels[:, :-1])).sum(axis=1)
    bad_input = (input_lengths < 1) | (input_lengths > num_frames)
    bad_len = (label_lengths < 0) | (label_lengths > max_len)
    bad_label = (live & ((labels < 0) | (labels >= num_classes - 1))).any(axis=1)
    bad = bad_input | bad_len | bad_label | (input_lengths < label_lengths + repeats)
    if not bad.any():
        return None, labels
    i = int(np.argmax(bad))
    input_len, label_len = int(input_lengths[i]), int(label_lengths[i])
    if bad_input[i]:
        err = ValueError("input_len %d outside [1, %d]" % (input_len, num_frames))
    elif bad_len[i]:
        err = ValueError("label_len %d outside [0, %d]" % (label_len, max_len))
    elif bad_label[i]:
        err = ValueError("label indices must lie in [0, %d); got %r" % (
            num_classes - 1, labels[i, :label_len].tolist()))
    else:
        err = InfeasibleAlignment(
            "need at least %d frames for %d labels with %d adjacent repeats, "
            "got input_len=%d"
            % (label_len + repeats[i], label_len, repeats[i], input_len))
    return (i, err), None


@contextmanager
def sequence_named(index):
    """Name sequence ``index`` in an error raised inside the block.

    A ValueError is re-raised with the prefix ``sequence index:``; an
    InfeasibleAlignment also records the index as ``sequence_index``.
    """
    try:
        yield
    except InfeasibleAlignment as err:
        raise InfeasibleAlignment(str(err), sequence_index=index) from err
    except ValueError as err:
        raise ValueError("sequence %d: %s" % (index, err)) from err


def check_sequences(labels, input_lengths, label_lengths, num_frames,
                    num_classes):
    """Validate every sequence of a batch before any work is done.

    ``labels`` is (B, L_max), padded past each label_len. The first
    sequence that breaks a rule of ``_screen`` is named in the error by
    its index in the batch. Returns ``_screen``'s int64 label matrix, in
    which no label past label_len was cast.
    """
    failure, labels = _screen(labels, input_lengths, label_lengths,
                              num_frames, num_classes)
    if failure is not None:
        index, err = failure
        with sequence_named(index):
            raise err
    return labels


def check_labels(label_lists):
    """Every label of ``label_lists``, one list per sequence, as one int64
    array; a label that ``checked_int`` refuses (a bool, a float, a
    string or an integer outside int64) raises, naming its sequence.
    The types are read in one pass and the values cast in one call, so
    integers pass with no loop per label."""
    labels = list(chain.from_iterable(label_lists))
    if all(issubclass(t, numbers.Integral) and t is not bool
           for t in set(map(type, labels))):
        with suppress(OverflowError):  # an integer outside int64
            return np.array(labels, dtype=np.int64)
    index, err = _non_integer("label", label_lists)
    with sequence_named(index):
        raise err


def check_batch(batch, num_classes):
    """``check_sequences`` on a padded batch, after its shapes.

    ``batch`` carries ``features`` (B, T_max, ...), ``labels``
    (B, L_max) and ``input_lengths`` and ``label_lengths`` (B,), arrays
    or lists. Returns the four as arrays: features float64, the rest
    int64, the labels as ``check_sequences`` returns them, so a label
    past label_len is never cast.
    """
    arrays = (batch.features, batch.labels, batch.input_lengths,
              batch.label_lengths)
    shapes = [np.shape(a) for a in arrays]
    if [len(s) for s in shapes] != [3, 2, 1, 1] or len({s[0] for s in shapes}) > 1:
        raise ValueError(
            "a padded batch needs features (B, T_max, ...), labels (B, L_max) "
            "and input and label lengths (B,), got shapes %s"
            % ", ".join(map(str, shapes)))
    labels = check_sequences(*arrays[1:], shapes[0][1], num_classes)
    return (np.asarray(arrays[0], dtype=np.float64), labels,
            *(np.asarray(a, dtype=np.int64) for a in arrays[2:]))


def _matrix(matrix):
    """``matrix`` as a float64 (T, K) array with K >= 2."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[1] < 2:
        raise ValueError("expected a (T, K) matrix with K >= 2")
    return matrix


def check_posteriors(probs, packing=None, index=None):
    """Refuse posteriors unless every row is a distribution over the classes.

    Every entry must be finite and >= 0 and every row sum to 1 within
    1e-6; the error names the first row in row order that breaks this.
    ``probs`` is one sequence's (T, K) rows, or, with ``packing``, a
    packed group's (N, K) rows in its row order, sequence b being the
    caller's sequence ``index[b]``. One pass finds the bad rows of the
    group; the error is that of the first failing sequence in the
    caller's order, named as ``sequence_named`` names it.
    """
    with np.errstate(invalid="ignore"):  # inf - inf in a row already bad
        entries_ok = (np.isfinite(probs) & (probs >= 0.0)).all(axis=1)
        sums = probs.sum(axis=1)
        bad = ~entries_ok | (np.abs(sums - 1.0) > 1e-6)
    if not bad.any():
        return
    rows, named = np.arange(len(probs)), nullcontext()
    if packing is not None:
        failing = np.unique(packing.seq_of_row[bad])
        b = failing[np.argmin(np.asarray(index)[failing])]
        rows, named = packing.rows(b), sequence_named(int(index[b]))
    t = int(np.argmax(bad[rows]))
    with named:
        if entries_ok[rows[t]]:
            raise ValueError("posterior row %d sums to %.9f, not 1 within 1e-6"
                             % (t, sums[rows[t]]))
        raise ValueError("posterior row %d has a NaN, infinite or negative "
                         "entry" % t)


def log_posteriors(probs):
    """Natural log of posteriors; a zero becomes -inf without a warning."""
    with np.errstate(divide="ignore"):
        return np.log(probs)


def posterior_frames(probs, input_len=None):
    """The decoders' input: the first ``input_len`` rows of posteriors.

    The (T, K) shape and input_len rules are the lattice's, and the
    active rows must pass ``check_posteriors``. Rows past ``input_len``
    are padding and are not looked at.
    """
    active, _ = _sequence_args(probs, (), input_len, None)
    check_posteriors(active)
    return active


def _trellis(packing, log_probs, labels, label_lengths, directions):
    """Alpha, and beta when ``directions`` is 2, of a packed batch.

    States run over the (B, S) extended label rows ``ext``, S = 2 *
    L_max + 1, padded with blanks; states past a sequence's own 2L + 1
    emit -inf, so they never carry mass. Beta is alpha run over the
    flipped lattice: its direction takes each sequence's frames last to
    first (``packing.reverse``, a walk of the same steps) and puts state
    s at column S - 1 - s, where beta's s + 1, s + 2 -> s are alpha's
    s - 1, s - 2 -> s; its emissions are ``emit[packing.reverse, ::-1]``.
    One loop fills an (N, D, S + 2) table ``pre`` of the mass before
    each frame's emission, a step's rows of all directions as one
    block: with q = pre + emit of the step before, a state takes
    logaddexp(q[s], q[s-1]), then adds q[s-2] + skip[s]. Two -inf
    columns lead each direction's states, so the shifts need no bounds.
    The start rows hold 0 in states 0 and 1 forward and in the final states
    2L - 1 and 2L backward; alpha is pre + emit. Returns ext, alpha and
    beta (N, S) in the packed row order, beta None for one direction,
    and the log-likelihoods (B,).
    """
    label_lengths = np.asarray(label_lengths, dtype=np.int64)
    N, K = log_probs.shape
    B, blank = len(label_lengths), K - 1
    max_len = int(label_lengths.max())
    S = 2 * max_len + 1
    live = np.arange(max_len) < label_lengths[:, None]
    ext = np.full((B, S), blank, dtype=np.int64)
    ext[:, 1::2] = np.where(live, labels[:, :max_len], blank)
    seq = packing.seq_of_row
    own = np.take_along_axis(log_probs, ext[seq], axis=1)
    own[(np.arange(S) > 2 * label_lengths[:, None])[seq]] = NEG_INF
    emit = np.full((N, directions, S + 2), NEG_INF)
    emit[:, 0, 2:] = own
    if directions == 2:
        emit[:, 1, 2:] = own[packing.reverse, ::-1]
    del own
    # transition s-2 -> s is allowed iff ext[s] is a label differing
    # from ext[s-2]; 0 where allowed, -inf where not
    skip = np.full((B, directions, S + 2), NEG_INF)
    skip[:, 0, 4:][(ext[:, 2:] != blank) & (ext[:, 2:] != ext[:, :-2])] = 0.0
    pre = np.full((N, directions, S + 2), NEG_INF)
    first = packing.steps[0][1]
    pre[:first, 0, 2:4] = 0.0
    if directions == 2:  # flipped, s+2 -> s is allowed iff s -> s+2 is
        skip[:, 1, 4:] = skip[:, 0, :3:-1]
        states = np.arange(S) - 2 * label_lengths[:, None]
        pre[:first, 1, :1:-1][(states == 0) | (states == -1)] = 0.0
    table, emit_rows = pre.reshape(N, -1), emit.reshape(N, -1)
    skip = skip.reshape(B, -1)[:, 2:].copy()
    # every padding column emits -inf, so q is -inf there and no mass
    # crosses from one direction into the other
    q = np.empty((first, table.shape[1]))
    for (prev, _), (start, n) in zip(packing.steps, packing.steps[1:]):
        p = np.add(table[prev:prev + n], emit_rows[prev:prev + n], out=q[:n])
        acc = np.logaddexp(p[:, 2:], p[:, 1:-1])
        np.logaddexp(acc, p[:, :-2] + skip[:n], out=table[start:start + n, 2:])
    # direction 0 of the table turns into alpha in place
    alpha = np.add(pre[:, 0, 2:], emit[:, 0, 2:], out=pre[:, 0, 2:])
    del emit, emit_rows
    # final states 2L - 1 and 2L sit at columns 2L + 1 and 2L + 2;
    # with no labels column 1 is the -inf padding
    ends = pre[packing.last_rows, 0]
    cols = 2 * label_lengths + 1
    ll = np.logaddexp(ends[np.arange(B), cols], ends[np.arange(B), cols + 1])
    if directions == 1:
        return ext, alpha, None, ll
    # copies, so that the table of both directions is freed on return
    return ext, alpha.copy(), pre[packing.reverse, 1, :1:-1], ll


def ctc_gradient_packed(packing, logits, labels, label_lengths):
    """Losses and logit gradients of a packed, length-sorted batch.

    ``logits`` is (N, K) in ``packing``'s row order and ``labels``
    (B, >= L_max) holds each sequence's labels in its first
    ``label_lengths[b]`` entries, already screened (``check_sequences``).
    log_softmax is taken once; alpha and beta advance all sequences a
    step at a time, in one recurrence. Returns (losses (B,), grad (N, K))
    with grad = softmax(logits) - lattice posterior.
    """
    log_probs = log_softmax_rows(logits)
    ext, alpha, beta, ll = _trellis(packing, log_probs, labels, label_lengths, 2)
    seq = packing.seq_of_row
    N, K = log_probs.shape
    occupancy = np.exp(alpha + beta - ll[seq][:, None])
    cells = np.arange(N)[:, None] * K + ext[seq]
    posterior = np.bincount(cells.ravel(), weights=occupancy.ravel(),
                            minlength=N * K).reshape(N, K)
    return -ll, np.exp(log_probs) - posterior


def packed_losses(packing, log_probs, labels, label_lengths):
    """Per-sequence losses of a packed, length-sorted batch.

    ``log_probs`` is (N, K) in ``packing``'s row order and ``labels``
    (B, >= L_max) holds each sequence's labels, both already screened
    (``check_posteriors`` on ``exp(log_probs)``, ``check_sequences``).
    One alpha pass: of logits' log-softmax each loss is
    ``ctc_gradient_packed``'s, bit for bit. Returns the losses (B,).
    """
    return -_trellis(packing, log_probs, labels, label_lengths, 1)[3]


def _one_sequence(probs, labels, directions):
    """``_trellis`` of one sequence's posteriors as a batch of one,
    after ``check_posteriors``."""
    check_posteriors(probs)
    return _trellis(Packing([probs.shape[0]]), log_posteriors(probs),
                    labels[None, :], [labels.size], directions)


def _sequence_args(matrix, labels, input_len, label_len):
    """Active rows and labels of one sequence, screened as a batch of one."""
    matrix = _matrix(matrix)
    labels = _label_array(labels)
    if labels.ndim != 1:
        raise ValueError("labels must be one-dimensional")
    input_len = matrix.shape[0] if input_len is None else input_len
    label_len = labels.size if label_len is None else label_len
    failure, _ = _screen(labels[None, :], [input_len], [label_len], *matrix.shape)
    if failure is not None:
        raise failure[1]
    return matrix[:input_len], labels[:label_len].astype(np.int64)


def _label_array(labels):
    """``labels`` as an array; a list's values keep their types (an
    object array), so ``_screen`` sees a bool or a float as given."""
    if isinstance(labels, np.ndarray):
        return labels
    return np.array(labels, dtype=object)


def _extended_args(probs, ext, input_len):
    """``_sequence_args`` for a blank-extended label sequence ``ext``."""
    probs = _matrix(probs)
    blank = probs.shape[1] - 1
    ext = _label_array(ext)
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
    _, alpha, _, ll = _one_sequence(active, labels, 1)
    return alpha, float(ll[0])


def ctc_backward(probs, ext, input_len):
    """Backward pass; beta[t][s] covers emissions at frames t+1..input_len-1."""
    active, labels = _extended_args(probs, ext, input_len)
    return _one_sequence(active, labels, 2)[2]


def make_lattice(probs, labels, input_len=None, label_len=None):
    """Run both passes and return the filled :class:`Lattice`."""
    active, labels = _sequence_args(probs, labels, input_len, label_len)
    _, alpha, beta, ll = _one_sequence(active, labels, 2)
    return Lattice(alpha=alpha, beta=beta, log_likelihood=float(ll[0]))


def ctc_loss(probs, labels, input_len=None, label_len=None):
    """Negative log-likelihood -ln p(labels | probs).

    Only the first ``input_len`` frames and first ``label_len`` labels
    participate; anything beyond is padding and is ignored entirely.
    """
    active, labels = _sequence_args(probs, labels, input_len, label_len)
    return -float(_one_sequence(active, labels, 1)[3][0])


def ctc_gradient(logits, labels, input_len=None, label_len=None):
    """Loss and its exact gradient w.r.t. pre-softmax activations.

    Runs ``ctc_gradient_packed`` on the batch of one formed by
    ``logits[:input_len]`` and returns (loss, grad) where
    grad[t][k] = softmax(logits)[t][k] - q[t][k], with q the lattice
    posterior of class k at frame t. Rows at t >= input_len are exactly
    zero. An active row holding a NaN or an infinity raises ValueError
    naming it.
    """
    logits = np.asarray(logits, dtype=np.float64)
    active, labels = _sequence_args(logits, labels, input_len, label_len)
    bad = ~np.isfinite(active).all(axis=1)
    if bad.any():
        raise ValueError("logit row %d has a NaN or infinite entry"
                         % int(np.argmax(bad)))
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
    features, labels, lengths, label_lengths = check_batch(batch, features.shape[2])
    order = np.argsort(-lengths, kind="stable")
    packing = Packing(lengths[order])
    probs = packing.pack(features.reshape(-1, features.shape[2]),
                         order * features.shape[1])
    check_posteriors(probs, packing, order)
    losses = np.empty(len(order))
    losses[order] = packed_losses(packing, log_posteriors(probs), labels[order],
                                  label_lengths[order])
    return losses.tolist()
