"""Decoders that map a posterior matrix to label sequences.

Four strategies, slowest to fastest:

- ``exact_decode`` enumerates every frame-level path and aggregates
  probability mass per collapsed sequence. Exponential in T; guarded by
  an enumeration budget. Serves as the oracle for the others.
- ``prefix_search_decode`` splits the input at frames where blank is
  nearly certain and runs a best-first search over label prefixes
  inside each segment; exact per segment, with a beam fallback when the
  node budget runs out.
- ``beam_search_decode`` is the time-synchronous prefix beam search,
  tracking blank-ending and non-blank-ending mass separately and
  merging additively. It is the batch of one of ``beam_search_packed``,
  which decodes a whole packed group (``ctckit.packing``): each frame
  step advances every sequence still running as one (sequences, beam,
  K) candidate array, a few numpy operations whatever the group size.
  A beam entry is named by its row of codes, its sequence's and then
  its labels': an extension finds the entry it equals by one sorted
  search of the rows, and ties at the beam's cut go to the
  lexicographically smaller prefix, by one ``np.lexsort`` over the
  rows read as byte strings.
- ``best_path_decode`` collapses the per-frame argmax; it is the batch
  of one of ``best_path_packed``, one argmax over a whole group.

Scores are natural-log probabilities. Ties anywhere are broken toward
the lexicographically smaller label sequence (and the lower class index
in per-frame argmax) so results are deterministic. Every decoder of
one sequence checks its input through ``lattice.posterior_frames``: the
lattice's own shape and input_len rules and its one posterior rule,
``lattice.check_posteriors``, which raises ValueError naming the first
active row that holds a NaN, an infinity or a negative entry or does
not sum to 1. Every score is then a log-probability, at most 0, and
prefix search's bound on the mass left to extensions, 1 - p(best),
holds. The packed decoders take a group screened once by
``check_posteriors``.
"""

import heapq
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .lattice import collapse, log_posteriors, posterior_frames
from .net import checked_int, checked_real
from .packing import Packing

DEFAULT_ENUMERATION_BUDGET = 2 ** 22
NEG_INF = -np.inf
# candidates in one beam step's (sequences, beam, K) arrays, at most; a
# packed group with more sequences is decoded in runs of consecutive ones
STEP_CANDIDATES = 2 ** 18


class BudgetExceeded(Exception):
    """The instance is too large for exhaustive path enumeration."""


@dataclass
class DecodeResult:
    """Ranked decodes: (label sequence, log-probability) pairs.

    Scores are non-increasing and each <= 0, as every decoder takes
    only rows that sum to 1 (``lattice.check_posteriors``).
    ``approximate`` is set when a prefix-search segment had to fall back
    to a beam.
    """

    paths: list = field(default_factory=list)
    approximate: bool = False

    @property
    def best(self):
        return self.paths[0][0]

    @property
    def best_score(self):
        return self.paths[0][1]


def _ranked(items, top_paths):
    # items: iterable of (sequence tuple, probability). Lexicographic
    # tie-break on equal probability.
    ranked = sorted(items, key=lambda kv: (-kv[1], kv[0]))
    return [(list(seq), float(log_posteriors(p))) for seq, p in ranked[:top_paths]]


def exact_decode(probs, input_len=None, top_paths=1,
                 max_paths=DEFAULT_ENUMERATION_BUDGET):
    """Aggregate all K^input_len paths by collapsed sequence.

    Returns the ``top_paths`` sequences by total probability. Raises
    BudgetExceeded when K^input_len > max_paths, an integer >= 1
    (``checked_int``).
    """
    active = posterior_frames(probs, input_len)
    T, K = active.shape
    top_paths = checked_int("top_paths", top_paths)
    max_paths = checked_int("max_paths", max_paths)
    if T * math.log(K) > math.log(max_paths):
        raise BudgetExceeded(
            "%d^%d paths exceed the enumeration budget of %d" % (K, T, max_paths)
        )
    blank = K - 1
    rows = [active[t] for t in range(T)]
    totals = {}
    for path in itertools.product(range(K), repeat=T):
        p = 1.0
        for t, sym in enumerate(path):
            p *= rows[t][sym]
        seq = tuple(collapse(path, blank))
        totals[seq] = totals.get(seq, 0.0) + p
    reachable = [(seq, p) for seq, p in totals.items() if p > 0.0]
    return DecodeResult(paths=_ranked(reachable, top_paths))


def best_path_decode(probs, input_len=None):
    """Per-frame argmax followed by collapse; the fast greedy default.

    The score is the log-probability of the argmax path itself, a lower
    bound on the aggregated probability of the returned sequence. This
    is ``best_path_packed`` on a batch of one.
    """
    active = posterior_frames(probs, input_len)
    return best_path_packed(active, Packing([active.shape[0]]))[0]


def best_path_packed(probs, packing):
    """``best_path_decode`` of every sequence of a packed group.

    ``probs`` is the group's (N, K) posteriors in ``packing``'s row
    order, already screened (``lattice.check_posteriors``). One
    argmax and one max run over all N rows; each sequence then collapses
    its own ids and sums its own log maxima in time order. Returns one
    DecodeResult per sequence, in packing order.
    """
    ids = probs.argmax(axis=1)
    logs = log_posteriors(probs.max(axis=1))
    blank = probs.shape[1] - 1
    # collapse: a label that repeats the same sequence's previous frame
    # merges into it, and blanks drop out
    keep = ids != blank
    keep[packing.steps[0][1]:] &= ids[packing.steps[0][1]:] != ids[packing.prev_rows]
    results = []
    for b in range(packing.lengths.size):
        rows = packing.rows(b)
        results.append(DecodeResult(paths=[
            (ids[rows[keep[rows]]].tolist(), float(logs[rows].sum()))
        ]))
    return results


def check_beam(beam_width, top_paths):
    """(beam_width, top_paths) as ints (``checked_int``), if
    1 <= top_paths <= beam_width; otherwise ValueError."""
    beam_width = checked_int("beam_width", beam_width)
    top_paths = checked_int("top_paths", top_paths)
    if top_paths > beam_width:
        raise ValueError(
            "top_paths %d exceeds beam_width %d" % (top_paths, beam_width)
        )
    return beam_width, top_paths


def beam_search_decode(probs, input_len=None, beam_width=100, top_paths=1):
    """Prefix beam search over collapsed label sequences.

    ``beam_search_packed`` on a batch of one; see there.
    """
    active = posterior_frames(probs, input_len)
    return beam_search_packed(active, Packing([active.shape[0]]),
                              beam_width, top_paths)[0]


def _code_dtype(largest):
    # codes below largest, big-endian, so that rows of them padded with
    # 0 compare as byte strings in lexicographic order, a proper prefix
    # first
    return np.dtype(">u1" if largest <= 256 else ">u2" if largest <= 2 ** 16
                    else ">u4")


def _strings(codes, kind="S"):
    """Rows of codes as one byte string (kind "S") or void ("V") each."""
    codes = np.ascontiguousarray(codes)
    return codes.view("%s%d" % (kind, codes.shape[1] * codes.itemsize)).ravel()


def beam_search_packed(probs, packing, beam_width=100, top_paths=1):
    """Prefix beam search of every sequence of a packed group at once.

    Each prefix tracks the log mass of the paths that emit it and end in
    a blank and of those that end in its last label (Graves 2012, §7.5;
    Hannun et al. 2014). ``probs`` is the group's (N, K) posteriors in
    ``packing``'s row order, already screened
    (``lattice.check_posteriors``). Returns one DecodeResult per
    sequence, in packing order, each that of the sequence decoded alone.

    Step t advances the n_t sequences still running (the rows
    ``packing.steps[t]``) as one (n_t, W, K) candidate array: per beam
    entry the entry itself kept (by a blank, or by repeating its last
    label with no blank between), then its K-1 one-label extensions. An
    extension that is already a beam entry merges into it, one
    ``logaddexp``, and its own slot drops out. The ``beam_width``
    candidates with the most merged mass survive, a per-row
    ``np.partition``; the final ranking uses the same mass. Every
    sequence's beam has the same width W at every step: the beam holds
    all prefixes until it first fills, and ``beam_width`` from then on.

    A beam entry is named by a row of codes padded with 0: its
    sequence's number plus 1, then its labels plus 1, so no two entries
    of a group share a row. One sorted search of the rows finds which
    entries' parents (the prefix less its last label) are in the beam.
    Ties at the cut, and in the final ranking, go to the
    lexicographically smaller prefix: one ``np.lexsort`` orders
    candidates of equal mass by their rows read as byte strings.

    A step's arrays hold n_t * W * K candidates. Where that could pass
    ``STEP_CANDIDATES``, runs of consecutive sequences are decoded one
    after the other, each as a packing of its own.
    """
    beam_width, top_paths = check_beam(beam_width, top_paths)
    logp = log_posteriors(np.asarray(probs, dtype=np.float64))
    run = max(1, STEP_CANDIDATES // (beam_width * logp.shape[1]))
    if run >= packing.lengths.size:
        return _beam_search(logp, packing, beam_width, top_paths)
    results = []
    for first in range(0, packing.lengths.size, run):
        part = Packing(packing.lengths[first:first + run])
        rows = packing.offsets[part.time_of_row] + first + part.seq_of_row
        results += _beam_search(logp[rows], part, beam_width, top_paths)
    return results


def _beam_search(logp, packing, beam_width, top_paths):
    """``beam_search_packed`` of one packing, from its log posteriors."""
    K = logp.shape[1]
    blank = K - 1
    B = packing.lengths.size
    results = [None] * B

    # the beam, flat over (sequence, entry): the log mass ending in blank
    # (pb) and in the last label (pnb), the code rows, and each prefix's
    # length (depth) and last code (0 for the empty prefix)
    w = 1
    pb = np.zeros(B)
    pnb = np.full(B, NEG_INF)
    codes = np.zeros((B, len(packing.steps) + 1), dtype=_code_dtype(max(K, B + 1)))
    codes[:, 0] = np.arange(1, B + 1)
    depth = np.zeros(B, dtype=np.intp)
    last = np.zeros(B, dtype=np.intp)
    shape = None

    for t, (start, n) in enumerate(packing.steps):
        if n * w < pb.size:  # sequences n.. ended at the previous frame
            _finish(results, n, pb, pnb, codes, w, top_paths)
            pb, pnb, codes, depth, last = (
                a[:n * w] for a in (pb, pnb, codes, depth, last))
        if shape != (n, w):
            shape = (n, w)
            entry = np.arange(n * w)
            seq_row = entry // w * K
            entry_k = entry * K
            slots = None  # the tie-break's, made when first needed
        row = logp[start:start + n]

        total = np.logaddexp(pb, pnb)
        keep_b = (total.reshape(n, w) + row[:, blank:]).ravel()
        # the empty prefix has no label mass (pnb = -inf), whatever its
        # code 0 picks from the row before
        last_p = row.ravel()[seq_row + last - 1]
        keep_nb = pnb + last_p
        cand = np.empty((n, w, K))
        np.add(total.reshape(n, w, 1), row[:, None, :blank], out=cand[:, :, 1:])
        cand = cand.ravel()
        # After a blank, the last label starts a new symbol; without one
        # it collapses into the prefix (keep_nb above). The empty
        # prefix writes its kept slot, which is set below.
        cand[entry_k + last] = pb + last_p
        # An entry's parent is its row with the code at its depth zeroed
        # (the empty prefix's, all 0, names no entry). The first row at
        # or after it in byte order lies between it and the entry's own,
        # so it starts with the parent's codes, and is the parent if one
        # label shorter than the entry. Void rows sort as byte strings
        # do, several times faster, but np.lexsort takes only strings.
        # Each prefix has one parent, so an entry gets at most two
        # contributions and the merge is one logaddexp in either order.
        keys = _strings(codes, "V")
        parent = codes.copy()
        parent[entry, depth] = 0
        wanted = _strings(parent, "V")
        order = keys.argsort()
        src = order[np.searchsorted(keys, wanted, sorter=order)]
        into = depth[src] == depth - 1
        at = src * K + last
        np.logaddexp(keep_nb, cand[at], out=keep_nb, where=into)
        cand[::K] = keep_nb
        # candidates rank by cost, the negated merged mass; a merged-away
        # slot costs NaN, which no comparison keeps and every sort puts last
        cost = np.negative(cand)
        cost[::K] = np.negative(np.logaddexp(keep_b, keep_nb))
        cost[at[into]] = np.nan

        if w < beam_width and w * blank + 1 <= beam_width:
            # the beam has held every prefix so far and holds all of them
            # again: w * K candidates less the w - 1 merged in every row
            sel = (cost == cost).nonzero()[0]
            w = w * blank + 1
        else:
            by_row = cost.reshape(n, w * K)
            cut = np.partition(by_row, beam_width - 1, axis=1)[:, beam_width - 1, None]
            keep = by_row <= cut
            sel = keep.ravel().nonzero()[0]
            if sel.size != n * beam_width:  # some row's cut falls in a tie
                if slots is None:
                    slots = _slot_indices(n, w, K)
                sel = _break_ties(by_row, keep, beam_width, codes, depth, slots)
            w = beam_width

        origin, code = np.divmod(sel, K)  # code 0: the entry kept
        pnb = cand[sel]
        pb = keep_b[origin]
        codes, depth, last = codes[origin], depth[origin], last[origin]
        grown = code.nonzero()[0]
        if grown.size:
            pb[grown] = NEG_INF
            depth[grown] += 1
            last[grown] = code = code[grown]
            codes[grown, depth[grown]] = code

    _finish(results, 0, pb, pnb, codes, w, top_paths)
    return results


def _slot_indices(n, w, K):
    """Per candidate slot of an (n, w, K) step: its index, beam entry, code and row."""
    slot = np.arange(n * w * K)
    entry, code = np.divmod(slot, K)
    return slot, entry, code, slot // (w * K)


def _break_ties(cost, keep, beam_width, codes, depth, slots):
    """Flat indices of the ``beam_width`` cheapest slots of each row of ``cost``.

    ``cost`` is (n, w * K): per beam entry the entry kept, then its K-1
    extensions; ``keep`` marks the slots at or below each row's cut, and
    ``slots`` is ``_slot_indices`` of the step. Rows that keep more than
    ``beam_width`` slots have their cut in a tie, and only they are
    ranked again, equal costs going to the lexicographically smaller
    prefix: one ``np.lexsort`` over their slots whose last key is the
    slot's code row, its entry's row with the slot's code written in
    after the entry's ``depth`` labels (a kept entry writes the 0 it
    has there).
    """
    n, S = cost.shape
    rows = (keep.sum(axis=1) != beam_width).nonzero()[0]
    slot, entry, code, seq = slots
    costs = cost.ravel()
    if rows.size < n:
        slot = (rows[:, None] * S + np.arange(S)).ravel()
        entry, code, seq, costs = entry[slot], code[slot], seq[slot], costs[slot]
    keys = _strings(codes)[entry]
    keys.view(codes.dtype).reshape(slot.size, -1)[slots[0][:slot.size], depth[entry] + 1] = code
    top = slot[np.lexsort((keys, costs, seq)).reshape(rows.size, S)[:, :beam_width]].ravel()
    if rows.size == n:
        return top
    keep[rows] = False
    keep.ravel()[top] = True
    return keep.ravel().nonzero()[0]


def _finish(results, first, pb, pnb, codes, w, top_paths):
    """Rank the beams of sequences ``first``.. into ``results``.

    Each keeps its ``top_paths`` best entries by merged mass, ties to
    the lexicographically smaller prefix; an entry's labels are its code
    row after the leading sequence code.
    """
    score = np.logaddexp(pb[first * w:], pnb[first * w:])
    labels = codes[first * w:, 1:]
    seq = np.arange(score.size) // w
    order = np.lexsort((_strings(labels), -score, seq)).reshape(-1, w)
    for b, best in enumerate(order[:, :top_paths], first):
        results[b] = DecodeResult(paths=[
            ((labels[j][labels[j] > 0].astype(np.intp) - 1).tolist(), float(score[j]))
            for j in best.tolist()
        ])


class _NodeBudgetExhausted(Exception):
    pass


def _log1mexp(x):
    # log(1 - exp(x)) for x <= 0
    if x >= 0.0:
        return NEG_INF
    if x == NEG_INF:
        return 0.0
    return float(np.log(-np.expm1(x)))


def _prefix_search_segment(logp, node_budget):
    """Exact best labelling of one segment via best-first prefix search.

    Nodes carry, per frame, the log mass of paths emitting exactly the
    node's prefix and ending in a non-blank (lnb) or in a blank (lb).
    The queue is ordered by the mass still available to proper
    extensions of the prefix; the search stops once that upper bound
    drops to the best complete labelling found.
    """
    S, K = logp.shape
    blank = K - 1
    labels = range(K - 1)

    root_lnb = np.full(S, NEG_INF)
    root_lb = np.cumsum(logp[:, blank])
    best_seq = ()
    best_logp = float(root_lb[-1])
    remaining = _log1mexp(best_logp)

    heap = []
    if remaining > best_logp:
        heapq.heappush(heap, (-remaining, (), root_lnb, root_lb))
    nodes = 0

    while heap:
        neg_ext, prefix, plnb, plb = heapq.heappop(heap)
        if -neg_ext <= best_logp:
            break
        last = prefix[-1] if prefix else None
        for k in labels:
            nodes += 1
            if nodes > node_budget:
                raise _NodeBudgetExhausted()
            lnb = np.full(S, NEG_INF)
            lb = np.full(S, NEG_INF)
            lnb[0] = logp[0, k] if not prefix else NEG_INF
            prefix_mass = lnb[0]
            for t in range(1, S):
                new_label = plb[t - 1]
                if last != k:
                    new_label = np.logaddexp(new_label, plnb[t - 1])
                lnb[t] = logp[t, k] + np.logaddexp(new_label, lnb[t - 1])
                lb[t] = logp[t, blank] + np.logaddexp(lb[t - 1], lnb[t - 1])
                prefix_mass = np.logaddexp(prefix_mass, logp[t, k] + new_label)
            child = prefix + (k,)
            complete = float(np.logaddexp(lnb[-1], lb[-1]))
            extension = (
                float(prefix_mass + _log1mexp(min(complete - prefix_mass, 0.0)))
                if prefix_mass > NEG_INF
                else NEG_INF
            )
            if complete > best_logp or (
                complete == best_logp and child < best_seq
            ):
                best_seq, best_logp = child, complete
            if extension > best_logp:
                heapq.heappush(heap, (-extension, child, lnb, lb))

    return list(best_seq), best_logp


def prefix_search_decode(probs, input_len=None, blank_threshold=0.999,
                         node_budget=100_000):
    """Segment at near-certain blanks, then search each segment exactly.

    Frames whose blank posterior exceeds ``blank_threshold`` are treated
    as forced blanks and split the input; each remaining segment is
    decoded by best-first prefix search and the per-segment outputs are
    concatenated. The score is the sum of the segment log-probabilities
    and of the log blank mass of every boundary frame: the log
    probability of the paths that emit the returned labelling with a
    blank at each boundary frame.
    A segment that exhausts ``node_budget``, an integer >= 1
    (``checked_int``), falls back to a width-32 beam and marks the
    result approximate. ``blank_threshold`` must be a number
    (``checked_real``) in (0.5, 1].
    """
    active = posterior_frames(probs, input_len)
    node_budget = checked_int("node_budget", node_budget)
    if not 0.5 < checked_real("blank_threshold", blank_threshold) <= 1.0:
        raise ValueError("blank_threshold must lie in (0.5, 1]")
    blank = active.shape[1] - 1
    logp = log_posteriors(active)

    # segments are the runs of non-boundary frames: a run starts where
    # the mask, padded with a boundary at both ends, falls and ends
    # where it rises
    boundary = active[:, blank] > blank_threshold
    edges = np.flatnonzero(np.diff(np.concatenate(([True], boundary, [True]))))
    segments = edges.reshape(-1, 2).tolist()

    sequence = []
    score = float(logp[boundary, blank].sum())
    approximate = False
    for t0, t1 in segments:
        try:
            seq, seg_score = _prefix_search_segment(logp[t0:t1], node_budget)
        except _NodeBudgetExhausted:
            fallback = beam_search_decode(
                active[t0:t1], beam_width=32, top_paths=1
            )
            seq, seg_score = fallback.paths[0]
            approximate = True
        sequence.extend(seq)
        score += seg_score
    return DecodeResult(paths=[(sequence, score)], approximate=approximate)
