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
  merging additively. Prefixes are integer ids in a trie, and each
  frame is a few numpy operations on one array of the beam's entries
  and one (beam, K-1) array of their one-label extensions.
- ``best_path_decode`` collapses the per-frame argmax.

Scores are natural-log probabilities. Ties anywhere are broken toward
the lexicographically smaller label sequence (and the lower class index
in per-frame argmax) so results are deterministic. Every decoder
checks its input through ``lattice.posterior_frames``, the lattice's
own shape and input_len rules, and raises ValueError naming the first
active row that holds a NaN, an infinity or a negative entry.
"""

import heapq
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .lattice import collapse, log_posteriors, posterior_frames

DEFAULT_ENUMERATION_BUDGET = 2 ** 22
NEG_INF = -np.inf


class BudgetExceeded(Exception):
    """The instance is too large for exhaustive path enumeration."""


@dataclass
class DecodeResult:
    """Ranked decodes: (label sequence, log-probability) pairs.

    Scores are non-increasing and each <= 0. ``approximate`` is set
    when a prefix-search segment had to fall back to a beam.
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
    BudgetExceeded when K^input_len > max_paths.
    """
    active = posterior_frames(probs, input_len)
    T, K = active.shape
    if top_paths < 1:
        raise ValueError("top_paths must be >= 1")
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
    bound on the aggregated probability of the returned sequence.
    """
    active = posterior_frames(probs, input_len)
    ids = active.argmax(axis=1)
    score = float(log_posteriors(active.max(axis=1)).sum())
    seq = collapse(ids, active.shape[1] - 1)
    return DecodeResult(paths=[(seq, score)])


def check_beam(beam_width, top_paths):
    """Raise ValueError unless 1 <= top_paths <= beam_width."""
    if beam_width < 1:
        raise ValueError("beam_width must be >= 1")
    if top_paths > beam_width:
        raise ValueError(
            "top_paths %d exceeds beam_width %d" % (top_paths, beam_width)
        )
    if top_paths < 1:
        raise ValueError("top_paths must be >= 1")


def beam_search_decode(probs, input_len=None, beam_width=100, top_paths=1):
    """Prefix beam search over collapsed label sequences.

    Each prefix tracks the log mass of the paths that emit it and end in
    a blank and of those that end in its last label (Graves 2012, §7.5;
    Hannun et al. 2014). Prefixes are ids in a trie, and the beam is a
    set of arrays over those ids. Each frame forms two candidate arrays:
    the beam entries that keep their prefix (by a blank, or by repeating
    the last label with no blank between) and the ``(beam, K-1)``
    extensions by one label. An extension that is already a beam entry
    merges into it. The ``beam_width`` candidates with the most merged
    mass survive the frame; the final ranking uses the same mass.
    """
    active = posterior_frames(probs, input_len)
    check_beam(beam_width, top_paths)
    T, K = active.shape
    blank = K - 1
    logp = log_posteriors(active)
    labels = np.arange(blank)

    # The trie: node 0 is the empty prefix and node n is the prefix of
    # parent[n] followed by label[n]. A prefix keeps its id when it
    # leaves the beam and comes back, so that equal prefixes meet.
    parent = [-1]
    label = [-1]
    children = {}

    def prefix_of(n):
        out = []
        while n:
            out.append(label[n])
            n = parent[n]
        return tuple(reversed(out))

    # The beam, one entry per prefix: its node, the node's parent and
    # last label (-1 for the empty prefix), and the log mass ending in
    # blank (pb) and in the last label (pnb).
    node = np.zeros(1, dtype=np.intp)
    up = np.full(1, -1, dtype=np.intp)
    last = np.full(1, -1, dtype=np.intp)
    pb = np.zeros(1)
    pnb = np.full(1, NEG_INF)

    for t in range(T):
        row = logp[t]
        W = len(node)
        total = np.logaddexp(pb, pnb)
        keep_b = total + row[blank]
        keep_nb = np.where(last >= 0, pnb + row[last], NEG_INF)
        # After a blank, the last label starts a new symbol; without
        # one it collapses into the prefix (keep_nb above).
        ext = np.where(labels == last[:, None], pb[:, None],
                       total[:, None]) + row[:blank]
        # Each prefix has one parent, so a bucket gets at most two
        # contributions and the merge is one logaddexp in either order.
        into, src = np.nonzero(up[:, None] == node[None, :])
        keep_nb[into] = np.logaddexp(keep_nb[into], ext[src, last[into]])
        fresh = np.ones(ext.shape, dtype=bool)
        fresh[src, last[into]] = False
        ext_src, ext_c = np.nonzero(fresh)

        # the candidates: the W kept prefixes, then the fresh extensions
        cand_from = np.concatenate([np.arange(W), ext_src])
        cand_last = np.concatenate([last, ext_c])
        cand_b = np.concatenate([keep_b, np.full(len(ext_c), NEG_INF)])
        cand_nb = np.concatenate([keep_nb, ext[ext_src, ext_c]])
        score = np.logaddexp(cand_b, cand_nb)
        n = len(score)
        if n <= beam_width:
            sel = np.arange(n)
        else:
            cut = np.partition(score, n - beam_width)[n - beam_width]
            sel = np.flatnonzero(score > cut)
            tied = np.flatnonzero(score == cut)
            need = beam_width - len(sel)
            if len(tied) > need:
                # equal mass: the lexicographically smaller prefix wins
                bases = {}
                keys = []
                for j, i in zip(tied.tolist(), cand_from[tied].tolist()):
                    if i not in bases:
                        bases[i] = prefix_of(node[i])
                    grows = (int(cand_last[j]),) if j >= W else ()
                    keys.append(bases[i] + grows)
                order = sorted(range(len(tied)), key=keys.__getitem__)
                tied = tied[order[:need]]
            sel = np.concatenate([sel, tied])

        grown = sel >= W
        origin = cand_from[sel]
        up = np.where(grown, node[origin], up[origin])
        last = cand_last[sel]
        node = node[origin]
        for k in np.flatnonzero(grown).tolist():
            key = (int(node[k]), int(last[k]))
            child = children.get(key)
            if child is None:
                child = len(parent)
                parent.append(key[0])
                label.append(key[1])
                children[key] = child
            node[k] = child
        pb = cand_b[sel]
        pnb = cand_nb[sel]

    score = np.logaddexp(pb, pnb)
    finals = sorted(
        range(len(node)), key=lambda j: (-score[j], prefix_of(node[j]))
    )[:top_paths]
    paths = [(list(prefix_of(node[j])), float(score[j])) for j in finals]
    return DecodeResult(paths=paths)


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
    A segment that exhausts ``node_budget`` falls back to a width-32
    beam and marks the result approximate.
    """
    active = posterior_frames(probs, input_len)
    if not 0.5 < blank_threshold <= 1.0:
        raise ValueError("blank_threshold must lie in (0.5, 1]")
    T, K = active.shape
    blank = K - 1
    logp = log_posteriors(active)

    boundary = active[:, blank] > blank_threshold
    segments = []
    start = None
    for t in range(T):
        if boundary[t]:
            if start is not None:
                segments.append((start, t))
                start = None
        elif start is None:
            start = t
    if start is not None:
        segments.append((start, T))

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
