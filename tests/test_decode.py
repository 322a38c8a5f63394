"""Decoders against exhaustive enumeration and each other."""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctckit import decode
from ctckit.decode import (
    BudgetExceeded,
    beam_search_decode,
    beam_search_packed,
    best_path_decode,
    best_path_packed,
    exact_decode,
    prefix_search_decode,
)
from ctckit.packing import Packing

from oracles import random_posterior, ranked_sequences, scalar_beam_search

# the divergence instance: blank wins each frame, yet [a] carries most mass
DIVERGENT = np.array([[0.4, 0.6], [0.4, 0.6]])
SCORE_A = -0.4462871026284195   # ln(0.16 + 0.24 + 0.24)
SCORE_EMPTY = -1.0216512475319814  # ln(0.36)


def one_hot_probs(symbols, num_classes):
    probs = np.zeros((len(symbols), num_classes))
    probs[np.arange(len(symbols)), symbols] = 1.0
    return probs


class TestExactDecode:
    def test_divergence_instance(self):
        result = exact_decode(DIVERGENT, top_paths=2)
        assert result.paths[0] == ([0], pytest.approx(SCORE_A, abs=1e-12))
        assert result.paths[1] == ([], pytest.approx(SCORE_EMPTY, abs=1e-12))

    def test_single_frame(self):
        result = exact_decode(np.array([[0.7, 0.3]]))
        assert result.paths == [([0], pytest.approx(np.log(0.7)))]

    def test_one_hot_is_certain(self):
        probs = one_hot_probs([0, 0, 2, 1], 3)
        result = exact_decode(probs)
        assert result.paths == [([0, 1], 0.0)]

    def test_budget_guard(self):
        probs = np.full((30, 4), 0.25)
        with pytest.raises(BudgetExceeded):
            exact_decode(probs)
        # shortening the window brings it back under budget
        exact_decode(probs, input_len=5)

    def test_matches_independent_enumeration(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            T = int(rng.integers(1, 6))
            K = int(rng.integers(2, 4))
            probs = random_posterior(rng, T, K)
            expected = ranked_sequences(probs)
            got = exact_decode(probs, top_paths=4).paths
            assert [tuple(s) for s, _ in got] == [s for s, _ in expected[:4]]
            for (_, score), (_, p) in zip(got, expected):
                assert score == pytest.approx(np.log(p), abs=1e-10)


class TestBestPathDecode:
    def test_argmax_then_collapse(self):
        probs = np.array([[0.6, 0.1, 0.3], [0.5, 0.2, 0.3], [0.1, 0.2, 0.7]])
        result = best_path_decode(probs)
        assert result.paths[0][0] == [0]

    def test_diverges_from_exact(self):
        result = best_path_decode(DIVERGENT)
        assert result.paths[0][0] == []
        assert result.paths[0][1] == pytest.approx(SCORE_EMPTY, abs=1e-12)

    def test_one_hot_matches_exact(self):
        probs = one_hot_probs([1, 1, 2, 0], 3)
        assert best_path_decode(probs).paths == exact_decode(probs).paths

    def test_score_lower_bounds_exact_top1(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            T = int(rng.integers(1, 6))
            K = int(rng.integers(2, 4))
            probs = random_posterior(rng, T, K)
            greedy = best_path_decode(probs).paths[0][1]
            top1 = exact_decode(probs).paths[0][1]
            assert greedy <= top1 + 1e-12

    def test_argmax_tie_prefers_lower_index(self):
        probs = np.array([[0.5, 0.5]])
        assert best_path_decode(probs).paths[0][0] == [0]


class TestBeamSearchDecode:
    def test_divergence_instance(self):
        result = beam_search_decode(DIVERGENT, beam_width=2)
        assert result.paths[0][0] == [0]
        assert result.paths[0][1] == pytest.approx(SCORE_A, abs=1e-9)

    def test_saturating_width_matches_exact_ranking(self):
        rng = np.random.default_rng(27)
        for _ in range(150):
            T = int(rng.integers(1, 6))
            K = int(rng.integers(2, 4))
            probs = random_posterior(rng, T, K)
            expected = ranked_sequences(probs)
            width = len(expected) + 4
            got = beam_search_decode(
                probs, beam_width=width, top_paths=min(3, len(expected))
            ).paths
            assert [tuple(s) for s, _ in got] == \
                [s for s, _ in expected[: len(got)]]
            for (_, score), (_, p) in zip(got, expected):
                assert score == pytest.approx(np.log(p), abs=1e-9)

    def test_one_hot_width_one(self):
        probs = one_hot_probs([2, 0, 0, 2, 1], 3)
        result = beam_search_decode(probs, beam_width=1)
        assert result.paths == [([0, 1], 0.0)]

    def test_top_paths_exceeding_width_rejected(self):
        with pytest.raises(ValueError):
            beam_search_decode(DIVERGENT, beam_width=2, top_paths=3)

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        probs = random_posterior(rng, 5, 3)
        a = beam_search_decode(probs, beam_width=4, top_paths=2)
        b = beam_search_decode(probs, beam_width=4, top_paths=2)
        assert a.paths == b.paths


class TestPrefixSearchDecode:
    def test_single_segment_equals_exact(self):
        rng = np.random.default_rng(37)
        for _ in range(100):
            T = int(rng.integers(1, 7))
            K = int(rng.integers(2, 5))
            probs = random_posterior(rng, T, K)
            top1 = exact_decode(probs).paths[0]
            got = prefix_search_decode(probs, blank_threshold=1.0)
            assert not got.approximate
            assert got.paths[0][0] == top1[0]
            assert got.paths[0][1] == pytest.approx(top1[1], abs=1e-9)

    def test_certain_blank_splits_into_halves(self):
        rng = np.random.default_rng(38)
        probs = random_posterior(rng, 7, 3)
        probs[3] = [0.0, 0.0, 1.0]
        left = exact_decode(probs[:3]).paths[0]
        right = exact_decode(probs[4:]).paths[0]
        got = prefix_search_decode(probs).paths[0]
        assert got[0] == left[0] + right[0]
        assert got[1] == pytest.approx(left[1] + right[1], abs=1e-9)

    def test_one_hot(self):
        probs = one_hot_probs([0, 2, 2, 1, 1], 3)
        result = prefix_search_decode(probs)
        assert result.paths[0][0] == [0, 1]

    def test_budget_falls_back_to_beam(self):
        rng = np.random.default_rng(39)
        probs = random_posterior(rng, 6, 4)
        result = prefix_search_decode(probs, blank_threshold=1.0, node_budget=2)
        assert result.approximate
        fallback = beam_search_decode(probs, beam_width=32)
        assert result.paths[0][0] == fallback.paths[0][0]

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            prefix_search_decode(DIVERGENT, blank_threshold=0.5)
        with pytest.raises(ValueError):
            prefix_search_decode(DIVERGENT, blank_threshold=1.2)

    def test_boundary_blank_mass_enters_score(self):
        rng = np.random.default_rng(40)
        probs = random_posterior(rng, 7, 3)
        probs[3] = [0.00025, 0.00025, 0.9995]
        left = exact_decode(probs[:3]).paths[0]
        right = exact_decode(probs[4:]).paths[0]
        got = prefix_search_decode(probs, blank_threshold=0.999).paths[0]
        assert got[0] == left[0] + right[0]
        assert got[1] == pytest.approx(
            left[1] + np.log(0.9995) + right[1], abs=1e-12
        )

    def test_all_blank_frames_give_empty(self):
        probs = one_hot_probs([2, 2, 2], 3)
        result = prefix_search_decode(probs)
        assert result.paths[0][0] == []


class TestDecodeResultInvariants:
    def test_scores_sorted_nonpositive_unique_sequences(self):
        rng = np.random.default_rng(47)
        for _ in range(100):
            T = int(rng.integers(1, 6))
            K = int(rng.integers(2, 4))
            probs = random_posterior(rng, T, K)
            for result in (
                exact_decode(probs, top_paths=5),
                beam_search_decode(probs, beam_width=8, top_paths=5),
                best_path_decode(probs),
                prefix_search_decode(probs, blank_threshold=1.0),
            ):
                scores = [s for _, s in result.paths]
                assert all(s <= 1e-12 for s in scores)
                assert all(a >= b for a, b in zip(scores, scores[1:]))
                seqs = [tuple(s) for s, _ in result.paths]
                assert len(seqs) == len(set(seqs))


class TestRejectsBadPosteriors:
    DECODERS = {
        "exact": exact_decode,
        "best_path": best_path_decode,
        "beam": lambda p: beam_search_decode(p, beam_width=4),
        "prefix_search": prefix_search_decode,
    }

    @pytest.mark.parametrize("decoder", sorted(DECODERS))
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -0.25])
    def test_names_first_bad_row(self, decoder, bad):
        probs = np.full((4, 3), 1.0 / 3.0)
        probs[2, 1] = bad
        probs[3, 0] = bad
        with pytest.raises(ValueError, match="row 2"):
            self.DECODERS[decoder](probs)

    def test_frames_past_input_len_are_not_checked(self):
        probs = np.full((4, 3), 1.0 / 3.0)
        probs[3] = np.nan
        for decode in self.DECODERS.values():
            decode(probs[:3])
        assert beam_search_decode(probs, input_len=3).paths == \
            beam_search_decode(probs[:3]).paths


def random_beam_instance(rng, rounded):
    T = int(rng.integers(1, 41))
    K = int(rng.integers(2, 9))
    width = int(rng.integers(1, 17))
    top_paths = int(rng.integers(1, width + 1))
    probs = random_posterior(rng, T, K)
    if rounded:
        # coarse values make zero entries and exactly tied prefixes
        probs = np.round(probs * 4) / 4
    return probs, width, top_paths


class TestBeamMatchesScalarReference:
    """The vectorized beam equals the per-prefix dict loop bit for bit."""

    def test_random_instances(self):
        rng = np.random.default_rng(57)
        for i in range(320):
            probs, width, top_paths = random_beam_instance(rng, i % 2 == 1)
            got = beam_search_decode(probs, beam_width=width,
                                     top_paths=top_paths).paths
            assert got == scalar_beam_search(probs, beam_width=width,
                                             top_paths=top_paths)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_property(self, data):
        T = data.draw(st.integers(1, 40))
        K = data.draw(st.integers(2, 8))
        width = data.draw(st.integers(1, 16))
        top_paths = data.draw(st.integers(1, width))
        value = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]),
                          st.floats(0.0, 1.0))
        probs = np.array(data.draw(st.lists(
            st.lists(value, min_size=K, max_size=K), min_size=T, max_size=T)))
        input_len = data.draw(st.integers(1, T))
        got = beam_search_decode(probs, input_len=input_len,
                                 beam_width=width, top_paths=top_paths).paths
        assert got == scalar_beam_search(probs, input_len=input_len,
                                         beam_width=width, top_paths=top_paths)

    def test_long_near_uniform(self):
        rng = np.random.default_rng(58)
        probs = 0.9 / 29 + 0.1 * random_posterior(rng, 200, 29)
        got = beam_search_decode(probs, beam_width=16, top_paths=2).paths
        assert got == scalar_beam_search(probs, beam_width=16, top_paths=2)

    def test_fewer_prefixes_than_top_paths(self):
        probs = np.array([[0.3, 0.7]])
        got = beam_search_decode(probs, beam_width=4, top_paths=3).paths
        assert len(got) == 2
        assert got == scalar_beam_search(probs, beam_width=4, top_paths=3)


def packed(posteriors):
    """The (N, K) rows and the Packing of length-sorted posteriors."""
    packing = Packing([len(p) for p in posteriors])
    probs = np.empty((packing.num_frames, posteriors[0].shape[1]))
    for b, p in enumerate(posteriors):
        probs[packing.rows(b)] = p
    return probs, packing


class TestPackedBeamSearch:
    """A packed group decodes each sequence as the scalar beam does alone."""

    def check(self, posteriors, width, top_paths):
        posteriors = sorted(posteriors, key=len, reverse=True)
        got = beam_search_packed(*packed(posteriors), width, top_paths)
        assert [r.paths for r in got] == [
            scalar_beam_search(p, beam_width=width, top_paths=top_paths)
            for p in posteriors]

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_property(self, data):
        K = data.draw(st.integers(2, 8))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        posteriors = []
        for _ in range(data.draw(st.integers(1, 6))):
            p = random_posterior(rng, data.draw(st.integers(1, 40)), K)
            if data.draw(st.booleans()):
                # coarse values make zero entries and exactly tied prefixes
                p = np.round(p * 4) / 4
            posteriors.append(p)
        width = data.draw(st.integers(1, 16))
        self.check(posteriors, width, data.draw(st.integers(1, width)))

    @pytest.mark.parametrize("rounded", [False, True])
    def test_lengths_of_one(self, rounded):
        rng = np.random.default_rng(61)
        posteriors = [random_posterior(rng, 1, 4) for _ in range(5)]
        if rounded:
            posteriors = [np.round(p * 4) / 4 for p in posteriors]
        self.check(posteriors, 3, 2)

    @pytest.mark.parametrize("rounded", [False, True])
    def test_equal_lengths(self, rounded):
        rng = np.random.default_rng(62)
        posteriors = [random_posterior(rng, 17, 5) for _ in range(4)]
        if rounded:
            posteriors = [np.round(p * 4) / 4 for p in posteriors]
        self.check(posteriors, 6, 3)

    def test_one_long_sequence_outlasts_the_rest(self):
        rng = np.random.default_rng(63)
        lengths = [120, 9, 5, 5, 2, 1]
        posteriors = [random_posterior(rng, T, 6) for T in lengths]
        posteriors[2] = np.round(posteriors[2] * 4) / 4
        self.check(posteriors, 8, 4)

    def test_runs_of_sequences(self, monkeypatch):
        # a group too large for one step's arrays is decoded in runs
        monkeypatch.setattr(decode, "STEP_CANDIDATES", 2 * 8 * 6)
        rng = np.random.default_rng(65)
        lengths = [30, 30, 12, 9, 9, 5, 2]
        posteriors = [np.round(random_posterior(rng, T, 6) * 4) / 4 for T in lengths]
        self.check(posteriors, 8, 3)

    def test_labels_past_one_byte(self):
        # 300 classes: prefix codes take two bytes each, and coarse values
        # leave most entries 0, so most frames tie at -inf
        rng = np.random.default_rng(66)
        posteriors = [np.round(random_posterior(rng, T, 300) * 40) / 40
                      for T in (12, 7, 3)]
        self.check(posteriors, 8, 5)

    def test_negative_infinity_tail(self):
        # one prefix has mass; the rest of the beam is filled with the
        # lexicographically smallest of the prefixes that have none
        probs = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
        got = beam_search_packed(probs, Packing([3]), 6, 5)[0].paths
        assert got == scalar_beam_search(probs, beam_width=6, top_paths=5)
        assert got[0] == ([1, 0], 0.0)
        assert got[1:3] == [([], -np.inf), ([0], -np.inf)]

    def test_one_hot_costs_at_most_twice_random(self):
        """Ties at the cut are ordered by one lexsort, not a Python sort.

        On one-hot posteriors about 450 candidates tie at -inf in every
        frame. Each decode is timed in CPU time, so that other processes
        on the machine count less, at its best of seven runs.
        """
        rng = np.random.default_rng(64)
        one_hot = np.zeros((200, 29))
        one_hot[np.arange(200), rng.integers(0, 29, 200)] = 1.0
        dense = random_posterior(rng, 200, 29)
        best = {}
        for _ in range(7):
            for name, probs in (("one_hot", one_hot), ("dense", dense)):
                start = time.process_time()
                beam_search_decode(probs, beam_width=16, top_paths=2)
                elapsed = time.process_time() - start
                best[name] = min(best.get(name, elapsed), elapsed)
        assert best["one_hot"] <= 2 * best["dense"], best


class TestPackedBestPath:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_each_sequence_as_alone(self, data):
        K = data.draw(st.integers(2, 6))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        posteriors = sorted(
            (np.round(random_posterior(rng, data.draw(st.integers(1, 30)), K) * 4) / 4
             for _ in range(data.draw(st.integers(1, 6)))),
            key=len, reverse=True)
        got = best_path_packed(*packed(posteriors))
        assert [r.paths for r in got] == [best_path_decode(p).paths
                                          for p in posteriors]
