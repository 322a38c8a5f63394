"""Forward-backward loss and gradient against enumeration and finite differences."""

import numpy as np
import pytest

from ctckit.lattice import (
    InfeasibleAlignment,
    collapse,
    ctc_backward,
    ctc_forward,
    ctc_gradient,
    ctc_loss,
    ctc_loss_batch,
    extend_with_blanks,
    log_sum_exp,
    make_lattice,
)
from ctckit.data import PaddedBatch

from oracles import (
    central_difference,
    enumerate_sequence_probability,
    norm_rel_err,
    random_feasible_labels,
    random_posterior,
)

# frozen from the enumeration oracle: 3 of 4 uniform T=2 paths collapse to [a]
LOSS_UNIFORM_T2 = 0.2876820724517809    # -ln(0.75)
LOSS_SINGLE_07 = 0.35667494393873245    # -ln(0.7)

UNIFORM_T2 = np.full((2, 2), 0.5)
SINGLE_07 = np.array([[0.7, 0.3]])


class TestCollapse:
    def test_merge_then_delete(self):
        blank = 1
        assert collapse([0, 0, 1, 0, 1, 1], blank) == [0, 0]

    def test_all_blank(self):
        assert collapse([1, 1, 1], 1) == []

    def test_repeat_separated_by_blank(self):
        # [a, b, b, blank, b] with a=0, b=1, blank=2
        assert collapse([0, 1, 1, 2, 1], 2) == [0, 1, 1]

    def test_symbol_out_of_range(self):
        with pytest.raises(ValueError):
            collapse([0, 3], 2)
        with pytest.raises(ValueError):
            collapse([-1], 2)

    def test_round_trip_random_expansions(self):
        # any valid expansion (repeats, blanks, blank between equal
        # neighbours) must collapse back to the original sequence
        rng = np.random.default_rng(101)
        for _ in range(300):
            K = int(rng.integers(2, 6))
            blank = K - 1
            labels = rng.integers(0, K - 1, size=rng.integers(0, 6)).tolist()
            path = []
            prev = None
            for sym in labels:
                if prev == sym or rng.random() < 0.5:
                    path.extend([blank] * int(rng.integers(1, 3)))
                path.extend([sym] * int(rng.integers(1, 4)))
                prev = sym
            if rng.random() < 0.5 or not path:
                path.extend([blank] * int(rng.integers(1, 3)))
            assert collapse(path, blank) == labels


class TestExtendWithBlanks:
    def test_two_labels(self):
        assert extend_with_blanks([0, 1], 2).tolist() == [2, 0, 2, 1, 2]

    def test_empty(self):
        assert extend_with_blanks([], 2).tolist() == [2]

    def test_repeated_label(self):
        assert extend_with_blanks([0, 0], 1).tolist() == [1, 0, 1, 0, 1]


class TestLogSumExp:
    def test_half_plus_half(self):
        assert log_sum_exp([np.log(0.5), np.log(0.5)]) == pytest.approx(0.0)

    def test_neg_inf_absorbed(self):
        assert log_sum_exp([-np.inf, 1.25]) == pytest.approx(1.25)

    def test_all_neg_inf(self):
        assert log_sum_exp([-np.inf, -np.inf]) == -np.inf
        assert log_sum_exp([]) == -np.inf

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            log_sum_exp([0.0, np.nan])

    def test_matches_direct_sum(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            v = rng.normal(0, 3, size=rng.integers(1, 9))
            assert log_sum_exp(v) == pytest.approx(np.log(np.exp(v).sum()))


class TestForward:
    def test_uniform_t2_worked_instance(self):
        ext = extend_with_blanks([0], 1)
        _, ll = ctc_forward(UNIFORM_T2, ext, 2)
        assert ll == pytest.approx(-LOSS_UNIFORM_T2, abs=1e-12)

    def test_single_frame(self):
        ext = extend_with_blanks([0], 1)
        _, ll = ctc_forward(SINGLE_07, ext, 1)
        assert ll == pytest.approx(np.log(0.7), abs=1e-12)

    def test_repeat_needs_three_frames(self):
        ext = extend_with_blanks([0, 0], 1)
        with pytest.raises(InfeasibleAlignment):
            ctc_forward(UNIFORM_T2, ext, 2)

    @pytest.mark.parametrize("ext", [
        [0, 1],           # even length
        [2, 0, 2, 1],     # even length, blanks in place
        [0, 2, 1],        # label where a blank belongs
        [2, 0, 1],        # final blank missing
        [[2, 0, 2]],      # not one-dimensional
        [],               # not even the leading blank
    ])
    @pytest.mark.parametrize("pass_", [ctc_forward, ctc_backward])
    def test_malformed_ext_rejected(self, pass_, ext):
        probs = random_posterior(np.random.default_rng(22), 3, 3)
        with pytest.raises(ValueError, match="ext"):
            pass_(probs, ext, 3)

    def test_matches_enumeration(self):
        rng = np.random.default_rng(21)
        for _ in range(300):
            T = int(rng.integers(1, 7))
            K = int(rng.integers(2, 5))
            probs = random_posterior(rng, T, K)
            labels = random_feasible_labels(rng, T, K, 3)
            ext = extend_with_blanks(labels, K - 1)
            _, ll = ctc_forward(probs, ext, T)
            oracle = enumerate_sequence_probability(probs, labels)
            assert abs(np.exp(ll) - oracle) / oracle < 1e-10


class TestBackward:
    def test_terminal_initialization(self):
        ext = extend_with_blanks([0], 1)
        beta = ctc_backward(SINGLE_07, ext, 1)
        assert beta[0, 1] == 0.0
        assert beta[0, 2] == 0.0
        assert beta[0, 0] == -np.inf

    def test_empty_labels_terminal(self):
        probs = random_posterior(np.random.default_rng(1), 4, 3)
        beta = ctc_backward(probs, extend_with_blanks([], 2), 4)
        assert beta[3, 0] == 0.0

    def test_consistency_with_forward(self):
        lat = make_lattice(UNIFORM_T2, [0])
        for t in range(2):
            assert log_sum_exp(lat.alpha[t] + lat.beta[t]) == pytest.approx(
                np.log(0.75), abs=1e-12
            )

    def test_consistency_random(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            T = int(rng.integers(1, 9))
            K = int(rng.integers(2, 6))
            probs = random_posterior(rng, T, K)
            labels = random_feasible_labels(rng, T, K, 3)
            lat = make_lattice(probs, labels)
            for t in range(T):
                dev = abs(log_sum_exp(lat.alpha[t] + lat.beta[t])
                          - lat.log_likelihood)
                assert dev < 1e-8


class TestLoss:
    def test_worked_values(self):
        assert ctc_loss(UNIFORM_T2, [0]) == pytest.approx(
            LOSS_UNIFORM_T2, abs=1e-12
        )
        assert ctc_loss(SINGLE_07, [0]) == pytest.approx(
            LOSS_SINGLE_07, abs=1e-12
        )

    def test_infeasible(self):
        with pytest.raises(InfeasibleAlignment):
            ctc_loss(UNIFORM_T2, [0, 0])

    def test_padding_ignored(self):
        # arbitrary rows past input_len and labels past label_len must
        # not change the result at all
        padded = np.vstack([UNIFORM_T2, [[9.0, -3.0]], [[0.0, 0.0]]])
        loss = ctc_loss(padded, [0, 1, 1], input_len=2, label_len=1)
        assert loss == ctc_loss(UNIFORM_T2, [0])

    def test_row_normalization_enforced(self):
        bad = np.array([[0.7, 0.31]])
        with pytest.raises(ValueError):
            ctc_loss(bad, [0])

    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError):
            ctc_loss(np.array([[1.2, -0.2]]), [0])

    def test_leaked_label_padding_rejected(self):
        # -1 inside the active label range must fail loudly
        with pytest.raises(ValueError):
            ctc_loss(UNIFORM_T2, [0, -1], label_len=2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_posterior_rejected_naming_the_row(self, bad):
        # a NaN row sum passes the 1e-6 check (nan > 1e-6 is False)
        probs = np.array([[0.3, 0.3, 0.4], [0.5, bad, 0.5]])
        with pytest.raises(ValueError, match="row 1"):
            ctc_loss(probs, [0])

    def test_blank_in_labels_rejected(self):
        with pytest.raises(ValueError):
            ctc_loss(UNIFORM_T2, [1])


class TestGradient:
    def test_single_frame_closed_form(self):
        # one frame reduces to softmax cross-entropy: grad = y - onehot
        logits = np.log(np.array([[0.7, 0.3]]))
        loss, grad = ctc_gradient(logits, [0])
        assert loss == pytest.approx(LOSS_SINGLE_07, abs=1e-12)
        np.testing.assert_allclose(grad, [[-0.3, 0.3]], atol=1e-12)

    def test_extreme_logits_closed_form(self):
        # softmax underflows to exactly 0 for the label, yet the
        # alignment is feasible: p = 2 e^-800 / (1 + e^-800)^2 and each
        # frame's lattice posterior splits evenly between label and blank
        loss, grad = ctc_gradient(np.array([[0.0, 800.0], [0.0, 800.0]]), [0])
        assert loss == pytest.approx(800.0 - np.log(2.0), abs=1e-12)
        np.testing.assert_allclose(grad, [[-0.5, 0.5], [-0.5, 0.5]],
                                   rtol=0, atol=1e-12)

    def test_uniform_instance_matches_finite_differences(self):
        logits = np.zeros((2, 2))  # softmax gives the uniform posteriors
        _, grad = ctc_gradient(logits, [0])
        fd = central_difference(lambda: ctc_gradient(logits, [0])[0], logits)
        assert norm_rel_err(grad, fd) < 1e-6

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(41)
        for _ in range(60):
            T = int(rng.integers(1, 9))
            K = int(rng.integers(2, 6))
            logits = rng.normal(0, 1, (T, K))
            labels = random_feasible_labels(rng, T, K, 3)
            _, grad = ctc_gradient(logits, labels)
            fd = central_difference(
                lambda: ctc_gradient(logits, labels)[0], logits
            )
            assert norm_rel_err(grad, fd) < 1e-6

    def test_padded_rows_exactly_zero(self):
        rng = np.random.default_rng(42)
        logits = rng.normal(0, 1, (6, 3))
        _, grad = ctc_gradient(logits, [0, 1], input_len=4)
        assert not grad[4:].any()

    def test_shift_invariance(self):
        rng = np.random.default_rng(43)
        logits = rng.normal(0, 1, (5, 4))
        loss, grad = ctc_gradient(logits, [2, 0])
        shifted = logits + rng.normal(0, 5, (5, 1))
        loss2, grad2 = ctc_gradient(shifted, [2, 0])
        assert abs(loss - loss2) < 1e-10
        assert np.max(np.abs(grad - grad2)) < 1e-10


class TestLossBatch:
    def _batch(self, pad_to=2):
        features = np.zeros((2, pad_to, 2))
        features[0, :2] = UNIFORM_T2
        features[1, :1] = SINGLE_07
        labels = np.full((2, 1), -1, dtype=np.int64)
        labels[:, 0] = 0
        return PaddedBatch(
            features=features,
            labels=labels,
            input_lengths=np.array([2, 1]),
            label_lengths=np.array([1, 1]),
        )

    def test_worked_pair(self):
        losses = ctc_loss_batch(self._batch())
        np.testing.assert_allclose(
            losses, [LOSS_UNIFORM_T2, LOSS_SINGLE_07], atol=1e-12
        )
        # the dataset mean these two instances produce
        assert np.mean(losses) == pytest.approx(0.32217850819525665, abs=1e-12)

    def test_singleton_matches_ctc_loss(self):
        batch = PaddedBatch(
            features=UNIFORM_T2[None],
            labels=np.array([[0]]),
            input_lengths=np.array([2]),
            label_lengths=np.array([1]),
        )
        assert ctc_loss_batch(batch) == [ctc_loss(UNIFORM_T2, [0])]

    def test_padding_width_irrelevant(self):
        assert ctc_loss_batch(self._batch()) == ctc_loss_batch(self._batch(4))

    def test_error_carries_sequence_index(self):
        batch = self._batch()
        batch.labels = np.array([[0], [1]])  # blank index is 1: invalid
        with pytest.raises(ValueError, match="sequence 1"):
            ctc_loss_batch(batch)
        bad = PaddedBatch(
            features=batch.features,
            labels=np.array([[0, 0], [0, -1]]),
            input_lengths=np.array([2, 1]),
            label_lengths=np.array([2, 1]),
        )
        with pytest.raises(InfeasibleAlignment) as excinfo:
            ctc_loss_batch(bad)
        assert excinfo.value.sequence_index == 0
        assert "sequence 0" in str(excinfo.value)
