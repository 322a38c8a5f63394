"""Forward-backward loss and gradient against enumeration and finite differences."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctckit.lattice import (
    InfeasibleAlignment,
    check_batch,
    collapse,
    ctc_backward,
    ctc_forward,
    ctc_gradient,
    ctc_loss,
    ctc_gradient_packed,
    ctc_loss_batch,
    extend_with_blanks,
    log_posteriors,
    log_sum_exp,
    make_lattice,
    packed_losses,
)
from ctckit.data import PaddedBatch
from ctckit.packing import Packing

from oracles import (
    central_difference,
    enumerate_sequence_probability,
    norm_rel_err,
    random_feasible_labels,
    random_posterior,
    two_loop_gradient,
    two_loop_lattice,
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


class TestOnePosteriorRule:
    """Every single-sequence lattice entry point applies ``check_posteriors``."""

    ENTRY_POINTS = {
        "ctc_loss": lambda p: ctc_loss(p, [0]),
        "make_lattice": lambda p: make_lattice(p, [0]),
        "ctc_forward": lambda p: ctc_forward(p, extend_with_blanks([0], 2), 4),
        "ctc_backward": lambda p: ctc_backward(p, extend_with_blanks([0], 2), 4),
    }

    @pytest.mark.parametrize("bad, message", [
        (np.nan, "posterior row 2 has a NaN, infinite or negative entry"),
        (-0.25, "posterior row 2 has a NaN, infinite or negative entry"),
        (0.9, "posterior row 2 sums to 0.900000000, not 1 within 1e-6"),
        (1.1, "posterior row 2 sums to 1.100000000, not 1 within 1e-6"),
    ])
    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_names_the_first_bad_row(self, entry, bad, message):
        probs = np.full((4, 3), 1.0 / 3.0)
        if bad in (0.9, 1.1):
            probs[2:] *= bad
        else:
            probs[2, 1] = probs[3, 0] = bad
        with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
            self.ENTRY_POINTS[entry](probs)

    def test_first_bad_row_in_row_order(self):
        # a row that sums wrong comes before a later row with a NaN
        probs = np.full((4, 3), 1.0 / 3.0)
        probs[1] *= 0.9
        probs[2, 0] = np.nan
        with pytest.raises(ValueError, match="^posterior row 1 sums to 0.9"):
            make_lattice(probs, [0])


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_logit_names_the_row(self, bad):
        logits = np.zeros((4, 3))
        logits[1, 2] = logits[3, 0] = bad
        with pytest.raises(ValueError, match="^logit row 1 has a NaN or "
                           "infinite entry$"):
            ctc_gradient(logits, [0])
        logits[1, 2] = 0.0
        with pytest.raises(ValueError, match="^logit row 3 "):
            ctc_gradient(logits, [0])
        loss, grad = ctc_gradient(logits, [0], input_len=3)
        assert loss == ctc_gradient(logits[:3], [0])[0]
        assert not grad[3:].any()

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

    def test_negative_posterior_names_its_sequence(self):
        batch = self._batch()
        batch.features[1, 0] = [1.2, -0.2]
        with pytest.raises(ValueError, match=r"^sequence 1: posterior row 0 "
                           r"has a NaN, infinite or negative entry$"):
            ctc_loss_batch(batch)

    def test_an_empty_batch_has_no_losses(self):
        """As get_loss of an empty dataset; the shape checks still run."""
        batch = PaddedBatch(np.zeros((0, 3, 3)), np.zeros((0, 0), np.int64),
                            np.zeros(0, np.int64), np.zeros(0, np.int64))
        assert ctc_loss_batch(batch) == []
        batch.labels = np.zeros(0, np.int64)
        with pytest.raises(ValueError, match="^a padded batch needs features "):
            ctc_loss_batch(batch)

    @pytest.mark.parametrize("features", [
        np.full((2, 4), 0.5),      # no batch axis
        np.ones((2, 4, 1)),        # K < 2
        np.zeros((0, 3, 1)),       # K < 2 on an empty batch
    ])
    def test_features_must_be_a_batch_of_k_at_least_two(self, features):
        B = len(features)
        batch = PaddedBatch(features, np.zeros((B, 1), np.int64),
                            np.full(B, 4), np.zeros(B, np.int64))
        with pytest.raises(ValueError, match=re.escape(
                "posterior batch must be (B, T_max, K) with K >= 2")):
            ctc_loss_batch(batch)


class TestOneInputScreen:
    """check_batch and the single-sequence entry points share one rule set."""

    ENTRY_POINTS = {"ctc_loss": ctc_loss, "ctc_gradient": ctc_gradient,
                    "make_lattice": make_lattice}

    @pytest.mark.parametrize("label_len", [-1, 3, 7])
    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_label_len_outside_the_labels_rejected(self, entry, label_len):
        probs = np.full((4, 3), 1.0 / 3.0)
        message = "label_len %d outside [0, 2]" % label_len
        with pytest.raises(ValueError, match=re.escape(message)):
            self.ENTRY_POINTS[entry](probs, [0, 1], label_len=label_len)

    @pytest.mark.parametrize("probs, labels, message", [
        (np.full(4, 0.5), [0], "expected a (T, K) matrix with K >= 2"),
        (np.ones((4, 1)), [], "expected a (T, K) matrix with K >= 2"),
        (np.full((4, 3), 1.0 / 3.0), [[0], [1]], "labels must be one-dimensional"),
        (np.full((4, 3), 1.0 / 3.0), np.zeros((1, 1), np.int64),
         "labels must be one-dimensional"),
    ])
    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_malformed_matrix_or_labels_rejected(self, entry, probs, labels,
                                                 message):
        with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
            self.ENTRY_POINTS[entry](probs, labels)

    @pytest.mark.parametrize("name, value", [
        ("input_len", 2.5), ("input_len", 2.0), ("input_len", "2"),
        ("label_len", True), ("label_len", 1.0)])
    def test_lengths_must_be_integers(self, name, value):
        probs = np.full((4, 3), 1.0 / 3.0)
        message = "^%s$" % re.escape("%s must be an integer, got %r" % (name, value))
        for entry in (ctc_loss, ctc_gradient, make_lattice):
            with pytest.raises(ValueError, match=message):
                entry(probs, [0], **{name: value})
        if name == "input_len":
            for entry in (ctc_forward, ctc_backward):
                with pytest.raises(ValueError, match=message):
                    entry(probs, extend_with_blanks([0], 2), value)

    def test_batch_lengths_must_be_integers_and_name_the_sequence(self):
        probs = np.full((4, 3), 1.0 / 3.0)
        batch = PaddedBatch(np.repeat(probs[None], 2, axis=0),
                            np.array([[0], [1]]), np.array([4.0, 3.5]),
                            np.array([1, 1]))
        with pytest.raises(ValueError, match=r"^sequence 0: input_len must be "
                           r"an integer, got np\.float64\(4\.0\)$"):
            check_batch(batch, 3)
        batch.input_lengths = np.array([4, 3])
        batch.label_lengths = [1, True]
        with pytest.raises(ValueError, match=r"^sequence 1: label_len must be "
                           r"an integer, got True$"):
            ctc_loss_batch(batch)

    def test_negative_entry_error_names_the_row(self):
        probs = np.array([[0.5, 0.5], [1.2, -0.2]])
        with pytest.raises(ValueError, match="row 1"):
            ctc_loss(probs, [0])

    @pytest.mark.parametrize("label", [0.7, 1.0, "1", True, np.float64(0.0),
                                       np.bool_(False)])
    @pytest.mark.parametrize("entry", ["ctc_loss", "ctc_gradient", "make_lattice",
                                       "ctc_forward", "ctc_backward"])
    def test_live_labels_must_be_integers(self, entry, label):
        probs = np.full((4, 3), 1.0 / 3.0)
        message = "^%s$" % re.escape("label must be an integer, got %r" % (label,))
        with pytest.raises(ValueError, match=message):
            if entry in ("ctc_forward", "ctc_backward"):
                globals()[entry](probs, [2, 0, 2, label, 2], 4)
            else:
                self.ENTRY_POINTS[entry](probs, [0, label])

    def test_labels_past_label_len_are_not_checked(self):
        probs = np.full((4, 3), 1.0 / 3.0)
        assert ctc_loss(probs, [0, 0.5, True], label_len=1) == ctc_loss(probs, [0])
        assert ctc_loss(probs, [0, "x", 2 ** 70, None], label_len=1) == \
            ctc_loss(probs, [0])
        assert ctc_loss(probs, np.array([0, 1]), label_len=1) == \
            ctc_loss(probs, [np.int32(0)])

    @pytest.mark.parametrize("padding", ["x", 2 ** 70])
    def test_batch_labels_past_label_len_are_not_cast(self, padding):
        probs = np.full((1, 4, 3), 1.0 / 3.0)
        batch = PaddedBatch(probs, [[0, padding]], [4], [1])
        assert ctc_loss_batch(batch) == [ctc_loss(probs[0], [0])]
        assert check_batch(batch, 3)[1][0, 0] == 0

    def test_batch_labels_must_be_integers_and_name_the_sequence(self):
        probs = np.full((4, 3), 1.0 / 3.0)
        batch = PaddedBatch(np.repeat(probs[None], 2, axis=0),
                            np.array([[0, -1], [0, -1]]), np.array([4, 4]),
                            np.array([1, 1]))
        assert ctc_loss_batch(batch) == [ctc_loss(probs, [0])] * 2
        batch.labels = [[0, 0.5], [1.5, 0]]  # 0.5 is padding, 1.5 is not
        with pytest.raises(ValueError, match=r"^sequence 1: label must be an "
                           r"integer, got 1\.5$"):
            ctc_loss_batch(batch)
        batch.labels = np.array([[0.0, -1.0], [0.0, -1.0]])
        with pytest.raises(ValueError, match=r"^sequence 0: label must be an "
                           r"integer, got np\.float64\(0\.0\)$"):
            check_batch(batch, 3)

    @pytest.mark.parametrize("field, value", [
        ("features", np.full((2, 4), 1.0 / 3.0)),
        ("labels", np.array([0, 0])),
        ("input_lengths", np.array([[4], [4]])),
        ("input_lengths", np.array([4, 4, 4])),
        ("input_lengths", np.array([4])),
        ("label_lengths", np.array([1])),
    ])
    def test_batch_shapes_are_checked_first(self, field, value):
        probs = np.full((4, 3), 1.0 / 3.0)
        batch = PaddedBatch(np.repeat(probs[None], 2, axis=0),
                            np.array([[0], [0]]), np.array([4, 4]),
                            np.array([1, 1]))
        setattr(batch, field, value)
        with pytest.raises(ValueError, match="^a padded batch needs features "
                           r"\(B, T_max, \.\.\.\), labels \(B, L_max\) and "
                           r"input and label lengths \(B,\), got shapes "):
            check_batch(batch, 3)

    def test_batch_lengths_may_be_lists(self):
        probs = np.full((4, 3), 1.0 / 3.0)
        batch = PaddedBatch(np.repeat(probs[None], 2, axis=0),
                            [[0, -1], [0, 1]], [4, 3], [1, 2])
        assert ctc_loss_batch(batch) == [ctc_loss(probs, [0]),
                                         ctc_loss(probs[:3], [0, 1])]

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_check_batch_fails_exactly_where_ctc_loss_fails(self, data):
        B = data.draw(st.integers(1, 4))
        T = data.draw(st.integers(1, 6))
        L = data.draw(st.integers(0, 5))
        K = data.draw(st.integers(2, 4))
        # valid labels, the blank, the padding value and other negatives;
        # a small alphabet makes adjacent repeats common
        label = st.one_of(st.integers(0, K - 2), st.sampled_from([-2, -1, K - 1]))
        labels = np.array(data.draw(st.lists(
            st.lists(label, min_size=L, max_size=L), min_size=B, max_size=B,
        )), dtype=np.int64).reshape(B, L)
        input_lengths = np.array(data.draw(st.lists(
            st.integers(-1, T + 1), min_size=B, max_size=B)))
        label_lengths = np.array(data.draw(st.lists(
            st.integers(-1, L + 1), min_size=B, max_size=B)))
        probs = np.full((T, K), 1.0 / K)
        batch = PaddedBatch(np.repeat(probs[None], B, axis=0), labels,
                            input_lengths, label_lengths)
        failures = []
        for i in range(B):
            try:
                ctc_loss(probs, labels[i], input_len=int(input_lengths[i]),
                         label_len=int(label_lengths[i]))
            except (ValueError, InfeasibleAlignment) as err:
                failures.append((i, err))
        if not failures:
            check_batch(batch, K)
            return
        i, single = failures[0]
        with pytest.raises((ValueError, InfeasibleAlignment)) as excinfo:
            check_batch(batch, K)
        assert type(excinfo.value) is type(single)
        assert str(excinfo.value) == "sequence %d: %s" % (i, single)
        if isinstance(single, InfeasibleAlignment):
            assert excinfo.value.sequence_index == i


def random_packed_batch(data):
    """A packing, logits and padded labels: lengths 1-12, L from 0 up,
    repeated labels, logits at scales up to 30 (posteriors near 0)."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    K = data.draw(st.integers(2, 6))
    lengths = sorted(data.draw(st.lists(st.integers(1, 12), min_size=1,
                                        max_size=6)), reverse=True)
    label_lists = [random_feasible_labels(rng, T, K, T) for T in lengths]
    labels = np.full((len(lengths), max(map(len, label_lists)) + 1), -1)
    for b, seq in enumerate(label_lists):
        labels[b, :len(seq)] = seq
    packing = Packing(lengths)
    scale = data.draw(st.sampled_from([0.5, 3.0, 30.0]))
    logits = rng.normal(0, scale, (packing.num_frames, K))
    return packing, logits, labels, [len(seq) for seq in label_lists]


def softmax(logits):
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


class TestOneRecurrence:
    """Alpha and beta from one recurrence, against a loop for each.

    ``two_loop_lattice`` in tests/oracles.py is the lattice as it was
    before beta ran as alpha over the flipped lattice. The operands and
    their order are the same, so every output must be the same bits.
    """

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_entry_points_match_the_two_loops(self, data):
        packing, logits, labels, label_lengths = random_packed_batch(data)
        losses, grad = ctc_gradient_packed(packing, logits, labels, label_lengths)
        ref_losses, ref_grad = two_loop_gradient(packing, logits, labels,
                                                 label_lengths)
        assert np.array_equal(losses, ref_losses)
        assert np.array_equal(grad, ref_grad)
        probs = softmax(logits)
        _, _, _, ll = two_loop_lattice(packing, log_posteriors(probs), labels,
                                       label_lengths)
        assert np.array_equal(
            packed_losses(packing, log_posteriors(probs), labels, label_lengths), -ll)
        for b, L in enumerate(label_lengths):
            active = probs[packing.rows(b)]
            ext, alpha, beta, ll = two_loop_lattice(
                Packing([len(active)]), log_posteriors(active), labels[b:b + 1], [L])
            lattice = make_lattice(active, labels[b, :L])
            assert np.array_equal(lattice.alpha, alpha)
            assert np.array_equal(lattice.beta, beta)
            assert lattice.log_likelihood == ll[0]
            assert np.array_equal(ctc_backward(active, ext[0], len(active)), beta)
            forward_alpha, forward_ll = ctc_forward(active, ext[0], len(active))
            assert np.array_equal(forward_alpha, alpha) and forward_ll == ll[0]

    def test_empty_repeated_and_one_frame_sequences(self):
        packing = Packing([6, 3, 1, 1])
        labels = np.array([[1, 1, 0], [0, -1, -1], [-1, -1, -1], [2, -1, -1]])
        logits = np.random.default_rng(3).normal(0, 3, (packing.num_frames, 4))
        losses, grad = ctc_gradient_packed(packing, logits, labels, [3, 1, 0, 1])
        ref_losses, ref_grad = two_loop_gradient(packing, logits, labels,
                                                 [3, 1, 0, 1])
        assert np.array_equal(losses, ref_losses)
        assert np.array_equal(grad, ref_grad)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_a_packed_gradient_is_each_sequence_alone(self, data):
        packing, logits, labels, label_lengths = random_packed_batch(data)
        losses, grad = ctc_gradient_packed(packing, logits, labels, label_lengths)
        for b, L in enumerate(label_lengths):
            rows = packing.rows(b)
            loss, alone = ctc_gradient(logits[rows], labels[b, :L])
            assert losses[b] == loss
            assert np.array_equal(grad[rows], alone)
