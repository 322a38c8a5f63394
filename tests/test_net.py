"""Network forward/backward against finite differences, init and optimizers."""

import os
import re
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctckit import net
from ctckit.flat import as_flat
from ctckit.lattice import ctc_gradient, ctc_gradient_packed
from ctckit.net import (
    LayerSpec,
    NetworkSpec,
    NonFiniteGradient,
    backward,
    clip_by_global_norm,
    forward,
    init_optimizer,
    init_params,
    optimizer_step,
    param_shapes,
)
from ctckit.packing import STEP_BYTES, Packing

from oracles import (
    central_difference,
    consecutive_groups,
    norm_rel_err,
    per_direction_backward,
    per_direction_forward,
    per_tensor_clip,
    per_tensor_grad_norm,
    per_tensor_step,
    random_feasible_labels,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

TOY = NetworkSpec(
    feature_dim=3, num_labels=2, layers=(LayerSpec("rnn", 5, True),)
)


def clone(params):
    return {name: p.copy() for name, p in params.items()}


def end_to_end_loss(spec, params, features, labels):
    _, cache = forward(spec, params, features)
    loss, _ = ctc_gradient(cache.logits, labels)
    return loss


def end_to_end_grads(spec, params, features, labels, input_len=None):
    probs, cache = forward(spec, params, features, input_len=input_len)
    _, grad_active = ctc_gradient(
        cache.logits, labels, input_len=cache.input_len
    )
    grad_full = np.zeros((cache.num_frames, spec.num_classes))
    grad_full[: cache.input_len] = grad_active[: cache.input_len]
    return backward(spec, params, cache, grad_full)


class TestSpec:
    def test_output_width_is_labels_plus_one(self):
        shapes = param_shapes(TOY)
        assert shapes["output.W"] == (10, 3)
        assert shapes["output.b"] == (3,)

    def test_requires_recurrent_layer(self):
        with pytest.raises(ValueError):
            NetworkSpec(feature_dim=3, num_labels=2, layers=())

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            NetworkSpec(
                feature_dim=3, num_labels=2, layers=(LayerSpec("gru", 4),)
            )


    @pytest.mark.parametrize("value", [True, 2.0, 4.5, float("inf"), "2", None])
    def test_checked_int_takes_integers_only(self, value):
        with pytest.raises(ValueError,
                           match="^units must be an integer, got %r$" % (value,)):
            net.checked_int("units", value)

    @pytest.mark.parametrize("value, minimum", [(0, 1), (-1, 0), (2 ** 63, 1)])
    def test_checked_int_bounds(self, value, minimum):
        with pytest.raises(ValueError, match=r"^seed must be an integer in \[%d, "
                           % minimum):
            net.checked_int("seed", value, minimum)
        assert net.checked_int("seed", 2 ** 63 - 1) == 2 ** 63 - 1

    def test_numpy_integers_stored_as_ints(self):
        spec = NetworkSpec(np.int64(3), np.int32(2),
                           [LayerSpec("rnn", np.int64(5))])
        assert spec == TOY and hash(spec) == hash(TOY)
        assert type(spec.feature_dim) is type(spec.num_labels) is int
        assert type(spec.layers[0].units) is int
        assert type(net.checked_int("beam_width", np.uint8(4))) is int

    @pytest.mark.parametrize("field, value, message", [
        ("feature_dim", float("inf"), "feature_dim must be an integer, got inf"),
        ("num_labels", 0, "num_labels must be an integer in"),
        ("units", 4.5, "units must be an integer, got 4.5"),
        ("units", "4", "units must be an integer, got '4'"),
        ("bidirectional", "false", "bidirectional must be true or false"),
        ("bidirectional", 1, "bidirectional must be true or false"),
        ("kind", "gru", "unknown layer kind 'gru'"),
    ])
    def test_spec_from_dict_checks_every_value(self, field, value, message):
        d = {"feature_dim": 3, "num_labels": 2,
             "layers": [{"kind": "rnn", "units": 5, "bidirectional": True}]}
        assert net.spec_from_dict(d) == TOY
        (d if field in d else d["layers"][0])[field] = value
        with pytest.raises(ValueError, match="^" + message):
            net.spec_from_dict(d)

    @pytest.mark.parametrize("d", [
        {"feature_dim": 3, "num_labels": 2, "layers": [{"kind": "rnn", "units": 5}]},
        {"feature_dim": 3, "num_labels": 2, "layers": 5},
        {"feature_dim": 3, "num_labels": 2, "layers": ["rnn"]},
        [3, 2],
    ])
    def test_malformed_description(self, d):
        with pytest.raises(ValueError, match="^malformed network description"):
            net.spec_from_dict(d)

    def test_layers_must_be_layer_specs(self):
        with pytest.raises(ValueError, match="LayerSpec"):
            NetworkSpec(3, 2, ({"kind": "rnn", "units": 5},))


class TestInitParams:
    def test_deterministic_in_seed(self):
        a = init_params(TOY, seed=9)
        b = init_params(TOY, seed=9)
        assert a.keys() == b.keys()
        for name in a:
            np.testing.assert_array_equal(a[name], b[name])

    def test_seeds_differ(self):
        a = init_params(TOY, seed=9)
        b = init_params(TOY, seed=10)
        assert any(not np.array_equal(a[n], b[n]) for n in a)

    def test_output_weight_bound(self):
        # 2-wide hidden output into 3 classes: bound sqrt(6/5)
        spec = NetworkSpec(
            feature_dim=4, num_labels=2, layers=(LayerSpec("rnn", 2, False),)
        )
        params = init_params(spec, seed=0)
        assert params["output.W"].shape == (2, 3)
        assert np.max(np.abs(params["output.W"])) <= np.sqrt(6.0 / 5.0)
        # each (fan_in, U) gate block of an LSTM weight is drawn with
        # sqrt(6 / (fan_in + U)), wider than sqrt(6 / (fan_in + 4U))
        U = 16
        spec = NetworkSpec(
            feature_dim=4, num_labels=2, layers=(LayerSpec("lstm", U, False),)
        )
        params = init_params(spec, seed=0)
        for name, fan_in in (("Wx", 4), ("Wh", U)):
            W = params["layer0.fwd." + name]
            assert W.shape == (fan_in, 4 * U)
            for k in range(4):
                block = np.abs(W[:, k * U:(k + 1) * U])
                assert block.max() <= np.sqrt(6.0 / (fan_in + U))
                assert block.max() > np.sqrt(6.0 / (fan_in + 4 * U))

    def test_biases_zero_but_lstm_forget_one(self):
        spec = NetworkSpec(
            feature_dim=2, num_labels=2, layers=(LayerSpec("lstm", 3, True),)
        )
        params = init_params(spec, seed=1)
        for d in ("fwd", "bwd"):
            b = params[f"layer0.{d}.b"]  # gate blocks i, f, o, g
            np.testing.assert_array_equal(b[3:6], np.ones(3))
            for block in (b[0:3], b[6:9], b[9:12]):
                np.testing.assert_array_equal(block, np.zeros(3))
        np.testing.assert_array_equal(params["output.b"], np.zeros(3))

    def test_forward_catches_mismatch(self):
        packing = Packing([2])
        params = init_params(TOY, seed=0)
        params.pop("output.b")
        with pytest.raises(ValueError, match="missing"):
            net.forward_packed(TOY, params, packing, np.zeros((2, 3)))
        params = init_params(TOY, seed=0)
        params["output.b"] = np.zeros(4)
        with pytest.raises(ValueError, match="output.b has shape"):
            net.forward_packed(TOY, params, packing, np.zeros((2, 3)))


class TestForward:
    def test_rows_are_distributions(self):
        rng = np.random.default_rng(71)
        params = init_params(TOY, seed=2)
        probs, _ = forward(TOY, params, rng.normal(0, 1, (6, 3)), input_len=4)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    def test_zero_parameters_give_uniform(self):
        params = {n: np.zeros(s) for n, s in param_shapes(TOY).items()}
        probs, _ = forward(TOY, params, np.ones((3, 3)))
        np.testing.assert_allclose(probs, 1.0 / 3.0, atol=1e-15)

    def test_unidirectional_is_direction_sensitive(self):
        spec = NetworkSpec(
            feature_dim=2, num_labels=2, layers=(LayerSpec("rnn", 4, False),)
        )
        params = init_params(spec, seed=3)
        x = np.array([[1.0, 0.0], [0.0, 1.0]])
        fwd, _ = forward(spec, params, x)
        rev, _ = forward(spec, params, x[::-1])
        assert not np.allclose(fwd, rev[::-1])

    def test_symmetric_bidirectional_maps_reversal_to_reversal(self):
        spec = NetworkSpec(
            feature_dim=2, num_labels=2, layers=(LayerSpec("rnn", 4, True),)
        )
        params = init_params(spec, seed=4)
        for t in ("Wx", "Wh", "b"):
            params[f"layer0.bwd.{t}"] = params[f"layer0.fwd.{t}"].copy()
        params["output.W"][4:] = params["output.W"][:4]
        x = np.array([[1.0, 0.0], [0.0, 1.0]])
        fwd, _ = forward(spec, params, x)
        rev, _ = forward(spec, params, x[::-1])
        np.testing.assert_allclose(fwd, rev[::-1], atol=1e-12)

    def test_shape_validation(self):
        params = init_params(TOY, seed=0)
        with pytest.raises(ValueError):
            forward(TOY, params, np.ones((4, 2)))
        with pytest.raises(ValueError):
            forward(TOY, params, np.ones((4, 3)), input_len=5)
        for input_len in (2.7, 3.0, True):
            with pytest.raises(ValueError, match="^input_len must be an "
                               "integer, got %s$" % input_len):
                forward(TOY, params, np.ones((4, 3)), input_len=input_len)


class TestForwardOnly:
    """``forward_packed`` without a backward to follow."""

    SPECS = {
        "toy": TOY,
        "mixed": NetworkSpec(feature_dim=3, num_labels=3, layers=(
            LayerSpec("lstm", 4, True), LayerSpec("rnn", 3, False))),
        "one-way": NetworkSpec(feature_dim=2, num_labels=4, layers=(
            LayerSpec("rnn", 3, False), LayerSpec("lstm", 5, False))),
        # the benchmark's networks: 2x bi-LSTM 64 and bi-RNN 32
        "bi-lstm": NetworkSpec(feature_dim=40, num_labels=28, layers=(
            LayerSpec("lstm", 64, True), LayerSpec("lstm", 64, True))),
        "bi-rnn": NetworkSpec(feature_dim=4, num_labels=4, layers=(
            LayerSpec("rnn", 32, True),)),
        # peaks at its first LSTM layer: the outputs beside the gates
        "one-bi-lstm": NetworkSpec(feature_dim=40, num_labels=28, layers=(
            LayerSpec("lstm", 64, True),)),
        # peaks in the softmax: the logits, their log-softmax and its exp
        "wide-output": NetworkSpec(feature_dim=2, num_labels=63, layers=(
            LayerSpec("rnn", 2, False),)),
    }

    @pytest.mark.parametrize("name", sorted(SPECS))
    @pytest.mark.parametrize("lengths", [[1], [2], [3, 1], [5, 5, 2], [9, 4, 4, 1]])
    def test_logits_equal_those_of_the_cache_keeping_pass(self, name, lengths):
        spec = self.SPECS[name]
        params = net._init_flat_params(spec, 5)
        packing = Packing(lengths)
        frames = np.random.default_rng(6).normal(
            0, 1, (packing.num_frames, spec.feature_dim))
        logits, cache = net.forward_packed(spec, params, packing, frames)
        alone, none = net.forward_packed(spec, params, packing, frames,
                                         for_backward=False)
        assert none is None and cache.logits is logits
        assert np.array_equal(alone, logits)

    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_a_full_group_stays_within_the_budget(self, name):
        """What a forward-only group holds, traced: its packing, frames,
        forward pass and softmax, with as many frames as the budget
        allows, for one sequence and for three that share each step. The
        count and the per-step bookkeeping ``activation_groups`` charges
        must cover the peak and not overstate it.
        """
        spec = self.SPECS[name]
        params = net._init_flat_params(spec, 0)
        per_frame = net.stored_bytes_per_frame(spec, False)
        for share in (1, 3):
            steps = net.ACTIVATION_BYTES // (share * per_frame + STEP_BYTES)
            lengths, n = [steps] * share, share * steps
            assert len(net.activation_groups(spec, lengths, False)) == 1
            rng = np.random.default_rng(1)
            tracemalloc.start()
            try:
                packing = Packing(lengths)
                frames = rng.normal(0, 1, (n, spec.feature_dim))
                probs = np.exp(net.log_softmax_rows(net.forward_packed(
                    spec, params, packing, frames, for_backward=False)[0]))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert probs.shape == (n, spec.num_classes)
            assert 0.9 * net.ACTIVATION_BYTES <= peak <= 1.1 * net.ACTIVATION_BYTES, \
                (share, peak / net.ACTIVATION_BYTES)

    def test_groups_are_sized_by_the_forward_only_count(self, monkeypatch):
        spec = self.SPECS["bi-lstm"]
        assert net.stored_bytes_per_frame(spec, False) \
            < net.stored_bytes_per_frame(spec)
        # 10 forward-only frames beside the bookkeeping of 6 steps
        monkeypatch.setattr(net, "ACTIVATION_BYTES",
                            10 * net.stored_bytes_per_frame(spec, False)
                            + 6 * STEP_BYTES)
        groups = net.activation_groups(spec, [6, 5, 4], for_backward=False)
        assert [group.tolist() for group in groups] == [[0, 2], [1]]
        assert len(net.activation_groups(spec, [6, 5, 4])) == 3


class TestFusedDirections:
    """Both directions of a layer in one loop, against one loop per direction.

    ``per_direction_forward`` and ``per_direction_backward`` in
    tests/oracles.py are the engine as it was before the directions of a
    layer shared one recurrence loop. The fused engine keeps every
    elementwise formula and its order, and a stacked product runs each
    direction's rows through the kernel of its 2-D product, so logits
    and gradients must be the same bits.
    """

    @staticmethod
    def check(spec, lengths, seed):
        params = net._init_flat_params(spec, seed)
        packing = Packing(lengths)
        rng = np.random.default_rng(seed)
        frames = rng.normal(0, 1, (packing.num_frames, spec.feature_dim))
        grad_logits = rng.normal(0, 1, (packing.num_frames, spec.num_classes))
        logits, cache = net.forward_packed(spec, params, packing, frames)
        alone, _ = net.forward_packed(spec, params, packing, frames,
                                      for_backward=False)
        grads = net.backward_packed(spec, params, cache, grad_logits)
        ref_logits, ref_layers = net._one_blas_thread(per_direction_forward)(
            spec, params, packing, frames)
        ref_grads = net._one_blas_thread(per_direction_backward)(
            spec, params, packing, ref_layers, grad_logits)
        assert np.array_equal(logits, ref_logits)
        assert np.array_equal(alone, ref_logits)
        assert ref_grads.keys() == grads.keys()
        for name, ref in ref_grads.items():
            assert np.array_equal(grads[name], ref), name

    # a one-unit tanh-RNN layer projects with one-column products, whose
    # rows' bits depend on the rows beside them
    SPECS = {**TestForwardOnly.SPECS, "one-unit": NetworkSpec(
        feature_dim=6, num_labels=2,
        layers=(LayerSpec("rnn", 5, True), LayerSpec("rnn", 1, True)))}

    @pytest.mark.parametrize("name", sorted(SPECS))
    @pytest.mark.parametrize("lengths", [[1], [2], [3, 1], [5, 5, 2], [9, 4, 4, 1]])
    def test_logits_and_gradients_equal_the_per_direction_loops(self, name, lengths):
        self.check(self.SPECS[name], lengths, 7)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_random_networks_and_lengths(self, data):
        layers = data.draw(st.lists(st.builds(
            LayerSpec, st.sampled_from(["rnn", "lstm"]), st.integers(1, 6),
            st.booleans()), min_size=1, max_size=3))
        spec = NetworkSpec(feature_dim=data.draw(st.integers(1, 5)),
                           num_labels=data.draw(st.integers(1, 4)),
                           layers=tuple(layers))
        lengths = sorted(data.draw(st.lists(st.integers(1, 12), min_size=1,
                                            max_size=6)), reverse=True)
        self.check(spec, lengths, data.draw(st.integers(0, 2 ** 16)))


class TestBackward:
    def test_toy_bidirectional_rnn_finite_differences(self):
        rng = np.random.default_rng(81)
        params = init_params(TOY, seed=5)
        features = rng.normal(0, 1, (4, 3))
        labels = [0, 1]
        grads = end_to_end_grads(TOY, params, features, labels)
        for name, p in params.items():
            fd = central_difference(
                lambda: end_to_end_loss(TOY, params, features, labels), p
            )
            assert norm_rel_err(grads[name], fd) < 1e-5, name

    def test_stacked_lstm_rnn_finite_differences(self):
        rng = np.random.default_rng(82)
        spec = NetworkSpec(
            feature_dim=2,
            num_labels=2,
            layers=(LayerSpec("lstm", 4, True), LayerSpec("rnn", 3, False)),
        )
        params = init_params(spec, seed=6)
        features = rng.normal(0, 1, (5, 2))
        labels = [1, 0]
        grads = end_to_end_grads(spec, params, features, labels)
        for name, p in params.items():
            fd = central_difference(
                lambda: end_to_end_loss(spec, params, features, labels), p
            )
            assert norm_rel_err(grads[name], fd) < 1e-5, name

    def test_zero_grad_logits_give_zero_grads(self):
        rng = np.random.default_rng(83)
        params = init_params(TOY, seed=7)
        _, cache = forward(TOY, params, rng.normal(0, 1, (4, 3)))
        grads = backward(TOY, params, cache, np.zeros((4, 3)))
        assert all(not g.any() for g in grads.values())

    def test_masked_frames_cannot_influence_grads(self):
        rng = np.random.default_rng(84)
        params = init_params(TOY, seed=8)
        features = rng.normal(0, 1, (6, 3))
        labels = random_feasible_labels(rng, 4, 3, 3)
        g1 = end_to_end_grads(TOY, params, features, labels, input_len=4)
        tampered = features.copy()
        tampered[4:] = rng.normal(0, 50, (2, 3))
        g2 = end_to_end_grads(TOY, params, tampered, labels, input_len=4)
        for name in g1:
            np.testing.assert_array_equal(g1[name], g2[name])

    def test_nonzero_grad_beyond_input_len_rejected(self):
        params = init_params(TOY, seed=9)
        _, cache = forward(TOY, params, np.ones((4, 3)), input_len=2)
        bad = np.zeros((4, 3))
        bad[3, 0] = 1.0
        with pytest.raises(ValueError):
            backward(TOY, params, cache, bad)

    @pytest.mark.parametrize("shape", [(3, 3), (4, 2), (4,)])
    def test_grad_logits_of_the_wrong_shape_rejected(self, shape):
        params = init_params(TOY, seed=9)
        _, cache = forward(TOY, params, np.ones((4, 3)))
        with pytest.raises(ValueError, match=r"^grad_logits must be \(4, 3\), "
                           r"got %s$" % re.escape(repr(shape))):
            backward(TOY, params, cache, np.zeros(shape))

    def test_cache_spec_mismatch_rejected(self):
        params = init_params(TOY, seed=10)
        _, cache = forward(TOY, params, np.ones((4, 3)))
        other = NetworkSpec(
            feature_dim=3, num_labels=2,
            layers=(LayerSpec("rnn", 5, True), LayerSpec("rnn", 5, True)),
        )
        with pytest.raises(ValueError):
            backward(other, init_params(other, seed=0), cache, np.zeros((4, 3)))

    @pytest.mark.parametrize("spec", [TOY, NetworkSpec(
        feature_dim=3, num_labels=2, layers=(LayerSpec("lstm", 4, True),
                                             LayerSpec("lstm", 3, False)))])
    def test_backward_consumes_the_cache(self, spec):
        """A second backward on a cache raises, by either entry point,
        where it would run on activations the first wrote over."""
        params = init_params(spec, seed=12)
        features = np.random.default_rng(86).normal(0, 1, (4, 3))
        probs, cache = forward(spec, params, features)
        grad_logits = np.ones_like(probs)
        backward(spec, params, cache, grad_logits)
        assert cache.batch.layers is None
        consumed = "^the cache was consumed by an earlier backward$"
        with pytest.raises(ValueError, match=consumed):
            backward(spec, params, cache, grad_logits)
        with pytest.raises(ValueError, match=consumed):
            net.backward_packed(spec, params, cache.batch, grad_logits)
        packing = Packing([4, 2])
        frames = np.random.default_rng(87).normal(0, 1, (6, 3))
        _, batch = net.forward_packed(spec, params, packing, frames)
        net.backward_packed(spec, params, batch, np.ones((6, 3)))
        with pytest.raises(ValueError, match=consumed):
            net.backward_packed(spec, params, batch, np.ones((6, 3)))

    def test_bit_reproducible(self):
        rng = np.random.default_rng(85)
        params = init_params(TOY, seed=11)
        features = rng.normal(0, 1, (5, 3))
        a = end_to_end_grads(TOY, params, features, [0, 1])
        b = end_to_end_grads(TOY, params, features, [0, 1])
        for name in a:
            np.testing.assert_array_equal(a[name], b[name])


class TestOptimizers:
    def test_sgd_step(self):
        params = as_flat({"w": np.array([1.0])})
        state = init_optimizer("sgd", 0.1, params)
        optimizer_step(state, params, {"w": np.array([0.5])})
        np.testing.assert_allclose(params["w"], [0.95])

    def test_adam_first_step_magnitude(self):
        # bias correction makes the first update ~lr regardless of scale
        for scale in (1e-4, 1.0, 1e4):
            params = as_flat({"w": np.array([1.0])})
            state = init_optimizer("adam", 1e-3, params)
            optimizer_step(state, params, {"w": np.array([scale])})
            assert abs(params["w"][0] - 1.0) == pytest.approx(1e-3, rel=1e-3)
            assert state.step == 1

    def test_zero_gradient(self):
        params = as_flat({"w": np.array([2.0])})
        sgd = init_optimizer("sgd", 0.1, params)
        optimizer_step(sgd, params, {"w": np.zeros(1)})
        np.testing.assert_array_equal(params["w"], [2.0])
        adam = init_optimizer("adam", 0.1, params)
        adam.m["w"][:] = 0.5
        adam.v["w"][:] = 0.25
        optimizer_step(adam, params, {"w": np.zeros(1)})
        np.testing.assert_allclose(adam.m["w"], [0.45])
        np.testing.assert_allclose(adam.v["w"], [0.24975])

    def test_nonfinite_gradient_aborts_without_touching_state(self):
        params = as_flat({"w": np.array([1.0]), "v": np.array([2.0])})
        state = init_optimizer("adam", 0.1, params)
        before = clone(params)
        with pytest.raises(NonFiniteGradient):
            optimizer_step(
                state, params, {"w": np.array([np.nan]), "v": np.array([1.0])}
            )
        for name in params:
            np.testing.assert_array_equal(params[name], before[name])
            assert not state.m[name].any()
        assert state.step == 0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            init_optimizer("rmsprop", 0.1, {})

    @pytest.mark.parametrize("rate", [np.nan, np.inf, -np.inf, -1.0, -1e-300,
                                      "1e-3", True, None, [0.1], 10 ** 400])
    def test_bad_learning_rate_rejected(self, rate):
        with pytest.raises(ValueError, match="learning_rate"):
            init_optimizer("adam", rate, {"w": np.zeros(1)})

    @pytest.mark.parametrize("rate", [0, 0.0, 1e-3, 2, np.float32(0.5), np.int64(1)])
    def test_real_learning_rate_kept_as_float(self, rate):
        state = init_optimizer("sgd", rate, {"w": np.zeros(1)})
        assert type(state.learning_rate) is float
        assert state.learning_rate == float(rate)

    def test_shape_disagreement_rejected(self):
        params = as_flat({"w": np.array([1.0])})
        state = init_optimizer("sgd", 0.1, params)
        with pytest.raises(ValueError):
            optimizer_step(state, params, {"w": np.zeros(2)})
        with pytest.raises(ValueError):
            optimizer_step(state, params, {"x": np.zeros(1)})

    def test_params_must_be_flat(self):
        params = {"w": np.array([1.0])}
        state = init_optimizer("sgd", 0.1, as_flat(params))
        with pytest.raises(TypeError, match=r"^params must be a FlatTensors"):
            optimizer_step(state, params, {"w": np.zeros(1)})
        np.testing.assert_array_equal(params["w"], [1.0])

    def test_moments_in_another_layout_rejected(self):
        state = init_optimizer("adam", 0.1, as_flat({"w": np.zeros(2)}))
        for params in (as_flat({"w": np.ones(3)}), as_flat({"x": np.ones(2)})):
            with pytest.raises(ValueError, match="^optimizer moments are not "
                               "laid out as the parameters$"):
                optimizer_step(state, params, {name: np.zeros(params[name].shape)
                                               for name in params})
            assert not (params.flat - 1).any()
        assert state.step == 0

    def test_clip_by_global_norm(self):
        grads = {"a": np.array([3.0]), "b": np.array([4.0])}
        clipped = clip_by_global_norm(grads, 1.0)
        assert np.hypot(clipped["a"][0], clipped["b"][0]) == pytest.approx(1.0)
        untouched = clip_by_global_norm(grads, 10.0)
        assert untouched is grads

    @pytest.mark.parametrize("max_norm", [-1.0, 0, 0.0, np.nan, np.inf, "5", True])
    def test_bad_clip_norm_rejected(self, max_norm):
        # a negative norm would turn [3, 4] into [-0.6, -0.8], gradient
        # ascent, and 0 would zero every step
        grads = as_flat({"a": np.array([3.0]), "b": np.array([4.0])})
        with pytest.raises(ValueError, match="max_norm"):
            clip_by_global_norm(grads, max_norm)
        np.testing.assert_array_equal(grads.flat, [3.0, 4.0])

    def test_clipping_returns_another_mapping(self):
        # benchmark tracing counts a clip event as a result that is not
        # the argument; flat gradients are scaled in place
        grads = as_flat({"a": np.array([3.0]), "b": np.array([4.0])})
        clipped = clip_by_global_norm(grads, 1.0)
        assert clipped is not grads
        assert np.hypot(clipped["a"][0], clipped["b"][0]) == pytest.approx(1.0)
        assert clipped.flat is grads.flat


class TestFlatOptimizer:
    """The one-buffer update against the per-tensor one of tests/oracles.py."""

    SPEC = NetworkSpec(feature_dim=3, num_labels=3,
                       layers=(LayerSpec("lstm", 4, True),) * 2)
    LR = 1e-2

    def run(self, kind, clip_norm, steps=4):
        """Steps of random gradients through both; returns (flat, oracle) states."""
        shapes = param_shapes(self.SPEC)
        rng = np.random.default_rng(17)
        params = as_flat(init_params(self.SPEC, 3), shapes)
        state = init_optimizer(kind, self.LR, params)
        ref = clone(params)
        ref_m = {name: np.zeros(shape) for name, shape in shapes.items()}
        ref_v = clone(ref_m)
        ref_step = 0
        for _ in range(steps):
            grads = {name: rng.normal(0.0, 10.0 ** rng.integers(-3, 2), shape)
                     for name, shape in shapes.items()}
            flat_grads = as_flat(grads, shapes)
            if clip_norm is not None:
                assert per_tensor_grad_norm(grads) > clip_norm
                flat_grads = clip_by_global_norm(flat_grads, clip_norm)
                grads = per_tensor_clip(grads, clip_norm)
            optimizer_step(state, params, flat_grads)
            ref_step = per_tensor_step(kind, self.LR, ref, grads, ref_m, ref_v, ref_step)
        return (params, state), (ref, ref_m, ref_v, ref_step)

    @pytest.mark.parametrize("kind", ["sgd", "adam"])
    def test_unclipped_steps_match_the_oracle_bit_for_bit(self, kind):
        (params, state), (ref, ref_m, ref_v, ref_step) = self.run(kind, None)
        pairs = [(params, ref)]
        if kind == "adam":
            pairs += [(state.m, ref_m), (state.v, ref_v)]
            assert state.step == ref_step == 4
        for flat, oracle in pairs:
            for name in oracle:
                np.testing.assert_array_equal(flat[name], oracle[name], err_msg=name)

    @pytest.mark.parametrize("kind", ["sgd", "adam"])
    def test_clipped_steps_match_the_oracle_to_1e_15(self, kind):
        # the norm sums in another order, so the scale may differ in its
        # last bits
        (params, state), (ref, ref_m, ref_v, _) = self.run(kind, clip_norm=0.5)
        pairs = [(params, ref)]
        if kind == "adam":
            pairs += [(state.m, ref_m), (state.v, ref_v)]
        for flat, oracle in pairs:
            for name in oracle:
                scale = np.max(np.abs(oracle[name]))
                assert np.max(np.abs(flat[name] - oracle[name])) <= 1e-15 * scale, name

    def test_norm_matches_the_oracle(self):
        rng = np.random.default_rng(5)
        grads = {name: rng.normal(0.0, 1.0, shape)
                 for name, shape in param_shapes(self.SPEC).items()}
        assert net.global_grad_norm(grads) == pytest.approx(
            per_tensor_grad_norm(grads), rel=1e-15)

    def test_nan_gradient_names_the_first_bad_tensor_and_touches_nothing(self):
        (params, state), _ = self.run("adam", None, steps=2)
        before = [clone(params), clone(state.m), clone(state.v)]
        grads = {name: np.ones(shape)
                 for name, shape in param_shapes(self.SPEC).items()}
        # in the buffer layer0.fwd comes first; by name layer0.bwd does
        grads["layer0.fwd.Wh"][1, 2] = np.nan
        grads["layer0.bwd.Wx"][0, 0] = np.inf
        grads["output.b"][0] = np.nan
        with pytest.raises(NonFiniteGradient, match=r"tensor layer0\.bwd\.Wx$"):
            optimizer_step(state, params, as_flat(grads, params.shapes))
        for tensors, saved in zip((params, state.m, state.v), before):
            for name in saved:
                np.testing.assert_array_equal(tensors[name], saved[name])
        assert state.step == 2


class TestActivationGroups:
    @settings(max_examples=200, deadline=None)
    @given(lengths=st.lists(st.integers(1, 50), max_size=30),
           budget=st.integers(1, 120))
    def test_first_fit_decreasing(self, lengths, budget):
        """Each group's frames and the steps of its longest sequence fit."""
        lengths = sorted(lengths, reverse=True)
        per_frame = net.stored_bytes_per_frame(TOY)
        budget *= per_frame
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(net, "ACTIVATION_BYTES", budget)
            groups = net.activation_groups(TOY, lengths)
        indices = sorted(i for group in groups for i in group.tolist())
        assert indices == list(range(len(lengths)))
        for group in groups:
            group_lengths = [lengths[i] for i in group]
            assert group_lengths == sorted(group_lengths, reverse=True)
            assert len(group) == 1 or (sum(group_lengths) * per_frame
                                       + group_lengths[0] * STEP_BYTES <= budget)
        assert len(groups) <= len(consecutive_groups(lengths, per_frame,
                                                     STEP_BYTES, budget))

    def test_fewer_groups_than_consecutive_runs(self, monkeypatch):
        # 10 frames beside the bookkeeping of 6 steps
        per_frame = net.stored_bytes_per_frame(TOY)
        budget = 10 * per_frame + 6 * STEP_BYTES
        monkeypatch.setattr(net, "ACTIVATION_BYTES", budget)
        groups = net.activation_groups(TOY, [6, 5, 4, 3])
        assert [group.tolist() for group in groups] == [[0, 2], [1, 3]]
        assert len(consecutive_groups([6, 5, 4, 3], per_frame, STEP_BYTES,
                                      budget)) == 3

    def test_lengths_in_any_order(self, monkeypatch):
        # the groups of [6, 5, 4, 3] above, as indices into these lengths;
        # equal lengths keep their order
        monkeypatch.setattr(net, "ACTIVATION_BYTES",
                            10 * net.stored_bytes_per_frame(TOY) + 6 * STEP_BYTES)
        groups = net.activation_groups(TOY, [4, 6, 3, 5])
        assert [group.tolist() for group in groups] == [[1, 0], [3, 2]]
        groups = net.activation_groups(TOY, [2, 5, 2, 5])
        assert [group.tolist() for group in groups] == [[1, 3], [0, 2]]

    @pytest.mark.parametrize("name", sorted(TestForwardOnly.SPECS))
    def test_a_full_training_group_holds_the_budget(self, name):
        """What a training group holds once forward returns, traced: its
        packing, frames and the activations kept for backward, with as
        many frames as the budget allows, for one sequence and for three.
        """
        spec = TestForwardOnly.SPECS[name]
        params = net._init_flat_params(spec, 0)
        per_frame = net.stored_bytes_per_frame(spec)
        for share in (1, 3):
            steps = net.ACTIVATION_BYTES // (share * per_frame + STEP_BYTES)
            lengths = [steps] * share
            assert len(net.activation_groups(spec, lengths)) == 1
            rng = np.random.default_rng(1)
            tracemalloc.start()
            try:
                packing = Packing(lengths)
                frames = rng.normal(0, 1, (share * steps, spec.feature_dim))
                kept = net.forward_packed(spec, params, packing, frames)
                held = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
            assert kept[1].packing is packing
            assert 0.9 * net.ACTIVATION_BYTES <= held <= 1.02 * net.ACTIVATION_BYTES, \
                (share, held / net.ACTIVATION_BYTES)

    def test_a_training_step_peaks_well_under_twice_the_budget(self, monkeypatch):
        """A full training group of the benchmark's 2x bi-LSTM 64, traced
        through forward, lattice and backward: train-long-lstm's seed-7
        sequences in groups of a 4 MiB budget, the fullest of them.

        Backward frees what it holds but no longer needs, so the step
        peaks at 1.59x the budget, the 1.25 MB gradient buffer included,
        where keeping every temporary to the end peaked at 2.19x. The
        budget is full size, as that buffer does not shrink with it.
        """
        monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
        import workloads
        monkeypatch.setattr(net, "ACTIVATION_BYTES", 4 * 2 ** 20)
        spec = workloads.LONG_SPEC
        sequences = workloads.long_sequences(np.random.default_rng(7), 8).sequences
        lengths = np.array([f.shape[0] for f, _ in sequences])
        group = max(net.activation_groups(spec, lengths),
                    key=lambda g: lengths[g].sum())
        per_frame = net.stored_bytes_per_frame(spec)
        assert lengths[group].sum() * per_frame > 0.95 * net.ACTIVATION_BYTES
        rows = np.concatenate([sequences[i][0] for i in group])
        starts = np.cumsum(np.r_[0, lengths[group][:-1]])
        labels = [sequences[i][1] for i in group]
        label_lengths = np.array([len(l) for l in labels])
        labels = np.array([l + [0] * (label_lengths.max() - len(l)) for l in labels])
        params = net._init_flat_params(spec, 7)
        tracemalloc.start()
        try:
            packing = Packing(lengths[group])
            logits, cache = net.forward_packed(
                spec, params, packing, packing.pack(rows, starts))
            losses, grad_logits = ctc_gradient_packed(packing, logits, labels,
                                                      label_lengths)
            grads = net.backward_packed(spec, params, cache, grad_logits)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.isfinite(losses).all() and np.isfinite(grads.flat).all()
        assert peak <= 1.7 * net.ACTIVATION_BYTES, peak / net.ACTIVATION_BYTES


class TestBlasThreads:
    @pytest.fixture
    def threads(self):
        calls = net._openblas_thread_calls()
        if calls is None:
            pytest.skip("numpy's BLAS is not OpenBLAS")
        get, set_ = calls
        before = get()
        set_(2)
        yield get
        set_(before)

    def test_engine_runs_on_one_thread_and_restores_the_count(
        self, threads, monkeypatch
    ):
        seen = []
        flat = net.as_flat  # the first call of both packed passes
        monkeypatch.setattr(
            net, "as_flat", lambda *a: seen.append(threads()) or flat(*a)
        )
        params = init_params(TOY, 0)
        probs, cache = forward(TOY, params, np.zeros((4, 3)))
        assert threads() == 2
        backward(TOY, params, cache, np.zeros_like(probs))
        assert seen == [1, 1]
        assert threads() == 2

    def test_count_restored_when_the_engine_raises(self, threads):
        with pytest.raises(ValueError):
            net.forward_packed(TOY, {}, Packing([2]), np.zeros((2, 3)))
        assert threads() == 2


def run_python(script):
    """Run ``script`` in a new interpreter that imports ctckit from src;
    its standard output."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=120, check=True,
    ).stdout


class TestHeapThresholds:
    """The engine's first call pins glibc's heap thresholds, so the pages
    of a batch's temporaries stay mapped for the next batch. Each test
    runs in a new interpreter, whose heap no other test has touched."""

    def test_the_first_engine_call_pins_them_not_the_import(self):
        out = run_python("""
            import numpy as np
            import ctckit
            from ctckit import net
            print(net._pin_heap_thresholds.cache_info().misses)
            spec = net.NetworkSpec(3, 2, (net.LayerSpec("rnn", 4, True),))
            net.forward(spec, net.init_params(spec, 0), np.zeros((5, 3)))
            print(net._pin_heap_thresholds.cache_info().misses,
                  net._pin_heap_thresholds())
        """)
        assert out == "0\n1 %s\n" % net._pin_heap_thresholds()

    def test_a_short_sequence_fit_faults_in_under_a_page_a_batch(self):
        """After a warm-up fit, a fit of train-short's shape (500 short
        sequences, bi-RNN 32, batch 16) reuses its pages: glibc's
        default thresholds took about 5.7 minor faults a batch."""
        if not net._pin_heap_thresholds():
            pytest.skip("no glibc mallopt")
        out = run_python("""
            import resource
            from ctckit import CtcModel, LayerSpec, NetworkSpec
            from ctckit.data import generate_synthetic

            spec = NetworkSpec(4, 4, (LayerSpec("rnn", 32, True),))
            data = generate_synthetic(500, num_labels=4, feature_dim=4,
                                      noise_sigma=0.1, seed=7)

            def faults():
                return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

            for _ in range(2):  # a warm-up fit, then the measured one
                model = CtcModel.compile(spec, learning_rate=1e-3, seed=7)
                before = faults()
                model.fit(data, epochs=2, batch_size=16, shuffle_seed=7,
                          clip_norm=5.0)
                print(faults() - before)
        """)
        batches = 2 * -(-500 // 16)
        assert int(out.split()[-1]) < batches, out


class TestRowIndependence:
    """Each row of a product of two rows or more ignores the other rows.

    Packed inference relies on this property of the BLAS: with it, a
    sequence's posteriors are the same bits whichever sequences share
    its group. The shapes are those of the engine's weights in the
    benchmark's networks and in a small mixed one; row slices start at
    several offsets, as the engine's prefix slices ``h[prev:prev + n]``
    do. A one-row product takes another BLAS kernel, so ``_product``
    runs a lone row as two. At widths that are not a multiple of eight
    columns some kernels give a row bits that follow the rows beside
    it, so the engine runs every W ``_padded`` to a multiple of eight;
    the WIDTHS shapes check that. From 385 inputs on OpenBLAS's SkylakeX
    kernel splits the inner dimension by the row count, which padding
    cannot mend, so ``_product`` multiplies blocks of at most
    ``net.PRODUCT_INPUTS`` inputs and adds them in a fixed order; the
    WIDTHS past 384 inputs check that.
    """

    SPECS = (
        NetworkSpec(feature_dim=40, num_labels=28,
                    layers=(LayerSpec("lstm", 64, True),) * 2),
        NetworkSpec(feature_dim=4, num_labels=4,
                    layers=(LayerSpec("rnn", 32, True),)),
        NetworkSpec(feature_dim=3, num_labels=3,
                    layers=(LayerSpec("lstm", 4, True), LayerSpec("rnn", 3, False))),
    )
    ROW_COUNTS = sorted({*range(2, 18), 3000,
                         *(2 ** k + d for k in range(5, 13) for d in (-1, 0, 1))})

    WIDTHS = [(inputs, cols) for inputs in (16, 17, 33, 64, 384)
              for cols in (*range(1, 13), *range(16, 21), *range(24, 29))] + [
        (inputs, cols) for inputs in (385, 512) for cols in (1, 5, 8, 28)]

    def test_rows_of_a_product_do_not_depend_on_the_row_count(self):
        shapes = sorted({shape for spec in self.SPECS
                         for shape in param_shapes(spec).values() if len(shape) == 2}
                        | set(self.WIDTHS))
        rng = np.random.default_rng(91)

        @net._one_blas_thread  # the thread setting the engine runs under
        def mismatches():
            found = []
            for shape in shapes:
                W = net._padded(rng.normal(0, 1, shape))
                A = rng.normal(0, 1, (max(self.ROW_COUNTS) + 3, shape[0]))
                full = net._product(A, W, shape[1])
                for rows in self.ROW_COUNTS:
                    for start in (0, 1, 3):
                        if not np.array_equal(
                                net._product(A[start:start + rows], W, shape[1]),
                                full[start:start + rows]):
                            found.append((shape, rows, start))
                for r in range(0, 40, 3):
                    if not np.array_equal(net._product(A[r:r + 1], W, shape[1]),
                                          full[r:r + 1]):
                        found.append((shape, 1, r))
            return found

        found = mismatches()
        assert not found, (
            "this BLAS gives a row of A @ W other bits when the product has "
            "another number of rows, so packed inference would make a "
            "sequence's outputs depend on its batch; (W shape, rows, first "
            "row) of the mismatches: %r" % found[:10]
        )

    def test_stacked_step_products_equal_the_2d_products(self):
        """A step's stacked product, against each direction's 2-D product.

        A recurrent step multiplies the previous step's rows of all its
        directions at once, ``(D, n, U) @ (D, U, G·U)``, reading them from
        the (N, D, U) outputs and the weights from the parameter buffer
        (``net._layer_weights``). Backward multiplies ``(D, n, G·U)`` by
        the transposed weights into a (first, D, U) array. Each must give
        every direction's rows the bits of its own 2-D product: for n = 1
        forward, the two-row product ``_product`` runs, over the
        ``_padded`` weights.
        """
        rng = np.random.default_rng(92)

        @net._one_blas_thread
        def mismatches():
            found = []
            for spec in self.SPECS:
                params = net._init_flat_params(spec, 0)
                params.flat[...] = rng.normal(0, 1, params.flat.shape)
                for li, layer in enumerate(spec.layers):
                    Wh = net._layer_weights(params, li, layer)[1]
                    D, units, cols = Wh.shape
                    for n in range(1, 65):
                        h = rng.normal(0, 1, (n + 3, D, units))
                        dz = rng.normal(0, 1, (n + 3, D, cols))
                        stacked = net._product(h[2:2 + n].transpose(1, 0, 2),
                                               net._padded(Wh), cols)
                        dh = np.zeros((n + 1, D, units))
                        np.matmul(dz[2:2 + n].transpose(1, 0, 2),
                                  Wh.transpose(0, 2, 1),
                                  out=dh[:n].transpose(1, 0, 2))
                        for d in range(D):
                            W = np.ascontiguousarray(Wh[d])
                            rows = np.ascontiguousarray(h[2:2 + n, d])
                            if not np.array_equal(
                                    stacked[d], net._product(rows, net._padded(W), cols)):
                                found.append(("forward", W.shape, D, n))
                            rows = np.ascontiguousarray(dz[2:2 + n, d])
                            if not np.array_equal(dh[:n, d], rows @ W.T):
                                found.append(("backward", W.shape, D, n))
            return found

        found = mismatches()
        assert not found, (
            "this BLAS gives a direction's rows other bits in a stacked "
            "product than in its own 2-D product, so the fused recurrence "
            "would not reproduce the per-direction loops; (pass, W shape, "
            "directions, rows) of the mismatches: %r" % found[:10]
        )
