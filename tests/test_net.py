"""Network forward/backward against finite differences, init and optimizers."""

import numpy as np
import pytest

from ctckit import net
from ctckit.lattice import ctc_gradient
from ctckit.net import (
    LayerSpec,
    NetworkSpec,
    NonFiniteGradient,
    audit_params,
    backward,
    clip_by_global_norm,
    forward,
    init_optimizer,
    init_params,
    optimizer_step,
    param_shapes,
    validate_spec,
)
from ctckit.packing import Packing

from oracles import central_difference, norm_rel_err, random_feasible_labels

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
            validate_spec(NetworkSpec(feature_dim=3, num_labels=2, layers=()))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            validate_spec(NetworkSpec(
                feature_dim=3, num_labels=2, layers=(LayerSpec("gru", 4),)
            ))


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

    def test_audit_catches_mismatch(self):
        params = init_params(TOY, seed=0)
        params.pop("output.b")
        with pytest.raises(ValueError):
            audit_params(TOY, params)
        params = init_params(TOY, seed=0)
        params["output.b"] = np.zeros(4)
        with pytest.raises(ValueError):
            audit_params(TOY, params)


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

    def test_cache_spec_mismatch_rejected(self):
        params = init_params(TOY, seed=10)
        _, cache = forward(TOY, params, np.ones((4, 3)))
        other = NetworkSpec(
            feature_dim=3, num_labels=2,
            layers=(LayerSpec("rnn", 5, True), LayerSpec("rnn", 5, True)),
        )
        with pytest.raises(ValueError):
            backward(other, init_params(other, seed=0), cache, np.zeros((4, 3)))

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
        params = {"w": np.array([1.0])}
        state = init_optimizer("sgd", 0.1, params)
        optimizer_step(state, params, {"w": np.array([0.5])})
        np.testing.assert_allclose(params["w"], [0.95])

    def test_adam_first_step_magnitude(self):
        # bias correction makes the first update ~lr regardless of scale
        for scale in (1e-4, 1.0, 1e4):
            params = {"w": np.array([1.0])}
            state = init_optimizer("adam", 1e-3, params)
            optimizer_step(state, params, {"w": np.array([scale])})
            assert abs(params["w"][0] - 1.0) == pytest.approx(1e-3, rel=1e-3)
            assert state.step == 1

    def test_zero_gradient(self):
        params = {"w": np.array([2.0])}
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
        params = {"w": np.array([1.0]), "v": np.array([2.0])}
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

    def test_shape_disagreement_rejected(self):
        params = {"w": np.array([1.0])}
        state = init_optimizer("sgd", 0.1, params)
        with pytest.raises(ValueError):
            optimizer_step(state, params, {"w": np.zeros(2)})
        with pytest.raises(ValueError):
            optimizer_step(state, params, {"x": np.zeros(1)})

    def test_clip_by_global_norm(self):
        grads = {"a": np.array([3.0]), "b": np.array([4.0])}
        clipped = clip_by_global_norm(grads, 1.0)
        assert np.hypot(clipped["a"][0], clipped["b"][0]) == pytest.approx(1.0)
        untouched = clip_by_global_norm(grads, 10.0)
        assert untouched is grads


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
        audit = net.audit_params  # the first call of both packed passes
        monkeypatch.setattr(
            net, "audit_params", lambda *a: seen.append(threads()) or audit(*a)
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
