"""Model facade: training, prediction, evaluation, persistence."""

import numpy as np
import pytest

from ctckit import net
from ctckit.data import Dataset, PaddedBatch, generate_synthetic, make_batches
from ctckit.decode import beam_search_decode, best_path_decode
from ctckit.lattice import InfeasibleAlignment, ctc_gradient, ctc_loss
from ctckit.model import (
    CtcModel,
    DecodeConfig,
    ModelLoadError,
    batch_gradients,
    load_model,
    read_weights,
    save_model,
    write_weights,
)
from ctckit.net import LayerSpec, NetworkSpec, backward, forward

from oracles import random_feasible_labels

SPEC = NetworkSpec(
    feature_dim=3, num_labels=2, layers=(LayerSpec("rnn", 4, True),)
)


def clone(params):
    return {name: p.copy() for name, p in params.items()}


def small_dataset(n=6, seed=0):
    return generate_synthetic(n, num_labels=2, feature_dim=3,
                              noise_sigma=0.05, seed=seed)


def params_equal(a, b):
    return a.keys() == b.keys() and all(
        np.array_equal(a[n], b[n]) for n in a
    )


class RecordingLabels(list):
    """List that counts every read so branch separation can be asserted."""

    def __init__(self, values, counter):
        super().__init__(values)
        self._counter = counter

    def __getitem__(self, item):
        self._counter["reads"] += 1
        return super().__getitem__(item)

    def __iter__(self):
        self._counter["reads"] += 1
        return super().__iter__()

    def __len__(self):
        self._counter["reads"] += 1
        return super().__len__()


class TestCompile:
    def test_same_seed_same_predictions(self):
        ds = small_dataset()
        feats = [f for f, _ in ds.sequences]
        a = CtcModel.compile(SPEC, seed=3).predict(feats)
        b = CtcModel.compile(SPEC, seed=3).predict(feats)
        assert [r.paths for r in a] == [r.paths for r in b]

    def test_unknown_optimizer_rejected(self):
        with pytest.raises(ValueError):
            CtcModel.compile(SPEC, optimizer="rmsprop")

    def test_three_bidirectional_lstm_layers_audit(self):
        spec = NetworkSpec(
            feature_dim=16,
            num_labels=9,
            layers=tuple(LayerSpec("lstm", 128, True) for _ in range(3)),
        )
        model = CtcModel.compile(spec, seed=0)
        assert model.params["output.W"].shape == (256, 10)
        assert model.params["output.b"].shape == (10,)
        probs, _ = forward(spec, model.params, np.zeros((2, 16)))
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)


class TestTrainOnBatch:
    def test_single_sequence_loss_matches_forward_posterior(self):
        ds = small_dataset(1)
        model = CtcModel.compile(SPEC, learning_rate=0.0, optimizer="sgd", seed=1)
        features, labels = ds.sequences[0]
        probs, _ = forward(SPEC, model.params, features)
        expected = ctc_loss(probs, labels)
        (batch,) = make_batches(ds, 1)
        assert model.train_on_batch(batch) == pytest.approx(expected, abs=1e-12)

    def test_lr_zero_is_idempotent(self):
        ds = small_dataset(3)
        model = CtcModel.compile(SPEC, learning_rate=0.0, optimizer="sgd", seed=1)
        (batch,) = make_batches(ds, 3)
        assert model.train_on_batch(batch) == model.train_on_batch(batch)

    def test_infeasible_batch_is_atomic(self):
        model = CtcModel.compile(SPEC, seed=2)
        before = clone(model.params)
        moments = clone(model.optimizer.m)
        batch = PaddedBatch(
            features=np.random.default_rng(0).normal(0, 1, (2, 3, 3)),
            labels=np.array([[0, -1], [1, 1]]),
            input_lengths=np.array([3, 2]),   # [1, 1] needs 3 frames
            label_lengths=np.array([1, 2]),
        )
        with pytest.raises(InfeasibleAlignment) as excinfo:
            model.train_on_batch(batch)
        assert excinfo.value.sequence_index == 1
        assert params_equal(model.params, before)
        assert params_equal(model.optimizer.m, moments)
        assert model.optimizer.step == 0

    def test_step_changes_parameters(self):
        ds = small_dataset(4)
        model = CtcModel.compile(SPEC, learning_rate=1e-2, seed=3)
        before = clone(model.params)
        (batch,) = make_batches(ds, 4)
        model.train_on_batch(batch)
        assert not params_equal(model.params, before)


class TestBatchGradients:
    """The batched engine against the single-sequence calls."""

    MIXED = NetworkSpec(
        feature_dim=3, num_labels=3,
        layers=(LayerSpec("lstm", 4, True), LayerSpec("rnn", 3, False)),
    )

    def ragged_batch(self, rng, lengths, pad_value=0.0):
        t_max = max(lengths)
        features = np.full((len(lengths), t_max, 3), pad_value)
        labels = np.full((len(lengths), 3), -1, dtype=np.int64)
        label_lengths = []
        for i, length in enumerate(lengths):
            features[i, :length] = rng.normal(0, 1, (length, 3))
            seq = random_feasible_labels(rng, length, 4, 3)
            labels[i, :len(seq)] = seq
            label_lengths.append(len(seq))
        return PaddedBatch(features, labels, np.array(lengths),
                           np.array(label_lengths))

    def one_at_a_time(self, spec, params, batch):
        losses, total = [], None
        for i in range(len(batch)):
            til = int(batch.input_lengths[i])
            _, cache = forward(spec, params, batch.features[i, :til])
            loss, grad_logits = ctc_gradient(
                cache.logits, batch.labels[i, :batch.label_lengths[i]]
            )
            grads = backward(spec, params, cache, grad_logits)
            total = grads if total is None else {
                name: total[name] + g for name, g in grads.items()
            }
            losses.append(loss)
        return losses, {name: g / len(batch) for name, g in total.items()}

    @pytest.mark.parametrize("budget_frames", [None, 9])
    def test_matches_mean_of_batch_of_one(self, monkeypatch, budget_frames):
        rng = np.random.default_rng(31)
        params = net.init_params(self.MIXED, seed=4)
        # every length from 1 to T once, in shuffled order, plus repeats
        lengths = rng.permutation(np.r_[np.arange(1, 10), [9, 4, 1]]).tolist()
        if budget_frames is not None:
            monkeypatch.setattr(
                net, "ACTIVATION_BYTES",
                budget_frames * net.stored_bytes_per_frame(self.MIXED),
            )
        groups = net.activation_groups(self.MIXED, sorted(lengths)[::-1])
        assert (len(groups) > 1) == (budget_frames is not None)
        batch = self.ragged_batch(rng, lengths)
        losses, grads = batch_gradients(self.MIXED, params, batch)
        ref_losses, ref_grads = self.one_at_a_time(self.MIXED, params, batch)
        np.testing.assert_allclose(losses, ref_losses, rtol=1e-12, atol=0)
        assert grads.keys() == ref_grads.keys()
        for name, g in grads.items():
            scale = np.max(np.abs(ref_grads[name]))
            assert np.max(np.abs(g - ref_grads[name])) <= 1e-12 * scale, name

    def test_non_finite_padding_is_bitwise_irrelevant(self):
        lengths = [5, 1, 7, 3, 7, 2]
        outcomes = []
        for pad in (0.0, np.nan, np.inf, -np.inf):
            batch = self.ragged_batch(np.random.default_rng(32), lengths, pad)
            model = CtcModel.compile(self.MIXED, learning_rate=1e-2, seed=6)
            outcomes.append((model.train_on_batch(batch), model.params))
        zero_loss, zero_params = outcomes[0]
        for loss, params in outcomes[1:]:
            assert loss == zero_loss
            assert params_equal(params, zero_params)

    def test_infeasible_index_is_the_unsorted_one(self):
        model = CtcModel.compile(SPEC, seed=2)
        batch = PaddedBatch(
            features=np.zeros((3, 5, 3)),
            labels=np.array([[0, 0], [1, -1], [0, 0]]),
            input_lengths=np.array([2, 5, 4]),   # [0, 0] needs 3 frames
            label_lengths=np.array([2, 1, 2]),
        )
        with pytest.raises(InfeasibleAlignment) as excinfo:
            model.train_on_batch(batch)
        assert excinfo.value.sequence_index == 0


class TestFit:
    def test_zero_epochs(self):
        model = CtcModel.compile(SPEC, seed=4)
        before = clone(model.params)
        history = model.fit(small_dataset(), epochs=0)
        assert history == []
        assert params_equal(model.params, before)

    def test_identical_seeds_identical_histories(self):
        ds = small_dataset(8)
        val = small_dataset(4, seed=9)
        losses = []
        for _ in range(2):
            model = CtcModel.compile(SPEC, learning_rate=1e-3, seed=5)
            history = model.fit(ds, epochs=3, batch_size=4, shuffle_seed=11,
                                validation=val)
            losses.append([(h.train_loss, h.val_loss) for h in history])
        assert losses[0] == losses[1]
        assert len(losses[0]) == 3

    def test_empty_dataset_rejected(self):
        model = CtcModel.compile(SPEC, seed=4)
        with pytest.raises(ValueError):
            model.fit(Dataset(3, 2, []), epochs=1)

    def test_checkpoints_written(self, tmp_path):
        model = CtcModel.compile(SPEC, seed=4)
        model.fit(small_dataset(4), epochs=2, batch_size=2,
                  checkpoint_dir=str(tmp_path))
        weights = read_weights(tmp_path / "weights.epoch2.ctcw")
        assert params_equal(weights, model.params)


class TestPredict:
    def test_empty_input(self):
        model = CtcModel.compile(SPEC, seed=6)
        assert model.predict([]) == []

    def test_greedy_matches_decoder_on_own_posteriors(self):
        ds = small_dataset(5)
        model = CtcModel.compile(SPEC, seed=6)
        results = model.predict([f for f, _ in ds.sequences], greedy=True)
        for (features, _), result in zip(ds.sequences, results):
            probs, _ = forward(SPEC, model.params, features)
            assert result.paths == best_path_decode(probs).paths

    def test_beam_matches_decoder_on_own_posteriors(self):
        ds = small_dataset(5)
        model = CtcModel.compile(SPEC, seed=6)
        results = model.predict(
            [f for f, _ in ds.sequences], greedy=False, beam_width=8,
            top_paths=2,
        )
        for (features, _), result in zip(ds.sequences, results):
            probs, _ = forward(SPEC, model.params, features)
            expected = beam_search_decode(probs, beam_width=8, top_paths=2)
            assert result.paths == expected.paths

    def test_trained_model_recovers_noiseless_training_labels(self):
        ds = generate_synthetic(60, num_labels=3, feature_dim=3,
                                noise_sigma=0.0, seed=12)
        # adjacent repeated labels are not recoverable from noiseless
        # frames (their spans fuse), so keep the unambiguous sequences
        ds.sequences = [
            s for s in ds.sequences
            if all(a != b for a, b in zip(s[1], s[1][1:]))
        ]
        spec = NetworkSpec(feature_dim=3, num_labels=3,
                           layers=(LayerSpec("rnn", 16, True),))
        model = CtcModel.compile(spec, optimizer="adam", learning_rate=5e-3,
                                 seed=1)
        model.fit(ds, epochs=30, batch_size=8, shuffle_seed=1)
        preds = model.predict([f for f, _ in ds.sequences])
        assert all(
            p.paths[0][0] == labels
            for p, (_, labels) in zip(preds, ds.sequences)
        )

    def test_decode_defaults_come_from_config(self):
        ds = small_dataset(3)
        feats = [f for f, _ in ds.sequences]
        greedy_model = CtcModel.compile(
            SPEC, decode=DecodeConfig(greedy=True), seed=6
        )
        beam_model = CtcModel.compile(
            SPEC, decode=DecodeConfig(greedy=False, beam_width=4, top_paths=2),
            seed=6,
        )
        assert all(len(r.paths) == 1 for r in greedy_model.predict(feats))
        assert all(len(r.paths) == 2 for r in beam_model.predict(feats))


class TestEvaluate:
    def test_perfect_predictor(self):
        # relabel the dataset with the model's own decodes: every metric
        # must then report a perfect score
        model = CtcModel.compile(SPEC, seed=7)
        ds = small_dataset(10)
        preds = model.predict([f for f, _ in ds.sequences])
        relabeled = Dataset(3, 2, [
            (f, r.paths[0][0]) for (f, _), r in zip(ds.sequences, preds)
        ])
        report = model.evaluate(relabeled, metrics=("ler", "ser"))
        assert report.ser == 0.0
        assert report.ler == [0.0] * 10
        assert report.ler_mean == 0.0

    def test_metric_subset(self):
        model = CtcModel.compile(SPEC, seed=7)
        report = model.evaluate(small_dataset(4), metrics=("ser",))
        assert report.loss is None
        assert report.ler is None
        assert report.ler_mean is None
        assert report.ser is not None
        assert report.decode == {"greedy": True, "beam_width": 100,
                                 "top_paths": 1}

    def test_unknown_metric_rejected(self):
        model = CtcModel.compile(SPEC, seed=7)
        with pytest.raises(ValueError):
            model.evaluate(small_dataset(4), metrics=("loss", "cer"))

    def test_loss_equals_mean_get_loss(self):
        model = CtcModel.compile(SPEC, seed=7)
        ds = small_dataset(6)
        report = model.evaluate(ds, metrics=("loss",))
        assert report.loss == pytest.approx(
            float(np.mean(model.get_loss(ds))), abs=1e-15
        )

    def test_ser_equals_sequence_error_rate_of_predictions(self):
        from ctckit.metrics import sequence_error_rate

        model = CtcModel.compile(SPEC, seed=8)
        ds = small_dataset(8)
        report = model.evaluate(ds, metrics=("ser",))
        preds = [
            r.paths[0][0]
            for r in model.predict([f for f, _ in ds.sequences])
        ]
        truths = [l for _, l in ds.sequences]
        assert report.ser == sequence_error_rate(preds, truths)


class TestBranchSeparation:
    def test_predict_never_reads_labels_evaluate_does(self):
        counter = {"reads": 0}
        ds = small_dataset(4)
        instrumented = Dataset(3, 2, [
            (f, RecordingLabels(l, counter)) for f, l in ds.sequences
        ])
        model = CtcModel.compile(SPEC, seed=9)

        model.predict([f for f, _ in instrumented.sequences])
        model.get_probas(instrumented)
        assert counter["reads"] == 0

        model.evaluate(instrumented, metrics=("loss", "ler", "ser"))
        assert counter["reads"] > 0

        counter["reads"] = 0
        make_batches(instrumented, 4)
        assert counter["reads"] > 0  # batching consumes labels for training


class TestGetters:
    def test_get_loss_singleton_and_order(self):
        model = CtcModel.compile(SPEC, seed=10)
        ds = small_dataset(1)
        assert len(model.get_loss(ds)) == 1
        ds5 = small_dataset(5)
        losses = model.get_loss(ds5)
        for i, (features, labels) in enumerate(ds5.sequences):
            probs, _ = forward(SPEC, model.params, features)
            assert losses[i] == ctc_loss(probs, labels)

    def test_get_probas_shapes_and_consistency(self):
        model = CtcModel.compile(SPEC, seed=10)
        ds = small_dataset(5)
        matrices = model.get_probas(ds)
        losses = model.get_loss(ds)
        for (features, labels), probs, loss in zip(
            ds.sequences, matrices, losses
        ):
            assert probs.shape == (features.shape[0], 3)
            np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)
            assert ctc_loss(probs, labels) == pytest.approx(loss, abs=1e-12)

    def test_get_probas_accepts_raw_features(self):
        model = CtcModel.compile(SPEC, seed=10)
        feats = [np.zeros((4, 3)), np.zeros((2, 3))]
        matrices = model.get_probas(feats)
        assert [m.shape[0] for m in matrices] == [4, 2]


class TestPersistence:
    def test_save_load_predict_bit_identical(self, tmp_path):
        model = CtcModel.compile(SPEC, learning_rate=1e-3, seed=11)
        ds = small_dataset(6)
        model.fit(ds, epochs=1, batch_size=3)
        feats = [f for f, _ in ds.sequences]
        before = [r.paths for r in model.predict(feats)]
        model.save(tmp_path / "model")
        loaded = CtcModel.load(tmp_path / "model")
        after = [r.paths for r in loaded.predict(feats)]
        assert before == after
        assert params_equal(model.params, loaded.params)
        assert loaded.decode_config == model.decode_config
        assert loaded.optimizer.kind == model.optimizer.kind

    def test_corrupted_magic_names_file(self, tmp_path):
        model = CtcModel.compile(SPEC, seed=11)
        save_model(model, tmp_path / "model")
        weights_path = tmp_path / "model" / "weights.ctcw"
        blob = bytearray(weights_path.read_bytes())
        blob[0] ^= 0xFF
        weights_path.write_bytes(bytes(blob))
        with pytest.raises(ModelLoadError, match="weights.ctcw"):
            load_model(tmp_path / "model")

    def test_version_mismatch_rejected(self, tmp_path):
        model = CtcModel.compile(SPEC, seed=11)
        save_model(model, tmp_path / "model")
        weights_path = tmp_path / "model" / "weights.ctcw"
        blob = bytearray(weights_path.read_bytes())
        blob[4] = 9
        weights_path.write_bytes(bytes(blob))
        with pytest.raises(ModelLoadError, match="version"):
            load_model(tmp_path / "model")

    def test_load_without_weights_reinitializes_from_seed(self, tmp_path):
        model = CtcModel.compile(SPEC, learning_rate=1e-3, seed=12)
        model.fit(small_dataset(4), epochs=1, batch_size=2)
        save_model(model, tmp_path / "model")
        (tmp_path / "model" / "weights.ctcw").unlink()
        loaded = load_model(tmp_path / "model")
        fresh = CtcModel.compile(SPEC, learning_rate=1e-3, seed=12)
        assert params_equal(loaded.params, fresh.params)
        assert not params_equal(loaded.params, model.params)

    def test_missing_directory(self, tmp_path):
        with pytest.raises(ModelLoadError):
            load_model(tmp_path / "nope")

    def test_weights_round_trip_bits(self, tmp_path):
        rng = np.random.default_rng(13)
        params = {
            "a.w": rng.normal(0, 1, (3, 4)),
            "b": rng.normal(0, 1, (5,)),
            "c.deep.tensor": rng.normal(0, 1, (2, 2, 2)),
        }
        path = tmp_path / "w.ctcw"
        write_weights(path, params)
        back = read_weights(path)
        assert back.keys() == params.keys()
        for name in params:
            np.testing.assert_array_equal(back[name], params[name])

    def test_undecodable_tensor_name_is_load_error(self, tmp_path):
        path = tmp_path / "w.ctcw"
        write_weights(path, {"ab": np.zeros(2)})
        blob = bytearray(path.read_bytes())
        blob[14:16] = b"\xff\xfe"  # the name follows the 12-byte header and u16
        path.write_bytes(bytes(blob))
        with pytest.raises(ModelLoadError, match="UTF-8"):
            read_weights(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_tensor_is_load_error(self, tmp_path, bad):
        path = tmp_path / "w.ctcw"
        write_weights(path, {"a": np.array([1.0, bad]), "b": np.zeros(1)})
        with pytest.raises(ModelLoadError, match="tensor a"):
            read_weights(path)

    def test_per_gate_lstm_weights_load_fused(self, tmp_path):
        spec = NetworkSpec(feature_dim=3, num_labels=2, layers=(
            LayerSpec("lstm", 4, True), LayerSpec("rnn", 3, False),
        ))
        model = CtcModel.compile(spec, learning_rate=1e-2, seed=14)
        ds = small_dataset(6)
        model.fit(ds, epochs=1, batch_size=3)
        save_model(model, tmp_path / "model")
        # the twelve-tensor layout: Wx_i, Wh_i, b_i, ..., b_o per direction
        legacy = {}
        for name, value in model.params.items():
            if name.startswith("layer0."):
                for k, gate in enumerate("ifog"):  # column blocks i, f, o, g
                    legacy[name + "_" + gate] = value[..., 4 * k:4 * (k + 1)]
            else:
                legacy[name] = value
        assert len(legacy) == 2 * 12 + 3 + 2
        write_weights(tmp_path / "model" / "weights.ctcw", legacy)
        loaded = load_model(tmp_path / "model")
        assert params_equal(loaded.params, model.params)
        feats = [f for f, _ in ds.sequences]
        for greedy in (True, False):
            before = model.predict(feats, greedy=greedy, beam_width=4, top_paths=2)
            after = loaded.predict(feats, greedy=greedy, beam_width=4, top_paths=2)
            assert [r.paths for r in before] == [r.paths for r in after]

    @pytest.mark.parametrize("gates, keep_fused", [
        ("ifo", False),   # no candidate block
        ("ifog", True),   # a fused Wx as well
    ])
    def test_unfusable_per_gate_tensors_fail_audit(self, tmp_path, gates,
                                                   keep_fused):
        spec = NetworkSpec(
            feature_dim=3, num_labels=2, layers=(LayerSpec("lstm", 2, False),)
        )
        model = CtcModel.compile(spec, seed=15)
        save_model(model, tmp_path / "model")
        params = dict(model.params)
        Wx = params["layer0.fwd.Wx"] if keep_fused \
            else params.pop("layer0.fwd.Wx")
        for k, gate in enumerate(gates):
            params["layer0.fwd.Wx_" + gate] = Wx[:, 2 * k:2 * (k + 1)]
        write_weights(tmp_path / "model" / "weights.ctcw", params)
        with pytest.raises(ModelLoadError, match="Wx_i"):
            load_model(tmp_path / "model")

    def test_audit_failure_on_load(self, tmp_path):
        model = CtcModel.compile(SPEC, seed=11)
        save_model(model, tmp_path / "model")
        wrong = {"output.W": np.zeros((2, 2))}
        write_weights(tmp_path / "model" / "weights.ctcw", wrong)
        with pytest.raises(ModelLoadError):
            load_model(tmp_path / "model")
