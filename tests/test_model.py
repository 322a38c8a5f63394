"""Model facade: training, prediction, evaluation, persistence."""

import builtins
import copy
import itertools
import json
import multiprocessing
import os
import pickle
import re
import select
import signal
import struct
import subprocess
import sys
import textwrap
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctckit import model as model_module
from ctckit import net
from ctckit.data import Dataset, PaddedBatch, generate_synthetic, make_batches
from ctckit.decode import (
    beam_search_decode,
    best_path_decode,
    exact_decode,
    prefix_search_decode,
)
from ctckit.lattice import (
    InfeasibleAlignment,
    ctc_backward,
    ctc_forward,
    ctc_gradient,
    ctc_loss,
    ctc_loss_batch,
    extend_with_blanks,
    make_lattice,
)
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
from ctckit.packing import STEP_BYTES

from oracles import random_feasible_labels

SPEC = NetworkSpec(
    feature_dim=3, num_labels=2, layers=(LayerSpec("rnn", 4, True),)
)


# whether fit may fork a worker for a batch of several activation groups
SPARE_CPU = model_module._can_fork()


def several_groups(monkeypatch, frames=5):
    """Shrink the activation budget of SPEC to ``frames`` frames, so that
    a batch of small_dataset runs in several groups."""
    monkeypatch.setattr(net, "ACTIVATION_BYTES",
                        frames * net.stored_bytes_per_frame(SPEC))


def clone(params):
    return {name: p.copy() for name, p in params.items()}


def small_dataset(n=6, seed=0):
    return generate_synthetic(n, num_labels=2, feature_dim=3,
                              noise_sigma=0.05, seed=seed)


def fail_writing(monkeypatch, name):
    """Make model.py's writes to the file ``name`` fail halfway.

    A write to a file whose name starts with ``name`` (the file itself or
    a temporary file beside it) stores half of its bytes, then raises.
    """
    def open_failing(path, mode="r", *args, **kwargs):
        fh = builtins.open(path, mode, *args, **kwargs)
        if "w" in mode and os.path.basename(path).startswith(name):
            write = fh.write

            def write_half(data):
                write(data[:len(data) // 2])
                raise OSError(28, "No space left on device", path)

            fh.write = write_half
        return fh

    monkeypatch.setattr(model_module, "open", open_failing, raising=False)


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

    @pytest.mark.parametrize("rate", [np.nan, np.inf, -1.0, "1e-3", False])
    def test_bad_learning_rate_rejected(self, rate):
        with pytest.raises(ValueError, match="learning_rate"):
            CtcModel.compile(SPEC, learning_rate=rate)

    @pytest.mark.parametrize("seed", [-1, 1.5, "3", True])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(ValueError, match="^seed must be an integer"):
            CtcModel.compile(SPEC, seed=seed)

    def test_numpy_integer_sizes_save_and_load(self, tmp_path):
        spec = NetworkSpec(np.int64(SPEC.feature_dim), np.int64(SPEC.num_labels),
                           [LayerSpec(layer.kind, np.int64(layer.units),
                                      layer.bidirectional)
                            for layer in SPEC.layers])
        model = CtcModel.compile(spec, seed=np.int64(3), decode=DecodeConfig(
            beam_width=np.int64(4), top_paths=np.int32(2)))
        save_model(model, tmp_path / "model")
        loaded = load_model(tmp_path / "model")
        assert loaded.spec == SPEC and loaded.seed == 3
        assert loaded.decode_config == DecodeConfig(beam_width=4, top_paths=2)
        assert params_equal(loaded.params, CtcModel.compile(SPEC, seed=3).params)

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

    def test_lengths_that_are_not_integers_are_refused(self):
        model = CtcModel.compile(SPEC, seed=2)
        before = clone(model.params)
        (batch,) = make_batches(small_dataset(3), 3)
        batch.input_lengths = batch.input_lengths - 0.5
        with pytest.raises(ValueError, match=r"^sequence 0: input_len must be "
                           r"an integer, got np\.float64\(\d+\.5\)$"):
            model.train_on_batch(batch)
        assert params_equal(model.params, before)
        assert model.optimizer.step == 0

    def test_float_labels_are_refused(self):
        model = CtcModel.compile(SPEC, seed=2)
        before = clone(model.params)
        (batch,) = make_batches(small_dataset(3), 3)
        batch.labels = batch.labels.astype(np.float64)
        with pytest.raises(ValueError, match=r"^sequence 0: label must be an "
                           r"integer, got np\.float64\(\d\.0\)$"):
            model.train_on_batch(batch)
        assert params_equal(model.params, before)

    def test_feature_width_is_the_spec_s(self):
        model = CtcModel.compile(SPEC, seed=2)
        (batch,) = make_batches(generate_synthetic(2, 2, 7, seed=1), 2)
        with pytest.raises(ValueError, match=r"^features must be \(B, T_max, "
                           r"3\), got \(2, \d+, 7\)$"):
            model.train_on_batch(batch)

    @pytest.mark.parametrize("input_lengths", [[2, 2, 2], [2]])
    def test_lengths_must_match_the_batch(self, input_lengths):
        model = CtcModel.compile(SPEC, seed=2)
        before = clone(model.params)
        (batch,) = make_batches(small_dataset(2), 2)
        batch.input_lengths = np.array(input_lengths)
        with pytest.raises(ValueError, match=r"^a padded batch needs .* got "
                           r"shapes \(2, \d+, 3\), \(2, \d+\), \(%d,\), "
                           r"\(2,\)$" % len(input_lengths)):
            model.train_on_batch(batch)
        assert params_equal(model.params, before)

    def test_lengths_may_be_lists(self):
        (batch,) = make_batches(small_dataset(3), 3)
        listed = PaddedBatch(batch.features, batch.labels.tolist(),
                             batch.input_lengths.tolist(),
                             batch.label_lengths.tolist())
        losses = [CtcModel.compile(SPEC, seed=2).train_on_batch(b)
                  for b in (batch, listed)]
        assert losses[0] == losses[1]

    @pytest.mark.parametrize("padding", ["x", 2 ** 70])
    def test_labels_past_label_len_are_not_cast(self, padding):
        (batch,) = make_batches(small_dataset(1), 1)
        padded = PaddedBatch(batch.features, [[batch.labels[0, 0], padding]],
                             batch.input_lengths, [1])
        batch.labels, batch.label_lengths = batch.labels[:, :1], np.array([1])
        models = [CtcModel.compile(SPEC, seed=2) for _ in range(2)]
        assert models[0].train_on_batch(padded) == models[1].train_on_batch(batch)
        assert params_equal(models[0].params, models[1].params)

    def test_empty_batch_is_refused(self):
        model = CtcModel.compile(SPEC, seed=2)
        before = clone(model.params)
        batch = PaddedBatch(np.zeros((0, 4, 3)), np.zeros((0, 2), dtype=np.int64),
                            np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
        with pytest.raises(ValueError, match="^the batch holds no sequence$"):
            model.train_on_batch(batch)
        assert params_equal(model.params, before)
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

    @pytest.mark.parametrize("kwargs, name", [
        ({"epochs": -2}, "epochs"),
        ({"epochs": 1, "clip_norm": -5.0}, "clip_norm"),
        ({"epochs": 1, "clip_norm": 0.0}, "clip_norm"),
        ({"epochs": 1, "clip_norm": np.inf}, "clip_norm"),
        ({"epochs": 2.5}, "epochs"),
        ({"epochs": 1, "batch_size": 2.5}, "batch_size"),
    ])
    def test_bad_epochs_or_clip_norm_rejected_before_a_step(self, kwargs, name):
        model = CtcModel.compile(SPEC, seed=4)
        before = clone(model.params)
        with pytest.raises(ValueError, match=name):
            model.fit(small_dataset(), **kwargs)
        assert params_equal(model.params, before)
        assert model.optimizer.step == 0
        if "clip_norm" in kwargs:
            (batch,) = make_batches(small_dataset(4), 4)
            with pytest.raises(ValueError, match=name):
                model.train_on_batch(batch, clip_norm=kwargs["clip_norm"])
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

    def test_empty_validation_rejected(self):
        # its mean loss would be the NaN of an empty mean
        model = CtcModel.compile(SPEC, seed=4)
        with pytest.raises(ValueError, match="validation dataset is empty"):
            model.fit(small_dataset(2), epochs=1, validation=Dataset(3, 2, []))

    @pytest.mark.parametrize("validation, message", [
        (generate_synthetic(2, num_labels=2, feature_dim=6, seed=1),
         r"^sequence 0: features must be \(T, 3\), got \(\d+, 6\)$"),
        (Dataset(3, 2, [(np.zeros((4, 3)), [0]), (np.zeros((4, 3)), [2])]),
         r"^sequence 1: label indices must lie in \[0, 2\)"),
        (Dataset(3, 2, [(np.zeros((4, 3)), [0]), (np.zeros((4, 3)), [1.9])]),
         r"^sequence 1: label must be an integer, got 1\.9$"),
        (Dataset(3, 2, [(np.zeros((4, 3)), [np.True_]), (np.zeros((4, 3)), [1])]),
         r"^sequence 0: label must be an integer, got np\.True_$"),
    ])
    def test_refused_validation_moves_no_parameter(self, validation, message):
        model = CtcModel.compile(SPEC, seed=4)
        before = clone(model.params)
        with pytest.raises(ValueError, match=message):
            model.fit(small_dataset(4), epochs=1, validation=validation)
        with pytest.raises(ValueError, match=message):
            model.get_loss(validation)
        assert params_equal(model.params, before)
        assert model.optimizer.step == 0

    @pytest.mark.parametrize("label", [0.5, 1.0, "1", True])
    def test_labels_that_are_not_integers_are_refused(self, label):
        model = CtcModel.compile(SPEC, seed=4)
        before = clone(model.params)
        ds = small_dataset(4)
        ds.sequences[2] = (ds.sequences[2][0], [0, label])
        message = "^sequence 2: label must be an integer, got %s$" % re.escape(
            repr(label))
        with pytest.raises(ValueError, match=message):
            model.fit(ds, epochs=1, batch_size=2)
        with pytest.raises(ValueError, match=message):
            make_batches(ds, 2)
        assert params_equal(model.params, before)
        assert model.optimizer.step == 0

    @pytest.mark.parametrize("budget_frames", [None, 5])
    def test_steps_are_train_on_batch_over_make_batches(self, monkeypatch,
                                                        budget_frames):
        """fit, clip and validation included, is a loop of train_on_batch.

        With several groups a batch and a spare CPU, fit shares the
        groups out to a forked worker, so this checks the worker's bits."""
        if budget_frames is not None:  # several groups a batch
            several_groups(monkeypatch, budget_frames)
        forks = []
        fork = model_module._GroupWorker._fork
        monkeypatch.setattr(model_module._GroupWorker, "_fork",
                            lambda worker: forks.append(1) or fork(worker))
        ds, val = small_dataset(10), small_dataset(3, seed=9)
        fitted = CtcModel.compile(SPEC, learning_rate=1e-2, seed=5)
        history = fitted.fit(ds, epochs=3, batch_size=4, shuffle_seed=11,
                             validation=val, clip_norm=0.5)
        assert bool(forks) == (budget_frames is not None and SPARE_CPU)
        assert multiprocessing.active_children() == []
        looped = CtcModel.compile(SPEC, learning_rate=1e-2, seed=5)
        clipped = []
        clip = net.clip_by_global_norm
        monkeypatch.setattr(net, "clip_by_global_norm", lambda grads, norm: (
            clipped.append(net.global_grad_norm(grads) > norm) or clip(grads, norm)))
        for epoch, record in enumerate(history):
            loss_sum = 0.0
            for batch in make_batches(ds, 4, seed=[11, epoch]):
                loss_sum += looped.train_on_batch(batch, clip_norm=0.5) * len(batch)
            assert record.train_loss == loss_sum / len(ds)
            assert record.val_loss == float(np.mean(looped.get_loss(val)))
        assert any(clipped)
        assert looped.optimizer.step == fitted.optimizer.step == 9
        assert params_equal(fitted.params, looped.params)
        assert params_equal(fitted.optimizer.m, looped.optimizer.m)
        assert params_equal(fitted.optimizer.v, looped.optimizer.v)

    @pytest.mark.parametrize("sequence, message", [
        ((np.zeros((2, 3)), [1, 1]), r"need at least 3 frames for 2 labels"),
        ((np.zeros((4, 3)), [0, 1.5]), r"label must be an integer, got 1\.5"),
        ((np.zeros((4, 6)), [0]), r"features must be \(T, 3\), got \(4, 6\)"),
        ((np.zeros((4, 3)), [0, 2]), r"label indices must lie in \[0, 2\)"),
    ])
    def test_refused_training_set_moves_no_parameter(self, sequence, message):
        """The whole set is screened before the first step; the error names
        the sequence once, by its index in the set."""
        model = CtcModel.compile(SPEC, seed=4)
        before = clone(model.params)
        ds = small_dataset(8)
        ds.sequences[5] = sequence
        with pytest.raises((ValueError, InfeasibleAlignment),
                           match="^sequence 5: " + message) as excinfo:
            model.fit(ds, epochs=2, batch_size=3)
        assert str(excinfo.value).count("sequence") == 1
        if excinfo.type is InfeasibleAlignment:
            assert excinfo.value.sequence_index == 5
        assert params_equal(model.params, before)
        assert model.optimizer.step == 0

    @pytest.mark.parametrize("where", ["worker", "parent"])
    def test_group_exception_reaches_the_caller(self, monkeypatch, where):
        """Raised in a worker or in fit's own process, a group's exception
        keeps its type and message, moves no parameter and leaves no
        process behind."""
        if where == "worker" and not SPARE_CPU:
            pytest.skip("fit forks no worker on one usable CPU")
        several_groups(monkeypatch)
        parent, backward = os.getpid(), net.backward_packed

        def failing(*args):
            if (os.getpid() == parent) == (where == "parent"):
                raise FloatingPointError("overflow in the %s" % where)
            return backward(*args)

        monkeypatch.setattr(net, "backward_packed", failing)
        model = CtcModel.compile(SPEC, seed=5)
        before = clone(model.params)
        with pytest.raises(FloatingPointError, match="^overflow in the %s$" % where):
            model.fit(small_dataset(10), epochs=2, batch_size=4)
        assert params_equal(model.params, before)
        assert model.optimizer.step == 0
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("where, first", [("both", 0), ("fit", 1)])
    def test_first_failing_group_is_raised(self, monkeypatch, where, first):
        """Group 0 goes to the worker and group 1, of more frames, to
        fit's own process, which computes it before it reads group 0.
        The error raised is still the first failing group's: group 0's
        where both processes fail, group 1's where only fit's does."""
        if not SPARE_CPU:
            pytest.skip("fit forks no worker on one usable CPU")
        model = CtcModel.compile(SPEC, seed=5)
        rows, starts, lengths, labels, label_lengths = \
            model._screened_set(small_dataset(10))
        i, j, k = np.argsort(-lengths, kind="stable")[:3]
        assert lengths[j] + lengths[k] > lengths[i]
        members = [np.array([i]), np.array([j, k])]

        def failing(spec, params, screened, index):
            raise FloatingPointError("overflow in sequences %s" % index.tolist())

        worker = model_module._GroupWorker(
            SPEC, (rows, starts, lengths, labels, label_lengths))
        with worker:
            if where == "both":  # the fork inherits the patch
                monkeypatch.setattr(model_module, "_group_gradients", failing)
            assert worker.running()
            monkeypatch.setattr(model_module, "_group_gradients", failing)
            with pytest.raises(FloatingPointError, match=r"^overflow in sequences %s$"
                               % re.escape(str(members[first].tolist()))):
                list(worker.gradients(model.params, members))
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("files, quota", [
        ({"unified/cpu.max": "max 100000\n"}, None),
        ({"unified/cpu.max": "150000 100000\n"}, 1.5),
        ({"cpu/cpu.cfs_quota_us": "-1\n", "cpu/cpu.cfs_period_us": "100000\n"}, None),
        ({"cpu/cpu.cfs_quota_us": "200000\n", "cpu/cpu.cfs_period_us": "100000\n"},
         2.0),
        ({"unified/cpu.max": "garbled\n"}, None),
        ({}, None),
        # the process's own cgroup is /a/b in both versions
        ({"unified/a/b/cpu.max": "50000 100000\n", "unified/cpu.max": "max 100000\n"},
         0.5),
        ({"cpu/a/b/cpu.cfs_quota_us": "250000\n",
          "cpu/a/b/cpu.cfs_period_us": "100000\n"}, 2.5),
        ({"unified/a/cpu.max": "300000 100000\n", "unified/a/b/cpu.max": "max 100000\n"},
         3.0),
        ({"unified/a/cpu.max": "300000 100000\n",
          "unified/a/b/cpu.max": "400000 100000\n"}, 3.0),
        ({"unified/a/b/cpu.max": "max 100000\n", "unified/a/cpu.max": "max 100000\n",
          "unified/cpu.max": "max 100000\n"}, None),
        ({"unified/a/c/cpu.max": "50000 100000\n"}, None),
    ])
    def test_cpu_quota_is_read_from_either_cgroup_version(self, monkeypatch,
                                                          tmp_path, files, quota):
        """The smallest quota set on the process's own cgroup, named by
        /proc/self/cgroup, or on one above it up to the mount root."""
        for name, text in files.items():
            (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / name).write_text(text)
        (tmp_path / "cgroup").write_text(
            "3:cpu,cpuacct:/a/b\n2:name=systemd:/\n1:memory:/x\n0::/a/b\n")
        monkeypatch.setattr(model_module, "_PROC_CGROUP", str(tmp_path / "cgroup"))
        monkeypatch.setattr(model_module, "_CPU_QUOTA_FILES", (
            ("", str(tmp_path / "unified"), ("cpu.max",)),
            ("cpu", str(tmp_path / "cpu"), ("cpu.cfs_quota_us", "cpu.cfs_period_us")),
        ))
        assert model_module._cpu_quota() == quota

    def test_a_quota_under_two_cpus_forks_no_worker(self, monkeypatch):
        several_groups(monkeypatch)
        monkeypatch.setattr(model_module, "_cpu_quota", lambda: 1.5)
        forks = []
        monkeypatch.setattr(model_module._GroupWorker, "_fork",
                            lambda worker: forks.append(1))
        CtcModel.compile(SPEC, seed=5).fit(small_dataset(10), epochs=1, batch_size=4)
        assert forks == []

    def test_importing_ctckit_loads_no_multiprocessing(self):
        """Only a fit that forks a worker imports multiprocessing."""
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, ctckit; "
             "print(sorted({'multiprocessing', 'signal'} & set(sys.modules)))"],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True,
            text=True, timeout=60, check=True,
        )
        assert proc.stdout == "[]\n"

    def test_a_failed_fork_leaves_fit_to_one_process(self, monkeypatch):
        several_groups(monkeypatch)
        ds = small_dataset(10)
        serial = CtcModel.compile(SPEC, seed=5)
        with monkeypatch.context() as patch:
            patch.setattr(model_module, "_can_fork", lambda: False)
            expected = serial.fit(ds, epochs=2, batch_size=4)

        def no_fork(process):
            raise OSError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(multiprocessing.get_context("fork").Process,
                            "start", no_fork)
        model = CtcModel.compile(SPEC, seed=5)
        history = model.fit(ds, epochs=2, batch_size=4)
        assert [h.train_loss for h in history] == [h.train_loss for h in expected]
        assert params_equal(model.params, serial.params)
        assert multiprocessing.active_children() == []

    def test_a_second_thread_forks_no_worker(self, monkeypatch):
        """A fork copies only the calling thread, so a lock another thread
        holds would stay held in the worker: fit then runs in one process."""
        several_groups(monkeypatch)
        ds = small_dataset(10)
        serial = CtcModel.compile(SPEC, seed=5)
        with monkeypatch.context() as patch:
            patch.setattr(model_module, "_can_fork", lambda: False)
            expected = serial.fit(ds, epochs=2, batch_size=4)
        forks = []
        monkeypatch.setattr(model_module._GroupWorker, "_fork",
                            lambda worker: forks.append(1))
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            model = CtcModel.compile(SPEC, seed=5)
            history = model.fit(ds, epochs=2, batch_size=4)
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert forks == []
        assert [h.train_loss for h in history] == [h.train_loss for h in expected]
        assert params_equal(model.params, serial.params)

    def test_unpicklable_worker_exception_is_a_worker_error(self, monkeypatch):
        """An exception raised in the worker that does not survive a pickle
        reaches the caller as a WorkerError naming its class and message."""
        if not SPARE_CPU:
            pytest.skip("fit forks no worker on one usable CPU")

        class Unpicklable(Exception):
            pass

        several_groups(monkeypatch)
        parent, backward = os.getpid(), net.backward_packed

        def failing(*args):
            if os.getpid() != parent:
                raise Unpicklable("overflow in the worker")
            return backward(*args)

        monkeypatch.setattr(net, "backward_packed", failing)
        model = CtcModel.compile(SPEC, seed=5)
        before = clone(model.params)
        with pytest.raises(model_module.WorkerError,
                           match="^Unpicklable: overflow in the worker$"):
            model.fit(small_dataset(10), epochs=2, batch_size=4)
        assert params_equal(model.params, before)
        assert model.optimizer.step == 0
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("die, how", [
        (lambda: os._exit(7), "exited with code 7"),
        (lambda: os.kill(os.getpid(), signal.SIGKILL),
         "was killed by signal %d" % signal.SIGKILL),
    ], ids=["exit-code", "signal"])
    def test_a_worker_that_dies_is_named(self, monkeypatch, die, how):
        """A worker that dies mid-batch is joined, and fit raises a
        WorkerError naming its exit code or signal, not an EOFError."""
        if not SPARE_CPU:
            pytest.skip("fit forks no worker on one usable CPU")
        several_groups(monkeypatch)
        parent, group_gradients = os.getpid(), model_module._group_gradients

        def dying(*args):
            if os.getpid() != parent:
                die()
            return group_gradients(*args)

        monkeypatch.setattr(model_module, "_group_gradients", dying)
        model = CtcModel.compile(SPEC, seed=5)
        before = clone(model.params)
        with pytest.raises(model_module.WorkerError,
                           match="^fit's worker process %s$" % how):
            model.fit(small_dataset(10), epochs=2, batch_size=4)
        assert params_equal(model.params, before)
        assert model.optimizer.step == 0
        assert multiprocessing.active_children() == []

    def test_a_worker_dead_before_a_batch_is_named(self, monkeypatch):
        """The send of the next batch to a dead worker raises the same
        WorkerError, not a BrokenPipeError."""
        if not SPARE_CPU:
            pytest.skip("fit forks no worker on one usable CPU")
        several_groups(monkeypatch)
        workers, fork = [], model_module._GroupWorker._fork
        monkeypatch.setattr(model_module._GroupWorker, "_fork",
                            lambda worker: workers.append(worker) or fork(worker))
        step = CtcModel._step

        def killing(model, *args):
            loss = step(model, *args)
            if model.optimizer.step == 1:
                process = workers[0].process
                os.kill(process.pid, signal.SIGKILL)
                process.join(timeout=10)
                assert process.exitcode == -signal.SIGKILL
            return loss

        monkeypatch.setattr(CtcModel, "_step", killing)
        model = CtcModel.compile(SPEC, seed=5)
        with pytest.raises(model_module.WorkerError,
                           match="^fit's worker process was "
                           "killed by signal %d$" % signal.SIGKILL):
            model.fit(small_dataset(10), epochs=2, batch_size=4)
        assert model.optimizer.step == 1
        assert multiprocessing.active_children() == []

    def test_killing_fit_s_process_ends_its_worker(self):
        """A worker whose parent dies sees the end of its pipe and exits."""
        if not SPARE_CPU:
            pytest.skip("fit forks no worker on one usable CPU")
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        script = textwrap.dedent("""
            from ctckit import model, net
            from ctckit.data import generate_synthetic
            spec = net.NetworkSpec(feature_dim=3, num_labels=2,
                                   layers=(net.LayerSpec("rnn", 4, True),))
            net.ACTIVATION_BYTES = 5 * net.stored_bytes_per_frame(spec)
            fork = model._GroupWorker._fork

            def announcing(worker):
                fork(worker)
                print(worker.process.pid, flush=True)

            model._GroupWorker._fork = announcing
            ds = generate_synthetic(10, num_labels=2, feature_dim=3,
                                    noise_sigma=0.05, seed=0)
            model.CtcModel.compile(spec, seed=5).fit(ds, epochs=10**9,
                                                     batch_size=4)
        """)
        with subprocess.Popen([sys.executable, "-c", script],
                              env=dict(os.environ, PYTHONPATH=src),
                              stdout=subprocess.PIPE, text=True) as proc:
            try:
                ready, _, _ = select.select([proc.stdout], [], [], 60)
                line = proc.stdout.readline() if ready else ""
            finally:
                proc.kill()  # SIGKILL; leaving the block waits for it
        assert line.strip().isdigit(), "no worker pid: %r" % line
        worker = int(line)

        def running():  # a zombie has exited
            try:
                with open("/proc/%d/stat" % worker) as fh:
                    return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
            except FileNotFoundError:
                return False

        deadline = time.monotonic() + 10
        while running():
            if time.monotonic() > deadline:
                os.kill(worker, signal.SIGKILL)
                pytest.fail("worker %d outlived its parent by 10 s" % worker)
            time.sleep(0.05)

    def test_non_finite_gradient_names_its_epoch_and_batch(self, monkeypatch):
        calls, backward = [], net.backward_packed

        def poisoned(*args):
            grads = backward(*args)
            calls.append(1)
            if len(calls) == 5:  # epoch 1, batch 1: three batches an epoch
                grads["output.b"][0] = np.nan
            return grads

        monkeypatch.setattr(net, "backward_packed", poisoned)
        model = CtcModel.compile(SPEC, seed=5)
        with pytest.raises(net.NonFiniteGradient, match=r"^epoch 1, batch 1: "
                           r"non-finite gradient in tensor output\.b$"):
            model.fit(small_dataset(10), epochs=2, batch_size=4)
        assert model.optimizer.step == 4

    def test_a_nan_gradient_is_named_with_clip_norm(self, monkeypatch):
        """Clipping leaves a NaN gradient where it is: the step names the
        tensor that holds it, as it does without ``clip_norm``."""
        backward = net.backward_packed

        def poisoned(*args):
            grads = backward(*args)
            grads["output.b"][0] = np.nan
            return grads

        monkeypatch.setattr(net, "backward_packed", poisoned)
        model = CtcModel.compile(SPEC, seed=5)
        with pytest.raises(net.NonFiniteGradient, match=r"^epoch 0, batch 0: "
                           r"non-finite gradient in tensor output\.b$"):
            model.fit(small_dataset(10), epochs=1, batch_size=4, clip_norm=5.0)
        assert model.optimizer.step == 0

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
        assert model.get_probas([]) == []
        assert model.get_loss(Dataset(3, 2, [])) == []

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

    @pytest.mark.parametrize("name, value", [
        ("beam_width", 2.5), ("beam_width", True), ("top_paths", 1.5)])
    def test_beam_sizes_must_be_integers(self, name, value):
        model = CtcModel.compile(SPEC, seed=6)
        with pytest.raises(ValueError, match="^%s must be an integer" % name):
            model.predict([np.zeros((4, 3))], greedy=False, **{name: value})

    def test_input_lengths_count_must_match(self):
        model = CtcModel.compile(SPEC, seed=6)
        f = np.zeros((4, 3))
        with pytest.raises(ValueError,
                           match=r"^1 input_lengths given for 2 sequences$"):
            model.predict([f, f], input_lengths=[3])

    @pytest.mark.parametrize("features, input_len, message", [
        (np.zeros((4, 2)), None, r"features must be \(T, 3\), got \(4, 2\)"),
        (np.zeros((0, 3)), None, r"input_len 0 outside \[1, 0\]"),
        (np.zeros((4, 3)), 5, r"input_len 5 outside \[1, 4\]"),
        (np.zeros((4, 3)), 0, r"input_len 0 outside \[1, 4\]"),
        (np.zeros((4, 3)), 2.7, r"input_len must be an integer, got 2\.7$"),
        (np.zeros((4, 3)), np.float64(3.0),
         r"input_len must be an integer, got np\.float64\(3\.0\)$"),
    ])
    def test_input_errors_name_the_sequence(self, features, input_len, message):
        model = CtcModel.compile(SPEC, seed=6)
        sequences = [np.zeros((3, 3)), features]
        message = "^sequence 1: " + message
        if input_len is None:
            with pytest.raises(ValueError, match=message):
                model.predict(sequences)
            with pytest.raises(ValueError, match=message):
                model.get_probas(sequences)
        else:
            with pytest.raises(ValueError, match=message):
                model.predict(sequences, input_lengths=[3, input_len])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_bad_posteriors_name_the_first_sequence_in_input_order(
            self, monkeypatch, bad):
        """One screen per group: the error is that of the sequence alone.

        Sequences 0 and 2 get a bad row; the packing runs sequence 2
        first, yet the error names sequence 0, as in input order. The
        posteriors are ``exp`` of the log-softmax, which cannot give a
        negative entry; ``ctc_loss_batch`` tests that rule.
        """
        model = CtcModel.compile(SPEC, seed=6)
        features = [np.zeros((4, 3)), np.zeros((2, 3)), np.zeros((6, 3))]
        lengths = np.array([4, 2, 6])
        index = np.argsort(-lengths, kind="stable")
        packing = model_module.Packing(lengths[index])
        rows = [packing.rows(int(np.flatnonzero(index == i)[0]))
                for i in range(3)]
        log_softmax_rows = net.log_softmax_rows

        def spoiled(z):
            log_probs = log_softmax_rows(z)
            log_probs[rows[0][3], 1] = bad
            log_probs[rows[2][1], 0] = bad
            return log_probs

        monkeypatch.setattr(net, "log_softmax_rows", spoiled)
        message = ("^sequence 0: posterior row 3 has a NaN, infinite or "
                   "negative entry$")
        for greedy in (True, False):
            with pytest.raises(ValueError, match=message):
                model.predict(features, greedy=greedy, beam_width=4)
        with pytest.raises(ValueError, match=message):
            model.get_probas(features)

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

    def test_beam_options_alone_ask_for_beam_search(self):
        feats = [f for f, _ in small_dataset(3).sequences]
        model = CtcModel.compile(SPEC, seed=6)  # greedy by default
        beam = model.predict(feats, greedy=False, beam_width=8, top_paths=2)
        assert all(len(r.paths) == 2 for r in beam)
        assert model.predict(feats, beam_width=8, top_paths=2) == beam
        assert model.predict(feats, top_paths=2) == model.predict(
            feats, greedy=False, beam_width=100, top_paths=2)
        assert model.predict(feats, greedy=True, beam_width=8) == \
            model.predict(feats)

    @pytest.mark.parametrize("overrides, message", [
        ({"greedy": True, "beam_width": -3, "top_paths": "x"},
         r"^beam_width must be an integer in \[1, 2\*\*63\), got -3$"),
        ({"greedy": True, "top_paths": "x"},
         r"^top_paths must be an integer, got 'x'$"),
        ({"greedy": "no"}, r"^greedy must be true or false, got 'no'$"),
        ({"top_paths": 101}, r"^top_paths 101 exceeds beam_width 100$"),
    ])
    def test_overrides_pass_the_decode_config_rules(self, overrides, message):
        model = CtcModel.compile(SPEC, seed=6)
        with pytest.raises(ValueError, match=message):
            model.predict([np.zeros((4, 3))], **overrides)

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

    @pytest.mark.parametrize("metrics", [("loss",), ("ler",), ("ser",)])
    def test_empty_dataset_rejected(self, metrics):
        model = CtcModel.compile(SPEC, seed=7)
        with pytest.raises(ValueError, match="evaluation dataset is empty"):
            model.evaluate(Dataset(3, 2, []), metrics=metrics)

    @pytest.mark.parametrize("labels, message", [
        ([1.9], r"label must be an integer, got 1\.9"),
        ([7], r"label indices must lie in \[0, 2\); got \[7\]"),
        ([2 ** 70], r"label must be an integer in .*, got %d" % 2 ** 70),
    ])
    @pytest.mark.parametrize("metrics", [("ler",), ("ser",), ("ler", "ser"),
                                         ("loss",)])
    def test_labels_are_screened_whatever_the_metrics(self, monkeypatch, labels,
                                                      message, metrics):
        model = CtcModel.compile(SPEC, seed=6)
        ds = Dataset(3, 2, [(np.zeros((4, 3)), [0]), (np.zeros((4, 3)), labels)])
        forwards = []
        forward_packed = net.forward_packed
        monkeypatch.setattr(net, "forward_packed", lambda *args, **kwargs: (
            forwards.append(1) or forward_packed(*args, **kwargs)))
        message = "^sequence 1: " + message
        with pytest.raises(ValueError, match=message):
            model.evaluate(ds, metrics=metrics)
        with pytest.raises(ValueError, match=message):
            model.get_loss(ds)
        assert not forwards

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


class TestForwardOnlyGroups:
    def test_inference_runs_forward_only_groups_training_keeps_its_own(
        self, monkeypatch
    ):
        spec = TestBatchGradients.MIXED
        # beside the bookkeeping of 9 steps, 20 frames a training group
        # and 26 a forward-only one
        monkeypatch.setattr(net, "ACTIVATION_BYTES",
                            20 * net.stored_bytes_per_frame(spec) + 9 * STEP_BYTES)
        assert (net.ACTIVATION_BYTES - 9 * STEP_BYTES) \
            // net.stored_bytes_per_frame(spec, False) == 26
        calls = []
        engine = net.forward_packed

        def recording(spec, params, packing, frames, for_backward=True):
            calls.append((packing.lengths.tolist(), for_backward))
            return engine(spec, params, packing, frames, for_backward)

        monkeypatch.setattr(net, "forward_packed", recording)
        rng = np.random.default_rng(8)
        batch = TestBatchGradients().ragged_batch(rng, [9, 8, 7])
        features = [batch.features[i, :t] for i, t in enumerate([9, 8, 7])]
        model = CtcModel.compile(spec, seed=3)
        probas = model.get_probas(features)
        assert calls == [([9, 8, 7], False)]
        calls.clear()
        model.train_on_batch(batch)
        assert calls == [([9, 8], True), ([7], True)]
        assert [p.shape[0] for p in probas] == [9, 8, 7]


class TestBatchIndependence:
    """A sequence's outputs are the same bits alone and inside any batch.

    Alone means ``forward``, the training loss of its logits
    (``ctc_gradient``) and the decoders on that one sequence; in a batch, the facade's packed groups. The budget is cut
    to a few frames so that batches split into several groups.
    """

    @classmethod
    def check(cls, spec, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        frames = data.draw(st.lists(st.integers(1, 9), min_size=1, max_size=7))
        input_lengths = [data.draw(st.integers(1, t)) for t in frames]
        budget = data.draw(st.integers(1, 30))
        model = CtcModel.compile(spec, seed=data.draw(st.integers(0, 99)))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(net, "ACTIVATION_BYTES",
                          budget * net.stored_bytes_per_frame(spec))
            cls.compare(model, rng, frames, input_lengths)

    @staticmethod
    def compare(model, rng, frames, input_lengths):
        """Each sequence's outputs in the facade's groups against its own."""
        spec = model.spec
        features = [rng.normal(0, 1, (t, spec.feature_dim)) for t in frames]
        labels = [random_feasible_labels(rng, t, spec.num_classes, 3) for t in frames]
        probas = model.get_probas(features)
        losses = model.get_loss(Dataset(spec.feature_dim, spec.num_labels,
                                        list(zip(features, labels))))
        greedy = model.predict(features, input_lengths, greedy=True)
        beam = model.predict(features, input_lengths, greedy=False,
                             beam_width=4, top_paths=2)
        for i, til in enumerate(input_lengths):
            probs, cache = forward(spec, model.params, features[i])
            assert np.array_equal(probas[i], probs)
            assert losses[i] == ctc_gradient(cache.logits, labels[i])[0]
            probs, _ = forward(spec, model.params, features[i], input_len=til)
            assert greedy[i].paths == best_path_decode(probs, input_len=til).paths
            assert beam[i].paths == beam_search_decode(
                probs, input_len=til, beam_width=4, top_paths=2).paths

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_posteriors_losses_and_decodes(self, data):
        self.check(TestBatchGradients.MIXED, data)

    # each has a W of 16 inputs or more whose width is not a multiple of
    # eight, which the engine runs padded: the output layer for 3, 2 and
    # 9 classes, the input projection of a tanh-RNN of 3 and of 10 units
    PADDED = {
        "3-classes": NetworkSpec(feature_dim=20, num_labels=2,
                                 layers=(LayerSpec("rnn", 16, True),)),
        "2-classes": NetworkSpec(feature_dim=5, num_labels=1,
                                 layers=(LayerSpec("lstm", 32, True),)),
        "9-classes": NetworkSpec(feature_dim=20, num_labels=8,
                                 layers=(LayerSpec("rnn", 16, True),)),
        "3-units": NetworkSpec(feature_dim=20, num_labels=3,
                               layers=(LayerSpec("rnn", 3, True),)),
        "10-units": NetworkSpec(feature_dim=20, num_labels=7,
                                layers=(LayerSpec("rnn", 10, True),)),
    }

    @pytest.mark.parametrize("name", sorted(PADDED))
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_padded_products(self, name, data):
        self.check(self.PADDED[name], data)

    # a bidirectional layer of 200 units feeds the output layer 400
    # inputs, more than one BLAS call takes (net.PRODUCT_INPUTS)
    WIDE = NetworkSpec(feature_dim=4, num_labels=3,
                       layers=(LayerSpec("rnn", 200, True),))

    def test_an_output_layer_past_384_inputs(self):
        """Five sequences of 150-190 frames share one group: a product
        of 850 rows, where the kernel splits 400 inputs otherwise than
        for one sequence's rows."""
        frames = [190, 180, 170, 160, 150]
        assert len(net.activation_groups(self.WIDE, frames, False)) == 1
        rng = np.random.default_rng(5)
        input_lengths = [t - 3 for t in frames]
        self.compare(CtcModel.compile(self.WIDE, seed=2), rng, frames,
                     input_lengths)


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


class TestOneLoss:
    """Every loss the facade reports is the training loss of the logits."""

    @staticmethod
    def far_apart_model():
        # every frame's logits are (0, 0, 800): a softmax taken in
        # probability space underflows both labels to 0
        model = CtcModel.compile(SPEC, learning_rate=0.0, optimizer="sgd",
                                 seed=5)
        model.params["output.W"][...] = 0.0
        model.params["output.b"][...] = [0.0, 0.0, 800.0]
        return model

    def test_far_apart_logits_give_the_training_loss(self):
        model = self.far_apart_model()
        ds = small_dataset(4)
        trained = [model.train_on_batch(make_batches(Dataset(3, 2, [seq]), 1)[0])
                   for seq in ds.sequences]
        assert np.isfinite(trained).all() and min(trained) > 700
        losses = model.get_loss(ds)
        assert losses == trained
        mean = float(np.mean(losses))
        assert model.evaluate(ds, metrics=("loss",)).loss == mean
        (record,) = model.fit(ds, epochs=1, batch_size=4, validation=ds)
        assert record.val_loss == mean
        assert record.train_loss == pytest.approx(mean, rel=1e-15)


class TestGetters:
    def test_get_loss_singleton_and_order(self):
        model = CtcModel.compile(SPEC, seed=10)
        ds = small_dataset(1)
        assert len(model.get_loss(ds)) == 1
        ds5 = small_dataset(5)
        losses = model.get_loss(ds5)
        for i, (features, labels) in enumerate(ds5.sequences):
            _, cache = forward(SPEC, model.params, features)
            assert losses[i] == ctc_gradient(cache.logits, labels)[0]

    def test_loss_errors_name_the_sequence(self):
        model = CtcModel.compile(SPEC, seed=10)
        ds = small_dataset(3)
        ds.sequences[1] = (ds.sequences[1][0], [0, 2])  # 2 is the blank
        message = r"^sequence 1: label indices must lie in \[0, 2\)"
        with pytest.raises(ValueError, match=message):
            model.get_loss(ds)
        with pytest.raises(ValueError, match=message):
            model.evaluate(ds, metrics=("loss",))

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


class TestOnePosteriorScreen:
    """Every function that takes posteriors refuses the same bad matrix in
    the same words, with ``sequence i:`` before them where a batch holds
    it. The facade's posteriors are the ``exp`` of ``net.log_softmax_rows``,
    spoiled here to give the bad matrix; they cannot hold a negative
    entry, so the facade is not given one."""

    ALONE = {
        "ctc_loss": lambda p: ctc_loss(p, [0]),
        "make_lattice": lambda p: make_lattice(p, [0]),
        "ctc_forward": lambda p: ctc_forward(p, extend_with_blanks([0], 2), 4),
        "ctc_backward": lambda p: ctc_backward(p, extend_with_blanks([0], 2), 4),
        "exact_decode": exact_decode,
        "best_path_decode": best_path_decode,
        "beam_search_decode": lambda p: beam_search_decode(p, beam_width=4),
        "prefix_search_decode": prefix_search_decode,
    }
    # sequence 0 has uniform posteriors and sequence 1 the bad matrix
    FACADE = {
        "predict_greedy": lambda model, data: model.predict(
            [f for f, _ in data.sequences]),
        "predict_beam": lambda model, data: model.predict(
            [f for f, _ in data.sequences], greedy=False, beam_width=4),
        "get_loss": lambda model, data: model.get_loss(data),
        "get_probas": lambda model, data: model.get_probas(data),
        "evaluate": lambda model, data: model.evaluate(data),
    }
    CASES = (list(itertools.product(sorted(ALONE) + ["ctc_loss_batch"],
                                    [np.nan, np.inf, -0.25, 0.9, 1.1]))
             + list(itertools.product(sorted(FACADE), [np.nan, np.inf, 0.9, 1.1])))

    @pytest.mark.parametrize("entry, kind", CASES)
    def test_same_words_from_every_entry_point(self, monkeypatch, entry, kind):
        bad = np.full((4, 3), 1.0 / 3.0)
        if kind in (0.9, 1.1):
            bad[2:] *= kind
            message = "posterior row 2 sums to %.9f, not 1 within 1e-6" % kind
        else:
            bad[2, 1] = bad[3, 0] = kind
            message = "posterior row 2 has a NaN, infinite or negative entry"
        if entry in self.ALONE:
            with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
                self.ALONE[entry](bad)
            return
        message = "^sequence 1: %s$" % re.escape(message)
        if entry == "ctc_loss_batch":
            batch = PaddedBatch(np.stack([np.full((4, 3), 1.0 / 3.0), bad]),
                                np.array([[0], [0]]), np.array([4, 4]),
                                np.array([1, 1]))
            with pytest.raises(ValueError, match=message):
                ctc_loss_batch(batch)
            return
        rows = model_module.Packing([4, 4]).rows(1)
        log_softmax_rows = net.log_softmax_rows

        def spoiled(z):
            log_probs = log_softmax_rows(z)
            with np.errstate(invalid="ignore"):
                log_probs[rows] = np.log(bad)
            return log_probs

        monkeypatch.setattr(net, "log_softmax_rows", spoiled)
        model = CtcModel.compile(SPEC, seed=6)
        data = Dataset(3, 2, [(np.zeros((4, 3)), [0])] * 2)
        with pytest.raises(ValueError, match=message):
            self.FACADE[entry](model, data)


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

    @pytest.mark.parametrize("name", ["architecture.json", "hyperparams.json",
                                      "weights.ctcw"])
    def test_failed_save_leaves_the_old_model(self, tmp_path, monkeypatch, name):
        model = CtcModel.compile(SPEC, learning_rate=1e-2, seed=11)
        ds = small_dataset(6)
        feats = [f for f, _ in ds.sequences]
        directory = tmp_path / "model"
        save_model(model, directory)
        old = {f: (directory / f).read_bytes() for f in os.listdir(directory)}
        before = [r.paths for r in load_model(directory).predict(feats)]
        model.fit(ds, epochs=1, batch_size=3)  # new weights to save
        fail_writing(monkeypatch, name)
        with pytest.raises(OSError, match="No space left"):
            save_model(model, directory)
        monkeypatch.undo()
        assert sorted(os.listdir(directory)) == sorted(old)
        assert (directory / name).read_bytes() == old[name]
        assert [r.paths for r in load_model(directory).predict(feats)] == before

    def test_failed_checkpoint_leaves_the_old_one(self, tmp_path, monkeypatch):
        model = CtcModel.compile(SPEC, learning_rate=1e-2, seed=4)
        ds = small_dataset(4)
        model.fit(ds, epochs=1, batch_size=2, checkpoint_dir=str(tmp_path))
        old = (tmp_path / "weights.epoch1.ctcw").read_bytes()
        fail_writing(monkeypatch, "weights.epoch1.ctcw")
        with pytest.raises(OSError, match="No space left"):
            model.fit(ds, epochs=1, batch_size=2, checkpoint_dir=str(tmp_path))
        assert os.listdir(tmp_path) == ["weights.epoch1.ctcw"]
        assert (tmp_path / "weights.epoch1.ctcw").read_bytes() == old

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

    def test_architecture_too_large_to_allocate_is_load_error(self, tmp_path):
        # 142 PiB of parameters: more than any address space, so the
        # allocation fails at once
        save_model(CtcModel.compile(SPEC, seed=11), tmp_path / "model")
        (tmp_path / "model" / "weights.ctcw").unlink()
        (tmp_path / "model" / "architecture.json").write_text(json.dumps({
            "feature_dim": 3, "num_labels": 2, "layers": [
                {"kind": "rnn", "units": 100000000, "bidirectional": True}]}))
        with pytest.raises(ModelLoadError,
                           match=r"architecture\.json: Unable to allocate"):
            load_model(tmp_path / "model")

    def test_weights_named_by_the_caller_are_loaded(self, tmp_path):
        """weights= loads fit's checkpoints, by a name relative to the
        model directory or by an absolute path."""
        directory = tmp_path / "model"
        model = CtcModel.compile(SPEC, learning_rate=1e-2, seed=4)
        save_model(model, directory)
        model.fit(small_dataset(4), epochs=2, batch_size=2,
                  checkpoint_dir=str(directory))
        epoch1 = read_weights(directory / "weights.epoch1.ctcw")
        assert not params_equal(epoch1, model.params)
        loaded = load_model(directory, weights="weights.epoch1.ctcw")
        assert params_equal(loaded.params, epoch1)
        elsewhere = tmp_path / "elsewhere.ctcw"
        write_weights(elsewhere, model.params)
        loaded = load_model(directory, weights=str(elsewhere))
        assert params_equal(loaded.params, model.params)
        missing = os.path.join(directory, "weights.epoch3.ctcw")
        with pytest.raises(ModelLoadError,
                           match="^%s: missing$" % re.escape(missing)):
            load_model(directory, weights="weights.epoch3.ctcw")

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

    # the header and the record of a (u16, "a", u8, u32, two values) take
    # 36 bytes: a cut there or one byte on splits b's name length
    @pytest.mark.parametrize("edit, message", [
        (lambda blob: blob[:36], "truncated tensor record"),
        (lambda blob: blob[:37], "truncated tensor record"),
        (lambda blob: blob + bytes(3), "3 trailing bytes"),
    ], ids=["no-name-length", "half-a-name-length", "trailing-bytes"])
    def test_cut_or_extended_file_is_load_error(self, tmp_path, edit, message):
        path = tmp_path / "w.ctcw"
        write_weights(path, {"a": np.zeros(2), "b": np.zeros(1)})
        path.write_bytes(edit(path.read_bytes()))
        with pytest.raises(ModelLoadError, match=r"w\.ctcw: %s$" % message):
            read_weights(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_tensor_is_load_error(self, tmp_path, bad):
        path = tmp_path / "w.ctcw"
        write_weights(path, {"a": np.array([1.0, bad]), "b": np.zeros(1)})
        with pytest.raises(ModelLoadError, match="tensor a"):
            read_weights(path)

    def test_duplicate_tensor_is_load_error(self, tmp_path):
        path = tmp_path / "w.ctcw"
        records = []
        for value in (0.0, 1.0):
            write_weights(path, {"output.b": np.full(3, value)})
            records.append(path.read_bytes()[12:])
        path.write_bytes(b"CTCW" + struct.pack("<II", 1, 2) + b"".join(records))
        with pytest.raises(ModelLoadError, match="tensor output.b is stored twice"):
            read_weights(path)

    def test_per_gate_lstm_weights_are_refused(self, tmp_path):
        spec = NetworkSpec(feature_dim=3, num_labels=2, layers=(
            LayerSpec("lstm", 4, True), LayerSpec("rnn", 3, False),
        ))
        model = CtcModel.compile(spec, seed=14)
        save_model(model, tmp_path / "model")
        # the older twelve-tensor layout: Wx_i, Wh_i, b_i, ..., b_o per
        # direction, which no code writes
        per_gate = {}
        for name, value in model.params.items():
            if name.startswith("layer0."):
                for k, gate in enumerate("ifog"):  # column blocks i, f, o, g
                    per_gate[name + "_" + gate] = value[..., 4 * k:4 * (k + 1)]
            else:
                per_gate[name] = value
        assert len(per_gate) == 2 * 12 + 3 + 2
        path = tmp_path / "model" / "weights.ctcw"
        write_weights(path, per_gate)
        with pytest.raises(ModelLoadError) as err:
            load_model(tmp_path / "model")
        message = str(err.value)
        assert message.startswith(str(path) + ": tensor set mismatch")
        missing, unexpected = message.split("unexpected")
        assert "'layer0.fwd.Wx'" in missing and "'layer0.bwd.b'" in missing
        assert "'layer0.fwd.Wx_i'" in unexpected
        assert "'layer0.bwd.b_o'" in unexpected
        # fused as the README says: each tensor's blocks along the last axis
        fused = {name: np.concatenate([per_gate[name + "_" + gate]
                                       for gate in "ifog"], axis=-1)
                 if name.startswith("layer0.") else per_gate[name]
                 for name in model.params}
        write_weights(path, fused)
        assert params_equal(load_model(tmp_path / "model").params, model.params)

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

    def test_per_gate_tensors_of_mismatched_shapes_fail_load(self, tmp_path):
        spec = NetworkSpec(
            feature_dim=3, num_labels=2, layers=(LayerSpec("lstm", 2, False),)
        )
        save_model(CtcModel.compile(spec, seed=15), tmp_path / "model")
        params = dict(CtcModel.compile(spec, seed=15).params)
        params.pop("layer0.fwd.Wx")
        for gate, rows in zip("ifog", (3, 4, 3, 3)):
            params["layer0.fwd.Wx_" + gate] = np.zeros((rows, 2))
        write_weights(tmp_path / "model" / "weights.ctcw", params)
        with pytest.raises(ModelLoadError, match="weights.ctcw"):
            load_model(tmp_path / "model")

    def test_audit_failure_on_load(self, tmp_path):
        model = CtcModel.compile(SPEC, seed=11)
        save_model(model, tmp_path / "model")
        wrong = {"output.W": np.zeros((2, 2))}
        write_weights(tmp_path / "model" / "weights.ctcw", wrong)
        with pytest.raises(ModelLoadError):
            load_model(tmp_path / "model")


class TestFlatLayout:
    """Parameters and Adam's moments are views of one buffer each."""

    MIXED = NetworkSpec(feature_dim=3, num_labels=2, layers=(
        LayerSpec("lstm", 3, True), LayerSpec("rnn", 2, False)))

    def assert_flat(self, tensors):
        """One contiguous float64 buffer, one view per tensor, in param_shapes order."""
        flat = tensors.flat
        assert flat.dtype == np.float64 and flat.ndim == 1
        assert flat.flags.c_contiguous
        shapes = net.param_shapes(self.MIXED)
        assert list(tensors) == list(shapes)
        start = flat.__array_interface__["data"][0]
        offset = 0
        for name, shape in shapes.items():
            view = tensors[name]
            assert view.shape == shape and view.flags.c_contiguous, name
            assert view.__array_interface__["data"][0] == start + 8 * offset, name
            offset += view.size
        assert offset == flat.size

    def assert_model_flat(self, model):
        for tensors in (model.params, model.optimizer.m, model.optimizer.v):
            self.assert_flat(tensors)

    def test_compile(self):
        self.assert_model_flat(CtcModel.compile(self.MIXED, seed=3))

    @pytest.mark.parametrize("with_weights", [True, False])
    def test_load_model(self, tmp_path, with_weights):
        model = CtcModel.compile(self.MIXED, seed=3)
        model.fit(small_dataset(4), epochs=1, batch_size=2)
        save_model(model, tmp_path / "model")
        if not with_weights:
            os.remove(tmp_path / "model" / "weights.ctcw")
        loaded = load_model(tmp_path / "model")
        self.assert_model_flat(loaded)
        if with_weights:
            assert params_equal(loaded.params, model.params)

    def test_model_from_plain_dicts(self):
        params = net.init_params(self.MIXED, 3)
        # moments laid out in another order are copied into the new one
        state = net.init_optimizer("adam", 1e-3, dict(reversed(params.items())))
        model = CtcModel(self.MIXED, params, state, DecodeConfig(), 3)
        self.assert_model_flat(model)
        assert params_equal(model.params, params)

    def test_copies_keep_the_layout(self):
        model = CtcModel.compile(self.MIXED, seed=3)
        model.fit(small_dataset(4), epochs=1, batch_size=2)
        for copied in (copy.deepcopy(model), pickle.loads(pickle.dumps(model))):
            self.assert_model_flat(copied)
            assert copied.params.flat is not model.params.flat
            assert params_equal(copied.params, model.params)
            assert params_equal(copied.optimizer.m, model.optimizer.m)
            assert params_equal(copied.optimizer.v, model.optimizer.v)

    def test_weights_bytes_equal_those_of_a_plain_dict(self, tmp_path):
        model = CtcModel.compile(self.MIXED, seed=3)
        model.fit(small_dataset(4), epochs=1, batch_size=2)
        write_weights(tmp_path / "flat.ctcw", model.params)
        plain = {name: np.array(p) for name, p in model.params.items()}
        write_weights(tmp_path / "plain.ctcw", plain)
        assert (tmp_path / "flat.ctcw").read_bytes() == \
            (tmp_path / "plain.ctcw").read_bytes()
