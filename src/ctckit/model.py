"""Three-branch model facade: train, predict, evaluate.

Training consumes the four-input padded batch (features, labels, input
lengths, label lengths); prediction consumes only features and input
lengths; evaluation consumes all four and reports loss / label error
rate / sequence error rate. The loss is always the CTC negative
log-likelihood (batch mean for training); only the optimizer is
configurable.

A model directory holds three files: ``architecture.json`` (network
description), ``hyperparams.json`` (optimizer kind, learning rate,
decode defaults, seed), and ``weights.ctcw`` (binary tensors, see
``write_weights``). Loading without the weights file reinitializes
from the stored seed.
"""

import json
import os
import struct
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import net
from .data import Dataset, make_batches
from .decode import beam_search_decode, best_path_decode
# ctc_gradient is not called here; benchmark tracing swaps its span
# wrapper into this namespace
from .lattice import (  # noqa: F401
    InfeasibleAlignment,
    check_batch,
    ctc_gradient,
    ctc_gradient_packed,
    ctc_loss,
)
from .metrics import MetricsReport, label_error_rate, sequence_error_rate
from .packing import Packing

ARCHITECTURE_FILE = "architecture.json"
HYPERPARAMS_FILE = "hyperparams.json"
WEIGHTS_FILE = "weights.ctcw"

WEIGHTS_MAGIC = b"CTCW"
WEIGHTS_VERSION = 1

VALID_METRICS = ("loss", "ler", "ser")


class ModelLoadError(Exception):
    """A model directory is missing, corrupt, or inconsistent."""


@dataclass(frozen=True)
class DecodeConfig:
    """Decode defaults fixed when the model is built."""

    greedy: bool = True
    beam_width: int = 100
    top_paths: int = 1


@dataclass
class EpochRecord:
    train_loss: float
    val_loss: float | None
    seconds: float


class CtcModel:
    """A compiled recurrent network plus CTC loss, decoders and metrics."""

    def __init__(self, spec, params, optimizer, decode_config, seed):
        net.audit_params(spec, params)
        self.spec = spec
        self.params = params
        self.optimizer = optimizer
        self.decode_config = decode_config
        self.seed = seed

    @classmethod
    def compile(cls, spec, optimizer="adam", learning_rate=1e-4,
                decode=None, seed=0):
        """Initialize parameters and attach the optimizer.

        The loss is fixed to CTC and is not an argument. ``decode``
        fixes the model's default decoding behavior.
        """
        net.validate_spec(spec)
        params = net.init_params(spec, seed)
        state = net.init_optimizer(optimizer, learning_rate, params)
        return cls(spec, params, state, decode or DecodeConfig(), seed)

    # ------------------------------------------------------------------
    # training branch

    def train_on_batch(self, batch, clip_norm=None):
        """One optimizer step on a padded batch; returns the pre-step mean loss.

        The whole batch is evaluated before any parameter moves, so an
        infeasible sequence or a non-finite gradient leaves parameters
        and optimizer state untouched.
        """
        losses, grads = batch_gradients(self.spec, self.params, batch)
        if clip_norm is not None:
            grads = net.clip_by_global_norm(grads, clip_norm)
        net.optimizer_step(self.optimizer, self.params, grads)
        return float(np.mean(losses))

    def fit(self, dataset, epochs, batch_size=32, shuffle_seed=0,
            validation=None, clip_norm=None, checkpoint_dir=None):
        """Epoch loop over deterministically shuffled batches.

        Returns one EpochRecord per epoch run (mean training loss,
        optional validation loss, wall-clock seconds). When
        ``checkpoint_dir`` is set, weights are written after each epoch
        as weights.epochN.ctcw.
        """
        if not len(dataset):
            raise ValueError("training dataset is empty")
        history = []
        for epoch in range(epochs):
            start = time.perf_counter()
            batches = make_batches(dataset, batch_size, seed=[shuffle_seed, epoch])
            loss_sum = 0.0
            for bi, batch in enumerate(batches):
                try:
                    batch_loss = self.train_on_batch(batch, clip_norm=clip_norm)
                except InfeasibleAlignment as err:
                    raise InfeasibleAlignment(
                        "epoch %d, batch %d: %s" % (epoch, bi, err),
                        sequence_index=err.sequence_index,
                    ) from err
                except net.NonFiniteGradient as err:
                    raise net.NonFiniteGradient(
                        "epoch %d, batch %d: %s" % (epoch, bi, err)
                    ) from err
                loss_sum += batch_loss * len(batch)
            train_loss = loss_sum / len(dataset)
            val_loss = None
            if validation is not None:
                val_loss = float(np.mean(self.get_loss(validation)))
            if checkpoint_dir is not None:
                write_weights(
                    "%s/weights.epoch%d.ctcw" % (checkpoint_dir, epoch + 1),
                    self.params,
                )
            history.append(EpochRecord(
                train_loss=train_loss,
                val_loss=val_loss,
                seconds=time.perf_counter() - start,
            ))
        return history

    # ------------------------------------------------------------------
    # prediction branch (never sees labels or label lengths)

    def predict(self, features_list, input_lengths=None, greedy=None,
                beam_width=None, top_paths=None):
        """Decode each sequence; two inputs only.

        Decode parameters default to the model's DecodeConfig; pass
        ``greedy``/``beam_width``/``top_paths`` to override per call.
        """
        results = []
        for i, features in enumerate(features_list):
            features = np.asarray(features, dtype=np.float64)
            til = features.shape[0] if input_lengths is None \
                else int(input_lengths[i])
            probs, _ = net.forward(self.spec, self.params, features, input_len=til)
            results.append(self._decode(probs, til, greedy, beam_width, top_paths))
        return results

    def _decode(self, probs, input_len, greedy=None, beam_width=None,
                top_paths=None):
        """Decode one posterior matrix; None takes the DecodeConfig value."""
        cfg = self.decode_config
        if cfg.greedy if greedy is None else greedy:
            return best_path_decode(probs, input_len=input_len)
        return beam_search_decode(
            probs, input_len=input_len,
            beam_width=cfg.beam_width if beam_width is None else beam_width,
            top_paths=cfg.top_paths if top_paths is None else top_paths,
        )

    # ------------------------------------------------------------------
    # evaluation branch and getters (consume the full four-input data)

    def evaluate(self, dataset, metrics=VALID_METRICS):
        """Aggregate the requested metrics over a labeled dataset.

        Decoding for ler/ser uses the model's decode defaults, recorded
        in the report. ler is per sequence, loss and ser are aggregated.
        The network runs once per sequence; its posteriors give both the
        loss and the decode and are dropped before the next sequence.
        """
        requested = tuple(metrics)
        for m in requested:
            if m not in VALID_METRICS:
                raise ValueError(
                    "unknown metric %r (expected subset of %r)"
                    % (m, list(VALID_METRICS))
                )
        decode = "ler" in requested or "ser" in requested
        losses, preds = [], []
        for i, (features, labels) in enumerate(dataset.sequences):
            probs = self._forward_probs(features)
            if "loss" in requested:
                losses.append(_sequence_loss(probs, labels, i))
            if decode:
                preds.append(self._decode(probs, probs.shape[0]).paths[0][0])
        report = MetricsReport(decode=asdict(self.decode_config))
        if "loss" in requested:
            report.loss = float(np.mean(losses))
        truths = [list(l) for _, l in dataset.sequences]
        if "ler" in requested:
            report.ler = [label_error_rate(p, t) for p, t in zip(preds, truths)]
            report.ler_mean = float(np.mean(report.ler))
        if "ser" in requested:
            report.ser = sequence_error_rate(preds, truths)
        return report

    def get_loss(self, dataset):
        """Per-sequence negative log-likelihoods, in dataset order."""
        return [_sequence_loss(self._forward_probs(features), labels, i)
                for i, (features, labels) in enumerate(dataset.sequences)]

    def get_probas(self, dataset_or_features):
        """Per-sequence posterior matrices trimmed to each true length."""
        if isinstance(dataset_or_features, Dataset):
            feature_arrays = [f for f, _ in dataset_or_features.sequences]
        else:
            feature_arrays = list(dataset_or_features)
        return [self._forward_probs(f) for f in feature_arrays]

    def _forward_probs(self, features):
        features = np.asarray(features, dtype=np.float64)
        probs, _ = net.forward(self.spec, self.params, features)
        return probs

    # ------------------------------------------------------------------
    # persistence

    def save(self, directory):
        save_model(self, directory)

    @classmethod
    def load(cls, directory, weights=None):
        return load_model(directory, weights=weights)


def _sequence_loss(probs, labels, index):
    try:
        return ctc_loss(probs, labels)
    except InfeasibleAlignment as err:
        raise InfeasibleAlignment(str(err), sequence_index=index) from err


def batch_gradients(spec, params, batch):
    """Per-sequence losses and batch-mean gradients of a padded batch.

    Every sequence is validated first; errors carry the sequence's index
    in ``batch``. The batch is then sorted by length and run in
    consecutive groups of ``net.activation_groups``: per group one
    forward, one lattice pass and one backward over its packed frames.
    Returns (losses in batch order, {name: mean gradient}).
    """
    check_batch(batch, spec.num_classes)
    lengths = np.asarray(batch.input_lengths, dtype=np.int64)
    order = np.argsort(-lengths, kind="stable")
    losses = np.empty(len(order))
    total = None
    for group in net.activation_groups(spec, lengths[order]):
        index = order[group]
        losses[index], grads = _group_gradients(spec, params, batch, index)
        if total is None:
            total = grads
        else:
            for name, g in grads.items():
                total[name] += g
    return losses, {name: g / len(order) for name, g in total.items()}


def _group_gradients(spec, params, batch, index):
    # a function of its own, so each group's activations are freed
    # before the next group's forward runs
    packing = Packing(batch.input_lengths[index])
    logits, cache = net.forward_packed(
        spec, params, packing, packing.pack(batch.features, index)
    )
    losses, grad_logits = ctc_gradient_packed(
        packing, logits, batch.labels[index], batch.label_lengths[index]
    )
    return losses, net.backward_packed(spec, params, cache, grad_logits)


def save_model(model, directory):
    """Write architecture.json, hyperparams.json and weights.ctcw."""
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, ARCHITECTURE_FILE), "w",
              encoding="utf-8") as fh:
        json.dump(net.spec_to_dict(model.spec), fh, sort_keys=True, indent=2)
        fh.write("\n")
    hyper = {
        "optimizer": model.optimizer.kind,
        "learning_rate": model.optimizer.learning_rate,
        "decode": asdict(model.decode_config),
        "seed": model.seed,
    }
    with open(os.path.join(directory, HYPERPARAMS_FILE), "w",
              encoding="utf-8") as fh:
        json.dump(hyper, fh, sort_keys=True, indent=2)
        fh.write("\n")
    write_weights(os.path.join(directory, WEIGHTS_FILE), model.params)


def load_model(directory, weights=None):
    """Rebuild a model from its directory.

    ``weights`` may name a weights file (absolute or relative to the
    directory). When omitted, weights.ctcw is used if present;
    otherwise parameters are freshly initialized from the stored seed.
    """
    arch_path = os.path.join(directory, ARCHITECTURE_FILE)
    hyper_path = os.path.join(directory, HYPERPARAMS_FILE)
    for path in (arch_path, hyper_path):
        if not os.path.isfile(path):
            raise ModelLoadError("%s: missing" % path)
    try:
        with open(arch_path, "r", encoding="utf-8") as fh:
            spec = net.spec_from_dict(json.load(fh))
    except (ValueError, KeyError) as err:
        raise ModelLoadError("%s: %s" % (arch_path, err)) from err
    try:
        with open(hyper_path, "r", encoding="utf-8") as fh:
            hyper = json.load(fh)
        decode_config = DecodeConfig(**hyper["decode"])
        optimizer_kind = hyper["optimizer"]
        learning_rate = float(hyper["learning_rate"])
        seed = hyper["seed"]
    except (ValueError, KeyError, TypeError) as err:
        raise ModelLoadError("%s: %s" % (hyper_path, err)) from err

    if weights is not None:
        weights_path = weights if os.path.isabs(weights) \
            else os.path.join(directory, weights)
        if not os.path.isfile(weights_path):
            raise ModelLoadError("%s: missing" % weights_path)
    else:
        default = os.path.join(directory, WEIGHTS_FILE)
        weights_path = default if os.path.isfile(default) else None

    if weights_path is None:
        params = net.init_params(spec, seed)
    else:
        params = read_weights(weights_path)
        try:
            params = net.fuse_gate_tensors(params)
            net.audit_params(spec, params)
        except ValueError as err:
            raise ModelLoadError("%s: %s" % (weights_path, err)) from err

    state = net.init_optimizer(optimizer_kind, learning_rate, params)
    return CtcModel(spec, params, state, decode_config, seed)


def write_weights(path, params):
    """Binary tensor container, bit-exact for float64 values.

    Layout (little-endian): magic "CTCW", u32 version, u32 tensor
    count; per tensor (sorted by name): u16 name length, UTF-8 name,
    u8 rank, u32 per dimension, then row-major f64 values.
    """
    with open(path, "wb") as fh:
        fh.write(WEIGHTS_MAGIC)
        fh.write(struct.pack("<I", WEIGHTS_VERSION))
        fh.write(struct.pack("<I", len(params)))
        for name in sorted(params):
            tensor = np.ascontiguousarray(params[name], dtype="<f8")
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<B", tensor.ndim))
            fh.write(struct.pack("<%dI" % tensor.ndim, *tensor.shape))
            fh.write(tensor.tobytes(order="C"))


def read_weights(path):
    """Parse a weights file written by write_weights."""
    with open(path, "rb") as fh:
        blob = fh.read()

    def fail(reason):
        raise ModelLoadError("%s: %s" % (path, reason))

    if len(blob) < 12:
        fail("truncated header")
    if blob[:4] != WEIGHTS_MAGIC:
        fail("bad magic bytes %r" % blob[:4])
    version, count = struct.unpack_from("<II", blob, 4)
    if version != WEIGHTS_VERSION:
        fail("unsupported format version %d" % version)
    params = {}
    offset = 12
    for _ in range(count):
        if offset + 2 > len(blob):
            fail("truncated tensor record")
        (name_len,) = struct.unpack_from("<H", blob, offset)
        offset += 2
        if offset + name_len + 1 > len(blob):
            fail("truncated tensor record")
        try:
            name = blob[offset:offset + name_len].decode("utf-8")
        except UnicodeDecodeError:
            fail("tensor name at byte %d is not UTF-8" % offset)
        offset += name_len
        (rank,) = struct.unpack_from("<B", blob, offset)
        offset += 1
        if offset + 4 * rank > len(blob):
            fail("truncated tensor record")
        shape = struct.unpack_from("<%dI" % rank, blob, offset)
        offset += 4 * rank
        size = int(np.prod(shape, dtype=np.int64)) if rank else 1
        nbytes = 8 * size
        if offset + nbytes > len(blob):
            fail("truncated tensor values for %s" % name)
        values = np.frombuffer(
            blob, dtype="<f8", count=size, offset=offset
        ).reshape(shape)
        if not np.isfinite(values).all():
            fail("tensor %s holds non-finite values" % name)
        params[name] = values.astype(np.float64).copy()
        offset += nbytes
    if offset != len(blob):
        fail("%d trailing bytes" % (len(blob) - offset))
    return params
