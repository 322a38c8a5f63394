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
import math
import os
import struct
import time
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import net
from .data import LABEL_PAD, Dataset, PaddedBatch, _replacing, make_batches
# beam_search_decode, best_path_decode, ctc_gradient and ctc_loss are
# not called here; benchmark tracing swaps its span wrappers into this
# namespace, so the names must stay importable from it
from .decode import (  # noqa: F401
    beam_search_decode,
    beam_search_packed,
    best_path_decode,
    best_path_packed,
    check_beam,
)
from .lattice import (  # noqa: F401
    InfeasibleAlignment,
    check_batch,
    check_labels,
    check_posteriors,
    check_sequences,
    ctc_gradient,
    ctc_gradient_packed,
    ctc_loss,
    packed_losses,
    sequence_named,
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
    """Decode defaults fixed when the model is built.

    Raises ValueError unless ``greedy`` is a bool and the beam sizes are
    integers that ``beam_search_decode`` takes (``check_beam``), which
    are stored as ints: the types hyperparams.json stores.
    """

    greedy: bool = True
    beam_width: int = 100
    top_paths: int = 1

    def __post_init__(self):
        if type(self.greedy) is not bool:
            raise ValueError("greedy must be true or false, got %r"
                             % (self.greedy,))
        beam_width, top_paths = check_beam(self.beam_width, self.top_paths)
        object.__setattr__(self, "beam_width", beam_width)
        object.__setattr__(self, "top_paths", top_paths)


@dataclass
class EpochRecord:
    train_loss: float
    val_loss: float | None
    seconds: float


class CtcModel:
    """A compiled recurrent network plus CTC loss, decoders and metrics."""

    def __init__(self, spec, params, optimizer, decode_config, seed):
        """Keep ``params`` and Adam's moments laid out by ``net.param_shapes``.

        Tensors in another layout, a plain dict among them, are checked
        and copied into one buffer each (``net.as_flat``).
        """
        shapes = net.param_shapes(spec)
        self.spec = spec
        self.params = net.as_flat(params, shapes)
        if optimizer.kind == "adam":
            optimizer.m = net.as_flat(optimizer.m, shapes)
            optimizer.v = net.as_flat(optimizer.v, shapes)
        self.optimizer = optimizer
        self.decode_config = decode_config
        self.seed = seed

    @classmethod
    def compile(cls, spec, optimizer="adam", learning_rate=1e-4,
                decode=None, seed=0):
        """Initialize parameters and attach the optimizer.

        The loss is fixed to CTC and is not an argument. ``decode``
        fixes the model's default decoding behavior. ``seed`` must be
        an integer >= 0 (``net.checked_int``).
        """
        seed = net.checked_int("seed", seed, 0)
        params = net._init_flat_params(spec, seed)
        state = net.init_optimizer(optimizer, learning_rate, params)
        return cls(spec, params, state, decode or DecodeConfig(), seed)

    # ------------------------------------------------------------------
    # training branch

    def train_on_batch(self, batch, clip_norm=None):
        """One optimizer step on a padded batch; returns the pre-step mean loss.

        The whole batch is evaluated before any parameter moves, so an
        infeasible sequence or a non-finite gradient leaves parameters
        and optimizer state untouched. ``clip_norm``, if given, must be
        a finite number > 0; it is checked before the batch is.
        """
        if clip_norm is not None:
            net.checked_real("clip_norm", clip_norm)
        losses, grads = batch_gradients(self.spec, self.params, batch)
        if clip_norm is not None:
            grads = net.clip_by_global_norm(grads, clip_norm)
        net.optimizer_step(self.optimizer, self.params, grads)
        return float(np.mean(losses))

    def fit(self, dataset, epochs, batch_size=32, shuffle_seed=0,
            validation=None, clip_norm=None, checkpoint_dir=None):
        """Epoch loop over deterministically shuffled batches.

        Returns one EpochRecord per epoch run (mean training loss,
        optional validation loss, wall-clock seconds). ``validation`` is
        screened as ``get_loss`` screens it before the first step, so a
        set that it refuses moves no parameter. When
        ``checkpoint_dir`` is set, weights are written after each epoch
        as weights.epochN.ctcw (``write_weights``, so a failed write
        leaves an older checkpoint of that name intact). ``epochs`` must
        be an integer >= 0 (``net.checked_int``); ``clip_norm`` is
        checked as ``train_on_batch`` checks it.
        """
        epochs = net.checked_int("epochs", epochs, 0)
        if not len(dataset):
            raise ValueError("training dataset is empty")
        if validation is not None:
            if not len(validation):
                raise ValueError("validation dataset is empty")
            self._screened([f for f, _ in validation.sequences],
                           labels=[l for _, l in validation.sequences])
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

        Decode parameters default to the model's DecodeConfig; each of
        ``greedy``, ``beam_width`` and ``top_paths`` that is not None
        overrides it for the call, and the call's DecodeConfig checks
        them before any sequence runs. ``beam_width`` or ``top_paths``
        without ``greedy`` asks for beam search.
        """
        if greedy is None and (beam_width, top_paths) != (None, None):
            greedy = False
        overrides = {name: value for name, value in (
            ("greedy", greedy), ("beam_width", beam_width),
            ("top_paths", top_paths)) if value is not None}
        config = replace(self.decode_config, **overrides)
        return self._run(
            features_list, input_lengths,
            each=lambda probs, packing: _decode(config, probs, packing),
        )[1]

    # ------------------------------------------------------------------
    # evaluation branch and getters (consume the full four-input data)

    def evaluate(self, dataset, metrics=VALID_METRICS):
        """Aggregate the requested metrics over a labeled dataset.

        Decoding for ler/ser uses the model's decode defaults, recorded
        in the report. ler is per sequence, loss and ser are aggregated.
        The network runs once over each packed group of sequences; its
        posteriors give both the losses and the decodes and are dropped
        before the next group runs.
        """
        if not len(dataset):
            raise ValueError("evaluation dataset is empty")
        requested = tuple(metrics)
        for m in requested:
            if m not in VALID_METRICS:
                raise ValueError(
                    "unknown metric %r (expected subset of %r)"
                    % (m, list(VALID_METRICS))
                )
        truths = [list(l) for _, l in dataset.sequences]
        decode = "ler" in requested or "ser" in requested
        losses, preds = self._run(
            [f for f, _ in dataset.sequences],
            labels=truths if "loss" in requested else None,
            each=(lambda probs, packing: [
                r.paths[0][0]
                for r in _decode(self.decode_config, probs, packing)
            ]) if decode else None,
        )
        report = MetricsReport(decode=asdict(self.decode_config))
        if "loss" in requested:
            report.loss = float(np.mean(losses))
        if "ler" in requested:
            report.ler = [label_error_rate(p, t) for p, t in zip(preds, truths)]
            report.ler_mean = float(np.mean(report.ler))
        if "ser" in requested:
            report.ser = sequence_error_rate(preds, truths)
        return report

    def get_loss(self, dataset):
        """Per-sequence negative log-likelihoods, in dataset order.

        Each is the loss ``train_on_batch`` takes of the sequence's
        logits, bit for bit.
        """
        return self._run([f for f, _ in dataset.sequences],
                         labels=[l for _, l in dataset.sequences])[0]

    def get_probas(self, dataset_or_features):
        """Per-sequence posterior matrices trimmed to each true length."""
        if isinstance(dataset_or_features, Dataset):
            feature_arrays = [f for f, _ in dataset_or_features.sequences]
        else:
            feature_arrays = list(dataset_or_features)
        return self._run(feature_arrays, each=lambda probs, packing: [
            probs[packing.rows(b)] for b in range(packing.lengths.size)
        ])[1]

    def _screened(self, features_list, input_lengths=None, labels=None):
        """``_run``'s inputs checked: (arrays, lengths, labels).

        Each sequence's features as a float64 (T, feature_dim) array and
        its input length; with ``labels``, their ``_label_matrix`` and
        label lengths, else None. Labels must be integers
        (``check_labels``) before they are cast. An error names the
        sequence by its index.
        """
        features_list = list(features_list)
        n = len(features_list)
        if input_lengths is not None and len(input_lengths) != n:
            raise ValueError("%d input_lengths given for %d sequences"
                             % (len(input_lengths), n))
        arrays, lengths = [], np.zeros(n, dtype=np.int64)
        for i, features in enumerate(features_list):
            with sequence_named(i):
                features, lengths[i] = net.sequence_frames(
                    self.spec, features,
                    None if input_lengths is None else input_lengths[i],
                )
            arrays.append(features)
        if labels is not None:
            check_labels(labels)
            label_lengths = np.array([len(l) for l in labels], dtype=np.int64)
            labels = (_label_matrix(labels, label_lengths), label_lengths)
            check_sequences(labels[0], lengths, label_lengths,
                            lengths.max(initial=1), self.spec.num_classes)
        return arrays, lengths, labels

    def _run(self, features_list, input_lengths=None, labels=None, each=None):
        """Run the network over sequences, one packed group at a time.

        Each group of ``net.activation_groups(..., for_backward=False)``
        is one ``net.forward_packed`` that keeps no activations for
        backward, so the groups are sized by the peak of a forward-only
        pass (for two bi-LSTM layers of 64 units and sequences of 280
        frames, 760 frames a group against 323 in training). Returns
        (losses, outputs) in input order. With ``labels`` (one label
        list per sequence), losses[i] is the CTC loss of sequence i,
        from one ``packed_losses`` pass per group over
        ``net.log_softmax_rows`` of its logits: the loss training takes
        of them. Otherwise losses is None. ``each(probs, packing)`` maps
        a group's posteriors (N, K), the ``exp`` of that log-softmax, of
        the first input_len frames of each sequence, to one output per
        sequence in packing order, and outputs[i] is that of sequence i;
        without ``each`` outputs holds Nones. Every sequence is screened
        before the first group runs (``_screened``), and each group's
        posteriors once, by the rule every function that takes
        posteriors applies (``check_posteriors`` with the group's
        packing); an error names the sequence by its index.
        """
        arrays, lengths, labels = self._screened(features_list, input_lengths,
                                                 labels)
        losses = None if labels is None else np.empty(len(arrays))
        outputs = [None] * len(arrays)
        groups = net.activation_groups(self.spec, lengths, for_backward=False)
        for index in groups:
            group_losses, group_outputs = _run_group(
                self.spec, self.params, arrays, lengths, labels, index, each
            )
            if losses is not None:
                losses[index] = group_losses
            for i, output in zip(index.tolist(), group_outputs):
                outputs[i] = output
        return None if losses is None else losses.tolist(), outputs

    # ------------------------------------------------------------------
    # persistence

    def save(self, directory):
        save_model(self, directory)

    @classmethod
    def load(cls, directory, weights=None):
        return load_model(directory, weights=weights)


def _label_matrix(labels, label_lengths):
    """Label lists as one (B, L_max) array, padded with LABEL_PAD."""
    matrix = np.full((len(labels), int(label_lengths.max(initial=0))),
                     LABEL_PAD, dtype=np.int64)
    for row, l in zip(matrix, labels):
        row[:len(l)] = l
    return matrix


def _decode(config, probs, packing):
    """Decode a packed group by ``config``, one result per sequence in packing order."""
    if config.greedy:
        return best_path_packed(probs, packing)
    return beam_search_packed(probs, packing, config.beam_width, config.top_paths)


def _run_group(spec, params, arrays, lengths, labels, index, each):
    # a function of its own, so each group's activations and posteriors
    # are freed before the next group's forward runs
    packing = Packing(lengths[index])
    frames = np.empty((packing.num_frames, spec.feature_dim))
    for b, i in enumerate(index.tolist()):
        frames[packing.rows(b)] = arrays[i][:lengths[i]]
    log_probs = net.log_softmax_rows(
        net.forward_packed(spec, params, packing, frames, for_backward=False)[0]
    )
    probs = np.exp(log_probs)
    check_posteriors(probs, packing, index)
    losses = None
    if labels is not None:
        matrix, label_lengths = labels
        losses = packed_losses(packing, log_probs, matrix[index], label_lengths[index])
    outputs = [None] * len(index) if each is None else each(probs, packing)
    return losses, outputs


def batch_gradients(spec, params, batch):
    """Per-sequence losses and batch-mean gradients of a padded batch.

    The batch's shapes (``check_batch``), its feature width against
    ``spec`` and every sequence are validated first; errors carry the
    sequence's index in ``batch``. The batch then runs in the groups of
    ``net.activation_groups``: per group one forward, one lattice pass
    and one backward over its packed frames. Returns (losses in batch order,
    the batch-mean gradients as a ``net.FlatTensors`` laid out by
    ``net.param_shapes(spec)``).
    """
    batch = PaddedBatch(*check_batch(batch, spec.num_classes))
    if batch.features.shape[2] != spec.feature_dim:
        raise ValueError("features must be (B, T_max, %d), got %r"
                         % (spec.feature_dim, batch.features.shape))
    losses = np.empty(len(batch.input_lengths))
    total = None
    for index in net.activation_groups(spec, batch.input_lengths):
        losses[index], grads = _group_gradients(spec, params, batch, index)
        if total is None:
            total = grads
        else:
            total.flat += grads.flat
    total.flat /= len(losses)
    return losses, total


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


def _write_json(path, value):
    with _replacing(path) as tmp, open(tmp, "wb") as fh:
        fh.write((json.dumps(value, sort_keys=True, indent=2) + "\n").encode("utf-8"))


def save_model(model, directory):
    """Write architecture.json, hyperparams.json and weights.ctcw.

    Each file is replaced whole (``_replacing``): a save that fails
    partway leaves every file either as it was or fully written.
    """
    os.makedirs(directory, exist_ok=True)
    _write_json(os.path.join(directory, ARCHITECTURE_FILE),
                asdict(model.spec))
    _write_json(os.path.join(directory, HYPERPARAMS_FILE), {
        "optimizer": model.optimizer.kind,
        "learning_rate": model.optimizer.learning_rate,
        "decode": asdict(model.decode_config),
        "seed": model.seed,
    })
    write_weights(os.path.join(directory, WEIGHTS_FILE), model.params)


def load_model(directory, weights=None):
    """Rebuild a model from its directory.

    ``weights`` may name a weights file (absolute or relative to the
    directory). When omitted, weights.ctcw is used if present;
    otherwise parameters are freshly initialized from the stored seed.
    A file that is missing, corrupt or inconsistent raises
    ModelLoadError naming it, as does an architecture too large to
    allocate.
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

    if weights is not None:
        weights_path = weights if os.path.isabs(weights) \
            else os.path.join(directory, weights)
        if not os.path.isfile(weights_path):
            raise ModelLoadError("%s: missing" % weights_path)
    else:
        default = os.path.join(directory, WEIGHTS_FILE)
        weights_path = default if os.path.isfile(default) else None

    params = None
    if weights_path is not None:
        params = read_weights(weights_path)
        try:
            params = net.as_flat(net.fuse_gate_tensors(params),
                                 net.param_shapes(spec))
        except ValueError as err:
            raise ModelLoadError("%s: %s" % (weights_path, err)) from err

    try:
        with open(hyper_path, "r", encoding="utf-8") as fh:
            hyper = json.load(fh)
        decode_config = DecodeConfig(**hyper["decode"])
        seed = net.checked_int("seed", hyper["seed"], 0)
        if params is None:
            params = net._init_flat_params(spec, seed)
        state = net.init_optimizer(hyper["optimizer"], hyper["learning_rate"],
                                   params)
    except (ValueError, KeyError, TypeError, OverflowError) as err:
        raise ModelLoadError("%s: %s" % (hyper_path, err)) from err
    except MemoryError as err:  # sizes the spec takes but no memory holds
        raise ModelLoadError("%s: %s" % (arch_path, err)) from err
    return CtcModel(spec, params, state, decode_config, seed)


def write_weights(path, params):
    """Binary tensor container, bit-exact for float64 values.

    Layout (little-endian): magic "CTCW", u32 version, u32 tensor
    count; per tensor (sorted by name): u16 name length, UTF-8 name,
    u8 rank, u32 per dimension, then row-major f64 values. The file
    replaces ``path`` only once it is complete (``_replacing``).
    """
    with _replacing(path) as tmp, open(tmp, "wb") as fh:
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
    """Parse a weights file written by write_weights; a tensor name
    stored twice is refused, as write_weights never writes one."""
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
        size = math.prod(shape)  # Python ints: a product cannot wrap
        nbytes = 8 * size
        if offset + nbytes > len(blob):
            fail("truncated tensor values for %s" % name)
        try:  # numpy caps the rank (at 64 in numpy 2)
            values = np.frombuffer(
                blob, dtype="<f8", count=size, offset=offset
            ).reshape(shape)
        except ValueError as err:
            fail("tensor %s: %s" % (name, err))
        if not np.isfinite(values).all():
            fail("tensor %s holds non-finite values" % name)
        if name in params:
            fail("tensor %s is stored twice" % name)
        params[name] = values.astype(np.float64)  # a copy, off the blob
        offset += nbytes
    if offset != len(blob):
        fail("%d trailing bytes" % (len(blob) - offset))
    return params
