"""Three-branch model facade: train, predict, evaluate.

Training consumes the four-input padded batch (features, labels, input
lengths, label lengths), or a dataset that ``fit`` steps through in
unpadded slices; prediction consumes only features and input
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
import pickle
import struct
import threading
import time
from contextlib import suppress
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import net
# beam_search_decode, best_path_decode, ctc_gradient, ctc_loss and
# make_batches are not called here; benchmark tracing swaps its span
# wrappers into this namespace, so the names must stay importable from it
from .data import Dataset, _label_matrix, _order, _replacing, make_batches  # noqa: F401
from .decode import (  # noqa: F401
    beam_search_decode,
    beam_search_packed,
    best_path_decode,
    best_path_packed,
    check_beam,
)
from .lattice import (  # noqa: F401
    check_batch,
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


class WorkerError(RuntimeError):
    """``fit``'s worker process died, or raised an exception that does
    not survive a pickle round trip (``_GroupWorker``)."""


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

        The four-input entry to training (``batch_gradients``). The
        whole batch is evaluated before any parameter moves, so an
        infeasible sequence or a non-finite gradient leaves parameters
        and optimizer state untouched. ``clip_norm``, if given, must be
        a finite number > 0; it is checked before the batch is.
        """
        if clip_norm is not None:
            net.checked_real("clip_norm", clip_norm)
        return self._step(*batch_gradients(self.spec, self.params, batch),
                          clip_norm)

    def _step(self, losses, grads, clip_norm):
        """Step by ``grads``, clipped unless None; the mean of ``losses``."""
        if clip_norm is not None:
            grads = net.clip_by_global_norm(grads, clip_norm)
        net.optimizer_step(self.optimizer, self.params, grads)
        return float(losses.sum() / len(losses))

    # A fork stops OpenBLAS's threads, and in either process the next
    # thread count above one starts a thread that spins for about 0.1 s,
    # taking the CPU a worker needs: so all of fit runs on one thread.
    @net._one_blas_thread
    def fit(self, dataset, epochs, batch_size=32, shuffle_seed=0,
            validation=None, clip_norm=None, checkpoint_dir=None):
        """Epoch loop over deterministically shuffled batches.

        Returns one EpochRecord per epoch run (mean training loss,
        optional validation loss, wall-clock seconds). ``epochs`` (>= 0),
        ``batch_size`` (``net.checked_int``) and ``clip_norm`` are checked
        and both sets screened once (``_screened``) before the first
        step, so a set it refuses moves no parameter; the error names the
        sequence by its index in the set. Epoch e steps as
        ``train_on_batch`` on ``make_batches(dataset, batch_size,
        seed=[shuffle_seed, e])``, bit for bit, on unpadded index slices
        of that shuffle. Where this process runs one Python thread and
        has two CPUs by affinity and cgroup quota (``_can_fork``), a
        batch of several activation groups shares them with one worker
        process forked from this one (``_GroupWorker``); each step's sum
        is still taken in group order, so the bits and the error raised
        are those of one process. The worker is joined before ``fit``
        returns or raises, and OpenBLAS runs on one thread until then
        (``net._one_blas_thread``). With ``checkpoint_dir``,
        weights are written after each epoch as weights.epochN.ctcw
        (``write_weights``).
        """
        epochs = net.checked_int("epochs", epochs, 0)
        batch_size = net.checked_int("batch_size", batch_size)
        if clip_norm is not None:
            net.checked_real("clip_norm", clip_norm)
        if not len(dataset):
            raise ValueError("training dataset is empty")
        screened = self._screened_set(dataset)
        if validation is not None:
            if not len(validation):
                raise ValueError("validation dataset is empty")
            validation = self._screened_set(validation)
        history = []
        with _GroupWorker(self.spec, screened) as worker:
            for epoch in range(epochs):
                start = time.perf_counter()
                order = _order(len(dataset), [shuffle_seed, epoch])
                loss_sum = 0.0
                for bi, first in enumerate(range(0, len(order), batch_size)):
                    index = order[first:first + batch_size]
                    try:
                        batch_loss = self._step(*_gradients(
                            self.spec, self.params, screened, index, worker,
                        ), clip_norm)
                    except net.NonFiniteGradient as err:
                        raise net.NonFiniteGradient(
                            "epoch %d, batch %d: %s" % (epoch, bi, err)
                        ) from err
                    loss_sum += batch_loss * len(index)
                train_loss = loss_sum / len(dataset)
                val_loss = None
                if validation is not None:
                    val_loss = float(np.mean(self._run(*validation)[0]))
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
            *self._screened(features_list, input_lengths),
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
        before the next group runs. The labels are screened as
        ``get_loss`` screens them whichever metrics are requested.
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
        screened = self._screened_set(dataset)
        truths = [list(l) for _, l in dataset.sequences]
        decode = "ler" in requested or "ser" in requested
        losses, preds = self._run(
            *screened[:5 if "loss" in requested else 3],
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
        return self._run(*self._screened_set(dataset))[0]

    def get_probas(self, dataset_or_features):
        """Per-sequence posterior matrices trimmed to each true length."""
        features = dataset_or_features
        if isinstance(features, Dataset):
            features = [f for f, _ in features.sequences]
        return self._run(
            *self._screened(features), each=lambda probs, packing: [
                probs[packing.rows(b)] for b in range(packing.lengths.size)
            ],
        )[1]

    def _screened(self, features_list, input_lengths=None, labels=None):
        """The one screen of sequences: (rows, starts, lengths, labels,
        label_lengths).

        The first input_len float64 feature rows of each sequence
        (``net.sequence_frames``) one after another in ``rows``,
        sequence i from row ``starts[i]``, so ``Packing.pack(rows,
        starts[index])`` gathers any group; the input lengths; with
        ``labels``, their ``_label_matrix`` and label lengths, screened
        by ``check_sequences``, else None and None. An error names the
        sequence by its index.
        """
        features_list = list(features_list)
        n = len(features_list)
        if input_lengths is not None and len(input_lengths) != n:
            raise ValueError("%d input_lengths given for %d sequences"
                             % (len(input_lengths), n))
        active, lengths = [], np.zeros(n, dtype=np.int64)
        for i, features in enumerate(features_list):
            with sequence_named(i):
                features, lengths[i] = net.sequence_frames(
                    self.spec, features,
                    None if input_lengths is None else input_lengths[i],
                )
            active.append(features[:lengths[i]])
        rows = np.concatenate([np.empty((0, self.spec.feature_dim)), *active])
        label_lengths = None
        if labels is not None:
            labels, label_lengths = _label_matrix(labels)
            check_sequences(labels, lengths, label_lengths,
                            lengths.max(initial=1), self.spec.num_classes)
        return rows, np.cumsum(lengths) - lengths, lengths, labels, label_lengths

    def _screened_set(self, dataset):
        """``_screened`` of a dataset's features and labels."""
        return self._screened([f for f, _ in dataset.sequences],
                              labels=[l for _, l in dataset.sequences])

    def _run(self, rows, starts, lengths, labels=None, label_lengths=None,
             each=None):
        """Run the network over screened sequences, one packed group at a time.

        The arguments are ``_screened``'s. Each group of
        ``net.activation_groups(..., for_backward=False)`` is one
        ``net.forward_packed`` that keeps no activations for backward
        (for two bi-LSTM layers of 64 units and 280 frames, about 1,530
        frames a group against 650 in training); a group's posteriors
        are freed before the next runs. Returns (losses, outputs) in input order:
        with ``labels`` losses[i] is sequence i's ``packed_losses`` of
        the group's ``net.log_softmax_rows``, the loss training takes,
        else None; outputs[i] is sequence i's of ``each(probs,
        packing)``, which maps a group's posteriors, the ``exp`` of that
        log-softmax, to one output per sequence in packing order, else
        None. Each group's posteriors are screened once
        (``check_posteriors``).
        """
        losses = None if labels is None else np.empty(len(lengths))
        outputs = [None] * len(lengths)
        for index in net.activation_groups(self.spec, lengths, for_backward=False):
            packing = Packing(lengths[index])
            log_probs = net.log_softmax_rows(net.forward_packed(
                self.spec, self.params, packing,
                packing.pack(rows, starts[index]), for_backward=False,
            )[0])
            probs = np.exp(log_probs)
            check_posteriors(probs, packing, index)
            if labels is not None:
                losses[index] = packed_losses(packing, log_probs, labels[index],
                                              label_lengths[index])
            if each is not None:
                for i, output in zip(index.tolist(), each(probs, packing)):
                    outputs[i] = output
            del packing, log_probs, probs
        return None if losses is None else losses.tolist(), outputs

    # ------------------------------------------------------------------
    # persistence

    def save(self, directory):
        save_model(self, directory)

    @classmethod
    def load(cls, directory, weights=None):
        return load_model(directory, weights=weights)


def _decode(config, probs, packing):
    """Decode a packed group by ``config``, one result per sequence in packing order."""
    if config.greedy:
        return best_path_packed(probs, packing)
    return beam_search_packed(probs, packing, config.beam_width, config.top_paths)


def batch_gradients(spec, params, batch):
    """Per-sequence losses and batch-mean gradients of a padded batch.

    The batch's shapes (``check_batch``), its feature width against
    ``spec`` and every sequence are validated first; errors carry the
    sequence's index in ``batch``, and a batch of no sequence raises
    ValueError. Sequence i's rows start at row i * T_max of the
    features, so ``_gradients`` gathers no padding.
    """
    features, labels, lengths, label_lengths = check_batch(batch, spec.num_classes)
    B, T_max, F = features.shape
    if F != spec.feature_dim:
        raise ValueError("features must be (B, T_max, %d), got %r"
                         % (spec.feature_dim, features.shape))
    if not B:
        raise ValueError("the batch holds no sequence")
    screened = (features.reshape(B * T_max, F), np.arange(B) * T_max,
                lengths, labels, label_lengths)
    return _gradients(spec, params, screened, np.arange(B))


def _gradients(spec, params, screened, index, worker=None):
    """Per-sequence losses and mean gradients of the screened sequences ``index``.

    ``screened`` is (rows, starts, lengths, labels, label_lengths), and
    frame t of sequence i is ``rows[starts[i] + t]`` (``Packing.pack``).
    Each group of ``net.activation_groups`` is one ``_group_gradients``,
    whose activations are freed before the next group's forward; with
    a ``worker`` that runs, a batch of several groups shares them
    between two processes instead (``_GroupWorker.gradients``). Either way
    the groups' gradients are summed in group order. Returns (losses in
    the order of ``index``, the mean gradients as a ``net.FlatTensors``
    laid out by ``net.param_shapes(spec)``).
    """
    groups = net.activation_groups(spec, screened[2][index])
    members = [index[group] for group in groups]
    if worker is not None and len(groups) > 1 and worker.running():
        results = worker.gradients(params, members)
    else:
        results = (_group_gradients(spec, params, screened, m) for m in members)
    losses = np.empty(len(index))
    total = None
    for group, (group_losses, grads) in zip(groups, results):
        losses[group] = group_losses
        if total is None:
            total = grads
        else:
            total.flat += grads.flat
    total.flat /= len(losses)
    return losses, total


def _group_gradients(spec, params, screened, index):
    """Losses and summed gradients of one activation group, ``index`` into
    ``screened`` (see ``_gradients``): one forward, one lattice pass and
    one backward over its packed frames."""
    rows, starts, lengths, labels, label_lengths = screened
    packing = Packing(lengths[index])
    logits, cache = net.forward_packed(
        spec, params, packing, packing.pack(rows, starts[index])
    )
    losses, grad_logits = ctc_gradient_packed(
        packing, logits, labels.take(index, 0), label_lengths[index]
    )
    return losses, net.backward_packed(spec, params, cache, grad_logits)


# The cgroup CPU quota: version 2's cpu.max ("quota period", quota "max"
# if none), or version 1's quota and period files (quota -1 if none) in
# the hierarchy of the cpu controller. Each is read in this process's own
# cgroup, whose path /proc/self/cgroup gives (version 2's line lists no
# controller), and in every cgroup above it up to the mount root.
_PROC_CGROUP = "/proc/self/cgroup"
_CPU_QUOTA_FILES = (
    ("", "/sys/fs/cgroup", ("cpu.max",)),
    ("cpu", "/sys/fs/cgroup/cpu", ("cpu.cfs_quota_us", "cpu.cfs_period_us")),
)


def _cpu_quota():
    """This process's cgroup CPU quota in CPUs: the smallest set on its
    cgroup or an ancestor, or None where none is set or none can be read
    (``_CPU_QUOTA_FILES``)."""
    try:
        with open(_PROC_CGROUP) as fh:
            lines = [line.split(":", 2) for line in fh.read().splitlines()]
    except OSError:
        lines = []
    quotas = []
    for controller, root, names in _CPU_QUOTA_FILES:
        path = next((fields[2] for fields in lines if len(fields) == 3
                     and controller in fields[1].split(",")), "/")
        parts = [part for part in path.split("/") if part]
        for depth in range(len(parts), -1, -1):
            with suppress(OSError, ValueError, ZeroDivisionError):
                words = []
                for name in names:
                    with open(os.path.join(root, *parts[:depth], name)) as fh:
                        words += fh.read().split()
                quota, period = words
                if quota not in ("max", "-1"):
                    quotas.append(int(quota) / int(period))
    return min(quotas, default=None)


def _can_fork():
    """Whether ``fit`` may fork a worker: two usable CPUs by
    ``os.sched_getaffinity`` and by the cgroup quota (``_cpu_quota``),
    the ``fork`` start method, one Python thread, since a fork copies
    only the caller and a lock another thread holds would stay held in
    the worker, and a process that is not daemonic, since
    multiprocessing allows a daemon no children."""
    import multiprocessing
    if ("fork" not in multiprocessing.get_all_start_methods()
            or not hasattr(os, "sched_getaffinity")
            or threading.active_count() > 1
            or multiprocessing.current_process().daemon
            or len(os.sched_getaffinity(0)) < 2):
        return False
    quota = _cpu_quota()
    return quota is None or quota >= 2


class _GroupWorker:
    """One worker process, forked from ``fit``, that computes activation groups.

    It is forked at the first batch of several groups, after ``fit``
    has screened its set, so it inherits ``screened`` and ``spec`` and
    neither is ever sent. Per batch it gets one message, the parameters
    and the index arrays of its groups, and sends back one message per
    group, its (losses, grads), or the exception that stopped it. It
    exits when the parent's end of its pipe closes (``__exit__``), also
    when the parent dies.
    """

    def __init__(self, spec, screened):
        self.spec, self.screened = spec, screened
        self.tried = False
        self.process = self.conn = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self.process is not None:
            self.conn.close()
            self.process.join()
            self.process.close()

    def running(self):
        """Whether the worker runs. The first call forks it where
        ``_can_fork`` allows; a fork that fails leaves ``fit`` serial."""
        if not self.tried:
            self.tried = True
            if _can_fork():
                self._fork()
        return self.process is not None

    def gradients(self, params, members):
        """Each group's (losses, grads), in group order, as
        ``_group_gradients`` gives them; ``members`` holds each group's
        index into ``screened``.

        The groups go, the most frames first, each to the process with
        fewer frames so far, this one on a tie. This process computes
        its share, in group order, while the worker computes its own.
        The exception of the first group that fails is raised, as the
        serial loop raises it; a worker's keeps its type and message. A
        worker found dead, at the send or the receipt, raises ``_death``.
        """
        loads = [int(self.screened[2][m].sum()) for m in members]
        shares, totals = ([], []), [0, 0]
        for g in sorted(range(len(members)), key=lambda g: -loads[g]):
            side = int(totals[1] < totals[0])
            shares[side].append(g)
            totals[side] += loads[g]
        mine = sorted(shares[0])
        try:
            self.conn.send((params, [members[g] for g in sorted(shares[1])]))
        except BrokenPipeError:
            raise self._death() from None
        own = dict(zip(mine, _group_results(self.spec, params, self.screened,
                                            [members[g] for g in mine])))
        for g in range(len(members)):
            try:
                result = own.pop(g) if g in own else self.conn.recv()
            except EOFError:
                raise self._death() from None
            if isinstance(result, Exception):
                raise result
            yield result

    def _death(self):
        """Join the dead worker: a WorkerError naming how it ended."""
        self.process.join()
        code = self.process.exitcode
        return WorkerError("fit's worker process %s" % (
            "was killed by signal %d" % -code if code < 0
            else "exited with code %d" % code))

    def _fork(self):
        import multiprocessing
        context = multiprocessing.get_context("fork")
        ours, theirs = context.Pipe()
        process = context.Process(target=self._serve, args=(theirs, ours),
                                  daemon=True)
        try:
            process.start()
        except OSError:  # no process or memory to spare
            ours.close()
            return
        finally:
            theirs.close()
        self.process, self.conn = process, ours

    def _serve(self, conn, parent_end):
        """The worker's loop, until the parent's end of ``conn`` closes.

        Per batch it computes all of its groups (``_group_results``)
        before it sends any: a result does not fit in the pipe's kernel
        buffer, so sending each as it came would wait for the parent to
        finish its own share, and the processes would stop overlapping.
        An exception that does not survive a pickle round trip goes as a
        WorkerError naming its type and message.
        """
        import signal
        # only the parent may hold its end, so that the worker sees the
        # end of file when the parent closes it or dies
        parent_end.close()
        # an interrupt stops the parent, which then closes the pipe
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        with suppress(EOFError, OSError):
            while True:
                params, members = conn.recv()
                for result in _group_results(self.spec, params,
                                             self.screened, members):
                    if isinstance(result, Exception):
                        try:  # the parent must be able to unpickle it
                            pickle.loads(pickle.dumps(result))
                        except Exception:
                            result = WorkerError("%s: %s" % (
                                type(result).__name__, result))
                    conn.send(result)


def _group_results(spec, params, screened, members):
    """``_group_gradients`` of each group of ``members`` in order, up to
    the first that raises, whose exception is then the last result."""
    results = []
    for index in members:
        try:
            results.append(_group_gradients(spec, params, screened, index))
        except Exception as err:  # raised by the reader of the results
            results.append(err)
            break
    return results


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
            params = net.as_flat(params, net.param_shapes(spec))
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
