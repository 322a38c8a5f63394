"""Dataset ingestion, padding/batching, and synthetic data generation.

Datasets are JSON Lines files: a header object
``{"feature_dim": F, "num_labels": N}`` followed by one record per
sequence, ``{"features": [[...], ...], "labels": [...]}``. Features are
rectangular T_i x F float rows; labels are indices in [0, N). Floats
survive the round trip bit-exactly (shortest round-trip decimal
serialization).
"""

import json
import os
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .lattice import check_labels
from .net import checked_int, checked_real

LABEL_PAD = -1  # cannot collide with a class index; leaks fail loudly


class DatasetFormatError(Exception):
    """A dataset file violates the JSONL schema; message names the line."""


@dataclass
class Dataset:
    """In-memory corpus: (features, labels) pairs at their true lengths."""

    feature_dim: int
    num_labels: int
    sequences: list  # of (np.ndarray (T_i, feature_dim), list[int])

    def __len__(self):
        return len(self.sequences)


@dataclass
class PaddedBatch:
    """The four-input training structure.

    features are zero-padded to the within-batch maximum length, labels
    padded with LABEL_PAD; entries beyond the recorded lengths are
    padding and must never influence any computation.
    """

    features: np.ndarray       # (B, T_max, feature_dim)
    labels: np.ndarray         # (B, L_max) int64
    input_lengths: np.ndarray  # (B,) int64
    label_lengths: np.ndarray  # (B,) int64

    def __len__(self):
        return len(self.input_lengths)


def _parse_line(raw, lineno):
    try:
        return json.loads(raw)
    except json.JSONDecodeError as err:
        raise DatasetFormatError("line %d: invalid JSON (%s)" % (lineno, err)) from err


def read_dataset(path):
    """Parse and validate a JSONL dataset file."""
    sequences = []
    # bytes, so that a line that is not UTF-8 can be named
    with open(path, "rb") as fh:
        header = None
        lineno = 0
        for raw in fh:
            lineno += 1
            try:
                raw = raw.decode("utf-8")
            except UnicodeDecodeError as err:
                raise DatasetFormatError(
                    "line %d: not UTF-8 (%s)" % (lineno, err)) from err
            if not raw.strip():
                continue
            obj = _parse_line(raw, lineno)
            if header is None:
                if not isinstance(obj, dict) or "feature_dim" not in obj \
                        or "num_labels" not in obj:
                    raise DatasetFormatError(
                        "line %d: header must carry feature_dim and num_labels"
                        % lineno
                    )
                try:
                    header = {key: checked_int(key, obj[key])
                              for key in ("feature_dim", "num_labels")}
                except ValueError as err:
                    raise DatasetFormatError("line %d: %s" % (lineno, err)) from err
                continue
            if not isinstance(obj, dict) or "features" not in obj \
                    or "labels" not in obj:
                raise DatasetFormatError(
                    "line %d: record must carry features and labels" % lineno
                )
            rows = obj["features"]
            if not isinstance(rows, list) or not rows:
                raise DatasetFormatError(
                    "line %d: features must be a non-empty list of rows" % lineno
                )
            if any(not isinstance(r, list) or len(r) != header["feature_dim"]
                   for r in rows):
                raise DatasetFormatError(
                    "line %d: feature rows must all be lists of width %d"
                    % (lineno, header["feature_dim"])
                )
            # JSON numbers only: a string or a bool would parse as a float
            if not set(map(type, chain.from_iterable(rows))) <= {float, int}:
                raise DatasetFormatError(
                    "line %d: non-numeric feature value" % lineno
                )
            try:
                features = np.asarray(rows, dtype=np.float64)
            except OverflowError as err:  # an int past the float range
                raise DatasetFormatError(
                    "line %d: non-finite feature value (%s)" % (lineno, err)
                ) from err
            # json.loads accepts NaN and Infinity
            if not np.isfinite(features).all():
                raise DatasetFormatError(
                    "line %d: non-finite feature value" % lineno
                )
            labels = obj["labels"]  # type(True) is bool: a bool is no label
            if not isinstance(labels, list) or not set(map(type, labels)) <= {int}:
                raise DatasetFormatError(
                    "line %d: labels must be a list of integers" % lineno
                )
            if any(l < 0 or l >= header["num_labels"] for l in labels):
                raise DatasetFormatError(
                    "line %d: label outside [0, %d)" % (lineno, header["num_labels"])
                )
            sequences.append((features, list(labels)))
    if header is None:
        raise DatasetFormatError("line 1: missing header line")
    return Dataset(
        feature_dim=header["feature_dim"],
        num_labels=header["num_labels"],
        sequences=sequences,
    )


@contextmanager
def _replacing(path):
    """A temporary path beside ``path`` that replaces it once written.

    The caller writes the whole file to the yielded path; when the block
    ends, the file is moved over ``path`` with ``os.replace``, so a
    reader finds the old file or the whole new one. On an error the
    temporary file is removed and ``path`` is left as it was.

    There is no ``fsync``: it guards against power loss, not against a
    failed or killed writer, and it waits for the whole file system's
    journal. On ext4 on a virtual disk that another process kept writing
    to, an fsync of a 30 kB file took 1.5-107 ms (median 68 ms), so the
    time of a save depended on the neighbours' I/O.
    """
    tmp = "%s.%d.tmp" % (os.fspath(path), os.getpid())
    try:
        yield tmp
        os.replace(tmp, path)
    finally:
        with suppress(FileNotFoundError):
            os.remove(tmp)


def write_dataset(dataset, path):
    """Write a dataset in the JSONL format read_dataset parses.

    The file replaces ``path`` only once it is complete (``_replacing``).
    """
    with _replacing(path) as tmp, open(tmp, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(
            {"feature_dim": dataset.feature_dim, "num_labels": dataset.num_labels},
            sort_keys=True,
        ) + "\n")
        for features, labels in dataset.sequences:
            fh.write(json.dumps(
                {
                    "features": np.asarray(features, dtype=np.float64).tolist(),
                    "labels": [int(l) for l in labels],
                },
                sort_keys=True,
            ) + "\n")


def make_batches(dataset, batch_size, seed=None):
    """Split into padded batches after a deterministic shuffle.

    ``seed`` may be an int / int sequence (shuffled with that seed), a
    Generator, or None for the original order. Per batch, the padded
    sizes are the within-batch maxima and every true length is kept.
    ``batch_size`` must be an integer >= 1 (``net.checked_int``), and
    every label an integer (``lattice.check_labels``, naming the
    sequence by its index in ``dataset``); labels are checked once, not
    once per batch.
    """
    batch_size = checked_int("batch_size", batch_size)
    check_labels([l for _, l in dataset.sequences])
    n = len(dataset)
    if seed is None:
        order = np.arange(n)
    else:
        rng = seed if isinstance(seed, np.random.Generator) \
            else np.random.default_rng(seed)
        order = rng.permutation(n)
    batches = []
    for start in range(0, n, batch_size):
        idx = order[start:start + batch_size]
        seqs = [dataset.sequences[i] for i in idx]
        t_max = max(f.shape[0] for f, _ in seqs)
        l_max = max(len(l) for _, l in seqs)
        features = np.zeros((len(seqs), t_max, dataset.feature_dim))
        labels = np.full((len(seqs), l_max), LABEL_PAD, dtype=np.int64)
        input_lengths = np.zeros(len(seqs), dtype=np.int64)
        label_lengths = np.zeros(len(seqs), dtype=np.int64)
        for i, (f, l) in enumerate(seqs):
            features[i, : f.shape[0]] = f
            labels[i, : len(l)] = l
            input_lengths[i] = f.shape[0]
            label_lengths[i] = len(l)
        batches.append(PaddedBatch(features, labels, input_lengths, label_lengths))
    return batches


def generate_synthetic(num_sequences, num_labels, feature_dim,
                       frames_per_label=(2, 4), noise_sigma=0.1, seed=0):
    """Unsegmented toy data: each label holds for a few noisy frames.

    Label sequences are uniform in length over [1, 5]; each label emits
    k ~ uniform(frames_per_label) frames carrying its one-hot in the
    first num_labels feature coordinates plus Gaussian noise of the
    given sigma on every coordinate. Deterministic in ``seed``. The
    counts must be integers >= 1 (``net.checked_int``), with
    feature_dim >= num_labels, and ``noise_sigma`` a finite number >= 0
    (``net.checked_real``).
    """
    num_sequences = checked_int("num_sequences", num_sequences)
    num_labels = checked_int("num_labels", num_labels)
    feature_dim = checked_int("feature_dim", feature_dim)
    if feature_dim < num_labels:
        raise ValueError(
            "feature_dim %d must be >= num_labels %d" % (feature_dim, num_labels)
        )
    lo, hi = frames_per_label
    lo = checked_int("frames_per_label[0]", lo)
    hi = checked_int("frames_per_label[1]", hi, lo)
    noise_sigma = checked_real("noise_sigma", noise_sigma, positive=False)

    rng = np.random.default_rng(seed)
    sequences = []
    for _ in range(num_sequences):
        length = int(rng.integers(1, 6))
        labels = rng.integers(0, num_labels, size=length)
        spans = rng.integers(lo, hi + 1, size=length)
        frames = np.zeros((int(spans.sum()), feature_dim))
        t = 0
        for label, span in zip(labels, spans):
            frames[t:t + span, label] = 1.0
            t += span
        frames += rng.normal(0.0, noise_sigma, size=frames.shape)
        sequences.append((frames, labels.tolist()))
    return Dataset(
        feature_dim=feature_dim, num_labels=num_labels, sequences=sequences
    )
