"""The four benchmark workloads, each driven through ctckit's public API.

Every workload has the same shape:

- ``setup()`` makes the inputs from the workload seed and compiles the
  model; it is timed as ``setup_s``.
- ``untraced(run)`` performs one group of timed operations (a ``fit``
  call of a few epochs, an inference round, or a CLI pipeline), checks
  every output and records samples in ``run``. It returns its wall time.
- ``traced(run, tracer)`` does the same work with a span around every
  call into a layer and returns its wall time and whether its results
  matched the last untraced group bit for bit.

Why each workload exists is recorded in BENCHMARK.json and README.md.
"""

import contextlib
import io
import json
import math
import os
import shutil
import tempfile
import time

import numpy as np

from ctckit import (
    CtcModel,
    Dataset,
    LayerSpec,
    NetworkSpec,
    collapse,
    ctc_loss,
    generate_synthetic,
    label_error_rate,
    sequence_error_rate,
    write_dataset,
)
from ctckit.cli import cli_main

LONG_LABELS = 28
LONG_FEATURES = 40
LONG_SPEC = NetworkSpec(
    feature_dim=LONG_FEATURES,
    num_labels=LONG_LABELS,
    layers=(LayerSpec("lstm", 64, True), LayerSpec("lstm", 64, True)),
)
SHORT_SPEC = NetworkSpec(
    feature_dim=4, num_labels=4, layers=(LayerSpec("rnn", 32, True),)
)


def long_sequences(rng, count):
    """L in [20, 40] labels, each held 3-7 frames: T is about 60-280."""
    sequences = []
    for _ in range(count):
        length = int(rng.integers(20, 41))
        labels = rng.integers(0, LONG_LABELS, size=length)
        spans = rng.integers(3, 8, size=length)
        frames = np.zeros((int(spans.sum()), LONG_FEATURES))
        t = 0
        for label, span in zip(labels, spans):
            frames[t:t + span, label] = 1.0
            t += span
        frames += rng.normal(0.0, 0.3, size=frames.shape)
        sequences.append((frames, labels.tolist()))
    return Dataset(LONG_FEATURES, LONG_LABELS, sequences)


def frame_count(dataset):
    return sum(f.shape[0] for f, _ in dataset.sequences)


def same_params(a, b):
    return a.keys() == b.keys() and all(np.array_equal(a[k], b[k]) for k in a)


def finite_positive(values):
    return all(math.isfinite(v) and v > 0 for v in values)


class Training:
    """``CtcModel.fit`` from a fresh compile, ``epochs`` epochs per group."""

    unit = "epoch"

    def __init__(self, seed, make_data, spec, batch_size, epochs, clip_norm,
                 must_improve):
        self.seed = seed
        self.make_data = make_data
        self.spec = spec
        self.batch_size = batch_size
        self.epochs = epochs
        self.clip_norm = clip_norm
        self.must_improve = must_improve
        self.units_per_group = epochs
        self.reference = None  # (losses, params) of the first untraced group

    def setup(self):
        self.dataset = self.make_data(self.seed)
        self.frames = frame_count(self.dataset)
        return self.compile()

    def compile(self):
        return CtcModel.compile(self.spec, optimizer="adam",
                                learning_rate=1e-3, seed=self.seed)

    def _fit(self, model):
        return model.fit(self.dataset, epochs=self.epochs,
                         batch_size=self.batch_size, shuffle_seed=self.seed,
                         clip_norm=self.clip_norm)

    def untraced(self, run):
        model = self.compile()
        start = time.perf_counter()
        history = self._fit(model)
        wall = time.perf_counter() - start
        # timed by the benchmark's own clock, not by the EpochRecord.seconds
        # that fit reports about itself
        rate = self.frames * self.epochs / wall
        run.sample("fit_frames_per_s", rate)
        run.sample("frames_per_s", rate)
        losses = [r.train_loss for r in history]
        for i, record in enumerate(history):
            ok = finite_positive([record.train_loss])
            if i == len(history) - 1:
                ok = ok and self._run_checks(losses, model.params)
            run.operation(ok, "epoch %d loss %r" % (i, record.train_loss))
        run.sample("train_loss_last", losses[-1])
        self.last = (losses, model.params)
        return wall

    def _run_checks(self, losses, params):
        if self.must_improve and not losses[-1] < losses[0]:
            return False
        if self.reference is None:
            self.reference = (losses, params)
            return True
        # the same seed must give the same arithmetic on every repetition
        return losses == self.reference[0] and same_params(params, self.reference[1])

    def traced(self, run, tracer):
        """The same ``fit`` call with every layer function wrapped."""
        model = self.compile()
        start = time.perf_counter()
        with tracer.patched():
            history = self._fit(model)
        wall = time.perf_counter() - start
        losses = [r.train_loss for r in history]
        run.operation(finite_positive(losses), "traced losses %r" % losses)
        consistent = losses == self.last[0] and same_params(model.params, self.last[1])
        return wall, consistent


class Inference:
    """Predict (greedy and beam), get_loss, get_probas and evaluate."""

    unit = "round"
    units_per_group = 1
    BEAM_WIDTH = 16
    TOP_PATHS = 2

    def __init__(self, seed, count):
        self.seed = seed
        self.count = count
        self.reference = None

    def setup(self):
        self.dataset = long_sequences(np.random.default_rng(self.seed), self.count)
        self.features = [f for f, _ in self.dataset.sequences]
        self.truths = [list(l) for _, l in self.dataset.sequences]
        self.frames = frame_count(self.dataset)
        self.model = CtcModel.compile(LONG_SPEC, seed=self.seed)
        return self.model

    def _calls(self):
        m = self.model
        return {
            "predict_greedy": lambda: m.predict(self.features, greedy=True),
            "predict_beam": lambda: m.predict(
                self.features, greedy=False, beam_width=self.BEAM_WIDTH,
                top_paths=self.TOP_PATHS),
            "get_loss": lambda: m.get_loss(self.dataset),
            "get_probas": lambda: m.get_probas(self.dataset),
            "evaluate": lambda: m.evaluate(self.dataset,
                                           metrics=("loss", "ler", "ser")),
        }

    def untraced(self, run):
        out = {}
        start = time.perf_counter()
        for name, call in self._calls().items():
            t0 = time.perf_counter()
            out[name] = call()
            run.sample(name + "_seq_per_s", self.count / (time.perf_counter() - t0))
        wall = time.perf_counter() - start
        # every call reads all frames once: total frames over the round's
        # wall time, so each call weighs by its share of the round
        run.sample("frames_per_s", len(out) * self.frames / wall)
        for name, ok in self._checks(out).items():
            run.operation(ok, name)
        self.last = out
        return wall

    def _checks(self, out):
        blank = LONG_SPEC.num_classes - 1
        probas = out["get_probas"]
        greedy = [r.paths[0][0] for r in out["predict_greedy"]]
        losses = out["get_loss"]
        report = out["evaluate"]
        checks = {
            "get_probas": all(
                p.shape == (f.shape[0], blank + 1)
                and np.abs(p.sum(axis=1) - 1.0).max() < 1e-12
                for p, f in zip(probas, self.features)),
            "predict_greedy": all(
                g == collapse(p.argmax(axis=1), blank)
                for g, p in zip(greedy, probas)),
            "predict_beam": all(
                len(r.paths) == self.TOP_PATHS
                and all(s <= 0.0 for _, s in r.paths)
                and all(a[1] >= b[1] for a, b in zip(r.paths, r.paths[1:]))
                for r in out["predict_beam"]),
            "get_loss": finite_positive(losses) and all(
                abs(l - ctc_loss(p, t)) <= 1e-10 * abs(l)
                for l, p, t in zip(losses, probas, self.truths)),
            "evaluate": (
                abs(report.loss - float(np.mean(losses))) <= 1e-12 * report.loss
                and report.ler == [label_error_rate(g, t)
                                   for g, t in zip(greedy, self.truths)]
                and report.ser == sequence_error_rate(greedy, self.truths)),
        }
        if self.reference is None:
            self.reference = out
        else:
            # every round must reproduce the first one exactly
            for name in checks:
                checks[name] = checks[name] and _same_output(
                    out[name], self.reference[name])
        return checks

    def traced(self, run, tracer):
        """The same facade calls with every layer function wrapped."""
        start = time.perf_counter()
        with tracer.patched():
            out = {name: call() for name, call in self._calls().items()}
        wall = time.perf_counter() - start
        run.operation(finite_positive(out["get_loss"]), "traced get_loss")
        return wall, all(_same_output(out[name], self.last[name]) for name in out)


def _same_output(a, b):
    if hasattr(a, "loss"):  # MetricsReport
        return (a.loss, a.ler, a.ser) == (b.loss, b.ler, b.ser)
    if len(a) != len(b):
        return False
    for x, y in zip(a, b):
        if isinstance(x, np.ndarray):
            if not np.array_equal(x, y):
                return False
        elif getattr(x, "paths", x) != getattr(y, "paths", y):
            return False
    return True


class CliPipeline:
    """gen-data, train, evaluate, predict (greedy, beam), loss, probas."""

    unit = "pipeline"
    units_per_group = 1
    ARTIFACTS = ("train.jsonl", "held.jsonl", "model/architecture.json",
                 "model/hyperparams.json", "model/weights.ctcw",
                 "report.json", "greedy.jsonl", "beam.jsonl", "loss.jsonl",
                 "probas.jsonl")

    def __init__(self, seed, train_count, held_count, epochs, workdir):
        self.seed = seed
        self.train_count = train_count
        self.held_count = held_count
        self.epochs = epochs
        self.workdir = workdir
        self.reference = None  # artifact bytes of the first pipeline

    def setup(self):
        """The datasets gen-data must write, made through the library."""
        self.generated = {}
        self.frames = 0
        for path, count, seed in (("train.jsonl", self.train_count, self.seed),
                                  ("held.jsonl", self.held_count, self.seed + 1)):
            dataset = generate_synthetic(count, num_labels=4, feature_dim=4,
                                         noise_sigma=0.1, seed=seed)
            self.frames += frame_count(dataset)
            scratch = os.path.join(self.workdir, path)
            write_dataset(dataset, scratch)
            with open(scratch, "rb") as fh:
                self.generated[path] = fh.read()
            os.remove(scratch)
        return CtcModel.compile(SHORT_SPEC, seed=self.seed)

    def commands(self):
        """(span name, artifacts it writes, argv) in pipeline order."""
        s = str(self.seed)
        gen = ["gen-data", "--labels", "4", "--feature-dim", "4",
               "--sigma", "0.1"]
        held = ["--model", "model", "--data", "held.jsonl"]
        return [
            ("cli.gen_data", ("train.jsonl",), gen + [
                "--num", str(self.train_count), "--seed", s,
                "--out", "train.jsonl"]),
            ("cli.gen_data", ("held.jsonl",), gen + [
                "--num", str(self.held_count), "--seed", str(self.seed + 1),
                "--out", "held.jsonl"]),
            ("cli.train", ("model/architecture.json", "model/hyperparams.json",
                           "model/weights.ctcw"), [
                "train", "--config", "arch.json", "--data", "train.jsonl",
                "--val", "held.jsonl", "--epochs", str(self.epochs),
                "--batch-size", "16", "--lr", "1e-3", "--optimizer", "adam",
                "--seed", s, "--out", "model", "--clip-norm", "5.0"]),
            ("cli.evaluate", ("report.json",), ["evaluate"] + held + [
                "--metrics", "loss,ler,ser", "--out", "report.json"]),
            ("cli.predict_greedy", ("greedy.jsonl",), ["predict"] + held + [
                "--greedy", "--out", "greedy.jsonl"]),
            ("cli.predict_beam", ("beam.jsonl",), ["predict"] + held + [
                "--beam-width", "8", "--top-paths", "2",
                "--out", "beam.jsonl"]),
            ("cli.loss", ("loss.jsonl",), ["loss"] + held + ["--out", "loss.jsonl"]),
            ("cli.probas", ("probas.jsonl",), ["probas"] + held + [
                "--out", "probas.jsonl"]),
        ]

    def _pipeline(self, tracer=None):
        """Run every command in a fresh directory.

        Returns the wall time, (span name, seconds, exit code) per
        command, the bytes of every artifact written, and the captured
        stderr.
        """
        directory = tempfile.mkdtemp(prefix="pipeline-", dir=self.workdir)
        cwd = os.getcwd()
        spans = []
        stderr = io.StringIO()
        try:
            with open(os.path.join(directory, "arch.json"), "w") as fh:
                json.dump({"feature_dim": 4, "num_labels": 4, "layers": [
                    {"kind": "rnn", "units": 32, "bidirectional": True}]}, fh)
            os.chdir(directory)
            start = time.perf_counter()
            for name, _, argv in self.commands():
                t0 = time.perf_counter()
                with contextlib.redirect_stderr(stderr):
                    code = cli_main(argv)
                spans.append((name, time.perf_counter() - t0, code))
            wall = time.perf_counter() - start
            artifacts = {}
            for path in self.ARTIFACTS:
                if os.path.isfile(path):
                    with open(path, "rb") as fh:
                        artifacts[path] = fh.read()
        finally:
            os.chdir(cwd)
            shutil.rmtree(directory)
        if tracer is not None:
            for name, seconds, _ in spans:
                tracer.seconds[name] += seconds
        return wall, spans, artifacts, stderr.getvalue()

    def untraced(self, run):
        wall, spans, artifacts, log = self._pipeline()
        if self.reference is None:
            self.reference = dict(artifacts, **self.generated)
        for (name, _, code), (_, written, _) in zip(spans, self.commands()):
            ok = code == 0 and all(
                path in artifacts and artifacts[path] == self.reference[path]
                for path in written)
            run.operation(ok, "%s exit %d%s" % (
                name, code, ": " + log[-300:] if code else ", artifact differs"))
        run.sample("pipeline_s", wall)
        run.sample("frames_per_s", self.frames / wall)
        self.last = artifacts
        return wall

    def traced(self, run, tracer):
        with tracer.patched():
            wall, spans, artifacts, _ = self._pipeline(tracer)
        run.operation(all(code == 0 for _, _, code in spans), "traced pipeline")
        return wall, artifacts == self.last


def make_workload(name, seed, tiny, workdir):
    """Build a workload; ``tiny`` shrinks every input for the smoke test."""
    if name == "train-short":
        count = 40 if tiny else 500
        return Training(
            seed,
            lambda s: generate_synthetic(count, num_labels=4, feature_dim=4,
                                         noise_sigma=0.1, seed=s),
            SHORT_SPEC, batch_size=16, epochs=2 if tiny else 4,
            clip_norm=5.0, must_improve=True)
    if name == "train-long-lstm":
        count = 2 if tiny else 8
        return Training(
            seed,
            lambda s: long_sequences(np.random.default_rng(s), count),
            LONG_SPEC, batch_size=8, epochs=2, clip_norm=None,
            must_improve=False)
    if name == "infer-long":
        return Inference(seed, count=1 if tiny else 4)
    if name == "cli-pipeline":
        return CliPipeline(seed, train_count=20 if tiny else 300,
                           held_count=5 if tiny else 60,
                           epochs=1 if tiny else 2, workdir=workdir)
    raise KeyError(name)


WORKLOADS = ("train-short", "train-long-lstm", "infer-long", "cli-pipeline")
