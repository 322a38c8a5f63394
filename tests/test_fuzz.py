"""Fuzzed boundary input: corrupt files raise only typed errors.

Mutated bytes of a valid dataset or weights file, or mutated values of
a model's hyperparams.json or architecture.json, may parse, or may fail
with the reader's
own error (DatasetFormatError, ModelLoadError); the CLI may only return
one of its documented exit codes, with at most one ``error[...]`` line
on stderr.
"""

import contextlib
import copy
import dataclasses
import io
import json
import os
import struct
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctckit.cli import cli_main
from ctckit.data import (
    DatasetFormatError,
    generate_synthetic,
    read_dataset,
    write_dataset,
)
from ctckit.model import (
    ARCHITECTURE_FILE,
    HYPERPARAMS_FILE,
    WEIGHTS_FILE,
    CtcModel,
    ModelLoadError,
    load_model,
    read_weights,
    save_model,
)
from ctckit.net import LayerSpec, NetworkSpec

SPEC = NetworkSpec(feature_dim=3, num_labels=2,
                   layers=(LayerSpec("rnn", 4, True),))


def _valid_files():
    """Bytes of a small valid dataset and of SPEC's weights and
    hyperparams files."""
    with tempfile.TemporaryDirectory() as tmp:
        write_dataset(generate_synthetic(3, num_labels=2, feature_dim=3, seed=1),
                      os.path.join(tmp, "data"))
        save_model(CtcModel.compile(SPEC, seed=2), tmp)
        blobs = []
        for name in ("data", WEIGHTS_FILE, HYPERPARAMS_FILE):
            with open(os.path.join(tmp, name), "rb") as fh:
                blobs.append(fh.read())
        return blobs


DATASET, WEIGHTS, HYPERPARAMS_JSON = _valid_files()
HYPERPARAMS = json.loads(HYPERPARAMS_JSON)

# hyperparams.json entries, a dot reaching into "decode", that
# load_model must refuse with its own error, weights file or not
CORRUPT_HYPERPARAMS = [("decode.beam_width", "x"), ("seed", "abc"),
                       ("optimizer", "rmsprop"), ("decode.top_paths", 0),
                       ("decode.greedy", "no"), ("learning_rate", "1e-3"),
                       ("learning_rate", float("nan")),
                       ("learning_rate", float("inf")),
                       ("learning_rate", -1.0), ("learning_rate", True)]
# architecture.json values that load_model and train --config must
# refuse, set on the spec or, for a layer's key, on its one layer. The
# sizes are a fixed table: without a weights file load_model allocates
# units^2 values, so a drawn size could exhaust the machine's memory.
CORRUPT_ARCHITECTURE = [("feature_dim", float("inf")), ("units", float("nan")),
                        ("units", 4.5), ("num_labels", "2"),
                        ("feature_dim", True), ("units", 0),
                        ("num_labels", -1), ("bidirectional", "false"),
                        pytest.param("units", 10 ** 400, id="units-10**400"),
                        ("kind", "gru")]
HYPERPARAM_NAMES = ["optimizer", "learning_rate", "seed", "decode",
                    "decode.greedy", "decode.beam_width", "decode.top_paths"]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=4)

# Weights records followed by two values. For (2^31, 2^31, 4) and
# (2^32 - 1, 2^32 - 1) an int64 element count wraps to 0 or to a
# negative number, which passed the truncation check; 65 dimensions are
# more than numpy allows.
CORRUPT_SHAPES = [((2 ** 31, 2 ** 31, 4), "truncated"),
                  ((2 ** 32 - 1, 2 ** 32 - 1), "truncated"),
                  ((1,) * 65, "dimension")]


def corrupt_weights(shape):
    return (b"CTCW" + struct.pack("<II", 1, 1) + struct.pack("<H", 1) + b"a"
            + struct.pack("<B", len(shape))
            + struct.pack("<%dI" % len(shape), *shape)
            + struct.pack("<2d", 1.0, 2.0))


NON_UTF8_DATASET = (b'{"feature_dim": 3, "num_labels": 2}\n'
                    b'{"features": [[0.5, 0.5, 0.5]], "labels": [1], '
                    b'"note": "caf\xe9"}\n')


@st.composite
def mutated(draw, blob):
    """``blob`` with a few bytes overwritten, inserted or deleted, or cut."""
    out = bytearray(blob)
    for _ in range(draw(st.integers(1, 6))):
        at = draw(st.integers(0, len(out)))
        byte = draw(st.one_of(st.integers(0, 255), st.sampled_from(
            list(b'{}[]",:-.0123456789eE\n\xff'))))
        edit = draw(st.sampled_from(["set", "insert", "delete"]))
        if edit == "insert" or at == len(out):
            out.insert(at, byte)
        elif edit == "set":
            out[at] = byte
        else:
            del out[at]
    if draw(st.booleans()):
        out = out[:draw(st.integers(0, len(out)))]
    return bytes(out)


def with_entry(hyper, name, value=None, remove=False):
    """``hyper`` with entry ``name`` set to ``value``, or removed.

    Unchanged when the entry's parent is not a dict.
    """
    hyper = copy.deepcopy(hyper)
    *parents, key = name.split(".")
    parent = hyper
    for part in parents:
        parent = parent.get(part) if isinstance(parent, dict) else None
    if isinstance(parent, dict):
        if remove:
            parent.pop(key, None)
        else:
            parent[key] = value
    return hyper


@st.composite
def mutated_hyperparams(draw):
    """HYPERPARAMS with one to three entries set to any JSON value or removed."""
    hyper = HYPERPARAMS
    for name in draw(st.lists(st.sampled_from(HYPERPARAM_NAMES), min_size=1,
                              max_size=3, unique=True)):
        hyper = with_entry(hyper, name, draw(JSON_VALUES), draw(st.booleans()))
    return hyper


@contextlib.contextmanager
def files(**contents):
    """A temporary directory holding ``name=bytes`` files."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, blob in contents.items():
            with open(os.path.join(tmp, name), "wb") as fh:
                fh.write(blob)
        yield tmp


def run_cli(argv):
    """Exit code and stderr of one in-process ``cli_main`` call."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return code, err.getvalue()


def model_dir(tmp, weights):
    """A model directory of SPEC in ``tmp`` with the given weights bytes."""
    directory = os.path.join(tmp, "model")
    save_model(CtcModel.compile(SPEC, seed=2), directory)
    with open(os.path.join(directory, WEIGHTS_FILE), "wb") as fh:
        fh.write(weights)
    return directory


def hyperparams_dir(tmp, hyper, weights=True):
    """A model directory of SPEC in ``tmp`` whose hyperparams.json holds
    ``hyper``; without ``weights`` it has no weights file."""
    directory = model_dir(tmp, WEIGHTS)
    with open(os.path.join(directory, HYPERPARAMS_FILE), "w") as fh:
        json.dump(hyper, fh)
    if not weights:
        os.remove(os.path.join(directory, WEIGHTS_FILE))
    return directory


def corrupt_architecture(name, value):
    """SPEC's architecture.json text with entry ``name`` set to ``value``."""
    arch = dataclasses.asdict(SPEC)
    (arch if name in arch else arch["layers"][0])[name] = value
    return json.dumps(arch)


def assert_one_diagnostic(code, err):
    assert code in (0, 1, 2, 3), err
    lines = [l for l in err.splitlines() if l.startswith("error[")]
    assert len(lines) == (0 if code == 0 else 1), err


class TestReaders:
    @settings(max_examples=300, deadline=None)
    @given(blob=mutated(DATASET))
    def test_dataset_reader_raises_only_its_error(self, blob):
        with files(data=blob) as tmp:
            try:
                read_dataset(os.path.join(tmp, "data"))
            except DatasetFormatError:
                pass

    @settings(max_examples=300, deadline=None)
    @given(blob=mutated(WEIGHTS))
    def test_weights_reader_raises_only_its_error(self, blob):
        with files(weights=blob) as tmp:
            try:
                read_weights(os.path.join(tmp, "weights"))
            except ModelLoadError:
                pass

    @settings(max_examples=200, deadline=None)
    @given(hyper=mutated_hyperparams(), weights=st.booleans())
    def test_model_loader_raises_only_its_error(self, hyper, weights):
        with tempfile.TemporaryDirectory() as tmp:
            try:
                model = load_model(hyperparams_dir(tmp, hyper, weights))
            except ModelLoadError:
                return
        # what loads, decodes with its defaults
        assert len(model.predict([[[0.5, 0.5, 0.5]] * 3])) == 1

    @pytest.mark.parametrize("weights", [True, False])
    @pytest.mark.parametrize("name, value", CORRUPT_HYPERPARAMS)
    def test_corrupt_hyperparams_are_load_errors(self, name, value, weights):
        hyper = with_entry(HYPERPARAMS, name, value)
        with tempfile.TemporaryDirectory() as tmp:
            with pytest.raises(ModelLoadError, match=r"%s: .*%s"
                               % (HYPERPARAMS_FILE, name.split(".")[-1])):
                load_model(hyperparams_dir(tmp, hyper, weights))

    @pytest.mark.parametrize("name, value", CORRUPT_ARCHITECTURE)
    def test_corrupt_architecture_is_load_error(self, name, value):
        with tempfile.TemporaryDirectory() as tmp:
            directory = hyperparams_dir(tmp, HYPERPARAMS, weights=False)
            with open(os.path.join(directory, ARCHITECTURE_FILE), "w") as fh:
                fh.write(corrupt_architecture(name, value))
            with pytest.raises(ModelLoadError,
                               match=r"%s: .*%s" % (ARCHITECTURE_FILE, name)):
                load_model(directory)

    @pytest.mark.parametrize("shape, message", CORRUPT_SHAPES)
    def test_corrupt_shape_is_load_error(self, shape, message):
        with files(weights=corrupt_weights(shape)) as tmp:
            with pytest.raises(ModelLoadError, match=message):
                read_weights(os.path.join(tmp, "weights"))

    def test_non_utf8_dataset_is_format_error(self):
        with files(data=NON_UTF8_DATASET) as tmp:
            with pytest.raises(DatasetFormatError, match="line 2"):
                read_dataset(os.path.join(tmp, "data"))


COMMANDS = {
    "predict": ["--greedy"],
    "evaluate": ["--metrics", "loss,ler,ser"],
    "loss": [],
    "probas": [],
}


class TestCli:
    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_exit_codes_on_corrupt_files(self, data):
        command = data.draw(st.sampled_from(sorted(COMMANDS) + ["train"]))
        blob = DATASET
        weights = WEIGHTS
        if data.draw(st.booleans()):
            blob = data.draw(mutated(DATASET))
        else:
            weights = data.draw(mutated(WEIGHTS))
        with files(data=blob) as tmp:
            data_path = os.path.join(tmp, "data")
            out = os.path.join(tmp, "out")
            if command == "train":
                with open(os.path.join(tmp, "arch.json"), "w") as fh:
                    fh.write('{"feature_dim": 3, "num_labels": 2, "layers": '
                             '[{"kind": "rnn", "units": 3, '
                             '"bidirectional": true}]}')
                argv = ["train", "--config", os.path.join(tmp, "arch.json"),
                        "--data", data_path, "--epochs", "1", "--out", out]
            else:
                argv = [command, "--model", model_dir(tmp, weights),
                        "--data", data_path, *COMMANDS[command], "--out", out]
            assert_one_diagnostic(*run_cli(argv))

    @settings(max_examples=60, deadline=None)
    @given(hyper=mutated_hyperparams(), command=st.sampled_from(sorted(COMMANDS)))
    def test_exit_codes_on_corrupt_hyperparams(self, hyper, command):
        with files(data=DATASET) as tmp:
            code, err = run_cli([command, "--model", hyperparams_dir(tmp, hyper),
                                 "--data", os.path.join(tmp, "data"),
                                 *COMMANDS[command],
                                 "--out", os.path.join(tmp, "out")])
        assert code in (0, 2), err
        assert_one_diagnostic(code, err)

    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    @pytest.mark.parametrize("name, value", CORRUPT_HYPERPARAMS)
    def test_corrupt_hyperparams_exit_2(self, name, value, command):
        hyper = with_entry(HYPERPARAMS, name, value)
        with files(data=DATASET) as tmp:
            code, err = run_cli([command, "--model",
                                 hyperparams_dir(tmp, hyper, weights=False),
                                 "--data", os.path.join(tmp, "data"),
                                 "--out", os.path.join(tmp, "out")])
        assert code == 2
        assert err.startswith("error[data]:") and HYPERPARAMS_FILE in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("name, value", CORRUPT_ARCHITECTURE)
    def test_corrupt_architecture_exits_2(self, name, value):
        with files(data=DATASET,
                   arch=corrupt_architecture(name, value).encode()) as tmp:
            out = os.path.join(tmp, "out")
            code, err = run_cli(["train", "--config", os.path.join(tmp, "arch"),
                                 "--data", os.path.join(tmp, "data"),
                                 "--epochs", "1", "--out", out])
            assert not os.path.exists(out)
        assert code == 2
        assert err.startswith("error[data]:") and name in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("shape, message", CORRUPT_SHAPES)
    def test_corrupt_shape_exits_2(self, shape, message):
        with files(data=DATASET) as tmp:
            code, err = run_cli(["predict", "--model",
                                 model_dir(tmp, corrupt_weights(shape)),
                                 "--data", os.path.join(tmp, "data"),
                                 "--out", os.path.join(tmp, "out")])
        assert code == 2
        assert err.startswith("error[data]:") and message in err
        assert err.count("\n") == 1

    def test_non_utf8_dataset_exits_2(self):
        with files(data=NON_UTF8_DATASET) as tmp:
            code, err = run_cli(["predict", "--model", model_dir(tmp, WEIGHTS),
                                 "--data", os.path.join(tmp, "data"),
                                 "--out", os.path.join(tmp, "out")])
        assert code == 2
        assert err.startswith("error[data]: line 2: not UTF-8")
