"""Dataset IO, batching, and the synthetic generator."""

import numpy as np
import pytest

from ctckit.data import (
    Dataset,
    DatasetFormatError,
    LABEL_PAD,
    generate_synthetic,
    make_batches,
    read_dataset,
    write_dataset,
)


def tiny_dataset():
    rng = np.random.default_rng(0)
    sequences = [
        (rng.normal(0, 1, (4, 3)), [0, 1]),
        (rng.normal(0, 1, (2, 3)), []),
        (rng.normal(0, 1, (7, 3)), [1, 1, 0]),
        (rng.normal(0, 1, (3, 3)), [1]),
        (rng.normal(0, 1, (5, 3)), [0]),
    ]
    return Dataset(feature_dim=3, num_labels=2, sequences=sequences)


class TestReadWrite:
    def test_round_trip_is_exact(self, tmp_path):
        ds = tiny_dataset()
        path = tmp_path / "data.jsonl"
        write_dataset(ds, path)
        back = read_dataset(path)
        assert back.feature_dim == ds.feature_dim
        assert back.num_labels == ds.num_labels
        assert len(back) == len(ds)
        for (f1, l1), (f2, l2) in zip(ds.sequences, back.sequences):
            np.testing.assert_array_equal(f1, f2)  # bit-exact floats
            assert l1 == l2

    def test_valid_file(self, tmp_path):
        path = tmp_path / "ok.jsonl"
        path.write_text(
            '{"feature_dim": 2, "num_labels": 3}\n'
            '{"features": [[0.5, 1.0]], "labels": [2]}\n'
            '{"features": [[0, 0], [1, 1]], "labels": []}\n'
        )
        ds = read_dataset(path)
        assert len(ds) == 2

    def test_ragged_rows_name_the_line(self, tmp_path):
        path = tmp_path / "ragged.jsonl"
        path.write_text(
            '{"feature_dim": 2, "num_labels": 2}\n'
            '{"features": [[0, 0], [1]], "labels": [0]}\n'
        )
        with pytest.raises(DatasetFormatError, match="line 2"):
            read_dataset(path)

    def test_label_out_of_range(self, tmp_path):
        path = tmp_path / "range.jsonl"
        path.write_text(
            '{"feature_dim": 1, "num_labels": 2}\n'
            '{"features": [[0.0]], "labels": [2]}\n'
        )
        with pytest.raises(DatasetFormatError, match="line 2"):
            read_dataset(path)

    @pytest.mark.parametrize("labels", ["[true]", "[1.0]", '["1"]', "1"])
    def test_non_integer_labels_name_the_line(self, tmp_path, labels):
        path = tmp_path / "labels.jsonl"
        path.write_text(
            '{"feature_dim": 1, "num_labels": 2}\n'
            '{"features": [[0.0]], "labels": %s}\n' % labels
        )
        with pytest.raises(DatasetFormatError,
                           match="^line 2: labels must be a list of integers$"):
            read_dataset(path)

    def test_malformed_json_names_the_line(self, tmp_path):
        path = tmp_path / "broken.jsonl"
        path.write_text(
            '{"feature_dim": 1, "num_labels": 2}\n'
            '{"features": [[0.0]], "labels": [0]}\n'
            "{nope\n"
        )
        with pytest.raises(DatasetFormatError, match="line 3"):
            read_dataset(path)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(DatasetFormatError):
            read_dataset(path)

    def test_empty_features_rejected(self, tmp_path):
        path = tmp_path / "nof.jsonl"
        path.write_text(
            '{"feature_dim": 1, "num_labels": 2}\n'
            '{"features": [], "labels": [0]}\n'
        )
        with pytest.raises(DatasetFormatError, match="line 2"):
            read_dataset(path)


    @pytest.mark.parametrize("header", [
        '{"feature_dim": "x", "num_labels": 2}',
        '{"feature_dim": 1, "num_labels": [2]}',
        '{"feature_dim": 1.0, "num_labels": 2}',
        '{"feature_dim": 1, "num_labels": true}',
        '{"feature_dim": 0, "num_labels": 2}',
        pytest.param('{"feature_dim": %d, "num_labels": 2}' % 10 ** 400,
                     id="10**400"),
    ])
    def test_non_integer_header_names_the_line(self, tmp_path, header):
        path = tmp_path / "header.jsonl"
        path.write_text(header + "\n" + '{"features": [[0.0]], "labels": [0]}\n')
        with pytest.raises(DatasetFormatError, match="line 1"):
            read_dataset(path)

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_feature_names_the_line(self, tmp_path, value):
        # json.loads accepts these tokens; the reader must not
        path = tmp_path / "nan.jsonl"
        path.write_text(
            '{"feature_dim": 2, "num_labels": 2}\n'
            '{"features": [[0.0, 1.0]], "labels": [0]}\n'
            '{"features": [[0.0, %s]], "labels": [1]}\n' % value
        )
        with pytest.raises(DatasetFormatError, match="line 3"):
            read_dataset(path)


    @pytest.mark.parametrize("value", ['"1.5"', "true", "null", "[0.5]",
                                       "{}", str(10 ** 400)],
                             ids=["string", "bool", "null", "list", "object",
                                  "10**400"])
    def test_non_number_feature_names_the_line(self, tmp_path, value):
        # a JSON string or bool would parse as a float, and an int past
        # the float range would not convert
        path = tmp_path / "text.jsonl"
        path.write_text(
            '{"feature_dim": 2, "num_labels": 2}\n'
            '{"features": [[0.0, 1.0]], "labels": [0]}\n'
            '{"features": [[0.5, 1], [%s, 0.5]], "labels": [1]}\n' % value
        )
        with pytest.raises(DatasetFormatError, match="line 3"):
            read_dataset(path)

    def test_non_utf8_line_names_the_line(self, tmp_path):
        path = tmp_path / "latin1.jsonl"
        path.write_bytes(
            b'{"feature_dim": 1, "num_labels": 2}\n'
            b'{"features": [[0.5]], "labels": [0]}\n'
            b'{"features": [[0.5]], "labels": [1], "note": "caf\xe9"}\n'
        )
        with pytest.raises(DatasetFormatError, match="line 3: not UTF-8"):
            read_dataset(path)

    def test_crlf_lines_read(self, tmp_path):
        path = tmp_path / "crlf.jsonl"
        path.write_bytes(
            b'{"feature_dim": 1, "num_labels": 2}\r\n'
            b'\r\n'
            b'{"features": [[0.5]], "labels": [1]}\r\n'
        )
        assert read_dataset(path).sequences[0][1] == [1]


class TestMakeBatches:
    def test_batch_sizes(self):
        batches = make_batches(tiny_dataset(), 2, seed=0)
        assert [len(b) for b in batches] == [2, 2, 1]

    def test_single_sequence_no_padding(self):
        ds = tiny_dataset()
        ds.sequences = ds.sequences[:1]
        (batch,) = make_batches(ds, 4)
        assert batch.features.shape == (1, 4, 3)
        assert batch.input_lengths.tolist() == [4]
        np.testing.assert_array_equal(batch.features[0], ds.sequences[0][0])

    def test_deterministic_in_seed(self):
        a = make_batches(tiny_dataset(), 2, seed=13)
        b = make_batches(tiny_dataset(), 2, seed=13)
        for ba, bb in zip(a, b):
            np.testing.assert_array_equal(ba.features, bb.features)
            np.testing.assert_array_equal(ba.labels, bb.labels)

    def test_preserves_multiset_of_sequences(self):
        ds = tiny_dataset()
        batches = make_batches(ds, 2, seed=99)
        seen = []
        for batch in batches:
            for i in range(len(batch)):
                til = batch.input_lengths[i]
                ll = batch.label_lengths[i]
                seen.append((
                    batch.features[i, :til].tobytes(),
                    tuple(batch.labels[i, :ll].tolist()),
                ))
        expected = [(f.tobytes(), tuple(l)) for f, l in ds.sequences]
        assert sorted(seen) == sorted(expected)

    def test_padding_values(self):
        batches = make_batches(tiny_dataset(), 5, seed=None)
        batch = batches[0]
        for i in range(len(batch)):
            til = batch.input_lengths[i]
            ll = batch.label_lengths[i]
            assert not batch.features[i, til:].any()
            assert (batch.labels[i, ll:] == LABEL_PAD).all()

    def test_bad_batch_size(self):
        with pytest.raises(ValueError):
            make_batches(tiny_dataset(), 0)

    @pytest.mark.parametrize("size", [2.5, 2.0, "2", True])
    def test_batch_size_must_be_an_integer(self, size):
        with pytest.raises(ValueError, match="^batch_size must be an integer"):
            make_batches(tiny_dataset(), size)


class TestGenerateSynthetic:
    def test_noiseless_frames_decode_pointwise(self):
        # with sigma 0 a per-frame argmax classifier plus collapse
        # recovers the labels exactly (spans never repeat adjacently
        # without the frame value changing)
        ds = generate_synthetic(50, num_labels=3, feature_dim=5,
                                noise_sigma=0.0, seed=3)
        for features, labels in ds.sequences:
            assert set(np.unique(features)) <= {0.0, 1.0}
            frame_labels = features[:, :3].argmax(axis=1)
            merged = [frame_labels[0]]
            for v in frame_labels[1:]:
                if v != merged[-1]:
                    merged.append(v)
            collapsed_truth = [labels[0]]
            for v in labels[1:]:
                if v != collapsed_truth[-1]:
                    collapsed_truth.append(v)
            assert merged == collapsed_truth

    def test_deterministic(self):
        a = generate_synthetic(20, 4, 4, seed=8)
        b = generate_synthetic(20, 4, 4, seed=8)
        for (f1, l1), (f2, l2) in zip(a.sequences, b.sequences):
            np.testing.assert_array_equal(f1, f2)
            assert l1 == l2

    def test_frame_count_bounds(self):
        ds = generate_synthetic(500, num_labels=4, feature_dim=4, seed=5)
        total = sum(f.shape[0] for f, _ in ds.sequences)
        assert 2 * 1 * 500 <= total <= 4 * 5 * 500
        assert all(1 <= len(l) <= 5 for _, l in ds.sequences)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            generate_synthetic(10, num_labels=5, feature_dim=3)
        with pytest.raises(ValueError):
            generate_synthetic(0, num_labels=2, feature_dim=2)
        with pytest.raises(ValueError):
            generate_synthetic(10, 2, 2, noise_sigma=-0.1)
        with pytest.raises(ValueError):
            generate_synthetic(10, 2, 2, frames_per_label=(0, 4))

    @pytest.mark.parametrize("kwargs, name", [
        ({"num_sequences": 2.5}, "num_sequences"),
        ({"num_labels": 2.0}, "num_labels"),
        ({"feature_dim": "3"}, "feature_dim"),
        ({"frames_per_label": (1, 2.5)}, r"frames_per_label\[1\]"),
        ({"noise_sigma": float("nan")}, "noise_sigma"),
        ({"noise_sigma": float("inf")}, "noise_sigma"),
    ])
    def test_counts_are_integers_and_sigma_finite(self, kwargs, name):
        args = {"num_sequences": 4, "num_labels": 2, "feature_dim": 3, **kwargs}
        with pytest.raises(ValueError, match="^" + name):
            generate_synthetic(**args)
