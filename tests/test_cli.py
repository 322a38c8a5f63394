"""Command-line surface: exit codes, formats, determinism."""

import json

import numpy as np
import pytest

from ctckit.cli import cli_main
from ctckit.data import read_dataset
from ctckit.model import load_model

ARCH = {
    "feature_dim": 3,
    "num_labels": 3,
    "layers": [{"kind": "rnn", "units": 6, "bidirectional": True}],
}


def write_arch(tmp_path):
    path = tmp_path / "arch.json"
    path.write_text(json.dumps(ARCH))
    return str(path)


def run_pipeline(tmp_path, tag):
    data = str(tmp_path / f"data{tag}.jsonl")
    model_dir = str(tmp_path / f"model{tag}")
    report = str(tmp_path / f"report{tag}.json")
    assert cli_main(["gen-data", "--num", "30", "--labels", "3",
                     "--feature-dim", "3", "--sigma", "0.1",
                     "--seed", "5", "--out", data]) == 0
    assert cli_main(["train", "--config", write_arch(tmp_path),
                     "--data", data, "--epochs", "2", "--batch-size", "8",
                     "--lr", "1e-3", "--optimizer", "adam", "--seed", "3",
                     "--out", model_dir]) == 0
    assert cli_main(["evaluate", "--model", model_dir, "--data", data,
                     "--metrics", "loss,ler,ser", "--out", report]) == 0
    return data, model_dir, report


class TestPipeline:
    def test_deterministic_reports(self, tmp_path):
        data1, model1, report1 = run_pipeline(tmp_path, "a")
        data2, model2, report2 = run_pipeline(tmp_path, "b")
        assert open(data1, "rb").read() == open(data2, "rb").read()
        assert (
            open(f"{model1}/weights.ctcw", "rb").read()
            == open(f"{model2}/weights.ctcw", "rb").read()
        )
        assert open(report1, "rb").read() == open(report2, "rb").read()

    def test_predict_greedy_and_beam(self, tmp_path):
        data, model_dir, _ = run_pipeline(tmp_path, "p")
        out = str(tmp_path / "pred.jsonl")
        assert cli_main(["predict", "--model", model_dir, "--data", data,
                         "--greedy", "--out", out]) == 0
        lines = [json.loads(l) for l in open(out)]
        assert len(lines) == 30
        assert all(set(rec) == {"labels", "score"} for rec in lines)
        assert cli_main(["predict", "--model", model_dir, "--data", data,
                         "--beam-width", "4", "--top-paths", "2",
                         "--out", out]) == 0
        lines = [json.loads(l) for l in open(out)]
        assert len(lines) == 60  # two paths per sequence

    def test_loss_and_probas_outputs(self, tmp_path):
        data, model_dir, _ = run_pipeline(tmp_path, "l")
        loss_out = str(tmp_path / "loss.jsonl")
        probas_out = str(tmp_path / "probas.jsonl")
        assert cli_main(["loss", "--model", model_dir, "--data", data,
                         "--out", loss_out]) == 0
        losses = [json.loads(l)["loss"] for l in open(loss_out)]
        assert len(losses) == 30
        assert all(v >= 0 for v in losses)
        assert cli_main(["probas", "--model", model_dir, "--data", data,
                         "--out", probas_out]) == 0
        model = load_model(model_dir)
        dataset = read_dataset(data)
        expected = model.get_probas(dataset)
        for line, probs in zip(open(probas_out), expected):
            parsed = np.asarray(json.loads(line)["probas"])
            # decimal serialization round-trips float64 exactly
            np.testing.assert_array_equal(parsed, probs)

    def test_evaluate_metric_subset(self, tmp_path):
        data, model_dir, _ = run_pipeline(tmp_path, "m")
        out = str(tmp_path / "ser.json")
        assert cli_main(["evaluate", "--model", model_dir, "--data", data,
                         "--metrics", "ser", "--out", out]) == 0
        payload = json.loads(open(out).read())
        assert set(payload) == {"ser", "metadata"}
        assert payload["metadata"]["metrics"] == ["ser"]
        assert payload["metadata"]["num_sequences"] == 30


class TestExitCodes:
    def test_missing_model_dir_is_data_error(self, tmp_path, capsys):
        data = str(tmp_path / "d.jsonl")
        cli_main(["gen-data", "--num", "2", "--labels", "2",
                  "--feature-dim", "2", "--out", data])
        code = cli_main(["predict", "--model", str(tmp_path / "absent"),
                         "--data", data, "--out", str(tmp_path / "p.jsonl")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error[data]:")
        assert err.count("\n") == 1

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert cli_main(["transmogrify"]) == 1
        assert capsys.readouterr().err.startswith("error[usage]:")

    def test_missing_required_flag_is_usage_error(self, capsys):
        assert cli_main(["train", "--epochs", "1"]) == 1
        assert capsys.readouterr().err.startswith("error[usage]:")

    def test_unknown_metric_is_usage_error(self, tmp_path, capsys):
        data, model_dir, _ = run_pipeline(tmp_path, "u")
        capsys.readouterr()
        code = cli_main(["evaluate", "--model", model_dir, "--data", data,
                         "--metrics", "cer", "--out", str(tmp_path / "x")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error[usage]:")

    def test_top_paths_beyond_beam_width_is_usage_error(self, tmp_path, capsys):
        data, model_dir, _ = run_pipeline(tmp_path, "w")
        capsys.readouterr()
        for flags in (["--beam-width", "2", "--top-paths", "5"],
                      ["--beam-width", "0"], ["--top-paths", "0"]):
            code = cli_main(["predict", "--model", model_dir, "--data", data,
                             *flags, "--out", str(tmp_path / "x")])
            assert code == 1, flags
            assert capsys.readouterr().err.startswith("error[usage]:"), flags

    def test_greedy_with_beam_flags_is_usage_error(self, tmp_path, capsys):
        data, model_dir, _ = run_pipeline(tmp_path, "g")
        capsys.readouterr()
        code = cli_main(["predict", "--model", model_dir, "--data", data,
                         "--greedy", "--beam-width", "4",
                         "--out", str(tmp_path / "x")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error[usage]:")

    def test_malformed_dataset_is_data_error(self, tmp_path, capsys):
        data = tmp_path / "bad.jsonl"
        data.write_text('{"feature_dim": 2, "num_labels": 2}\n{broken\n')
        arch = write_arch(tmp_path)
        code = cli_main(["train", "--config", arch, "--data", str(data),
                         "--epochs", "1", "--out", str(tmp_path / "m")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error[data]:")
        assert "line 2" in err

    @pytest.mark.parametrize("lines", [
        ['{"feature_dim": "x", "num_labels": 3}'],
        ['{"feature_dim": 3, "num_labels": 3}',
         '{"features": [[0.0, NaN, 1.0]], "labels": [0]}'],
        ['{"feature_dim": 3, "num_labels": 3}',
         '{"features": [[0.0, 1.0, 0.5]], "labels": [0]}',
         '{"features": [[Infinity, 1.0, 0.5]], "labels": [1]}'],
    ])
    def test_bad_header_or_non_finite_feature_is_data_error(
            self, tmp_path, capsys, lines):
        data = tmp_path / "bad.jsonl"
        data.write_text("\n".join(lines) + "\n")
        code = cli_main(["train", "--config", write_arch(tmp_path),
                         "--data", str(data), "--epochs", "1",
                         "--out", str(tmp_path / "m")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error[data]:")
        assert "line %d" % len(lines) in err

    def test_config_dataset_mismatch_is_data_error(self, tmp_path, capsys):
        data = str(tmp_path / "d.jsonl")
        cli_main(["gen-data", "--num", "2", "--labels", "2",
                  "--feature-dim", "5", "--out", data])
        code = cli_main(["train", "--config", write_arch(tmp_path),
                         "--data", data, "--epochs", "1",
                         "--out", str(tmp_path / "m")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error[data]:")

    def test_help_exits_zero(self, capsys):
        assert cli_main(["--help"]) == 0
        capsys.readouterr()
