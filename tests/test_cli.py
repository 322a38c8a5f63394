"""Command-line surface: exit codes, formats, determinism."""

import builtins
import json
import os

import numpy as np
import pytest

from ctckit import cli, net
from ctckit import data as data_module
from ctckit import model as model_module
from ctckit.cli import cli_main
from ctckit.data import Dataset, make_batches, read_dataset
from ctckit.model import CtcModel, load_model
from ctckit.net import spec_from_dict

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

    def test_parses_in_a_row_share_no_state(self, monkeypatch, capsys):
        """The parser is built once a process; each parse starts afresh."""
        seen = []
        monkeypatch.setitem(cli._COMMANDS, "gen-data",
                            lambda args: seen.append(vars(args)) or 0)
        gen = ["gen-data", "--feature-dim", "2", "--out", "d.jsonl"]
        assert cli_main(gen + ["--num", "3", "--labels", "2", "--sigma", "0.5",
                               "--seed", "7"]) == 0
        assert cli_main(gen + ["--num", "x", "--labels", "2"]) == 1
        assert capsys.readouterr().err.startswith("error[usage]:")
        assert cli_main(gen + ["--num", "4", "--labels", "3"]) == 0
        assert seen == [
            {"command": "gen-data", "num": 3, "labels": 2, "feature_dim": 2,
             "sigma": 0.5, "seed": 7, "out": "d.jsonl"},
            {"command": "gen-data", "num": 4, "labels": 3, "feature_dim": 2,
             "sigma": 0.1, "seed": 0, "out": "d.jsonl"},
        ]
        assert cli._parser() is cli._parser()

    def test_missing_required_flag_is_usage_error(self, capsys):
        assert cli_main(["train", "--epochs", "1"]) == 1
        assert capsys.readouterr().err.startswith("error[usage]:")

    @pytest.mark.parametrize("rate", ["nan", "inf", "-0.001"])
    def test_bad_learning_rate_is_usage_error(self, tmp_path, capsys, rate):
        data = str(tmp_path / "d.jsonl")
        assert cli_main(["gen-data", "--num", "20", "--labels", "3",
                         "--feature-dim", "3", "--out", data]) == 0
        code = cli_main(["train", "--config", write_arch(tmp_path),
                         "--data", data, "--epochs", "2", "--lr", rate,
                         "--out", str(tmp_path / "model")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error[usage]: learning_rate")
        assert err.count("\n") == 1
        assert not os.path.exists(tmp_path / "model")

    @pytest.mark.parametrize("flag, value, name", [
        ("--clip-norm", "-5", "clip_norm"), ("--clip-norm", "0", "clip_norm"),
        ("--clip-norm", "nan", "clip_norm"), ("--epochs", "-2", "epochs")])
    def test_bad_clip_norm_or_epochs_is_usage_error(self, tmp_path, capsys,
                                                    flag, value, name):
        data = str(tmp_path / "d.jsonl")
        assert cli_main(["gen-data", "--num", "20", "--labels", "3",
                         "--feature-dim", "3", "--out", data]) == 0
        argv = ["train", "--config", write_arch(tmp_path), "--data", data,
                "--epochs", "2", "--out", str(tmp_path / "model")]
        code = cli_main(argv + [flag, value])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error[usage]: " + name)
        assert err.count("\n") == 1
        assert not os.path.exists(tmp_path / "model")

    @pytest.mark.parametrize("metrics, message", [
        ("cer", "error[usage]:"),
        (",", "error[usage]: --metrics must name at least one of loss,ler,ser\n"),
    ])
    def test_unknown_metric_is_usage_error(self, tmp_path, capsys, metrics,
                                           message):
        data, model_dir, _ = run_pipeline(tmp_path, "u")
        capsys.readouterr()
        code = cli_main(["evaluate", "--model", model_dir, "--data", data,
                         "--metrics", metrics, "--out", str(tmp_path / "x")])
        assert code == 1
        assert capsys.readouterr().err.startswith(message)
        assert not (tmp_path / "x").exists()

    def test_non_finite_gradient_is_numeric_error(self, tmp_path, capsys,
                                                  monkeypatch):
        data = str(tmp_path / "d.jsonl")
        assert cli_main(["gen-data", "--num", "4", "--labels", "3",
                         "--feature-dim", "3", "--out", data]) == 0
        backward = net.backward_packed

        def poisoned(*args):
            grads = backward(*args)
            grads["output.b"][0] = np.inf
            return grads

        monkeypatch.setattr(net, "backward_packed", poisoned)
        code = cli_main(["train", "--config", write_arch(tmp_path),
                         "--data", data, "--epochs", "1",
                         "--out", str(tmp_path / "m")])
        assert code == 3
        assert capsys.readouterr().err == (
            "error[numeric]: epoch 0, batch 0: non-finite gradient in tensor "
            "output.b\n")
        assert not (tmp_path / "m").exists()

    def test_a_nan_gradient_is_named_with_clip_norm(self, tmp_path, capsys,
                                                    monkeypatch):
        data = str(tmp_path / "d.jsonl")
        assert cli_main(["gen-data", "--num", "4", "--labels", "3",
                         "--feature-dim", "3", "--out", data]) == 0
        backward = net.backward_packed

        def poisoned(*args):
            grads = backward(*args)
            grads["output.b"][0] = np.nan
            return grads

        monkeypatch.setattr(net, "backward_packed", poisoned)
        code = cli_main(["train", "--config", write_arch(tmp_path),
                         "--data", data, "--epochs", "1", "--clip-norm", "5.0",
                         "--out", str(tmp_path / "m")])
        assert code == 3
        assert capsys.readouterr().err == (
            "error[numeric]: epoch 0, batch 0: non-finite gradient in tensor "
            "output.b\n")
        assert not (tmp_path / "m").exists()

    def test_a_worker_that_dies_is_a_worker_error(self, tmp_path, capsys,
                                                  monkeypatch):
        """A train whose fit worker exits mid-batch exits 4, with no
        traceback and no model written."""
        if not model_module._can_fork():
            pytest.skip("fit forks no worker on one usable CPU")
        data = str(tmp_path / "d.jsonl")
        assert cli_main(["gen-data", "--num", "10", "--labels", "3",
                         "--feature-dim", "3", "--out", data]) == 0
        # a budget of 5 frames, so that each batch runs in several groups
        monkeypatch.setattr(net, "ACTIVATION_BYTES", 5 * net.stored_bytes_per_frame(
            spec_from_dict(ARCH)))
        parent, group_gradients = os.getpid(), model_module._group_gradients

        def dying(*args):
            if os.getpid() != parent:
                os._exit(7)
            return group_gradients(*args)

        monkeypatch.setattr(model_module, "_group_gradients", dying)
        code = cli_main(["train", "--config", write_arch(tmp_path),
                         "--data", data, "--epochs", "2", "--batch-size", "4",
                         "--out", str(tmp_path / "m")])
        assert code == 4
        assert capsys.readouterr().err == (
            "error[worker]: fit's worker process exited with code 7\n")
        assert not (tmp_path / "m").exists()

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

    @pytest.mark.parametrize("command", ["train", "predict", "evaluate",
                                         "loss", "probas"])
    @pytest.mark.parametrize("value", ['"0.5"', "true", str(10 ** 400)],
                             ids=["string", "bool", "10**400"])
    def test_non_number_feature_is_data_error(self, tmp_path, capsys,
                                              command, value):
        data = tmp_path / "bad.jsonl"
        data.write_text('{"feature_dim": 3, "num_labels": 3}\n'
                        '{"features": [[0.0, %s, 1.0]], "labels": [0]}\n' % value)
        if command == "train":
            argv = ["train", "--config", write_arch(tmp_path), "--epochs", "1"]
        else:
            model_dir = str(tmp_path / "model")
            CtcModel.compile(spec_from_dict(ARCH)).save(model_dir)
            argv = [command, "--model", model_dir]
        code = cli_main(argv + ["--data", str(data), "--out", str(tmp_path / "x")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error[data]: line 2: non-")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("field, value", [
        ("feature_dim", float("inf")), ("bidirectional", "false"),
        ("units", 4.5)])
    def test_bad_architecture_in_model_is_data_error(self, tmp_path, capsys,
                                                     field, value):
        data = str(tmp_path / "d.jsonl")
        assert cli_main(["gen-data", "--num", "2", "--labels", "3",
                         "--feature-dim", "3", "--out", data]) == 0
        model_dir = tmp_path / "model"
        CtcModel.compile(spec_from_dict(ARCH)).save(model_dir)
        arch = json.loads(json.dumps(ARCH))
        (arch if field in arch else arch["layers"][0])[field] = value
        (model_dir / "architecture.json").write_text(json.dumps(arch))
        code = cli_main(["predict", "--model", str(model_dir), "--data", data,
                         "--out", str(tmp_path / "x")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error[data]:") and "architecture.json" in err
        assert field in err and err.count("\n") == 1

    @pytest.mark.parametrize("sigma", ["nan", "inf", "-0.5"])
    def test_bad_sigma_is_usage_error(self, tmp_path, capsys, sigma):
        out = tmp_path / "d.jsonl"
        code = cli_main(["gen-data", "--num", "2", "--labels", "2",
                         "--feature-dim", "2", "--sigma", sigma,
                         "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.startswith(
            "error[usage]: noise_sigma must be a finite number >= 0")
        assert not out.exists()

    def test_config_dataset_mismatch_is_data_error(self, tmp_path, capsys):
        data = str(tmp_path / "d.jsonl")
        cli_main(["gen-data", "--num", "2", "--labels", "2",
                  "--feature-dim", "5", "--out", data])
        code = cli_main(["train", "--config", write_arch(tmp_path),
                         "--data", data, "--epochs", "1",
                         "--out", str(tmp_path / "m")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error[data]:")

    def test_val_dataset_mismatch_is_data_error_before_training(
            self, tmp_path, capsys):
        data, val = str(tmp_path / "d.jsonl"), str(tmp_path / "v.jsonl")
        cli_main(["gen-data", "--num", "4", "--labels", "3",
                  "--feature-dim", "3", "--out", data])
        cli_main(["gen-data", "--num", "2", "--labels", "3",
                  "--feature-dim", "5", "--out", val])
        code = cli_main(["train", "--config", write_arch(tmp_path),
                         "--data", data, "--val", val, "--epochs", "1",
                         "--out", str(tmp_path / "m")])
        assert code == 2
        assert capsys.readouterr().err == (
            "error[data]: config feature_dim 3 does not match dataset "
            "feature_dim 5\n")
        assert not (tmp_path / "m").exists()

    @pytest.mark.parametrize("command", ["train", "predict"])
    def test_architecture_too_large_to_allocate_is_data_error(
            self, tmp_path, capsys, command):
        # 142 PiB of parameters: more than any address space, so the
        # allocation fails at once
        data = str(tmp_path / "d.jsonl")
        cli_main(["gen-data", "--num", "2", "--labels", "3",
                  "--feature-dim", "3", "--out", data])
        arch = json.loads(json.dumps(ARCH))
        arch["layers"][0]["units"] = 100000000
        model_dir = tmp_path / "model"
        CtcModel.compile(spec_from_dict(ARCH)).save(model_dir)
        (model_dir / "weights.ctcw").unlink()
        (model_dir / "architecture.json").write_text(json.dumps(arch))
        if command == "train":
            argv = ["train", "--config", str(model_dir / "architecture.json"),
                    "--epochs", "1"]
        else:
            argv = ["predict", "--model", str(model_dir)]
        code = cli_main(argv + ["--data", data, "--out", str(tmp_path / "x")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error[data]: %s: Unable to allocate"
                              % (model_dir / "architecture.json"))
        assert err.count("\n") == 1
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("command", ["predict", "evaluate", "loss", "probas"])
    def test_model_dataset_mismatch_is_data_error(self, tmp_path, capsys,
                                                  command):
        _, model_dir, _ = run_pipeline(tmp_path, "x")
        data = str(tmp_path / "wide.jsonl")
        cli_main(["gen-data", "--num", "2", "--labels", "3",
                  "--feature-dim", "6", "--out", data])
        capsys.readouterr()
        code = cli_main([command, "--model", model_dir, "--data", data,
                         "--out", str(tmp_path / "x")])
        assert code == 2
        err = capsys.readouterr().err
        assert err == ("error[data]: model feature_dim 3 does not match "
                       "dataset feature_dim 6\n")

    def test_unwritable_out_is_data_error(self, tmp_path, capsys, monkeypatch):
        # the tests run as root, where chmod denies nothing
        data, model_dir, _ = run_pipeline(tmp_path, "o")
        out = str(tmp_path / "pred.jsonl")

        def deny(path, *args, **kwargs):
            if os.fspath(path) == out:
                raise PermissionError(13, "Permission denied", out)
            return builtins.open(path, *args, **kwargs)

        monkeypatch.setattr(cli, "open", deny, raising=False)
        capsys.readouterr()
        code = cli_main(["predict", "--model", model_dir, "--data", data,
                         "--out", out])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error[data]:") and "Permission denied" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("metrics", ["loss", "ler", "loss,ler,ser"])
    def test_evaluate_on_empty_dataset_is_one_line(self, tmp_path, capsys,
                                                   metrics):
        _, model_dir, _ = run_pipeline(tmp_path, "e")
        data = tmp_path / "empty.jsonl"
        data.write_text('{"feature_dim": 3, "num_labels": 3}\n')
        report = tmp_path / "report.json"
        capsys.readouterr()
        code = cli_main(["evaluate", "--model", model_dir, "--data", str(data),
                         "--metrics", metrics, "--out", str(report)])
        assert code == 1
        assert capsys.readouterr().err == (
            "error[usage]: evaluation dataset is empty\n")
        assert not report.exists()

    def test_help_exits_zero(self, capsys):
        assert cli_main(["--help"]) == 0
        capsys.readouterr()


class TestFarApartLogits:
    """Losses of logits far apart are finite, and the outputs strict JSON."""

    def test_evaluate_and_loss_write_the_training_loss(self, tmp_path):
        data = str(tmp_path / "d.jsonl")
        cli_main(["gen-data", "--num", "3", "--labels", "3",
                  "--feature-dim", "3", "--seed", "4", "--out", data])
        model = CtcModel.compile(spec_from_dict(ARCH), learning_rate=0.0,
                                 optimizer="sgd")
        model.params["output.W"][...] = 0.0
        model.params["output.b"][...] = [0.0, 0.0, 0.0, 800.0]
        model.save(tmp_path / "model")
        dataset = read_dataset(data)
        losses = [model.train_on_batch(make_batches(
            Dataset(3, 3, [seq]), 1)[0]) for seq in dataset.sequences]
        assert np.isfinite(losses).all()

        def strict(text):
            def refuse(constant):
                raise ValueError("not JSON: %s" % constant)
            return json.loads(text, parse_constant=refuse)

        report, loss_out = tmp_path / "report.json", tmp_path / "loss.jsonl"
        model_dir = str(tmp_path / "model")
        assert cli_main(["evaluate", "--model", model_dir, "--data", data,
                         "--metrics", "loss", "--out", str(report)]) == 0
        assert strict(report.read_text())["loss"] == float(np.mean(losses))
        assert cli_main(["loss", "--model", model_dir, "--data", data,
                         "--out", str(loss_out)]) == 0
        assert [strict(line)["loss"] for line in
                loss_out.read_text().splitlines()] == losses


class TestOutputsReplacedWhole:
    """A command whose writer fails halfway leaves its old output as it was.

    Every output goes to a temporary file that replaces the old one only
    once it is complete, so no truncated file whose complete lines still
    parse is left behind, and no temporary file either.
    """

    @pytest.mark.parametrize("command", ["predict", "evaluate", "loss",
                                         "probas", "gen-data"])
    def test_a_failed_write_leaves_the_old_output(self, tmp_path, monkeypatch,
                                                  capsys, command):
        data, model_dir, _ = run_pipeline(tmp_path, "w")
        out = tmp_path / "out.jsonl"
        out.write_bytes(b'{"old": true}\n')
        listing = sorted(os.listdir(tmp_path))
        held = ["--model", model_dir, "--data", data, "--out", str(out)]
        argv = {
            "predict": ["predict", "--greedy"] + held,
            "evaluate": ["evaluate", "--metrics", "loss,ler"] + held,
            "loss": ["loss"] + held,
            "probas": ["probas"] + held,
            "gen-data": ["gen-data", "--num", "4", "--labels", "3",
                         "--feature-dim", "3", "--seed", "1",
                         "--out", str(out)],
        }[command]

        def open_failing(path, mode="r", *args, **kwargs):
            fh = builtins.open(path, mode, *args, **kwargs)
            if "w" in mode:
                write = fh.write

                def write_half(text):
                    write(text[:len(text) // 2])
                    raise OSError(28, "No space left on device", path)

                fh.write = write_half
            return fh

        # the CLI opens its outputs; write_dataset opens the dataset
        module = data_module if command == "gen-data" else cli
        monkeypatch.setattr(module, "open", open_failing, raising=False)
        capsys.readouterr()
        assert cli_main(argv) == 2
        assert "No space left on device" in capsys.readouterr().err
        assert out.read_bytes() == b'{"old": true}\n'
        assert sorted(os.listdir(tmp_path)) == listing
