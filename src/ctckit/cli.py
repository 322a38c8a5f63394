"""Command-line surface: train, predict, evaluate, loss, probas, gen-data.

Exit codes: 0 success, 1 usage error, 2 data error (files, formats,
infeasible sequences), 3 numeric error, 4 a failed worker process of
``train``. Errors print one
machine-parsable line to stderr in the form ``error[<kind>]: message``.

All commands are deterministic given their --seed: generated datasets,
trained weights, predictions, and metric reports are byte-identical
across repeated runs.
"""

import argparse
import json
import sys
from contextlib import contextmanager, suppress
from functools import lru_cache

from .data import (
    DatasetFormatError,
    _replacing,
    generate_synthetic,
    read_dataset,
    write_dataset,
)
from .lattice import InfeasibleAlignment
from .model import CtcModel, DecodeConfig, load_model, ModelLoadError, WorkerError
from .net import NonFiniteGradient, spec_from_dict


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; 2 is reserved for data errors here
    def error(self, message):
        raise UsageError(message)


def build_parser():
    parser = _Parser(prog="ctckit", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model on a JSONL dataset")
    p.add_argument("--config", required=True,
                   help="network architecture JSON file")
    p.add_argument("--data", required=True, help="training dataset (JSONL)")
    p.add_argument("--val", help="validation dataset (JSONL)")
    p.add_argument("--epochs", type=int, required=True)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--lr", type=float, default=1e-4)
    p.add_argument("--optimizer", choices=("sgd", "adam"), default="adam")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output model directory")
    p.add_argument("--clip-norm", type=float, default=None,
                   help="enable global-norm gradient clipping")

    p = sub.add_parser("predict", help="decode label sequences")
    p.add_argument("--model", required=True, help="model directory")
    p.add_argument("--data", required=True, help="dataset (JSONL)")
    p.add_argument("--greedy", action="store_true",
                   help="force best-path decoding")
    p.add_argument("--beam-width", type=int, default=None)
    p.add_argument("--top-paths", type=int, default=None)
    p.add_argument("--out", required=True, help="predictions output (JSONL)")

    p = sub.add_parser("evaluate", help="compute metrics on a dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--metrics", default="loss,ler,ser",
                   help="comma-separated subset of loss,ler,ser")
    p.add_argument("--out", required=True, help="metrics report (JSON)")

    p = sub.add_parser("loss", help="per-sequence negative log-likelihoods")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="losses output (JSONL)")

    p = sub.add_parser("probas", help="per-sequence posterior matrices")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="posteriors output (JSONL)")

    p = sub.add_parser("gen-data", help="generate a synthetic dataset")
    p.add_argument("--num", type=int, required=True)
    p.add_argument("--labels", type=int, required=True)
    p.add_argument("--feature-dim", type=int, required=True)
    p.add_argument("--sigma", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="dataset output (JSONL)")

    return parser


@lru_cache(maxsize=1)
def _parser():
    """``build_parser()``, built once a process. A parse keeps nothing in
    the parser: each returns a new namespace, and every default is an
    immutable scalar."""
    return build_parser()


def _check_fits(spec, dataset, source):
    """Raise DatasetFormatError unless ``dataset`` has ``spec``'s sizes."""
    for field in ("feature_dim", "num_labels"):
        if getattr(spec, field) != getattr(dataset, field):
            raise DatasetFormatError(
                "%s %s %d does not match dataset %s %d"
                % (source, field, getattr(spec, field), field,
                   getattr(dataset, field))
            )


def _load_architecture(path, dataset):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            spec = spec_from_dict(json.load(fh))
    except (OSError, ValueError) as err:
        raise DatasetFormatError("%s: %s" % (path, err)) from err
    _check_fits(spec, dataset, "config")
    return spec


def _load_model_and_data(args):
    model = load_model(args.model)
    dataset = read_dataset(args.data)
    _check_fits(model.spec, dataset, "model")
    return model, dataset


def _cmd_train(args):
    dataset = read_dataset(args.data)
    spec = _load_architecture(args.config, dataset)
    validation = None
    if args.val:
        validation = read_dataset(args.val)
        _check_fits(spec, validation, "config")
    try:
        model = CtcModel.compile(spec, optimizer=args.optimizer,
                                 learning_rate=args.lr, decode=DecodeConfig(),
                                 seed=args.seed)
    except MemoryError as err:  # sizes the spec takes but no memory holds
        raise DatasetFormatError("%s: %s" % (args.config, err)) from err
    history = model.fit(
        dataset,
        epochs=args.epochs,
        batch_size=args.batch_size,
        shuffle_seed=args.seed,
        validation=validation,
        clip_norm=args.clip_norm,
    )
    for epoch, record in enumerate(history, start=1):
        line = "epoch %d: loss %.6f" % (epoch, record.train_loss)
        if record.val_loss is not None:
            line += ", val_loss %.6f" % record.val_loss
        line += " (%.2fs)" % record.seconds
        print(line, file=sys.stderr)
    model.save(args.out)
    return 0


def _decode_overrides(args):
    """``predict``'s decode arguments; beam options alone ask for beam search."""
    if args.greedy and (args.beam_width is not None or args.top_paths is not None):
        raise UsageError("--greedy cannot be combined with beam options")
    return {"greedy": args.greedy or None, "beam_width": args.beam_width,
            "top_paths": args.top_paths}


@contextmanager
def _output(path):
    """A text file that replaces ``path`` once written whole (``_replacing``).

    An existing ``path`` is first opened for update, which changes
    nothing in it: one that may not be written is refused, as it was
    when outputs were written in place, though ``os.replace`` could
    replace it.
    """
    with suppress(FileNotFoundError):
        open(path, "r+").close()
    with _replacing(path) as tmp, open(tmp, "w", encoding="utf-8") as fh:
        yield fh


def _cmd_predict(args):
    overrides = _decode_overrides(args)
    model, dataset = _load_model_and_data(args)
    results = model.predict([f for f, _ in dataset.sequences], **overrides)
    with _output(args.out) as fh:
        for result in results:
            for labels, score in result.paths:
                fh.write(json.dumps(
                    {"labels": labels, "score": score}, sort_keys=True
                ) + "\n")
    return 0


def _cmd_evaluate(args):
    requested = tuple(m.strip() for m in args.metrics.split(",") if m.strip())
    if not requested:
        raise UsageError("--metrics must name at least one of loss,ler,ser")
    model, dataset = _load_model_and_data(args)
    report = model.evaluate(dataset, metrics=requested)
    payload = {
        "metadata": {
            "num_sequences": len(dataset),
            "decode": report.decode,
            "metrics": sorted(requested),
        }
    }
    if "loss" in requested:
        payload["loss"] = report.loss
    if "ler" in requested:
        payload["ler"] = report.ler
        payload["ler_mean"] = report.ler_mean
    if "ser" in requested:
        payload["ser"] = report.ser
    with _output(args.out) as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return 0


def _cmd_loss(args):
    model, dataset = _load_model_and_data(args)
    losses = model.get_loss(dataset)
    with _output(args.out) as fh:
        for value in losses:
            fh.write(json.dumps({"loss": value}) + "\n")
    return 0


def _cmd_probas(args):
    model, dataset = _load_model_and_data(args)
    matrices = model.get_probas(dataset)
    with _output(args.out) as fh:
        for probs in matrices:
            fh.write(json.dumps({"probas": probs.tolist()}) + "\n")
    return 0


def _cmd_gen_data(args):
    dataset = generate_synthetic(
        num_sequences=args.num,
        num_labels=args.labels,
        feature_dim=args.feature_dim,
        noise_sigma=args.sigma,
        seed=args.seed,
    )
    write_dataset(dataset, args.out)
    return 0


_COMMANDS = {
    "train": _cmd_train,
    "predict": _cmd_predict,
    "evaluate": _cmd_evaluate,
    "loss": _cmd_loss,
    "probas": _cmd_probas,
    "gen-data": _cmd_gen_data,
}


def _diagnose(kind, err):
    message = " ".join(str(err).split())
    print("error[%s]: %s" % (kind, message), file=sys.stderr)


def cli_main(argv):
    """Run one subcommand; returns the process exit code."""
    try:
        args = _parser().parse_args(argv)
    except UsageError as err:
        _diagnose("usage", err)
        return 1
    except SystemExit as err:  # --help
        return 0 if err.code in (0, None) else 1
    try:
        return _COMMANDS[args.command](args)
    except (UsageError, ValueError) as err:
        _diagnose("usage", err)
        return 1
    except (DatasetFormatError, ModelLoadError, InfeasibleAlignment,
            OSError) as err:
        _diagnose("data", err)
        return 2
    except (NonFiniteGradient, FloatingPointError) as err:
        _diagnose("numeric", err)
        return 3
    except WorkerError as err:
        _diagnose("worker", err)
        return 4


def main():
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
