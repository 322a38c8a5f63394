"""Spans and work counts around calls into ctckit's public functions.

Nothing here reaches inside ``src/ctckit``: a ``Tracer`` wraps the
public functions of each layer (``data``, ``net``, ``lattice``,
``decode``, ``metrics``, ``model``) so that every call records its wall
time and the work it did. Every traced workload makes the same
``fit``, facade or CLI calls as its untraced run, with the wrapped
functions swapped into the module namespaces the facade and the CLI
look them up in, for the duration of a ``with`` block.

Spans of the wrapped layer functions never nest, so their sum is the
time spent inside the library's layers and the rest of a traced
operation is facade (``model``) and CLI overhead.
"""

import contextlib
import os
import time
from collections import defaultdict

from ctckit import cli, data, decode, lattice, metrics, model, net

# layer span name -> (defining module, function name, module whose
# namespace the facade or the CLI looks the function up in at call
# time). ``model`` calls the net functions through its ``net`` module
# attribute, so patching ``ctckit.net`` reaches them.
LAYER_FUNCTIONS = {
    "data.make_batches": (data, "make_batches", model),
    "data.read_dataset": (data, "read_dataset", cli),
    "data.write_dataset": (data, "write_dataset", cli),
    "net.forward": (net, "forward", net),
    "net.backward": (net, "backward", net),
    "net.clip": (net, "clip_by_global_norm", net),
    "net.optimizer_step": (net, "optimizer_step", net),
    "lattice.ctc_gradient": (lattice, "ctc_gradient", model),
    "lattice.ctc_loss": (lattice, "ctc_loss", model),
    "decode.best_path": (decode, "best_path_decode", model),
    "decode.beam": (decode, "beam_search_decode", model),
    "metrics.label_error_rate": (metrics, "label_error_rate", model),
    "model.save": (model, "save_model", model),
    "model.load": (model, "load_model", cli),
}


def forward_flop(spec, frames):
    """Matmul flops of one network forward pass over ``frames``.

    A multiply-add counts as two flops; element-wise work is left out.
    Backward does twice this (weight outer products plus input and
    recurrent back-projections).
    """
    total = 0
    width = spec.feature_dim
    for layer in spec.layers:
        gates = 4 if layer.kind == "lstm" else 1
        dirs = 2 if layer.bidirectional else 1
        total += dirs * gates * 2 * frames * (width * layer.units + layer.units ** 2)
        width = layer.width
    total += 2 * frames * width * spec.num_classes
    return total


class Tracer:
    """Accumulated span seconds and work counts, keyed by layer name."""

    def __init__(self):
        self.seconds = defaultdict(float)
        self.counts = defaultdict(float)
        self.functions = {
            name: self._wrap(name, getattr(module, attr))
            for name, (module, attr, _) in LAYER_FUNCTIONS.items()
        }

    def _wrap(self, name, fn):
        count = getattr(self, "_count_" + name.replace(".", "_"), None)

        def traced(*args, **kwargs):
            start = time.perf_counter()
            out = fn(*args, **kwargs)
            self.seconds[name] += time.perf_counter() - start
            self.counts[name + ".calls"] += 1
            if count is not None:
                count(out, *args, **kwargs)
            return out

        return traced

    # -- work counts, computed from argument shapes and true lengths ----

    def _count_net_forward(self, out, spec, params, features, input_len=None):
        frames = features.shape[0] if input_len is None else input_len
        self.counts["net.flop"] += forward_flop(spec, frames)

    def _count_net_backward(self, out, spec, params, cache, grad_logits):
        self.counts["net.flop"] += 2 * forward_flop(spec, cache.input_len)

    def _count_net_clip(self, out, grads, max_norm):
        self.counts["net.clip_events"] += out is not grads

    def _count_lattice_ctc_gradient(self, out, logits, labels, input_len=None,
                                    label_len=None):
        frames = logits.shape[0] if input_len is None else input_len
        n_labels = len(labels) if label_len is None else label_len
        self.counts["lattice.cells"] += frames * (2 * n_labels + 1)

    def _count_lattice_ctc_loss(self, out, probs, labels, input_len=None,
                                label_len=None):
        self._count_lattice_ctc_gradient(out, probs, labels, input_len, label_len)

    def _count_decode_beam(self, out, probs, input_len=None, **kwargs):
        self.counts["decode.beam_frames"] += (
            probs.shape[0] if input_len is None else input_len
        )

    def _count_data_make_batches(self, out, dataset, batch_size, seed=None):
        for batch in out:
            self.counts["data.padded_frames"] += batch.features.shape[0] * batch.features.shape[1]
            self.counts["data.true_frames"] += int(batch.input_lengths.sum())

    def _count_data_read_dataset(self, out, path):
        self.counts["data.jsonl_bytes"] += os.path.getsize(path)

    def _count_data_write_dataset(self, out, dataset, path):
        self.counts["data.jsonl_bytes"] += os.path.getsize(path)

    def _count_model_save(self, out, saved_model, directory):
        self.counts["model.weights_bytes"] += os.path.getsize(
            os.path.join(directory, model.WEIGHTS_FILE)
        )

    @contextlib.contextmanager
    def patched(self):
        """Route the facade's and the CLI's calls through the wrappers."""
        saved = []
        try:
            for name, (_, attr, site) in LAYER_FUNCTIONS.items():
                saved.append((site, attr, getattr(site, attr)))
                setattr(site, attr, self.functions[name])
            yield self
        finally:
            for site, attr, fn in reversed(saved):
                setattr(site, attr, fn)
