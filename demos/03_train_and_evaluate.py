#!/usr/bin/env python3
"""Train a small bidirectional network end to end on synthetic data.

Each sequence is a few labels, each emitting 2-4 noisy one-hot frames;
the network never sees frame-level alignment, only (features, labels)
pairs, and learns the alignment through the CTC objective.
"""

import tempfile

import numpy as np

from ctckit import (
    CtcModel,
    LayerSpec,
    NetworkSpec,
    generate_synthetic,
    load_model,
)

train = generate_synthetic(300, num_labels=4, feature_dim=4,
                           noise_sigma=0.1, seed=2024)
held_out = generate_synthetic(60, num_labels=4, feature_dim=4,
                              noise_sigma=0.1, seed=2025)

spec = NetworkSpec(
    feature_dim=4,
    num_labels=4,
    layers=(LayerSpec("rnn", 32, bidirectional=True),),
)
model = CtcModel.compile(spec, optimizer="adam", learning_rate=1e-3, seed=7)

for record in model.fit(train, epochs=15, batch_size=16, shuffle_seed=7,
                        validation=held_out):
    print(f"train loss {record.train_loss:7.4f}   "
          f"val loss {record.val_loss:7.4f}   ({record.seconds:.2f}s)")

report = model.evaluate(held_out, metrics=("loss", "ler", "ser"))
print(f"\nheld-out: loss {report.loss:.4f}  "
      f"mean LER {report.ler_mean:.4f}  SER {report.ser:.4f}")

# a couple of decodes next to their references
features = [f for f, _ in held_out.sequences[:5]]
for result, (_, truth) in zip(model.predict(features),
                              held_out.sequences[:5]):
    print(f"truth {truth!r:18} decoded {result.paths[0][0]!r}")

# per-sequence posteriors are available directly; rows are distributions
# over the labels plus the blank (last column)
posterior = model.get_probas(features[:1])[0]
print(f"\nposterior matrix shape {posterior.shape}, "
      f"row sums {posterior.sum(axis=1).round(12).min()}..."
      f"{posterior.sum(axis=1).round(12).max()}")

# persistence round trip: predictions are bit-identical after reload
with tempfile.TemporaryDirectory() as model_dir:
    model.save(model_dir)
    reloaded = load_model(model_dir)
same = all(
    a.paths == b.paths
    for a, b in zip(model.predict(features), reloaded.predict(features))
)
print(f"reloaded model reproduces predictions exactly: {same}")
