"""The batched engine's invariants as properties over the spec space.

Each property runs a fixed number of derandomized examples, so the
suite draws the same cases on every run.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctckit import lattice, net
from ctckit import model as model_module
from ctckit.data import Dataset
from ctckit.model import CtcModel
from ctckit.net import LayerSpec, NetworkSpec
from ctckit.packing import STEP_BYTES, Packing

from oracles import (
    blockwise_gradient,
    blockwise_trellis,
    first_fit_groups,
    packing_maps,
    per_direction_backward,
    per_direction_forward,
    random_feasible_labels,
)

ENGINE = settings(max_examples=100, derandomize=True, deadline=None)

# units 1-17: a tanh-RNN's G·U columns cross the multiples of 8 at 8
# and 16, an LSTM's 4U at every other unit
layer_specs = st.builds(LayerSpec, st.sampled_from(["rnn", "lstm"]),
                        st.integers(1, 17), st.booleans())
network_specs = st.builds(NetworkSpec, feature_dim=st.integers(1, 9),
                          num_labels=st.integers(1, 9),
                          layers=st.lists(layer_specs, min_size=1, max_size=2))


@ENGINE
@given(spec=network_specs, data=st.data())
def test_backward_equals_the_per_direction_loops(spec, data):
    """``backward_packed`` gives the gradients of one BPTT loop per
    direction (``tests/oracles.py``) bit for bit."""
    lengths = sorted(data.draw(st.lists(st.integers(1, 12), min_size=1,
                                        max_size=5)), reverse=True)
    seed = data.draw(st.integers(0, 2 ** 16))
    params = net._init_flat_params(spec, seed)
    packing = Packing(lengths)
    rng = np.random.default_rng(seed)
    frames = rng.normal(0, 1, (packing.num_frames, spec.feature_dim))
    grad_logits = rng.normal(0, 1, (packing.num_frames, spec.num_classes))
    _, cache = net.forward_packed(spec, params, packing, frames)
    grads = net.backward_packed(spec, params, cache, grad_logits)
    _, ref_layers = net._one_blas_thread(per_direction_forward)(
        spec, params, packing, frames)
    ref_grads = net._one_blas_thread(per_direction_backward)(
        spec, params, packing, ref_layers, grad_logits)
    assert ref_grads.keys() == grads.keys()
    for name, ref in ref_grads.items():
        assert np.array_equal(grads[name], ref), name


@ENGINE
@given(spec=network_specs, data=st.data())
def test_losses_do_not_depend_on_the_groups(spec, data):
    """``model._gradients``' per-sequence losses are the same bits
    whatever ``ACTIVATION_BYTES`` splits the batch into, from one group
    to one a sequence."""
    lengths = data.draw(st.lists(st.integers(1, 12), min_size=1, max_size=7))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16)))
    sequences = [(rng.normal(0, 1, (t, spec.feature_dim)),
                  random_feasible_labels(rng, t, spec.num_classes, 4))
                 for t in lengths]
    model = CtcModel.compile(spec, seed=data.draw(st.integers(0, 99)))
    screened = model._screened_set(Dataset(spec.feature_dim, spec.num_labels,
                                           sequences))
    index = np.arange(len(lengths))
    per_frame = net.stored_bytes_per_frame(spec)
    budget_frames = data.draw(st.integers(1, sum(lengths)))

    def losses(budget):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(net, "ACTIVATION_BYTES", budget)
            count = len(net.activation_groups(spec, lengths))
            return count, model_module._gradients(spec, model.params,
                                                  screened, index)[0]

    one, whole = losses(sum(lengths) * per_frame + max(lengths) * STEP_BYTES)
    count, split = losses(budget_frames * per_frame)
    assert one == 1 and count >= 1
    assert whole.tobytes() == split.tobytes()


# non-increasing lengths: a single sequence, ties and runs of ones included
sorted_lengths = st.lists(st.integers(1, 9), min_size=1, max_size=8).map(
    lambda lengths: sorted(lengths, reverse=True))

PACKING_MAPS = ("lengths", "batch_sizes", "offsets", "time_of_row",
                "seq_of_row", "prev_rows", "last_rows", "reverse")


@ENGINE
@given(lengths=sorted_lengths)
def test_packing_equals_the_step_grid(lengths):
    """``Packing``'s row maps are those built from the step grid
    (``tests/oracles.py``), values and dtypes."""
    packing, ref = Packing(lengths), packing_maps(lengths)
    for name in PACKING_MAPS:
        ours, theirs = getattr(packing, name), getattr(ref, name)
        assert ours.dtype == theirs.dtype and np.array_equal(ours, theirs), name
    assert packing.steps == ref.steps
    assert packing.num_frames == ref.num_frames


@ENGINE
@given(spec=network_specs, data=st.data())
def test_activation_groups_equal_the_generator_search(spec, data):
    """``activation_groups`` makes the groups of a first-fit search by a
    generator per sequence, for budgets from one frame to all frames,
    lengths in any order and either pass."""
    lengths = data.draw(st.lists(st.integers(1, 30), min_size=1, max_size=12))
    for_backward = data.draw(st.booleans())
    per_frame = net.stored_bytes_per_frame(spec, for_backward)
    budget = (data.draw(st.integers(1, sum(lengths))) * per_frame
              + max(lengths) * STEP_BYTES)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(net, "ACTIVATION_BYTES", budget)
        groups = net.activation_groups(spec, lengths, for_backward)
    ref = first_fit_groups(lengths, per_frame, STEP_BYTES, budget)
    assert [g.tolist() for g in groups] == [g.tolist() for g in ref]
    assert all(g.dtype == np.int64 for g in groups)


@st.composite
def lattice_batches(draw):
    """A length-sorted batch for the lattice: feasible labels of 0 to
    L_max, from so few classes that adjacent repeats are common, past
    each label_len a padding the lattice must not read, and the
    log-probabilities of logits or of posteriors with exact zeros."""
    K = draw(st.integers(2, 4))
    lengths = draw(sorted_lengths)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    label_lists = []
    for t in lengths:
        labels = rng.integers(0, K - 1, size=int(rng.integers(0, t + 1))).tolist()
        while len(labels) + sum(a == b for a, b in zip(labels, labels[1:])) > t:
            labels.pop()
        label_lists.append(labels)
    width = max(map(len, label_lists)) + draw(st.integers(0, 2))
    labels = rng.integers(-1, K + 2, size=(len(lengths), width))
    for row, labels_b in zip(labels, label_lists):
        row[:len(labels_b)] = labels_b
    N = sum(lengths)
    if draw(st.booleans()):
        log_probs = net.log_softmax_rows(rng.normal(0, 3, (N, K)))
    else:
        probs = rng.random((N, K)) * (rng.random((N, K)) > 0.2)
        probs[:, -1] += 1e-3
        log_probs = lattice.log_posteriors(probs / probs.sum(axis=1, keepdims=True))
    return lengths, log_probs, labels, [len(l) for l in label_lists]


@ENGINE
@given(batch=lattice_batches(), directions=st.sampled_from([1, 2]))
def test_trellis_equals_the_blockwise_one(batch, directions):
    """``_trellis`` gives the alpha, beta and log-likelihoods of the
    lattice over 2-D row blocks (``tests/oracles.py``) bit for bit, and
    its cells index ext's classes, or one past log_probs past each
    sequence's own 2L + 1."""
    lengths, log_probs, labels, label_lengths = batch
    ref_packing = packing_maps(lengths)
    ext, *ref = blockwise_trellis(ref_packing, log_probs, labels,
                                  label_lengths, directions)
    cells, *ours = lattice._trellis(Packing(lengths), log_probs, labels,
                                    label_lengths, directions)
    for got, want in zip(ours, ref):
        assert (got is None) == (want is None)
        if got is not None:
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
    N, K = log_probs.shape
    seq = ref_packing.seq_of_row
    own = np.arange(ext.shape[1]) <= 2 * np.array(label_lengths)[seq][:, None]
    want = np.where(own, np.arange(N)[:, None] * K + ext[seq], N * K)
    assert np.array_equal(cells, want)


@ENGINE
@given(batch=lattice_batches())
def test_gradient_equals_the_blockwise_one(batch):
    """``ctc_gradient_packed``'s losses and gradients are those of the
    blockwise lattice, bit for bit."""
    lengths, log_probs, labels, label_lengths = batch
    if not np.isfinite(log_probs).all():  # logits are finite
        log_probs = np.nan_to_num(log_probs, neginf=-30.0)
    logits = log_probs + 1.5
    losses, grad = lattice.ctc_gradient_packed(Packing(lengths), logits,
                                               labels, label_lengths)
    ref_losses, ref_grad = blockwise_gradient(
        packing_maps(lengths), net.log_softmax_rows(logits), labels,
        label_lengths)
    assert losses.tobytes() == ref_losses.tobytes()
    assert grad.tobytes() == ref_grad.tobytes()
