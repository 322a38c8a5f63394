"""The batched engine's invariants as properties over the spec space.

Each property runs a fixed number of derandomized examples, so the
suite draws the same cases on every run.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctckit import model as model_module
from ctckit import net
from ctckit.data import Dataset
from ctckit.model import CtcModel
from ctckit.net import LayerSpec, NetworkSpec
from ctckit.packing import STEP_BYTES, Packing

from oracles import per_direction_backward, per_direction_forward, random_feasible_labels

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
