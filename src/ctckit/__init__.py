"""Self-contained connectionist temporal classification toolkit.

Log-space CTC loss with analytic gradients, four decoders, edit-distance
metrics, a small trainable bidirectional recurrent network, and a
train/predict/evaluate model facade with a CLI. Pure numpy; no learning
framework involved.
"""

from .data import (
    Dataset,
    DatasetFormatError,
    PaddedBatch,
    generate_synthetic,
    make_batches,
    read_dataset,
    write_dataset,
)
from .decode import (
    BudgetExceeded,
    DecodeResult,
    beam_search_decode,
    best_path_decode,
    exact_decode,
    prefix_search_decode,
)
from .flat import FlatTensors, as_flat
from .lattice import (
    InfeasibleAlignment,
    Lattice,
    collapse,
    ctc_backward,
    ctc_forward,
    ctc_gradient,
    ctc_loss,
    ctc_loss_batch,
    extend_with_blanks,
    log_sum_exp,
    make_lattice,
)
from .metrics import (
    MetricsReport,
    edit_distance,
    label_error_rate,
    sequence_error_rate,
)
from .model import (
    CtcModel,
    DecodeConfig,
    EpochRecord,
    ModelLoadError,
    load_model,
    save_model,
)
from .net import (
    LayerSpec,
    NetworkSpec,
    NonFiniteGradient,
    OptimizerState,
    backward,
    clip_by_global_norm,
    forward,
    init_optimizer,
    init_params,
    optimizer_step,
    param_shapes,
)

__version__ = "0.1.0"
