"""Data-free neuron pruning for dense feedforward networks.

Workflow: train or load a classifier, build the pairwise removal-cost
matrix for a hidden layer, iteratively merge the most similar neurons
(folding outgoing coefficients so the function is preserved where pairs
are truly redundant), then pick how far to go either from the saliency
histogram alone or by sampling the error curve.
"""

from .cutoff import (
    CutoffMethod,
    CutoffReport,
    SaliencyHistogram,
    data_driven_cutoff,
    data_free_cutoff,
    histogram,
)
from .data import Dataset, load_csv, make_blobs
from .model_io import (
    ModelFormatError,
    ModelVersionError,
    export_curve,
    export_report_json,
    export_trace,
    import_trace,
    load_model,
    save_model,
)
from .network import (
    Activation,
    FcLayer,
    Network,
    RescaleResult,
    WeightSet,
    delete_neuron,
    forward_batch,
    layer_sizes,
    merge_neurons,
    param_count,
    rescale_relu_layer,
)
from .pruning import (
    PolicyKind,
    PrunePolicy,
    PruneStep,
    PruneTrace,
    compression_percent,
    neuron_removal_params,
    prune_layer,
    prune_network,
    prune_one,
    replay_trace,
)
from .saliency import (
    DIAGONAL_SENTINEL,
    BoundSample,
    ContractionReport,
    SaliencyMatrix,
    SimilarityMode,
    build_saliency_matrix,
    heuristic_similarity,
    mean_outgoing_square,
    raw_difference,
    verify_bound,
    verify_contraction,
)
from .training import (
    TrainConfig,
    TrainingDiverged,
    compare_policies,
    evaluate,
    replay_error_oracle,
    trace_error_curve,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "Activation",
    "BoundSample",
    "ContractionReport",
    "CutoffMethod",
    "CutoffReport",
    "DIAGONAL_SENTINEL",
    "Dataset",
    "FcLayer",
    "ModelFormatError",
    "ModelVersionError",
    "Network",
    "PolicyKind",
    "PrunePolicy",
    "PruneStep",
    "PruneTrace",
    "RescaleResult",
    "SaliencyHistogram",
    "SaliencyMatrix",
    "SimilarityMode",
    "TrainConfig",
    "TrainingDiverged",
    "WeightSet",
    "build_saliency_matrix",
    "compare_policies",
    "compression_percent",
    "data_driven_cutoff",
    "data_free_cutoff",
    "delete_neuron",
    "evaluate",
    "export_curve",
    "export_report_json",
    "export_trace",
    "forward_batch",
    "heuristic_similarity",
    "histogram",
    "import_trace",
    "layer_sizes",
    "load_csv",
    "load_model",
    "make_blobs",
    "mean_outgoing_square",
    "merge_neurons",
    "neuron_removal_params",
    "param_count",
    "prune_layer",
    "prune_network",
    "prune_one",
    "raw_difference",
    "replay_error_oracle",
    "replay_trace",
    "rescale_relu_layer",
    "save_model",
    "trace_error_curve",
    "train",
    "verify_bound",
    "verify_contraction",
]
