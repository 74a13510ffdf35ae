"""Data-free neuron pruning for dense feedforward networks.

Workflow: train or load a classifier, build the pairwise removal-cost
matrix for a hidden layer, iteratively merge the most similar neurons
(folding outgoing coefficients so the function is preserved where pairs
are truly redundant), then pick how far to go either from the saliency
histogram alone or by sampling the error curve.

Each module's ``__all__`` states what it exports; the package re-exports
all of them, so a public name is added or removed in its module alone.
"""

from . import cutoff, data, model_io, network, pruning, saliency, training
from .cutoff import *
from .data import *
from .model_io import *
from .network import *
from .pruning import *
from .saliency import *
from .training import *

__version__ = "0.1.0"

__all__ = [
    *cutoff.__all__,
    *data.__all__,
    *model_io.__all__,
    *network.__all__,
    *pruning.__all__,
    *saliency.__all__,
    *training.__all__,
]
