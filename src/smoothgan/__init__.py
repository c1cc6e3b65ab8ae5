"""Numerical laboratory for the smoothness of GAN losses.

Divergence losses with closed-form optimal discriminators, estimators for
the discriminator regularity constants, inf-convolution envelopes, spectral
normalized network bounds, and a particle-generator trainer that checks the
gradient-descent stationarity guarantee at the prescribed learning rate.
"""

from .divergences import KernelSpec, LossKind
from .envelopes import GridFn
from .measures import BoxDomain, DiscreteMeasure
from .nnsmooth import MlpNet
from .smoothness import OracleFamily, SmoothnessReport
from .trainer import GanLoopConfig, TrainConfig, TrainTrace

__version__ = "0.1.0"

__all__ = [
    "BoxDomain",
    "DiscreteMeasure",
    "GanLoopConfig",
    "GridFn",
    "KernelSpec",
    "LossKind",
    "MlpNet",
    "OracleFamily",
    "SmoothnessReport",
    "TrainConfig",
    "TrainTrace",
    "__version__",
]
