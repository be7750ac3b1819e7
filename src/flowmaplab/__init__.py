"""Desk-scale laboratory for flow-map generative models.

Everything runs on a small numpy autodiff engine in float64; the analytic
Gaussian oracle cross-checks every training identity independently.
"""

__version__ = "0.1.0"

from .nets import COND_NEGATIVE, COND_NULL, COND_POSITIVE, FlowMapModel, WeightNet
from .runtime import PhasePlan, SamplerConfig, sample, train

__all__ = [
    "COND_POSITIVE", "COND_NEGATIVE", "COND_NULL",
    "FlowMapModel", "WeightNet",
    "PhasePlan", "SamplerConfig", "sample", "train",
    "__version__",
]
