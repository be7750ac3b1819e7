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


def _hold_heap() -> None:
    """Keep freed arrays in this process's heap instead of handing them back.

    glibc trims the heap top above a threshold of twice the largest freed
    block, about 1 MB when no array exceeds 512 KB, so the tape that one
    step grows the heap by is returned when the step ends and the next step
    faults it back in.  Fixing both thresholds keeps it: setting either one
    turns the dynamic ones off, and a mmap threshold left at 128 KiB would
    mmap every 512 KB activation.  Off glibc this is a no-op.
    """
    import ctypes
    import os

    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, ValueError):
        return
    m_trim_threshold, m_mmap_threshold = -1, -3
    mallopt(m_mmap_threshold, 32 << 20)
    mallopt(m_trim_threshold, 64 << 20)


_hold_heap()
