"""Contextual-stream batch repulsion for diversity in toy diffusion transformers.

The package is organized around a small linear-algebra core (``linalg``), the
spectral diversity objective and its analytic gradient (``vendi``), the
inner-loop repulsion update with scheduling (``repulsion``), a desk-scale
multimodal attention transformer with between-block hooks (``toydit``), a
representation steering operator (``steering``), an analytic Gaussian-mixture
rectified-flow testbed (``gmmflow``), and a command-line front end (``cli``).
"""

from .linalg import (
    ContextBatch,
    DegenerateVector,
    NonConvergence,
    SymMatrix,
    cosine_kernel,
    rbf_kernel,
)
from .vendi import (
    DiversityValue,
    average_pair_vendi,
    entropy_and_score,
    entropy_gradient,
)
from .repulsion import (
    PRESETS,
    NumericOverflow,
    RepulsionConfig,
    repulse,
    should_apply,
)

__all__ = [
    "ContextBatch",
    "DegenerateVector",
    "DiversityValue",
    "NonConvergence",
    "NumericOverflow",
    "PRESETS",
    "RepulsionConfig",
    "SymMatrix",
    "average_pair_vendi",
    "cosine_kernel",
    "entropy_and_score",
    "entropy_gradient",
    "rbf_kernel",
    "repulse",
    "should_apply",
]
