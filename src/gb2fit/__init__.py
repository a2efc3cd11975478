"""Estimation of income inequality from grouped data (Lorenz ordinates)
with the GB2 family of distributions."""

from .distributions import FamilySpec, GiniValue
from .estimate import FitResult, WeightingMatrix, gmm_fit, nls_fit
from .grouped import GroupedDataset, from_shares, lower_bound_gini
from .measures import McConfig, Microdata, atkinson_mc, sample_measures
from .synth import MIXTURE_PRESETS, GroupingPolicy, MixtureSpec

__all__ = [
    "FamilySpec",
    "GiniValue",
    "FitResult",
    "WeightingMatrix",
    "GroupedDataset",
    "McConfig",
    "Microdata",
    "MixtureSpec",
    "GroupingPolicy",
    "MIXTURE_PRESETS",
    "from_shares",
    "lower_bound_gini",
    "nls_fit",
    "gmm_fit",
    "atkinson_mc",
    "sample_measures",
]

__version__ = "0.1.0"
