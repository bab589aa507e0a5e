from .bwf import BwfFeatures, compute_bwf
from .df import DfFeatures, compute_df
from .pf import PfFeatures, compute_pf
from .tf import TF_GROUPS, TfFeatures, compute_tf

__all__ = [
    "BwfFeatures", "DfFeatures", "PfFeatures", "TF_GROUPS", "TfFeatures",
    "compute_bwf", "compute_df", "compute_pf", "compute_tf",
]
