"""Distribution-aware modelling of bounded multi-annotator signals.

Fits Beta distributions to per-window annotator consensus via moment
matching, derives higher-order descriptors in closed form, and trains small
moment-predicting networks against point-regressor baselines under
subject-independent cross-validation.
"""

__version__ = "0.1.0"

from .consensus import consensus_moments, fit_beta_arrays
from .metrics import PairedSeries, ccc, kl_beta_arrays, wilcoxon_signed_rank
from .pipeline import AnnotationTrace, FrameSeries, WindowConfig, WindowTable
from .special import digamma, inv_reg_inc_beta, log_gamma, reg_inc_beta
from .synthetic import SyntheticConfig

__all__ = [
    "PairedSeries",
    "AnnotationTrace",
    "FrameSeries",
    "WindowConfig",
    "WindowTable",
    "SyntheticConfig",
    "ccc",
    "consensus_moments",
    "digamma",
    "fit_beta_arrays",
    "inv_reg_inc_beta",
    "kl_beta_arrays",
    "log_gamma",
    "reg_inc_beta",
    "wilcoxon_signed_rank",
]
