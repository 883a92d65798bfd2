"""Distribution-aware modelling of bounded multi-annotator signals.

Fits Beta distributions to per-window annotator consensus via moment
matching, derives higher-order descriptors in closed form, and trains small
moment-predicting networks against point-regressor baselines under
subject-independent cross-validation.
"""

__version__ = "0.1.0"

from .consensus import (
    BetaParams,
    DescriptorSet,
    MomentPair,
    beta_excess_kurtosis,
    beta_mean_std,
    beta_median_approx,
    beta_pdf,
    beta_quantile,
    beta_skewness,
    clamp_moments,
    consensus_moments,
    descriptors,
    moment_match,
)
from .metrics import PairedSeries, ccc, kl_beta, mse, wilcoxon_signed_rank
from .pipeline import AnnotationTrace, FrameSeries, WindowConfig, WindowTable
from .special import digamma, inv_reg_inc_beta, log_gamma, reg_inc_beta
from .synthetic import SyntheticConfig

__all__ = [
    "BetaParams",
    "DescriptorSet",
    "MomentPair",
    "PairedSeries",
    "AnnotationTrace",
    "FrameSeries",
    "WindowConfig",
    "WindowTable",
    "SyntheticConfig",
    "beta_excess_kurtosis",
    "beta_mean_std",
    "beta_median_approx",
    "beta_pdf",
    "beta_quantile",
    "beta_skewness",
    "ccc",
    "clamp_moments",
    "consensus_moments",
    "descriptors",
    "digamma",
    "inv_reg_inc_beta",
    "kl_beta",
    "log_gamma",
    "moment_match",
    "mse",
    "reg_inc_beta",
    "wilcoxon_signed_rank",
]
