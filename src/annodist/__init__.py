"""Distribution-aware modelling of bounded multi-annotator signals.

Fits Beta distributions to per-window annotator consensus via moment
matching, derives higher-order descriptors in closed form, and trains small
moment-predicting networks against point-regressor baselines under
subject-independent cross-validation.

The names in ``__all__`` are loaded on first access (PEP 562), so importing
the package, or a module of it such as :mod:`annodist.cli`, loads no NumPy
and no module that is not used.
"""

import importlib

__version__ = "0.1.0"

# Each exported name, by the module that defines it.
_EXPORTS = {
    "config": ("SyntheticConfig", "WindowConfig"),
    "consensus": ("consensus_moments", "fit_beta_arrays"),
    "metrics": ("PairedSeries", "ccc", "kl_beta_arrays", "wilcoxon_signed_rank"),
    "pipeline": ("AnnotationTrace", "FrameSeries", "WindowTable"),
    "special": ("digamma", "inv_reg_inc_beta", "log_gamma", "reg_inc_beta"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
