"""Spectral dependence measures for multivariate time series.

Submodules
----------
core      containers, bands, frequency grid, lag-domain correlation
filters   FIR design and causal / zero-phase application
spectrum  cross-spectral matrix estimation (periodogram, smoothing, VAR
          spectra, AR(2) oscillators, shrinkage)
coherence coherence and partial coherence, static and time-varying
dualfreq  dual-frequency (cross-oscillation) coherence
pac       phase-amplitude coupling (modulation index)
var       VAR fitting, PDC, Granger edges, spectral-VAR causality
spca      classical and spectral PCA
simulate  seeded generators for the worked examples
cli       command-line interface

Each submodule is registered lazily: ``specdep.var`` and
``sys.modules["specdep.var"]`` exist from the start, but the module's code is
compiled and run only when one of its attributes is first read.  A CLI
process then pays only for the modules its subcommand uses.  The names below
are read from their submodule at each access (PEP 562) and not kept here, so
the submodule's attribute stays their one binding.
"""

import importlib.util
import sys

# package-level name -> the submodule that defines it
_EXPORTS = {name: module for module, names in {
    "core": "Band FrequencyGrid MultiChannelSeries band_by_name cross_covariance demean "
            "max_lag_sq_correlation standard_bands",
    "filters": "FirFilter apply_filter band_signals design_fir_bandpass frequency_response",
    "spectrum": "CrossSpectralMatrix SmoothingKernel ar2_from_peak fourier_coefficients "
                "periodogram shrink_spectral_estimate smooth_periodogram var_spectrum",
    "coherence": "band_coherence coherence coherence_matrix coherency estimate_spectrum "
                 "partial_coherence partial_coherence_residual tv_coherence "
                 "tv_partial_coherence",
    "dualfreq": "band_dualfreq_coherence dualfreq_coherence local_fourier",
    "pac": "analytic_signal modulation_index pac_scan phase_amplitude_distribution",
    "var": "VarModel fit_lassle fit_lasso fit_ols fit_var granger_edges pdc select_order "
           "simulate_var spectral_var transfer_function tv_pdc",
    "spca": "pca_decode pca_encode pca_fit reconstruction_error spca_decode spca_encode "
            "spca_fit",
    "simulate": "example gen_sources mix",
}.items() for name in names.split()}

__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def _register_lazy(name):
    """Put submodule ``name`` into sys.modules and onto the package unexecuted
    (the ``importlib.util.LazyLoader`` recipe of the importlib docs)."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    if name not in _EXPORTS:  # the function coherence keeps its package name
        globals()[name] = module


for _name in dict.fromkeys(_EXPORTS.values()):
    _register_lazy(_name)
del _name


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)


def __dir__():
    return sorted({*globals(), *_EXPORTS})
