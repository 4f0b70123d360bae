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
"""

from .core import (Band, FrequencyGrid, MultiChannelSeries, band_by_name,
                   cross_correlation, cross_covariance, demean,
                   max_lag_sq_correlation, standard_bands)
from .filters import (FirFilter, apply_filter, band_signals, design_fir_bandpass,
                      frequency_response)
from .spectrum import (CrossSpectralMatrix, SmoothingKernel, ar2_from_peak,
                       fourier_coefficients, periodogram,
                       shrink_spectral_estimate, smooth_periodogram,
                       var_spectrum)
from .coherence import (band_coherence, coherence, coherence_matrix, coherency,
                        estimate_spectrum, partial_coherence,
                        partial_coherence_residual, tv_coherence,
                        tv_partial_coherence)
from .dualfreq import band_dualfreq_coherence, dualfreq_coherence, local_fourier
from .pac import analytic_signal, modulation_index, pac_scan, phase_amplitude_distribution
from .var import (VarModel, fit_lassle, fit_lasso, fit_ols, fit_var,
                  granger_edges, pdc, select_order, simulate_var, spectral_var,
                  transfer_function, tv_pdc)
from .spca import (pca_decode, pca_encode, pca_fit, reconstruction_error,
                   spca_decode, spca_encode, spca_fit)
from .simulate import example, gen_sources, mix

__version__ = "0.1.0"
