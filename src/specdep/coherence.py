"""Coherence and partial coherence, static and time-varying.

Coherency tau_pq(w) = f_pq / sqrt(f_pp f_qq) and coherence |tau|^2 come from
a cross-spectral matrix.  Band coherence works directly on band-filtered
signals as the maximal squared lagged cross-correlation.  Partial coherence
conditions on all remaining channels through the inverse spectral matrix, or
on a single channel through regression residuals of filtered signals; both
matrix forms normalize m_pq / sqrt(m_pp m_qq), of f and of its inverse,
on the w >= 0 half of f and unfold the result to the whole grid.
Time-varying versions run :func:`estimate_spectrum` on each window.
"""

from dataclasses import dataclass

import numpy as np

from . import filters, var  # read at call time, so importing this module runs neither
from .core import (ConfigError, _check_channels, _over_windows, _public, demean,
                   max_lag_sq_correlation)
from .spectrum import (SmoothingKernel, default_bandwidth, periodogram,
                       shrink_spectral_estimate, smooth_periodogram,
                       var_spectrum)

# largest spectral-matrix condition number partial_coherence inverts
_COND_CAP = 1e10


@dataclass
class CoherenceResult:
    """Per-frequency coherence matrices over the whole grid, in grid order."""

    grid: object
    values: np.ndarray            # (n, P, P) real in [0, 1]


def _check_power(f, channels):
    """Raise unless each of ``channels`` has a positive auto-spectrum at every w >= 0 of f."""
    zero = np.real(np.einsum("kpp->kp", f.half))[:, channels] <= 0
    if np.any(zero):
        j = int(zero.any(axis=0).argmax())
        raise ValueError(f"zero auto-spectrum of channel {channels[j]} at " + (
            "every frequency: the channel has no power" if zero[:, j].all() else
            f"{f.grid.name_half_row(zero[:, j].argmax())}; shrink or smooth the estimate first"))


def _normalized(m):
    """m_pq / sqrt(m_pp m_qq) per frequency, and its squared modulus (diagonal 1)."""
    d = np.real(np.einsum("kpp->kp", m))
    tau = m / np.sqrt(d[:, :, None] * d[:, None, :])
    sq = np.abs(tau) ** 2
    idx = np.arange(m.shape[1])
    sq[:, idx, idx] = 1.0
    return tau, sq


def coherency(f, p, q):
    """Complex coherency tau_pq(w) = f_pq / sqrt(f_pp f_qq) over the grid."""
    pq = _check_channels([p, q], f.n_channels)
    _check_power(f, pq)
    return f.grid.unfold(_normalized(f.half[:, pq][:, :, pq])[0][:, 0, 1])


def coherence(f, p, q):
    """Coherence rho_pq(w) = |tau_pq(w)|^2, in [0, 1] per frequency."""
    return np.abs(coherency(f, p, q)) ** 2


def coherence_matrix(f):
    """All-pairs coherence as a CoherenceResult (diagonal is exactly 1)."""
    _check_power(f, range(f.n_channels))
    return CoherenceResult(f.grid, f.grid.unfold(_normalized(f.half)[1]))


def band_coherence(series, p, q, band, filter_order=None, max_lag=None):
    """Coherence of a channel pair within a band, from filtered signals.

    Both channels are zero-phase filtered to the band, start-up transients
    trimmed, and the maximal squared lagged cross-correlation is returned
    together with its lag (see :func:`core.max_lag_sq_correlation`).  The
    default search range is one cycle of the band's centre frequency.

    Returns
    -------
    (value, lag) : (float in [0, 1], int)
    """
    y, valid = filters.band_signals(series, [(p, band), (q, band)], filter_order)
    if p == q:
        return 1.0, 0
    if max_lag is None:
        max_lag = int(round(series.sample_rate_hz / band.center_hz))
    x1, x2 = y[valid[0]].T
    if len(x1) <= 2 * max_lag:
        raise ConfigError("series too short for this filter order and max_lag")
    return max_lag_sq_correlation(x1, x2, max_lag)


def partial_coherence(f):
    """Partial coherence matrix from the inverse spectral matrix.

    With g = f^{-1} and h = diag(g_rr^{-1/2}), Lambda = -h g h and the
    partial coherence between p and q (given all other channels) is
    |Lambda_pq|^2.  The diagonal is reported as 1 by convention.  Raises on
    a zero auto-spectrum, as :func:`coherence_matrix` does, then when the
    condition number exceeds ``_COND_CAP``; shrink the estimate
    (spectrum.shrink_spectral_estimate, or the CLI's --shrink-order) then.

    The matrices at w >= 0 are checked and inverted; the result at -w, the
    same as at w for the conjugate matrix, is unfolded from them.

    Returns
    -------
    ndarray, shape (n, P, P), real, entries in [0, 1]
    """
    _check_power(f, range(f.n_channels))
    ev = np.linalg.eigvalsh(f.half)
    lo, hi = ev[:, 0], ev[:, -1]
    bad = (lo <= 0) | (hi > _COND_CAP * np.maximum(lo, 1e-300))
    if np.any(bad):
        raise ValueError(f"spectral matrix ill-conditioned at {f.grid.name_half_row(bad.argmax())}"
                         "; shrink the estimate toward a VAR spectrum (shrink_spectral_estimate)")
    return f.grid.unfold(_normalized(np.linalg.inv(f.half))[1])


def partial_coherence_residual(series, p, q, c, band, filter_order=None):
    """Band partial coherence of (p, q) given channel c, via regression.

    All three channels are zero-phase filtered to the band and cut to the
    samples clear of filter transients; p and q are each regressed on c (lag
    0, with intercept) and the squared correlation of the residuals is
    returned.  A residual that is numerically zero (e.g. q == c) gives 0 by
    convention.  Four samples must remain after the cut.
    """
    series.check_channels([p, q, c])
    if c == p or c == q:
        raise ConfigError("conditioning channel must differ from p and q")
    if p == q:
        return 1.0
    y, valid = filters.band_signals(series, [(p, band), (q, band), (c, band)], filter_order)
    y = y[valid[0]]
    if len(y) < 4:
        raise ConfigError(f"series too short: {len(y)} samples clear of filter transients, need 4")
    y = demean(y)
    xc, vc = y[:, 2], np.dot(y[:, 2], y[:, 2])
    if vc <= 0:
        raise ValueError("degenerate conditioning channel (no in-band power)")
    r = y[:, :2] - np.outer(xc, xc @ y[:, :2] / vc)
    scale = np.maximum(np.sqrt(np.mean(y[:, :2] ** 2, axis=0)), 1e-300)
    if np.any(np.sqrt(np.mean(r ** 2, axis=0)) < 1e-10 * scale):
        return 0.0
    return max_lag_sq_correlation(r[:, 0], r[:, 1], 0)[0]


def estimate_spectrum(series, kernel=None, shrink_order=None):
    """Smoothed-periodogram spectral estimate, optionally shrunk.

    The workhorse for coherence/partial-coherence estimation: periodogram,
    kernel smoothing (Daniell with the default bandwidth unless given), and,
    when ``shrink_order`` is set, shrinkage toward a VAR(shrink_order)
    parametric spectrum.
    """
    if kernel is None:
        kernel = SmoothingKernel("daniell", default_bandwidth(series.n_samples))
    f = smooth_periodogram(periodogram(series), kernel)
    if shrink_order is not None:
        model = var.fit_ols(series, shrink_order)
        h = var_spectrum(model, f.grid, series.sample_rate_hz)
        f = shrink_spectral_estimate(f, h, kernel)
    return f


def tv_coherence(series, N, step, kernel=None):
    """Sliding-window coherence: smoothed local periodogram per window.

    Windows of N samples advance by ``step``; each is demeaned, its
    periodogram smoothed across frequency, and the full coherence matrix
    stored.  Window centres are reported in rescaled time u = t/T.  With
    N == T this reduces exactly to the static estimate.
    """
    return _over_windows(series, N, step,
                         lambda w: coherence_matrix(estimate_spectrum(w, kernel)).values)


def tv_partial_coherence(series, N, step, kernel=None):
    """Sliding-window partial coherence; see :func:`tv_coherence`."""
    return _over_windows(series, N, step, lambda w: partial_coherence(estimate_spectrum(w, kernel)))


__all__ = _public(globals())  # stays last: it lists the definitions above
