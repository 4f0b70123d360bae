"""Coherence and partial coherence, static and time-varying.

Coherency tau_pq(w) = f_pq / sqrt(f_pp f_qq) and coherence |tau|^2 come from
a cross-spectral matrix.  Band coherence works directly on band-filtered
signals as the maximal squared lagged cross-correlation.  Partial coherence
conditions on all remaining channels through the inverse spectral matrix, or
on a single channel through regression residuals of filtered signals; both
matrix forms normalize m_pq / sqrt(m_pp m_qq), of f and of its inverse.
Time-varying versions run :func:`estimate_spectrum` on each window.
"""

from dataclasses import dataclass

import numpy as np

from .core import (ConfigError, TimeVaryingResult, _check_channels,
                   max_lag_sq_correlation, sliding_windows)
from .filters import band_filter, default_order
from .spectrum import (SmoothingKernel, default_bandwidth, periodogram,
                       shrink_spectral_estimate, smooth_periodogram,
                       var_spectrum)
from .var import fit_ols

__all__ = [
    "CoherenceResult",
    "coherency",
    "coherence",
    "coherence_matrix",
    "band_coherence",
    "partial_coherence",
    "partial_coherence_residual",
    "estimate_spectrum",
    "tv_coherence",
    "tv_partial_coherence",
    "edge_list",
]

# largest spectral-matrix condition number partial_coherence inverts
_COND_CAP = 1e10


@dataclass
class CoherenceResult:
    """Per-frequency coherence matrices with the coherency kept alongside."""

    grid: object
    values: np.ndarray            # (n, P, P) real in [0, 1]
    coherency: np.ndarray = None  # (n, P, P) complex, optional
    sample_rate_hz: float = None
    channel_labels: list = None


def _normalized(m):
    """m_pq / sqrt(m_pp m_qq) per frequency, and its squared modulus (diagonal 1)."""
    d = np.real(np.einsum("kpp->kp", m))
    if np.any(d <= 0):
        raise ValueError("zero auto-spectrum at some frequency; smooth or "
                         "shrink the spectral estimate first")
    tau = m / np.sqrt(d[:, :, None] * d[:, None, :])
    sq = np.abs(tau) ** 2
    idx = np.arange(m.shape[1])
    sq[:, idx, idx] = 1.0
    return tau, sq


def coherency(f, p, q):
    """Complex coherency tau_pq(w) = f_pq / sqrt(f_pp f_qq) over the grid."""
    pq = _check_channels([p, q], f.n_channels)
    return _normalized(f.values[:, pq][:, :, pq])[0][:, 0, 1]


def coherence(f, p, q):
    """Coherence rho_pq(w) = |tau_pq(w)|^2, in [0, 1] per frequency."""
    return np.abs(coherency(f, p, q)) ** 2


def coherence_matrix(f):
    """All-pairs coherence as a CoherenceResult (diagonal is exactly 1)."""
    tau, vals = _normalized(f.values)
    return CoherenceResult(f.grid, vals, tau, f.sample_rate_hz, f.channel_labels)


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
    fs = series.sample_rate_hz
    band.validate_for(fs)
    if filter_order is None:
        filter_order = default_order(band, fs)
    if max_lag is None:
        max_lag = int(round(fs / band.center_hz))
    series.check_channels([p, q])
    if p == q:
        return 1.0, 0
    y = band_filter(series, [p, q], band, filter_order)
    k = filter_order
    if series.n_samples <= 2 * k + 2 * max_lag:
        raise ConfigError("series too short for this filter order and max_lag")
    y = y[k:-k]
    return max_lag_sq_correlation(y[:, 0], y[:, 1], max_lag)


def partial_coherence(f):
    """Partial coherence matrix from the inverse spectral matrix.

    With g = f^{-1} and h = diag(g_rr^{-1/2}), Lambda = -h g h and the
    partial coherence between p and q (given all other channels) is
    |Lambda_pq|^2.  The diagonal is reported as 1 by convention.  Raises
    when the spectral matrix condition number exceeds ``_COND_CAP``; shrink
    the estimate (see spectrum.shrink_spectral_estimate) in that case.

    Returns
    -------
    ndarray, shape (n, P, P), real, entries in [0, 1]
    """
    v = f.values
    ev = np.linalg.eigvalsh(0.5 * (v + v.conj().transpose(0, 2, 1)))
    lo, hi = ev[:, 0], ev[:, -1]
    bad = (lo <= 0) | (hi > _COND_CAP * np.maximum(lo, 1e-300))
    if np.any(bad):
        k = int(np.nonzero(bad)[0][0])
        raise ValueError(
            f"spectral matrix ill-conditioned at grid index {k} (frequency "
            f"{f.grid.frequencies[k]:.6f}); use shrink_spectral_estimate to "
            f"obtain a well-conditioned estimate")
    return _normalized(np.linalg.inv(v))[1]


def partial_coherence_residual(series, p, q, c, band, filter_order=None):
    """Band partial coherence of (p, q) given channel c, via regression.

    All three channels are zero-phase filtered to the band; p and q are each
    regressed on c (lag 0, with intercept) and the squared correlation of
    the residuals is returned.  A residual that is numerically zero (e.g.
    q == c) gives 0 by convention.  Filter order K needs T >= 2K + 4, so
    that four samples remain after trimming.
    """
    series.check_channels([p, q, c])
    if c == p or c == q:
        raise ConfigError("conditioning channel must differ from p and q")
    if p == q:
        return 1.0
    fs = series.sample_rate_hz
    band.validate_for(fs)
    if filter_order is None:
        filter_order = default_order(band, fs)
    k = filter_order
    if series.n_samples < 2 * k + 4:
        raise ConfigError(f"series too short for filter order {k} (T < {2 * k + 4})")
    y = band_filter(series, [p, q, c], band, k)[k:-k]
    y = y - y.mean(axis=0, keepdims=True)
    xc = y[:, 2]
    vc = np.dot(xc, xc)
    if vc <= 0:
        raise ValueError("degenerate conditioning channel (no in-band power)")
    resid = []
    scale = np.sqrt(np.mean(y ** 2, axis=0))
    for i in (0, 1):
        beta = np.dot(xc, y[:, i]) / vc
        r = y[:, i] - beta * xc
        if np.sqrt(np.mean(r ** 2)) < 1e-10 * max(scale[i], 1e-300):
            return 0.0
        resid.append(r)
    rho = np.dot(resid[0], resid[1]) / np.sqrt(
        np.dot(resid[0], resid[0]) * np.dot(resid[1], resid[1]))
    return float(rho ** 2)


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
        model = fit_ols(series, shrink_order)
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
    return _tv(series, N, step, kernel, partial=False)


def tv_partial_coherence(series, N, step, kernel=None):
    """Sliding-window partial coherence; see :func:`tv_coherence`."""
    return _tv(series, N, step, kernel, partial=True)


def _tv(series, N, step, kernel, partial):
    windows = sliding_windows(series, N, step)
    out = []
    for _, win in windows:
        f = estimate_spectrum(win, kernel)
        out.append(partial_coherence(f) if partial else coherence_matrix(f).values)
    return TimeVaryingResult(np.array([u for u, _ in windows]), N, int(step),
                             f.grid, np.stack(out),
                             "partial_coherence" if partial else "coherence",
                             series.sample_rate_hz)


def edge_list(series, bands, threshold=0.0, filter_order=None):
    """Band-coherence network edges: (p, q, band, value, lag) per pair/band."""
    edges = []
    P = series.n_channels
    for band in bands:
        for p in range(P):
            for q in range(p + 1, P):
                val, lag = band_coherence(series, p, q, band, filter_order)
                if val > threshold:
                    edges.append({"p": p, "q": q, "band": band.name,
                                  "value": val, "lag": lag})
    return edges
