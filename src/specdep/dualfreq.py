"""Dual-frequency coherence: dependence across distinct oscillation frequencies.

Local Fourier coefficients over a sliding window give a local dual-frequency
periodogram d(t, w_j) d*(t, w_k).  Averaging it across trials (or smoothing
across time within a single trial) and normalizing by the same-frequency
local power yields the time-localized dual-frequency coherence.  A filtered
variant measures the windowed cross-moment of two band-limited signals.
"""

from dataclasses import dataclass, field

import numpy as np

from .core import ConfigError, MultiChannelSeries, table_to_csv
from .filters import band_filter, default_order

__all__ = [
    "DualFreqResult",
    "local_fourier",
    "local_dualfreq_periodogram",
    "dualfreq_coherence",
    "band_dualfreq_coherence",
    "dualfreq_scan",
]


def _window_indices(T, t, N):
    N = int(N)
    if N % 2 != 0 or N < 2:
        raise ConfigError(f"window length must be even and >= 2, got {N}")
    lo = t - (N // 2 - 1)
    hi = t + N // 2
    if lo < 0 or hi >= T:
        raise ConfigError(f"window [{lo}, {hi}] around t={t} leaves [0, {T - 1}]")
    return np.arange(lo, hi + 1)


def local_fourier(series, t, N, omega):
    """Local Fourier coefficient vector over the window centred at t.

    d(t, w) = N^{-1/2} sum_{s = t-(N/2-1)}^{t+N/2} X(s) exp(-i 2 pi w s),
    with the phase anchored to absolute sample indices so that coefficients
    at different window positions stay phase-comparable.

    Returns a complex (P,) vector (or (len(omega), P) for an array of
    frequencies).
    """
    idx = _window_indices(series.n_samples, t, N)
    x = series.samples[idx]
    scalar = np.isscalar(omega)
    w = np.atleast_1d(np.asarray(omega, dtype=float))
    ph = np.exp(-2j * np.pi * np.multiply.outer(w, idx))
    d = ph @ x / np.sqrt(N)
    return d[0] if scalar else d


def local_dualfreq_periodogram(series, t, N, omega_j, omega_k):
    """Rank-1 local dual-frequency periodogram d(t, w_j) d*(t, w_k).

    The second factor is conjugate-transposed, so omega_j == omega_k reduces
    to the ordinary local periodogram matrix.
    """
    d = local_fourier(series, t, N, [omega_j, omega_k])
    return np.outer(d[0], d[1].conj())


def _smoothing_centers(T, t, N, smoothing):
    if smoothing is None:
        smoothing = (8, N // 2)
    half, hop = int(smoothing[0]), int(smoothing[1])
    if half < 0 or hop < 1:
        raise ConfigError("smoothing must be (half_width >= 0, hop >= 1)")
    offsets = np.arange(-half, half + 1)
    centers = t + offsets * hop
    weights = (half + 1) - np.abs(offsets)
    return centers, weights / weights.sum()


def dualfreq_coherence(data, t, N, p, omega_j, q, omega_k, smoothing=None):
    """Time-localized dual-frequency coherence at window centre t.

    rho = |f_(p,wj),(q,wk)|^2 / (f_(p,wj),(p,wj) f_(q,wk),(q,wk)) where the f
    estimates average local dual-frequency periodograms: across trials when
    ``data`` is a list of series, or across time with a triangular kernel
    (``smoothing = (half_width, hop)``, default (8, N//2)) for a single
    series.  Bounded in [0, 1] by the Cauchy-Schwarz inequality.
    """
    if isinstance(data, MultiChannelSeries):
        centers, weights = _smoothing_centers(data.n_samples, t, N, smoothing)
        pieces = [(data, c, w) for c, w in zip(centers, weights)]
    else:
        trials = list(data)
        if not trials:
            raise ConfigError("no trials given")
        weights = np.full(len(trials), 1.0 / len(trials))
        pieces = [(tr, t, w) for tr, w in zip(trials, weights)]
    num = 0.0 + 0.0j
    pow_j = 0.0
    pow_k = 0.0
    for series, c, w in pieces:
        d = local_fourier(series, c, N, [omega_j, omega_k])
        num += w * d[0, p] * np.conj(d[1, q])
        pow_j += w * np.abs(d[0, p]) ** 2
        pow_k += w * np.abs(d[1, q]) ** 2
    if pow_j <= 0 or pow_k <= 0:
        raise ValueError("zero local power at one of the (channel, frequency) pairs")
    val = float(np.abs(num) ** 2 / (pow_j * pow_k))
    if not val <= 1 + 1e-9:
        raise ValueError(f"dual-frequency coherence {val!r} exceeds 1")
    return min(val, 1.0)


def band_dualfreq_coherence(series, p, band_1, q, band_2, t, N, filter_order=None):
    """Windowed band-to-band coherence of two zero-phase filtered signals.

    Channel p is filtered to band_1 and channel q to band_2; the estimate is
    the squared windowed cross-moment normalized by the windowed powers:
    |mean x1 x2|^2 / (mean x1^2 mean x2^2) over the N-sample window at t.
    """
    fs = series.sample_rate_hz
    for b in (band_1, band_2):
        b.validate_for(fs)
    if filter_order is None:
        filter_order = max(default_order(band_1, fs), default_order(band_2, fs))
    xs = []
    for ch, band in ((p, band_1), (q, band_2)):
        y = band_filter(series, [ch], band, filter_order)[:, 0]
        xs.append(y - y.mean())
    idx = _window_indices(series.n_samples, t, N)
    x1, x2 = xs[0][idx], xs[1][idx]
    cross = np.mean(x1 * x2)
    v1, v2 = np.mean(x1 ** 2), np.mean(x2 ** 2)
    if v1 <= 0 or v2 <= 0:
        raise ValueError("zero windowed variance in one of the filtered bands")
    val = float(cross ** 2 / (v1 * v2))
    if not val <= 1 + 1e-9:
        raise ValueError(f"band dual-frequency coherence {val!r} exceeds 1")
    return min(val, 1.0)


@dataclass
class DualFreqResult:
    """Batch of dual-frequency coherence values for export."""

    window: int
    entries: list = field(default_factory=list)  # dicts: t, p, freq_j, q, freq_k, value

    def to_csv(self, path):
        keys = ["t", "p", "freq_j", "q", "freq_k", "value"]
        table_to_csv(path, keys, [[e[k] for e in self.entries] for k in keys])


def dualfreq_scan(data, centers, N, pairs, smoothing=None):
    """Evaluate dual-frequency coherence over window centres and tuples.

    ``pairs`` is a list of (p, omega_j, q, omega_k).  Returns a
    DualFreqResult whose entries form the long-format export table.
    """
    res = DualFreqResult(int(N))
    for t in centers:
        for (p, wj, q, wk) in pairs:
            val = dualfreq_coherence(data, int(t), N, p, wj, q, wk, smoothing)
            res.entries.append({"t": int(t), "p": p, "freq_j": wj,
                                "q": q, "freq_k": wk, "value": val})
    return res
