"""Dual-frequency coherence: dependence across distinct oscillation frequencies.

Local Fourier coefficients over a sliding window give a local dual-frequency
periodogram d(t, w_j) d*(t, w_k).  Averaging it across trials (or smoothing
across time within a single trial) and normalizing by the same-frequency
local power yields the time-localized dual-frequency coherence, which one
kernel computes one window centre at a time.  A filtered variant measures
the windowed cross-moment of two band-limited signals.
"""

from dataclasses import dataclass, field

import numpy as np

from .core import ConfigError, MultiChannelSeries, table_to_csv
from .filters import band_filter, default_order

__all__ = ["DualFreqResult", "local_fourier", "local_dualfreq_periodogram",
           "dualfreq_coherence", "band_dualfreq_coherence", "dualfreq_scan"]


def _windows(length, t, N):
    """Indices (piece, N) of windows [t - N/2 + 1, t + N/2]; names the first to leave."""
    N = int(N)
    if N % 2 != 0 or N < 2:
        raise ConfigError(f"window length must be even and >= 2, got {N}")
    lo = np.asarray(t) - (N // 2 - 1)
    bad = (lo < 0) | (lo + N > length)
    if bad.any():
        i = np.argmax(bad)
        raise ConfigError(f"window [{lo[i]}, {lo[i] + N - 1}] around t={t[i]} "
                          f"leaves [0, {length[i] - 1}]")
    return lo[:, None] + np.arange(N)


def _coefficients(x, start, length, t, N, w):
    """Local Fourier coefficients D (piece, freq, P): one gather, one product.

    Piece i is the window at t[i] of the trial of length[i] samples stacked
    from row start[i] of x; phases use sample indices within that trial.
    """
    if not np.all(np.abs(w) <= 0.5):
        raise ConfigError(f"frequencies {w.tolist()} leave [-0.5, 0.5] cycles per sample")
    idx = _windows(length, t, N)
    ph = np.exp(-2j * np.pi * (w[:, None] * idx[:, None, :]))
    return ph @ x[idx + np.asarray(start)[:, None]] / np.sqrt(idx.shape[1])


def local_fourier(series, t, N, omega):
    """Local Fourier coefficient vector over the window centred at t.

    d(t, w) = N^{-1/2} sum_{s = t-(N/2-1)}^{t+N/2} X(s) exp(-i 2 pi w s),
    with the phase anchored to absolute sample indices so that coefficients
    at different window positions stay phase-comparable.

    Returns a complex (P,) vector (or (len(omega), P) for an array of
    frequencies).
    """
    w = np.atleast_1d(np.asarray(omega, dtype=float))
    d = _coefficients(series.samples, [0], [series.n_samples], [int(t)], N, w)[0]
    return d[0] if np.isscalar(omega) else d


def local_dualfreq_periodogram(series, t, N, omega_j, omega_k):
    """Rank-1 local dual-frequency periodogram d(t, w_j) d*(t, w_k).

    The second factor is conjugate-transposed, so omega_j == omega_k reduces
    to the ordinary local periodogram matrix.
    """
    d = local_fourier(series, t, N, [omega_j, omega_k])
    return np.outer(d[0], d[1].conj())


def dualfreq_coherence(data, t, N, p, omega_j, q, omega_k, smoothing=None):
    """Time-localized dual-frequency coherence at window centre t.

    rho = |f_(p,wj),(q,wk)|^2 / (f_(p,wj),(p,wj) f_(q,wk),(q,wk)) where the f
    estimates average local dual-frequency periodograms: across trials when
    ``data`` is a list of series, or across time with a triangular kernel
    (``smoothing = (half_width, hop)``, default (8, N//2)) for a single
    series.  Bounded in [0, 1] by the Cauchy-Schwarz inequality.
    """
    res = dualfreq_scan(data, [t], N, [(p, omega_j, q, omega_k)], smoothing)
    return res.entries[0]["value"]


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
    idx = _windows([series.n_samples], [t], N)[0]
    y1 = band_filter(series, [p], band_1, filter_order)[:, 0]
    y2 = band_filter(series, [q], band_2, filter_order)[:, 0]
    x1, x2 = y1[idx] - y1.mean(), y2[idx] - y2.mean()
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
    """Dual-frequency coherence of every pair at every window centre.

    ``pairs`` lists (p, omega_j, q, omega_k), frequencies in cycles per
    sample; ``data`` and ``smoothing`` are as in :func:`dualfreq_coherence`.
    The DualFreqResult's entries form the long-format export table.
    """
    if isinstance(data, MultiChannelSeries):
        trials, (half, hop) = [data], map(int, (8, N // 2) if smoothing is None else smoothing)
    else:
        trials, half, hop = list(data), 0, 1
    if half < 0 or hop < 1:
        raise ConfigError("smoothing must be (half_width >= 0, hop >= 1)")
    R, k = len(trials), np.arange(-half, half + 1)  # a piece per trial and smoothing offset
    trial, shift = np.repeat(np.arange(R), k.size), np.tile(k * hop, R)
    weights = np.tile(half + 1.0 - abs(k), R) / (R * (half + 1.0) ** 2)
    ts = [int(t) for t in centers]
    if R == 0 or not ts or len(pairs) == 0:
        raise ConfigError("need at least one trial, one window centre and one pair")
    p, wj, q, wk = (np.array(c) for c in zip(*pairs))
    trials[0].check_channels(np.column_stack([p, q]).ravel())
    w, inv = np.unique(np.concatenate([wj, wk]), return_inverse=True)
    lengths = np.array([tr.n_samples for tr in trials])
    start, length = (np.cumsum(lengths) - lengths)[trial], lengths[trial]
    x = np.concatenate([tr.samples for tr in trials])
    vals = np.empty((len(ts), len(p)))
    for i, t in enumerate(ts):
        D = _coefficients(x, start, length, t + shift, N, w)
        dj, dk = D[:, inv[:len(p)], p], D[:, inv[len(p):], q]
        pow_j, pow_k = weights @ abs(dj) ** 2, weights @ abs(dk) ** 2
        zero = (pow_j <= 0) | (pow_k <= 0)
        vals[i] = abs(weights @ (dj * dk.conj())) ** 2 / np.where(zero, 1.0, pow_j * pow_k)
        bad = np.flatnonzero(zero | ~(vals[i] <= 1 + 1e-9))  # the first one is reported
        if bad.size and zero[bad[0]]:
            raise ValueError("zero local power at one of the (channel, frequency) pairs")
        if bad.size:
            raise ValueError(f"dual-frequency coherence {float(vals[i, bad[0]])!r} exceeds 1")
    return DualFreqResult(int(N), [
        {"t": t, "p": p, "freq_j": wj, "q": q, "freq_k": wk, "value": min(float(v), 1.0)}
        for t, row in zip(ts, vals) for (p, wj, q, wk), v in zip(pairs, row)])
