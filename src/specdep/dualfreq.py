"""Dual-frequency coherence: dependence across distinct oscillation frequencies.

Local Fourier coefficients over a sliding window give a local dual-frequency
periodogram d(t, w_j) d*(t, w_k).  Averaging it across trials (or smoothing
across time within a single trial) and normalizing by the same-frequency
local power yields the time-localized dual-frequency coherence, which one
kernel computes one window centre at a time.  A filtered variant measures
the windowed squared correlation of two band-limited signals.
"""

from dataclasses import dataclass

import numpy as np

from .core import (ConfigError, MultiChannelSeries, _public, demean, max_lag_sq_correlation,
                   table_to_csv)
from .filters import band_signals


def _window_length(N):
    """``N`` as an int, checked to be an even window length of at least 2."""
    N = int(N)
    if N % 2 != 0 or N < 2:
        raise ConfigError(f"window length must be even and >= 2, got {N}")
    return N


def _windows(length, t, N):
    """Indices (piece, N) of windows [t - N/2 + 1, t + N/2]; names the first to leave."""
    N = _window_length(N)
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
    The phase of sample lo_i + m of window i separates:
    exp(-i 2 pi w (lo_i + m)) = exp(-i 2 pi w lo_i) exp(-i 2 pi w m).
    """
    if not np.all(np.abs(w) <= 0.5):
        raise ConfigError(f"frequencies {w.tolist()} leave [-0.5, 0.5] cycles per sample")
    idx = _windows(length, t, N)
    m = np.arange(idx.shape[1])
    local = np.exp(-2j * np.pi * np.outer(w, m)) @ x[idx + np.asarray(start)[:, None]]
    return np.exp(-2j * np.pi * np.outer(idx[:, 0], w))[:, :, None] * local / np.sqrt(m.size)


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

    Channel p is filtered to band_1 and channel q to band_2 (each with its
    band's default order unless ``filter_order`` is given); the estimate is
    the squared correlation of the two over the N-sample window at t, which
    must lie in the samples both keep clear of filter transients.
    """
    y, valid = band_signals(series, [(p, band_1), (q, band_2)], filter_order)
    lo, hi = max(v.start for v in valid), min(v.stop for v in valid)
    idx = _windows([series.n_samples], [t], N)[0]
    if idx[0] < lo or idx[-1] >= hi:
        raise ConfigError(f"window [{idx[0]}, {idx[-1]}] around t={t} reaches into filter "
                          f"transients: both filtered bands are valid on [{lo}, {hi - 1}]")
    x1, x2 = y[idx].T
    return max_lag_sq_correlation(x1, x2, 0)[0]


@dataclass
class DualFreqResult:
    """Batch of dual-frequency coherence values for export."""

    entries: list  # dicts: t, p, freq_j, q, freq_k, value

    def to_csv(self, path):
        keys = ["t", "p", "freq_j", "q", "freq_k", "value"]
        table_to_csv(path, keys, [[e[k] for e in self.entries] for k in keys])


def dualfreq_scan(data, centers, N, pairs, smoothing=None):
    """Dual-frequency coherence of every pair at every window centre.

    ``pairs`` lists (p, omega_j, q, omega_k), frequencies in cycles per
    sample; ``data`` and ``smoothing`` are as in :func:`dualfreq_coherence`.
    Each trial is centred once, before its windows are taken.  For a single
    series, a centre whose smoothing windows leave it is a configuration
    error naming that centre and the smoothing.
    The DualFreqResult's entries form the long-format export table.
    """
    N = _window_length(N)  # before the default hop N // 2 is derived from it
    single = isinstance(data, MultiChannelSeries)
    if single:
        trials, (half, hop) = [data], map(int, (8, N // 2) if smoothing is None else smoothing)
    else:
        trials, half, hop = list(data), 0, 1
    if half < 0 or hop < 1:
        raise ConfigError("smoothing must be (half_width >= 0, hop >= 1)")
    reach = half * hop + N // 2  # a single series' pieces at t span [t - reach + 1, t + reach]
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
    x = np.concatenate([demean(tr.samples) for tr in trials])
    vals = np.empty((len(ts), len(p)))
    for i, t in enumerate(ts):
        if single and not reach - 1 <= t < data.n_samples - reach:
            how = (f"smoothing ({half}, {hop})" if smoothing is not None else
                   f"the default smoothing ({half} hops of N/2 = {hop} either side)")
            raise ConfigError(f"window {N} at centre t={t} with {how} needs samples "
                              f"[{t - reach + 1}, {t + reach}], outside [0, {data.n_samples - 1}]")
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
    return DualFreqResult([
        {"t": t, "p": p, "freq_j": wj, "q": q, "freq_k": wk, "value": min(float(v), 1.0)}
        for t, row in zip(ts, vals) for (p, wj, q, wk), v in zip(pairs, row)])


__all__ = _public(globals())  # stays last: it lists the definitions above
