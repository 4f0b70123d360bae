"""Phase-amplitude coupling via the Tort modulation index.

The analytic signal of a band-filtered series provides instantaneous phase
and amplitude.  Binning the amplitude of a fast rhythm by the phase of a
slow one gives a distribution over phase bins; its normalized KL divergence
from uniform is the modulation index, 0 for no coupling and 1 for amplitude
concentrated at a single phase.
"""

import numpy as np

from .core import ConfigError, _public, demean, table_to_csv
from .filters import band_signals


def analytic_signal(x):
    """Analytic signal x + i H[x] via the frequency-domain Hilbert transform.

    H[x] is the real inverse transform of -i X over the strictly positive
    bins of the real transform X of x, with DC and Nyquist zeroed: the
    one-sided construction that doubles the positive bins and zeroes the
    negative ones.  ``x`` is a (T,) signal or a (T, n) stack of them along
    axis 0.  The returned complex array has the input as its real part,
    exactly; its modulus and angle are the instantaneous amplitude and phase.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2) or x.shape[0] < 16:
        raise ConfigError("analytic_signal expects a (T,) or (T, n) signal with T >= 16")
    T = x.shape[0]
    X = np.fft.rfft(x, axis=0)
    X[0] = 0.0
    if T % 2 == 0:
        X[-1] = 0.0
    z = np.empty(x.shape, dtype=complex)
    z.real = x
    z.imag = np.fft.irfft(X * -1j, T, axis=0)
    return z


def phase_amplitude_distribution(phase, amplitude, n_bins):
    """Bin amplitudes by phase and normalize the bin means to sum to one.

    Phases are wrapped into [0, 2 pi); bin j covers [2 pi j/N, 2 pi (j+1)/N).
    Every bin must receive at least one sample.  The bin means are a
    conditional expectation; dividing by their sum turns them into the
    distribution compared against uniform by the modulation index.

    Returns
    -------
    (probs, mean_amplitudes) : (ndarray, ndarray), each of length ``n_bins``
    """
    phase = np.mod(np.asarray(phase, dtype=float), 2 * np.pi)
    amplitude = np.asarray(amplitude, dtype=float)
    if phase.shape != amplitude.shape or phase.ndim != 1:
        raise ConfigError("phase and amplitude must be 1-D arrays of equal length")
    n_bins = int(n_bins)
    if n_bins < 1:
        raise ConfigError("need at least one bin")
    which = np.minimum((phase * n_bins / (2 * np.pi)).astype(int), n_bins - 1)
    counts = np.bincount(which, minlength=n_bins)
    if np.any(counts == 0):
        empty = int(np.nonzero(counts == 0)[0][0])
        raise ValueError(f"phase bin {empty} of {n_bins} is empty")
    sums = np.bincount(which, weights=amplitude, minlength=n_bins)
    means = sums / counts
    total = means.sum()
    if total <= 0:
        raise ValueError("all-zero amplitudes; distribution undefined")
    return means / total, means


def _kl_divergence(p, q):
    """Kullback-Leibler divergence sum_k p_k log(p_k / q_k), with 0 log 0 = 0."""
    mask = p > 0
    if np.any(q[mask] <= 0):
        raise ValueError("support violation: p > 0 where q == 0")
    return float(np.sum(p[mask] * np.log(p[mask] / q[mask])))


def modulation_index(series, channel_phase, band_low, channel_amp, band_high,
                     n_bins=18, filter_order=None):
    """Tort modulation index between a slow phase and a fast amplitude.

    ``channel_phase`` is zero-phase filtered to ``band_low`` and its analytic
    phase extracted; ``channel_amp`` is filtered to ``band_high`` for the
    analytic amplitude (the two channels may coincide, and usually do).
    Filter/Hilbert edge transients (max(filter order, 64) samples per end)
    are excluded from binning.  MI = D_KL(P, uniform) / log(N), in [0, 1].
    This is the one-cell case of :func:`pac_scan`.
    """
    return float(pac_scan(series, [band_low], [band_high], n_bins,
                          [(channel_phase, channel_amp)], filter_order)[0, 0, 0])


def pac_scan(series, low_bands, high_bands, n_bins=18, pairs=None,
             filter_order=None):
    """Modulation indices over a grid of band pairs.

    ``pairs`` lists (phase_channel, amplitude_channel) tuples; by default
    each channel is scanned against itself.  Each distinct (channel, band)
    is filtered and made analytic once.  Returns an array of shape
    (n_pairs, n_low_bands, n_high_bands).
    """
    if n_bins < 4:
        raise ConfigError("need at least 4 phase bins")
    if pairs is None:
        pairs = [(c, c) for c in range(series.n_channels)]
    low = dict.fromkeys((cp, b) for cp, _ in pairs for b in low_bands)
    high = dict.fromkeys((ca, b) for _, ca in pairs for b in high_bands)
    picks = list({**low, **high})
    y, valid = band_signals(series, picks, filter_order)
    z = dict(zip(picks, analytic_signal(demean(y)).T))
    # >= 64 per end: the FFT Hilbert transform wraps each end into the other
    trim = {pick: max(v.start, 64) for pick, v in zip(picks, valid)}
    phase = {pick: np.mod(np.angle(z[pick]), 2 * np.pi) for pick in low}
    amp = {pick: np.abs(z[pick]) for pick in high}
    out = np.zeros((len(pairs), len(low_bands), len(high_bands)))
    for i, (cp, ca) in enumerate(pairs):
        for j, bl in enumerate(low_bands):
            for k, bh in enumerate(high_bands):
                out[i, j, k] = _mi(phase[(cp, bl)], amp[(ca, bh)],
                                   max(trim[(cp, bl)], trim[(ca, bh)]), n_bins)
    return out


def _mi(phase, amp, trim, n_bins):
    """Modulation index of amplitudes binned by phase, ``trim`` > 0 samples cut per end."""
    if phase.size <= 2 * trim + n_bins:
        raise ConfigError("series too short after trimming filter transients")
    probs, _ = phase_amplitude_distribution(phase[trim:-trim], amp[trim:-trim], n_bins)
    mi = _kl_divergence(probs, np.full(n_bins, 1.0 / n_bins)) / np.log(n_bins)
    if not -1e-12 <= mi <= 1 + 1e-12:
        raise ValueError(f"modulation index {mi!r} outside [0, 1]")
    return min(max(mi, 0.0), 1.0)


def mi_table_to_csv(path, mi, pairs, low_bands, high_bands):
    """CSV export: low_band, high_band, channel_low, channel_high, MI."""
    chan = np.asarray(pairs).reshape(-1, 1, 1, 2)
    low = np.array([b.name for b in low_bands]).reshape(-1, 1)
    table_to_csv(path, ["low_band", "high_band", "channel_low", "channel_high", "MI"],
                 [low, [b.name for b in high_bands], chan[..., 0], chan[..., 1], mi])


__all__ = _public(globals())  # stays last: it lists the definitions above
