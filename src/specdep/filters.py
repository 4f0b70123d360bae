"""FIR band-pass filtering: design, frequency response, and application.

Filters are finite impulse response only.  A filter can be applied in
``causal`` mode (one-sided, y(t) depends on x(s), s <= t; group delay K/2
for the symmetric designs produced here) or ``zero_phase`` mode (symmetric
taps centred on the current sample, so in-band sinusoids suffer no phase
shift).  Causality matters for the lead-lag analyses: zero-phase filtering
leaks future samples into the present, so the spectral-VAR pipeline always
filters causally.  Every band-filtered signal an analysis uses comes from
:func:`band_signals`, with the slice of its samples clear of start-up.
"""

from functools import lru_cache

import numpy as np

from .core import ConfigError, _public

MAX_DECOMPOSE_ORDER = 512


class FirFilter:
    """An FIR filter: taps c_0..c_K plus an application mode.

    Parameters
    ----------
    coeffs : array_like
        Filter taps, at least one.
    mode : {'causal', 'zero_phase'}
        ``zero_phase`` requires symmetric taps (c_k == c_{K-k} within 1e-9).
    """

    def __init__(self, coeffs, mode="zero_phase"):
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.ndim != 1 or coeffs.size < 1:
            raise ConfigError("coeffs must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(coeffs)):
            raise ConfigError("coeffs must be finite")
        if mode not in ("causal", "zero_phase"):
            raise ConfigError(f"mode must be 'causal' or 'zero_phase', got {mode!r}")
        if mode == "zero_phase":
            scale = np.max(np.abs(coeffs)) or 1.0
            if np.max(np.abs(coeffs - coeffs[::-1])) > 1e-9 * max(scale, 1.0):
                raise ConfigError("zero_phase mode requires symmetric coefficients")
        self.coeffs = coeffs
        self.mode = mode

    @property
    def order(self):
        return self.coeffs.size - 1

    def __repr__(self):
        return f"FirFilter(order={self.order}, mode={self.mode!r})"


def design_fir_bandpass(band, order, sample_rate_hz, mode="zero_phase"):
    """Design a windowed-sinc (Hamming) band-pass filter.

    The ideal band-pass impulse response is windowed, then the taps get an
    exact DC null (their mean is subtracted; a plain windowed sinc at short
    orders otherwise passes DC almost unattenuated), and finally the gain at
    the band centre is normalized to 1.  Taps are symmetric, so the same
    design serves both causal and zero-phase application.

    Parameters
    ----------
    band : Band
    order : int
        Even filter order K >= 2; the filter has K+1 taps.
    sample_rate_hz : float
    mode : {'zero_phase', 'causal'}
    """
    if order < 2 or order % 2 != 0:
        raise ConfigError(f"filter order must be even and >= 2, got {order}")
    band.validate_for(sample_rate_hz)
    m = np.arange(order + 1) - order / 2
    f1 = band.low_hz / sample_rate_hz
    f2 = band.high_hz / sample_rate_hz
    taps = 2 * f2 * np.sinc(2 * f2 * m) - 2 * f1 * np.sinc(2 * f1 * m)
    taps *= np.hamming(order + 1)
    taps -= taps.mean()
    gain = np.abs(_response(taps, band.center_hz / sample_rate_hz))
    if gain <= 0:
        raise ConfigError("degenerate design: zero gain at band centre")
    taps /= gain
    return FirFilter(taps, mode)


def _response(coeffs, omega):
    k = np.arange(len(coeffs))
    omega = np.asarray(omega, dtype=float)
    return np.exp(-2j * np.pi * np.multiply.outer(omega, k)) @ coeffs


def frequency_response(filt, omega):
    """C(omega) = sum_k c_k exp(-i 2 pi omega k), omega in cycles/sample.

    ``omega`` may be a scalar or an array; the return matches its shape.
    """
    out = _response(filt.coeffs, omega)
    return complex(out) if np.isscalar(omega) else out


def apply_filter(filt, series):
    """Filter every channel of a series.

    Causal mode computes y(t) = sum_{j=0..K} c_j x(t-j) from a zero-padded
    start, so the first K outputs are start-up transients; zero-phase mode
    centres the taps, y(t) = sum_j c_j x(t-j+K/2), so the first and last K/2
    are.  :func:`band_signals` says which samples to read; its rule trims K.
    """
    T = series.n_samples
    c = filt.coeffs
    if T <= filt.order:
        raise ConfigError(f"series length {T} too short for a {filt.order}-order filter")
    out = np.empty_like(series.samples)
    half = filt.order // 2
    for p in range(series.n_channels):
        full = np.convolve(series.channel(p), c, mode="full")
        if filt.mode == "causal":
            out[:, p] = full[:T]
        else:
            out[:, p] = full[half:half + T]
    return series.with_samples(out)


@lru_cache(maxsize=32)
def _band_taps(band, order, sample_rate_hz):
    """Read-only taps of :func:`design_fir_bandpass`, cached by value for
    :func:`band_signals`, which designs the same few bands over and over."""
    taps = design_fir_bandpass(band, order, sample_rate_hz).coeffs
    taps.flags.writeable = False
    return taps


def band_signals(series, picks, order=None, mode="zero_phase"):
    """Filter each (channel, band) pick of a series; return (y, valid).

    Column-major ``y[:, i]`` is pick i filtered in ``mode`` with order K,
    ``order`` or else the band's :func:`default_order`; ``valid[i]`` is the
    slice of it clear of filter start-up: ``slice(K, T - K)`` zero-phase and
    ``slice(K, T)`` causal.  Bands are checked against Nyquist first; each
    distinct (band, order) is applied once, to its channels, with taps that
    are designed once and cached.
    """
    fs, T = series.sample_rate_hz, series.n_samples
    picks = list(picks)
    for _, band in picks:
        band.validate_for(fs)
    orders = [default_order(band, fs) if order is None else order for _, band in picks]
    # (band, order) -> channel -> the columns of y that pick it
    groups = {}
    for i, ((c, band), k) in enumerate(zip(picks, orders)):
        groups.setdefault((band, k), {}).setdefault(c, []).append(i)
    y = np.empty((T, len(picks)), order="F")
    for (band, k), columns in groups.items():
        out = apply_filter(FirFilter(_band_taps(band, k, fs), mode), series.select(columns))
        for j, cols in enumerate(columns.values()):
            y[:, cols] = out.samples[:, j:j + 1]
    return y, [slice(k, T - k if mode == "zero_phase" else T) for k in orders]


def default_order(band, sample_rate_hz):
    """Default decomposition order: 4 ceil(fs/low) rounded even, capped at 512.

    This guarantees at least four cycles of the band's lowest frequency
    inside the impulse response (up to the cap), so a band starting at 0 Hz
    has no default order.
    """
    if band.low_hz <= 0:
        raise ConfigError(f"band {band.name} starts at 0 Hz: give a filter order")
    k = 4 * int(np.ceil(sample_rate_hz / band.low_hz))
    k += k % 2
    return min(k, MAX_DECOMPOSE_ORDER)


def save_taps(path, coeffs):
    """Write filter coefficients as plain text, one value per line."""
    with open(path, "w") as fh:
        for c in np.asarray(coeffs, dtype=float):
            fh.write(f"{c:.17g}\n")


def load_taps(path, mode="zero_phase"):
    """Read a plain-text coefficient list (one real per line) as a FirFilter."""
    with open(path) as fh:
        vals = [float(line) for line in fh if line.strip()]
    if not vals:
        raise ConfigError(f"no coefficients in {path}")
    return FirFilter(np.array(vals), mode)


__all__ = _public(globals())  # stays last: it lists the definitions above
