"""Cross-spectral matrix estimation.

Estimators: the P x P periodogram matrix from the discrete Fourier
coefficients, kernel-smoothed periodograms, closed-form AR(2) and VAR
spectra, and a shrinkage estimator that mixes the smoothed periodogram with
a parametric VAR spectrum, frequency by frequency, according to mean-squared
error proxies.
"""

from dataclasses import dataclass

import numpy as np

from .core import ConfigError, FrequencyGrid, demean, frequency_table_to_csv
from .var import transfer_function

__all__ = [
    "CrossSpectralMatrix",
    "Ar2Params",
    "SmoothingKernel",
    "fourier_coefficients",
    "periodogram",
    "smooth_periodogram",
    "ar2_from_peak",
    "ar2_spectrum",
    "ar2_stationary_var",
    "var_spectrum",
    "shrink_spectral_estimate",
    "default_bandwidth",
    "csm_to_csv",
    "csm_to_json",
    "csm_from_json",
]


class CrossSpectralMatrix:
    """A Hermitian PSD P x P complex matrix per frequency-grid point.

    Parameters
    ----------
    grid : FrequencyGrid
    values : ndarray, shape (n, P, P), complex
        One matrix per grid frequency, in grid order.
    sample_rate_hz : float, optional
        Present when the matrix was estimated from sampled data; used to
        translate Hz bands into grid indices.
    channel_labels : list of str, optional
    """

    def __init__(self, grid, values, sample_rate_hz=None, channel_labels=None):
        values = np.asarray(values, dtype=complex)
        if values.ndim != 3 or values.shape[1] != values.shape[2]:
            raise ConfigError("values must be (n, P, P)")
        if values.shape[0] != grid.n:
            raise ConfigError(f"values axis 0 ({values.shape[0]}) != grid size {grid.n}")
        herm_err = np.max(np.abs(values - values.conj().transpose(0, 2, 1)))
        scale = np.max(np.abs(values))
        if scale > 0 and herm_err > 1e-10 * scale:
            raise ValueError(f"matrices not Hermitian (max asymmetry {herm_err:.3e})")
        self.grid = grid
        self.values = values
        self.sample_rate_hz = sample_rate_hz
        self.channel_labels = channel_labels

    @property
    def n_channels(self):
        return self.values.shape[1]

    def validate(self):
        """Check positive semi-definiteness; the constructor checks Hermitian symmetry."""
        v = self.values
        ev = np.linalg.eigvalsh(0.5 * (v + v.conj().transpose(0, 2, 1)))
        tr = np.real(np.trace(v, axis1=1, axis2=2))
        floor = -1e-8 * np.maximum(tr, np.max(tr) * 1e-12 if np.max(tr) > 0 else 1.0)
        if np.any(ev[:, 0] < floor):
            worst = int(np.argmin(ev[:, 0] - floor))
            raise ValueError(
                f"not PSD at grid index {worst}: min eigenvalue {ev[worst, 0]:.3e}")
        return self

    def __repr__(self):
        return (f"CrossSpectralMatrix(n={self.grid.n}, P={self.n_channels}, "
                f"fs={self.sample_rate_hz})")


@dataclass(frozen=True)
class Ar2Params:
    """A causal AR(2) oscillator parameterized by its complex root pair.

    The roots of 1 - phi1 u - phi2 u^2 are M exp(+-i 2 pi psi), |M| > 1,
    giving a spectral peak at frequency ``psi`` (cycles/sample) whose width
    shrinks as M -> 1+.  phi1 = (2/M) cos(2 pi psi) and phi2 = -1/M^2 hold
    exactly by construction.
    """

    root_magnitude: float
    peak_freq: float
    noise_var: float = 1.0

    def __post_init__(self):
        if not self.root_magnitude > 1:
            raise ConfigError(f"root magnitude must exceed 1, got {self.root_magnitude}")
        if not abs(self.peak_freq) < 0.5:
            raise ConfigError(f"peak frequency must lie in (-0.5, 0.5), got {self.peak_freq}")
        if not self.noise_var > 0:
            raise ConfigError("noise variance must be positive")

    @property
    def phi1(self):
        return (2.0 / self.root_magnitude) * np.cos(2 * np.pi * self.peak_freq)

    @property
    def phi2(self):
        return -1.0 / self.root_magnitude ** 2

    def roots(self):
        """Roots of the AR polynomial 1 - phi1 u - phi2 u^2."""
        return np.roots([-self.phi2, -self.phi1, 1.0])


def ar2_from_peak(root_magnitude, peak_freq, noise_var=1.0):
    """AR(2) parameters from root magnitude M > 1 and peak frequency psi."""
    return Ar2Params(float(root_magnitude), float(peak_freq), float(noise_var))


def ar2_stationary_var(params):
    """Closed-form stationary variance of the AR(2) process."""
    p1, p2 = params.phi1, params.phi2
    return params.noise_var * (1 - p2) / ((1 + p2) * ((1 - p2) ** 2 - p1 ** 2))


def ar2_spectrum(params, grid_or_freqs):
    """AR(2) spectral density sigma^2 / |1 - phi1 e^{-i2pw} - phi2 e^{-i4pw}|^2."""
    if isinstance(grid_or_freqs, FrequencyGrid):
        w = grid_or_freqs.frequencies
    else:
        w = np.asarray(grid_or_freqs, dtype=float)
    z = np.exp(-2j * np.pi * w)
    denom = np.abs(1.0 - params.phi1 * z - params.phi2 * z ** 2) ** 2
    return params.noise_var / denom


@dataclass(frozen=True)
class SmoothingKernel:
    """Symmetric non-negative kernel over +-b grid bins, weights summing to 1."""

    kind: str = "daniell"
    bandwidth: int = 0

    def __post_init__(self):
        if self.kind not in ("daniell", "triangular"):
            raise ConfigError(f"kernel kind must be daniell or triangular, got {self.kind!r}")
        if self.bandwidth < 0:
            raise ConfigError("bandwidth must be >= 0")

    def weights(self):
        b = self.bandwidth
        if self.kind == "daniell":
            w = np.ones(2 * b + 1)
        else:
            w = (b + 1) - np.abs(np.arange(-b, b + 1))
        return w / w.sum()


def default_bandwidth(T):
    """Default smoothing half-width ceil(T^0.6 / 8) in grid bins."""
    return int(np.ceil(T ** 0.6 / 8))


def fourier_coefficients(series):
    """Discrete Fourier coefficients d(w_k) = sum_{t=1..T} X(t) e^{-i2pi w_k t}.

    Computed at the fundamental frequencies w_k = k/T (T even) and returned
    in grid order, shape (T, P).  The series is demeaned first, so d(0) = 0.

    Returns
    -------
    (grid, coeffs) : (FrequencyGrid, ndarray)
    """
    T = series.n_samples
    if T % 2 != 0:
        raise ConfigError(f"series length must be even, got {T}")
    x = demean(series).samples
    grid = FrequencyGrid(T)
    F = np.fft.fft(x, axis=0)
    # FFT sums over t = 0..T-1; the definition indexes time from 1.
    k = np.arange(T)
    F *= np.exp(-2j * np.pi * k / T)[:, None]
    return grid, grid.from_fft_order(F)


def periodogram(series):
    """The P x P periodogram matrix I(w_k) = d(w_k) d*(w_k) / T per frequency."""
    grid, d = fourier_coefficients(series)
    vals = np.einsum("kp,kq->kpq", d, d.conj()) / series.n_samples
    return CrossSpectralMatrix(grid, vals, series.sample_rate_hz, series.channel_labels)


def smooth_periodogram(csm, kernel):
    """Kernel-smooth a spectral matrix circularly across frequency.

    f~(w) = sum_l Q_b(l) I(w_{k-l}) with wrap-around indexing; smoothing by a
    convex combination preserves both Hermitian symmetry and PSD-ness.
    """
    n = csm.grid.n
    b = kernel.bandwidth
    if b >= n / 4:
        raise ConfigError(f"kernel bandwidth {b} too large for grid size {n}")
    w = kernel.weights()
    if b == 0:
        return CrossSpectralMatrix(csm.grid, csm.values.copy(),
                                   csm.sample_rate_hz, csm.channel_labels)
    kern = np.zeros(n)
    kern[:b + 1] = w[b:]
    kern[-b:] = w[:b]
    fk = np.fft.fft(kern)
    sm = np.fft.ifft(np.fft.fft(csm.values, axis=0) * fk[:, None, None], axis=0)
    # circular convolution of Hermitian matrices with real weights: enforce
    # the exact symmetry lost to FFT round-off
    sm = 0.5 * (sm + sm.conj().transpose(0, 2, 1))
    return CrossSpectralMatrix(csm.grid, sm, csm.sample_rate_hz, csm.channel_labels)


def var_spectrum(model, grid, sample_rate_hz=None):
    """Closed-form spectral matrix of a stable VAR model.

    f(w) = Phi^{-1}(e^{-i2pw}) Sigma_W Phi^{-*}(e^{-i2pw}) evaluated on the
    grid.  With this normalization the spectrum integrates over (-1/2, 1/2]
    to the process covariance (white noise of unit variance has a flat
    spectrum of height 1).
    """
    if not model.is_stable():
        raise ValueError("VAR model is not stable (companion spectral radius >= 1)")
    phi = transfer_function(model, grid)
    try:
        inv = np.linalg.inv(phi)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"singular transfer function (near-unit-root model): {exc}")
    vals = inv @ model.noise_cov @ inv.conj().transpose(0, 2, 1)
    vals = 0.5 * (vals + vals.conj().transpose(0, 2, 1))
    return CrossSpectralMatrix(grid, vals, sample_rate_hz)


def shrink_spectral_estimate(smoothed, parametric, kernel):
    """Blend a smoothed periodogram with a parametric spectral estimate.

    Per frequency the result is W1 f~ + W2 h~ with W1 + W2 = 1, where the
    smoothed periodogram's weight grows with the parametric estimator's MSE
    proxy m_h = ||h~ - f~||_F^2 and shrinks with the nonparametric variance
    proxy m_I = (sum_l Q_b(l)^2) ||f~||_F^2:

        W1 = m_h / (m_h + m_I).

    Large parametric error pushes the blend toward the data-driven estimate;
    a well-fitting parametric model dominates where the periodogram is noisy.
    """
    if smoothed.grid != parametric.grid:
        raise ConfigError("grid mismatch between the two spectral estimates")
    if smoothed.n_channels != parametric.n_channels:
        raise ConfigError("channel-count mismatch between spectral estimates")
    w = kernel.weights()
    var_factor = float(np.sum(w ** 2))
    f, h = smoothed.values, parametric.values
    mh = np.sum(np.abs(h - f) ** 2, axis=(1, 2))
    mi = var_factor * np.sum(np.abs(f) ** 2, axis=(1, 2))
    denom = mh + mi
    w1 = np.where(denom > 0, mh / np.where(denom > 0, denom, 1.0), 0.5)
    vals = w1[:, None, None] * f + (1.0 - w1)[:, None, None] * h
    return CrossSpectralMatrix(smoothed.grid, vals, smoothed.sample_rate_hz,
                               smoothed.channel_labels)


def csm_to_csv(csm, path):
    """Long-format export: freq (cycles/sample), freq_hz, p, q, re, im."""
    frequency_table_to_csv(path, csm.grid, csm.sample_rate_hz,
                           {"re": csm.values.real, "im": csm.values.imag})


def csm_to_json(csm):
    return {
        "n": csm.grid.n,
        "sample_rate_hz": csm.sample_rate_hz,
        "channel_labels": csm.channel_labels,
        "frequencies": csm.grid.frequencies.tolist(),
        "re": csm.values.real.tolist(),
        "im": csm.values.imag.tolist(),
    }


def csm_from_json(obj):
    grid = FrequencyGrid(obj["n"])
    vals = np.asarray(obj["re"]) + 1j * np.asarray(obj["im"])
    return CrossSpectralMatrix(grid, vals, obj.get("sample_rate_hz"),
                               obj.get("channel_labels"))
