"""Cross-spectral matrix estimation.

Estimators: the P x P periodogram matrix from the discrete Fourier
coefficients, kernel-smoothed periodograms, closed-form VAR spectra (an
AR(2) oscillator is the one-channel VAR(2) from :func:`ar2_from_peak`), and
a shrinkage estimator that mixes the smoothed periodogram with a parametric
VAR spectrum, frequency by frequency, according to mean-squared error
proxies.  Each estimator forms only the matrices at w >= 0, the half that
:class:`CrossSpectralMatrix` stores; its ``values`` unfold the whole grid.
"""

from dataclasses import dataclass

import numpy as np

from . import var  # read at call time, so importing this module does not run it
from .core import ConfigError, FrequencyGrid, _public, demean, frequency_table_to_csv


class CrossSpectralMatrix:
    """A Hermitian PSD P x P complex matrix per frequency-grid point.

    Only the n/2 + 1 matrices at w = 0 .. 1/2 are stored, as ``half``: the
    spectrum of a real series has f(-w) = conj f(w), so that half determines
    the rest.

    Parameters
    ----------
    grid : FrequencyGrid
    half : ndarray, shape (n/2 + 1, P, P), complex
        One matrix per grid frequency w >= 0, ascending (the ``rfft`` bins).
    sample_rate_hz : float, optional
        Present when the matrix was estimated from sampled data; used to
        translate Hz bands into grid indices.
    channel_labels : list of str, optional
    """

    def __init__(self, grid, half, sample_rate_hz=None, channel_labels=None):
        half = np.asarray(half, dtype=complex)
        if half.ndim != 3 or half.shape[1] != half.shape[2]:
            raise ConfigError("half must be (n/2 + 1, P, P)")
        if half.shape[0] != grid.n // 2 + 1:
            raise ConfigError(f"half has {half.shape[0]} rows, not n/2 + 1 = {grid.n // 2 + 1}")
        herm_err = np.max(np.abs(half - half.conj().transpose(0, 2, 1)))
        scale = np.max(np.abs(half))
        if scale > 0 and herm_err > 1e-10 * scale:
            raise ValueError(f"matrices not Hermitian (max asymmetry {herm_err:.3e})")
        self.grid = grid
        self.half = half
        self.sample_rate_hz = sample_rate_hz
        self.channel_labels = channel_labels

    @property
    def values(self):
        """Read-only (n, P, P) matrices over the whole grid, in grid order."""
        v = self.grid.unfold(self.half)
        v.flags.writeable = False
        return v

    @property
    def n_channels(self):
        return self.half.shape[1]

    def validate(self):
        """Check positive semi-definiteness; the constructor checks Hermitian symmetry."""
        ev = np.linalg.eigvalsh(self.half)
        tr = np.real(np.trace(self.half, axis1=1, axis2=2))
        floor = -1e-8 * np.maximum(tr, np.max(tr) * 1e-12 if np.max(tr) > 0 else 1.0)
        if np.any(ev[:, 0] < floor):
            worst = int(np.argmin(ev[:, 0] - floor))
            raise ValueError(f"not PSD at {self.grid.name_half_row(worst)}: "
                             f"min eigenvalue {ev[worst, 0]:.3e}")
        return self

    def __repr__(self):
        return (f"CrossSpectralMatrix(n={self.grid.n}, P={self.n_channels}, "
                f"fs={self.sample_rate_hz})")


def ar2_from_peak(M, psi, noise_var=1.0):
    """A causal AR(2) oscillator as the one-channel VAR(2) model.

    The roots of 1 - phi1 u - phi2 u^2 are M exp(+-i 2 pi psi), M > 1,
    giving a spectral peak at frequency ``psi`` (cycles/sample) whose width
    shrinks as M -> 1+: phi1 = (2/M) cos(2 pi psi) and phi2 = -1/M^2.
    """
    M, psi, noise_var = float(M), float(psi), float(noise_var)
    if not M > 1:
        raise ConfigError(f"root magnitude must exceed 1, got {M}")
    if not abs(psi) < 0.5:
        raise ConfigError(f"peak frequency must lie in (-0.5, 0.5), got {psi}")
    if not noise_var > 0:
        raise ConfigError("noise variance must be positive")
    phi1 = (2.0 / M) * np.cos(2 * np.pi * psi)
    return var.VarModel([[[phi1]], [[-1.0 / M ** 2]]], [[noise_var]])


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
    A real FFT gives those at w >= 0; ``grid.unfold`` adds d(-w) = conj d(w).

    Returns
    -------
    (grid, coeffs) : (FrequencyGrid, ndarray)
    """
    T = series.n_samples
    if T % 2 != 0:
        raise ConfigError(f"series length must be even, got {T}")
    grid = FrequencyGrid(T)
    # rfft sums over t = 0..T-1; the definition indexes time from 1.
    phase = np.exp(-2j * np.pi * np.arange(T // 2 + 1) / T)
    return grid, grid.unfold(np.fft.rfft(demean(series.samples), axis=0) * phase[:, None])


def periodogram(series):
    """The P x P periodogram matrix I(w_k) = d(w_k) d*(w_k) / T per frequency w_k >= 0."""
    grid, d = fourier_coefficients(series)
    d = d[grid.half_rows]  # w >= 0
    half = np.einsum("kp,kq->kpq", d, d.conj()) / series.n_samples
    return CrossSpectralMatrix(grid, half, series.sample_rate_hz, series.channel_labels)


def smooth_periodogram(csm, kernel):
    """Kernel-smooth a spectral matrix circularly across frequency.

    f~(w) = sum_l Q_b(l) I(w_{k-l}) with wrap-around indexing; smoothing by a
    convex combination preserves both Hermitian symmetry and PSD-ness.  The
    circular convolution is computed in its lag-window form: the lag sequence
    of the spectrum (``irfft`` of the w >= 0 half, real as f(-w) = conj f(w))
    times the kernel's real lag window, back through ``rfft``.
    """
    n = csm.grid.n
    b = kernel.bandwidth
    if b >= n / 4:
        raise ConfigError(f"kernel bandwidth {b} too large for grid size {n}")
    if b == 0:  # the identity, exactly: the FFT pair would round I(0) ~ 0 below zero
        return csm
    w = kernel.weights()
    kern = np.zeros(n)
    kern[:b + 1] = w[b:]
    kern[n - b:] = w[:b]
    lag_window = n * np.fft.ifft(kern).real
    sm = np.fft.rfft(np.fft.irfft(csm.half, n, axis=0) * lag_window[:, None, None], axis=0)
    # restore the exact Hermitian symmetry lost to FFT round-off
    sm = 0.5 * (sm + sm.conj().transpose(0, 2, 1))
    return CrossSpectralMatrix(csm.grid, sm, csm.sample_rate_hz, csm.channel_labels)


def var_spectrum(model, grid, sample_rate_hz=None):
    """Closed-form spectral matrix of a stable VAR model.

    f(w) = Phi^{-1}(e^{-i2pw}) Sigma_W Phi^{-*}(e^{-i2pw}) evaluated on the
    grid frequencies w >= 0.  With this normalization the spectrum integrates
    over (-1/2, 1/2] to the process covariance (white noise of unit variance
    has a flat spectrum of height 1).
    """
    if not model.is_stable():
        raise ValueError("VAR model is not stable (companion spectral radius >= 1)")
    try:
        inv = np.linalg.inv(var.transfer_function(model, grid.frequencies[grid.half_rows]))
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"singular transfer function (near-unit-root model): {exc}")
    half = inv @ model.noise_cov @ inv.conj().transpose(0, 2, 1)
    return CrossSpectralMatrix(grid, 0.5 * (half + half.conj().transpose(0, 2, 1)),
                               sample_rate_hz)


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
    f, h = smoothed.half, parametric.half
    mh = np.sum(np.abs(h - f) ** 2, axis=(1, 2))
    mi = var_factor * np.sum(np.abs(f) ** 2, axis=(1, 2))
    denom = mh + mi
    w1 = np.where(denom > 0, mh / np.where(denom > 0, denom, 1.0), 0.5)
    half = w1[:, None, None] * f + (1.0 - w1)[:, None, None] * h
    return CrossSpectralMatrix(smoothed.grid, half, smoothed.sample_rate_hz,
                               smoothed.channel_labels)


def csm_to_csv(csm, path):
    """Long-format export: freq (cycles/sample), freq_hz, p, q, re, im."""
    v = csm.values
    frequency_table_to_csv(path, csm.grid, csm.sample_rate_hz, {"re": v.real, "im": v.imag})


def csm_to_json(csm):
    """The matrix at every grid frequency, in grid order, as a JSON-ready dict."""
    v = csm.values
    return {
        "n": csm.grid.n,
        "sample_rate_hz": csm.sample_rate_hz,
        "channel_labels": csm.channel_labels,
        "frequencies": csm.grid.frequencies,
        "re": v.real,
        "im": v.imag,
    }


__all__ = _public(globals())  # stays last: it lists the definitions above
