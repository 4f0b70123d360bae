"""Dimension reduction: classical PCA and frequency-domain (spectral) PCA.

Classical PCA encodes with the top eigenvectors of the lag-0 covariance; its
components can miss structure that lives in lead-lag relationships.  Spectral
PCA eigendecomposes the spectral matrix frequency by frequency over its
stored w >= 0 half, whose conjugates are the loadings at w < 0, and inverts
the per-frequency loadings to a bank of two-sided lag-domain filters, giving
components that are mutually incoherent at every frequency.

The encode filters are two-sided (non-causal) by construction; SPCA is a
summary tool, not a causality tool, and its output must not feed the
one-sided machinery in :mod:`specdep.var`.
"""

import numpy as np

from .core import ConfigError, MultiChannelSeries, _public, demean


class PcaSolution:
    """Top-Q eigenpairs of the sample lag-0 covariance.

    ``loadings`` is P x Q with orthonormal columns (largest-magnitude entry
    of each made positive); ``eigenvalues`` are nonincreasing.  The channel
    means removed before fitting are kept for encode/decode.
    """

    def __init__(self, loadings, eigenvalues, mean):
        self.loadings = np.asarray(loadings, dtype=float)
        self.eigenvalues = np.asarray(eigenvalues, dtype=float)
        self.mean = np.asarray(mean, dtype=float)

    @property
    def n_components(self):
        return self.loadings.shape[1]


def _fix_signs(vectors):
    """Flip each column so its largest-magnitude entry is positive.

    Ties break toward the lowest channel index (argmax returns the first).
    """
    idx = np.argmax(np.abs(vectors), axis=0)
    signs = np.sign(vectors[idx, np.arange(vectors.shape[1])])
    signs[signs == 0] = 1.0
    return vectors * signs


def pca_fit(series, Q):
    """Classical PCA of the sample covariance at lag zero."""
    P = series.n_channels
    if not 1 <= Q <= P:
        raise ConfigError(f"Q must lie in [1, {P}], got {Q}")
    mean = series.samples.mean(axis=0)
    x = series.samples - mean
    cov = (x.T @ x) / series.n_samples
    ev, vec = np.linalg.eigh(cov)
    order = np.argsort(ev)[::-1][:Q]
    return PcaSolution(_fix_signs(vec[:, order]), ev[order], mean)


def pca_encode(series, sol):
    """Y(t) = A' (X(t) - mean): the Q-dimensional summary series."""
    if series.n_channels != sol.loadings.shape[0]:
        raise ConfigError("channel count does not match the PCA solution")
    y = (series.samples - sol.mean) @ sol.loadings
    labels = [f"PC{i + 1}" for i in range(sol.n_components)]
    return MultiChannelSeries(y, series.sample_rate_hz, labels)


def pca_decode(encoded, sol):
    """X_hat(t) = A Y(t) + mean: rank-Q reconstruction."""
    if encoded.n_channels != sol.n_components:
        raise ConfigError("component count does not match the PCA solution")
    x = encoded.samples @ sol.loadings.T + sol.mean
    return MultiChannelSeries(x, encoded.sample_rate_hz)


class SpcaSolution:
    """Per-frequency spectral loadings plus their lag-domain filter banks.

    ``loadings[k]`` is the P x Q matrix of top eigenvectors of f(w_k), phase
    aligned across neighbouring frequencies and A(-w) = conj A(w), so
    the inverse-DFT lag filters are real.  ``encode_filters`` (Q x P per lag,
    B(l)) and ``decode_filters`` (P x Q per lag, A(l)) cover lags
    -lag_truncation..lag_truncation.
    """

    def __init__(self, grid, loadings, eigenvalues, lag_truncation,
                 decode_filters, encode_filters, sample_rate_hz=None,
                 degenerate_freqs=()):
        self.grid = grid
        self.loadings = np.asarray(loadings, dtype=complex)
        self.eigenvalues = np.asarray(eigenvalues, dtype=float)
        self.lag_truncation = int(lag_truncation)
        self.decode_filters = np.asarray(decode_filters, dtype=float)
        self.encode_filters = np.asarray(encode_filters, dtype=float)
        self.sample_rate_hz = sample_rate_hz
        self.degenerate_freqs = list(degenerate_freqs)

    @property
    def n_components(self):
        return self.loadings.shape[2]

    @property
    def lags(self):
        return np.arange(-self.lag_truncation, self.lag_truncation + 1)


def _eigh_descending(m):
    """Batched ``eigh`` with each matrix's eigenpairs in descending eigenvalue order."""
    ev, vec = np.linalg.eigh(m)  # ascending
    return ev[..., ::-1], vec[..., ::-1]


def spca_fit(spectral_estimate, Q, lag_truncation=None):
    """Spectral PCA of a Hermitian PSD cross-spectral matrix.

    Per grid frequency the top-Q eigenvectors form A(w).  Eigenvectors are
    defined only up to a unit-modulus factor, so each is rotated to minimize
    its distance to the previous frequency's vector (anchored at w = 0 with
    the real positive-max-entry convention, and forced real at the Nyquist
    bin); without this alignment the inverse DFT to lag filters would be
    meaningless.  Only the stored w >= 0 half is decomposed: the loadings at
    -w are the conjugates of those at w, as the matrices are, hence the lag
    filters A(l) = (1/n) sum_k A(w_k) e^{i 2 pi l w_k} are real, the
    ``irfft`` of the half.  Truncation defaults to n/8 lags each side.

    An eigen-gap collapse (lambda_Q close to lambda_{Q+1} within 1e-6
    relative) is recorded in ``degenerate_freqs``; the solution is still
    returned.
    """
    f = spectral_estimate
    n, P = f.grid.n, f.n_channels
    if not 1 <= Q <= P:
        raise ConfigError(f"Q must lie in [1, {P}], got {Q}")
    if lag_truncation is None:
        lag_truncation = max(1, n // 8)
    lag_truncation = int(lag_truncation)
    if not 0 <= lag_truncation < n // 2:
        raise ConfigError("lag truncation must be >= 0 and below half the grid size")
    if np.all(np.einsum("kpp->k", f.half).real <= 0):
        raise ValueError("zero total power at every frequency; no components to extract")

    # f is real symmetric at DC and Nyquist for real input
    ev_end, vec_end = _eigh_descending(f.half[[0, -1]].real)
    ev_mid, vec_mid = _eigh_descending(f.half[1:-1])
    ev = np.concatenate([ev_end[:1], ev_mid, ev_end[1:]])
    degenerate = []
    if Q < P:
        gap = ev[:, Q - 1] - ev[:, Q] <= 1e-6 * np.maximum(np.abs(ev[:, Q - 1]), 1e-300)
        degenerate = f.grid.frequencies[f.grid.half_rows][gap].tolist()

    # Bin k's vectors v_k are rotated by unit phases u_k = u_{k-1} conj(w_k)/|w_k|,
    # w_k = v_{k-1}^H v_k, which brings each closest to its aligned predecessor.
    # Where w_k = 0 the vector is kept as eigh returned it and the product restarts.
    dc = _fix_signs(vec_end[0, :, :Q]).astype(complex)
    vecs = np.concatenate([dc[None], vec_mid[:, :, :Q]])
    w = np.einsum("kpq,kpq->kq", vecs[:-1].conj(), vecs[1:])
    live = w != 0
    phase = np.ones_like(w)
    phase[live] = w[live].conj() / np.abs(w[live])
    u = np.cumprod(phase, axis=0)
    for k, j in zip(*np.nonzero(~live)):
        u[k:, j] = np.cumprod(phase[k:, j])
    vecs[1:] *= u[:, None, :]
    # the Nyquist vectors stay real: only a sign flip toward the previous bin
    nyq = vec_end[1, :, :Q]
    nyq = np.where(np.einsum("pq,pq->q", vecs[-1].conj(), nyq).real < 0, -nyq, nyq)
    vecs = np.concatenate([vecs, nyq[None]])

    # A(l) = (1/n) sum_k A(w_k) e^{+i 2 pi l k / n}, k over all n bins
    lags = np.arange(-lag_truncation, lag_truncation + 1)
    A_l = np.fft.irfft(vecs, n, axis=0)[np.mod(lags, n)]
    # encode transfer is A*(w); its lag filter is B(l) = A(-l)^T
    B_l = A_l[::-1].transpose(0, 2, 1)
    return SpcaSolution(f.grid, f.grid.unfold(vecs), f.grid.unfold(ev[:, :Q]),
                        lag_truncation, A_l, B_l, f.sample_rate_hz, degenerate)


def _apply_lag_filter(x, filters, lag_truncation):
    """y(t) = sum_l F(l) x(t-l) for a (2L+1, Q, P) filter bank, zero-padded.

    One linear convolution of every (q, p) pair at once: the zero-padded
    spectra multiply bin by bin and sum over p, then one inverse FFT.
    """
    T, L = x.shape[0], lag_truncation
    n = T + 2 * L
    X = np.fft.rfft(x, n, axis=0)
    F = np.fft.rfft(filters, n, axis=0)
    full = np.fft.irfft(np.einsum("kqp,kp->kq", F, X), n, axis=0)
    return full[L:L + T]


def spca_encode(series, sol):
    """Two-sided filter encode: Y(t) = sum_l B(l) X(t-l) on demeaned input."""
    if series.n_channels != sol.loadings.shape[1]:
        raise ConfigError("channel count does not match the SPCA solution")
    if series.n_samples <= 2 * sol.lag_truncation:
        raise ConfigError("series shorter than twice the filter lag range")
    x = demean(series.samples)
    y = _apply_lag_filter(x, sol.encode_filters, sol.lag_truncation)
    labels = [f"SPC{i + 1}" for i in range(sol.n_components)]
    return MultiChannelSeries(y, series.sample_rate_hz, labels)


def spca_decode(encoded, sol):
    """Two-sided filter decode: X_hat(t) = sum_l A(l) Y(t-l) (zero mean)."""
    if encoded.n_channels != sol.n_components:
        raise ConfigError("component count does not match the SPCA solution")
    x = _apply_lag_filter(encoded.samples, sol.decode_filters, sol.lag_truncation)
    return MultiChannelSeries(x, encoded.sample_rate_hz)


def reconstruction_error(series, sol):
    """Mean squared per-sample reconstruction error of decode(encode(x)).

    Computed on interior samples (filter transients trimmed for SPCA) after
    removing each side's mean, so the PCA and SPCA mean conventions do not
    enter the comparison.
    """
    if isinstance(sol, SpcaSolution):
        xhat = spca_decode(spca_encode(series, sol), sol).samples
        trim = 2 * sol.lag_truncation
    else:
        xhat = pca_decode(pca_encode(series, sol), sol).samples
        trim = 0
    x = series.samples
    if x.shape[0] <= 2 * trim + 1:
        raise ConfigError("series too short for the solution's lag range")
    sl = slice(trim, x.shape[0] - trim) if trim else slice(None)
    return float(np.mean(np.sum((demean(x[sl]) - demean(xhat[sl])) ** 2, axis=1)))


def spca_to_json(sol):
    return {
        "n": sol.grid.n,
        "Q": sol.n_components,
        "lag_truncation": sol.lag_truncation,
        "sample_rate_hz": sol.sample_rate_hz,
        "degenerate_freqs": sol.degenerate_freqs,
        "eigenvalues": sol.eigenvalues,
        "loadings_re": sol.loadings.real,
        "loadings_im": sol.loadings.imag,
        "decode_filters": sol.decode_filters,
        "encode_filters": sol.encode_filters,
    }


__all__ = _public(globals())  # stays last: it lists the definitions above
