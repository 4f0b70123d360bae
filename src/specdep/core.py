"""Time-series containers, frequency bands, and lag-domain correlation primitives.

The basic data object is :class:`MultiChannelSeries`, a T x P sample matrix
with a sampling rate.  All dependence measures in the other modules consume
it.  Covariance/correlation here use the biased 1/T normalization so that the
autocovariance sequence is positive semi-definite.  Every long-format
result table is written by :func:`table_to_csv` (per-frequency matrices
through :func:`frequency_table_to_csv`), every JSON document by
:func:`write_json`, and every time-varying estimate loops over
:func:`sliding_windows`.
"""

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MultiChannelSeries",
    "Band",
    "FrequencyGrid",
    "MalformedInputError",
    "ConfigError",
    "standard_bands",
    "band_by_name",
    "demean",
    "cross_covariance",
    "cross_correlation",
    "max_lag_sq_correlation",
    "TimeVaryingResult",
    "sliding_windows",
    "table_to_csv",
    "frequency_table_to_csv",
    "write_json",
]

# Rows formatted per write.  Formatting a whole long table at once (245,760
# rows for tvcoh on 8192 samples) raised the writer's peak RSS from 40 to 56 MB.
TABLE_CHUNK_ROWS = 4096


class MalformedInputError(ValueError):
    """Raised when input data (files, arrays) cannot be interpreted."""


class ConfigError(ValueError):
    """Raised when an analysis configuration is inconsistent."""


def _check_channels(channels, P):
    """``channels`` as a list, each checked to lie in [0, P) so that none wraps."""
    channels = list(channels)
    for c in channels:
        if not 0 <= c < P:
            raise ConfigError(f"channel {c} outside [0, {P})")
    return channels


class MultiChannelSeries:
    """A multivariate time series sampled on a regular grid.

    Parameters
    ----------
    samples : array_like, shape (T, P)
        One row per time point, one column per channel.  Must be finite.
    sample_rate_hz : float
        Sampling rate in Hz, > 0.
    channel_labels : sequence of str, optional
        Unique channel names.  Defaults to ``X1..XP``.
    """

    def __init__(self, samples, sample_rate_hz, channel_labels=None):
        samples = np.asarray(samples, dtype=float)
        if samples.ndim == 1:
            samples = samples[:, None]
        if samples.ndim != 2:
            raise MalformedInputError("samples must be a 2-D (T, P) array")
        T, P = samples.shape
        if T < 2 or P < 1:
            raise MalformedInputError(f"need T >= 2 and P >= 1, got T={T}, P={P}")
        if not np.all(np.isfinite(samples)):
            raise MalformedInputError("samples contain NaN or Inf")
        if not (np.isfinite(sample_rate_hz) and sample_rate_hz > 0):
            raise ConfigError(f"sample rate must be positive, got {sample_rate_hz}")
        if channel_labels is None:
            channel_labels = [f"X{p + 1}" for p in range(P)]
        channel_labels = [str(c) for c in channel_labels]
        if len(channel_labels) != P:
            raise MalformedInputError("channel_labels length must equal P")
        if len(set(channel_labels)) != P:
            raise MalformedInputError("channel_labels must be pairwise distinct")
        self.samples = samples
        self.sample_rate_hz = float(sample_rate_hz)
        self.channel_labels = list(channel_labels)

    @property
    def n_samples(self):
        return self.samples.shape[0]

    @property
    def n_channels(self):
        return self.samples.shape[1]

    def check_channels(self, channels):
        """``channels`` as a list, each checked to lie in [0, P) so that none wraps."""
        return _check_channels(channels, self.n_channels)

    def channel(self, p):
        """Return column ``p`` as a 1-D array (no copy)."""
        self.check_channels([p])
        return self.samples[:, p]

    def with_samples(self, samples, channel_labels=None):
        """New series sharing this one's sampling rate.

        Labels carry over when the channel count is unchanged.
        """
        samples = np.asarray(samples)
        if (channel_labels is None and samples.ndim == 2
                and samples.shape[1] == self.n_channels):
            channel_labels = self.channel_labels
        return MultiChannelSeries(samples, self.sample_rate_hz, channel_labels)

    def select(self, channels):
        """Sub-series with the given channel indices, order preserved."""
        channels = self.check_channels(channels)
        return MultiChannelSeries(
            self.samples[:, channels],
            self.sample_rate_hz,
            [self.channel_labels[c] for c in channels],
        )

    def __repr__(self):
        return (f"MultiChannelSeries(T={self.n_samples}, P={self.n_channels}, "
                f"fs={self.sample_rate_hz} Hz)")


class Band:
    """A frequency band [low_hz, high_hz) in Hz."""

    def __init__(self, name, low_hz, high_hz):
        if not (0 <= low_hz < high_hz):
            raise ConfigError(f"invalid band ({low_hz}, {high_hz})")
        self.name = str(name)
        self.low_hz = float(low_hz)
        self.high_hz = float(high_hz)

    @property
    def center_hz(self):
        return 0.5 * (self.low_hz + self.high_hz)

    def validate_for(self, sample_rate_hz):
        if self.high_hz > sample_rate_hz / 2:
            raise ConfigError(
                f"band {self.name} ({self.low_hz}-{self.high_hz} Hz) exceeds the "
                f"Nyquist frequency {sample_rate_hz / 2} Hz")

    def __eq__(self, other):
        return (isinstance(other, Band) and self.name == other.name
                and self.low_hz == other.low_hz and self.high_hz == other.high_hz)

    def __hash__(self):
        return hash((self.name, self.low_hz, self.high_hz))

    def __repr__(self):
        return f"Band({self.name!r}, {self.low_hz}, {self.high_hz})"


def standard_bands():
    """The five conventional EEG rhythms, in Hz, ordered and disjoint."""
    return [
        Band("delta", 0.5, 4.0),
        Band("theta", 4.0, 8.0),
        Band("alpha", 8.0, 12.0),
        Band("beta", 12.0, 30.0),
        Band("gamma", 30.0, 50.0),
    ]


def band_by_name(name):
    for b in standard_bands():
        if b.name == name:
            return b
    raise ConfigError(f"unknown band name {name!r}; choose from "
                      f"{[b.name for b in standard_bands()]}")


class FrequencyGrid:
    """The n-point grid of fundamental frequencies k/n, in cycles/sample.

    Frequencies run over k = -(n/2 - 1) .. n/2, i.e. ascending through
    (-0.5, 0.5] with the Nyquist bin labelled +0.5.  ``from_fft_order`` /
    ``to_fft_order`` translate arrays between this ordering and the natural
    FFT bin ordering 0 .. n-1 (the two are cyclic rotations of each other).
    """

    def __init__(self, n):
        n = int(n)
        if n <= 0 or n % 2 != 0:
            raise ConfigError(f"grid size must be even and positive, got {n}")
        self.n = n
        k = np.arange(-(n // 2 - 1), n // 2 + 1)
        self.frequencies = k / n
        # FFT bin index for each grid frequency: j = k mod n
        self._fft_index = np.mod(k, n)

    def from_fft_order(self, values):
        """Reorder an array indexed by FFT bin (axis 0) into grid order."""
        return np.asarray(values)[self._fft_index]

    def to_fft_order(self, values):
        """Inverse of :meth:`from_fft_order`."""
        out = np.empty_like(np.asarray(values))
        out[self._fft_index] = values
        return out

    def index_of(self, freq):
        """Index of the grid frequency closest to ``freq`` (cycles/sample)."""
        return int(np.argmin(np.abs(self.frequencies - freq)))

    def index_of_hz(self, freq_hz, sample_rate_hz):
        return self.index_of(freq_hz / sample_rate_hz)

    def band_indices(self, band, sample_rate_hz):
        """Indices of the grid frequencies in ``band``'s [low_hz, high_hz)."""
        hz = self.frequencies * sample_rate_hz
        return np.nonzero((hz >= band.low_hz) & (hz < band.high_hz))[0]

    def __eq__(self, other):
        return isinstance(other, FrequencyGrid) and self.n == other.n

    def __len__(self):
        return self.n

    def __repr__(self):
        return f"FrequencyGrid(n={self.n})"


@dataclass
class TimeVaryingResult:
    """Sliding-window results indexed by rescaled time u = t/T in (0, 1)."""

    centers: np.ndarray
    window: int
    step: int
    grid: object
    values: np.ndarray            # (n_windows, n, P, P)
    kind: str = "coherence"
    sample_rate_hz: float = None


def sliding_windows(series, N, step):
    """The N-sample windows of a series that advance by ``step``.

    Returns a list of ``(u, window)`` pairs: ``window`` is a sub-series of
    samples s..s+N-1 (a view) and u = (s + N//2) / T its centre in rescaled
    time.
    """
    T = series.n_samples
    if N < 2 or N % 2 != 0 or N > T:
        raise ConfigError(f"window length N must be even and in [2, T={T}], got {N}")
    if step < 1:
        raise ConfigError("step must be >= 1")
    return [((s + N // 2) / T, series.with_samples(series.samples[s:s + N]))
            for s in range(0, T - N + 1, step)]


def demean(series):
    """Remove each channel's sample mean.  Idempotent."""
    x = series.samples
    return series.with_samples(x - x.mean(axis=0, keepdims=True))


def cross_covariance(series, p, q, h):
    """Sample cross-covariance between channels p and q at lag h.

    Returns (1/T) * sum_t x_p(t+h) x_q(t) over all valid t, with channel
    means removed first.  The biased 1/T normalization keeps the estimated
    autocovariance sequence positive semi-definite.
    Satisfies cross_covariance(p, q, h) == cross_covariance(q, p, -h).
    """
    T = series.n_samples
    h = int(h)
    if abs(h) >= T:
        raise ConfigError(f"lag {h} out of range for T={T}")
    x = series.channel(p) - series.channel(p).mean()
    y = series.channel(q) - series.channel(q).mean()
    return _lagged_dot(x, y, h) / T


def _lagged_dot(x, y, h):
    """sum_t x(t+h) y(t) over the t where both are defined."""
    T = len(x)
    if h >= 0:
        return np.dot(x[h:], y[:T - h])
    return np.dot(x[:T + h], y[-h:])


def cross_correlation(series, p, q, h):
    """Lagged cross-correlation: sigma_pq(h) / sqrt(sigma_pp(0) sigma_qq(0))."""
    vp = cross_covariance(series, p, p, 0)
    vq = cross_covariance(series, q, q, 0)
    if vp <= 0 or vq <= 0:
        raise ValueError("zero-variance channel")
    return cross_covariance(series, p, q, h) / np.sqrt(vp * vq)


def max_lag_sq_correlation(x, y, max_lag):
    """Maximum squared lagged correlation between two 1-D signals.

    r(l) = sum_t x(t) y(t-l) / sqrt(sum x^2 sum y^2); the value returned is
    max_l r(l)^2 over l in [-max_lag, max_lag] together with the maximizing
    lag.  Ties break toward the smallest |l|, negative lag first.  Inputs are
    demeaned first; the normalization uses full (lag-0) sums of squares.

    Returns
    -------
    (value, lag) : (float in [0, 1], int)
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or y.ndim != 1 or len(x) != len(y):
        raise ValueError("x and y must be 1-D arrays of equal length")
    T = len(x)
    max_lag = int(max_lag)
    if not 0 <= max_lag < T / 2:
        raise ConfigError(f"max_lag must satisfy 0 <= max_lag < T/2, got {max_lag}")
    x = x - x.mean()
    y = y - y.mean()
    denom = np.sqrt(np.dot(x, x) * np.dot(y, y))
    if denom <= 0:
        raise ValueError("degenerate (zero-variance) input")
    best_val, best_lag = (_lagged_dot(x, y, 0) / denom) ** 2, 0
    for mag in range(1, max_lag + 1):
        for lag in (-mag, mag):
            v = (_lagged_dot(x, y, lag) / denom) ** 2
            if v > best_val:
                best_val, best_lag = v, lag
    return float(best_val), int(best_lag)


def table_to_csv(path, header, columns):
    """Write a long-format table: a header row, then one CSV row per entry.

    ``columns`` holds one array-like per header field.  They are broadcast
    against each other and rows run over the broadcast shape in C order, so
    an index column such as a frequency grid is passed once, not repeated.
    Float columns are written at 17 significant digits, so a round trip
    through the file is exact; ints and labels are written as they are, a
    label holding a comma or a quote inside quotes.  A float column with fewer
    values than the table has rows is formatted once up front; the others
    are formatted ``TABLE_CHUNK_ROWS`` rows at a time.
    """
    fmt = "{:.17g}".format
    cols = [np.asarray(c) for c in columns]
    shape = np.broadcast_shapes(*(c.shape for c in cols))
    rows = math.prod(shape)
    for i, c in enumerate(cols):
        if c.dtype.kind == "f" and c.size < rows:
            c = np.array(list(map(fmt, c.ravel().tolist())), dtype=object).reshape(c.shape)
        cols[i] = np.broadcast_to(c, shape)
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(header)
        for s in range(0, rows, TABLE_CHUNK_ROWS):
            cells = [c.flat[s:s + TABLE_CHUNK_ROWS].tolist() for c in cols]
            wr.writerows(zip(*[map(fmt, v) if c.dtype.kind == "f" else v
                               for c, v in zip(cols, cells)]))


def frequency_table_to_csv(path, grid, fs, columns, u=None):
    """Long-format table of per-frequency matrices: [u,] freq, freq_hz, p, q, ...

    ``columns`` maps each value column's name to an (n, P, P) array, or
    (len(u), n, P, P) with one block per window centre u.  freq_hz is left
    empty when ``fs`` is None.
    """
    chan = np.arange(next(iter(columns.values())).shape[-1])
    f = grid.frequencies[:, None, None]
    header = ["freq", "freq_hz", "p", "q", *columns]
    cols = [f, f * fs if fs else "", chan[:, None], chan, *columns.values()]
    if u is not None:
        header, cols = ["u", *header], [np.reshape(u, (-1, 1, 1, 1)), *cols]
    table_to_csv(path, header, cols)


def write_json(path, obj, indent=None):
    """Write ``obj`` to ``path`` as one JSON document.

    ``json.dump`` streams the encoding to the file, so a large document is
    never held whole in memory.
    """
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=indent)
