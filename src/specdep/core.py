"""Time-series containers, frequency bands, lag-domain covariance, and writers.

The basic data object is :class:`MultiChannelSeries`, a T x P sample matrix
with a sampling rate.  All dependence measures in the other modules consume
it.  :class:`FrequencyGrid` orders the frequencies of an n-point spectrum and
unfolds its w >= 0 half to the whole grid.  Covariance here uses the biased
1/T normalization so that the autocovariance sequence is positive
semi-definite.  Every long-format result table is written by
:func:`table_to_csv`, except the per-frequency matrices:
:func:`frequency_table_to_csv` writes those one frequency block at a time.
Every JSON document is written by :func:`write_json`, which formats each
float64 array itself.  All three format floats through one chunked ``%``
loop (:func:`_format_rows`), and the two per-frequency writers format only
the w >= 0 half of a mirrored array, reusing its text for the w < 0 half
(:func:`_grid_texts`).  Every time-varying estimate is one map of
:func:`_over_windows` over the :func:`sliding_windows`.
"""

import json
from dataclasses import dataclass
from itertools import islice, repeat

import numpy as np

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
    (-0.5, 0.5] with the Nyquist bin labelled +0.5.  Rows ``half_rows``
    (n/2 - 1 on, w = 0 .. 1/2) are the ``rfft`` bins; ``unfold``, the one route
    into grid order, builds a real series' whole spectrum from them.
    """

    def __init__(self, n):
        n = int(n)
        if n <= 0 or n % 2 != 0:
            raise ConfigError(f"grid size must be even and positive, got {n}")
        self.n = n
        self.half_rows = slice(n // 2 - 1, None)
        self.frequencies = np.arange(-(n // 2 - 1), n // 2 + 1) / n

    def name_half_row(self, i):
        """``grid index k (frequency w)`` of row i of the w >= 0 half, for error messages."""
        k = self.half_rows.start + i
        return f"grid index {k} (frequency {self.frequencies[k]:.6f})"

    def unfold(self, half):
        """The n grid-order rows (axis 0) of the n/2 + 1 rows ``half`` at w >= 0.

        Each w < 0 row is the conjugate of its w > 0 partner, as the spectra
        of real series are: f(-w) = conj f(w).  A real ``half`` stays real.
        """
        half = np.asarray(half)
        return np.concatenate([half[self.half_rows.start:0:-1].conj(), half])

    def index_of(self, freq):
        """Index of the grid frequency nearest ``freq`` in [-0.5, 0.5], distance
        wrapping so that -0.5 is the Nyquist bin; a tie goes to the first index."""
        if not abs(freq) <= 0.5:
            raise ConfigError(f"frequency {freq} outside [-0.5, 0.5] cycles per sample")
        d = np.abs(self.frequencies - freq)
        return int(np.argmin(np.minimum(d, 1 - d)))

    def index_of_hz(self, freq_hz, sample_rate_hz):
        return self.index_of(freq_hz / sample_rate_hz)

    def __eq__(self, other):
        return isinstance(other, FrequencyGrid) and self.n == other.n

    def __repr__(self):
        return f"FrequencyGrid(n={self.n})"


@dataclass
class TimeVaryingResult:
    """Sliding-window results indexed by rescaled time u = t/T in (0, 1)."""

    centers: np.ndarray
    grid: object
    values: np.ndarray            # (n_windows, n, P, P)


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


def _over_windows(series, N, step, estimate):
    """:class:`TimeVaryingResult` of ``estimate(w)``, an N-point grid array, per window w."""
    windows = sliding_windows(series, N, step)
    return TimeVaryingResult(np.array([u for u, _ in windows]), FrequencyGrid(N),
                             np.stack([estimate(w) for _, w in windows]))


def demean(x):
    """``x`` less its mean along axis 0: the one centring rule.  Idempotent.

    A constant column becomes exact zeros: its first sample is subtracted,
    as its computed mean can differ from the value by a rounding error.
    The shape is kept, so a 1-D signal stays 1-D.
    """
    n = x.shape[0]
    if n == 0:
        raise ValueError("cannot centre an empty array")
    mean, first = x.mean(axis=0, keepdims=True), x[:1]
    # a column whose first, middle and last samples differ is not constant
    maybe = (first == x[n // 2:n // 2 + 1]) & (first == x[-1:])
    if maybe.any():
        mean = np.where(maybe & (np.ptp(x, axis=0, keepdims=True) == 0), first, mean)
    return x - mean


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
    return _lagged_dot(demean(series.channel(p)), demean(series.channel(q)), h) / T


def _lagged_dot(x, y, h):
    """sum_t x(t+h) y(t) over the t where both are defined."""
    T = len(x)
    if h >= 0:
        return np.dot(x[h:], y[:T - h])
    return np.dot(x[:T + h], y[-h:])


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
    x, y = demean(x), demean(y)
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


def _csv_field(text, lone=False):
    """``text`` quoted as csv quotes it: when it holds , " CR or LF, or is empty and alone."""
    if any(ch in text for ch in ',"\r\n') or lone and not text:
        return '"' + text.replace('"', '""') + '"'
    return text


def table_to_csv(path, header, columns):
    """Write a long-format table: a header row, then one CSV row per entry.

    ``columns`` holds one array-like per header field.  They are broadcast
    against each other and rows run over the broadcast shape in C order, so
    an index column such as a frequency grid is passed once, not repeated.
    Float columns are written at 17 significant digits, so a round trip
    through the file is exact; ints and labels are written as they are, a
    label holding a comma or a quote inside quotes.  Labels are formatted
    once up front; then :func:`_format_rows` formats each ``TABLE_CHUNK_ROWS``
    rows with a line template made from the column types, all columns cast
    to ``object`` when their dtypes differ, so that every int stays exact.
    """
    cols = [np.asarray(c) for c in columns]
    shape = np.broadcast_shapes(*(c.shape for c in cols))
    line = []
    for i, c in enumerate(cols):
        if c.dtype.kind not in "fiu":
            text = [_csv_field(str(v), len(cols) == 1) for v in c.ravel().tolist()]
            c = np.array(text, dtype=object).reshape(c.shape)
        line.append({"f": "%.17g", "i": "%d", "u": "%d"}.get(c.dtype.kind, "%s"))
        cols[i] = np.broadcast_to(c, shape).reshape(-1)
    if len({c.dtype for c in cols}) > 1:
        cols = [c.astype(object) for c in cols]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(_csv_field(str(h), len(header) == 1) for h in header) + "\r\n")
        fh.writelines(_format_rows(",".join(line) + "\r\n", cols, TABLE_CHUNK_ROWS))


def _format_rows(template, values, chunk):
    """The text of each ``chunk`` rows along axis 0 of the arrays ``values``.

    ``template`` formats one row, taking its cells from row j of each array
    in turn; one ``%`` on it repeated formats each ``chunk`` rows, whose
    cells are stacked first.  This is the one loop that formats floats.
    """
    for s in range(0, len(values[0]), chunk):
        cells = np.stack([v[s:s + chunk] for v in values], axis=-1)
        yield template * len(cells) % tuple(cells.ravel().tolist())


def _mirror_parity(v, h0):
    """1 if the w < 0 rows v[:h0] of a grid-order array are bitwise their w > 0
    partners, -1 if they are bitwise the negated partners and none is NaN, else 0.

    Bits, not values, are compared: -0.0 == 0.0 though their texts differ, and
    NaN != NaN though its texts agree.
    """
    neg, partner = v[:h0].view(np.int64), v[2 * h0:h0:-1]
    if np.array_equal(neg, partner.view(np.int64)):
        return 1
    if np.array_equal(neg, (-partner).view(np.int64)) and not np.isnan(partner).any():
        return -1
    return 0


def _grid_texts(values, template, chunk):
    """The text of each of the n rows along axis 0 of the arrays ``values``.

    ``template(signs)`` formats a row from row j of each array, and marks by
    \\x02 the value of each array whose sign is -1.  When n is even and every
    array is bitwise a mirror (:func:`_mirror_parity`, the sign of each), only
    rows h0 = n/2-1.. (w >= 0) are formatted, and row j < h0 reuses the text
    of its w > 0 partner, row 2*h0 - j, with every marked value negated.
    That is exact, since ``'%r' % -x == '-' + '%r' % x`` and
    ``'%.17g' % -x == '-' + '%.17g' % x`` for every x but NaN.  Otherwise
    every row is formatted from its own values.
    """
    n, h0 = len(values[0]), len(values[0]) // 2 - 1
    signs = [_mirror_parity(v, h0) for v in values] if n % 2 == 0 else [0]
    if 0 in signs:
        signs, h0 = [1] * len(values), 0
    half = [t for text in _format_rows(template(signs) + "\x01", [v[h0:] for v in values], chunk)
            for t in text.split("\x01")[:-1]]
    if min(signs) > 0:
        return half[h0:0:-1] + half
    return ([t.replace("\x02-", "").replace("\x02", "-") for t in half[h0:0:-1]]
            + [t.replace("\x02", "") for t in half])


def frequency_table_to_csv(path, grid, fs, columns, u=None):
    """Long-format table of per-frequency matrices: [u,] freq, freq_hz, p, q, ...

    ``columns`` maps each value column's name to an (n, P, P) float array, or
    (len(u), n, P, P) with one block per window centre u.  freq_hz is left
    empty when ``fs`` is None.  The bytes are those of :func:`table_to_csv` on
    the broadcast columns: rows over [u,] grid frequency, p, q in C order,
    every float at 17 significant digits.

    The table is written one frequency block (its P*P rows) at a time.  Per
    window, the ``p,q,value...`` tails of the blocks are formatted by
    :func:`_grid_texts`, one ``%`` per ``TABLE_CHUNK_ROWS`` rows, and each
    grid row's ``[u,]freq,freq_hz,`` prefix is written once into its block.
    The w < 0 blocks reuse the text of their w > 0 partners when every column
    is bitwise its partners' mirror: equal (coherence, partial coherence,
    PDC, ``re``), or negated (``im``), whose text then changes sign.
    Otherwise they are formatted from their own values.
    """
    n = grid.n
    P = np.shape(next(iter(columns.values())))[-1]
    us = [None] if u is None else np.ravel(u).tolist()
    cols = [np.broadcast_to(np.asarray(c, dtype=float), (len(us), n, P, P))
            for c in columns.values()]
    f, line = grid.frequencies, "%.17g,%.17g,\x01" if fs else "%.17g,,\x01"
    rows = next(_format_rows(line, [f, f * fs] if fs else [f], n)).split("\x01")[:-1]
    header = ["freq", "freq_hz", "p", "q", *columns]
    chunk = max(1, TABLE_CHUNK_ROWS // (P * P))

    def template(signs):  # \x00 stands for a line's prefix
        cells = "".join(",\x02%.17g" if s < 0 else ",%.17g" for s in signs)
        return "".join("\x00%d,%d%s\r\n" % (p, q, cells) for p in range(P) for q in range(P))

    with open(path, "w", newline="") as fh:
        fh.write(",".join(_csv_field(str(h)) for h in ["u"] * (u is not None) + header) + "\r\n")
        for w, uw in enumerate(us):
            texts = _grid_texts([c[w] for c in cols], template, chunk)
            prefix = rows if uw is None else list(map(("%.17g," % uw).__add__, rows))
            lines = map(str.replace, texts, repeat("\x00"), prefix)
            for _ in range(0, n, chunk):
                fh.write("".join(islice(lines, chunk)))


# The string a float array stands as in json.dumps's output, and that text
_ARRAY_MARK = "\x00ndarray\x00"
_ARRAY_TEXT = '"\\u0000ndarray\\u0000"'


def _float_array_text(a):
    """``json.dumps(a.tolist())`` for a non-empty float64 array of 1 or more axes.

    Each row along axis 0 is formatted by one nested-list template of ``%r``,
    ``float.__repr__``, the text ``json`` writes; one ``%`` formats each
    ``TABLE_CHUNK_ROWS`` values.  When the leading axis has even length n and
    its rows [:n/2-1] are bitwise the mirrors of rows n/2-1.. (as for the w < 0
    half of a spectral array in grid order), only rows n/2-1.. are formatted
    (:func:`_grid_texts`).
    """
    v, row = a.reshape(len(a), -1), "%r"
    for k in reversed(a.shape[1:]):
        row = "[" + ", ".join([row] * k) + "]"
    texts = _grid_texts([v], lambda signs: row.replace("%", "\x02%") if signs[0] < 0 else row,
                        max(1, TABLE_CHUNK_ROWS // v.shape[1]))
    text = "[" + ", ".join(texts) + "]"
    if not np.isfinite(v).all():  # no finite repr holds "nan" or "inf"
        text = text.replace("nan", "NaN").replace("inf", "Infinity")
    return text


def write_json(path, obj, indent=None):
    """Write ``obj`` to ``path`` as one JSON document: the bytes of ``json.dump``
    on ``obj`` with every numpy array in it replaced by its ``tolist()``.

    Without ``indent``, ``json.dumps`` writes a mark in place of each non-empty
    float64 array of 1 or more axes, and each mark is replaced by the array's
    own text (:func:`_float_array_text`), which reuses the text of a mirrored
    half.  A document holding a string or key equal to the mark is written
    again with no marks, every array from ``tolist()``, as are other arrays
    and every array of an ``indent`` document.  Anything else JSON cannot
    encode raises ``TypeError``.
    """
    arrays, mark = [], indent is None

    def default(o):
        if not isinstance(o, np.ndarray):
            raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")
        if mark and type(o) is np.ndarray and o.dtype == np.float64 and o.size and o.ndim:
            arrays.append(o)
            return _ARRAY_MARK
        return o.tolist()

    parts = json.dumps(obj, indent=indent, default=default).split(_ARRAY_TEXT)
    if len(parts) != len(arrays) + 1:
        mark, arrays = False, []
        parts = [json.dumps(obj, indent=indent, default=default)]
    with open(path, "w") as fh:
        fh.write(parts[0])
        for a, part in zip(arrays, parts[1:]):
            fh.write(_float_array_text(a))
            fh.write(part)


def _public(namespace):
    """A module's public interface: in definition order, the classes and
    functions ``namespace`` defines itself whose names have no leading _.

    ``callable`` is tested first, so a lazily loaded submodule held in
    ``namespace`` is not run by reading its ``__module__``.
    """
    module = namespace["__name__"]
    return [name for name, value in namespace.items() if not name.startswith("_")
            and callable(value) and getattr(value, "__module__", None) == module]


__all__ = _public(globals())  # stays last: it lists the definitions above
