import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specdep.core import ConfigError, MultiChannelSeries, band_by_name, demean
from specdep.dualfreq import (band_dualfreq_coherence, dualfreq_coherence,
                              dualfreq_scan, local_fourier)
from specdep.simulate import example


def series_of(x, fs=128.0):
    x = np.asarray(x)
    if x.ndim == 1:
        x = x[:, None]
    return MultiChannelSeries(x, fs)


# Reference: the per-window loop, with one (2, N) phase matrix and one
# product per smoothing window or trial, for every (centre, pair).  The
# library's one kernel must agree with it within 1e-12 and fail the same way.
def reference_local_fourier(series, t, N, omega):
    N = int(N)
    if N % 2 != 0 or N < 2:
        raise ConfigError(f"window length must be even and >= 2, got {N}")
    lo, hi = t - (N // 2 - 1), t + N // 2
    if lo < 0 or hi >= series.n_samples:
        raise ConfigError(f"window [{lo}, {hi}] around t={t} leaves [0, {series.n_samples - 1}]")
    idx = np.arange(lo, hi + 1)
    ph = np.exp(-2j * np.pi * np.multiply.outer(np.asarray(omega, dtype=float), idx))
    return ph @ series.samples[idx] / np.sqrt(N)


def reference_coherence(data, t, N, p, omega_j, q, omega_k, smoothing=None):
    # each trial is centred once, before its windows are taken
    if isinstance(data, MultiChannelSeries):
        half, hop = (8, N // 2) if smoothing is None else smoothing
        if half < 0 or hop < 1:
            raise ConfigError("smoothing must be (half_width >= 0, hop >= 1)")
        reach = half * hop + N // 2  # the scan names the centre, not a smoothing piece
        if not reach - 1 <= t < data.n_samples - reach:
            how = (f"smoothing ({half}, {hop})" if smoothing is not None else
                   f"the default smoothing ({half} hops of N/2 = {hop} either side)")
            raise ConfigError(f"window {N} at centre t={t} with {how} needs samples "
                              f"[{t - reach + 1}, {t + reach}], outside [0, {data.n_samples - 1}]")
        offsets = np.arange(-half, half + 1)
        weights = (half + 1) - np.abs(offsets)
        data = data.with_samples(demean(data.samples))
        pieces = [(data, c, w) for c, w in zip(t + offsets * hop, weights / weights.sum())]
    else:
        trials = [tr.with_samples(demean(tr.samples)) for tr in data]
        pieces = [(tr, t, 1.0 / len(trials)) for tr in trials]
    num, pow_j, pow_k = 0.0j, 0.0, 0.0
    for series, c, w in pieces:
        d = reference_local_fourier(series, c, N, [omega_j, omega_k])
        num += w * d[0, p] * np.conj(d[1, q])
        pow_j += w * np.abs(d[0, p]) ** 2
        pow_k += w * np.abs(d[1, q]) ** 2
    if pow_j <= 0 or pow_k <= 0:
        raise ValueError("zero local power at one of the (channel, frequency) pairs")
    val = float(np.abs(num) ** 2 / (pow_j * pow_k))
    if not val <= 1 + 1e-9:
        raise ValueError(f"dual-frequency coherence {val!r} exceeds 1")
    return min(val, 1.0)


def reference_scan(data, centers, N, pairs, smoothing=None):
    return [reference_coherence(data, int(t), N, p, wj, q, wk, smoothing)
            for t in centers for (p, wj, q, wk) in pairs]


def outcome(fn, *args):
    """fn's result, or the type and message of the error it raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


FREQS = st.one_of(st.sampled_from([0.0, 0.5, -0.5, 0.125]), st.floats(-0.5, 0.5))


@st.composite
def scan_cases(draw):
    """A single series with smoothing, or 1-5 trials of unequal lengths, with
    centres where every window fits (sometimes one just outside), and 1-3 pairs.
    """
    N = 2 * draw(st.integers(1, 24))
    P = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        smoothing = draw(st.one_of(st.none(), st.tuples(st.integers(0, 4), st.integers(1, N))))
        half, hop = (8, N // 2) if smoothing is None else smoothing
        reach = half * hop
        T = draw(st.integers(max(N, N + 2 * reach - 1), 5 * N + 2 * reach))
        data = MultiChannelSeries(rng.standard_normal((T, P)), 1.0)
    else:
        lengths = draw(st.lists(st.integers(N, 4 * N), min_size=1, max_size=5))
        data = [MultiChannelSeries(rng.standard_normal((T, P)), 1.0) for T in lengths]
        T, smoothing, reach = min(lengths), None, 0
    lo, hi = N // 2 - 1 + reach, T - 1 - N // 2 - reach
    centers = draw(st.lists(st.integers(lo, max(lo, hi)), min_size=1, max_size=4))
    if draw(st.integers(0, 3)) == 0:  # one more centre, whose window leaves the series
        centers.insert(draw(st.integers(0, len(centers))), draw(st.sampled_from([lo - 1, hi + 1])))
    chan = st.integers(0, P - 1)
    pairs = draw(st.lists(st.tuples(chan, FREQS, chan, FREQS), min_size=1, max_size=3))
    return data, centers, N, pairs, smoothing


def am_trial(seed, T=512, fs=128.0, f1=6.0, f2=30.0, noise=0.2):
    """Shared random envelope and phase-locked carriers on two channels."""
    rng = np.random.default_rng(seed)
    t = np.arange(T)
    phi = 2 * np.pi * rng.random()
    env = 1.0 + 0.8 * np.sin(2 * np.pi * 0.25 * t / fs + 2 * np.pi * rng.random())
    x1 = env * np.cos(2 * np.pi * f1 * t / fs + phi) + noise * rng.standard_normal(T)
    x2 = env * np.cos(2 * np.pi * f2 * t / fs + phi) + noise * rng.standard_normal(T)
    return series_of(np.column_stack([x1, x2]))


class TestLocalFourier:
    def test_zero_input(self):
        s = series_of(np.full(256, 1e-300))
        assert np.allclose(local_fourier(s, 128, 64, 0.25), 0.0)

    def test_windowed_tone_magnitude(self):
        N, T = 128, 512
        w = 16 / N
        t = np.arange(T)
        s = series_of(np.cos(2 * np.pi * w * t))
        d = local_fourier(s, 256, N, w)
        assert abs(d[0]) == pytest.approx(np.sqrt(N) / 2, rel=1e-9)

    def test_constant_invisible_off_dc(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(512)
        s1 = series_of(x)
        s2 = series_of(x + 7.3)
        N = 64
        for k in (1, 5, 20):
            d1 = local_fourier(s1, 200, N, k / N)
            d2 = local_fourier(s2, 200, N, k / N)
            assert abs(d1[0]) == pytest.approx(abs(d2[0]), abs=1e-9)
        # at DC the constant shows up
        assert abs(local_fourier(s2, 200, N, 0.0)[0]) > abs(local_fourier(s1, 200, N, 0.0)[0])

    def test_window_bounds(self):
        s = series_of(np.arange(128.0))
        with pytest.raises(ValueError):
            local_fourier(s, 10, 64, 0.1)
        with pytest.raises(ValueError):
            local_fourier(s, 120, 64, 0.1)


class TestLocalDualFreqPeriodogram:
    def test_stationary_cross_frequency_averages_out(self):
        # across independent trials, off-frequency products shrink relative
        # to same-frequency power (oscillations at distinct frequencies are
        # uncorrelated under stationarity)
        N = 128
        wj, wk = 8 / N, 24 / N
        cross = np.zeros((1, 1), dtype=complex)
        same_j = 0.0
        same_k = 0.0
        trials = 200
        for seed in range(trials):
            rng = np.random.default_rng(seed)
            s = series_of(rng.standard_normal(256))
            d = local_fourier(s, 128, N, [wj, wk])
            cross += np.outer(d[0], d[1].conj())
            same_j += abs(d[0, 0]) ** 2
            same_k += abs(d[1, 0]) ** 2
        ratio = abs(cross[0, 0]) / np.sqrt(same_j * same_k)
        assert ratio < 0.2


class TestDualFreqCoherence:
    def test_diagonal_is_one(self):
        rng = np.random.default_rng(2)
        trials = [series_of(rng.standard_normal((256, 2))) for _ in range(8)]
        v = dualfreq_coherence(trials, 128, 64, 0, 0.125, 0, 0.125)
        assert v == pytest.approx(1.0)

    def test_symmetry_in_pair_swap(self):
        trials = [am_trial(s) for s in range(20)]
        fs = 128.0
        a = dualfreq_coherence(trials, 256, 128, 0, 6 / fs, 1, 30 / fs)
        b = dualfreq_coherence(trials, 256, 128, 1, 30 / fs, 0, 6 / fs)
        assert a == pytest.approx(b, abs=1e-10)

    def test_comodulated_envelope_detected(self):
        fs = 128.0
        vals = []
        for rep in range(5):
            trials = [am_trial(1000 * rep + s) for s in range(60)]
            vals.append(dualfreq_coherence(trials, 256, 128, 0, 6 / fs, 1, 30 / fs))
        assert np.median(vals) > 0.4

    def test_independent_stationary_null(self):
        fs = 128.0
        vals = []
        for rep in range(5):
            trials = [series_of(np.random.default_rng(300 + 100 * rep + s)
                                .standard_normal((512, 2))) for s in range(60)]
            vals.append(dualfreq_coherence(trials, 256, 128, 0, 6 / fs, 1, 30 / fs))
        assert np.median(vals) < 0.1

    def test_trial_average_matches_manual_oracle(self):
        trials = [am_trial(s) for s in range(10)]
        fs, N, t = 128.0, 128, 256
        wj, wk = 6 / fs, 30 / fs
        num = 0.0j
        pj = pk = 0.0
        for tr in trials:
            d = local_fourier(tr, t, N, [wj, wk])
            num += d[0, 0] * np.conj(d[1, 1]) / len(trials)
            pj += abs(d[0, 0]) ** 2 / len(trials)
            pk += abs(d[1, 1]) ** 2 / len(trials)
        expect = abs(num) ** 2 / (pj * pk)
        got = dualfreq_coherence(trials, t, N, 0, wj, 1, wk)
        assert got == pytest.approx(expect, abs=1e-12)

    def test_single_series_time_smoothing(self):
        s = am_trial(3, T=4096)
        fs = 128.0
        v = dualfreq_coherence(s, 2048, 256, 0, 6 / fs, 1, 30 / fs, smoothing=(6, 128))
        assert 0.0 <= v <= 1.0
        # degenerate no-smoothing case: single rank-1 window, trivially 1
        v0 = dualfreq_coherence(s, 2048, 256, 0, 6 / fs, 1, 30 / fs, smoothing=(0, 128))
        assert v0 == pytest.approx(1.0, abs=1e-9)


class TestBandDualFreq:
    def test_same_band_same_channel_is_one(self):
        s, _ = example("pac", 2048, 4)
        v = band_dualfreq_coherence(s, 0, band_by_name("gamma"), 0,
                                    band_by_name("gamma"), 1024, 256)
        assert v == pytest.approx(1.0, abs=1e-9)

    def test_disjoint_band_sources_null(self):
        vals = []
        theta, gamma = band_by_name("theta"), band_by_name("gamma")
        for seed in range(10):
            s, _ = example("gamma_net", 2048, seed)  # independent band sources
            vals.append(band_dualfreq_coherence(s, 0, theta, 1, gamma, 1024, 256))
        assert np.median(vals) < 0.1

    def test_pac_generator_elevated_over_shuffle_surrogate(self):
        # The coupled theta-gamma windowed correlation exceeds a trial-shuffled
        # surrogate in median (a factor of about 3.0 over these 40 seeds), but
        # both medians are below 1e-3: a linear correlation is nearly blind to
        # phase-amplitude modulation, which is what motivates the modulation
        # index.
        theta, gamma = band_by_name("theta"), band_by_name("gamma")
        N = 64

        def stat(series, p, q):
            centers = range(512, series.n_samples - 512, 256)
            return np.median([band_dualfreq_coherence(series, p, theta, q, gamma,
                                                      t, N) for t in centers])

        coup, surr = [], []
        for seed in range(40):
            s, _ = example("pac", 4096, seed)
            s2, _ = example("pac", 4096, seed + 500)
            coup.append(stat(s, 1, 1))
            mixed = s.with_samples(np.column_stack([s.samples[:, 1],
                                                    s2.samples[:, 1]]), ["a", "b"])
            surr.append(stat(mixed, 0, 1))
        assert np.median(coup) > 1.2 * np.median(surr)

    def test_window_in_filter_transients(self):
        s, _ = example("pac", 2048, 5)
        theta, gamma = band_by_name("theta"), band_by_name("gamma")
        # theta's default order at 128 Hz is 128 and gamma's is 20: both bands
        # are clear of transients on samples [128, 1919]
        for t in (100, 158, 1888, 2000):
            with pytest.raises(ConfigError, match=r"transients.*\[128, 1919\]"):
                band_dualfreq_coherence(s, 0, theta, 1, gamma, t, 64)
        for t in (159, 1887):  # windows [128, 191] and [1856, 1919]
            assert 0.0 <= band_dualfreq_coherence(s, 0, theta, 1, gamma, t, 64) <= 1.0

    def test_bounded(self):
        s, _ = example("pac", 2048, 5)
        v = band_dualfreq_coherence(s, 0, band_by_name("theta"), 1,
                                    band_by_name("gamma"), 1024, 128)
        assert 0.0 <= v <= 1.0


class TestScanExport:
    def test_scan_writes_long_csv(self, tmp_path):
        s = am_trial(6, T=2048)
        fs = 128.0
        res = dualfreq_scan(s, [512, 1024], 128, [(0, 6 / fs, 1, 30 / fs)],
                            smoothing=(2, 64))
        assert len(res.entries) == 2
        path = tmp_path / "df.csv"
        res.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,p,freq_j,q,freq_k,value"
        assert len(lines) == 3


class TestOnePath:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(case=scan_cases())
    def test_scan_matches_per_window_loop(self, case):
        data, centers, N, pairs, smoothing = case
        want = outcome(reference_scan, data, centers, N, pairs, smoothing)
        got = outcome(lambda *a: [e["value"] for e in dualfreq_scan(*a).entries],
                      data, centers, N, pairs, smoothing)
        if isinstance(want, tuple):
            assert got == want
        else:
            assert np.max(np.abs(np.subtract(got, want))) <= 1e-12
            p, wj, q, wk = pairs[0]
            one = dualfreq_coherence(data, centers[0], N, p, wj, q, wk, smoothing)
            assert abs(one - want[0]) <= 1e-12

    @pytest.mark.parametrize("seed", range(2))
    def test_long_series_matches_per_sample_phases(self, seed):
        # far from the origin the separated phases exp(-i 2 pi w lo) exp(-i 2 pi w m)
        # round differently from exp(-i 2 pi w (lo + m)): 1e-10 absolute
        s, _ = example("instant_mixture", 7680, seed)
        centers = range(1152, 7680 - 1152, 256)
        pairs = [(0, 40 / 128, 1, 40 / 128), (0, 2 / 128, 1, 40 / 128), (1, 0.3, 0, -0.45)]
        got = [e["value"] for e in dualfreq_scan(s, centers, 256, pairs).entries]
        want = reference_scan(s, centers, 256, pairs)
        assert np.max(np.abs(np.subtract(got, want))) <= 1e-10

    @pytest.mark.parametrize("omega", [0.1, [0.1, -0.3, 0.5]])
    def test_local_fourier_matches_reference(self, omega):
        s = series_of(np.random.default_rng(4).standard_normal((300, 3)))
        want = reference_local_fourier(s, 150, 64, np.atleast_1d(omega))
        got = local_fourier(s, 150, 64, omega)
        assert got.shape == ((3,) if np.isscalar(omega) else (3, 3))
        assert np.allclose(got, want[0] if np.isscalar(omega) else want, rtol=0, atol=1e-12)

    def test_first_window_error_names_trial(self):
        rng = np.random.default_rng(5)
        trials = [series_of(rng.standard_normal(n)) for n in (256, 100, 90)]
        with pytest.raises(ConfigError, match=r"window \[69, 132\] around t=100 leaves \[0, 99\]"):
            dualfreq_scan(trials, [100], 64, [(0, 0.1, 0, 0.2)])

    def test_zero_power_is_numerical(self):
        s = series_of(np.column_stack([np.random.default_rng(6).standard_normal(512),
                                       np.zeros(512)]))
        with pytest.raises(ValueError, match="zero local power"):
            dualfreq_coherence(s, 256, 64, 0, 0.1, 1, 0.2, smoothing=(2, 16))


class TestRejections:
    def setup_method(self):
        self.s = am_trial(7, T=1024)

    @pytest.mark.parametrize("p, q", [(-1, 0), (0, -1), (2, 0), (0, 2)])
    def test_channel_outside_range(self, p, q):
        with pytest.raises(ConfigError, match="outside \\[0, 2\\)"):
            dualfreq_coherence(self.s, 512, 64, p, 0.1, q, 0.2)
        with pytest.raises(ConfigError, match="outside"):
            dualfreq_coherence([self.s, self.s], 512, 64, p, 0.1, q, 0.2)

    @pytest.mark.parametrize("omega", [0.9, -0.6, 0.5000001, np.nan, np.inf])
    def test_frequency_beyond_nyquist(self, omega):
        with pytest.raises(ConfigError, match="cycles per sample"):
            dualfreq_coherence(self.s, 512, 64, 0, omega, 1, 0.2)
        with pytest.raises(ConfigError, match="cycles per sample"):
            local_fourier(self.s, 512, 64, omega)
        with pytest.raises(ConfigError, match="cycles per sample"):
            local_fourier(self.s, 512, 64, [0.1, omega])

    @pytest.mark.parametrize("centers, pairs", [([], [(0, 0.1, 1, 0.2)]),
                                                (range(600, 500, 1), [(0, 0.1, 1, 0.2)]),
                                                ([512], [])])
    def test_empty_scan(self, centers, pairs):
        with pytest.raises(ConfigError, match="at least one"):
            dualfreq_scan(self.s, centers, 64, pairs)

    def test_no_trials(self):
        with pytest.raises(ConfigError, match="at least one"):
            dualfreq_coherence([], 512, 64, 0, 0.1, 1, 0.2)

    def test_band_variant_channel_outside_range(self):
        theta, gamma = band_by_name("theta"), band_by_name("gamma")
        with pytest.raises(ConfigError, match="outside"):
            band_dualfreq_coherence(self.s, -1, theta, 0, gamma, 512, 128)
