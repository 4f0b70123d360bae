import numpy as np
import pytest

from specdep.core import (Band, ConfigError, FrequencyGrid, MalformedInputError,
                          MultiChannelSeries, band_by_name, cross_correlation,
                          cross_covariance, demean, max_lag_sq_correlation,
                          sliding_windows, standard_bands, write_json)


def make_series(x, fs=128.0):
    return MultiChannelSeries(np.asarray(x), fs)


class TestContainers:
    def test_rejects_nan(self):
        with pytest.raises(MalformedInputError):
            MultiChannelSeries([[1.0, np.nan], [2.0, 3.0]], 128.0)

    def test_rejects_short(self):
        with pytest.raises(MalformedInputError):
            MultiChannelSeries([[1.0, 2.0]], 128.0)

    @pytest.mark.parametrize("fs", [0.0, -5.0, np.nan, np.inf])
    def test_rejects_sample_rate(self, fs):
        with pytest.raises(ConfigError, match="sample rate"):
            MultiChannelSeries(np.zeros((4, 2)), fs)

    def test_rejects_duplicate_labels(self):
        with pytest.raises(MalformedInputError):
            MultiChannelSeries(np.zeros((4, 2)) + [[0, 1]], 128.0, ["a", "a"])

    def test_band_invalid(self):
        with pytest.raises(ConfigError):
            Band("bad", 10.0, 4.0)
        with pytest.raises(ConfigError):
            band_by_name("gamma").validate_for(64.0)  # gamma tops at 50 > 32


    @pytest.mark.parametrize("idx", [-1, -3, 3, 7])
    def test_channel_index_outside_range(self, idx):
        s = MultiChannelSeries(np.arange(12.0).reshape(4, 3), 128.0)
        with pytest.raises(ConfigError, match=r"channel -?\d+ outside \[0, 3\)"):
            s.channel(idx)
        with pytest.raises(ConfigError, match="outside"):
            s.select([0, idx])
        with pytest.raises(ConfigError, match="outside"):
            s.check_channels([idx])
        assert s.check_channels((2, 0)) == [2, 0]
        assert s.select([2, 0]).channel_labels == ["X3", "X1"]


class TestStandardBands:
    def test_printed_edges(self):
        bands = standard_bands()
        edges = [(b.low_hz, b.high_hz) for b in bands]
        assert edges == [(0.5, 4.0), (4.0, 8.0), (8.0, 12.0), (12.0, 30.0), (30.0, 50.0)]
        assert [b.name for b in bands] == ["delta", "theta", "alpha", "beta", "gamma"]

    def test_alpha_center(self):
        assert band_by_name("alpha").center_hz == 10.0

    def test_disjoint_and_ordered(self):
        bands = standard_bands()
        for a, b in zip(bands, bands[1:]):
            assert a.high_hz <= b.low_hz
            assert a.low_hz < b.low_hz


class TestFrequencyGrid:
    def test_range_and_symmetry(self):
        g = FrequencyGrid(8)
        assert np.allclose(g.frequencies, np.arange(-3, 5) / 8)
        assert g.frequencies.min() > -0.5 and g.frequencies.max() == 0.5
        # symmetric about zero except the Nyquist point
        pos = g.frequencies[(g.frequencies > 0) & (g.frequencies < 0.5)]
        neg = g.frequencies[g.frequencies < 0]
        assert np.allclose(sorted(pos), sorted(-neg))

    def test_fft_roundtrip(self):
        g = FrequencyGrid(16)
        arr = np.arange(16.0)
        assert np.allclose(g.to_fft_order(g.from_fft_order(arr)), arr)
        # bin k of the FFT corresponds to frequency k/n mapped into (-0.5, 0.5]
        freqs_fft = g.to_fft_order(g.frequencies)
        assert freqs_fft[0] == 0.0 and freqs_fft[1] == 1 / 16

    def test_odd_rejected(self):
        with pytest.raises(ConfigError):
            FrequencyGrid(9)

    def test_band_indices_half_open(self):
        # fs = n puts every grid frequency on a whole Hz, so 16 Hz is on the grid
        g = FrequencyGrid(128)
        idx = g.band_indices(Band("b", 8.0, 16.0), 128.0)
        assert np.array_equal(g.frequencies[idx] * 128.0, np.arange(8.0, 16.0))


class TestDemean:
    def test_constant_column_zeroed(self):
        s = make_series(np.column_stack([np.full(64, 3.0), np.arange(64.0)]))
        d = demean(s)
        assert np.all(d.samples[:, 0] == 0.0)

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        s = make_series(rng.standard_normal((256, 3)) + 5.0)
        d1 = demean(s)
        d2 = demean(d1)
        scale = np.sqrt(np.mean(d1.samples ** 2))
        assert np.max(np.abs(d2.samples - d1.samples)) < 1e-12 * scale

    def test_simple_column(self):
        s = make_series(np.array([[1.0], [2.0], [3.0]]))
        assert np.allclose(demean(s).samples[:, 0], [-1.0, 0.0, 1.0])


class TestCrossCovariance:
    def test_lag0_is_variance(self):
        rng = np.random.default_rng(1)
        s = make_series(rng.standard_normal((512, 2)))
        x = s.channel(0) - s.channel(0).mean()
        assert cross_covariance(s, 0, 0, 0) == pytest.approx(np.dot(x, x) / 512)

    def test_symmetry_exact(self):
        rng = np.random.default_rng(2)
        s = make_series(rng.standard_normal((300, 2)))
        for h in (-7, -1, 0, 3, 11):
            assert cross_covariance(s, 0, 1, h) == cross_covariance(s, 1, 0, -h)

    def test_lag_out_of_range(self):
        s = make_series(np.random.default_rng(0).standard_normal((32, 1)))
        with pytest.raises(ValueError):
            cross_covariance(s, 0, 0, 32)

    def test_white_noise_small_cross(self):
        # |sigma_pq(0)| < 5/sqrt(T) for ~99% of seeds (Monte Carlo over 200)
        T = 2 ** 14
        hits = 0
        for seed in range(200):
            rng = np.random.default_rng(seed)
            s = make_series(rng.standard_normal((T, 2)))
            hits += abs(cross_covariance(s, 0, 1, 0)) < 5 / np.sqrt(T)
        assert hits >= 198


class TestCrossCorrelation:
    def test_self_lag0_is_one(self):
        rng = np.random.default_rng(3)
        s = make_series(rng.standard_normal((256, 1)))
        assert cross_correlation(s, 0, 0, 0) == pytest.approx(1.0)

    def test_shifted_copy_peak(self):
        # x_q(t) = x_p(t - d): sigma_qp(h) = mean x_p(t+h-d) x_p(t) peaks at
        # h = d; the p,q orientation peaks at -d.
        rng = np.random.default_rng(4)
        x = rng.standard_normal(600)
        d = 5
        y = np.roll(x, d)
        s = make_series(np.column_stack([x, y]))
        vals_qp = [cross_correlation(s, 1, 0, h) for h in range(-10, 11)]
        assert int(np.argmax(vals_qp)) - 10 == d
        vals_pq = [cross_correlation(s, 0, 1, h) for h in range(-10, 11)]
        assert int(np.argmax(vals_pq)) - 10 == -d

    def test_zero_variance_errors(self):
        s = make_series(np.column_stack([np.ones(64), np.arange(64.0)]))
        with pytest.raises(ValueError):
            cross_correlation(s, 0, 1, 0)

    def test_rescaling_invariance(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((400, 2))
        s1 = make_series(x)
        s2 = make_series(x * np.array([3.7, 0.002]))
        for h in (-3, 0, 8):
            assert cross_correlation(s1, 0, 1, h) == pytest.approx(
                cross_correlation(s2, 0, 1, h), abs=1e-12)

    def test_lagged_mixture_band_filtered_peak(self):
        # the high-band filtered channels of the lagged mixture correlate
        # most strongly at the planted 10-sample lag
        from specdep.filters import apply_filter, design_fir_bandpass
        from specdep.simulate import example
        s, t = example("lagged_mixture", 4096, 30)
        filt = design_fir_bandpass(band_by_name("gamma"), 64, s.sample_rate_hz)
        y = apply_filter(filt, s)
        vals = [cross_correlation(y, 0, 1, h) ** 2 for h in range(-20, 21)]
        assert int(np.argmax(vals)) - 20 == t["lag"]


class TestMaxLagSqCorrelation:
    def test_identical(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal(512)
        val, lag = max_lag_sq_correlation(x, x, 20)
        assert val == pytest.approx(1.0)
        assert lag == 0

    def test_shifted_broadband(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(4096)
        y = np.roll(x, -10)  # y(t) = x(t+10): r(l) = sum x(t) y(t-l) peaks at l=10
        val, lag = max_lag_sq_correlation(x, y, 30)
        assert lag == 10
        assert val > 0.9

    def test_independent_noise_small(self):
        T = 2 ** 14
        vals = []
        for seed in range(9):
            rng = np.random.default_rng(seed)
            v, _ = max_lag_sq_correlation(rng.standard_normal(T),
                                          rng.standard_normal(T), 50)
            vals.append(v)
        assert np.median(vals) < 0.01

    def test_tie_break_smallest_abs_then_negative(self):
        # a 2-periodic signal correlates identically at all even lags
        x = np.tile([1.0, -1.0], 32)
        val, lag = max_lag_sq_correlation(x, x.copy(), 6)
        assert val == pytest.approx(1.0)
        assert lag == 0

    def test_degenerate_errors(self):
        with pytest.raises(ValueError):
            max_lag_sq_correlation(np.ones(64), np.arange(64.0), 5)

    def test_lag_convention_matches_cross_correlation(self):
        # both read sum_t x(t+h) y(t): the maximum is rho_xy(h)^2 at the lag found
        rng = np.random.default_rng(8)
        x = rng.standard_normal(1024)
        for shift in (-7, 0, 12):
            y = np.roll(x, shift) + 0.5 * rng.standard_normal(1024)
            val, lag = max_lag_sq_correlation(x, y, 20)
            assert lag == -shift
            rho = cross_correlation(make_series(np.column_stack([x, y])), 0, 1, lag)
            assert abs(val - rho ** 2) < 1e-14


class TestSlidingWindows:
    def test_centres_and_views(self):
        x = np.arange(40.0).reshape(20, 2)
        s = MultiChannelSeries(x, 8.0, ["a", "b"])
        wins = sliding_windows(s, 8, 5)
        # starts 0, 5, 10: the last full window ends at sample 17
        assert [u for u, _ in wins] == [4 / 20, 9 / 20, 14 / 20]
        for (_, w), start in zip(wins, (0, 5, 10)):
            assert np.array_equal(w.samples, x[start:start + 8])
            assert np.shares_memory(w.samples, x)
            assert w.channel_labels == ["a", "b"] and w.sample_rate_hz == 8.0

    def test_full_length_window(self):
        s = make_series(np.zeros((16, 1)))
        (u, w), = sliding_windows(s, 16, 3)
        assert u == 0.5 and w.n_samples == 16

    @pytest.mark.parametrize("N, step", [(7, 1), (18, 1), (8, 0), (0, 1), (-2, 1)])
    def test_rejects(self, N, step):
        with pytest.raises(ConfigError):
            sliding_windows(make_series(np.zeros((16, 1))), N, step)


class TestWriteJson:
    OBJ = {"zero": -0.0, "tiny": 1e-300, "third": 1 / 3, "nan": float("nan"),
           "nested": [[1, 2.5], [], [[-3]]], "label": 'say "hi"'}

    # recorded from json.dump(OBJ, fh) and json.dump(OBJ, fh, indent=1)
    COMPACT = (b'{"zero": -0.0, "tiny": 1e-300, "third": 0.3333333333333333, '
               b'"nan": NaN, "nested": [[1, 2.5], [], [[-3]]], "label": "say \\"hi\\""}')
    INDENTED = (b'{\n "zero": -0.0,\n "tiny": 1e-300,\n "third": 0.3333333333333333,\n'
                b' "nan": NaN,\n "nested": [\n  [\n   1,\n   2.5\n  ],\n  [],\n  [\n'
                b'   [\n    -3\n   ]\n  ]\n ],\n "label": "say \\"hi\\""\n}')

    @pytest.mark.parametrize("indent, expected", [(None, COMPACT), (1, INDENTED)])
    def test_bytes(self, tmp_path, indent, expected):
        path = tmp_path / "o.json"
        write_json(path, self.OBJ, indent=indent)
        assert path.read_bytes() == expected
