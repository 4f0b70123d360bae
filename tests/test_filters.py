import numpy as np
import pytest

from specdep.core import (Band, ConfigError, MultiChannelSeries, band_by_name,
                          standard_bands)
from specdep.filters import (FirFilter, apply_filter, band_signals, default_order,
                             design_fir_bandpass, frequency_response, load_taps, save_taps)

# 10th-order alpha-band taps as printed in the source material
PRINTED_ALPHA_TAPS = [-0.0272, -0.0468, -0.0423, 0.0771, 0.2677,
                      0.3629, 0.2677, 0.0771, -0.0423, -0.0468, -0.0272]


def tone(freq_hz, fs=128.0, T=4096):
    t = np.arange(T)
    return np.cos(2 * np.pi * freq_hz * t / fs)


class TestFirFilter:
    def test_zero_phase_requires_symmetry(self):
        with pytest.raises(ConfigError):
            FirFilter([1.0, 0.5, 0.2], mode="zero_phase")
        FirFilter([0.2, 0.5, 0.2], mode="zero_phase")  # fine

    def test_needs_taps(self):
        with pytest.raises(ConfigError):
            FirFilter([], mode="causal")


class TestDesign:
    def test_alpha_k10_rejection_ratios(self):
        filt = design_fir_bandpass(band_by_name("alpha"), 10, 128.0)
        assert len(filt.coeffs) == 11
        assert np.allclose(filt.coeffs, filt.coeffs[::-1])
        c10 = abs(frequency_response(filt, 10 / 128))
        c2 = abs(frequency_response(filt, 2 / 128))
        assert c10 > 4 * c2

    def test_center_gain_within_3db_of_max(self):
        filt = design_fir_bandpass(band_by_name("alpha"), 10, 128.0)
        w = np.linspace(0, 0.5, 2001)
        mags = np.abs(frequency_response(filt, w))
        center = abs(frequency_response(filt, 10 / 128))
        assert center > mags.max() / np.sqrt(2)

    def test_peak_inside_band_at_reasonable_order(self):
        for band in (band_by_name("alpha"), band_by_name("gamma")):
            filt = design_fir_bandpass(band, 64, 128.0)
            w = np.linspace(0, 0.5, 4001)
            mags = np.abs(frequency_response(filt, w))
            peak_hz = w[np.argmax(mags)] * 128.0
            assert band.low_hz <= peak_hz <= band.high_hz

    def test_degenerate_band_errors(self):
        with pytest.raises(ConfigError):
            design_fir_bandpass(Band("x", 5.0, 5.0), 10, 128.0)
        with pytest.raises(ConfigError):
            design_fir_bandpass(band_by_name("alpha"), 11, 128.0)  # odd order
        with pytest.raises(ConfigError):
            design_fir_bandpass(Band("hi", 50.0, 70.0), 10, 128.0)  # above Nyquist


class TestPrintedTaps:
    def test_accepted_as_fixture_and_peaks_in_alpha(self):
        filt = FirFilter(PRINTED_ALPHA_TAPS, mode="zero_phase")
        w = np.arange(0, 0.5 + 1e-9, 0.01 / 128)
        mags = np.abs(frequency_response(filt, w))
        peak_hz = w[np.argmax(mags)] * 128.0
        assert 8.0 <= peak_hz <= 12.0

    def test_dc_gain_is_tap_sum(self):
        filt = FirFilter(PRINTED_ALPHA_TAPS, mode="zero_phase")
        assert frequency_response(filt, 0.0) == pytest.approx(0.8199, abs=1e-12)

    def test_roundtrip_through_text_file(self, tmp_path):
        path = tmp_path / "alpha.taps"
        save_taps(path, PRINTED_ALPHA_TAPS)
        filt = load_taps(path, mode="zero_phase")
        assert np.array_equal(filt.coeffs, np.asarray(PRINTED_ALPHA_TAPS))


class TestFrequencyResponse:
    def test_identity_filter(self):
        filt = FirFilter([1.0], mode="causal")
        for w in (-0.4, 0.0, 0.17, 0.5):
            assert frequency_response(filt, w) == pytest.approx(1.0)

    def test_conjugate_symmetry_for_real_taps(self):
        rng = np.random.default_rng(0)
        taps = rng.standard_normal(13)
        filt = FirFilter(taps, mode="causal")
        for w in (0.05, 0.21, 0.44):
            assert abs(frequency_response(filt, w)) == pytest.approx(
                abs(frequency_response(filt, -w)), abs=1e-12)


class TestApply:
    def test_identity_passthrough(self):
        rng = np.random.default_rng(1)
        s = MultiChannelSeries(rng.standard_normal((256, 2)), 128.0)
        for mode in ("causal", "zero_phase"):
            out = apply_filter(FirFilter([1.0], mode=mode), s)
            assert np.allclose(out.samples, s.samples)

    def test_zero_phase_preserves_tone_phase(self):
        filt = design_fir_bandpass(band_by_name("alpha"), 64, 128.0, "zero_phase")
        x = tone(10.0)
        s = MultiChannelSeries(x[:, None], 128.0)
        y = apply_filter(filt, s).samples[:, 0]
        k = len(filt.coeffs)
        xi, yi = x[k:-k], y[k:-k]
        r = np.dot(xi - xi.mean(), yi - yi.mean()) / (
            np.linalg.norm(xi - xi.mean()) * np.linalg.norm(yi - yi.mean()))
        assert r > 0.999

    def test_causal_group_delay(self):
        K = 64
        filt = design_fir_bandpass(band_by_name("alpha"), K, 128.0, "causal")
        x = tone(10.0)
        s = MultiChannelSeries(x[:, None], 128.0)
        y = apply_filter(filt, s).samples[:, 0]
        lags = np.arange(0, 2 * K)
        vals = [np.dot(x[:-lag or None][K:], y[lag:][K:]) for lag in lags]
        assert abs(int(lags[np.argmax(vals)]) - K // 2) <= 1

    def test_too_short_errors(self):
        s = MultiChannelSeries(np.zeros((8, 1)) + np.arange(8)[:, None], 128.0)
        with pytest.raises(ValueError):
            apply_filter(FirFilter(np.full(9, 1 / 9.0), mode="zero_phase"), s)

    def test_linearity(self):
        rng = np.random.default_rng(2)
        filt = design_fir_bandpass(band_by_name("beta"), 32, 128.0)
        x = rng.standard_normal((512, 1))
        y = rng.standard_normal((512, 1))
        a, b = 2.5, -0.7
        sx = MultiChannelSeries(x, 128.0)
        sy = MultiChannelSeries(y, 128.0)
        sxy = MultiChannelSeries(a * x + b * y, 128.0)
        lhs = apply_filter(filt, sxy).samples
        rhs = a * apply_filter(filt, sx).samples + b * apply_filter(filt, sy).samples
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_output_mean_bound(self):
        # for a filter passing DC the output mean is governed by C(0) times
        # the input mean; for zero-mean input it decays toward 0 with T
        rng = np.random.default_rng(3)
        taps = np.array([0.1, 0.2, 0.4, 0.2, 0.1])
        filt = FirFilter(taps, mode="zero_phase")
        x = rng.standard_normal((4096, 1)) + 5.0
        y = apply_filter(filt, MultiChannelSeries(x, 128.0)).samples
        c0 = abs(frequency_response(filt, 0.0))
        assert abs(y.mean()) < 10 * c0 * abs(x.mean()) + 1e-8

        bp = design_fir_bandpass(band_by_name("theta"), 48, 128.0)
        means = []
        for T in (2 ** 10, 2 ** 14):
            z = rng.standard_normal((T, 1))
            z -= z.mean()
            means.append(abs(apply_filter(bp, MultiChannelSeries(z, 128.0)).samples.mean()))
        assert means[1] < 0.5 * means[0]

    def test_filtered_spectrum_matches_response(self):
        # |C(w)|^2-shaping of the sample spectrum where the response is large
        from specdep.spectrum import SmoothingKernel, periodogram, smooth_periodogram
        rng = np.random.default_rng(4)
        T = 2 ** 14
        s = MultiChannelSeries(rng.standard_normal((T, 1)), 128.0)
        filt = design_fir_bandpass(band_by_name("beta"), 96, 128.0)
        y = apply_filter(filt, s)
        kern = SmoothingKernel("daniell", 64)
        fx = smooth_periodogram(periodogram(s), kern).values[:, 0, 0].real
        fy = smooth_periodogram(periodogram(y), kern).values[:, 0, 0].real
        from specdep.core import FrequencyGrid
        g = FrequencyGrid(T)
        resp2 = np.abs(frequency_response(filt, g.frequencies)) ** 2
        strong = resp2 > 0.1 * resp2.max()
        ratio = fy[strong] / (resp2[strong] * fx[strong])
        assert np.all((ratio > 0.5) & (ratio < 2.0))


class TestBandSignals:
    @pytest.mark.parametrize("mode", ["zero_phase", "causal"])
    def test_columns_equal_design_and_apply(self, mode):
        x = np.random.default_rng(4).standard_normal((1024, 3))
        s = MultiChannelSeries(x, 128.0)
        alpha, gamma = band_by_name("alpha"), band_by_name("gamma")
        # a repeated pick, two bands, and channels shared between the bands
        picks = [(2, alpha), (0, gamma), (0, alpha), (2, alpha), (2, gamma)]
        y, valid = band_signals(s, picks, mode=mode)
        assert y.shape == (1024, 5)
        for i, (c, b) in enumerate(picks):
            K = default_order(b, 128.0)
            # transient-free samples: K cut at each end (zero-phase) or at the start (causal)
            assert valid[i] == slice(K, 1024 - K if mode == "zero_phase" else 1024)
            filt = design_fir_bandpass(b, K, 128.0, mode)
            assert np.array_equal(y[:, i], apply_filter(filt, s.select([c])).samples[:, 0])
            # the valid samples never reach the zero padding: output t is full-convolution
            # sample t (+ K/2 zero-phase), and those from K on need no padding
            m = np.arange(1024)[valid[i]] + (K // 2 if mode == "zero_phase" else 0)
            unpadded = np.convolve(x[:, c], filt.coeffs, "valid")
            np.testing.assert_allclose(y[valid[i], i], unpadded[m - K], rtol=0, atol=1e-12)

    def test_designs_cached_read_only(self, monkeypatch):
        import specdep.filters as filters
        filters._band_taps.cache_clear()
        designs = []
        design = filters.design_fir_bandpass

        def counted_design(band, order, *args, **kwargs):
            designs.append((band.name, order))
            return design(band, order, *args, **kwargs)

        monkeypatch.setattr(filters, "design_fir_bandpass", counted_design)
        s = MultiChannelSeries(np.random.default_rng(6).standard_normal((512, 2)), 128.0)
        picks = [(0, band_by_name("alpha")), (1, band_by_name("alpha")), (1, band_by_name("beta"))]
        first = band_signals(s, picks, 40)[0]
        band_signals(s, picks, 40, "causal")  # one design serves both modes
        assert np.array_equal(band_signals(s, picks, 40)[0], first)
        assert sorted(designs) == [("alpha", 40), ("beta", 40)]
        taps = filters._band_taps(band_by_name("beta"), 40, 128.0)
        assert not taps.flags.writeable
        assert np.array_equal(taps, design(band_by_name("beta"), 40, 128.0).coeffs)

    def test_one_order_for_every_pick(self):
        s = MultiChannelSeries(np.random.default_rng(5).standard_normal((512, 2)), 128.0)
        picks = [(0, band_by_name("delta")), (1, band_by_name("beta"))]
        for mode, stop in [("zero_phase", 472), ("causal", 512)]:
            _, valid = band_signals(s, picks, 40, mode)
            assert valid == [slice(40, stop), slice(40, stop)]

    def test_nyquist_checked_before_default_order(self):
        s = MultiChannelSeries(np.zeros((512, 1)), 128.0)
        picks = [(0, Band("dc", 0.0, 4.0)), (0, Band("hi", 50.0, 70.0))]
        with pytest.raises(ConfigError, match="Nyquist"):
            band_signals(s, picks)
        with pytest.raises(ConfigError, match="0 Hz"):
            band_signals(s, picks[:1])

    @pytest.mark.parametrize("channel", [3, -1])
    def test_channel_outside_series(self, channel):
        s = MultiChannelSeries(np.zeros((512, 3)), 128.0)
        with pytest.raises(ConfigError, match="outside"):
            band_signals(s, [(0, band_by_name("alpha")), (channel, band_by_name("alpha"))])


class TestDecompose:
    """A one-channel series split into the standard rhythms by band_signals."""

    @staticmethod
    def rhythm_variances(s, order=None):
        y, _ = band_signals(s, [(0, b) for b in standard_bands()], order)
        return dict(zip([b.name for b in standard_bands()], np.var(y, axis=0)))

    def test_pure_tone_lands_in_alpha(self):
        s = MultiChannelSeries(tone(10.0)[:, None], 128.0)
        variances = self.rhythm_variances(s, order=128)
        alpha = variances.pop("alpha")
        assert all(alpha > 20 * v for v in variances.values())

    def test_zero_input(self):
        s = MultiChannelSeries(np.zeros((512, 1)) + 1e-300, 128.0)
        y, _ = band_signals(s, [(0, b) for b in standard_bands()], 64)
        assert np.allclose(y, 0.0, atol=1e-200)

    def test_band_variances_near_parseval(self):
        rng = np.random.default_rng(5)
        T = 2 ** 14
        x = rng.standard_normal(T)
        s = MultiChannelSeries(x[:, None], 128.0)
        total = sum(self.rhythm_variances(s).values())
        # white-noise variance inside (0.5, 50) Hz out of the (0, 64) range
        target = np.var(x) * 2 * (50.0 - 0.5) / 128.0
        assert abs(total - target) < 0.25 * target

    def test_default_order_rule(self):
        assert default_order(band_by_name("delta"), 128.0) == 512  # capped
        assert default_order(band_by_name("alpha"), 128.0) == 64
        assert default_order(band_by_name("gamma"), 128.0) == 20
