import numpy as np
import pytest

from specdep.core import ConfigError, FrequencyGrid, MultiChannelSeries
from specdep.spectrum import (Ar2Params, CrossSpectralMatrix, SmoothingKernel,
                              ar2_from_peak, ar2_spectrum, ar2_stationary_var,
                              csm_from_json, csm_to_json, default_bandwidth,
                              fourier_coefficients, periodogram,
                              shrink_spectral_estimate, smooth_periodogram,
                              var_spectrum)
from specdep.var import VarModel, simulate_var


def series(x, fs=128.0):
    return MultiChannelSeries(x, fs)


class TestFourierCoefficients:
    def test_demeaned_gives_zero_dc(self):
        rng = np.random.default_rng(0)
        s = series(rng.standard_normal((256, 3)) + 7.0)
        grid, d = fourier_coefficients(s)
        k0 = grid.index_of(0.0)
        assert np.allclose(d[k0], 0.0, atol=1e-9)

    def test_cosine_magnitude(self):
        T, k = 512, 20
        t = np.arange(1, T + 1)
        x = np.cos(2 * np.pi * k * t / T)
        grid, d = fourier_coefficients(series(x[:, None]))
        idx = grid.index_of(k / T)
        assert abs(d[idx, 0]) == pytest.approx(T / 2, rel=1e-9)

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(1)
        s = series(rng.standard_normal((128, 2)))
        grid, d = fourier_coefficients(s)
        for k in (3, 17, 40):
            ip = grid.index_of(k / 128)
            im = grid.index_of(-k / 128)
            assert np.allclose(d[im], d[ip].conj(), atol=1e-9)

    def test_odd_length_rejected(self):
        s = series(np.random.default_rng(2).standard_normal((255, 1)))
        with pytest.raises(ValueError):
            fourier_coefficients(s)

    def test_odd_length_is_config_error(self):
        # a ValueError subclass, so library callers are unaffected; the CLI maps it to exit 2
        s = series(np.random.default_rng(2).standard_normal((255, 1)))
        with pytest.raises(ConfigError, match="must be even"):
            fourier_coefficients(s)


class TestPeriodogram:
    def test_zero_input(self):
        s = series(np.zeros((64, 2)) + [[0.0, 1e-200]])
        f = periodogram(s)
        assert np.allclose(f.values, 0.0)

    def test_diagonal_real_nonnegative(self):
        rng = np.random.default_rng(3)
        f = periodogram(series(rng.standard_normal((256, 3))))
        d = np.einsum("kpp->kp", f.values)
        assert np.allclose(d.imag, 0.0, atol=1e-12)
        assert np.all(d.real >= -1e-15)

    def test_parseval(self):
        rng = np.random.default_rng(4)
        s = series(rng.standard_normal((1024, 2)) * [1.0, 3.5])
        f = periodogram(s)
        x = s.samples - s.samples.mean(axis=0)
        for p in range(2):
            var = np.dot(x[:, p], x[:, p]) / 1024
            mean_diag = np.mean(f.values[:, p, p].real)
            assert mean_diag == pytest.approx(var, rel=1e-8)

    def test_validates_hermitian_psd(self):
        rng = np.random.default_rng(5)
        periodogram(series(rng.standard_normal((512, 3)))).validate()


class TestSmoothing:
    def test_pointmass_is_identity(self):
        rng = np.random.default_rng(6)
        f = periodogram(series(rng.standard_normal((128, 2))))
        g = smooth_periodogram(f, SmoothingKernel("daniell", 0))
        assert np.allclose(g.values, f.values)

    def test_kernel_weights(self):
        w = SmoothingKernel("triangular", 2).weights()
        assert np.allclose(w, np.array([1, 2, 3, 2, 1]) / 9)
        assert np.allclose(w, w[::-1])
        assert SmoothingKernel("daniell", 3).weights().sum() == pytest.approx(1.0)

    def test_white_noise_flat(self):
        rng = np.random.default_rng(7)
        sigma2 = 2.25
        s = series(np.sqrt(sigma2) * rng.standard_normal((2 ** 14, 1)))
        f = smooth_periodogram(periodogram(s), SmoothingKernel("daniell", 32))
        vals = f.values[:, 0, 0].real
        frac = np.mean(np.abs(vals - sigma2) < 0.3 * sigma2)
        assert frac > 0.95

    def test_psd_preserved(self):
        rng = np.random.default_rng(8)
        f = periodogram(series(rng.standard_normal((512, 3))))
        smooth_periodogram(f, SmoothingKernel("triangular", 8)).validate()

    def test_bandwidth_guard(self):
        f = periodogram(series(np.random.default_rng(9).standard_normal((64, 1))))
        with pytest.raises(ConfigError):
            smooth_periodogram(f, SmoothingKernel("daniell", 20))

    def test_default_bandwidth(self):
        assert default_bandwidth(2 ** 14) == int(np.ceil((2 ** 14) ** 0.6 / 8))


class TestAr2:
    def test_printed_alpha_narrowband(self):
        p = ar2_from_peak(1.05, 10 / 50)
        assert p.phi1 == pytest.approx((2 / 1.05) * np.cos(2 * np.pi * 0.2))
        assert p.phi2 == pytest.approx(-1 / 1.05 ** 2)

    def test_quarter_cycle_zero_phi1(self):
        assert ar2_from_peak(1.3, 0.25).phi1 == pytest.approx(0.0, abs=1e-15)

    def test_printed_delta_coefficients(self):
        p = ar2_from_peak(1.049787, 2 / 128)
        assert p.phi2 == pytest.approx(-1 / 1.049787 ** 2)
        assert p.phi1 == pytest.approx((2 / 1.049787) * np.cos(2 * np.pi * 2 / 128))

    def test_noncausal_rejected(self):
        with pytest.raises(ConfigError):
            ar2_from_peak(1.0, 0.1)
        with pytest.raises(ConfigError):
            ar2_from_peak(0.9, 0.1)

    def test_root_roundtrip(self):
        p = ar2_from_peak(1.17, 0.31)
        roots = p.roots()
        mags = np.abs(roots)
        phases = np.abs(np.angle(roots)) / (2 * np.pi)
        assert np.allclose(mags, 1.17, atol=1e-10)
        assert np.allclose(phases, 0.31, atol=1e-10)

    def test_spectrum_peak_location(self):
        p = ar2_from_peak(1.05, 0.2)
        grid = FrequencyGrid(1024)
        spec = ar2_spectrum(p, grid)
        pos = grid.frequencies > 0
        peak = grid.frequencies[pos][np.argmax(spec[pos])]
        assert 0.195 <= peak <= 0.205

    def test_bandwidth_grows_with_m(self):
        grid = FrequencyGrid(4096)

        def half_power_width(M):
            spec = ar2_spectrum(ar2_from_peak(M, 0.2), grid)
            return np.mean(spec > spec.max() / 2)

        assert half_power_width(1.5) > half_power_width(1.05)

    def test_spectrum_symmetric(self):
        p = ar2_from_peak(1.1, 0.13)
        w = np.linspace(0.01, 0.49, 25)
        assert np.allclose(ar2_spectrum(p, w), ar2_spectrum(p, -w))

    def test_stationary_var_matches_simulation(self):
        p = ar2_from_peak(1.08, 0.1, noise_var=2.0)
        model = VarModel(np.array([[[p.phi1]], [[p.phi2]]]), [[p.noise_var]])
        s = simulate_var(model, 2 ** 16, 0)
        assert np.var(s.samples) == pytest.approx(ar2_stationary_var(p), rel=0.1)


class TestVarSpectrum:
    def test_pure_noise_identity(self):
        model = VarModel(np.zeros((0, 2, 2)), np.eye(2))
        f = var_spectrum(model, FrequencyGrid(64))
        assert np.allclose(f.values, np.eye(2))

    def test_diagonal_var2_matches_ar2(self):
        pa = ar2_from_peak(1.05, 0.1)
        pb = ar2_from_peak(1.2, 0.35, noise_var=0.5)
        phi1 = np.diag([pa.phi1, pb.phi1])
        phi2 = np.diag([pa.phi2, pb.phi2])
        model = VarModel(np.stack([phi1, phi2]), np.diag([1.0, 0.5]))
        grid = FrequencyGrid(256)
        f = var_spectrum(model, grid)
        assert np.allclose(f.values[:, 0, 0].real, ar2_spectrum(pa, grid), atol=1e-8)
        assert np.allclose(f.values[:, 1, 1].real, ar2_spectrum(pb, grid), atol=1e-8)
        assert np.allclose(f.values[:, 0, 1], 0.0, atol=1e-12)

    def test_single_channel_matches_ar2_pointwise(self):
        p = ar2_from_peak(1.07, 0.22, noise_var=1.7)
        model = VarModel(np.array([[[p.phi1]], [[p.phi2]]]), [[p.noise_var]])
        grid = FrequencyGrid(512)
        f = var_spectrum(model, grid)
        assert np.allclose(f.values[:, 0, 0].real, ar2_spectrum(p, grid), atol=1e-8)

    def test_unstable_rejected(self):
        model = VarModel(np.array([[[1.01]]]), [[1.0]])
        with pytest.raises(ValueError):
            var_spectrum(model, FrequencyGrid(16))

    def test_smoothed_periodogram_consistency(self):
        phi = np.array([[[0.5, 0.25], [0.1, 0.4]]])
        model = VarModel(phi, np.eye(2))
        T = 2 ** 15
        s = simulate_var(model, T, 11)
        est = smooth_periodogram(periodogram(s),
                                 SmoothingKernel("daniell", default_bandwidth(T)))
        truth = var_spectrum(model, est.grid)
        for p in range(2):
            ratio = est.values[:, p, p].real / truth.values[:, p, p].real
            assert np.mean(np.abs(ratio - 1) < 0.2) > 0.9


class TestShrink:
    def _data(self, seed=12, T=2 ** 12):
        phi = np.array([[[0.6, 0.2], [0.0, 0.5]]])
        model = VarModel(phi, np.eye(2))
        s = simulate_var(model, T, seed)
        kern = SmoothingKernel("daniell", 16)
        f = smooth_periodogram(periodogram(s), kern)
        return model, s, kern, f

    def test_equal_inputs_fixed_point(self):
        _, _, kern, f = self._data()
        out = shrink_spectral_estimate(f, f, kern)
        assert np.allclose(out.values, f.values)

    def test_blend_matches_weight_formula(self):
        from specdep.var import fit_ols
        model, s, kern, f = self._data()
        h = var_spectrum(fit_ols(s, 1), f.grid, s.sample_rate_hz)
        w = kern.weights()
        mh = np.sum(np.abs(h.values - f.values) ** 2, axis=(1, 2))
        mi = np.sum(w ** 2) * np.sum(np.abs(f.values) ** 2, axis=(1, 2))
        w1 = mh / (mh + mi)
        out = shrink_spectral_estimate(f, h, kern)
        expect = w1[:, None, None] * f.values + (1 - w1)[:, None, None] * h.values
        assert np.allclose(out.values, expect, atol=1e-12)

    def test_correct_parametric_dominates(self):
        # with a well-specified AR(1) fit, the parametric side carries the
        # larger median weight (checked univariate, where the variance proxy
        # tracks the periodogram's actual estimation error)
        from specdep.var import fit_ols
        w2_medians = []
        for seed in range(5):
            model = VarModel(np.array([[[0.6]]]), [[1.0]])
            s = simulate_var(model, 2 ** 13, seed)
            kern = SmoothingKernel("daniell", 24)
            f = smooth_periodogram(periodogram(s), kern)
            h = var_spectrum(fit_ols(s, 1), f.grid, s.sample_rate_hz)
            w = kern.weights()
            mh = np.sum(np.abs(h.values - f.values) ** 2, axis=(1, 2))
            mi = np.sum(w ** 2) * np.sum(np.abs(f.values) ** 2, axis=(1, 2))
            w2_medians.append(np.median(mi / (mh + mi)))
        assert np.median(w2_medians) > 0.5

    def test_bad_parametric_rejected(self):
        _, _, kern, f = self._data()
        zero = CrossSpectralMatrix(f.grid, np.zeros_like(f.values))
        out = shrink_spectral_estimate(f, zero, kern)
        w = kern.weights()
        mh = np.sum(np.abs(f.values) ** 2, axis=(1, 2))
        mi = np.sum(w ** 2) * mh
        w1 = mh / (mh + mi)
        assert np.all(w1 > 0.9)
        assert np.allclose(out.values, w1[:, None, None] * f.values, atol=1e-12)

    def test_grid_mismatch(self):
        _, _, kern, f = self._data()
        other = CrossSpectralMatrix(FrequencyGrid(64), np.zeros((64, 2, 2)))
        with pytest.raises(ConfigError):
            shrink_spectral_estimate(f, other, kern)


class TestSerialization:
    def test_json_roundtrip(self):
        rng = np.random.default_rng(13)
        f = periodogram(series(rng.standard_normal((64, 2))))
        g = csm_from_json(csm_to_json(f))
        assert np.allclose(g.values, f.values)
        assert g.grid == f.grid
        assert g.sample_rate_hz == f.sample_rate_hz

    def test_csv_long_format(self, tmp_path):
        from specdep.spectrum import csm_to_csv
        rng = np.random.default_rng(14)
        f = periodogram(series(rng.standard_normal((16, 2))))
        path = tmp_path / "spec.csv"
        csm_to_csv(f, path)
        import csv as csvmod
        rows = list(csvmod.DictReader(path.read_text().splitlines()))
        assert len(rows) == 16 * 4
        k = f.grid.index_of(0.25)
        row = [r for r in rows if float(r["freq"]) == 0.25
               and r["p"] == "0" and r["q"] == "1"][0]
        assert float(row["re"]) == f.values[k, 0, 1].real
        assert float(row["im"]) == f.values[k, 0, 1].imag
