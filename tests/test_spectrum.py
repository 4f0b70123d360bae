import json

import numpy as np
import pytest
from hypothesis import example as example_of
from hypothesis import given, settings
from hypothesis import strategies as st

from specdep import spectrum
from specdep.coherence import (coherence_matrix, estimate_spectrum, partial_coherence,
                               tv_coherence, tv_partial_coherence)
from specdep.core import ConfigError, FrequencyGrid, MultiChannelSeries, demean, write_json
from specdep.simulate import _stationary_var, example
from specdep.spca import spca_encode, spca_fit
from specdep.spectrum import (CrossSpectralMatrix, SmoothingKernel, ar2_from_peak,
                              csm_to_json, default_bandwidth, fourier_coefficients,
                              periodogram, shrink_spectral_estimate,
                              smooth_periodogram, var_spectrum)
from specdep.var import VarModel, simulate_var, transfer_function


def series(x, fs=128.0):
    return MultiChannelSeries(x, fs)


def ar2_density(model, w):
    """Closed-form AR(2) density sigma^2 / |1 - phi1 e^{-i2pw} - phi2 e^{-i4pw}|^2."""
    phi1, phi2 = model.coeffs[:, 0, 0]
    z = np.exp(-2j * np.pi * np.asarray(w, dtype=float))
    return model.noise_cov[0, 0] / np.abs(1.0 - phi1 * z - phi2 * z ** 2) ** 2


def ar2_spec(M, psi, grid):
    """The one-channel spectrum of ar2_from_peak(M, psi) on ``grid``."""
    return var_spectrum(ar2_from_peak(M, psi), grid).values[:, 0, 0].real


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
            assert np.array_equal(d[im], d[ip].conj())

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(P=st.integers(1, 5), T=st.integers(4, 256).map(lambda m: 2 * m),
           seed=st.integers(0, 2 ** 16))
    def test_equals_direct_sum(self, P, T, seed):
        # sum_{t=1..T} x(t) e^{-i2pi k t / T} of the demeaned series at every grid
        # frequency k/T, within 1e-12 of the largest |d|; k t is reduced mod T first
        x = np.random.default_rng(seed).standard_normal((T, P))
        grid, d = fourier_coefficients(series(x))
        k = np.rint(grid.frequencies * T).astype(int)
        direct = np.exp(-2j * np.pi * (np.outer(k, np.arange(1, T + 1)) % T) / T) @ demean(x)
        assert d.shape == (T, P)
        assert np.max(np.abs(d - direct)) <= 1e-12 * np.max(np.abs(d))

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

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(P=st.integers(1, 5), T=st.integers(4, 256).map(lambda m: 2 * m),
           seed=st.integers(0, 2 ** 16),
           scales=st.lists(st.floats(1e-3, 1e3), min_size=5, max_size=5))
    @example_of(P=2, T=1024, seed=4, scales=[1.0, 3.5, 1.0, 1.0, 1.0])
    def test_parseval(self, P, T, seed, scales):
        # criterion 12's form: the mean of each auto-periodogram over the grid is
        # the channel's variance, within 1e-8 relative
        rng = np.random.default_rng(seed)
        s = series(rng.standard_normal((T, P)) * scales[:P])
        f = periodogram(s)
        x = s.samples - s.samples.mean(axis=0)
        for p in range(P):
            var = np.dot(x[:, p], x[:, p]) / T
            mean_diag = np.mean(f.values[:, p, p].real)
            assert abs(mean_diag - var) <= 1e-8 * var

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
        phi1, phi2 = ar2_from_peak(1.05, 10 / 50).coeffs[:, 0, 0]
        assert phi1 == pytest.approx((2 / 1.05) * np.cos(2 * np.pi * 0.2))
        assert phi2 == pytest.approx(-1 / 1.05 ** 2)

    def test_quarter_cycle_zero_phi1(self):
        assert ar2_from_peak(1.3, 0.25).coeffs[0, 0, 0] == pytest.approx(0.0, abs=1e-15)

    def test_printed_delta_coefficients(self):
        phi1, phi2 = ar2_from_peak(1.049787, 2 / 128).coeffs[:, 0, 0]
        assert phi2 == pytest.approx(-1 / 1.049787 ** 2)
        assert phi1 == pytest.approx((2 / 1.049787) * np.cos(2 * np.pi * 2 / 128))

    def test_one_channel_var2(self):
        model = ar2_from_peak(1.08, 0.1, noise_var=2.0)
        assert isinstance(model, VarModel)
        assert model.coeffs.shape == (2, 1, 1)
        assert np.array_equal(model.noise_cov, [[2.0]])

    def test_noncausal_rejected(self):
        with pytest.raises(ConfigError):
            ar2_from_peak(1.0, 0.1)
        with pytest.raises(ConfigError):
            ar2_from_peak(0.9, 0.1)

    @pytest.mark.parametrize("M, psi, noise_var", [(1.1, 0.5, 1.0), (1.1, -0.5, 1.0),
                                                   (1.1, 0.1, 0.0), (1.1, 0.1, -1.0)])
    def test_peak_and_noise_rejected(self, M, psi, noise_var):
        with pytest.raises(ConfigError):
            ar2_from_peak(M, psi, noise_var)

    def test_root_roundtrip(self):
        roots = 1 / np.linalg.eigvals(ar2_from_peak(1.17, 0.31).companion())
        mags = np.abs(roots)
        phases = np.abs(np.angle(roots)) / (2 * np.pi)
        assert np.allclose(mags, 1.17, atol=1e-10)
        assert np.allclose(phases, 0.31, atol=1e-10)

    def test_spectrum_peak_location(self):
        grid = FrequencyGrid(1024)
        spec = ar2_spec(1.05, 0.2, grid)
        pos = grid.frequencies > 0
        peak = grid.frequencies[pos][np.argmax(spec[pos])]
        assert 0.195 <= peak <= 0.205

    def test_bandwidth_grows_with_m(self):
        grid = FrequencyGrid(4096)

        def half_power_width(M):
            spec = ar2_spec(M, 0.2, grid)
            return np.mean(spec > spec.max() / 2)

        assert half_power_width(1.5) > half_power_width(1.05)

    def test_spectrum_symmetric(self):
        grid = FrequencyGrid(50)
        spec = ar2_spec(1.1, 0.13, grid)
        k = np.arange(1, 25)
        pos = [grid.index_of(w) for w in k / 50]
        neg = [grid.index_of(w) for w in -k / 50]
        assert np.allclose(spec[pos], spec[neg])

    def test_stationary_var_matches_simulation(self):
        model = ar2_from_peak(1.08, 0.1, noise_var=2.0)
        s = simulate_var(model, 2 ** 16, 0)
        assert np.var(s.samples) == pytest.approx(_stationary_var(model), rel=0.1)


class TestVarSpectrum:
    def test_pure_noise_identity(self):
        model = VarModel(np.zeros((0, 2, 2)), np.eye(2))
        f = var_spectrum(model, FrequencyGrid(64))
        assert np.allclose(f.values, np.eye(2))

    def test_diagonal_var2_matches_ar2(self):
        pa = ar2_from_peak(1.05, 0.1)
        pb = ar2_from_peak(1.2, 0.35, noise_var=0.5)
        phi1 = np.diag([pa.coeffs[0, 0, 0], pb.coeffs[0, 0, 0]])
        phi2 = np.diag([pa.coeffs[1, 0, 0], pb.coeffs[1, 0, 0]])
        model = VarModel(np.stack([phi1, phi2]), np.diag([1.0, 0.5]))
        grid = FrequencyGrid(256)
        f = var_spectrum(model, grid)
        w = grid.frequencies
        assert np.allclose(f.values[:, 0, 0].real, ar2_density(pa, w), atol=1e-8)
        assert np.allclose(f.values[:, 1, 1].real, ar2_density(pb, w), atol=1e-8)
        assert np.allclose(f.values[:, 0, 1], 0.0, atol=1e-12)

    def test_single_channel_matches_ar2_pointwise(self):
        model = ar2_from_peak(1.07, 0.22, noise_var=1.7)
        grid = FrequencyGrid(512)
        f = var_spectrum(model, grid)
        assert np.allclose(f.values[:, 0, 0].real, ar2_density(model, grid.frequencies),
                           atol=1e-8)

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
        zero = CrossSpectralMatrix(f.grid, np.zeros_like(f.half))
        out = shrink_spectral_estimate(f, zero, kern)
        w = kern.weights()
        mh = np.sum(np.abs(f.values) ** 2, axis=(1, 2))
        mi = np.sum(w ** 2) * mh
        w1 = mh / (mh + mi)
        assert np.all(w1 > 0.9)
        assert np.allclose(out.values, w1[:, None, None] * f.values, atol=1e-12)

    def test_grid_mismatch(self):
        _, _, kern, f = self._data()
        other = CrossSpectralMatrix(FrequencyGrid(64), np.zeros((33, 2, 2)))
        with pytest.raises(ConfigError):
            shrink_spectral_estimate(f, other, kern)


class TestEstimatorsArePsd:
    """Every estimator's matrices pass ``validate()`` at any shape: its own
    tolerance, a smallest eigenvalue of at least -1e-8 times the trace."""

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(P=st.integers(1, 5), half_T=st.integers(4, 192), seed=st.integers(0, 2 ** 16),
           kind=st.sampled_from(["daniell", "triangular"]), width=st.floats(0, 1),
           scale=st.integers(-3, 3), radius=st.floats(0, 0.95))
    def test_validate_passes(self, P, half_T, seed, kind, width, scale, radius):
        T = 2 * half_T
        rng = np.random.default_rng(seed)
        s = series(10.0 ** scale * rng.standard_normal((T, P)))
        kern = SmoothingKernel(kind, int(width * ((T - 1) // 4)))  # bandwidth < T/4
        # a VAR(1) of spectral radius ``radius``: a scaled orthogonal matrix
        A = radius * np.linalg.qr(rng.standard_normal((P, P)))[0]
        M = rng.standard_normal((P, P))
        model = VarModel(A[None], M @ M.T + 0.1 * np.eye(P))
        I = periodogram(s)
        f = smooth_periodogram(I, kern)
        h = var_spectrum(model, I.grid, s.sample_rate_hz)
        for est in (I, f, h, shrink_spectral_estimate(f, h, kern)):
            est.validate()


class TestSerialization:
    def test_json_roundtrip(self, tmp_path):
        rng = np.random.default_rng(13)
        f = periodogram(series(rng.standard_normal((64, 2))))
        path = tmp_path / "csm.json"
        write_json(path, csm_to_json(f))
        obj = json.loads(path.read_text())
        w0 = obj["n"] // 2 - 1  # the file holds every grid frequency; w >= 0 from here
        g = CrossSpectralMatrix(FrequencyGrid(obj["n"]),
                                np.asarray(obj["re"])[w0:] + 1j * np.asarray(obj["im"])[w0:],
                                obj["sample_rate_hz"], obj["channel_labels"])
        assert np.allclose(g.values, f.values)
        assert g.grid == f.grid
        assert g.sample_rate_hz == f.sample_rate_hz
        assert np.array_equal(obj["frequencies"], f.grid.frequencies)

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


def full_grid_periodogram(s):
    """d d* / T formed at every grid frequency, w < 0 included."""
    _, d = fourier_coefficients(s)
    return np.einsum("kp,kq->kpq", d, d.conj()) / s.n_samples


def full_grid_smooth(v, kernel):
    """Circular smoothing of every grid frequency by FFT, then Hermitian symmetrization."""
    n, b = v.shape[0], kernel.bandwidth
    kern = np.zeros(n)
    kern[:b + 1] = kernel.weights()[b:]
    kern[n - b:] = kernel.weights()[:b]
    sm = np.fft.ifft(np.fft.fft(v, axis=0) * np.fft.fft(kern)[:, None, None], axis=0)
    return 0.5 * (sm + sm.conj().transpose(0, 2, 1))


def full_grid_var_spectrum(model, grid):
    """Phi^{-1} Sigma Phi^{-*} inverted at every grid frequency, then symmetrized."""
    inv = np.linalg.inv(transfer_function(model, grid.frequencies))
    vals = inv @ model.noise_cov @ inv.conj().transpose(0, 2, 1)
    return 0.5 * (vals + vals.conj().transpose(0, 2, 1))


def full_grid_blend(f, h, kernel):
    """The shrinkage weights W1 = m_h / (m_h + m_I) applied at every grid frequency."""
    mh = np.sum(np.abs(h - f) ** 2, axis=(1, 2))
    mi = np.sum(kernel.weights() ** 2) * np.sum(np.abs(f) ** 2, axis=(1, 2))
    w1 = mh / (mh + mi)
    return w1[:, None, None] * f + (1.0 - w1)[:, None, None] * h


def is_conjugate_mirrored(v):
    h = v.shape[0] // 2
    return np.array_equal(v[:h - 1], v[h:-1][::-1].conj())


class TestConjugateSymmetry:
    """Every estimator's w < 0 matrices are the exact conjugates of the w > 0
    ones, and all are within 1e-14 of the largest entry of the formulas that
    evaluate every frequency."""

    KERNEL = SmoothingKernel("daniell", 8)

    def _series(self, seed, T=512):
        model = VarModel([[[0.5, 0.2, 0.0], [0.0, 0.3, 0.1], [0.1, 0.0, -0.4]]], np.eye(3))
        return simulate_var(model, T, seed)

    @pytest.mark.parametrize("seed", range(4))
    def test_estimators_mirror_exactly_and_match_full_grid(self, seed):
        from specdep.var import fit_ols
        s = self._series(seed)
        grid = FrequencyGrid(s.n_samples)
        fitted = fit_ols(s, 2)
        I = periodogram(s)
        f = smooth_periodogram(I, self.KERNEL)
        h = var_spectrum(fitted, grid)
        cases = [
            (I, full_grid_periodogram(s)),
            (smooth_periodogram(I, SmoothingKernel("daniell", 0)), full_grid_periodogram(s)),
            (f, full_grid_smooth(full_grid_periodogram(s), self.KERNEL)),
            (h, full_grid_var_spectrum(fitted, grid)),
            (shrink_spectral_estimate(f, h, self.KERNEL), full_grid_blend(
                full_grid_smooth(full_grid_periodogram(s), self.KERNEL),
                full_grid_var_spectrum(fitted, grid), self.KERNEL)),
        ]
        for got, ref in cases:
            assert is_conjugate_mirrored(got.values)
            assert np.max(np.abs(got.values - ref)) <= 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("seed", range(4))
    def test_periodogram_nonnegative_half_bit_identical(self, seed):
        s = self._series(seed)
        k0 = s.n_samples // 2 - 1
        assert np.array_equal(periodogram(s).values[k0:], full_grid_periodogram(s)[k0:])

    def test_rejects_matrices_changed_at_negative_frequencies(self):
        # only the w >= 0 half can be passed, so no w < 0 matrix can disagree
        # with its partner, and the unfolded grid cannot be written to
        f = periodogram(self._series(0))
        v = f.values.copy()
        v[3] += np.eye(3)  # still Hermitian, no longer the conjugate of its partner
        with pytest.raises(ConfigError, match="n/2 \\+ 1"):
            CrossSpectralMatrix(f.grid, v)
        with pytest.raises(ConfigError, match="n/2 \\+ 1"):
            CrossSpectralMatrix(f.grid, f.values)
        with pytest.raises(ValueError, match="read-only"):
            f.values[3] += np.eye(3)
        assert np.array_equal(f.values, periodogram(self._series(0)).values)


def full_fft_coefficients(s):
    """d(w) from a complex FFT over all T bins, each bin phased, rotated into grid order."""
    T = s.n_samples
    F = np.fft.fft(demean(s.samples), axis=0) * np.exp(-2j * np.pi * np.arange(T) / T)[:, None]
    return FrequencyGrid(T), np.roll(F, T // 2 - 1, axis=0)


class TestFullFftRoute:
    """Outputs on seed-1 T=8192 inputs from the real-FFT coefficients against those
    from a complex FFT of all T bins: they differ by rounding only."""

    @pytest.fixture(scope="class")
    def outputs(self):
        net, _ = example("pdc_net", 8192, 1)
        mix, _ = example("spca_mix", 8192, 1)

        def run():
            f = estimate_spectrum(net)
            sol = spca_fit(estimate_spectrum(mix), 2)
            return {"spectrum": f.values,
                    "coherence": coherence_matrix(f).values,
                    "pcoh": partial_coherence(f),
                    "pcoh_shrunk": partial_coherence(estimate_spectrum(net, shrink_order=2)),
                    "tvcoh": tv_coherence(net, 1024, 512).values,
                    "tvcoh_partial": tv_partial_coherence(net, 1024, 512).values,
                    "spca_loadings": sol.loadings,
                    "spca_encode": spca_encode(mix, sol).samples}

        got = run()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(spectrum, "fourier_coefficients", full_fft_coefficients)
            want = run()
        return got, want

    @pytest.mark.parametrize("name, bound, relative", [
        ("spectrum", 1e-13, True), ("coherence", 1e-11, False), ("pcoh", 1e-11, False),
        ("pcoh_shrunk", 1e-11, False), ("tvcoh", 1e-10, False), ("tvcoh_partial", 1e-10, False),
        ("spca_loadings", 1e-11, True), ("spca_encode", 1e-11, True)])
    def test_within_bound(self, outputs, name, bound, relative):
        got, want = outputs[0][name], outputs[1][name]
        scale = np.max(np.abs(want)) if relative else 1.0
        assert np.max(np.abs(got - want)) <= bound * scale
