import numpy as np
import pytest
from hypothesis import example as example_of
from hypothesis import given, settings
from hypothesis import strategies as st

from specdep.coherence import (band_coherence, coherence, coherence_matrix,
                               coherency, estimate_spectrum, partial_coherence,
                               partial_coherence_residual, tv_coherence,
                               tv_partial_coherence)
from specdep.core import (ConfigError, FrequencyGrid, MultiChannelSeries, band_by_name,
                          sliding_windows)
from specdep.filters import apply_filter, default_order, design_fir_bandpass
from specdep.simulate import example, gen_sources
from specdep.spectrum import (CrossSpectralMatrix, SmoothingKernel, ar2_from_peak,
                              default_bandwidth, periodogram, shrink_spectral_estimate,
                              smooth_periodogram, var_spectrum)
from specdep.var import fit_ols


def white(T, P, seed, fs=128.0):
    return MultiChannelSeries(np.random.default_rng(seed).standard_normal((T, P)), fs)


def smoothed(s, b=16):
    return smooth_periodogram(periodogram(s), SmoothingKernel("daniell", b))


class TestCoherency:
    def test_self_is_one(self):
        f = smoothed(white(512, 2, 0))
        assert np.allclose(coherency(f, 0, 0), 1.0, atol=1e-12)

    def test_diagonal_matrix_zero_cross(self):
        grid = FrequencyGrid(32)
        vals = np.tile(np.diag([2.0, 5.0]).astype(complex), (17, 1, 1))
        f = CrossSpectralMatrix(grid, vals)
        assert np.allclose(coherency(f, 0, 1), 0.0)

    def test_rank_one_gives_unit_modulus(self):
        rng = np.random.default_rng(1)
        grid = FrequencyGrid(16)
        a = rng.standard_normal((9, 3)) + 1j * rng.standard_normal((9, 3))
        a[np.abs(a) < 0.1] += 0.5
        f = CrossSpectralMatrix(grid, np.einsum("kp,kq->kpq", a, a.conj()))  # rank one
        for p, q in [(0, 1), (0, 2), (1, 2)]:
            assert np.allclose(np.abs(coherency(f, p, q)), 1.0, atol=1e-9)

    def test_zero_autospectrum_errors(self):
        grid = FrequencyGrid(8)
        vals = np.zeros((5, 2, 2), dtype=complex)
        f = CrossSpectralMatrix(grid, vals)
        with pytest.raises(ValueError, match=r"of channel 0 at every frequency: the channel "
                                             r"has no power$"):
            coherency(f, 0, 1)

    def test_zero_autospectrum_names_channel_and_row(self):
        # channel 1 has no power at w = 1/4 only, row 2 of the half
        vals = np.tile(np.eye(2, dtype=complex), (5, 1, 1))
        vals[2, 1, 1] = 0.0
        f = CrossSpectralMatrix(FrequencyGrid(8), vals)
        for estimate in (lambda: coherency(f, 0, 1), lambda: coherence_matrix(f),
                         lambda: partial_coherence(f)):
            with pytest.raises(ValueError, match=r"^zero auto-spectrum of channel 1 at "
                                                 r"grid index 5 \(frequency 0\.250000\); shrink"):
                estimate()

    def test_checks_only_its_own_pair(self):
        # a silent third channel stops the matrix, not the (0, 1) coherency
        x = np.random.default_rng(4).standard_normal((256, 3))
        x[:, 2] = 0.0
        f = smoothed(MultiChannelSeries(x, 128.0), 8)
        assert np.all(np.isfinite(coherency(f, 0, 1)))
        with pytest.raises(ValueError, match="zero auto-spectrum"):
            coherence_matrix(f)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(P=st.integers(1, 4), T=st.sampled_from([64, 128, 256]),
           seed=st.integers(0, 2 ** 16))
    def test_pair_equals_matrix_entry(self, P, T, seed):
        f = smoothed(white(T, P, seed), 4)
        rho = coherence_matrix(f).values
        for p in range(P):
            for q in range(P):
                if p != q:
                    assert np.array_equal(coherence(f, p, q), rho[:, p, q])

    @pytest.mark.parametrize("p, q", [(-1, 0), (0, 3), (3, 3)])
    def test_channel_out_of_range(self, p, q):
        # a negative index would otherwise wrap: (-1, 0) read channel 2
        f = smoothed(white(256, 3, 2))
        for fn in (coherency, coherence):
            with pytest.raises(ConfigError, match="outside"):
                fn(f, p, q)


class TestCoherence:
    def test_independent_channels_null(self):
        s = white(2 ** 14, 2, 2)
        f = smoothed(s, 32)
        assert np.median(coherence(f, 0, 1)) < 0.05

    def test_example1_band_contrast(self):
        s, t = example("instant_mixture", 7680, 3)
        f = estimate_spectrum(s)
        hi = f.grid.index_of_hz(t["high_peak_hz"], s.sample_rate_hz)
        lo = f.grid.index_of_hz(t["low_peak_hz"], s.sample_rate_hz)
        rho = coherence(f, 0, 1)
        assert rho[hi] > 0.6
        assert rho[hi] > 5 * rho[lo]

    def test_rescaling_invariance(self):
        s = white(2048, 3, 4)
        s2 = MultiChannelSeries(s.samples * np.array([2.0, 0.03, 17.0]), 128.0)
        c1 = coherence_matrix(smoothed(s)).values
        c2 = coherence_matrix(smoothed(s2)).values
        assert np.max(np.abs(c1 - c2)) < 1e-8


class TestBandCoherence:
    def test_self_pair(self):
        s = white(2048, 2, 5)
        assert band_coherence(s, 0, 0, band_by_name("alpha")) == (1.0, 0)

    @pytest.mark.parametrize("p, q", [(-1, 0), (0, -1), (3, 0), (-1, -1), (3, 3)])
    def test_channel_outside_range(self, p, q):
        from specdep.core import ConfigError
        with pytest.raises(ConfigError, match="outside"):
            band_coherence(white(2048, 3, 5), p, q, band_by_name("gamma"))

    def test_example2_lag_recovery(self):
        s, t = example("lagged_mixture", 7680, 6)
        val_hi, lag = band_coherence(s, 0, 1, band_by_name("gamma"), max_lag=50)
        val_lo, _ = band_coherence(s, 0, 1, band_by_name("delta"), max_lag=50)
        assert val_hi > 0.6
        assert abs(lag) == t["lag"]
        assert val_lo < 0.1

    def test_example4_gamma_pairs(self):
        s, t = example("gamma_net", 4096, 7)
        for p, q in t["coherent_pairs"]["gamma"]:
            val, _ = band_coherence(s, p, q, band_by_name("gamma"))
            assert val > 0.6

    def test_gamma_net_coherent_in_gamma_only(self):
        s, _ = example("gamma_net", 4096, 21)
        for p, q in [(0, 1), (0, 2), (1, 2)]:
            assert band_coherence(s, p, q, band_by_name("gamma"))[0] > 0.6
            assert band_coherence(s, p, q, band_by_name("delta"))[0] <= 0.6

    def test_symmetry_with_negated_lag(self):
        s, _ = example("lagged_mixture", 4096, 8)
        v1, l1 = band_coherence(s, 0, 1, band_by_name("gamma"), max_lag=40)
        v2, l2 = band_coherence(s, 1, 0, band_by_name("gamma"), max_lag=40)
        assert v1 == pytest.approx(v2, abs=1e-12)
        assert l1 == -l2


def partial_coherence_reference(f):
    """The inverse-matrix form written out: |-g_pq / sqrt(g_pp g_qq)|^2, diagonal 1."""
    g = np.linalg.inv(f.values)
    d = np.real(np.einsum("kpp->kp", g))
    norm = np.sqrt(d[:, :, None] * d[:, None, :])
    out = np.abs(-g / norm) ** 2
    idx = np.arange(f.n_channels)
    out[:, idx, idx] = 1.0
    return out


class TestPartialCoherence:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(P=st.integers(1, 4), T=st.sampled_from([64, 128, 256]),
           seed=st.integers(0, 2 ** 16))
    def test_matches_inverse_reference(self, P, T, seed):
        f = smoothed(white(T, P, seed), 4)
        assert np.array_equal(partial_coherence(f), partial_coherence_reference(f))

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_full_grid_estimate(self, seed):
        # the estimate unfolded from w >= 0 against the smoothed periodogram
        # formed at every frequency: coherence and partial coherence to 1e-10
        from test_spectrum import full_grid_periodogram, full_grid_smooth
        s, _ = example("gamma_alpha_net", 1024, seed)
        kernel = SmoothingKernel("daniell", 8)
        f = smooth_periodogram(periodogram(s), kernel)
        v = full_grid_smooth(full_grid_periodogram(s), kernel)
        d = np.real(np.einsum("kpp->kp", v))
        coh = np.abs(v) ** 2 / (d[:, :, None] * d[:, None, :])
        g = np.linalg.inv(v)
        e = np.real(np.einsum("kpp->kp", g))
        pcoh = np.abs(g) ** 2 / (e[:, :, None] * e[:, None, :])
        off = ~np.eye(s.n_channels, dtype=bool)
        assert np.max(np.abs(coherence_matrix(f).values - coh)[:, off]) <= 1e-10
        assert np.max(np.abs(partial_coherence(f) - pcoh)[:, off]) <= 1e-10

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(T=st.integers(4, 256).map(lambda m: 2 * m), seed=st.integers(0, 2 ** 16),
           width=st.floats(0, 1))
    @example_of(T=256, seed=100, width=7 / 62)
    def test_bivariate_equals_coherence(self, T, seed, width):
        # criterion 8 at every length and bandwidth 1 .. T/4 - 1: within 1e-10
        f = smoothed(white(T, 2, seed), 1 + int(width * (T // 4 - 2)))
        pc = partial_coherence(f)
        c = coherence_matrix(f).values
        assert np.max(np.abs(pc[:, 0, 1] - c[:, 0, 1])) < 1e-10

    def test_block_diagonal_zero_across(self):
        rng = np.random.default_rng(9)
        grid = FrequencyGrid(16)
        vals = np.zeros((9, 3, 3), dtype=complex)
        for k in range(9):
            a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            block = np.outer(a, a.conj()) + 2.0 * np.eye(2)
            vals[k, :2, :2] = block
            vals[k, 2, 2] = 3.0
        f = CrossSpectralMatrix(grid, vals)
        pc = partial_coherence(f)
        assert np.allclose(pc[:, 0, 2], 0.0, atol=1e-12)
        assert np.allclose(pc[:, 1, 2], 0.0, atol=1e-12)

    def test_example4_gamma_partialled_out(self):
        s, t = example("gamma_net", 4096, 10)
        f = estimate_spectrum(s)
        k = f.grid.index_of_hz(t["source_peaks_hz"][2], s.sample_rate_hz)
        pc = partial_coherence(f)
        c = coherence_matrix(f).values
        assert c[k, 0, 1] > 0.6
        assert pc[k, 0, 1] < 0.1

    def test_symmetric(self):
        s = white(1024, 3, 11)
        pc = partial_coherence(smoothed(s))
        assert np.max(np.abs(pc - pc.transpose(0, 2, 1))) < 1e-10

    def test_ill_conditioned_directs_to_shrinkage(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal(512)
        s = MultiChannelSeries(np.column_stack([x, x + 1e-9 * rng.standard_normal(512)]),
                               128.0)
        f = smoothed(s, 8)
        with pytest.raises(ValueError, match="shrink"):
            partial_coherence(f)


class TestShrinkOrder:
    def test_is_shrinkage_toward_the_var_spectrum(self):
        s, _ = example("pdc_net", 4096, 7)
        kern = SmoothingKernel("daniell", default_bandwidth(s.n_samples))
        f = smooth_periodogram(periodogram(s), kern)
        h = var_spectrum(fit_ols(s, 2), f.grid, s.sample_rate_hz)
        want = shrink_spectral_estimate(f, h, kern)
        got = estimate_spectrum(s, kern, shrink_order=2).validate()
        assert np.array_equal(got.values, want.values)
        assert 0.0 <= np.max(partial_coherence(got)) <= 1.0


class TestResidualPartialCoherence:
    def test_identical_pair(self):
        s, _ = example("gamma_net", 2048, 13)
        assert partial_coherence_residual(s, 0, 0, 2, band_by_name("gamma")) == 1.0

    @pytest.mark.parametrize("p", [7, -1])
    def test_channel_checked_before_identical_pair(self, p):
        s = white(1024, 3, 3)
        with pytest.raises(ConfigError, match="outside"):
            partial_coherence_residual(s, p, p, 0, band_by_name("alpha"))

    def test_q_equals_conditioner_gives_zero(self):
        rng = np.random.default_rng(14)
        x = rng.standard_normal((4096, 2))
        s = MultiChannelSeries(np.column_stack([x[:, 0], x[:, 1], x[:, 1]]), 128.0)
        val = partial_coherence_residual(s, 0, 1, 2, band_by_name("alpha"))
        assert val == 0.0

    def test_needs_four_samples_after_trimming(self):
        band = band_by_name("alpha")
        K = default_order(band, 128.0)
        s, _ = example("gamma_net", 2 * K + 3, 0)
        with pytest.raises(ConfigError, match="too short"):
            partial_coherence_residual(s, 0, 1, 2, band)
        s, _ = example("gamma_net", 2 * K + 4, 0)
        assert 0.0 <= partial_coherence_residual(s, 0, 1, 2, band) <= 1.0

    @pytest.mark.parametrize("seed", [15, 16, 17])
    def test_matches_regression_reference(self, seed):
        # p and q regressed on c over the samples K from each end, then the
        # squared correlation of the residuals: equal up to rounding (1e-14)
        s, _ = example("gamma_net", 4096, seed)
        band = band_by_name("gamma")
        K = default_order(band, 128.0)
        y = np.column_stack([apply_filter(design_fir_bandpass(band, K, 128.0),
                                          s.select([ch])).samples[K:-K, 0] for ch in (0, 1, 2)])
        y = y - y.mean(axis=0)
        xc = y[:, 2]
        r0, r1 = (y[:, i] - np.dot(xc, y[:, i]) / np.dot(xc, xc) * xc for i in (0, 1))
        want = np.dot(r0, r1) ** 2 / (np.dot(r0, r0) * np.dot(r1, r1))
        assert abs(partial_coherence_residual(s, 0, 1, 2, band) - want) < 1e-14

    def test_example4_agrees_with_matrix_form(self):
        s, t = example("gamma_net", 4096, 15)
        val = partial_coherence_residual(s, 0, 1, 2, band_by_name("gamma"))
        assert val < 0.1


class TestTimeVarying:
    def _coupled(self, T, seed, two_regime=False):
        fs = 128.0
        alpha = ar2_from_peak(1.05, 10 / fs)
        src = gen_sources([alpha, alpha, alpha], T, seed, fs)
        z, z2, z3 = (src.channel(i) for i in range(3))
        rng = np.random.default_rng(seed + 1000)
        n = 0.3 * rng.standard_normal((T, 2))
        x1 = z + n[:, 0]
        if two_regime:
            half = T // 2
            x2 = np.concatenate([z[:half], z3[half:]]) + n[:, 1]
        else:
            x2 = z + n[:, 1]
        return MultiChannelSeries(np.column_stack([x1, x2]), fs)

    def test_stationary_coherence_stable_across_windows(self):
        s = self._coupled(8192, 16)
        res = tv_coherence(s, 1024, 512)
        k = res.grid.index_of_hz(10.0, s.sample_rate_hz)
        vals = res.values[:, k, 0, 1]
        assert vals.std() < 0.15

    def test_two_regime_drop(self):
        s = self._coupled(8192, 17, two_regime=True)
        res = tv_coherence(s, 1024, 1024)
        k = res.grid.index_of_hz(10.0, s.sample_rate_hz)
        vals = res.values[:, k, 0, 1]
        first = vals[res.centers < 0.45].mean()
        second = vals[res.centers > 0.55].mean()
        assert first - second > 0.4

    def test_full_window_reduces_to_static(self):
        s = white(1024, 2, 18)
        res = tv_coherence(s, 1024, 64)
        assert len(res.centers) == 1
        static = coherence_matrix(estimate_spectrum(s)).values
        assert np.array_equal(res.values[0], static)

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(P=st.integers(1, 3), N=st.sampled_from([64, 128]),
           step=st.integers(32, 96), b=st.sampled_from([None, 2, 3]),
           partial=st.booleans(), seed=st.integers(0, 2 ** 16))
    def test_windows_stack_static_estimates(self, P, N, step, b, partial, seed):
        s = white(256, P, seed)
        kernel = None if b is None else SmoothingKernel("triangular", b)
        tv = tv_partial_coherence if partial else tv_coherence
        res = tv(s, N, step, kernel)
        static = [estimate_spectrum(win, kernel) for _, win in sliding_windows(s, N, step)]
        expected = [partial_coherence(f) if partial else coherence_matrix(f).values
                    for f in static]
        assert np.array_equal(res.values, np.stack(expected))

    def test_tv_partial_two_regime(self):
        s = self._coupled(8192, 19, two_regime=True)
        res = tv_partial_coherence(s, 1024, 1024)
        k = res.grid.index_of_hz(10.0, s.sample_rate_hz)
        vals = res.values[:, k, 0, 1]
        assert vals[0] > vals[-1]

    def test_window_validation(self):
        s = white(1024, 2, 20)
        from specdep.core import ConfigError
        with pytest.raises(ConfigError):
            tv_coherence(s, 511, 64)  # odd window
        with pytest.raises(ConfigError):
            tv_coherence(s, 2048, 64)  # longer than the series
        with pytest.raises(ConfigError):
            tv_coherence(s, 64, 32, SmoothingKernel("daniell", 20))
