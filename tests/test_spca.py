import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specdep.coherence import coherence, estimate_spectrum
from specdep.core import Band, FrequencyGrid, MultiChannelSeries
from specdep.simulate import example
from specdep.spca import (_fix_signs, band_loadings, pca_decode, pca_encode,
                          pca_fit, reconstruction_error, spca_decode, spca_encode,
                          spca_fit, spca_from_json, spca_to_json)
from specdep.spectrum import CrossSpectralMatrix


def white(T, P, seed, fs=128.0, scale=None):
    x = np.random.default_rng(seed).standard_normal((T, P))
    if scale is not None:
        x = x * scale
    return MultiChannelSeries(x, fs)


def constant_spectrum(n, matrix, fs=128.0):
    vals = np.tile(np.asarray(matrix, dtype=complex), (n, 1, 1))
    return CrossSpectralMatrix(FrequencyGrid(n), vals, fs)


class TestPca:
    def test_full_basis_reconstruction(self):
        s = white(1024, 4, 0)
        sol = pca_fit(s, 4)
        xhat = pca_decode(pca_encode(s, sol), sol)
        assert np.max(np.abs(xhat.samples - s.samples)) < 1e-10

    def test_diagonal_covariance_picks_top_channel(self):
        s = white(2 ** 14, 3, 1, scale=np.sqrt([3.0, 2.0, 1.0]))
        sol = pca_fit(s, 1)
        assert abs(sol.loadings[0, 0]) > 0.99
        assert sol.loadings[0, 0] > 0  # sign convention

    def test_orthonormal_and_sorted(self):
        s = white(2048, 5, 2)
        sol = pca_fit(s, 3)
        assert np.max(np.abs(sol.loadings.T @ sol.loadings - np.eye(3))) < 1e-10
        assert np.all(np.diff(sol.eigenvalues) <= 1e-12)

    def test_encoded_uncorrelated(self):
        s, _ = example("spca_mix", 4096, 3)
        sol = pca_fit(s, 3)
        y = pca_encode(s, sol).samples
        cov = (y.T @ y) / y.shape[0]
        off = cov - np.diag(np.diag(cov))
        assert np.max(np.abs(off)) < 1e-8 * np.max(np.diag(cov))

    def test_eigen_tail_identity(self):
        T = 2 ** 14
        s = white(T, 4, 4, scale=np.array([2.0, 1.5, 1.0, 0.5]))
        sol_full = pca_fit(s, 4)
        sol = pca_fit(s, 2)
        err = reconstruction_error(s, sol)
        tail = sol_full.eigenvalues[2:].sum()
        assert err == pytest.approx(tail, rel=0.01)

    def test_example9_loadings_weight_delta_gamma_carriers(self):
        s, _ = example("spca_mix", 4096, 5)
        sol = pca_fit(s, 1)
        a = np.abs(sol.loadings[:, 0])
        assert a[0] > a[3] and a[2] > a[3]


def reference_positive_bins(f, Q):
    """Reference: the per-frequency eigh and phase-alignment loop over bins 0..n/2.

    Returns the aligned top-Q loadings, their eigenvalues and the degenerate
    frequencies, as the vectorized :func:`spca_fit` replaced them.
    """
    n, P = f.grid.n, f.n_channels
    half = n // 2
    pos0 = half - 1
    vals_pos = np.empty((half + 1, Q))
    vecs_pos = np.empty((half + 1, P, Q), dtype=complex)
    degenerate = []
    prev = None
    for k in range(half + 1):
        m = f.values[pos0 + k]
        if k == 0 or k == half:
            ev, vec = np.linalg.eigh(m.real)
        else:
            ev, vec = np.linalg.eigh(m)
        order = np.argsort(ev)[::-1]
        ev, vec = ev[order], vec[:, order]
        if Q < P and ev[Q - 1] - ev[Q] <= 1e-6 * max(abs(ev[Q - 1]), 1e-300):
            degenerate.append(float(f.grid.frequencies[pos0 + k]))
        top = vec[:, :Q].astype(complex)
        if k == 0:
            top = _fix_signs(top.real).astype(complex)
        elif k == half:
            top = top.real
            for j in range(Q):
                if prev is not None and np.real(np.vdot(prev[:, j], top[:, j])) < 0:
                    top[:, j] = -top[:, j]
            top = top.astype(complex)
        else:
            for j in range(Q):
                z = np.vdot(prev[:, j], top[:, j])
                if np.abs(z) > 0:
                    top[:, j] *= np.conj(z) / np.abs(z)
        vals_pos[k] = ev[:Q]
        vecs_pos[k] = top
        prev = top
    return vecs_pos, vals_pos, degenerate


def assert_matches_reference(f, Q, **kwargs):
    sol = spca_fit(f, Q, **kwargs)
    vecs, vals, degenerate = reference_positive_bins(f, Q)
    half = f.grid.n // 2
    assert np.max(np.abs(sol.loadings[half - 1:] - vecs)) < 1e-12
    assert np.array_equal(sol.eigenvalues[half - 1:], vals)
    assert sol.degenerate_freqs == degenerate


class TestSpcaMatchesPerFrequencyLoop:
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(P=st.integers(1, 4), q=st.floats(0.0, 1.0), T=st.sampled_from([64, 128, 512]),
           seed=st.integers(0, 2 ** 16))
    def test_estimated_spectra(self, P, q, T, seed):
        rng = np.random.default_rng(seed)
        e = rng.standard_normal((T + 1, P))
        x = e[1:] + e[:-1] @ rng.standard_normal((P, P))
        assert_matches_reference(estimate_spectrum(MultiChannelSeries(x, 128.0)),
                                 1 + int(q * (P - 1)))

    def test_crossing_eigenvalues_reset_alignment(self):
        # The top eigenvector leaves the coupled block (0, 1), whose phase
        # rotates with frequency, for channel 2 near 0.23 cycles/sample.
        # There w = 0 exactly, so the phase product must restart at 1.
        n = 64
        w = FrequencyGrid(n).frequencies
        vals = np.zeros((n, 3, 3), dtype=complex)
        vals[:, 0, 0], vals[:, 1, 1] = 2.0, 1.0
        vals[:, 0, 1] = 0.5 * np.exp(2j * np.pi * w)
        vals[:, 1, 0] = vals[:, 0, 1].conj()
        vals[:, 2, 2] = 2.5 - 2.0 * np.cos(2 * np.pi * w)
        f = CrossSpectralMatrix(FrequencyGrid(n), vals, 128.0)
        assert_matches_reference(f, 1, lag_truncation=4)
        top = spca_fit(f, 1, lag_truncation=4).loadings[:, :, 0]
        assert np.any(np.all(top == [0, 0, 1], axis=1))


class TestSpcaFit:
    def test_constant_spectrum_single_lag(self):
        m = np.array([[2.0, 0.5], [0.5, 1.0]])
        f = constant_spectrum(64, m)
        sol = spca_fit(f, 2, lag_truncation=8)
        lags = sol.lags
        nonzero = sol.decode_filters[lags != 0]
        assert np.max(np.abs(nonzero)) < 1e-10
        ev, vec = np.linalg.eigh(m)
        a0 = sol.decode_filters[lags == 0][0]
        # columns match eigenvectors up to sign
        for j, v in enumerate(vec[:, ::-1].T):
            assert min(np.max(np.abs(a0[:, j] - v)),
                       np.max(np.abs(a0[:, j] + v))) < 1e-10

    def test_diagonal_spectrum_tracks_dominant_channel(self):
        n = 64
        g = FrequencyGrid(n)
        vals = np.zeros((n, 2, 2), dtype=complex)
        hi = np.abs(g.frequencies) > 0.25
        vals[:, 0, 0] = np.where(hi, 5.0, 1.0)
        vals[:, 1, 1] = np.where(hi, 1.0, 5.0)
        f = CrossSpectralMatrix(g, vals)
        sol = spca_fit(f, 1, lag_truncation=8)
        load = np.abs(sol.loadings[:, :, 0])
        assert np.allclose(load[hi, 0], 1.0, atol=1e-9)
        assert np.allclose(load[~hi, 1], 1.0, atol=1e-9)

    def test_orthonormal_loadings_every_frequency(self):
        s, _ = example("spca_mix", 2048, 6)
        sol = spca_fit(estimate_spectrum(s), 3)
        prod = np.einsum("kpi,kpj->kij", sol.loadings.conj(), sol.loadings)
        assert np.max(np.abs(prod - np.eye(3))) < 1e-8

    def test_lag_filters_real(self):
        s, _ = example("spca_mix", 2048, 7)
        sol = spca_fit(estimate_spectrum(s), 2)
        # construction enforces conjugate symmetry; filters stored real
        assert sol.decode_filters.dtype == float
        assert np.all(np.isfinite(sol.decode_filters))

    def test_eigen_gap_flagged(self):
        f = constant_spectrum(32, np.eye(2))  # fully degenerate
        sol = spca_fit(f, 1, lag_truncation=4)
        assert len(sol.degenerate_freqs) > 0

    def test_json_roundtrip(self):
        s, _ = example("spca_mix", 1024, 8)
        sol = spca_fit(estimate_spectrum(s), 2, lag_truncation=32)
        back = spca_from_json(spca_to_json(sol))
        assert np.allclose(back.loadings, sol.loadings)
        assert np.allclose(back.encode_filters, sol.encode_filters)
        assert back.sample_rate_hz == sol.sample_rate_hz


class TestSpcaEncodeDecode:
    def test_zero_input(self):
        s, _ = example("spca_mix", 1024, 9)
        sol = spca_fit(estimate_spectrum(s), 2, lag_truncation=64)
        z = MultiChannelSeries(np.full((512, 5), 1e-300), 128.0)
        y = spca_encode(z, sol)
        assert np.allclose(y.samples, 0.0, atol=1e-250)

    def test_full_rank_dense_lag_reconstruction(self):
        s, _ = example("spca_mix", 4096, 10)
        f = estimate_spectrum(s)
        sol = spca_fit(f, 5, lag_truncation=512)
        err = reconstruction_error(s, sol)
        x = s.samples - s.samples.mean(axis=0)
        energy = np.mean(np.sum(x ** 2, axis=1))
        assert err < 0.02 * energy

    def test_matches_bruteforce_convolution(self):
        s, _ = example("spca_mix", 512, 11)
        sol = spca_fit(estimate_spectrum(s), 2, lag_truncation=16)
        y = spca_encode(s, sol).samples
        x = s.samples - s.samples.mean(axis=0)
        T = x.shape[0]
        L = sol.lag_truncation
        expect = np.zeros((T, 2))
        for t in range(T):
            for i, l in enumerate(range(-L, L + 1)):
                if 0 <= t - l < T:
                    expect[t] += sol.encode_filters[i] @ x[t - l]
        assert np.max(np.abs(y - expect)) < 1e-10

    def test_matches_per_pair_fftconvolve(self):
        fftconvolve = pytest.importorskip("scipy.signal").fftconvolve

        def per_pair(x, filters, L):
            T, P = x.shape
            out = np.zeros((T, filters.shape[1]))
            for q in range(filters.shape[1]):
                for p in range(P):
                    if np.any(filters[:, q, p]):
                        out[:, q] += fftconvolve(x[:, p], filters[:, q, p])[L:L + T]
            return out

        s, _ = example("spca_mix", 8192, 13)
        sol = spca_fit(estimate_spectrum(s), 2)
        sol.encode_filters[:, 1, 3] = 0.0  # an all-zero (q, p) kernel
        L = sol.lag_truncation
        x = s.samples - s.samples.mean(axis=0)
        y = spca_encode(s, sol)
        assert np.max(np.abs(y.samples - per_pair(x, sol.encode_filters, L))) < 1e-12
        xhat = spca_decode(y, sol).samples
        assert np.max(np.abs(xhat - per_pair(y.samples, sol.decode_filters, L))) < 1e-12

    def test_encoded_components_incoherent(self):
        s, _ = example("spca_mix", 4096, 12)
        sol = spca_fit(estimate_spectrum(s), 3)
        y = spca_encode(s, sol)
        fy = estimate_spectrum(y)
        meds = [np.median(coherence(fy, p, q))
                for p in range(3) for q in range(p + 1, 3)]
        assert max(meds) < 0.05

    def test_roundtrip_idempotent_up_to_truncation(self):
        # a smooth spectral model (eigenvectors rotating slowly with
        # frequency) has fast-decaying lag filters, so the truncated
        # encode/decode composition is very nearly a projection; estimated
        # spectra add estimation noise on top of the truncation error
        n = 512
        g = FrequencyGrid(n)
        w = g.frequencies
        theta = 0.3 * np.cos(2 * np.pi * w)
        c, s_ = np.cos(theta), np.sin(theta)
        rot = np.zeros((n, 2, 2))
        rot[:, 0, 0], rot[:, 0, 1] = c, -s_
        rot[:, 1, 0], rot[:, 1, 1] = s_, c
        d = np.zeros((n, 2, 2))
        d[:, 0, 0] = 3.0 + np.cos(2 * np.pi * w) ** 2
        d[:, 1, 1] = 0.5
        f = CrossSpectralMatrix(g, rot @ d @ rot.transpose(0, 2, 1), 128.0)
        sol = spca_fit(f, 1, lag_truncation=64)
        x = white(4096, 2, 16)
        once = spca_decode(spca_encode(x, sol), sol)
        twice = spca_decode(spca_encode(once, sol), sol)
        trim = 2 * sol.lag_truncation
        a = once.samples[trim:-trim]
        b = twice.samples[trim:-trim]
        rms = np.sqrt(np.mean(a ** 2))
        assert np.sqrt(np.mean((a - b) ** 2)) < 1e-3 * rms


class TestReconstructionError:
    def test_nonincreasing_in_q(self):
        s, _ = example("spca_mix", 2048, 14)
        f = estimate_spectrum(s)
        errs = [reconstruction_error(s, spca_fit(f, q, lag_truncation=128))
                for q in (1, 2, 3, 5)]
        assert all(a >= b - 1e-9 for a, b in zip(errs, errs[1:]))

    def test_spca_beats_pca_at_q1(self):
        wins = []
        for seed in range(50):
            s, _ = example("spca_mix", 2048, seed + 100)
            pca_err = reconstruction_error(s, pca_fit(s, 1))
            spca_err = reconstruction_error(
                s, spca_fit(estimate_spectrum(s), 1, lag_truncation=128))
            wins.append(spca_err - pca_err)
        assert np.median(wins) < 0.0


class TestBandLoadings:
    def test_constant_spectrum_band_independent(self):
        m = np.array([[2.0, 0.4], [0.4, 1.0]])
        sol = spca_fit(constant_spectrum(128, m), 2, lag_truncation=8)
        a = band_loadings(sol, Band("low", 1.0, 10.0))
        b = band_loadings(sol, Band("high", 20.0, 50.0))
        assert np.allclose(a, b, atol=1e-10)
        assert np.all(a >= 0)

    def test_example9_alpha_channels(self):
        s, _ = example("spca_mix", 4096, 15)
        sol = spca_fit(estimate_spectrum(s), 1)
        a = band_loadings(sol, Band("alpha", 8.0, 12.0))[:, 0]
        assert min(a[3], a[4]) > max(a[0], a[1], a[2])
