import json

import numpy as np
import pytest

from specdep.core import ConfigError
from specdep.simulate import example, example_names, gen_sources, mix, pdc_net_model
from specdep.spectrum import ar2_from_peak
from specdep.var import VarModel


class TestGenSources:
    def test_single_source_peak(self):
        p = ar2_from_peak(1.05, 10 / 50)
        s = gen_sources([p], 2 ** 14, 0, sample_rate_hz=50.0)
        from specdep.spectrum import SmoothingKernel, periodogram, smooth_periodogram
        f = smooth_periodogram(periodogram(s), SmoothingKernel("daniell", 32))
        pos = f.grid.frequencies > 0
        peak = f.grid.frequencies[pos][np.argmax(f.values[pos, 0, 0].real)]
        assert abs(peak - 0.2) < 0.01

    def test_sources_independent(self):
        p = ar2_from_peak(1.1, 0.1)
        q = ar2_from_peak(1.1, 0.3)
        s = gen_sources([p, q], 2 ** 14, 1)
        x = s.samples - s.samples.mean(axis=0)
        r = np.dot(x[:, 0], x[:, 1]) / (np.linalg.norm(x[:, 0]) * np.linalg.norm(x[:, 1]))
        assert abs(r) < 0.05

    def test_reproducible(self):
        p = ar2_from_peak(1.2, 0.25)
        a = gen_sources([p, "white"], 1024, 7)
        b = gen_sources([p, "white"], 1024, 7)
        assert np.array_equal(a.samples, b.samples)

    def test_standardized_unit_variance(self):
        # moderately narrowband sources at T=2^14; median over seeds
        p = ar2_from_peak(1.2, 0.15)
        vs = [gen_sources([p], 2 ** 14, seed).samples.var() for seed in range(5)]
        assert abs(np.median(vs) - 1.0) < 0.02

    @pytest.mark.parametrize("source", [
        "pink", 0.5, None, np.zeros(3),
        VarModel([[[0.5]]], [[1.0]]),                       # VAR(1)
        VarModel(np.zeros((2, 2, 2)), np.eye(2)),           # two channels
        VarModel([[[0.5]], [[-0.1]], [[0.1]]], [[1.0]])],  # VAR(3)
        ids=["name", "float", "none", "array", "var1", "two_channel", "var3"])
    def test_rejects_non_oscillator(self, source):
        with pytest.raises(ConfigError, match="source 1"):
            gen_sources(["white", source], 64, 0)


class TestMix:
    def test_identity_mixing(self):
        p = ar2_from_peak(1.1, 0.2)
        src = gen_sources([p, p], 512, 2)
        out = mix(src, np.eye(2), None, 0.0, 3)
        assert np.array_equal(out.samples, src.samples)

    def test_zero_mixing_pure_noise(self):
        p = ar2_from_peak(1.1, 0.2)
        src = gen_sources([p], 512, 4)
        out = mix(src, np.zeros((2, 1)), None, 1.0, 5)
        assert np.std(out.samples) > 0.5
        assert abs(np.corrcoef(out.samples.T)[0, 1]) < 0.2

    def test_lagged_copy_construction(self):
        p = ar2_from_peak(1.1, 0.2)
        q = ar2_from_peak(1.1, 0.4)
        src = gen_sources([p, q], 256, 6)
        out = mix(src, np.array([[1.0, 1.0], [0.0, 1.0]]), np.array([[0, 10], [0, 0]]),
                  0.0, 7)
        z1, z2 = src.channel(0), src.channel(1)
        assert np.allclose(out.samples[10:, 0], z1[10:] + z2[:-10])
        assert np.allclose(out.samples[:, 1], z2)

    def test_lag_too_large(self):
        p = ar2_from_peak(1.1, 0.2)
        src = gen_sources([p], 64, 8)
        with pytest.raises(ConfigError):
            mix(src, np.array([[1.0]]), np.array([[64]]), 0.0, 9)

    @pytest.mark.parametrize("mixing, lags", [
        (np.ones(2), None),                      # not a matrix
        (np.ones((2, 3)), None),                 # one column per source
        (np.eye(2), np.zeros((1, 2), int)),      # lags not P x K
        (np.eye(2), [[0, -1], [0, 0]]),          # negative lag
        (np.eye(2), [[0, 64], [0, 0]]),          # lag >= T
        (np.eye(2), [[0, 2.5], [0, 0]]),         # not a whole number of samples
        (np.eye(2), [[0, np.nan], [0, 0]])],
        ids=["1d", "columns", "lag_shape", "negative", "too_long", "fractional", "nan"])
    def test_rejects_mixture(self, mixing, lags):
        src = gen_sources([ar2_from_peak(1.1, 0.2), "white"], 64, 10)
        with pytest.raises(ConfigError):
            mix(src, mixing, lags, 0.0, 11)

    def test_noise_std_broadcasts_to_channels(self):
        src = gen_sources(["white"], 64, 12)
        with pytest.raises(ValueError):
            mix(src, np.ones((2, 1)), None, [1.0, 1.0, 1.0], 13)


def _reference_mix(sources, mixing, lags, noise_std, seed):
    # the mixing loop and noise draw as written before the shared source builder
    mixing = np.asarray(mixing, dtype=float)
    P, K = mixing.shape
    lags = np.zeros((P, K), dtype=int) if lags is None else np.asarray(lags, dtype=int)
    noise_std = np.broadcast_to(np.asarray(noise_std, dtype=float), (P,)).copy()
    T = sources.n_samples
    rng = np.random.default_rng(seed)
    out = np.zeros((T, P))
    for p in range(P):
        for k in range(K):
            c = mixing[p, k]
            if c == 0.0:
                continue
            h = lags[p, k]
            z = sources.channel(k)
            if h == 0:
                out[:, p] += c * z
            else:
                out[h:, p] += c * z[:-h]
    out += rng.standard_normal((T, P)) * noise_std
    return out


_BASE = {"fs": 128.0, "M": 1.05}
_REFERENCE_SCENARIOS = {
    # name: (default options, override set, source peak keys)
    "instant_mixture": (dict(_BASE, noise_std=0.5, low_freq_hz=2.0, high_freq_hz=40.0,
                             weight=1.0),
                        {"weight": 0.5, "noise_std": 0.1}, ("low_freq_hz", "high_freq_hz")),
    "lagged_mixture": (dict(_BASE, noise_std=0.5, low_freq_hz=2.0, high_freq_hz=40.0,
                            lag=10, weight=1.0),
                       {"lag": 3, "weight": 2}, ("low_freq_hz", "high_freq_hz")),
    "gamma_net": (dict(_BASE, noise_std=0.5, delta_hz=2.0, alpha_hz=10.0, gamma_hz=40.0),
                  {"fs": 256.0, "gamma_hz": 60.0}, ("delta_hz", "alpha_hz", "gamma_hz")),
    "gamma_alpha_net": (dict(_BASE, noise_std=0.5, delta_hz=2.0, alpha_hz=10.0,
                             gamma_hz=40.0),
                        {"M": 1.1, "noise_std": 0.0}, ("delta_hz", "alpha_hz", "gamma_hz")),
    "lead_lag": (dict(_BASE, noise_std=0.5, delta_hz=2.0, beta_hz=15.0, gamma_hz=30.0,
                      lag=10),
                 {"lag": 4, "beta_hz": 18.0}, ("delta_hz", "beta_hz", "gamma_hz")),
    "spca_mix": (dict(_BASE, noise_std=0.5, delta_hz=2.0, alpha_hz=10.0, gamma_hz=40.0),
                 {"noise_std": 1.0, "alpha_hz": 11.0}, ("delta_hz", "alpha_hz", "gamma_hz")),
    "pac": (dict(_BASE, theta_hz=6.0, gamma_hz=40.0, noise_var=0.1),
            {"noise_var": 0.3, "theta_hz": 5.0}, ("theta_hz", "gamma_hz")),
}


def _reference_example(name, T, seed, overrides):
    """Each source-based scenario wired by hand: spawn, gen_sources, mix."""
    defaults, _, peaks = _REFERENCE_SCENARIOS[name]
    o = dict(defaults, **(overrides or {}))
    fs = o["fs"]
    params = [ar2_from_peak(o["M"], o[k] / fs) for k in peaks]
    src_seed, noise_seed = np.random.SeedSequence(seed).spawn(2)
    sources = gen_sources(params, T, src_seed, fs)
    if name == "pac":
        eps = np.random.default_rng(noise_seed).standard_normal((T, 2)) * np.sqrt(o["noise_var"])
        z_t, z_g = sources.channel(0), sources.channel(1)
        x = np.column_stack([(z_g + 1.0) * z_t + 2.0 * z_g + eps[:, 0],
                             4.0 * z_t + z_t * z_g + eps[:, 1]])
        return x, sources, eps
    c, h, s = o.get("weight"), o.get("lag"), o["noise_std"]
    args = {
        "instant_mixture": ([[c, c], [0.0, c]], None, s),
        "lagged_mixture": ([[c, c], [0.0, c]], [[0, h], [0, 0]], s),
        "gamma_net": ([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [0.0, 0.0, 1.0]], None, [s, s, 0.0]),
        "gamma_alpha_net": ([[0.0, 1.0, 1.0], [1.0, 1.0, 1.0], [0.0, 0.0, 1.0]], None,
                            [s, s, 0.0]),
        "lead_lag": ([[1.0, 0.0, 0.0], [1.0, 1.0, 1.0]], [[0, 0, 0], [h, h, h]], s),
        "spca_mix": ([[1.0, 0.0, 1.0], [0.0, 0.0, 1.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0],
                      [1.0, 1.0, 0.0]], None, s),
    }[name]
    return _reference_mix(sources, *args, noise_seed), sources, None


@pytest.mark.parametrize("name", sorted(_REFERENCE_SCENARIOS))
@pytest.mark.parametrize("overridden", [False, True])
def test_scenarios_match_reference_wiring(name, overridden):
    overrides = _REFERENCE_SCENARIOS[name][1] if overridden else None
    for seed in (0, 5, 21):
        series, truth = example(name, 512, seed, overrides)
        x, sources, eps = _reference_example(name, 512, seed, overrides)
        assert np.array_equal(series.samples, x), (name, seed)
        if name == "pac":
            assert np.array_equal(truth["aux"]["sources"].samples, sources.samples)
            assert np.array_equal(truth["aux"]["noise"], eps)


class TestExamples:
    def test_registry(self):
        assert "pdc_net" in example_names()
        with pytest.raises(ConfigError):
            example("no_such_thing", 1024, 0)

    def test_deterministic(self):
        for name in example_names():
            a, ta = example(name, 256, 11)
            b, tb = example(name, 256, 11)
            assert np.array_equal(a.samples, b.samples), name

    @pytest.mark.parametrize("name", ["pac", "pdc_net"])
    def test_negative_seed_rejected(self, name):
        with pytest.raises(ConfigError, match="seed"):
            example(name, 256, -1)

    def test_override_unknown_rejected(self):
        with pytest.raises(ConfigError):
            example("chirp", 256, 0, {"bogus": 1})

    def test_instant_mixture_rejects_lag(self):
        # only the lagged scenario plants a lag; the instant one must not ignore it
        with pytest.raises(ConfigError, match="unknown overrides \\['lag'\\]"):
            example("instant_mixture", 256, 0, {"lag": 5})
        _, truth = example("instant_mixture", 256, 0)
        assert truth["lag"] == 0

    @pytest.mark.parametrize("name, overrides", [
        ("gamma_net", {"fs": 0}), ("pdc_net", {"fs": 0}), ("chirp", {"fs": 0}),
        ("pac", {"noise_var": -1}), ("lead_lag", {"noise_std": -1}),
        ("lead_lag", {"lag": 2.5}), ("lagged_mixture", {"lag": 2.5}),
        ("instant_mixture", {"weight": 1e308}), ("chirp", {"noise_std": 1e308}),
        ("chirp", {"amplitude": 1e308, "noise_std": 1e308}),
        ("pdc_net", {"M": 0.9}), ("pac", {"M": 1.0})])
    def test_override_out_of_range_rejected(self, name, overrides):
        with pytest.raises(ConfigError):
            example(name, 256, 0, overrides)

    def test_gamma_net_truth(self):
        _, t = example("gamma_net", 256, 12)
        assert t["coherent_pairs"]["gamma"] == [[0, 1], [0, 2], [1, 2]]
        assert t["partial_coherence_zero"]["gamma"] == [[0, 1]]
        json.dumps(t)  # descriptor is pure data

    def test_pdc_net_truth_coefficients(self):
        _, t = example("pdc_net", 256, 13)
        model = pdc_net_model()
        assert np.allclose(t["coeffs"], model.coeffs)
        beta = ar2_from_peak(1.049787, 20 / 128)
        assert model.coeffs[0][0, 0] == pytest.approx(beta.coeffs[0, 0, 0])
        assert model.coeffs[1][0, 0] == pytest.approx(beta.coeffs[1, 0, 0])
        assert model.coeffs[0][0, 1] == 0.5
        assert model.coeffs[1][1, 3] == 1.0
        assert sorted(map(tuple, t["edges"])) == [(1, 0, 1), (2, 1, 1), (3, 1, 2)]

    def test_pac_mixture_reconstruction(self):
        s, t = example("pac", 512, 14)
        aux = t["aux"]
        zt = aux["sources"].channel(0)
        zg = aux["sources"].channel(1)
        eps = aux["noise"]
        x1 = (zg + 1.0) * zt + 2.0 * zg + eps[:, 0]
        x2 = 4.0 * zt + zt * zg + eps[:, 1]
        assert np.allclose(s.samples[:, 0], x1)
        assert np.allclose(s.samples[:, 1], x2)
        assert t["noise_var"] == pytest.approx(0.1)

    def test_lead_lag_structure(self):
        s, t = example("lead_lag", 2048, 15, {"noise_std": 0.0})
        assert t["lag"] == 10
        # X2 carries X1's delta source delayed by 10, so the cross-correlation
        # of the raw channels peaks exactly there
        from specdep.core import max_lag_sq_correlation
        val, lag = max_lag_sq_correlation(s.samples[:, 1], s.samples[:, 0], 20)
        assert lag == 10

    def test_chirp_truth(self):
        s, t = example("chirp", 1024, 16)
        assert s.n_channels == 1
        assert t["f0_hz"] == 2.0
        assert t["slope_hz_per_s"] == 0.4

    def test_spca_mix_matrix(self):
        _, t = example("spca_mix", 256, 17)
        assert t["mixing"] == [[1.0, 0.0, 1.0], [0.0, 0.0, 1.0], [1.0, 0.0, 1.0],
                               [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]]
        assert t["band_channels"]["alpha"] == [3, 4]

    def test_instant_mixture_shares_high_band(self):
        s, t = example("instant_mixture", 512, 18, {"noise_std": 0.0})
        assert t["coherent_band"] == "high"
        # X2 = high-frequency source only; X1 contains it too
        _, ta = example("instant_mixture", 512, 18, {"noise_std": 0.0})
        assert t["low_band_hz"] == [0.5, 4.0]
